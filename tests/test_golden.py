"""Golden outputs: the bytes behind the README's bit-identical promise.

A changed digest means a changed output. A digest changes only with a
deliberate numeric change that CHANGES.md lists with the invocation, the
values that moved and why; a change that claims the same behaviour keeps
every digest. The digests belong to the numerical stack they were recorded
with (Python 3.11.7, numpy 2.4.6, scipy 1.17.1 on x86-64 Linux); another
stack may round differently.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from seplane.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# (id, argv, writes to --out, exit code, sha256 of stdout or of the --out tree)
CLI_CASES = [
    ("readme-params", ["params", "-p", "2", "-q", "3", "-c", "0"], False, 0,
     "2f3f42e7dc342c46a756a599747a55c51b2f0b164893bd7829eaf1ed793435e9"),
    ("readme-homoclinic", ["orbit", "-p", "2", "-q", "3", "-c", "2", "--homoclinic"],
     False, 0, "8d8eb87f02d1fb00bb95cdeaca544e12b7086003670793ac831a67614fb5b134"),
    ("readme-p1-circle", ["orbit", "-p", "1", "-q", "2", "-c", "0", "--start", "0", "2",
                          "--span", "7"], False, 0, "83be65d822ba0e6cfb7036c0dd72ae16e7a7a7377b9315a5d15cb34e15fd41f6"),
    ("readme-scan", ["period-scan", "-p", "2", "-q", "3", "-c", "0", "--kind",
                     "sign-changing", "--grid", "0.01:100:30:log"], False, 0,
     "48ff690107b08e6408748addedbf1885f0b0dfba927c223681168bbee5c0426f"),
    ("readme-solve-set", ["solve-set", "-p", "1", "-q", "2", "-c", "3"], True, 0,
     "4e86c5b0b76e0c55fe4738795014f7ca58ac8cf4c6544ec634a634437b4bdfac"),
    ("readme-sector", ["sector", "-p", "2", "-q", "3", "--theta", "3.141592653589793"],
     False, 0, "2bbf0d02c35536ef9ac23e56deefeb8e36371cccf830fce9705f4d55a6fe8487"),
    ("params-p1", ["params", "-p", "1", "-q", "2", "-c", "3"], False, 0, "527ce197cd2c9d44431653ebeac4827e64f070b0b074d0be5165bb2b5d171285"),
    ("params-p3", ["params", "-p", "3", "-q", "5", "-c", "30"], False, 0, "9d22420365ef54b854cdebc39aef44d3b610aff3aad1607f1331c7abbc094090"),
    ("orbit-b1", ["orbit", "-p", "1.5", "-q", "5", "-c", "0.5", "--start", "0", "1"],
     False, 0, "e2120e069fd83ca4bc2653edc5a53f699b63fe30d9b40a0d21ff2daa64db00a0"),
    ("orbit-p2-energy", ["orbit", "-p", "2", "-q", "3", "-c", "0", "--start", "0", "1"],
     False, 0, "a3ef75f7b587ffc4ca451093b52f6e039a1f3ac84829ac7d1e473e2d8c8d6d61"),
    ("orbit-p1-off-circle", ["orbit", "-p", "1", "-q", "2", "-c", "0.5", "--start",
                             "1.2", "0", "--span", "5"], False, 0,
     "f0e7d75b6bc0d1696418d92a12ed4497da52610e982a42e1b20bbaab90a9a5f4"),
    ("orbit-center", ["orbit", "-p", "3", "-q", "5", "-c", "30", "--start", "2", "0"],
     False, 0, "787ffc569c1d9c80779cae522f689204f1bec34c5a6c54e89c0ff9ddaeeaff99"),
    ("orbit-stationary", ["orbit", "-p", "2", "-q", "3", "-c", "2", "--start", "1", "0"],
     False, 0, "ccf0cf5c940cb7a1b5fcc6adb534c63a1925922a0d547977fa92f97bfba2a17b"),
    ("orbit-homoclinic-json", ["orbit", "-p", "2.5", "-q", "4", "-c", "10",
                               "--homoclinic", "--format", "json"], False, 0,
     "d01f8a9355dc56a89ad911ef42ca1879fe54752dc55cb6e31ebcf14812d239be"),
    ("scan-positive-json", ["period-scan", "-p", "2", "-q", "3", "-c", "2", "--kind",
                            "positive", "--grid", "0.1:0.9:8", "--format", "json"],
     False, 0, "454caec3ced789f36e14aa1f0b0b8970ec9a37423276e01c4cf8acec3e8ac5bd"),
    ("scan-positive-p1", ["period-scan", "-p", "1", "-q", "2", "-c", "1", "--kind",
                          "positive", "--grid", "0.01:2.5:10"], False, 3,
     "ede5caf4ca607c056a3ad6691428f5c111bedb089120fba6afac866fbbe0d197"),
    ("solve-set-sc", ["solve-set", "-p", "2", "-q", "3", "-c", "0", "--k-max", "3"],
     False, 0, "4040076ef34b1ee3a4f35d8e3737009addb07ef494b7ffa8e729380c72d57a2e"),
    ("solve-set-pos", ["solve-set", "-p", "2", "-q", "3", "-c", "3", "--k-max", "1"],
     False, 0, "ade33e48d74885ed8366e38a292e8c0a4ff840704f5218f34381584ce0d9dd0e"),
    ("solve-set-explicit", ["solve-set", "-p", "1", "-q", "0.5", "-c", "0"], True, 0,
     "effa052d8ac2321376be7783e9f1ae466002bcaea1ea48f3bf14e5e1e0f4bb83"),
]

# script file name -> sha256 of the tree it writes under OUT
SCRIPT_CASES = {
    "mode_atlas.py": "5254f829d8eae6ca873351a9c4d18958052acec87eddb74fe5b05dcb0f04a299",
    "period_curves.py": "c4f996bdfa22d69435c12daf5356a97327bba086624403050fcd39e3d503e393",
    "phase_portraits.py": "88f991605efeee82c107c80bfa3121fbf0c7c6964863edbb13ce99453adfb971",
}

def tree_digest(root: Path) -> str:
    """sha256 over the relative names and contents of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def run_cli(argv, out_dir):
    """Exit code and digest of one invocation; out_dir set means --out."""
    if out_dir is not None:
        argv = argv + ["--out", str(out_dir)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if out_dir is not None:
        return code, tree_digest(out_dir)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def run_script(name, out_dir):
    spec = importlib.util.spec_from_file_location(f"golden_{Path(name).stem}",
                                                  SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = out_dir
    with contextlib.redirect_stdout(io.StringIO()):
        module.main()
    return tree_digest(out_dir)


@pytest.mark.parametrize("argv,to_dir,code,digest",
                         [c[1:] for c in CLI_CASES], ids=[c[0] for c in CLI_CASES])
def test_cli_output(argv, to_dir, code, digest, tmp_path):
    assert run_cli(argv, tmp_path / "out" if to_dir else None) == (code, digest)


@pytest.mark.parametrize("name", sorted(SCRIPT_CASES))
def test_script_output(name, tmp_path):
    assert run_script(name, tmp_path) == SCRIPT_CASES[name]
