"""Golden outputs: the bytes behind the README's bit-identical promise.

A changed digest means a changed output. A digest changes only with a
deliberate numeric change that CHANGES.md lists with the invocation, the
values that moved and why; a change that claims the same behaviour keeps
every digest. The digests belong to the numerical stack they were recorded
with (Python 3.11.7, numpy 2.4.6 on x86-64 Linux); another stack may round
differently. The package's root finder and quadrature are its own, so the
scipy version does not enter them.
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
     False, 0, "8abe31fef3414136964ba0401c5f404baee6d36b027100b2d37476a84cb4e923"),
    ("readme-p1-circle", ["orbit", "-p", "1", "-q", "2", "-c", "0", "--start", "0", "2",
                          "--span", "7"], False, 0, "83be65d822ba0e6cfb7036c0dd72ae16e7a7a7377b9315a5d15cb34e15fd41f6"),
    ("readme-scan", ["period-scan", "-p", "2", "-q", "3", "-c", "0", "--kind",
                     "sign-changing", "--grid", "0.01:100:30:log"], False, 0,
     "b039057eee5552b06ada2061407dfc2512a39d2766d28bf5a5d062382bba0787"),
    ("readme-solve-set", ["solve-set", "-p", "1", "-q", "2", "-c", "3"], True, 0,
     "dcc3806ef4d16417b7983ae07592f0542620b4210ed3e8e357247420f9198dee"),
    ("readme-sector", ["sector", "-p", "2", "-q", "3", "--theta", "3.141592653589793"],
     False, 0, "2bbf0d02c35536ef9ac23e56deefeb8e36371cccf830fce9705f4d55a6fe8487"),
    ("params-p1", ["params", "-p", "1", "-q", "2", "-c", "3"], False, 0, "527ce197cd2c9d44431653ebeac4827e64f070b0b074d0be5165bb2b5d171285"),
    ("params-p3", ["params", "-p", "3", "-q", "5", "-c", "30"], False, 0, "9d22420365ef54b854cdebc39aef44d3b610aff3aad1607f1331c7abbc094090"),
    ("orbit-b1", ["orbit", "-p", "1.5", "-q", "5", "-c", "0.5", "--start", "0", "1"],
     False, 0, "7ac95df78e3928f7513723f14091da8c0d2d65d914b7807658a1480e00909142"),
    ("orbit-p2-energy", ["orbit", "-p", "2", "-q", "3", "-c", "0", "--start", "0", "1"],
     False, 0, "9839d3ff6ee1d889b803fc94b9550be9382e03085fc40dba90aa4cebe6a89b50"),
    ("orbit-p1-off-circle", ["orbit", "-p", "1", "-q", "2", "-c", "0.5", "--start",
                             "1.2", "0", "--span", "5"], False, 0,
     "4cf29066401fa857e6c459f8f5dba737719c9c1d235256662ab3a02842bfd8a8"),
    ("orbit-center", ["orbit", "-p", "3", "-q", "5", "-c", "30", "--start", "2", "0"],
     False, 0, "a3144c451af86a2bcc817d3634d6fe0218b10ec277d309901ec8d5813bb2bc39"),
    ("orbit-stationary", ["orbit", "-p", "2", "-q", "3", "-c", "2", "--start", "1", "0"],
     False, 0, "ccf0cf5c940cb7a1b5fcc6adb534c63a1925922a0d547977fa92f97bfba2a17b"),
    ("orbit-homoclinic-json", ["orbit", "-p", "2.5", "-q", "4", "-c", "10",
                               "--homoclinic", "--format", "json"], False, 0,
     "271a350abd60cc49662f5dc479828fc68160110e04563f2be3c981820d77fa2a"),
    ("scan-positive-json", ["period-scan", "-p", "2", "-q", "3", "-c", "2", "--kind",
                            "positive", "--grid", "0.1:0.9:8", "--format", "json"],
     False, 0, "23e2841a83a0379040185a5d1f9f0c61a088802ec24aa21d3df177fbfe94da52"),
    ("scan-positive-p1", ["period-scan", "-p", "1", "-q", "2", "-c", "1", "--kind",
                          "positive", "--grid", "0.01:2.5:10"], False, 3,
     "2547b80af785a2b80f7f01d125b0de7231d682f07a7d1eb96af0beef87ad4d49"),
    ("solve-set-sc", ["solve-set", "-p", "2", "-q", "3", "-c", "0", "--k-max", "3"],
     False, 0, "c999f7d24bb4f899ff642060264068c16fa81c52513e44b992243984881dbe3f"),
    ("solve-set-pos", ["solve-set", "-p", "2", "-q", "3", "-c", "3", "--k-max", "1"],
     False, 0, "651c4576fa90abc567c3a40e8b618dc525df7996b970ad7c40dbae38a23b7301"),
    ("solve-set-explicit", ["solve-set", "-p", "1", "-q", "0.5", "-c", "0"], True, 0,
     "effa052d8ac2321376be7783e9f1ae466002bcaea1ea48f3bf14e5e1e0f4bb83"),
]

# script file name -> sha256 of the tree it writes under OUT
SCRIPT_CASES = {
    "mode_atlas.py": "5254f829d8eae6ca873351a9c4d18958052acec87eddb74fe5b05dcb0f04a299",
    "period_curves.py": "b0dcd0ab27882209428b95a3a1f1bbd90c619bd66f6d348de9604e6870abf8e6",
    "phase_portraits.py": "bf582d5049643fcf1aea9de78881ff214375d9bcf47f4656c18e780fe2e2a910",
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
