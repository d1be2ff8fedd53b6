"""Golden outputs: the bytes behind the README's bit-identical promise.

Every digest below was recorded once from a fixed source tree and is never
regenerated by a refactor. A changed digest means a changed output, which a
change that claims the same behaviour must not produce. The digests belong to
the numerical stack they were recorded with (Python 3.11.7, numpy 2.4.6,
scipy 1.17.1 on x86-64 Linux); another stack may round differently.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from seplane.cli import main
from seplane.params import Nonlinearity, ReducedParams
from seplane.periods import _p1_mubar, period_positive_p1

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# (id, argv, writes to --out, exit code, sha256 of stdout or of the --out tree)
CLI_CASES = [
    ("readme-params", ["params", "-p", "2", "-q", "3", "-c", "0"], False, 0,
     "2f3f42e7dc342c46a756a599747a55c51b2f0b164893bd7829eaf1ed793435e9"),
    ("readme-homoclinic", ["orbit", "-p", "2", "-q", "3", "-c", "2", "--homoclinic"],
     False, 0, "1552ed3359e641227f7b3277b2f47d0ce65f093760e3d585cc119aca05540332"),
    ("readme-p1-circle", ["orbit", "-p", "1", "-q", "2", "-c", "0", "--start", "0", "2",
                          "--span", "7"], False, 0, "83be65d822ba0e6cfb7036c0dd72ae16e7a7a7377b9315a5d15cb34e15fd41f6"),
    ("readme-scan", ["period-scan", "-p", "2", "-q", "3", "-c", "0", "--kind",
                     "sign-changing", "--grid", "0.01:100:30:log"], False, 0,
     "2dfa4bcd2a94c05dc598ba772b066efabba820fe7306ae9629045fd8c99495ad"),
    ("readme-solve-set", ["solve-set", "-p", "1", "-q", "2", "-c", "3"], True, 0,
     "619d7775e49b51f32d6e29db06a0e4c651bf642f09e58d86ab923b57e7a7c681"),
    ("readme-sector", ["sector", "-p", "2", "-q", "3", "--theta", "3.141592653589793"],
     False, 0, "2bbf0d02c35536ef9ac23e56deefeb8e36371cccf830fce9705f4d55a6fe8487"),
    ("params-p1", ["params", "-p", "1", "-q", "2", "-c", "3"], False, 0, "527ce197cd2c9d44431653ebeac4827e64f070b0b074d0be5165bb2b5d171285"),
    ("params-p3", ["params", "-p", "3", "-q", "5", "-c", "30"], False, 0, "9d22420365ef54b854cdebc39aef44d3b610aff3aad1607f1331c7abbc094090"),
    ("orbit-b1", ["orbit", "-p", "1.5", "-q", "5", "-c", "0.5", "--start", "0", "1"],
     False, 0, "91fa791825bbdd070cdfcb5677dc94e4b142440dff0107af3ec1b71d74292d72"),
    ("orbit-p2-energy", ["orbit", "-p", "2", "-q", "3", "-c", "0", "--start", "0", "1"],
     False, 0, "587f68364e117ecf3df9b2654cb0bbe1065c8c0ba3dc15bb7353bb8b7fb2c065"),
    ("orbit-p1-off-circle", ["orbit", "-p", "1", "-q", "2", "-c", "0.5", "--start",
                             "1.2", "0", "--span", "5"], False, 0,
     "320afaf6a36b827482bbcfd9b4f006a93cf887b6e49cc8f53e77a784c89dcb06"),
    ("orbit-center", ["orbit", "-p", "3", "-q", "5", "-c", "30", "--start", "2", "0"],
     False, 0, "ecc57e12ae4eec136d5823d7b4646bc10152b260771e4e4b208e42d964176546"),
    ("orbit-stationary", ["orbit", "-p", "2", "-q", "3", "-c", "2", "--start", "1", "0"],
     False, 0, "ccf0cf5c940cb7a1b5fcc6adb534c63a1925922a0d547977fa92f97bfba2a17b"),
    ("orbit-homoclinic-json", ["orbit", "-p", "2.5", "-q", "4", "-c", "10",
                               "--homoclinic", "--format", "json"], False, 0,
     "f269264453bb7316a10732d98b29efb19ffaca897bca0bb3af1d3d0c7bf769bf"),
    ("scan-positive-json", ["period-scan", "-p", "2", "-q", "3", "-c", "2", "--kind",
                            "positive", "--grid", "0.1:0.9:8", "--format", "json"],
     False, 0, "8ffda2c93bcd55a54e1ea5734bc8eeb2a0eda759378bbc354706b04e88088661"),
    ("scan-positive-p1", ["period-scan", "-p", "1", "-q", "2", "-c", "1", "--kind",
                          "positive", "--grid", "0.01:2.5:10"], False, 3,
     "ede5caf4ca607c056a3ad6691428f5c111bedb089120fba6afac866fbbe0d197"),
    ("solve-set-sc", ["solve-set", "-p", "2", "-q", "3", "-c", "0", "--k-max", "3"],
     False, 0, "94c19b3278c957013c4878c1d363b3a4ba211ab25707983f68aeb523cf6e8a90"),
    ("solve-set-pos", ["solve-set", "-p", "2", "-q", "3", "-c", "3", "--k-max", "1"],
     False, 0, "c23d830a3712a5756c21071d730aee4558157e69746be781d074c36b28c97ec0"),
    ("solve-set-explicit", ["solve-set", "-p", "1", "-q", "0.5", "-c", "0"], True, 0,
     "effa052d8ac2321376be7783e9f1ae466002bcaea1ea48f3bf14e5e1e0f4bb83"),
]

# script file name -> sha256 of the tree it writes under OUT
SCRIPT_CASES = {
    "mode_atlas.py": "5254f829d8eae6ca873351a9c4d18958052acec87eddb74fe5b05dcb0f04a299",
    "period_curves.py": "5c1e7133b570c7757351f69b06c478c69aa3675f3ad31c0a9fdbde1ccd993d0b",
    "phase_portraits.py": "93ab0a49b3f2f6123ec5dfee7df3b616576c67189bf29dfdab402ad9b354dfa1",
}

# (b, d) -> repr of the p = 1 positive period at the midpoint amplitude
P1_PERIODS = {
    (2.0, 0.5): "3.926182780960414",
    (0.5, 0.7): "5.549210144574997",
    (0.0, 1.5): "4.88143336892805",
    (-0.5, 1.0): "8.643298344837959",
    (-1.0, 2.0): "6.066624595955203",
    (-1.5, 2.5): "6.121038010244243",
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


def p1_period_repr(b, d):
    nl = Nonlinearity(1.0, 1.0)
    rp = ReducedParams(1.0, 2.0, b, d)
    mu = 0.5 * (_p1_mubar(rp, nl) + b + d)
    return repr(period_positive_p1(mu, rp, nl).period)


@pytest.mark.parametrize("argv,to_dir,code,digest",
                         [c[1:] for c in CLI_CASES], ids=[c[0] for c in CLI_CASES])
def test_cli_output(argv, to_dir, code, digest, tmp_path):
    assert run_cli(argv, tmp_path / "out" if to_dir else None) == (code, digest)


@pytest.mark.parametrize("name", sorted(SCRIPT_CASES))
def test_script_output(name, tmp_path):
    assert run_script(name, tmp_path) == SCRIPT_CASES[name]


@pytest.mark.parametrize("b,d", sorted(P1_PERIODS))
def test_p1_general_b_period(b, d):
    assert p1_period_repr(b, d) == P1_PERIODS[(b, d)]
