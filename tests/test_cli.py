import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate

from seplane.cli import _write_profile_csv, main
from seplane.schemas import load_schema


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_limited(*argv):
    """The CLI in a child process under a 5 s and 2 GiB address-space limit,
    for inputs that would exhaust memory if their refusal were lost."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-m", "seplane", *argv],
        capture_output=True, text=True, timeout=5, preexec_fn=limit_memory,
        cwd=Path(__file__).resolve().parents[1],
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin", "OPENBLAS_NUM_THREADS": "1",
             "PYTHONDONTWRITEBYTECODE": "1"})


def tail_json(csv_text: str) -> dict:
    lines = [l[2:] for l in csv_text.splitlines() if l.startswith("# ")]
    return json.loads("\n".join(lines))


class TestParamsCommand:
    def test_cubic_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, "params", "-p", "2", "-q", "3", "-c", "0")
        assert code == 0
        doc = json.loads(out)
        validate(doc, load_schema("params"))
        assert doc["beta_q"] == 1.0
        assert doc["lambda_q"] == 1.0
        assert doc["c_q"] == 1.0
        assert doc["b"] == -1.0 and doc["d"] == 0.0
        assert doc["M_q"] == pytest.approx(1.0, rel=1e-10)
        assert doc["mode_bounds"]["k_q"] == 2
        assert doc["mode_bounds"]["positive_modes"] == []

    def test_p1_values(self, capsys):
        code, out, _ = run_cli(capsys, "params", "-p", "1", "-q", "2", "-c", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["c_q"] == -1.0
        assert doc["b"] == 1.0 and doc["d"] == 0.0

    def test_p1_infimum_forms_disagreeing_exit_3(self, capsys, monkeypatch):
        # the slope form of the p = 1 infimum is its numeric cross-check: a
        # disagreement is a numeric failure (exit 3), not invalid input
        from seplane import periods
        from seplane.numerics import tanh_sinh

        def skewed_tanh_sinh(fn, *args, **kwargs):
            val, err = tanh_sinh(fn, *args, **kwargs)
            return (val * (1.0 + 1e-6) if fn.__name__ == "integrand_u" else val), err

        monkeypatch.setattr(periods, "tanh_sinh", skewed_tanh_sinh)
        code, out, err = run_cli(capsys, "params", "-p", "1", "-q", "2", "-c", "1")
        assert code == 3
        assert "slope and angular forms disagree" in err
        assert "Traceback" not in err + out

    def test_center_metadata(self, capsys):
        code, out, _ = run_cli(capsys, "params", "-p", "2", "-q", "3", "-c", "2")
        doc = json.loads(out)
        assert doc["a"] == pytest.approx(1.0)
        assert doc["m_d"] == pytest.approx(1.0, abs=1e-10)
        assert doc["regime"]["b_plus_d_positive"]

    def test_invalid_exponent_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "params", "-p", "0.5", "-q", "3", "-c", "0")
        assert code == 2
        assert "invalid input" in err

    @pytest.mark.parametrize("p,q,c", [("6", "6", "1e300"), ("2", "3", "1e308")],
                             ids=["modes-beyond-exact-integers", "center-stiffness-overflow"])
    def test_huge_potential_exits_2(self, capsys, p, q, c):
        code, _, err = run_cli(capsys, "params", "-p", p, "-q", q, "-c", c)
        assert code == 2
        assert "invalid input" in err and "Traceback" not in err

    # draws of a seeded fuzz of main that ended in a traceback (exit 1): the
    # gap q + 1 - p rounding to 0 after q > p - 1 passed, and beta^beta
    # overflowing in the lifted constant profile
    @pytest.mark.parametrize("argv,message", [
        (["params", "-p", "1.0000000000000002", "-q", "2.2215500820439895e-16",
          "-c", "2.1458829588879502e-05"], "q + 1 - p > 0 in binary64"),
        (["solve-set", "-p", "2.3802022906663343", "-q", "1.3916826402679285",
          "-c", "451477.24463120766", "--k-max", "1"], "beta^beta overflows binary64"),
    ], ids=["exponent-gap-rounds-to-zero", "lift-overflows"])
    def test_fuzz_tracebacks_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert message in err and "Traceback" not in err + out

    def test_huge_mode_count_exits_2_quickly(self):
        # about 1.4e8 positive modes: the count is refused before any list is built
        proc = run_limited("params", "-p", "2", "-q", "3", "-c", "1e16")
        assert proc.returncode == 2
        assert "141421356 positive modes, k = 1 to 141421356" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_zero_amplitude_limit_computed_once(self, capsys, monkeypatch):
        from seplane import periods

        calls = []
        original = periods.period_zero_amplitude_limit

        def counted(rp):
            calls.append(rp)
            return original(rp)

        monkeypatch.setattr(periods, "period_zero_amplitude_limit", counted)
        code, _, _ = run_cli(capsys, "params", "-p", "2", "-q", "3", "-c", "0")
        assert code == 0
        assert len(calls) == 1

    def test_zero_amplitude_limit_computed_once_per_solution_set(self, capsys,
                                                                 monkeypatch):
        # mode_bounds computes T_0 and the sign-changing inversion reuses it,
        # however many modes the set holds
        from seplane import periods

        calls = []
        original = periods.period_zero_amplitude_limit

        def counted(rp):
            calls.append(rp)
            return original(rp)

        monkeypatch.setattr(periods, "period_zero_amplitude_limit", counted)
        counts = []
        for k_max in ("4", "8"):
            calls.clear()
            code, _, _ = run_cli(capsys, "solve-set", "-p", "2", "-q", "3", "-c", "0",
                                 "--k-max", k_max)
            assert code == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] == 1

    def test_threshold_at_critical_potential(self, capsys):
        from seplane.params import ProblemParams
        from seplane.periods import mode_bounds

        # c_q = 1 exactly at (p, q) = (2, 3)
        mq = mode_bounds(ProblemParams(2.0, 3.0, 1.0)).mode_threshold
        code, out, _ = run_cli(capsys, "params", "-p", "2", "-q", "3", "-c", "1")
        assert code == 0
        assert mq == 0.0
        assert json.loads(out)["M_q"] == mq


class TestOrbitCommand:
    def test_p1_circle(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "-p", "1", "-q", "2", "-c", "0",
                               "--start", "0", "2", "--span", "7")
        assert code == 0
        meta = tail_json(out)
        validate(meta, load_schema("orbit_meta"))
        assert meta["orbit_class"] == "closed-around-origin"
        rows = np.array([l.split(",") for l in out.splitlines()
                         if l and not l.startswith(("#", "tau"))], dtype=float)
        radii = np.hypot(rows[:, 1], rows[:, 2])
        assert np.max(np.abs(radii - 2.0)) < 1e-8
        y_events = [e for e in meta["events"] if e["kind"] == "y=0"]
        assert abs(y_events[0]["tau"] - math.pi / 2.0) < 1e-9

    def test_homoclinic_metadata(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "-p", "2", "-q", "3", "-c", "2",
                               "--homoclinic")
        assert code == 0
        meta = tail_json(out)
        assert meta["homoclinic"]["m_d"] == pytest.approx(1.0, abs=1e-10)
        assert meta["homoclinic"]["apex_w"] == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_homoclinic_near_p1_is_a_typed_failure(self, capsys):
        # at p = 1 + 1e-7 the slope map is so flat at the saddle that a float
        # u fixes the launch slope only to 2.2e-9, above rel_tol
        code, out, err = run_cli(capsys, "orbit", "-p", "1.0000001", "-q", "2", "-c", "2",
                                 "--homoclinic")
        assert code == 3
        assert "slope map" in err
        assert "Traceback" not in err + out

    @pytest.mark.parametrize("c,message", [("0", "singular line w = 0"),
                                           ("1e-9", "singular line w = 0"),
                                           ("0.01", "step shrank below 1e-14 of the span")])
    def test_p1_run_into_the_singular_line_is_a_typed_failure(self, capsys, c, message):
        # a start 2.5e-7 off the circle of radius 2. At c = 0 the first
        # integral w^2 (1/r - 1/2) = -6.2e-14 keeps the orbit at w >= 3.5e-7,
        # and scipy's DOP853 at rtol 1e-13 follows it to y = -1.7e3 there at
        # tau = 3.141; the run passed w = 9e-13 instead and came back around
        # the circle. At c = 1e-9 the orbit passes the origin, and the run
        # ended 2.5e-3 from that reference. Within 1e-9 of w = 0 the first
        # integral, the run's check, is undefined
        code, out, err = run_cli(capsys, "orbit", "-p", "1", "-q", "2", "-c", c,
                                 "--start", "0.001", "2", "--span", "7")
        assert code == 3
        assert message in err and "Traceback" not in err + out

    def test_stationary_start(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "-p", "2", "-q", "3", "-c", "2",
                               "--start", "1", "0")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith(("#", "tau"))]
        assert len(rows) == 1
        meta = tail_json(out)
        assert meta.get("stationary") is True

    def test_first_integral_drift_reported(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "-p", "2", "-q", "3", "-c", "0",
                               "--start", "0", "1", "--span", "10")
        meta = tail_json(out)
        assert meta["first_integral_drift"] < 1e-8

    @pytest.mark.parametrize("seam,q,c,start", [(2.0, "3", "0", ("0", "1")),
                                                (1.0, "1", "0.5", ("0.5", "0.2"))])
    def test_drift_is_continuous_across_the_seam(self, capsys, seam, q, c, start):
        # the drift branches key on p = 2 and p = 1; at p = 1 + ulp with
        # q = 1 the reduced b is 1 to within 1e-15, so the b = 1 integral
        # takes over from the p = 1 one, and p = 1 - ulp is no problem at all
        def drift(p):
            code, out, _ = run_cli(capsys, "orbit", "-p", repr(p), "-q", q, "-c", c,
                                   "--start", *start, "--span", "10")
            return code, tail_json(out)["first_integral_drift"] if code == 0 else None

        code, at_seam = drift(seam)
        assert code == 0 and at_seam < 1e-8
        for p in (math.nextafter(seam, 0.0), math.nextafter(seam, 3.0)):
            code, near = drift(p)
            if p < 1.0:
                assert code == 2
                continue
            assert code == 0 and near < 1e-8
            assert abs(near - at_seam) < 1e-12

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "-p", "2", "-q", "3", "-c", "0",
                               "--start", "0", "1", "--span", "3",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["orbit_class"] == "closed-around-origin"
        assert len(doc["samples"]) > 100

    def test_missing_start(self, capsys):
        code, _, err = run_cli(capsys, "orbit", "-p", "2", "-q", "3", "-c", "0")
        assert code == 2

    def test_overflowing_start_exits_3(self, capsys):
        # the norm of the start's derivative overflows, which left the first
        # step size 0 and ended in a ZeroDivisionError (exit 1)
        code, out, err = run_cli(capsys, "orbit", "-p", "2", "-q", "3", "-c", "-2",
                                 "--start", "0", "1e150", "--span", "1")
        assert code == 3
        assert "no first step from the start (0.0, 1e+150)" in err
        assert "Traceback" not in err + out


class TestPeriodScanCommand:
    @pytest.mark.parametrize("n", [10_001, 1_000_000_000])
    def test_grid_budget_exits_2_quickly(self, n):
        # at the parent, 10^9 points ended in numpy's _ArrayMemoryError
        # (7.45 GiB asked) and 10^6 points ran for minutes
        proc = run_limited("period-scan", "-p", "2", "-q", "3", "-c", "0", "--kind",
                           "sign-changing", "--grid", f"0.1:1:{n}")
        assert proc.returncode == 2
        assert f"grid of {n} points exceeds the 10000" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_p1_constant_scan(self, capsys):
        code, out, _ = run_cli(capsys, "period-scan", "-p", "1", "-q", "2",
                               "-c", "0", "--kind", "positive",
                               "--grid", "0.1:0.9:7")
        assert code == 0
        assert "# verdict: constant" in out
        rows = [l.split(",") for l in out.splitlines()
                if l and not l.startswith(("#", "amplitude"))]
        for row in rows:
            assert abs(float(row[1]) - 2.0 * math.pi) < 1e-8

    def test_sign_changing_decreasing(self, capsys):
        code, out, _ = run_cli(capsys, "period-scan", "-p", "2", "-q", "3",
                               "-c", "0", "--kind", "sign-changing",
                               "--grid", "0.01:100:12:log")
        assert code == 0
        assert "# verdict: decreasing" in out

    def test_overflowing_starts_exit_3(self, capsys):
        # as the orbit command's overflowing start: each row names its start
        code, out, err = run_cli(capsys, "period-scan", "-p", "2", "-q", "3", "-c", "-2",
                                 "--kind", "sign-changing", "--grid", "1e150:2e150:2")
        assert code == 3
        assert "no first step from the start (0.0; 2e+150)" in out
        assert "Traceback" not in err + out

    def test_partial_failure_rows(self, capsys):
        # amplitudes beyond the admissible interval flush error rows, exit 3
        code, out, _ = run_cli(capsys, "period-scan", "-p", "1", "-q", "2",
                               "-c", "0", "--kind", "positive",
                               "--grid", "0.5:1.5:3")
        assert code == 3
        rows = [l.split(",") for l in out.splitlines()
                if l and not l.startswith(("#", "amplitude"))]
        assert any(r[-1] for r in rows)       # error marker populated
        assert any(not r[-1] for r in rows)   # good rows still flushed

    @pytest.mark.parametrize("argv", [
        ("-p", "1", "-q", "2", "-c", "0", "--kind", "sign-changing"),
        ("-p", "2", "-q", "3", "-c", "0", "--kind", "positive"),
    ])
    def test_missing_family_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "period-scan", *argv, "--grid", "0.1:0.9:3")
        assert code == 2
        assert out == ""
        assert "invalid input" in err

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, "period-scan", "-p", "2", "-q", "3",
                               "-c", "0", "--kind", "sign-changing",
                               "--grid", "5:1:0")
        assert code == 2


class TestSolveSetCommand:
    def test_p1_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "solve-set", "-p", "1", "-q", "2", "-c", "3")
        assert code == 0
        doc = json.loads(out)
        validate(doc, load_schema("solution_set"))
        assert [e["k"] for e in doc["positive"]] == [3]
        assert doc["constants"] == [pytest.approx(2.0)]

    def test_cubic_modes_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "solve-set", "-p", "2", "-q", "3",
                               "-c", "0", "--k-max", "3")
        assert code == 0
        doc = json.loads(out)
        assert [e["k"] for e in doc["sign_changing"]] == [2, 3]
        assert doc["positive"] == [] and doc["constants"] == []
        assert all(e["passed"] for e in doc["sign_changing"])

    def test_output_directory(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "solve-set", "-p", "1", "-q", "2", "-c", "3",
                             "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "solution_set.json").read_text())
        validate(doc, load_schema("solution_set"))
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert csvs == ["mode_pos_k3.csv"]
        header, first = (tmp_path / "mode_pos_k3.csv").read_text().splitlines()[:2]
        assert header == "sigma,omega"
        assert float(first.split(",")[1]) > 0.0

    @pytest.mark.parametrize("argv,samples", [
        (("-p", "1", "-q", "2.7257748420741237", "-c", "11085317.678793296", "--k-max", "4"),
         27675168768),
        (("-p", "2", "-q", "3", "-c", "0", "--k-max", "100000"), 10240102397952),
    ], ids=["2844-positive-modes", "k-max-100000"])
    def test_sample_budget_exits_2_quickly(self, argv, samples):
        # the samples of every mode are counted before any profile is built
        proc = run_limited("solve-set", *argv)
        assert proc.returncode == 2
        assert f"the modes need {samples} profile samples" in proc.stderr
        assert "Traceback" not in proc.stderr


def percent_csv(sigma, omega) -> bytes:
    """The profile CSV as %.17g writes it: the reference for the writer."""
    rows = np.column_stack((sigma, omega)).ravel().tolist()
    return ("sigma,omega\n" + "%.17g,%.17g\n" * len(sigma) % tuple(rows)).encode()


def written_csv(sigma, omega) -> bytes:
    buf = io.BytesIO()
    _write_profile_csv(buf, np.asarray(sigma, float), np.asarray(omega, float))
    return buf.getvalue()


def with_neighbours(values):
    v = np.asarray(values, float)
    return np.concatenate((np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)))


class TestProfileCsvWriter:
    """``solve-set`` writes profiles through a vectorized writer that must
    give the bytes of %.17g per value, for every float and row count."""

    @given(st.lists(st.tuples(st.floats(), st.floats()), max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_any_floats(self, rows):
        sigma, omega = (np.array([r[i] for r in rows], float) for i in (0, 1))
        assert written_csv(sigma, omega) == percent_csv(sigma, omega)

    @pytest.mark.parametrize("values", [
        with_neighbours(10.0 ** np.arange(-6, 19)),
        with_neighbours([1e-4, 1e16, 1e17]),
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
         1.7976931348623157e308, 0.5, 1.0, 123.0, 99999999999999984.0],
        np.arange(26215, 262144, 2) / 2.0 ** 18,   # every 17-digit tie m/2^18 in [0.1, 1)
        # 17-digit ties j/2^(17-X) with j odd, from each decimal exponent X
        np.concatenate([(int(10.0 ** x * 2.0 ** (17 - x)) + 1 | 1) / 2.0 ** (17 - x)
                        + np.arange(0, 1000, 2) / 2.0 ** (17 - x) for x in range(-4, 16)]),
    ], ids=["powers-of-ten", "form-switches", "specials", "ties-below-1", "ties"])
    def test_edge_values(self, values):
        v = np.asarray(values, float)
        for sigma, omega in ((v, -v), (-v[::-1], v)):
            assert written_csv(sigma, omega) == percent_csv(sigma, omega)

    def test_ties_round_half_even(self):
        assert written_csv([26215 / 2.0 ** 18], [-0.0]) == b"sigma,omega\n0.10000228881835938,-0\n"

    @pytest.mark.parametrize("n", [0, 1, 2047, 2048, 2049])
    def test_lengths_around_a_chunk(self, n):
        rng = np.random.default_rng(n)
        sigma = np.linspace(0.0, 2.0 * np.pi, n)
        omega = rng.standard_normal(n) * 10.0 ** rng.uniform(-7.0, 18.0, n)
        assert written_csv(sigma, omega) == percent_csv(sigma, omega)

    def test_memory_does_not_grow_with_the_rows(self, tmp_path):
        # 421,888 rows: a 32,768-point profile of mode 6 (ROADMAP item 1);
        # formatting the whole file at once peaks near 49 MB
        sigma = np.linspace(0.0, 2.0 * np.pi, 421_888)
        omega = np.sin(6.0 * sigma) * 3.7
        tracemalloc.start()
        try:
            with open(tmp_path / "p.csv", "wb") as f:
                _write_profile_csv(f, sigma, omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert (tmp_path / "p.csv").read_bytes() == percent_csv(sigma, omega)


class TestSectorCommand:
    def test_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "sector", "-p", "2", "-q", "3",
                               "--theta", repr(math.pi))
        assert code == 0
        doc = json.loads(out)
        validate(doc, load_schema("sector"))
        assert doc["exists"] is False

    def test_exists(self, capsys):
        code, out, _ = run_cli(capsys, "sector", "-p", "2", "-q", "5",
                               "--theta", repr(math.pi))
        assert json.loads(out)["exists"] is True

    def test_shortcut(self, capsys):
        code, out, _ = run_cli(capsys, "sector", "-p", "1.5", "-q", "2.5",
                               "--theta", "5.0")
        doc = json.loads(out)
        assert doc["exists"] and doc["unconditional"]

    def test_domain(self, capsys):
        code, _, _ = run_cli(capsys, "sector", "-p", "2", "-q", "3",
                             "--theta", "7.0")
        assert code == 2


class TestReproducibility:
    def test_bit_identical_reruns(self, capsys):
        argv = ["params", "-p", "2.5", "-q", "4", "-c", "1.5"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_orbit_reruns(self, capsys):
        argv = ["orbit", "-p", "2", "-q", "3", "-c", "0",
                "--start", "0.3", "0.4", "--span", "5"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_solve_set_reruns(self, capsys):
        argv = ["solve-set", "-p", "1", "-q", "2", "-c", "3"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestConfigAndChecks:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "integ.cfg"
        cfg.write_text("rel_tol = 1e-8\nabs_tol = 1e-10\n")
        code, out, _ = run_cli(capsys, "orbit", "-p", "2", "-q", "3", "-c", "0",
                               "--start", "0", "1", "--span", "3",
                               "--config", str(cfg))
        assert code == 0

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "integ.cfg"
        cfg.write_text("order = 7\n")
        code, _, err = run_cli(capsys, "orbit", "-p", "2", "-q", "3", "-c", "0",
                               "--start", "0", "1", "--config", str(cfg))
        assert code == 2

    def test_missing_config_file_is_invalid_input(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "orbit", "-p", "2", "-q", "3", "--start", "0", "1",
                                 "--config", str(tmp_path / "missing.cfg"))
        assert code == 2
        assert out == "" and "invalid input" in err and "missing.cfg" in err

    def test_non_numeric_config_value_is_invalid_input(self, capsys, tmp_path):
        cfg = tmp_path / "integ.cfg"
        cfg.write_text("rel_tol = tight\n")
        code, _, err = run_cli(capsys, "orbit", "-p", "2", "-q", "3", "--start", "0", "1",
                               "--config", str(cfg))
        assert code == 2
        assert "invalid input" in err and "rel_tol" in err

    @pytest.mark.parametrize("flags", [
        ("--tol-rel", "-5"),
        ("--tol-rel", "1e-8"),
        ("--tol-abs", "1e-9"),
        ("--config", "missing.cfg"),
    ], ids=["tol-rel-negative", "tol-rel", "tol-abs", "config"])
    @pytest.mark.parametrize("argv", [
        ("params", "-p", "2", "-q", "3"),
        ("sector", "-p", "2", "-q", "3", "--theta", "1"),
    ], ids=lambda argv: argv[0])
    def test_integrator_flags_refused_where_nothing_integrates(self, capsys, argv, flags):
        code, out, err = run_cli(capsys, *argv, *flags)
        assert code == 2
        assert out == "" and "invalid input" in err

    @pytest.mark.parametrize("argv", [
        ("period-scan", "--kind", "sign-changing", "--grid", "a:b:3"),
        ("period-scan", "--kind", "sign-changing", "--grid", "0.1:1:1e2"),
        ("period-scan", "--kind", "sign-changing", "--grid", "0.1:1:3:lin"),
        ("period-scan", "--kind", "sign-changing", "--grid", "nan:1:3"),
        ("orbit", "--start", "0", "1", "--span", "nan"),
        ("orbit", "--start", "0", "1", "--span", "inf"),
        ("orbit", "--start", "0", "1", "--span", "1", "--tol-rel", "nan"),
        ("orbit", "--start", "nan", "1", "--span", "1"),
    ], ids=["grid-words", "grid-float-count", "grid-lin", "grid-nan", "span-nan",
            "span-inf", "tol-rel-nan", "start-nan"])
    def test_non_finite_and_malformed_numbers_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, argv[0], "-p", "2", "-q", "3", "-c", "0", *argv[1:])
        assert code == 2
        assert out == "" and "invalid input" in err

    def test_solve_set_flags_apply_to_the_profile_config(self, capsys, monkeypatch,
                                                         tmp_path):
        from seplane import cli
        from seplane.errors import DomainError
        from seplane.solutions import PROFILE_CONFIG

        seen = []

        def capture(params, cfg, *, k_max=None):
            seen.append(cfg)
            raise DomainError("captured")

        monkeypatch.setattr(cli, "build_solution_set", capture)
        cfg_file = tmp_path / "integ.cfg"
        cfg_file.write_text("rel_tol = 1e-11\n")
        argv = ("solve-set", "-p", "2", "-q", "3")
        run_cli(capsys, *argv)
        run_cli(capsys, *argv, "--tol-rel", "1e-11")
        run_cli(capsys, *argv, "--config", str(cfg_file))
        assert seen[0] == PROFILE_CONFIG
        for cfg in seen[1:]:
            assert (cfg.rel_tol, cfg.abs_tol) == (1e-11, 1e-14)

    @pytest.mark.parametrize("argv", [
        ("params", "-p", "2", "-q", "3"),
        ("sector", "-p", "2", "-q", "3", "--theta", "1"),
        ("solve-set", "-p", "1", "-q", "2", "-c", "3"),
    ], ids=lambda argv: argv[0])
    def test_csv_refused_where_only_json_is_written(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 2
        assert out == "" and "invalid input" in err

    def test_json_format_matches_default(self, capsys):
        argv = ("params", "-p", "2", "-q", "3", "-c", "0")
        _, plain, _ = run_cli(capsys, *argv)
        code, as_json, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert as_json == plain

    def test_paper_check_sector(self, capsys):
        code, out, _ = run_cli(capsys, "sector", "-p", "2", "-q", "3",
                               "--theta", "1.0", "--paper-check")
        assert code == 0
        assert "criterion 10" in out and "PASS" in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seplane", "params", "-p", "2", "-q", "3"],
            capture_output=True, text=True,
            cwd=Path(__file__).resolve().parents[1],
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["beta_q"] == 1.0
