"""Seeded closed-loop benchmark of seplane, one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; seplane is imported from its ``src``. One
process, one client: each request is sent when the previous one returns,
with BLAS/OpenMP pinned to one thread. The seed draws a fixed list of
requests (a pass); ``--trace 0`` repeats the pass while another fits in
``--seconds`` and reports the end-to-end metrics, ``--trace 1`` runs each
request of one pass untraced and then traced and reports the per-layer
metrics. Every output is checked; ``attempted`` and ``failed`` count the
results of the drawn pass once, so they depend on the seed and not on how
many passes fit. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# before numpy loads, here and in the set-up probes this process starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import setup_probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / ".work"   # outputs of the run, removed when it ends
# the keys of workloads.WORKLOADS, which cannot be imported before the timed
# set-up since it imports seplane
WORKLOAD_NAMES = ("solve-positive", "solve-sign-changing", "period-scan", "separatrix")
SETUP_SAMPLES = 5      # one in this process, the rest in fresh interpreters
TAIL_BEYOND = 10       # samples above the reported tail percentile

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "req_s.p50": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def measure_setup(workload: str, work: str) -> tuple[float, float]:
    """Median set-up time over SETUP_SAMPLES interpreters, this one first,
    at the nominal speed and as measured."""
    samples = [setup_probe.measure(workload, str(SRC), work)]
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(SRC), work],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds, factor = res.stdout.split()[-2:]
        samples.append((float(seconds), float(factor)))
    return (statistics.median(s * f for s, f in samples),
            statistics.median(s for s, _ in samples))


def run_pass(wl, requests, work, speed):
    """Send each request after the previous returns; check every output.

    Returns per-request latencies, raw and at the nominal speed, and the
    checked outcomes. Only the call into seplane is timed: not the oracle,
    and not the speed samples taken during the call, which give that
    request's speed factor.
    """
    import seplane
    import workloads

    raw, scaled, outcomes = [], [], []
    for req in requests:
        out_dir = workloads.fresh_dir(os.path.join(work, "out"))
        crash = None
        spent, count = speed.spent, speed.count
        t0 = time.perf_counter()
        try:
            res = wl.call(req, out_dir)
        except seplane.SeplaneError as exc:
            res = exc
        except Exception:  # anything but a typed failure is a wrong output
            crash = traceback.format_exc()
        raw.append(time.perf_counter() - t0 - (speed.spent - spent))
        scaled.append(raw[-1] * speed.factor_since(spent, count))
        if crash is None:
            try:
                outcomes.append(wl.check(req, res, out_dir))
                continue
            except Exception:  # malformed or missing output
                crash = traceback.format_exc()
        out = workloads.all_failed(req)
        out.incorrect.append(f"({req.p!r}, {req.q!r}, {req.c!r}): {crash}")
        outcomes.append(out)
    return raw, scaled, outcomes


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples above it, or None."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None
    return {"value": xs[n - TAIL_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_BEYOND) / n, "n": n}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "seplane" / "__init__.py").is_file():
        print(f"run.py: no seplane sources under {SRC}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass


def _run(args, work: str) -> int:
    setup_s, setup_raw_s = measure_setup(args.workload, work)

    import numpy
    import scipy
    import seplane

    import workloads
    from speed import Speed
    from tracing import METRICS, Tracer

    if not Path(seplane.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"run.py: seplane was imported from {seplane.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    requests = wl.generate(random.Random(args.seed))

    # untraced passes: pass walls and request latencies, raw and scaled;
    # `outcomes` holds the checked results of the first pass, which
    # `attempted` and `failed` count, and `repeats` those of later passes,
    # which are checked for wrong outputs and for agreement with the first
    walls, walls_raw, latencies, latencies_raw, outcomes, repeats = [], [], [], [], [], []
    speed = Speed()

    def one_pass():
        raw, scaled, outs = run_pass(wl, requests, work, speed)
        walls.append(sum(scaled))
        walls_raw.append(sum(raw))
        latencies.extend(scaled)
        latencies_raw.extend(raw)
        (repeats if outcomes else outcomes).extend(outs)

    incorrect = []
    if args.trace:
        # each request runs untraced, then traced right after, so that the
        # host's drift barely enters the difference (the tracing overhead);
        # no speed samples run, so scaled times equal raw ones
        tracer = Tracer()
        traced_raw, traced = [], []
        for req in requests:
            raw, scaled, outs = run_pass(wl, [req], work, speed)
            latencies_raw += raw
            latencies += scaled
            outcomes += outs
            tracer.install()
            try:
                raw, _, outs = run_pass(wl, [req], work, speed)
            finally:
                tracer.uninstall()
            traced_raw += raw
            traced += outs
        walls.append(sum(latencies))
        walls_raw.append(sum(latencies_raw))
        repeats += traced
        metrics = tracer.metrics()
        metrics["bench.self_s"] = sum(traced_raw) - tracer.top_level_s
        metrics["trace.overhead_s"] = sum(traced_raw) - walls_raw[0]
        metrics["cli.bytes_out"] = sum(o.bytes_out for o in traced)
        profiles = sum(o.profiles for o in traced)
        if metrics["solutions.verify_calls"] != profiles:
            incorrect.append(f"{metrics['solutions.verify_calls']} verify_profile calls "
                             f"for {profiles} profiles")
        units = METRICS
    else:
        t_start = time.perf_counter()
        with speed:
            while True:
                t_pass = time.perf_counter()
                one_pass()
                now = time.perf_counter()
                if now - t_start + (now - t_pass) > args.seconds:
                    break
        metrics = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                   "req_s.p50": statistics.median(latencies),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END_UNITS

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errs = [e for o in outcomes for e in o.errs if not math.isnan(e)]
    incorrect += [msg for o in outcomes + repeats for msg in o.incorrect]
    n = len(requests)
    for i, out in enumerate(repeats):
        first = outcomes[i % n]
        if out.failed != first.failed:
            req = requests[i % n]
            incorrect.append(f"({req.p!r}, {req.q!r}, {req.c!r}): {out.failed} failed results "
                             f"on a repeat, {first.failed} on the first pass")
    for msg in incorrect:
        print(f"run.py: wrong output: {msg}", file=sys.stderr)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(walls), "requests_per_pass": len(requests),
        "speed_factor": speed.factor,
        "wall_s": {"value": statistics.median(walls), "raw": statistics.median(walls_raw),
                   "unit": "s"},
        "req_s.p50": {"value": statistics.median(latencies),
                      "raw": statistics.median(latencies_raw), "unit": "s"},
        "req_s.tail": dict(tail(latencies) or {"value": None, "n": len(latencies)},
                           raw=(tail(latencies_raw) or {}).get("value"), unit="s"),
        "fail_frac": {"value": failed / attempted, "unit": "1",
                      "failed": failed, "attempted": attempted},
        "err.max": {"value": max(errs) if errs else None, "unit": "1"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "setup_s": {"value": setup_s, "raw": setup_raw_s, "unit": "s"},
        "env": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "seplane": seplane.__version__, "blas_threads": 1},
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": not incorrect, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
