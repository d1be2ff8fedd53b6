"""Set-up cost of one workload: import seplane (numpy, scipy) and make one
warm-up call on a fixed small input.

Run as a script it measures a fresh interpreter and prints the seconds and
the speed factor:

    python3 perfbench/setup_probe.py <workload> <src-dir> <work-dir>
"""

from __future__ import annotations

import sys
import tempfile
import time

SPEED_SAMPLES = 60   # reference loops run after the set-up, about 0.1 s


def _warm_up(workload: str, work_dir: str) -> None:
    import seplane
    from seplane import cli

    if workload == "solve-positive":
        seplane.build_solution_set(seplane.ProblemParams(1.0, 2.0, 3.5))
    elif workload == "solve-sign-changing":
        out = tempfile.mkdtemp(prefix="warm-", dir=work_dir)
        cli.main(["solve-set", "-p", "2", "-q", "3", "-c", "0", "--k-max", "2",
                  "--out", out])
    elif workload == "period-scan":
        pp = seplane.ProblemParams(2.0, 3.0, 0.0)
        seplane.period_scan("sign-changing", [0.1, 1.0, 10.0], seplane.reduce_params(pp),
                            seplane.reduced_nonlinearity(pp), method="both")
    elif workload == "separatrix":
        pp = seplane.ProblemParams(2.5, 4.0, 3.0)
        rp, nl = seplane.reduce_params(pp), seplane.reduced_nonlinearity(pp)
        seplane.shoot_homoclinic(rp, nl)
        seplane.classify_orbit((0.5 * seplane.stationary_abscissa(rp, nl), 0.0), rp, nl)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def measure(workload: str, src_dir: str, work_dir: str) -> tuple[float, float]:
    """Seconds to import seplane from ``src_dir`` and run the warm-up call,
    and the speed factor sampled right after (see ``speed``).

    Only the first call in a process measures an import; later calls in the
    same process find the modules cached.
    """
    t0 = time.perf_counter()
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    import seplane  # noqa: F401

    _warm_up(workload, work_dir)
    seconds = time.perf_counter() - t0
    from speed import Speed  # loads numpy, so only after the timed import

    speed = Speed()
    for _ in range(SPEED_SAMPLES):
        speed.sample()
    return seconds, speed.factor


if __name__ == "__main__":
    print(*map(repr, measure(sys.argv[1], sys.argv[2], sys.argv[3])))
