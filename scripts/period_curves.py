#!/usr/bin/env python3
"""Emit period-function curves for a spread of parameter sets.

Writes one CSV per set into out/ (amplitude, period, method, est_error),
covering the sign-changing branch for p > 1 and the positive branch at
p = 1 where the period is exactly constant at d = 0.
"""

import pathlib

import numpy as np

from seplane.params import Nonlinearity, ProblemParams, ReducedParams, reduce_params
from seplane.periods import _p1_mubar, period_positive_p1, period_scan

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"

SETS = [
    ("p2_q3_c0", ProblemParams(2.0, 3.0, 0.0)),
    ("p2_q3_c2", ProblemParams(2.0, 3.0, 2.0)),
    ("p3_q5_c0", ProblemParams(3.0, 5.0, 0.0)),
    ("p1p5_q2p5_c1", ProblemParams(1.5, 2.5, 1.0)),
]


def main() -> None:
    OUT.mkdir(exist_ok=True)
    grid = np.geomspace(1e-2, 1e2, 40)
    for name, params in SETS:
        rp = reduce_params(params)
        nl = Nonlinearity(params.p, params.q)
        scan = period_scan("sign-changing", grid, rp, nl)
        path = OUT / f"period_sign_changing_{name}.csv"
        with path.open("w") as fh:
            fh.write("amplitude,period,method,est_error\n")
            for s in scan.samples:
                fh.write(f"{s.amplitude:.17g},{s.period:.17g},{s.method},"
                         f"{s.est_error:.3g}\n")
        print(f"{path.name}: verdict {scan.verdict}")

    # p = 1 positive periods across d, including the constant d = 0 curve
    nl1 = Nonlinearity(1.0, 1.0)
    for d in (-0.5, 0.0, 1.0):
        rp = ReducedParams(1.0, 2.0, 1.0, d)
        a = 1.0 + d
        mubar = _p1_mubar(d)
        mus = np.linspace(mubar + 1e-3 * (a - mubar), a * (1.0 - 1e-3), 40)
        path = OUT / f"period_positive_p1_d{d}.csv"
        with path.open("w") as fh:
            fh.write("amplitude,period,method,est_error\n")
            for mu in mus:
                s = period_positive_p1(float(mu), rp, nl1)
                fh.write(f"{s.amplitude:.17g},{s.period:.17g},{s.method},"
                         f"{s.est_error:.3g}\n")
        print(f"{path.name}: written")


if __name__ == "__main__":
    main()
