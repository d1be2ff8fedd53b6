#!/usr/bin/env python3
"""Sweep the potential coefficient and tabulate the admissible modes.

Writes out/mode_atlas.csv with, per c, the sign-changing threshold mode and
the positive mode count, tracing how families appear as c crosses the
critical value.
"""

import pathlib

import numpy as np

from seplane.params import ProblemParams, critical_potential
from seplane.periods import mode_bounds

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    p, q = 2.0, 3.0
    cq = critical_potential(p, q)
    cs = np.concatenate([np.linspace(-2.0, cq - 1e-6, 12),
                         np.linspace(cq + 1e-6, cq + 12.0, 24)])
    path = OUT / "mode_atlas.csv"
    with path.open("w") as fh:
        fh.write("c,k_sign_changing_min,n_positive_modes,mode_threshold\n")
        for c in cs:
            mb = mode_bounds(ProblemParams(p, q, float(c)))
            mth = "" if mb.mode_threshold is None else f"{mb.mode_threshold:.12g}"
            fh.write(f"{c:.17g},{mb.k_sign_changing_min},"
                     f"{len(mb.positive_modes)},{mth}\n")
    print(f"{path.name}: {len(cs)} rows (critical potential {cq})")


if __name__ == "__main__":
    main()
