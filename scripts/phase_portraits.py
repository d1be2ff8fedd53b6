#!/usr/bin/env python3
"""Sample the three orbit families of the center regime plus the separatrix.

Writes out/portrait_*.csv with columns tau, w, y: closed orbits around the
origin, closed orbits around the center, and the homoclinic loop between
them, all for (p, q, c) = (2, 3, 2).
"""

import pathlib

import numpy as np

from seplane.fields import cartesian_rhs
from seplane.integrate import IntegratorConfig, integrate
from seplane.orbits import shoot_homoclinic
from seplane.params import Nonlinearity, ProblemParams, reduce_params

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"
CFG = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)


def dump(name, taus, states):
    path = OUT / f"portrait_{name}.csv"
    with path.open("w") as fh:
        fh.write("tau,w,y\n")
        for t, (w, y) in zip(taus, states):
            fh.write(f"{t:.17g},{w:.17g},{y:.17g}\n")
    print(f"{path.name}: {len(taus)} samples")


def main() -> None:
    OUT.mkdir(exist_ok=True)
    params = ProblemParams(2.0, 3.0, 2.0)
    rp = reduce_params(params)
    nl = Nonlinearity(params.p, params.q)
    rhs = cartesian_rhs(rp, nl)

    for name, start, span in [("around_center", (0.4, 0.0), 5.5),
                              ("around_origin", (0.0, 2.0), 6.0)]:
        traj = integrate(rhs, start, (0.0, span), cfg=CFG, dense=True)
        ts = np.linspace(0.0, span, 600)
        dump(name, ts, traj.sample(ts))

    orb = shoot_homoclinic(rp, nl, CFG)
    dump("homoclinic", orb.trajectory.taus, orb.trajectory.states)


if __name__ == "__main__":
    main()
