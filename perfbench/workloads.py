"""The four seeded workloads: input generators, the timed call into seplane,
and the oracle that checks each output.

A request is one top-level call on one (p, q, c) triple. A result is one mode
profile, one period sample, or one separatrix; ``attempted``, ``failed`` and
``err.max`` are counted per result. The timed call goes through module
attributes (``seplane.build_solution_set``, ``cli.main``, ...) so that the
tracer's wrappers are picked up at call time.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import seplane
from seplane import cli

RESIDUAL_TOL = 1e-5      # profile residual, relative to the equation's term scale
ROUND_TRIP_TOL = 1e-6    # measured period against the mode's target period
CROSS_CHECK_TOL = 1e-6   # event timing against quadrature, relative to T
ZERO_AMP_TOL = 1e-2      # T(1e-2) below the zero-amplitude supremum, relative
SLOPE_TOL = 1e-6         # separatrix launch slope against the saddle root m

SCAN_GRID = np.geomspace(1e-2, 1e2, 30)

# classify_orbit settings for a start taken from the sampled separatrix; the
# backward branch loses the separatrix at binary64 below these.
ON_SEPARATRIX = {"origin_shrink": 1e-5, "slope_tol": 1e-2}


@dataclass
class Request:
    p: float
    q: float
    c: float
    n_results: int
    k_max: int | None = None
    expected: list = field(default_factory=list)   # (kind, k) profiles
    zero_amp_limit: float | None = None            # period-scan, b + d < 0


@dataclass
class Outcome:
    """Checked results of one request."""

    attempted: int = 0
    failed: int = 0
    errs: list = field(default_factory=list)       # error/tolerance per result
    incorrect: list = field(default_factory=list)  # outputs the program got silently wrong
    profiles: int = 0                              # profiles the program built
    bytes_out: int = 0

    def add(self, err: float, failed: bool = False) -> None:
        self.attempted += 1
        self.errs.append(err)
        if failed or not err <= 1.0:
            self.failed += 1


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random], list[Request]]
    call: Callable[[Request, str], Any]
    check: Callable[[Request, Any, str], Outcome]


# ---------------------------------------------------------------------------
# input generation: beta and c_q in closed form; mode counts and the
# zero-amplitude limit from seplane, before anything is timed or traced


def _beta(p: float, q: float) -> float:
    return p / (q + 1.0 - p)


def _c_q(p: float, q: float) -> float:
    return p ** (p - 1.0) * ((p - 2.0) * q + 2.0 * (p - 1.0)) / (q + 1.0 - p) ** p


def _spread(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from (lo, hi), one in each of n equal parts, in random order.

    Every seed then covers the whole range, so passes drawn from different
    seeds carry comparable work.
    """
    width = (hi - lo) / n
    xs = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(xs)
    return xs


def _q(p: float, beta: float) -> float:
    """q whose decay exponent at p is beta."""
    return p - 1.0 + p / beta


BETA = (0.9, 1.1)
P_RANGE = (1.5, 4.0)


def _gen_solve_positive(rng: random.Random) -> list[Request]:
    # three triples with p > 1 and one at p = 1 (quadrature inversion)
    triples = []
    for p, s, beta in zip(_spread(rng, 3, *P_RANGE), _spread(rng, 3, 4.0, 5.0),
                          _spread(rng, 3, *BETA)):
        q = _q(p, beta)
        triples.append((p, q, _c_q(p, q) + s * s * beta ** (p - 1.0) / p))
    while True:
        # at p = 1, s in (4, 5) gives three to five positive modes; draw
        # again until there are four, as at p > 1
        s, q = rng.uniform(4.0, 5.0), rng.uniform(1.5, 2.5)
        c = _c_q(1.0, q) + s * s
        if len(seplane.mode_bounds(seplane.ProblemParams(1.0, q, c)).positive_modes) == 4:
            break
    triples.insert(rng.randrange(4), (1.0, q, c))

    reqs = []
    for p, q, c in triples:
        mb = seplane.mode_bounds(seplane.ProblemParams(p, q, c))
        k_q = mb.k_sign_changing_min
        expected = [("positive", k) for k in mb.positive_modes]
        if p > 1.0:
            expected = [("sign-changing", k_q)] + expected
        reqs.append(Request(p, q, c, len(expected), k_max=k_q, expected=expected))
    return reqs


def _gen_solve_sign_changing(rng: random.Random) -> list[Request]:
    # modes k_q .. k_q + 4 cost in proportion to k (2048 k samples each), so
    # every triple is drawn with k_q = 2
    reqs = []
    for p, beta in zip(_spread(rng, 6, *P_RANGE), _spread(rng, 6, *BETA)):
        q = _q(p, beta)
        for _ in range(1000):
            c = _c_q(p, q) - rng.uniform(0.3, 3.0)
            if seplane.mode_bounds(seplane.ProblemParams(p, q, c)).k_sign_changing_min == 2:
                break
        else:
            raise RuntimeError(f"no c below c_q with k_q = 2 at p={p}, q={q}")
        expected = [("sign-changing", k) for k in range(2, 7)]
        reqs.append(Request(p, q, c, len(expected), k_max=6, expected=expected))
    rng.shuffle(reqs)
    return reqs


def _gen_period_scan(rng: random.Random) -> list[Request]:
    # 16 triples below c_q (finite zero-amplitude limit) and 8 above it,
    # where scans cost about twice as much; with equal shares the median
    # latency would fall between the two groups
    reqs = []
    for side, n in ((-1.0, 16), (1.0, 8)):
        for p, beta, offset in zip(_spread(rng, n, *P_RANGE), _spread(rng, n, *BETA),
                                   _spread(rng, n, 0.3, 3.0)):
            q = _q(p, beta)
            c = _c_q(p, q) + side * offset
            req = Request(p, q, c, len(SCAN_GRID))
            rp = seplane.reduce_params(seplane.ProblemParams(p, q, c))
            if rp.b + rp.d < 0.0:
                req.zero_amp_limit = seplane.period_zero_amplitude_limit(rp)
            reqs.append(req)
    rng.shuffle(reqs)
    return reqs


def _gen_separatrix(rng: random.Random) -> list[Request]:
    # p = 2 is left out: its closed-form slope-map inverse skips the root-find
    reqs = []
    for p in (1.5, 2.5, 3.0, 4.0):
        for beta, offset in zip(_spread(rng, 10, *BETA), _spread(rng, 10, 0.5, 4.0)):
            q = _q(p, beta)
            reqs.append(Request(p, q, _c_q(p, q) + offset, 1))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# oracles


def _fd1_periodic(v: np.ndarray, h: float) -> np.ndarray:
    return (-np.roll(v, -2) + 8.0 * np.roll(v, -1) - 8.0 * np.roll(v, 1)
            + np.roll(v, 2)) / (12.0 * h)


def residual_ratio(sigma: np.ndarray, omega: np.ndarray, p: float, q: float,
                   c: float) -> float:
    """Max residual of the angular equation

        (|W|^(p-2) w')' + lambda |W|^(p-2) w + |w|^(q-1) w - c |w|^(p-2) w = 0,
        |W|^2 = beta^2 w^2 + w'^2,

    over the smooth arcs of a sampled periodic profile, divided by
    RESIDUAL_TOL times the largest term. For p != 2 the flux degenerates at
    the zeros of w, so four grid points either side of each are left out.
    """
    beta = _beta(p, q)
    lam = beta * (q * beta - 2.0)
    h = sigma[1] - sigma[0]
    dom = _fd1_periodic(omega, h)
    weight = (beta * beta * omega * omega + dom * dom) ** (p / 2.0 - 1.0)
    terms = [_fd1_periodic(weight * dom, h), lam * weight * omega,
             np.sign(omega) * np.abs(omega) ** q,
             -c * np.sign(omega) * np.abs(omega) ** (p - 1.0)]
    residual = sum(terms)
    keep = np.ones(len(omega), dtype=bool)
    if p != 2.0:
        edges = np.nonzero((np.sign(omega) != np.sign(np.roll(omega, -1)))
                           | (np.abs(omega) < 1e-3 * np.max(np.abs(omega))))[0]
        for offset in range(-4, 6):
            keep[(edges + offset) % len(omega)] = False
    scale = max(float(np.max(np.abs(t[keep]))) for t in terms)
    with np.errstate(invalid="ignore"):
        worst = float(np.max(np.abs(residual[keep])))
    return worst / (RESIDUAL_TOL * scale) if math.isfinite(worst) else math.inf


def _check_profile(out: Outcome, req: Request, label: str, sigma, omega,
                   period_target: float, period_measured: float,
                   passed: bool) -> None:
    out.profiles += 1
    err = max(residual_ratio(sigma, omega, req.p, req.q, req.c),
              abs(period_measured - period_target) / period_target / ROUND_TRIP_TOL)
    if passed and err > 2.0:
        out.incorrect.append(f"{label} reported passed but its error ratio is {err:.3g}")
    out.add(err, failed=not passed)


def _failed_note(notes: list[str], kind: str, k: int) -> bool:
    return any(n.startswith(f"{kind} mode {k} failed") for n in notes)


def _check_modes(req: Request, found: dict, notes: list[str], out: Outcome) -> None:
    """Every expected mode is either a checked profile or a "failed" note.

    ``found`` maps (kind, k) to (sigma, omega, period_target,
    period_measured, passed) of each returned profile.
    """
    for kind, k in req.expected:
        label = f"({req.p!r}, {req.q!r}, {req.c!r}) {kind} k={k}"
        if (kind, k) in found:
            _check_profile(out, req, label, *found.pop((kind, k)))
        elif _failed_note(notes, kind, k):
            out.add(math.nan, failed=True)
        else:
            out.add(math.nan, failed=True)
            out.incorrect.append(f"{label} neither returned nor reported failed")
    for kind, k in found:
        out.incorrect.append(f"({req.p!r}, {req.q!r}, {req.c!r}) unexpected {kind} k={k}")


def all_failed(req: Request) -> Outcome:
    """Outcome of a request that raised instead of returning."""
    out = Outcome()
    for _ in range(req.n_results):
        out.add(math.nan, failed=True)
    return out


# ---------------------------------------------------------------------------
# solve-positive: library build_solution_set, c well above c_q


def _call_solve_positive(req: Request, work_dir: str):
    return seplane.build_solution_set(seplane.ProblemParams(req.p, req.q, req.c),
                                      k_max=req.k_max)


def _check_solve_positive(req: Request, ss, work_dir: str) -> Outcome:
    if isinstance(ss, seplane.SeplaneError):
        return all_failed(req)
    out = Outcome()
    found = {(kind, e.k): (e.profile.sigma, e.profile.omega, e.period_target,
                           e.period_measured, e.residual.passed)
             for kind, entries in (("sign-changing", ss.sign_changing),
                                   ("positive", ss.positive))
             for e in entries}
    _check_modes(req, found, ss.notes, out)
    return out


# ---------------------------------------------------------------------------
# solve-sign-changing: the CLI solve-set path with its CSV output


def _call_solve_sign_changing(req: Request, work_dir: str):
    return cli.main(["solve-set", "-p", repr(req.p), "-q", repr(req.q), "-c", repr(req.c),
                     "--k-max", str(req.k_max), "--out", work_dir])


def _check_solve_sign_changing(req: Request, code, work_dir: str) -> Outcome:
    if code not in (0, 3):   # 2 is a refused input, anything else a crash
        return all_failed(req)
    out = Outcome()
    out.bytes_out = sum(os.path.getsize(os.path.join(work_dir, f))
                        for f in os.listdir(work_dir))
    with open(os.path.join(work_dir, "solution_set.json")) as fh:
        doc = json.load(fh)

    found = {}
    for e in doc["sign_changing"]:
        data = np.loadtxt(os.path.join(work_dir, f"mode_sc_k{e['k']}.csv"),
                          delimiter=",", skiprows=1)
        found[("sign-changing", e["k"])] = (data[:, 0], data[:, 1], e["period_target"],
                                            e["period_measured"], e["passed"])
    _check_modes(req, found, doc["notes"], out)
    return out


# ---------------------------------------------------------------------------
# period-scan: both period routes over a fixed amplitude grid


def _call_period_scan(req: Request, work_dir: str):
    pp = seplane.ProblemParams(req.p, req.q, req.c)
    return seplane.period_scan("sign-changing", SCAN_GRID, seplane.reduce_params(pp),
                               seplane.reduced_nonlinearity(pp), method="both")


def _check_period_scan(req: Request, scan, work_dir: str) -> Outcome:
    if isinstance(scan, seplane.SeplaneError):
        return all_failed(req)
    out = Outcome()
    # sign-changing periods decrease strictly in the amplitude
    monotone = scan.verdict == "decreasing"
    for i, s in enumerate(scan.samples):
        err = abs(s.period - s.cross_check) / s.period / CROSS_CHECK_TOL
        if i == 0 and req.zero_amp_limit is not None:
            # below the finite supremum, and close to it at the grid's low end
            gap = (req.zero_amp_limit - s.period) / req.zero_amp_limit
            err = max(err, gap / ZERO_AMP_TOL if gap >= 0.0 else -gap / CROSS_CHECK_TOL)
        out.add(err, failed=not monotone)
    return out


# ---------------------------------------------------------------------------
# separatrix: homoclinic shooting in the regularized chart, then classification


def _call_separatrix(req: Request, work_dir: str):
    pp = seplane.ProblemParams(req.p, req.q, req.c)
    rp, nl = seplane.reduce_params(pp), seplane.reduced_nonlinearity(pp)
    orb = seplane.shoot_homoclinic(rp, nl)
    states = orb.trajectory.states
    starts = [(0.5 * seplane.stationary_abscissa(rp, nl), 0.0),  # inside the loop
              (1.25 * orb.apex_w, 0.0),                           # outside it
              tuple(states[len(states) // 4])]                    # on it
    tags = []
    for i, start in enumerate(starts):
        try:
            tags.append(seplane.classify_orbit(start, rp, nl,
                                               **(ON_SEPARATRIX if i == 2 else {})).tag)
        except seplane.InconclusiveOrbitError as exc:
            tags.append(exc)
    return rp, orb, tags


def _check_separatrix(req: Request, res, work_dir: str) -> Outcome:
    if isinstance(res, seplane.SeplaneError):
        return all_failed(req)
    rp, orb, tags = res
    out = Outcome()
    m, p, b = orb.witness["m"], rp.p, rp.b
    potential = ((p - 1.0) * m * m - b) * (1.0 + m * m) ** (p / 2.0 - 1.0)
    if not abs(potential - rp.d) <= 1e-9 * (1.0 + abs(rp.d)):
        out.incorrect.append(f"({req.p!r}, {req.q!r}, {req.c!r}) saddle slope {m} "
                             f"does not solve E(m) = d")
    # an orbit started on the separatrix may resolve to either side of it
    classes_ok = (tags[0] == seplane.CLOSED_AROUND_CENTER
                  and tags[1] == seplane.CLOSED_AROUND_ORIGIN
                  and isinstance(tags[2], str))
    out.add(abs(orb.m_initial - m) / m / SLOPE_TOL, failed=not classes_ok)
    return out


WORKLOADS = {
    w.name: w for w in [
        Workload("solve-positive", _gen_solve_positive, _call_solve_positive,
                 _check_solve_positive),
        Workload("solve-sign-changing", _gen_solve_sign_changing,
                 _call_solve_sign_changing, _check_solve_sign_changing),
        Workload("period-scan", _gen_period_scan, _call_period_scan, _check_period_scan),
        Workload("separatrix", _gen_separatrix, _call_separatrix, _check_separatrix),
    ]
}


def fresh_dir(work_dir: str) -> str:
    """Empty output directory for the next request."""
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    return work_dir
