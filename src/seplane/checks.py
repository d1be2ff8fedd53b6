"""Acceptance checks runnable from the test suite or the CLI.

Each check returns a CheckResult; every numeric target is frozen here with
the oracle that produced it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import SeplaneError
from .fields import (
    cartesian_rhs,
    field_cartesian,
    field_polar,
    field_regularized,
    field_slope,
    p1_slope_rhs,
    regularized_rhs,
)
from .integrate import integrate, integrate_to_section
from .orbits import conserved_quantity, shoot_homoclinic
from .params import (
    Nonlinearity,
    ProblemParams,
    ReducedParams,
    angular_time_scale,
    critical_potential,
    damping_coefficient,
    decay_exponent,
    mode_threshold_zero_c,
    reduce_params,
    slope_map,
    slope_map_deriv,
    slope_map_inv,
    slope_potential,
    stationary_abscissa,
)
from .periods import (
    mode_threshold,
    period_infimum_p1,
    period_positive,
    period_positive_p1,
    period_scan,
    period_zero_amplitude_closed,
    period_zero_amplitude_limit,
)
from .solutions import PROFILE_CONFIG, build_solution_set, sector_exists, verify_profile

__all__ = ["CheckResult", "ALL_CHECKS", "CHECKS_BY_COMMAND", "run_checks"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


def _result(name: str, failures: list[str], detail: str, t0: float) -> CheckResult:
    if failures:
        detail = "; ".join(failures[:6])
    return CheckResult(name, not failures, detail, time.time() - t0)


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) if scale == 0.0 else abs(a - b) / scale


def check_constant_identities(seed: int = 12345) -> CheckResult:
    """Both algebraic forms of the eigenvalue, the critical-potential product
    identity, and the reduced-sign equivalence over 1000 random triples.

    The eigenvalue vanishes on a curve inside the sampled box, where a
    value-relative comparison of two independently rounded forms is
    meaningless in binary64; the identity is therefore verified exactly in
    rational arithmetic, and the float paths are compared against the exact
    value relative to the term magnitude.
    """
    import fractions

    t0 = time.time()
    rng = np.random.default_rng(seed)
    p = rng.uniform(1.0 + 1e-6, 5.0, 1000)
    q = p - 1.0 + rng.uniform(1e-6, 1.0, 1000) * 9.0
    beta = p / (q + 1.0 - p)
    lam1 = beta * (q * beta - 2.0)
    lam2 = beta * (p - 2.0 + (p - 1.0) * beta)
    cq1 = p ** (p - 1.0) * ((p - 2.0) * q + 2.0 * (p - 1.0)) / (q + 1.0 - p) ** p
    cq2 = beta ** (p - 2.0) * lam1
    failures = []
    e1 = e2 = 0.0
    for i in range(1000):
        fp, fq = fractions.Fraction(p[i]), fractions.Fraction(q[i])
        fb = fp / (fq + 1 - fp)
        exact1 = fb * (fq * fb - 2)
        exact2 = fb * (fp - 2 + (fp - 1) * fb)
        if exact1 != exact2:
            failures.append(f"eigenvalue identity fails at {(p[i], q[i])}")
            break
        # rounding of beta is amplified by p/(q+1-p); fold that conditioning
        # into the comparison scale
        scale = float(fb * (abs(fq * fb) + 2)) \
            + abs(float(exact1)) * p[i] / (q[i] + 1.0 - p[i])
        e1 = max(e1, abs(lam1[i] - float(exact1)) / scale,
                 abs(lam2[i] - float(exact1)) / scale)
    if e1 > 1e-14:
        failures.append(f"float eigenvalue paths off by {e1:.2e} of term scale")
    scale2 = beta ** (p - 2.0) * beta * (np.abs(q * beta) + 2.0)
    e2 = float(np.max(np.abs(cq1 - cq2) / scale2))
    if e2 > 1e-12:
        failures.append(f"critical-potential identity: {e2:.2e}")
    c = rng.uniform(-5.0, 5.0, 1000)
    for i in range(1000):
        rp = reduce_params(ProblemParams(p[i], q[i], c[i]))
        if (rp.b + rp.d > 0.0) != (c[i] > cq1[i]):
            failures.append(f"sign equivalence broken at {(p[i], q[i], c[i])}")
            break
    return _result("constant cross-identities",
                   failures, f"lam {e1:.1e}, c_q {e2:.1e} over 1000 triples", t0)


def _mode_threshold_oracle(params: ProblemParams) -> float:
    """Mode threshold from the angular time integrand in the problem
    variables, a quadrature independent of the reduced zero-amplitude limit."""
    p, q, c = params.p, params.q, params.c
    cq, beta = critical_potential(p, q), decay_exponent(p, q)

    def integrand(theta):
        t = math.tan(theta)
        return (1.0 + (p - 1.0) * t * t) / (
            beta**p * (p - 1.0) * t * t + cq - c * math.cos(theta) ** (p - 2.0))

    val, _ = quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-10, epsrel=1e-12, limit=400)
    return math.pi * beta ** (1.0 - p) / (2.0 * val)


def check_mode_threshold(seed: int = 12345) -> CheckResult:
    """Threshold against the c = 0 closed forms and against the angular
    quadrature in the problem variables. Frozen: M(2,3,0)=1, M(2,2,0)=2,
    M(3,5,0)=1.5797958971 (quadrature and closed form agree)."""
    t0 = time.time()
    failures = []
    fixed = [(2.0, 2.0, 2.0), (2.0, 3.0, 1.0), (3.0, 5.0, 1.5797958971132713),
             (1.5, 2.0, 0.0)]
    for p, q, frozen in fixed:
        mq = mode_threshold(ProblemParams(p, q, 0.0))
        closed = mode_threshold_zero_c(p, q)
        if _rel(mq, closed) > 1e-8 or _rel(mq, frozen) > 1e-8:
            failures.append(f"closed-form mismatch at ({p},{q}): {mq} vs {closed}")
    rng = np.random.default_rng(seed)
    for _ in range(20):
        p = rng.uniform(1.2, 4.0)
        q = p - 1.0 + rng.uniform(0.3, 6.0)
        cq = critical_potential(p, q)
        c = cq - rng.uniform(0.1, 5.0)
        params = ProblemParams(p, q, c)
        if _rel(mode_threshold(params), _mode_threshold_oracle(params)) > 1e-8:
            failures.append(f"period identity off at ({p:.3f},{q:.3f},{c:.3f})")
    return _result("mode-threshold consistency", failures,
                   "4 closed forms + 20 random period identities", t0)


def check_small_amplitude_closed_form(seed: int = 12345) -> CheckResult:
    """Quadrature limit against the closed form at d = 0, b < 0, 10 draws."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(10):
        p = rng.uniform(1.2, 4.5)
        b = -rng.uniform(0.2, 6.0)
        rp = ReducedParams(p, p + 0.5, b, 0.0)
        td = period_zero_amplitude_limit(rp)
        closed = period_zero_amplitude_closed(rp)
        if _rel(td, closed) > 1e-8:
            failures.append(f"(p={p:.3f}, b={b:.3f}): {td} vs {closed}")
    return _result("zero-amplitude closed form", failures, "10 random (p, b)", t0)


def _orbit_drift(rp, nl, start, horizon: float, sections: float) -> float:
    """Relative drift of the conserved quantity of ``rp`` over one full
    period, ``sections`` times the time to the first section crossing; a
    p = 1 orbit runs in the slope chart (w, u), with y = w u / sqrt(1 - u^2)."""
    slope_chart = rp.p == 1.0
    rhs = p1_slope_rhs(rp, nl) if slope_chart else cartesian_rhs(rp, nl)
    t_section, _ = integrate_to_section(rhs, start, horizon, PROFILE_CONFIG)
    period = sections * t_section
    full = integrate(rhs, start, (0.0, period), cfg=PROFILE_CONFIG, dense=True)
    w, v = full.sample(np.linspace(0.0, period, 400)).T
    y = w * v / np.sqrt(1.0 - v * v) if slope_chart else v
    vals = np.array(list(map(conserved_quantity(rp, nl), w, y)))
    scale = max(float(np.max(np.abs(vals))), 1e-3)
    return float(vals.max() - vals.min()) / scale


def check_conservation() -> CheckResult:
    """First-integral drift below 1e-7 over a period for ten b = 1 orbits,
    and below 1e-9 for the p = 1 integral."""
    t0 = time.time()
    failures = []
    sets = [
        (ReducedParams(1.5, 2.0, 1.0, 0.5), "sc", 1.0),
        (ReducedParams(1.5, 2.0, 1.0, 0.5), "pos", 0.6),
        (ReducedParams(1.5, 2.0, 1.0, -0.5), "sc", 1.5),
        (ReducedParams(1.5, 2.0, 1.0, -0.5), "pos", 0.5),
        (ReducedParams(3.0, 5.0, 1.0, 0.0), "sc", 2.0),
        (ReducedParams(3.0, 5.0, 1.0, 0.0), "pos", 0.5),
        (ReducedParams(3.0, 5.0, 1.0, 1.0), "sc", 0.8),
        (ReducedParams(3.0, 5.0, 1.0, 1.0), "pos", 0.7),
        (ReducedParams(3.0, 4.0, 1.0, 0.25), "sc", 1.2),
        (ReducedParams(3.0, 4.0, 1.0, 0.25), "pos", 0.5),
    ]
    for rp, mode, amp in sets:
        nl = Nonlinearity(rp.p, rp.q)
        start = (0.0, amp) if mode == "sc" else (amp * stationary_abscissa(rp, nl), 0.0)
        drift = _orbit_drift(rp, nl, start, 1e4, 4.0 if mode == "sc" else 2.0)
        if drift > 1e-7:
            failures.append(f"drift {drift:.2e} at {rp} {mode}")

    rp1 = ReducedParams(1.0, 2.0, 1.0, 0.5)
    nl1 = Nonlinearity(1.0, 1.0)
    drift1 = _orbit_drift(rp1, nl1, (0.9, 0.0), 100.0, 2.0)
    if drift1 > 1e-9:
        failures.append(f"p=1 drift {drift1:.2e}")
    return _result("first-integral conservation", failures,
                   f"10 orbits at b=1 plus p=1 (drift {drift1:.1e})", t0)


def check_homoclinic() -> CheckResult:
    """Shooting slope equals the potential root, apex stable under offset
    refinement, and the b = 1 separatrix carries first-integral value 0."""
    t0 = time.time()
    failures = []
    params = ProblemParams(2.0, 3.0, 2.0)
    rp = reduce_params(params)
    nl = Nonlinearity(2.0, 3.0)
    orb = shoot_homoclinic(rp, nl, PROFILE_CONFIG)
    if abs(orb.m_initial - 1.0) > 1e-6:
        failures.append(f"slope {orb.m_initial} != 1")
    orb2 = shoot_homoclinic(rp, nl, PROFILE_CONFIG, offset=1e-9)
    if _rel(orb.apex_w, orb2.apex_w) > 1e-6:
        failures.append(f"apex drift under refinement: {orb.apex_w} vs {orb2.apex_w}")
    # oracle: the p = 2 energy fixes the apex at sqrt(2 (b+d)) for q = 3
    if abs(orb.apex_w - math.sqrt(2.0)) > 1e-8:
        failures.append(f"apex {orb.apex_w} != sqrt(2)")
    for rpb in (ReducedParams(1.5, 2.0, 1.0, 0.5), ReducedParams(3.0, 5.0, 1.0, 0.0)):
        nlb = Nonlinearity(rpb.p, rpb.q)
        ho = shoot_homoclinic(rpb, nlb, PROFILE_CONFIG)
        integral = conserved_quantity(rpb, nlb)
        vals = [abs(integral(w, y)) for w, y in ho.trajectory.states if w > 0.0]
        if max(vals) > 1e-7:
            failures.append(f"separatrix integral {max(vals):.2e} at {rpb}")
    return _result("homoclinic shooting", failures,
                   "slope, apex refinement, separatrix level", t0)


def check_period_monotonicity() -> CheckResult:
    """Strict decrease of the sign-changing period over a 30-point log grid
    for five parameter sets, with the endpoint dichotomy."""
    t0 = time.time()
    failures = []
    param_sets = [ProblemParams(2.0, 3.0, 0.0), ProblemParams(2.0, 3.0, 2.0),
                  ProblemParams(3.0, 5.0, 0.0), ProblemParams(1.5, 2.5, 1.0),
                  ProblemParams(2.5, 4.0, -1.0)]
    grid = np.geomspace(1e-2, 1e2, 30)
    for params in param_sets:
        rp = reduce_params(params)
        nl = Nonlinearity(params.p, params.q)
        scan = period_scan("sign-changing", grid, rp, nl, method="event-timing")
        if scan.verdict != "decreasing":
            failures.append(f"{params}: verdict {scan.verdict}, "
                            f"violation {scan.max_violation:.2e}")
            continue
        t_small = scan.samples[0].period
        if rp.b + rp.d < 0.0:
            td = period_zero_amplitude_limit(rp)
            if not t_small < td or _rel(t_small, td) > 0.05:
                failures.append(f"{params}: T({grid[0]}) = {t_small} vs limit {td}")
        else:
            if t_small < 2.0 * scan.samples[14].period:
                failures.append(f"{params}: no divergence as amplitude shrinks")
    return _result("sign-changing period monotonicity", failures,
                   "5 parameter sets, 30-point grids", t0)


def check_positive_limits() -> CheckResult:
    """Positive-orbit period endpoints: the small-oscillation value at the
    center and divergence toward zero amplitude."""
    t0 = time.time()
    failures = []
    for params in (ProblemParams(2.0, 3.0, 2.0), ProblemParams(3.0, 5.0, 6.0)):
        rp = reduce_params(params)
        nl = Nonlinearity(params.p, params.q)
        a = stationary_abscissa(rp, nl)
        limit = 2.0 * math.pi / math.sqrt((params.q + 1.0 - params.p) * (rp.b + rp.d))
        tp = period_positive(a * (1.0 - 1e-4), rp, nl, PROFILE_CONFIG).period
        if _rel(tp, limit) > 1e-3:
            failures.append(f"{params}: near-center period {tp} vs {limit}")
        mu, diverged = a, False
        for _ in range(40):
            mu /= 4.0
            if period_positive(mu, rp, nl).period > 10.0 * limit:
                diverged = True
                break
        if not diverged:
            failures.append(f"{params}: period never exceeded 10x the limit")
    return _result("positive-orbit period limits", failures,
                   "small-oscillation and divergence endpoints", t0)


def check_p1_exactness() -> CheckResult:
    """p = 1 statements: constant 2 pi period at d = 0, explicit profiles
    verified, the sine identity at roundoff, infimum forms matching, and the
    amplitude-endpoint limit. Frozen oracle value: the d = 1 infimum
    2.9116845975543946 from the angular quadrature (fine Simpson and event
    timing of the flow agree)."""
    t0 = time.time()
    failures = []
    nl1 = Nonlinearity(1.0, 1.0)
    rp0 = ReducedParams(1.0, 2.0, 1.0, 0.0)
    for mu in np.linspace(0.05, 0.95, 10):
        tp = period_positive_p1(mu, rp0, nl1).period
        if abs(tp - 2.0 * math.pi) > 1e-8:
            failures.append(f"T+({mu}) = {tp} != 2 pi")

    params1 = ProblemParams(1.0, 2.0, 0.0)
    from .solutions import p1_explicit, reduced_residual_report

    for K in np.arange(0.1, 0.95, 0.1):
        prof = p1_explicit(round(K, 1), 2.0, n=4096)
        rep = verify_profile(prof, params1, tol=1e-6)
        if not rep.passed:
            failures.append(f"explicit K={K:.1f} residual {rep.max_residual:.2e}")

    tau = np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)
    rp_sc = ReducedParams(1.0, 1.5, 1.0, 0.0)
    rep = reduced_residual_report(tau, 2.0 * np.sin(tau), rp_sc, nl1, tol=1e-12,
                                  w_prime=2.0 * np.cos(tau),
                                  w_second=-2.0 * np.sin(tau))
    if not rep.passed:
        failures.append(f"sine identity residual {rep.max_residual:.2e}")

    frozen_inf = 2.9116845975543946
    tbar = period_infimum_p1(1.0)  # also asserts the two quadrature forms
    if abs(tbar - frozen_inf) > 1e-9:
        failures.append(f"infimum {tbar} vs frozen {frozen_inf}")
    rp1 = ReducedParams(1.0, 2.0, 1.0, 1.0)
    mubar = 2.0 - math.sqrt(3.0)
    tp = period_positive_p1(mubar * (1.0 + 1e-9), rp1, nl1).period
    if abs(tp - tbar) > 1e-4:
        failures.append(f"endpoint limit {tp} vs {tbar}")
    return _result("p = 1 exactness", failures,
                   f"constant period, 9 explicit profiles, infimum {tbar:.6f}", t0)


def _least_period_ok(profile, tol: float = 1e-8) -> bool:
    n, k = len(profile.omega), profile.k
    scale = float(np.max(np.abs(profile.omega)))
    shift = n // k
    if np.max(np.abs(np.roll(profile.omega, -shift) - profile.omega)) > tol * scale:
        return False
    half = n // (2 * k)
    return np.max(np.abs(np.roll(profile.omega, -half) - profile.omega)) > 1e-2 * scale


def check_solution_sets() -> CheckResult:
    """Shapes of the three benchmark solution sets plus per-profile
    verification, least-period, and zero-count invariants."""
    t0 = time.time()
    failures = []

    ss = build_solution_set(ProblemParams(2.0, 3.0, 0.0), k_max=4)
    if ss.positive or ss.constants:
        failures.append("(2,3,0): expected no positive or constant profiles")
    if [e.k for e in ss.sign_changing] != [2, 3, 4]:
        failures.append(f"(2,3,0): modes {[e.k for e in ss.sign_changing]}")

    ss9 = build_solution_set(ProblemParams(2.0, 3.0, 9.0), k_max=2)
    if [e.k for e in ss9.positive] != [1, 2, 3]:
        failures.append(f"(2,3,9): positive modes {[e.k for e in ss9.positive]}")
    if not ss9.constants or abs(ss9.constants[0] - math.sqrt(8.0)) > 1e-12:
        failures.append(f"(2,3,9): constants {ss9.constants}")

    ss1 = build_solution_set(ProblemParams(1.0, 2.0, 3.0))
    if [e.k for e in ss1.positive] != [3]:
        failures.append(f"(1,2,3): positive modes {[e.k for e in ss1.positive]}")
    if not ss1.constants or abs(ss1.constants[0] - 2.0) > 1e-12:
        failures.append(f"(1,2,3): constants {ss1.constants}")

    for ss_, params in ((ss, ProblemParams(2.0, 3.0, 0.0)),
                        (ss9, ProblemParams(2.0, 3.0, 9.0)),
                        (ss1, ProblemParams(1.0, 2.0, 3.0))):
        scale = angular_time_scale(params.p, params.q)
        for entry in ss_.sign_changing + ss_.positive:
            if not entry.residual.passed:
                failures.append(f"{params}: k={entry.k} residual fails")
            if _rel(entry.period_measured, 2.0 * math.pi * scale / entry.k) > 1e-6:
                failures.append(f"{params}: k={entry.k} period round-trip")
            if not _least_period_ok(entry.profile):
                failures.append(f"{params}: k={entry.k} least-period")
            om = entry.profile.omega
            nz = om[np.abs(om) > 1e-9 * np.max(np.abs(om))]
            changes = int(np.sum(np.sign(nz) != np.sign(np.roll(nz, -1))))
            if entry.profile.kind == "sign-changing" and changes != 2 * entry.k:
                failures.append(f"{params}: k={entry.k} zero count {changes}")
            if entry.profile.kind == "positive" and om.min() <= 0.0:
                failures.append(f"{params}: k={entry.k} positive floor")
    return _result("solution-set shapes", failures,
                   "(2,3,0), (2,3,9), (1,2,3) assembled and verified", t0)


def check_sector() -> CheckResult:
    """Sector predicate: the p = 2 root is pi/theta, strict decrease in the
    opening, and the unconditional shortcut boundary."""
    t0 = time.time()
    failures = []
    thetas = np.linspace(0.3, 2.0 * math.pi - 0.3, 25)
    prev = math.inf
    for th in thetas:
        rep = sector_exists(2.0, 3.0, th)
        if abs(rep.beta_s - math.pi / th) > 1e-12:
            failures.append(f"p=2 root off at theta={th}")
        if not rep.beta_s < prev:
            failures.append(f"beta_s not decreasing at theta={th}")
        prev = rep.beta_s
        for qv in (1.5, 3.0, 5.0, 9.0):
            rep = sector_exists(2.0, qv, th)
            if rep.exists != (2.0 / (qv - 1.0) < math.pi / th):
                failures.append(f"p=2 existence rule broken at q={qv}, theta={th}")
    for p, q, expect in ((1.5, 2.0, True), (1.5, 2.1, True), (1.5, 1.9, False),
                         (1.2, 0.5, True), (2.5, 4.0, False)):
        if sector_exists(p, q, 1.0).unconditional != expect:
            failures.append(f"shortcut wrong at ({p}, {q})")
    return _result("sector predicate", failures,
                   "25 openings, 4 exponents, shortcut boundary", t0)


def check_chart_suite(seed: int = 12345) -> CheckResult:
    """Field equivariance, cross-chart consistency at 1000 random points,
    the stationary set, and the transformed-slope acceleration identity."""
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(seed)
    cases = [ReducedParams(2.0, 3.0, -1.0, 0.0), ReducedParams(3.0, 5.0, -3.0, 2.0),
             ReducedParams(1.5, 2.0, 1.0, 0.5), ReducedParams(2.5, 4.0, -2.0, 4.0)]
    for i in range(1000):
        rp = cases[i % len(cases)]
        nl = Nonlinearity(rp.p, rp.q)
        w, y = rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)
        f1, g1 = field_cartesian((w, y), rp, nl)
        f2, g2 = field_cartesian((-w, -y), rp, nl)
        if abs(f1 + f2) > 1e-14 * (1 + abs(f1)) or abs(g1 + g2) > 1e-14 * (1 + abs(g1)):
            failures.append(f"odd symmetry broken at {(w, y)}")
            break
        f3, g3 = field_cartesian((w, -y), rp, nl)
        if abs(f3 + f1) > 1e-14 * (1 + abs(f1)) or abs(g3 - g1) > 1e-14 * (1 + abs(g1)):
            failures.append(f"time-reversal symmetry broken at {(w, y)}")
            break
        rho, theta = math.hypot(w, y), math.atan2(y, w)
        pol = field_polar(theta, rho, rp, nl)
        dth = (w * g1 - y * f1) / rho**2
        drho = (w * f1 + y * g1) / rho
        if abs(pol[0] - dth) > 1e-9 * (1 + abs(dth)) or abs(pol[1] - drho) > 1e-9 * (1 + abs(drho)):
            failures.append(f"polar chart off at {(w, y)}: {pol} vs {(dth, drho)}")
            break
        xi = y / w
        u = slope_map(xi, rp.p)
        sl = field_slope((w, u), rp, nl)
        du = slope_map_deriv(xi, rp.p) * (g1 - xi * f1) / w
        if abs(sl[0] - f1) > 1e-9 * (1 + abs(f1)) or abs(sl[1] - du) > 1e-9 * (1 + abs(du)):
            failures.append(f"slope chart off at {(w, y)}")
            break
        e = rp.q + 1.0 - rp.p
        v = w**e
        rg = field_regularized((v, u), rp, nl)
        dv = e * w ** (e - 1.0) * f1
        if abs(rg[0] - dv) > 1e-9 * (1 + abs(dv)) or abs(rg[1] - du) > 1e-9 * (1 + abs(du)):
            failures.append(f"regularized chart off at {(w, y)}")
            break

    # stationary set on a grid
    for rp in cases:
        nl = Nonlinearity(rp.p, rp.q)
        has_center = rp.b + rp.d > 0.0
        a = stationary_abscissa(rp, nl) if has_center else None
        for w in np.linspace(-3.0, 3.0, 41):
            for y in np.linspace(-3.0, 3.0, 41):
                if math.hypot(w, y) < 0.2:
                    continue
                norm = math.hypot(*field_cartesian((w, y), rp, nl))
                near = has_center and min(math.hypot(w - a, y),
                                          math.hypot(w + a, y)) < 0.25
                if norm < 1e-8 and not near:
                    failures.append(f"spurious stationary point at {(w, y)} for {rp}")
        if has_center and math.hypot(*field_cartesian((a, 0.0), rp, nl)) > 1e-12:
            failures.append(f"center not stationary for {rp}")

    # transformed-slope acceleration along an integrated regularized arc
    # kept inside the loop region of a center so the chart never degenerates
    rp = ReducedParams(2.5, 4.0, -1.0, 3.0)
    nl = Nonlinearity(2.5, 4.0)
    arc = integrate(regularized_rhs(rp, nl), (1.0, 0.2), (0.0, 2.0),
                    cfg=PROFILE_CONFIG, dense=True)
    h = 0.02
    ts = np.arange(0.0, 2.0 + h / 2.0, h)
    vs, us = arc.sample(ts).T
    upp_fd = (-np.roll(us, -2) + 16.0 * np.roll(us, -1) - 30.0 * us
              + 16.0 * np.roll(us, 1) - np.roll(us, 2)) / (12.0 * h * h)
    xi = slope_map_inv(us, rp.p)
    pot = slope_potential(xi, rp.p, rp.b) - rp.d
    rhs_val = damping_coefficient(xi, rp.p, rp.q, rp.b) * (-pot - vs) \
        + (rp.q + 1.0 - rp.p) * pot * xi
    off = np.flatnonzero(np.abs(upp_fd - rhs_val)[3:-3]
                         > 1e-5 * (1.0 + np.abs(rhs_val[3:-3])))
    if off.size:
        i = off[0] + 3
        failures.append(f"slope acceleration off at tau={ts[i]:.2f}: "
                        f"{upp_fd[i]} vs {rhs_val[i]}")
    return _result("chart consistency and symmetry", failures,
                   "1000 random points, stationary grid, acceleration identity", t0)


ALL_CHECKS = [
    ("1", check_constant_identities),
    ("2", check_mode_threshold),
    ("3", check_small_amplitude_closed_form),
    ("4", check_conservation),
    ("5", check_homoclinic),
    ("6", check_period_monotonicity),
    ("7", check_positive_limits),
    ("8", check_p1_exactness),
    ("9", check_solution_sets),
    ("10", check_sector),
    ("11", check_chart_suite),
]

CHECKS_BY_COMMAND = {
    "params": ["1", "2", "3"],
    "orbit": ["4", "5", "11"],
    "period-scan": ["6", "7", "8"],
    "solve-set": ["9"],
    "sector": ["10"],
}


def run_checks(ids, seed: int = 12345) -> bool:
    """Run the selected criteria, print one line each, return overall pass."""
    ok = True
    by_id = dict(ALL_CHECKS)
    for cid in ids:
        fn = by_id[cid]
        try:
            res = fn(seed) if "seed" in fn.__code__.co_varnames else fn()
        except SeplaneError as exc:
            res = CheckResult(fn.__name__, False, str(exc))
        status = "PASS" if res.passed else "FAIL"
        print(f"criterion {cid} [{res.name}]: {status} "
              f"({res.detail}; {res.seconds:.1f}s)")
        ok = ok and res.passed
    return ok
