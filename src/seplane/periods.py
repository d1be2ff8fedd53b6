"""Period functions of the closed orbits and their closed-form limits.

Sign-changing periods come from quarter-orbit event timing, cross-checked by
an angular quadrature over the orbit itself; positive periods from half-orbit
timing; the p = 1 periods from the first-integral quadratures. The integer
mode ranges are read off the endpoints of these period functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import DomainError, IntegrationError, OutOfRangeError
from .fields import cartesian_rhs
from .integrate import IntegratorConfig, integrate_to_section
from .params import (
    Nonlinearity,
    ProblemParams,
    ReducedParams,
    angular_time_scale,
    reduce_params,
    reduced_nonlinearity,
    stationary_abscissa,
    zero_amplitude_divergent,
)

__all__ = [
    "PeriodSample",
    "PeriodLimits",
    "ScanResult",
    "period_sign_changing",
    "period_positive",
    "period_zero_amplitude_limit",
    "period_zero_amplitude_closed",
    "period_positive_p1",
    "period_infimum_p1",
    "p1_turning_from_amplitude",
    "require_family",
    "period_sample",
    "monotonicity",
    "period_scan",
    "find_amplitude_for_period",
    "period_limits",
    "ModeBounds",
    "mode_threshold",
    "mode_bounds",
]

QUAD_ABS_TOL = 1e-10
P1_QUAD_ABS_TOL = 1e-11
_HALF_PI = math.pi / 2.0
# four-point Gauss-Legendre rule on [-1, 1]: nodes +-sqrt(3/7 -+ (2/7) sqrt(6/5)),
# weights (18 +- sqrt(30))/36, the larger weight on the inner pair
_GAUSS_NODES = np.array([-1.0, -1.0, 1.0, 1.0]) * np.sqrt(
    3.0 / 7.0 + np.array([1.0, -1.0, -1.0, 1.0]) * 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
_GAUSS_WEIGHTS = (18.0 + np.array([-1.0, 1.0, 1.0, -1.0]) * math.sqrt(30.0)) / 36.0
# cuts every step at the multiples of pi/64 rad: at the default tolerances a
# step sweeps under 0.05 rad and the cuts move the sum by 3e-15 relative, but
# with rel_tol = 1e-3 one step sweeps 1.13 rad, where a single rule is off by
# 1.2e-5
_GAUSS_GRID = np.linspace(0.0, _HALF_PI, 33)
# the quadrature nodes' Newton iteration: at most _NODE_NEWTON_STEPS steps,
# ended by a step below _NODE_X_TOL of a step's length; a node may then miss
# its angle by _NODE_ANGLE_TOL rad. On period-scan orbits three steps leave
# 2.2e-16 rad
_NODE_NEWTON_STEPS = 8
_NODE_X_TOL = 1e-10
_NODE_ANGLE_TOL = 1e-12


@dataclass(frozen=True)
class PeriodSample:
    """One measured least period at a given amplitude.

    ``cross_check`` carries the other method's value when both were run.
    """

    amplitude: float
    period: float
    method: str
    est_error: float
    cross_check: float | None = None


@dataclass(frozen=True)
class PeriodLimits:
    """Endpoints of a period function: its limits toward zero amplitude and
    toward the upper end of the amplitude range."""

    at_zero: float
    at_upper: float


@dataclass
class ScanResult:
    samples: list[PeriodSample]
    verdict: str
    max_violation: float


def period_sign_changing(
    nu: float,
    rp: ReducedParams,
    nl: Nonlinearity,
    cfg: IntegratorConfig | None = None,
    *,
    method: str = "both",
) -> PeriodSample:
    """Least period of the sign-changing orbit through (0, nu).

    Event timing measures a quarter and multiplies by four. With
    method="both" the quadrature route also integrates the angular time
    element over the same quarter and returns it as ``cross_check``: a
    four-point Gauss-Legendre rule runs on the polar-angle range of every
    step, cut at least every pi/64 rad, and reads w at each node off the
    step's own quartic (its dense output), where Newton finds the node's
    angle; one numpy pass covers all nodes. The rule's own error stays near
    roundoff, so the gap to event timing is the dense output's. A node the
    iteration does not resolve raises IntegrationError.
    """
    require_family("sign-changing", rp)
    if method not in ("event-timing", "both"):
        raise DomainError(f"unknown method {method!r}")
    if nu <= 0.0:
        raise DomainError("need nu > 0")
    # only the quadrature route reads the dense output
    tau_q, traj = integrate_to_section(cartesian_rhs(rp, nl), (0.0, nu), 1e4, cfg,
                                       dense=method == "both")
    period_ev = 4.0 * tau_q
    err_ev = 4.0 * max((cfg or IntegratorConfig()).event_tol,
                       1e-9 * tau_q)
    if method == "event-timing":
        return PeriodSample(nu, period_ev, "event-timing", err_ev)

    # the knots are the step ends, at angles falling from pi/2 to the section;
    # w of theta is held at the section's w below the lowest angle and at 0
    # above the highest. Every piece between knots and grid cuts gets the
    # four-point Gauss rule
    theta = np.arctan2(traj.states[:, 1], traj.states[:, 0])
    if not np.all(np.diff(theta) < 0.0):
        raise IntegrationError(f"the polar angle does not fall along the quarter orbit at nu={nu}")
    n = len(theta) - 1
    knots = np.concatenate(([min(theta[-1], 0.0)], theta[::-1], [max(theta[0], _HALF_PI)]))
    edges = np.union1d(np.clip(knots, 0.0, _HALF_PI), _GAUSS_GRID)
    piece = np.searchsorted(knots, edges[:-1], side="right") - 1
    half = 0.5 * np.diff(edges)
    th = edges[:-1, None] + half[:, None] * (1.0 + _GAUSS_NODES)
    w = np.zeros_like(th)
    w[piece == 0] = traj.states[-1, 0]
    inner = (piece >= 1) & (piece <= n)
    w[inner] = _w_at_angles(traj.dense, theta, n - piece[inner], th[inner], nu)
    hv = nl.h(np.maximum(w, 0.0))
    # tan^2 as 1/cos^2 - 1 and a plain sum: numpy's tan loop and the BLAS
    # behind a matmul would page in about 0.4 MB of code
    cos = np.cos(th)
    pt2 = (rp.p - 1.0) * (1.0 / (cos * cos) - 1.0)
    dtau = (1.0 + pt2) / (pt2 - rp.b + (hv - rp.d) * cos ** (rp.p - 2.0))
    period_quad = 4.0 * float(np.sum(dtau * _GAUSS_WEIGHTS * half[:, None]))
    return PeriodSample(nu, period_ev, "event-timing",
                        max(err_ev, abs(period_ev - period_quad)),
                        cross_check=period_quad)


def _w_at_angles(dense, theta: np.ndarray, step: np.ndarray, th: np.ndarray,
                 nu: float) -> np.ndarray:
    """w where the orbit crosses the angles ``th``, shape (k, 4), row j inside
    step ``step[j]``, whose ends lie at the angles ``theta[step]`` and
    ``theta[step + 1]``: Newton on the step's quartic
    G(x) = sin th w(x) - cos th y(x), from the linear-in-angle guess, kept
    inside the step. Raises IntegrationError where a node is not finite or
    misses its angle by more than _NODE_ANGLE_TOL rad."""
    h = dense.h[step]
    # x at the step's end: 1, but the last step stops at the section
    x_end = (dense.taus[step + 1] - dense.taus[step]) / h
    top = theta[step]
    x = (x_end / (top - theta[step + 1]))[:, None] * (top[:, None] - th)
    h = h[:, None]
    sn, cs = np.sin(th), np.cos(th)
    qw, qy = dense.q[step, 0, :, None], dense.q[step, 1, :, None]
    w0, y0 = dense.starts[step, 0, None], dense.starts[step, 1, None]
    # G / h = g0 + a0 x + a1 x^2 + a2 x^3 + a3 x^4
    g0 = (sn * w0 - cs * y0) / h
    a0, a1, a2, a3 = (sn * qw[:, j] - cs * qy[:, j] for j in range(4))
    for _ in range(_NODE_NEWTON_STEPS):
        dg = a0 + x * (2.0 * a1 + x * (3.0 * a2 + 4.0 * x * a3))
        dx = (g0 + x * (a0 + x * (a1 + x * (a2 + x * a3)))) / dg
        x = x - dx
        if np.max(np.abs(dx)) <= _NODE_X_TOL:
            break
    # a root the quartic finds beyond its step is read at the step's end
    x = np.minimum(np.maximum(x, 0.0), x_end[:, None])
    w = w0 + h * x * (qw[:, 0] + x * (qw[:, 1] + x * (qw[:, 2] + x * qw[:, 3])))
    y = y0 + h * x * (qy[:, 0] + x * (qy[:, 1] + x * (qy[:, 2] + x * qy[:, 3])))
    with np.errstate(invalid="ignore"):
        off = np.abs(sn * w - cs * y) / np.hypot(w, y)
    if not np.all(off <= _NODE_ANGLE_TOL):
        j = np.unravel_index(np.argmax(np.nan_to_num(off, nan=np.inf)), off.shape)
        raise IntegrationError(
            f"quadrature node not resolved at nu={nu}: theta={float(th[j]):.17g} in step "
            f"{int(step[j[0]])}, x={float(x[j]):.17g}, angle residual {float(off[j]):.3g} rad "
            f"(tolerance {_NODE_ANGLE_TOL:g})")
    return w


def period_positive(
    mu: float,
    rp: ReducedParams,
    nl: Nonlinearity,
    cfg: IntegratorConfig | None = None,
) -> PeriodSample:
    """Least period of the positive orbit through (mu, 0), 0 < mu < a.

    These orbits never meet w = 0; reflection symmetry across the w axis
    makes the period twice the upper-half transit time.
    """
    if rp.p <= 1.0:
        raise DomainError("use period_positive_p1 at p = 1")
    require_family("positive", rp)
    a = stationary_abscissa(rp, nl)
    if not 0.0 < mu < a:
        raise DomainError(f"need 0 < mu < a = {a}, got {mu}")
    half, _ = integrate_to_section(cartesian_rhs(rp, nl), (mu, 0.0), 1e4, cfg)
    err = 2.0 * max((cfg or IntegratorConfig()).event_tol, 1e-9 * half)
    return PeriodSample(mu, 2.0 * half, "event-timing", err)


def period_zero_amplitude_limit(rp: ReducedParams) -> float:
    """Zero-amplitude limit of the sign-changing period: finite when b + d < 0
    and d sits below the minimum of the slope potential (if it has one), inf
    wherever the limit diverges (see zero_amplitude_divergent)."""
    require_family("sign-changing", rp)
    if zero_amplitude_divergent(rp):
        return math.inf
    p, b, d = rp.p, rp.b, rp.d
    # as b + d -> 0- the integrand peaks at theta = 0 with height 1/eps0 and
    # width sqrt(eps0/curv); the plain rule steps over a peak narrower than
    # 0.01, so that one gets a break point at every decade of its width up to
    # 0.1, and its height is evaluated without cancelling -b against d cos^(p-2)
    eps0, curv = -(b + d), (p - 1.0) + 0.5 * (p - 2.0) * d
    width = math.sqrt(eps0 / curv) if curv > 0.0 else math.inf
    spots = [width * 10.0**k for k in range(math.ceil(math.log10(0.1 / width)))] \
        if width < 1e-2 else None

    def integrand(th):
        t = math.tan(th)
        if spots:
            den = (p - 1.0) * t * t + eps0 - d * math.expm1(
                0.5 * (p - 2.0) * math.log1p(-math.sin(th) ** 2))
        else:
            den = (p - 1.0) * t * t - b - d * math.cos(th) ** (p - 2.0)
        return (1.0 + (p - 1.0) * t * t) / den

    val, _ = quad(integrand, 0.0, math.pi / 2.0, epsabs=QUAD_ABS_TOL,
                  epsrel=1e-12, limit=400, points=spots)
    return 4.0 * val


def period_zero_amplitude_closed(rp: ReducedParams) -> float:
    """Closed form of the zero-amplitude limit for b < 0, d = 0."""
    p, b = rp.p, rp.b
    if p <= 1.0 or b >= 0.0 or rp.d != 0.0:
        raise DomainError("closed form needs p > 1, b < 0, d = 0")
    gamma = math.sqrt(-b / (p - 1.0))
    return 2.0 * math.pi * ((p - 1.0) * gamma + 1.0) \
        / ((p - 1.0) * gamma * (gamma + 1.0))


# ---------------------------------------------------------------------------
# p = 1 periods via the first integral


def p1_turning_from_amplitude(mu: float, d: float) -> float:
    """Peak transformed slope u* of the b = 1 orbit through (mu, 0)."""
    amp = math.sqrt(max(mu * (2.0 * (d + 1.0) - mu), 0.0))
    s = 1.0 - (amp - d) ** 2
    if not -1e-12 <= s <= 1.0:
        raise DomainError(f"amplitude {mu} outside the admissible interval")
    return math.sqrt(max(s, 0.0))


def _p1_mubar(d: float) -> float:
    """Left amplitude endpoint of the p = 1 positive family: for d > 0 the
    amplitude where the orbit's peak slope reaches |u| = 1, the smaller root
    1 + d - sqrt(1 + 2d) of mu^2 - 2(1 + d) mu + d^2, written without
    cancellation; 0 for d <= 0."""
    if d <= 0.0:
        return 0.0
    return d * d / (1.0 + d + math.sqrt(1.0 + 2.0 * d))


def period_positive_p1(
    mu: float,
    rp: ReducedParams,
    nl: Nonlinearity,
    cfg: IntegratorConfig | None = None,
) -> PeriodSample:
    """Least period of the p = 1 (b = 1) positive orbit through (mu, 0) by
    quadrature of the first integral in its symmetric reduction."""
    if rp.p != 1.0:
        raise DomainError("defined at p = 1")
    require_family("positive", rp)
    d = rp.d
    a = stationary_abscissa(rp, nl)
    mubar = _p1_mubar(d)
    if not mubar < mu < a:
        raise DomainError(f"need mu in ({mubar}, {a}), got {mu}")
    ustar = p1_turning_from_amplitude(mu, d)
    s = ustar * ustar
    root_s = math.sqrt(1.0 - s)

    # after lam = sin(phi) the (1 - lam^2) zero cancels exactly:
    # Psi(s, sin(phi)) = cos(phi)^2 (2d + A + B)/(A + B)
    def integrand(phi):
        a_root = math.sqrt(1.0 - s * math.sin(phi) ** 2)
        return math.sqrt((a_root + root_s) / (2.0 * d + a_root + root_s))

    val, est = quad(integrand, 0.0, math.pi / 2.0, epsabs=P1_QUAD_ABS_TOL,
                    epsrel=1e-12, limit=400)
    return PeriodSample(mu, 4.0 * val, "quadrature", 4.0 * est + 1e-10)


def period_infimum_p1(d: float) -> float:
    """Infimum of the p = 1, b = 1 positive period function for d >= 0.

    Evaluated in the angular form and checked against the equivalent
    slope-variable form (an exact substitution identity).
    """
    if d < 0.0:
        raise DomainError("defined for d >= 0")

    def integrand_theta(th):
        c = math.cos(th)
        return math.sqrt(c / (c + 2.0 * d))

    val, _ = quad(integrand_theta, 0.0, math.pi / 2.0, epsabs=P1_QUAD_ABS_TOL,
                  epsrel=1e-13, limit=400)
    t_theta = 4.0 * val

    # the slope form on u in (0, sqrt(3)/2), then its tail in r = sqrt(1 - u^2)
    # on (0, 1/2), whose integrand turns over at r = 2d
    def integrand_u(u):
        root = math.sqrt(1.0 - u * u)
        return 1.0 / math.sqrt(root * (root + 2.0 * d))

    def integrand_r(r):
        return math.sqrt(r / ((1.0 - r * r) * (r + 2.0 * d)))

    head, _ = quad(integrand_u, 0.0, math.sqrt(0.75), epsabs=P1_QUAD_ABS_TOL,
                   epsrel=1e-13, limit=400)
    tail, _ = quad(integrand_r, 0.0, 0.5, epsabs=P1_QUAD_ABS_TOL, epsrel=1e-13,
                   limit=400, points=[2.0 * d] if 0.0 < 2.0 * d < 0.5 else None)
    t_u = 4.0 * (head + tail)
    if abs(t_u - t_theta) > 1e-9 * max(1.0, t_theta):
        raise DomainError(
            f"slope and angular forms disagree: {t_u} vs {t_theta}")
    return t_theta


def period_limits(rp: ReducedParams, nl: Nonlinearity, kind: str) -> PeriodLimits:
    """Endpoints of the requested period function. Sign-changing: the
    zero-amplitude limit (inf where it diverges) and 0 at large amplitude.
    Positive: inf toward the family's left end (the infimum at p = 1,
    d >= 0) and the small-oscillation period at the center."""
    require_family(kind, rp)
    if kind == "sign-changing":
        return PeriodLimits(period_zero_amplitude_limit(rp), 0.0)
    stiffness = (nl.power + 1.0 - rp.p) * (rp.b + rp.d)
    if not math.isfinite(stiffness):
        raise DomainError(f"(q + 1 - p)(b + d) overflows at b + d = {rp.b + rp.d}")
    small = 2.0 * math.pi / math.sqrt(stiffness)
    if rp.p == 1.0 and rp.d >= 0.0:
        return PeriodLimits(period_infimum_p1(rp.d), small)
    return PeriodLimits(math.inf, small)


def require_family(kind: str, rp: ReducedParams) -> None:
    """Raise DomainError unless ``kind`` names an orbit family that exists
    for rp: sign-changing orbits need p > 1, positive orbits b + d > 0, and
    at p = 1 the periods are those of b = 1, the only b the reduction gives."""
    if kind == "sign-changing":
        if rp.p <= 1.0:
            raise DomainError("sign-changing periods run the p > 1 phase plane")
    elif kind == "positive":
        if rp.b + rp.d <= 0.0:
            raise DomainError("positive orbits need b + d > 0")
        if rp.p == 1.0 and rp.b != 1.0:
            raise DomainError("p = 1 positive periods need b = 1")
    else:
        raise DomainError(f"unknown kind {kind!r}")


def period_sample(
    kind: str,
    amplitude: float,
    rp: ReducedParams,
    nl: Nonlinearity,
    cfg: IntegratorConfig | None = None,
    *,
    method: str = "event-timing",
) -> PeriodSample:
    """Least period of the requested family at one amplitude; ``method``
    selects the sign-changing route."""
    require_family(kind, rp)
    if kind == "sign-changing":
        return period_sign_changing(amplitude, rp, nl, cfg, method=method)
    if rp.p == 1.0:
        return period_positive_p1(amplitude, rp, nl, cfg)
    return period_positive(amplitude, rp, nl, cfg)


def monotonicity(periods: Sequence[float]) -> tuple[str, float]:
    """Verdict on a period sequence with its largest violation: constant to
    1e-8 relative spread, strictly decreasing, strictly increasing, or none."""
    periods = np.asarray(periods, dtype=float)
    diffs = np.diff(periods)
    spread = float(periods.max() - periods.min())
    if spread <= 1e-8 * abs(periods).max():
        return "constant", spread
    if np.all(diffs < 0.0):
        return "decreasing", 0.0
    if np.all(diffs > 0.0):
        return "increasing", 0.0
    return "none", float(np.max(np.abs(diffs)))


def period_scan(
    kind: str,
    amplitudes: Sequence[float],
    rp: ReducedParams,
    nl: Nonlinearity,
    cfg: IntegratorConfig | None = None,
    *,
    method: str = "event-timing",
) -> ScanResult:
    """Evaluate the period on an amplitude grid and report monotonicity;
    the first failing amplitude raises."""
    amplitudes = list(amplitudes)
    if not amplitudes:
        raise DomainError("empty amplitude grid")
    samples = [period_sample(kind, amp, rp, nl, cfg, method=method) for amp in amplitudes]
    verdict, violation = monotonicity([s.period for s in samples])
    return ScanResult(samples, verdict, violation)


def find_amplitude_for_period(
    t_target: float,
    kind: str,
    rp: ReducedParams,
    nl: Nonlinearity,
    cfg: IntegratorConfig | None = None,
    *,
    known: dict[float, float] | None = None,
) -> list[float]:
    """Amplitudes whose least period equals the target, as a one-root list.

    Both period functions fall from their zero-amplitude end (T_0, or inf for
    the positive family) toward the top of the amplitude range (0, or the
    center's small-oscillation period), so an attainable target is bracketed
    by a walk on a fixed lattice: from nu = 1 by nu / 4 or 4 nu
    (sign-changing), from mu = a / 2 by mu / 4 or a - (a - mu) / 4 up to
    1 - mu / a = 1e-6 (positive), toward the end whose period lies on the
    target's side, to the first pair of neighbours that brackets the target.
    brentq polishes the root inside that pair. At p = 1 the two ends of the
    amplitude range bracket the root instead. ``known`` maps amplitudes of
    the family to their periods, T_0 at amplitude 0; every period is read from
    it or computed and added to it, so inversions that share the dict compute
    no period twice, and since the lattice is fixed a root never depends on
    which targets ran before.
    """
    if t_target <= 0.0:
        raise DomainError("need a positive target period")
    require_family(kind, rp)
    known = {} if known is None else known

    def T(amp):
        if amp not in known:
            known[amp] = period_sample(kind, amp, rp, nl, cfg).period
        return known[amp]

    def f(amp):
        return T(amp) - t_target

    if kind == "sign-changing":
        if 0.0 not in known:
            known[0.0] = period_zero_amplitude_limit(rp)
        if t_target >= known[0.0]:
            raise OutOfRangeError("target above the attainable periods",
                                  attained=(0.0, known[0.0]))
        start, top, up = 1.0, math.inf, lambda nu: 4.0 * nu
    else:
        a = stationary_abscissa(rp, nl)
        if rp.p == 1.0:
            if rp.d == 0.0:
                raise DomainError("constant period function: amplitude undetermined")
            mubar = _p1_mubar(rp.d)
            ends = [mubar + 1e-9 * (a - mubar), a * (1.0 - 1e-9)]
            lo_v, hi_v = sorted(T(mu) for mu in ends)
            if not lo_v <= t_target <= hi_v:
                raise OutOfRangeError("target outside the attainable periods",
                                      attained=(lo_v, hi_v))
            return [brentq(f, ends[0], ends[1], xtol=1e-13)]
        # closer to the center than 1e-6 a, T - T_center sinks below the error
        # of event timing
        start, top, up = 0.5 * a, a * (1.0 - 1e-6), lambda mu: a - 0.25 * (a - mu)

    # the period falls toward the top, so a period above the target steps up
    walk = [start]
    step = up if f(start) > 0.0 else (lambda amp: 0.25 * amp)
    while f(walk[0]) * f(walk[-1]) > 0.0:
        nxt = step(walk[-1])
        if len(walk) > 60 or nxt >= top:
            seen = [T(x) for x in walk]
            raise OutOfRangeError("target outside the walked periods",
                                  attained=(min(seen), max(seen)))
        walk.append(nxt)
    if f(walk[-1]) == 0.0:
        return [walk[-1]]
    lo, hi = sorted(walk[-2:])
    if kind == "sign-changing":
        return [brentq(f, lo, hi, xtol=1e-12, rtol=1e-12)]
    # relative accuracy near mu -> 0, where the period is steepest
    return [brentq(f, lo, hi, xtol=1e-12 * min(1.0, lo))]


# ---------------------------------------------------------------------------
# mode ranges: mode k has the reduced period 2 pi scale / k, with scale =
# angular_time_scale(p, q), and exists where that period lies in the period range


def mode_threshold(params: ProblemParams) -> float:
    """Lower mode threshold 2 pi beta / T_0 for sign-changing profiles when
    b + d <= 0 (c <= c_q), with T_0 the zero-amplitude period limit; 0 where
    T_0 diverges, c = c_q included."""
    if params.p <= 1.0:
        raise DomainError("mode threshold is defined for p > 1")
    rp = reduce_params(params)
    if rp.b + rp.d > 0.0:
        raise DomainError(f"mode threshold needs c <= c_q, got b + d = {rp.b + rp.d} > 0")
    return mode_bounds(params).mode_threshold


# above 2**53 consecutive integers are no longer distinct floats; a ModeBounds
# lists at most _MAX_POSITIVE_MODES positive modes, each a profile to build
_EXACT_INTEGERS, _MAX_POSITIVE_MODES = 2.0 ** 53, 10**5


def _snap(x: float) -> float:
    r = round(x)
    return float(r) if abs(x - r) < 1e-9 else x


def _largest_int_below(x: float) -> int:
    return math.ceil(_snap(x)) - 1


def _smallest_int_above(x: float) -> int:
    return math.floor(_snap(x)) + 1


@dataclass(frozen=True)
class ModeBounds:
    """Integer mode ranges for sign-changing and positive profiles."""

    k_sign_changing_min: int | None
    positive_modes: tuple[int, ...]
    positive_nonconstant_exists: bool
    mode_threshold: float | None
    notes: dict
    # T_0 where the threshold was read from it (b + d <= 0), for the
    # sign-changing inversion
    zero_limit: float | None


def mode_bounds(params: ProblemParams) -> ModeBounds:
    """Admissible integer modes k (profiles of least angular period 2 pi / k):
    positive modes lie strictly between the images of the two endpoints of
    the positive period function."""
    p, q, c = params.p, params.q, params.c
    rp = reduce_params(params)
    notes: dict = {}
    mq = t0 = None
    scale = angular_time_scale(p, q)
    if p > 1.0:
        if rp.b + rp.d <= 0.0:
            t0 = period_zero_amplitude_limit(rp)
            mq = 2.0 * math.pi * scale / t0
        k_sc = 1 if mq is None else _smallest_int_above(mq)
        notes["positive_mode_cap"] = "largest integer strictly below sqrt(p beta^(1-p)(c - c_q))"
    else:
        k_sc = 1 if (c == 0.0 and q <= 1.0) else None
    if rp.b + rp.d <= 0.0:
        return ModeBounds(k_sc, (), False, mq, notes, t0)
    lims = period_limits(rp, reduced_nonlinearity(params), "positive")
    lower, upper = sorted(2.0 * math.pi * scale / t
                          for t in (lims.at_zero, lims.at_upper))
    if upper > _EXACT_INTEGERS:
        raise DomainError(f"positive modes reach {upper:.3g}, beyond the exactly "
                          "represented integers")
    first, last = _smallest_int_above(lower), _largest_int_below(upper)
    if last - first + 1 > _MAX_POSITIVE_MODES:
        raise DomainError(f"{last - first + 1} positive modes, k = {first} to {last}, "
                          f"exceed the {_MAX_POSITIVE_MODES} that a mode list holds")
    positive = tuple(range(first, last + 1))
    if p == 1.0 and c > 0.0:
        notes["period_derived_bounds"] = (lower, upper)
        # alternative literal reading of the printed bounds, kept for traceability
        notes["literal_reading"] = {
            "k2_largest_below_sqrt_c_plus_1": _largest_int_below(lower),
            "k1_smallest_above_half_pi_times_integral": _smallest_int_above(
                math.pi * lims.at_zero / 8.0),
        }
    return ModeBounds(k_sc, positive, bool(positive), mq, notes, t0)
