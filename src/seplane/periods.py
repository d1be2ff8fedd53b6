"""Period functions of the closed orbits and their closed-form limits.

Sign-changing periods come from quarter-orbit event timing, cross-checked by
a second run of the quarter with the polar angle as the clock; positive
periods from half-orbit timing; the p = 1 periods from the first-integral
quadratures. The integer mode ranges are read off the endpoints of these
period functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, IntegrationError, OutOfRangeError
from .fields import cartesian_rhs
from .integrate import IntegratorConfig, StageRejected, integrate_to_end, integrate_to_section
from .numerics import brent as brentq
from .numerics import tanh_sinh
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
_QUARTER_PI = math.pi / 4.0


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
    method="both" a second run steps the quarter with the polar angle as the
    clock (_polar_clock) and returns four times its time as ``cross_check``;
    the runs share no step, so their gap sees the global error of both.
    """
    require_family("sign-changing", rp)
    if method not in ("event-timing", "both"):
        raise DomainError(f"unknown method {method!r}")
    nu = float(nu)   # a numpy scalar would slow every stage of the polar-angle run
    if nu <= 0.0:
        raise DomainError("need nu > 0")
    tau_q, _ = integrate_to_section(cartesian_rhs(rp, nl), (0.0, nu), 1e4, cfg)
    period_ev = 4.0 * tau_q
    err_ev = 4.0 * max((cfg or IntegratorConfig()).event_tol, 1e-9 * tau_q)
    if method == "event-timing":
        return PeriodSample(nu, period_ev, "event-timing", err_ev)
    try:
        _, quarter = integrate_to_end(_polar_clock(nu, rp, nl), (1.0, 0.0), (_HALF_PI, 0.0),
                                      cfg, var="theta")
    except IntegrationError as exc:
        raise type(exc)(f"the polar-angle run of the quarter orbit failed at nu={nu}: "
                        f"{exc}") from exc
    period_theta = 4.0 * quarter
    return PeriodSample(nu, period_ev, "event-timing", max(err_ev, abs(period_ev - period_theta)),
                        cross_check=period_theta)


def _polar_clock(nu: float, rp: ReducedParams, nl: Nonlinearity):
    """rhs(theta, (x, tau)) of the quarter orbit from (0, nu), x = rho / nu,
    with the polar angle as the clock: Henon's change of variable (Physica D
    5, 1982) over the whole quarter, from (1, 0) at theta = pi/2 to theta = 0.
    With c, s = cos theta, sin theta, h = h(nu x c) and
    n = b c^2 - (p-1) s^2 + (d - h) c^p, the polar form gives
    dtau/dtheta = (c^2 + (p-1) s^2) / n and
    dx/dtheta = x ((1+b) c + (d - h) c^(p-1)) s / n, both finite at pi/2. A
    stage where the angle does not fall (n >= 0) or x <= 0 is rejected.
    """
    pm1, b, b1, d, e = rp.p - 1.0, rp.b, 1.0 + rp.b, rp.d, nl.power + 1.0 - nl.p

    def rhs(theta, state):
        x = state[0]
        if not x > 0.0:
            raise StageRejected
        c, s = math.cos(theta), math.sin(theta)
        cpm1 = c ** pm1
        g = d - (nu * x * c) ** e
        n = b * c * c - pm1 * s * s + g * cpm1 * c
        if not n < 0.0:
            raise StageRejected
        return x * (b1 * c + g * cpm1) * s / n, (c * c + pm1 * s * s) / n

    return rhs


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
    # the denominator (p - 1) tan^2 - b - d cos^(p-2), as eps0 + (p - 1) tan^2
    # - d (cos^(p-2) - 1), never cancels -b against d cos^(p-2) at any width of
    # the peak at theta = 0 (height 1/eps0, width sqrt(eps0/curv)); spots only
    # adds break points: a peak narrower than 0.01 gets one at every decade of
    # its width up to 0.1. log cos^2 is log1p(-sin^2) below pi/4, free of
    # cancellation there, and 2 log cos above, where sin^2 rounds to 1 at the
    # rule's nodes next to pi/2
    eps0, curv = -(b + d), (p - 1.0) + 0.5 * (p - 2.0) * d
    width = math.sqrt(eps0 / curv) if curv > 0.0 else math.inf
    spots = [width * 10.0**k for k in range(math.ceil(math.log10(0.1 / width)))] \
        if width < 1e-2 else None

    def integrand(th):
        t = math.tan(th)
        log_cos2 = math.log1p(-math.sin(th) ** 2) if th < _QUARTER_PI \
            else 2.0 * math.log(math.cos(th))
        den = (p - 1.0) * t * t + eps0 - d * math.expm1(0.5 * (p - 2.0) * log_cos2)
        return (1.0 + (p - 1.0) * t * t) / den

    val, _ = tanh_sinh(integrand, 0.0, _HALF_PI, QUAD_ABS_TOL, 1e-12, points=spots)
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

    val, est = tanh_sinh(integrand, 0.0, _HALF_PI, P1_QUAD_ABS_TOL, 1e-12)
    return PeriodSample(mu, 4.0 * val, "quadrature", 4.0 * est + 1e-10)


def period_infimum_p1(d: float) -> float:
    """Infimum of the p = 1, b = 1 positive period function for d >= 0.

    Evaluated in the angular form and checked against the equivalent
    slope-variable form (an exact substitution identity); a disagreement of
    the two quadratures raises IntegrationError.
    """
    if d < 0.0:
        raise DomainError("defined for d >= 0")

    def integrand_theta(th):
        c = math.cos(th)
        return math.sqrt(c / (c + 2.0 * d))

    val, _ = tanh_sinh(integrand_theta, 0.0, _HALF_PI, P1_QUAD_ABS_TOL, 1e-13)
    t_theta = 4.0 * val

    # the slope form on u in (0, sqrt(3)/2), then its tail in r = sqrt(1 - u^2)
    # on (0, 1/2), whose integrand turns over at r = 2d
    def integrand_u(u):
        root = math.sqrt(1.0 - u * u)
        return 1.0 / math.sqrt(root * (root + 2.0 * d))

    def integrand_r(r):
        return math.sqrt(r / ((1.0 - r * r) * (r + 2.0 * d)))

    head, _ = tanh_sinh(integrand_u, 0.0, math.sqrt(0.75), P1_QUAD_ABS_TOL, 1e-13)
    tail, _ = tanh_sinh(integrand_r, 0.0, 0.5, P1_QUAD_ABS_TOL, 1e-13, points=[2.0 * d])
    t_u = 4.0 * (head + tail)
    if abs(t_u - t_theta) > 1e-9 * max(1.0, t_theta):
        raise IntegrationError(
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
    """Verdict on a period sequence and its violation: constant to 1e-8 relative
    spread (the spread), strictly decreasing or increasing (0), or none (the
    smaller of the largest rise and fall, 0 where only flat steps break it)."""
    periods = np.asarray(periods, dtype=float)
    diffs = np.diff(periods)
    spread = float(periods.max() - periods.min())
    if spread <= 1e-8 * abs(periods).max():
        return "constant", spread
    if np.all(diffs < 0.0):
        return "decreasing", 0.0
    if np.all(diffs > 0.0):
        return "increasing", 0.0
    return "none", float(min(max(diffs.max(), 0.0), max(-diffs.min(), 0.0)))


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
