"""Period functions of the closed orbits and their closed-form limits.

Sign-changing periods come from quarter-orbit event timing, cross-checked by
a quadrature of the polar time element over the orbit itself; positive
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
from .integrate import IntegratorConfig, Trajectory, integrate_to_section
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
# a step may go to the radial time element where its log radius changes more
# than _RADIAL_LEAD times as much as its polar angle; there it is cut once
# for every _LOG_R_SPEED_CUT by which the log of the radial speed changes.
# On period-scan seeds 1, 5 and 10 the leads 2 and 3 left route gaps of at
# most 7.9e-9, and 5 of 2.1e-8
_RADIAL_LEAD = 3.0
_LOG_R_SPEED_CUT = 0.125
_NO_PIECES = (np.zeros(0, dtype=int), np.zeros((0, 4)), np.zeros(0))


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
    method="both" the quadrature route also integrates the time element of
    the polar form over the same quarter and returns it as ``cross_check``:
    over the polar angle, but over the log radius where the orbit runs out
    along a ray (_quarter_quadrature). It reads the orbit off the dense
    output of the same run, so the period is the event-timing one bit for
    bit.
    """
    require_family("sign-changing", rp)
    if method not in ("event-timing", "both"):
        raise DomainError(f"unknown method {method!r}")
    if nu <= 0.0:
        raise DomainError("need nu > 0")
    # only the quadrature route reads the dense output; the steps, and so the
    # event-timing period, are the same without it
    tau_q, traj = integrate_to_section(cartesian_rhs(rp, nl), (0.0, nu), 1e4, cfg,
                                       dense=method == "both")
    period_ev = 4.0 * tau_q
    err_ev = 4.0 * max((cfg or IntegratorConfig()).event_tol, 1e-9 * tau_q)
    if method == "event-timing":
        return PeriodSample(nu, period_ev, "event-timing", err_ev)
    period_quad = 4.0 * _quarter_quadrature(nu, traj, rp, nl)
    return PeriodSample(nu, period_ev, "event-timing", max(err_ev, abs(period_ev - period_quad)),
                        cross_check=period_quad)


def _quarter_quadrature(nu: float, traj: Trajectory, rp: ReducedParams,
                        nl: Nonlinearity) -> float:
    """The quadrature route's quarter time of the run ``traj`` from (0, nu),
    read off its dense output.

    A four-point Gauss-Legendre rule runs on the polar-angle range of every
    step, cut at least every pi/64 rad, and reads w at each node off the
    step's own polynomial, where Newton finds the node's angle
    (_w_at_angles). A step along which the orbit runs out more than it
    turns is integrated over its log radius instead (_quadrature_pieces).
    One numpy pass covers all nodes of each kind; a node the iteration does
    not resolve raises IntegrationError.
    """
    (theta, log_r), (lo, hi, step, held), (r_step, rho, r_half) = \
        _quadrature_pieces(nu, traj, rp, nl)
    # angular pieces: w at the nodes, held at the section's w below the
    # lowest angle and at 0 above the highest
    half = 0.5 * (hi - lo)
    th = lo[:, None] + half[:, None] * (1.0 + _GAUSS_NODES)
    w = np.zeros_like(th)
    w[held] = traj.states[-1, 0]
    inner = step >= 0
    if inner.any():
        w[inner] = _w_at_angles(traj.dense, theta, step[inner], th[inner], nu)
    hv = nl.h(np.maximum(w, 0.0))
    # tan^2 as 1/cos^2 - 1 and a plain sum: numpy's tan loop and the BLAS
    # behind a matmul would page in about 0.4 MB of code
    cos = np.cos(th)
    pt2 = (rp.p - 1.0) * (1.0 / (cos * cos) - 1.0)
    dtau = (1.0 + pt2) / (pt2 - rp.b + (hv - rp.d) * cos ** (rp.p - 2.0))
    quarter = float(np.sum(dtau * _GAUSS_WEIGHTS * half[:, None]))
    if len(r_step):
        # radial pieces: the nodes' states, and 1 / R there
        w, y = _states_at_radii(traj.dense, log_r, r_step, rho, nu)
        speed, _ = _radial_speed(w, y, np.exp(rho), rp, nl)
        quarter += float(np.sum(_GAUSS_WEIGHTS / speed * r_half[:, None]))
    return quarter


def _quadrature_pieces(nu: float, traj: Trajectory, rp: ReducedParams, nl: Nonlinearity):
    """The quadrature pieces of one run: its knots' angles and log radii;
    its angular pieces' ends (lo, hi), step (-1 outside the steps) and
    whether w is held at the section's w there (below the lowest angle); and
    its radial pieces (_radial_pieces). Raises IntegrationError where the
    polar angle does not fall along the run."""
    # the knots are the step ends, the last one read off the last step's
    # polynomial: a landing on the section lies off it by the interpolant's
    # error, and the nodes are found on the polynomials
    dense, knots = traj.dense, traj.states.copy()
    x_end = (traj.taus[-1] - traj.taus[-2]) / dense.h[-1]
    knots[-1] = dense.starts[-1] + dense.h[-1] * x_end * _horner(dense.q[-1].T, x_end)
    theta = np.arctan2(knots[:, 1], knots[:, 0])
    if not np.all(np.diff(theta) < 0.0):
        raise IntegrationError(f"the polar angle does not fall along the quarter orbit at nu={nu}")
    log_r = np.log(np.hypot(knots[:, 0], knots[:, 1]))
    # a radial step lies off the axes, where the radial speed vanishes, and
    # keeps the sign of that speed. At both ends the log of the speed changes
    # along the circle by less than the lead per radian, so an error in the
    # angle moves 1/R less than it moves the angle's element: near w = 0 at
    # p < 2, cos^(p-2) makes the radial element the worse one
    inside = (theta > 0.0) & (theta < _HALF_PI)
    lead = np.abs(np.diff(log_r)) / -np.diff(theta)
    steps = np.flatnonzero(inside[:-1] & inside[1:] & (lead > _RADIAL_LEAD))
    if len(steps):
        ends = np.stack((steps, steps + 1))
        speed, slope = _radial_speed(knots[ends, 0], knots[ends, 1], np.exp(log_r[ends]), rp, nl)
        radial = (speed[0] * speed[1] > 0.0) & np.all(np.abs(slope) < lead[steps], axis=0)
        steps, speed = steps[radial], speed[:, radial]
    # the angular knots run from pi/2 down to the section, between the ends
    # of the range; every piece between knots and grid cuts gets the
    # four-point Gauss rule, but those inside radial steps
    n = len(theta) - 1
    angles = np.concatenate(([min(theta[-1], 0.0)], theta[::-1], [max(theta[0], _HALF_PI)]))
    edges = np.union1d(np.clip(angles, 0.0, _HALF_PI), _GAUSS_GRID)
    lo, hi = edges[:-1], edges[1:]
    step = n - (np.searchsorted(angles, lo, side="right") - 1)
    held = step == n
    step[held | (step < 0)] = -1
    if not len(steps):
        return (theta, log_r), (lo, hi, step, held), _NO_PIECES
    keep = (step < 0) | ~np.isin(step, steps)
    return ((theta, log_r), (lo[keep], hi[keep], step[keep], held[keep]),
            _radial_pieces(log_r, steps, speed))


def _radial_pieces(log_r: np.ndarray, steps: np.ndarray, speed: np.ndarray):
    """The pieces of the radial ``steps``, whose ends have the radial speeds
    ``speed``: each step is cut into equal pieces of log radius, one more
    for every _LOG_R_SPEED_CUT by which the log of the speed changes between
    its ends. Their steps, four Gauss nodes in log radius each and half
    widths."""
    cuts = 1 + np.floor(np.abs(np.log(speed[1] / speed[0])) / _LOG_R_SPEED_CUT).astype(int)
    step = np.repeat(steps, cuts)
    width = np.repeat((log_r[steps + 1] - log_r[steps]) / cuts, cuts)
    j = np.arange(len(step)) - np.repeat(np.cumsum(cuts) - cuts, cuts)
    half = 0.5 * width
    return step, (log_r[step] + j * width)[:, None] + half[:, None] * (1.0 + _GAUSS_NODES), half


def _radial_speed(w: np.ndarray, y: np.ndarray, r: np.ndarray, rp: ReducedParams,
                  nl: Nonlinearity) -> tuple[np.ndarray, np.ndarray]:
    """R = d(log r)/dtau at (w, y) off the axes on the circle of radius r, from
    the polar form, and d log R / dtheta along that circle. With
    g = (h(w) - d) cos^(p-2) and h(w) = w^(q+1-p),
    R = tan (1 + b - g) / (1 + (p-1) tan^2)."""
    p, b, d = rp.p, rp.b, rp.d
    cos, sin, tan = w / r, y / r, y / w
    pt2 = (p - 1.0) * tan * tan
    hv = nl.h(w)
    g = (hv - d) * cos ** (p - 2.0)
    dg = -sin * cos ** (p - 3.0) * ((nl.power + 1.0 - p) * hv + (p - 2.0) * (hv - d))
    # a knot where R is 0 has an infinite slope and is not radial
    with np.errstate(divide="ignore", invalid="ignore"):
        return (tan * (1.0 + b - g) / (1.0 + pt2),
                (1.0 + tan * tan) * (1.0 - pt2) / (tan * (1.0 + pt2)) - dg / (1.0 + b - g))


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """coeffs[0] + x (coeffs[1] + x (... + x coeffs[-1])), the coefficients
    along the first axis."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = c + x * acc
    return acc


def _horner_slope(coeffs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_horner's polynomial and its derivative in x, in one pass."""
    acc, slope = coeffs[-1], 0.0
    for c in coeffs[-2::-1]:
        slope = acc + x * slope
        acc = c + x * acc
    return acc, slope


def _step_polynomials(dense, step: np.ndarray):
    """The start, the size h, x at the end (1, but the last step stops at
    the section) and the coefficients C of each step in ``step``, shaped
    against rows of nodes: the state at x is start + h x (C[0] + C[1] x +
    ... + C[n-1] x^(n-1)), C of shape (n, 2, k, 1), start of shape
    (2, k, 1)."""
    h = dense.h[step]
    x_end = (dense.taus[step + 1] - dense.taus[step]) / h
    coeffs = dense.q[step].transpose(2, 1, 0)[..., None]
    return dense.starts[step].T[..., None], h[:, None], x_end[:, None], coeffs


def _newton(residual, x: np.ndarray, x_end: np.ndarray) -> np.ndarray:
    """Newton's iteration on rows of nodes, x <- x - dx with (value, slope)
    = residual(x), at most _NODE_NEWTON_STEPS times and ended once no node
    moves by more than _NODE_X_TOL. The result is kept inside its step,
    [0, x_end]."""
    for _ in range(_NODE_NEWTON_STEPS):
        value, slope = residual(x)
        dx = value / slope
        x = x - dx
        if np.max(np.abs(dx)) <= _NODE_X_TOL:
            break
    # a root the polynomial finds beyond its step is read at the step's end
    return np.minimum(np.maximum(x, 0.0), x_end)


def _w_at_angles(dense, theta: np.ndarray, step: np.ndarray, th: np.ndarray,
                 nu: float) -> np.ndarray:
    """w where the orbit crosses the angles ``th``, shape (k, 4), row j inside
    step ``step[j]``, whose ends lie at the angles ``theta[step]`` and
    ``theta[step + 1]``: Newton on the step's polynomial, of any degree,
    G(x) = sin th w(x) - cos th y(x), from the linear-in-angle guess. Raises
    IntegrationError where a node is not finite or misses its angle by more
    than _NODE_ANGLE_TOL rad."""
    start, h, x_end, coeffs = _step_polynomials(dense, step)
    top = theta[step, None]
    sn, cs = np.sin(th), np.cos(th)
    # G / h = g[0] + g[1] x + ... + g[n] x^n
    g = np.empty((len(coeffs) + 1,) + th.shape)
    g[0] = (sn * start[0] - cs * start[1]) / h
    np.multiply(sn, coeffs[:, 0], out=g[1:])
    g[1:] -= cs * coeffs[:, 1]
    x = _newton(lambda x: _horner_slope(g, x),
                x_end / (top - theta[step + 1, None]) * (top - th), x_end)
    w, y = start + h * x * _horner(coeffs, x)
    with np.errstate(invalid="ignore"):
        off = np.abs(sn * w - cs * y) / np.hypot(w, y)
    _check_nodes(nu, step, x, off, "theta", th, " rad")
    return w


def _states_at_radii(dense, log_r: np.ndarray, step: np.ndarray, rho: np.ndarray,
                     nu: float) -> tuple[np.ndarray, np.ndarray]:
    """(w, y) where the orbit crosses the log radii ``rho``, shape (k, 4), row
    j inside step ``step[j]``, whose ends lie at ``log_r[step]`` and
    ``log_r[step + 1]``: Newton on the step's polynomial for
    log |s(x)| = rho, from the linear-in-log-radius guess. A node that
    misses its log radius by more than _NODE_ANGLE_TOL raises
    IntegrationError."""
    start, h, x_end, coeffs = _step_polynomials(dense, step)
    low = log_r[step, None]

    # the state start + h x P(x) and its slope h (P + x P')
    def residual(x):
        poly, slope = _horner_slope(coeffs, x)
        (w, y), (dw, dy) = start + h * x * poly, h * (poly + x * slope)
        r2 = w * w + y * y
        return (0.5 * np.log(r2) - rho) * r2, w * dw + y * dy

    with np.errstate(invalid="ignore", divide="ignore"):
        x = _newton(residual, x_end / (log_r[step + 1, None] - low) * (rho - low), x_end)
        w, y = start + h * x * _horner(coeffs, x)
        off = np.abs(0.5 * np.log(w * w + y * y) - rho)
    _check_nodes(nu, step, x, off, "log r", rho, "")
    return w, y


def _check_nodes(nu: float, step: np.ndarray, x: np.ndarray, off: np.ndarray,
                 name: str, value: np.ndarray, unit: str) -> None:
    """Raise IntegrationError where a node's residual ``off`` is not finite
    or exceeds _NODE_ANGLE_TOL, naming the worst node by its ``name`` and
    ``value``."""
    if np.all(off <= _NODE_ANGLE_TOL):
        return
    j = np.unravel_index(np.argmax(np.nan_to_num(off, nan=np.inf)), off.shape)
    raise IntegrationError(
        f"quadrature node not resolved at nu={nu}: {name}={float(value[j]):.17g} in step "
        f"{int(step[j[0]])}, x={float(x[j]):.17g}, {name} residual {float(off[j]):.3g}{unit} "
        f"(tolerance {_NODE_ANGLE_TOL:g})")


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
