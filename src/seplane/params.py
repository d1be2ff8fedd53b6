"""Scalar constants, canonical reductions, and slope-chart functions.

Everything here is a pure evaluation: the exponents and thresholds derived
from a problem triple (p, q, c), the reduced coefficients (b, d) of the
autonomous profile equation, and the strictly monotone functions that drive
the slope-chart dynamics.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError

__all__ = [
    "ProblemParams",
    "ReducedParams",
    "Nonlinearity",
    "decay_exponent",
    "angular_time_scale",
    "angular_eigenvalue",
    "critical_potential",
    "reduce_params",
    "reduced_nonlinearity",
    "lift_profile",
    "slope_potential",
    "slope_potential_min",
    "origin_slope",
    "degenerate_critical",
    "zero_amplitude_divergent",
    "invert_slope_potential",
    "slope_map",
    "slope_map_deriv",
    "slope_map_inv",
    "slope_map_primitive",
    "damping_coefficient",
    "mode_threshold_zero_c",
    "odd_power",
    "stationary_abscissa",
]

# |d - min E| below this is the degenerate critical regime, which is refused
DEGENERATE_BAND = 1e-10


def odd_power(s, e):
    """sign(s) * |s|**e, the odd extension of the power; 0 at 0 for e > 0.

    A nonzero float (numpy float64 included) takes a scalar fast path,
    tested with two comparisons that a nan fails, whose result equals the
    array path's bit for bit; zero, nan, an overflowing power and arrays
    take the array path.
    """
    if isinstance(s, float) and (s > 0.0 or s < 0.0):
        try:
            return math.copysign(abs(float(s)) ** float(e), s)
        except OverflowError:
            pass
    s = np.asarray(s, dtype=float)
    out = np.sign(s) * np.abs(s) ** e
    if out.ndim == 0:
        return float(out)
    return out


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def decay_exponent(p: float, q: float) -> float:
    """Radial decay exponent p/(q+1-p) of the separable ansatz; positive."""
    _require(q > p - 1.0, f"need q > p - 1, got p={p}, q={q}")
    return p / (q + 1.0 - p)


def angular_time_scale(p: float, q: float) -> float:
    """Reduced time per unit angle: beta for p > 1, 1 at p = 1."""
    return decay_exponent(p, q) if p > 1.0 else 1.0


def angular_eigenvalue(p: float, q: float) -> float:
    """Coefficient of the degenerate linear term in the profile equation."""
    beta = decay_exponent(p, q)
    return beta * (q * beta - 2.0)


def critical_potential(p: float, q: float) -> float:
    """Potential threshold: nonzero constant profiles exist iff c exceeds it."""
    _require(q > p - 1.0, f"need q > p - 1, got p={p}, q={q}")
    return p ** (p - 1.0) * ((p - 2.0) * q + 2.0 * (p - 1.0)) / (q + 1.0 - p) ** p


@dataclass(frozen=True)
class ProblemParams:
    """User-facing triple (p, q, c) of the quasilinear equation."""

    p: float
    q: float
    c: float = 0.0

    def __post_init__(self):
        for name in ("p", "q", "c"):
            _require(math.isfinite(getattr(self, name)), f"{name} must be finite")
        _require(self.p >= 1.0, f"need p >= 1, got {self.p}")
        _require(self.q > self.p - 1.0, f"need q > p - 1, got p={self.p}, q={self.q}")


@dataclass(frozen=True)
class ReducedParams:
    """Coefficients (p, q, b, d) of the canonical autonomous profile equation."""

    p: float
    q: float
    b: float
    d: float

    def __post_init__(self):
        for name in ("p", "q", "b", "d"):
            _require(math.isfinite(getattr(self, name)), f"{name} must be finite")
        _require(self.p >= 1.0, f"need p >= 1, got {self.p}")
        _require(self.q > self.p - 1.0, f"need q > p - 1, got p={self.p}, q={self.q}")


@dataclass(frozen=True)
class Nonlinearity:
    """The pure power source f(s) = |s|^(q-1) s, q = ``power``, with its
    antiderivative F (F(0) = 0), the ratio h(s) = f(s)/|s|^(p-2)s, and the
    inverse of h on (0, inf)."""

    p: float
    power: float

    def __post_init__(self):
        _require(self.power > self.p - 1.0,
                 f"need q > p - 1, got p={self.p}, q={self.power}")

    def f(self, s):
        return odd_power(s, self.power)

    def F(self, s):
        return abs(s) ** (self.power + 1.0) / (self.power + 1.0)

    def h(self, s):
        return odd_power(s, self.power + 1.0 - self.p)

    def h_inverse(self, t):
        return odd_power(t, 1.0 / (self.power + 1.0 - self.p))


def reduce_params(params: ProblemParams) -> ReducedParams:
    """Canonical reduced coefficients (b, d); b + d > 0 iff c exceeds the
    critical potential."""
    p, q, c = params.p, params.q, params.c
    if p == 1.0:
        return ReducedParams(p=1.0, q=q, b=1.0, d=c)
    beta = decay_exponent(p, q)
    lam = angular_eigenvalue(p, q)
    return ReducedParams(p=p, q=q, b=-lam / beta**2, d=c / beta**p)


def reduced_nonlinearity(params: ProblemParams) -> Nonlinearity:
    """Source term of the reduced equation; at p = 1 the reduction
    normalizes the power to the identity."""
    if params.p == 1.0:
        return Nonlinearity(1.0, 1.0)
    return Nonlinearity(params.p, params.q)


def stationary_abscissa(rp: ReducedParams, nl: Nonlinearity) -> float:
    """Abscissa a = h^{-1}(b+d) of the phase-plane center; requires b+d > 0."""
    _require(rp.b + rp.d > 0.0, "no stationary point when b + d <= 0")
    return nl.h_inverse(rp.b + rp.d)


def lift_profile(tau, w, params: ProblemParams):
    """Map a sampled reduced profile w(tau) to the angular profile omega(sigma)
    point by point: sigma = tau / angular_time_scale, omega = beta^beta w for p > 1."""
    tau = np.asarray(tau, dtype=float)
    w = np.asarray(w, dtype=float)
    if tau.shape != w.shape:
        raise DomainError("tau and w grids must have matching shapes")
    p, q = params.p, params.q
    scale = angular_time_scale(p, q)
    # at p = 1, beta q = 1, so omega = |w|^(1/q - 1) w
    omega = odd_power(w, 1.0 / q) if p == 1.0 else scale**scale * w
    return tau / scale, omega


def slope_potential(xi, p: float, b: float):
    """((p-1) xi^2 - b)(1 + xi^2)^(p/2 - 1); its roots are the slopes of
    orbits entering the origin."""
    if isinstance(xi, float):
        try:
            return ((p - 1.0) * xi * xi - b) * (1.0 + xi * xi) ** (p / 2.0 - 1.0)
        except OverflowError:
            pass
    xi = np.asarray(xi, dtype=float)
    val = ((p - 1.0) * xi**2 - b) * (1.0 + xi**2) ** (p / 2.0 - 1.0)
    return float(val) if val.ndim == 0 else val


def slope_potential_min(p: float, b: float) -> tuple[float, float] | None:
    """Interior minimum (eta, value) of the slope potential, or None when
    the function is increasing on (0, inf)."""
    _require(p > 1.0, "interior minimum is defined for p > 1 only")
    gap = (p - 2.0) * b - 2.0 * (p - 1.0)
    if gap <= 0.0:
        return None
    eta = math.sqrt(gap / (p * (p - 1.0)))
    emin = -(2.0 * (p - 1.0) / (p - 2.0)) \
        * ((p - 2.0) * (b + p - 1.0) / (p * (p - 1.0))) ** (p / 2.0)
    return eta, emin


def origin_slope(rp: ReducedParams) -> float | None:
    """Slope m of the orbits entering the origin: the root of E(m) = d on the
    increasing branch of the slope potential E, or None when d sits at or
    below its minimum (or at or below E(0) = -b when E is increasing)."""
    p, b, d = rp.p, rp.b, rp.d
    mn = slope_potential_min(p, b)
    if b + d > 0.0 or (mn is not None and mn[1] < d <= -b):
        return invert_slope_potential(d, p, b)
    return None


def degenerate_critical(rp: ReducedParams) -> tuple[float, float] | None:
    """Interior minimum (eta, value) of the slope potential when d lies
    within DEGENERATE_BAND of its value, else None; None at p = 1."""
    if rp.p <= 1.0:
        return None
    mn = slope_potential_min(rp.p, rp.b)
    if mn is not None and abs(rp.d - mn[1]) < DEGENERATE_BAND:
        return mn
    return None


def zero_amplitude_divergent(rp: ReducedParams) -> bool:
    """Whether the sign-changing period diverges as the amplitude goes to 0:
    b + d >= 0 when the slope potential is increasing, d >= its minimum
    otherwise."""
    mn = slope_potential_min(rp.p, rp.b)
    return rp.b + rp.d >= 0.0 if mn is None else rp.d >= mn[1]


def invert_slope_potential(value: float, p: float, b: float) -> float:
    """Root of the slope potential on its increasing branch (xi > eta when an
    interior minimum exists), accurate in relative terms: it solves
    E(xi) + b = value + b with E + b = (p-1) xi^2 s - b (s - 1),
    s = (1 + xi^2)^(p/2 - 1), formed with log1p and expm1, so that nothing
    cancels at small roots."""
    mn = slope_potential_min(p, b) if p > 1.0 else None
    lo = mn[0] if mn is not None else 0.0
    floor = mn[1] if mn is not None else slope_potential(0.0, p, b)
    if value < floor - 1e-13 * (1.0 + abs(floor)):
        raise DomainError(f"value {value} below the minimum {floor} of the slope potential")
    if value <= floor:
        return lo
    k = p / 2.0 - 1.0

    def shifted(x):
        try:
            if x * x < math.inf:
                lg = k * math.log1p(x * x)
                return (p - 1.0) * x * x * math.exp(lg) - b * math.expm1(lg)
            # x^2 overflows: the same in logs, with log1p(x^2) = 2 log x
            lx = math.log(x)
            lg = 2.0 * k * lx
            lead = 0.0 if p == 1.0 else math.exp(math.log(p - 1.0) + 2.0 * lx + lg)
            return lead - b * math.expm1(lg)
        except OverflowError:
            return math.inf

    return _invert_increasing(shifted, value + b, lo)


def slope_map(xi, p: float):
    """u = (1 + xi^2)^((p-2)/2) xi, strictly increasing in the slope xi."""
    xi = np.asarray(xi, dtype=float)
    val = (1.0 + xi**2) ** ((p - 2.0) / 2.0) * xi
    return float(val) if val.ndim == 0 else val


def slope_map_deriv(xi, p: float):
    xi = np.asarray(xi, dtype=float)
    val = (1.0 + xi**2) ** ((p - 4.0) / 2.0) * (1.0 + (p - 1.0) * xi**2)
    return float(val) if val.ndim == 0 else val


# Newton in t = log xi solves g(t) = ((p-2)/2) log(1 + e^(2t)) + t - log|u| = 0.
# g' = (1 + (p-1) e^(2t)) / (1 + e^(2t)) lies between 1 and p - 1, and g'' has
# the sign of p - 2, so from t0 = log|u| (|u| <= 1) or log|u| / (p-1) (|u| > 1)
# the iterates approach the root from one side without overshooting it.
# Both forms of g and g' below keep e = exp(-2|t|) <= 1 and write the linear
# part as (p-1) t for t > 0, so nothing overflows or cancels as p -> 1.
# A step below _NEWTON_TOL leaves an error of order its square, which the
# closing Newton step in xi squares again.
_NEWTON_STEPS = 100
_NEWTON_TOL = 1e-6
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def slope_map_inv(u, p: float):
    """Slope xi recovering u under the slope map, elementwise for an array;
    closed form at p in {1, 2}, Newton in log xi otherwise, finished by one
    Newton step in xi itself. Raises DomainError where the iteration does
    not converge or the preimage exceeds the largest float."""
    if isinstance(u, np.ndarray):
        return _slope_map_inv_array(u, p)
    if u == 0.0:
        return 0.0
    sign = 1.0 if u > 0.0 else -1.0
    a = abs(u)
    if p == 2.0:
        return sign * a
    if p == 1.0:
        _require(a < 1.0, f"the p=1 slope map has range (-1, 1); got |u| = {a}")
        return sign * a / math.sqrt(1.0 - a * a)
    _require(math.isfinite(a), f"slope map inverse needs a finite u, got {u}")
    pm1, half, la = p - 1.0, (p - 2.0) / 2.0, math.log(a)
    t = la if a <= 1.0 else la / pm1
    for _ in range(_NEWTON_STEPS):
        e = math.exp(-2.0 * abs(t))
        if t > 0.0:
            step = (pm1 * t + half * math.log1p(e) - la) * (e + 1.0) / (e + pm1)
        else:
            step = (t + half * math.log1p(e) - la) * (1.0 + e) / (1.0 + pm1 * e)
        t -= step
        if abs(step) <= _NEWTON_TOL:
            break
    else:
        raise DomainError(f"slope map inverse did not converge at u={u}, p={p}")
    _require(t < _LOG_FLOAT_MAX,
             f"slope map preimage of u={u} at p={p} exceeds the largest float")
    xi = math.exp(t)
    # (u - a) / u' with u = s^half xi, s = 1 + xi^2, and u' = u (1 + (p-1) xi^2)
    # / (s xi); past xi^2 = inf or u = inf the correction is nan and xi stands
    s = 1.0 + xi * xi
    uxi = s**half * xi
    corr = xi * ((uxi - a) / uxi) * (s / (1.0 + pm1 * xi * xi))
    if math.isfinite(corr):
        xi -= corr
    return sign * xi


def _slope_map_inv_array(u: np.ndarray, p: float) -> np.ndarray:
    """slope_map_inv over an array: the same iteration on every element."""
    u = np.asarray(u, dtype=float)
    a = np.abs(u)
    if p == 2.0:
        return u.copy()
    if p == 1.0:
        _require(bool(np.all(a < 1.0)), "the p=1 slope map has range (-1, 1)")
        return u / np.sqrt(1.0 - u * u)
    _require(bool(np.all(np.isfinite(a))), "slope map inverse needs a finite u")
    nz = a > 0.0
    a = a[nz]
    pm1, half, la = p - 1.0, (p - 2.0) / 2.0, np.log(a)
    t = np.where(a <= 1.0, la, la / pm1)
    for _ in range(_NEWTON_STEPS):
        e = np.exp(-2.0 * np.abs(t))
        pos = t > 0.0
        step = (np.where(pos, pm1 * t, t) + half * np.log1p(e) - la) \
            * np.where(pos, (e + 1.0) / (e + pm1), (1.0 + e) / (1.0 + pm1 * e))
        t = t - step
        if np.all(np.abs(step) <= _NEWTON_TOL):
            break
    else:
        raise DomainError(f"slope map inverse did not converge at p={p}")
    _require(bool(np.all(t < _LOG_FLOAT_MAX)),
             f"slope map preimage at p={p} exceeds the largest float")
    x = np.exp(t)
    with np.errstate(over="ignore", invalid="ignore"):
        s = 1.0 + x * x
        ux = s**half * x
        corr = x * ((ux - a) / ux) * (s / (1.0 + pm1 * x * x))
    xi = np.zeros_like(u)
    xi[nz] = np.where(np.isfinite(corr), x - corr, x)
    return np.copysign(xi, u)


def _invert_increasing(f, target: float, lo: float) -> float:
    """Solve f(x) = target for increasing f on [lo, inf) with f(lo) <= target
    to a relative tolerance of 4 machine epsilons. The bracket is [lo, lo + w],
    with w = max(1, |lo|) grown fourfold until it holds the root, or shrunk
    fourfold while lo + w/4 still does, so that a root near lo = 0 lies in
    the top three quarters of its bracket."""
    if not math.isfinite(target):
        raise DomainError(f"cannot invert toward the target {target}")
    # in units of |target|, so that tiny targets leave brentq no underflow
    scale = abs(target) or 1.0
    g = lambda x: (f(x) - target) / scale
    glo = g(lo)
    if glo > 0.0:
        raise DomainError(f"target {target} below the increasing branch start f({lo}) = {f(lo)}")
    if glo == 0.0:
        return lo
    w = max(1.0, abs(lo))
    if g(lo + w) < 0.0:
        while True:
            if not math.isfinite(lo + 4.0 * w):
                raise DomainError("could not bracket a sign change while growing upward")
            w *= 4.0
            if not g(lo + w) < 0.0:  # a sign change, a root, or NaN ends the growth
                break
    else:
        while lo + w / 4.0 > lo and g(lo + w / 4.0) >= 0.0:
            w /= 4.0
    return brentq(g, lo, lo + w, xtol=sys.float_info.min, rtol=4.0 * sys.float_info.epsilon)


def slope_map_primitive(u: float, p: float) -> float:
    """Integral of the inverse slope map from 0 to u (even in u).

    Computed by the exact integration-by-parts identity
    u*xi - ((1+xi^2)^(p/2) - 1)/p with xi the inverse image of |u|, the
    bracket by expm1 and log1p and the p = 1 form 1 - sqrt(1 - u^2) as
    u^2 / (1 + sqrt(1 - u^2)), so that neither cancels at small u.
    """
    a = abs(u)
    if a == 0.0:
        return 0.0
    if p == 2.0:
        return a * a / 2.0
    if p == 1.0:
        _require(a < 1.0, "the p=1 slope map has range (-1, 1)")
        return a * a / (1.0 + math.sqrt(1.0 - a * a))
    xi = slope_map_inv(a, p)
    return a * xi - math.expm1(0.5 * p * math.log1p(xi * xi)) / p


def damping_coefficient(xi, p: float, q: float, b: float):
    """Coefficient of u' in the second-order equation for the transformed
    slope; vanishes identically when b = 1 and q = 2p - 1."""
    _require(p > 1.0, "defined for p > 1")
    xi = np.asarray(xi, dtype=float)
    num = (p - 2.0) * b + q - 3.0 * (p - 1.0) + (q + 1.0 - 2.0 * p) * (p - 1.0) * xi**2
    val = num / (1.0 + (p - 1.0) * xi**2) * xi
    return float(val) if val.ndim == 0 else val


def mode_threshold_zero_c(p: float, q: float) -> float:
    """Closed form of the mode threshold at c = 0, (p - 2) m / (((p - 1) m + 1)
    (m - 1)) with m^2 - 1 = (p - 2)(q + 1 - p)/(p (p - 1)), written with the
    factor p - 2 cancelled (2/(q-1) at p = 2)."""
    _require(p > 1.0, "defined for p > 1")
    _require(q > p - 1.0, "need q > p - 1")
    msq = (2.0 * (p - 1.0) + (p - 2.0) * q) / (p * (p - 1.0))
    _require(msq >= 0.0, "no finite threshold: c = 0 exceeds the critical potential here")
    m = math.sqrt(msq)
    return m * (m + 1.0) * p * (p - 1.0) / (((p - 1.0) * m + 1.0) * (q + 1.0 - p))
