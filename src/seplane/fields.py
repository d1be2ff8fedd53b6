"""Right-hand sides of the phase-plane dynamics in each coordinate chart.

All evaluations are pure; a point outside a chart, or one where the field
has no finite value, raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, SingularFieldError, SingularOriginError
from .params import (
    Nonlinearity,
    ReducedParams,
    odd_power,
    slope_map_inv,
    slope_potential,
)

__all__ = [
    "FieldEval",
    "field_cartesian",
    "field_polar",
    "field_slope",
    "field_regularized",
    "field_p1_slope",
    "field_p1_cartesian",
    "cartesian_rhs",
    "polar_rhs",
    "slope_rhs",
    "regularized_rhs",
    "p1_slope_rhs",
    "p1_cartesian_rhs",
    "reversed_rhs",
    "check_scaling_conditions",
    "ScalingReport",
]


class FieldEval(NamedTuple):
    """Chart velocity (d1, d2)."""

    d1: float
    d2: float


def field_cartesian(pt, rp: ReducedParams, nl: Nonlinearity) -> FieldEval:
    """(w, y) velocity of the reduced second-order equation, p > 1."""
    w, y = float(pt[0]), float(pt[1])
    if w == 0.0 and y == 0.0:
        raise SingularOriginError("the phase-plane field is singular at (0, 0)")
    p, b, d = rp.p, rp.b, rp.d
    if p <= 1.0:
        raise DomainError("use the p = 1 charts at p = 1")
    r2 = w * w + y * y
    num = b * w**3 + (b + 2.0 - p) * w * y * y \
        - (nl.f(w) - d * odd_power(w, p - 1.0)) * r2 ** (2.0 - p / 2.0)
    den = w * w + (p - 1.0) * y * y
    return FieldEval(y, num / den)


def field_polar(theta: float, rho: float, rp: ReducedParams, nl: Nonlinearity) -> FieldEval:
    """(theta, rho) velocity in polar coordinates on the open first quadrant."""
    if not 0.0 < theta < math.pi / 2.0:
        raise DomainError("polar chart needs theta strictly inside (0, pi/2)")
    if rho <= 0.0:
        raise DomainError("polar chart needs rho > 0")
    p, b, d = rp.p, rp.b, rp.d
    t = math.tan(theta)
    dtheta = (b - (p - 1.0) * t * t
              + (d - nl.h(rho * math.cos(theta))) * math.cos(theta) ** (p - 2.0)) \
        / (1.0 + (p - 1.0) * t * t)
    drho = rho * (1.0 + dtheta) * t
    return FieldEval(dtheta, drho)


def field_slope(st, rp: ReducedParams, nl: Nonlinearity) -> FieldEval:
    """(w, u) velocity in the slope chart, u the transformed slope."""
    w, u = st
    if w < 0.0:
        raise DomainError("slope chart covers w >= 0")
    xi = slope_map_inv(u, rp.p)
    du = -slope_potential(xi, rp.p, rp.b) - nl.h(w) + rp.d
    return FieldEval(w * xi, du)


def field_regularized(st, rp: ReducedParams, nl: Nonlinearity) -> FieldEval:
    """(v, u) velocity with v = w^(q+1-p); regular across v = 0, where the
    power source reads h = v."""
    v, u = st
    if v < 0.0:
        raise DomainError("regularized chart covers v >= 0")
    p, q = rp.p, rp.q
    xi = slope_map_inv(u, p)
    dv = (q + 1.0 - p) * v * xi
    du = -slope_potential(xi, p, rp.b) - v + rp.d
    return FieldEval(dv, du)


def field_p1_slope(st, rp: ReducedParams, nl: Nonlinearity) -> FieldEval:
    """(w, u) velocity at p = 1 where the slope map has range (-1, 1)."""
    w, u = st
    if abs(u) >= 1.0:
        raise DomainError("p = 1 slope chart needs |u| < 1")
    root = math.sqrt(1.0 - u * u)
    return FieldEval(w * u / root, rp.b * root - nl.f(w) + rp.d)


def field_p1_cartesian(pt, rp: ReducedParams, nl: Nonlinearity) -> FieldEval:
    """(w, y) velocity at p = 1; display chart, singular on the line w = 0.

    At w = 0 with d = 0 the unique crossing trajectory has the finite limit
    (y, 0); for d != 0 no trajectory crosses and the evaluation fails.
    """
    w, y = pt
    if w == 0.0:
        if y == 0.0:
            raise SingularOriginError("the phase-plane field is singular at (0, 0)")
        if rp.d != 0.0:
            raise SingularFieldError("no finite limit on w = 0 when d != 0 at p = 1")
        return FieldEval(y, 0.0)
    b, d = rp.b, rp.d
    r2 = w * w + y * y
    num = b * w**3 + (b + 1.0) * w * y * y \
        - (nl.f(w) - d * math.copysign(1.0, w)) * r2**1.5
    return FieldEval(y, num / (w * w))


def _chart_rhs(chart_field):
    """Factory (rp, nl) -> rhs(t, s) feeding one chart field to the integrator."""
    def factory(rp: ReducedParams, nl: Nonlinearity):
        def rhs(t, s):
            fe = chart_field((s[0], s[1]), rp, nl)
            return np.array([fe.d1, fe.d2])
        return rhs
    return factory


cartesian_rhs = _chart_rhs(field_cartesian)
polar_rhs = _chart_rhs(lambda st, rp, nl: field_polar(st[0], st[1], rp, nl))
slope_rhs = _chart_rhs(field_slope)
regularized_rhs = _chart_rhs(field_regularized)
p1_slope_rhs = _chart_rhs(field_p1_slope)
p1_cartesian_rhs = _chart_rhs(field_p1_cartesian)


def reversed_rhs(rhs):
    """Time-reversed autonomous field: forward orbits trace backward ones."""
    return lambda t, s: -rhs(t, s)


@dataclass
class ScalingReport:
    """Sign pattern of the radial-scaling derivatives of a planar field."""

    satisfied: bool
    f_derivative_range: tuple[float, float]
    g_derivative_max: float
    n_points: int
    violations: list = field(default_factory=list)


def check_scaling_conditions(
    rp: ReducedParams,
    nl: Nonlinearity,
    planar_field: Callable[[float, float], tuple[float, float]] | None = None,
) -> ScalingReport:
    """Numerically probe the radial monotonicity hypothesis that underlies
    period-function monotonicity: F(l w, l y)/l nondecreasing and
    G(l w, l y)/l decreasing in l at five fixed quadrant points, for nine
    scale factors l in [1/2, 2].
    """
    if rp.p <= 1.0:
        raise DomainError("scaling check applies to the p > 1 field")
    if planar_field is None:
        def planar_field(w, y):
            fe = field_cartesian((w, y), rp, nl)
            return fe.d1, fe.d2
    points = [(0.3, 0.2), (1.0, 1.0), (0.5, 1.5), (2.0, 0.7), (1.2, 0.4)]
    lambdas = np.geomspace(0.5, 2.0, 9)

    def ratios(w, y, l):
        fv, gv = planar_field(l * w, l * y)
        return fv / l, gv / l

    step = 1e-5
    f_lo, f_hi = math.inf, -math.inf
    g_max = -math.inf
    violations = []
    for (w, y) in points:
        for lam in lambdas:
            (f_up, g_up), (f_dn, g_dn) = ratios(w, y, lam + step), ratios(w, y, lam - step)
            fp = (f_up - f_dn) / (2.0 * step)
            gp = (g_up - g_dn) / (2.0 * step)
            f_lo, f_hi = min(f_lo, fp), max(f_hi, fp)
            g_max = max(g_max, gp)
            if fp < -1e-9 or gp >= 0.0:
                violations.append({"point": (w, y), "lambda": float(lam),
                                   "dF": fp, "dG": gp})
    return ScalingReport(
        satisfied=not violations,
        f_derivative_range=(f_lo, f_hi),
        g_derivative_max=g_max,
        n_points=len(points) * len(lambdas),
        violations=violations,
    )
