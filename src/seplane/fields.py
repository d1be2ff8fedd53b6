"""Right-hand sides of the phase-plane dynamics in each coordinate chart.

Each factory ``*_rhs(rp, nl)`` binds its chart's constants and returns
``rhs(t, s)``: a state pair of Python floats in, the velocity pair (d1, d2)
of floats out; the ``field_*`` point evaluators run the same closures. All
evaluations are pure; a point outside a chart, or one where the field has no
finite value, raises. The Cartesian chart serves every p >= 1; the slope
charts are split at p = 1, where the slope map has range (-1, 1).
"""

from __future__ import annotations

import math

from .errors import DomainError, SingularFieldError, SingularOriginError
from .params import (
    Nonlinearity,
    ReducedParams,
    odd_power,
    slope_map_inv,
    slope_potential,
)

__all__ = [
    "field_cartesian",
    "field_polar",
    "field_slope",
    "field_regularized",
    "field_p1_slope",
    "cartesian_rhs",
    "polar_rhs",
    "slope_rhs",
    "regularized_rhs",
    "p1_slope_rhs",
    "p1_cartesian_rhs",
]


def cartesian_rhs(rp: ReducedParams, nl: Nonlinearity):
    """(w, y) velocity of the reduced second-order equation, p >= 1.

    On the line w = 0 the velocity is (y, 0) for p > 1. At p = 1 the line is
    singular: with d = 0 the unique crossing trajectory has the finite limit
    (y, 0); for d != 0 no trajectory crosses and the evaluation fails.
    """
    p, b, d, q = rp.p, rp.b, rp.d, nl.power
    # b + 1 at p = 1 exactly: (b + 2) - 1 is an ulp off it at some b
    pm1, b2p, ex = p - 1.0, b + 1.0 if p == 1.0 else b + 2.0 - p, 2.0 - p / 2.0
    # the source odd_power(w, q) - d odd_power(w, p - 1) inline, in the float
    # arithmetic of odd_power: the sign of w goes onto each power on its own,
    # copysign(|w|^e, w) being |w|^e for w > 0 and -(|w|^e) for w < 0 (one
    # sign on the difference would flip the sign of an exact zero)
    fq, fpm1 = float(q), float(pm1)
    def rhs(t, s):
        w, y = s
        r2 = w * w + y * y
        cubic = b * w**3 + b2p * w * y * y
        try:
            if w > 0.0:
                src = w**fq - d * w**fpm1
            elif w < 0.0:
                src = -((-w)**fq) - d * -((-w)**fpm1)
            else:
                src = None
        except OverflowError:
            src = None
        if src is None:
            if w == 0.0:
                if y == 0.0:
                    raise SingularOriginError("the phase-plane field is singular at (0, 0)")
                if pm1 == 0.0:
                    if d != 0.0:
                        raise SingularFieldError("no finite limit on w = 0 when d != 0 at p = 1")
                    return y, 0.0
            # zero at p > 1, nan, or a power that overflows: odd_power's array path
            src = odd_power(w, q) - d * odd_power(w, pm1)
        return y, (cubic - src * r2**ex) / (w * w + pm1 * y * y)
    return rhs


def polar_rhs(rp: ReducedParams, nl: Nonlinearity):
    """(theta, rho) velocity in polar coordinates on the open first quadrant."""
    b, d, pm1, pm2 = rp.b, rp.d, rp.p - 1.0, rp.p - 2.0
    def rhs(t, s):
        theta, rho = s
        if not 0.0 < theta < math.pi / 2.0:
            raise DomainError("polar chart needs theta strictly inside (0, pi/2)")
        if rho <= 0.0:
            raise DomainError("polar chart needs rho > 0")
        tn, cs = math.tan(theta), math.cos(theta)
        dtheta = (b - pm1 * tn * tn + (d - nl.h(rho * cs)) * cs**pm2) / (1.0 + pm1 * tn * tn)
        return dtheta, rho * (1.0 + dtheta) * tn
    return rhs


def slope_rhs(rp: ReducedParams, nl: Nonlinearity):
    """(w, u) velocity in the slope chart, u the transformed slope."""
    # the inverse is looked up per factory call, so a wrapped one is seen
    p, b, d, inv = rp.p, rp.b, rp.d, slope_map_inv
    def rhs(t, s):
        w, u = s
        if w < 0.0:
            raise DomainError("slope chart covers w >= 0")
        xi = inv(u, p)
        return w * xi, -slope_potential(xi, p, b) - nl.h(w) + d
    return rhs


def regularized_rhs(rp: ReducedParams, nl: Nonlinearity):
    """(v, u) velocity with v = w^(q+1-p); regular across v = 0, where the
    power source reads h = v."""
    p, b, d, e, inv = rp.p, rp.b, rp.d, rp.q + 1.0 - rp.p, slope_map_inv
    def rhs(t, s):
        v, u = s
        if v < 0.0:
            raise DomainError("regularized chart covers v >= 0")
        xi = inv(u, p)
        return e * v * xi, -slope_potential(xi, p, b) - v + d
    return rhs


def p1_slope_rhs(rp: ReducedParams, nl: Nonlinearity):
    """(w, u) velocity at p = 1 where the slope map has range (-1, 1)."""
    b, d, q = rp.b, rp.d, nl.power
    def rhs(t, s):
        w, u = s
        if abs(u) >= 1.0:
            raise DomainError("p = 1 slope chart needs |u| < 1")
        root = math.sqrt(1.0 - u * u)
        return w * u / root, b * root - odd_power(w, q) + d
    return rhs


def _at_point(factory):
    """Point evaluator (pt, rp, nl) -> (d1, d2) on the closure of ``factory``,
    held here rather than called through its public (wrappable) name."""
    def at(pt, rp: ReducedParams, nl: Nonlinearity) -> tuple[float, float]:
        return factory(rp, nl)(0.0, (float(pt[0]), float(pt[1])))
    at.__doc__ = factory.__doc__
    return at


field_cartesian = _at_point(cartesian_rhs)
field_slope = _at_point(slope_rhs)
field_regularized = _at_point(regularized_rhs)
field_p1_slope = _at_point(p1_slope_rhs)
_field_polar = _at_point(polar_rhs)
# the Cartesian chart's old p = 1 name, kept because the benchmark's tracer
# (perfbench/tracing.py, RHS_FACTORIES) wraps every factory by this name
p1_cartesian_rhs = cartesian_rhs


def field_polar(theta, rho, rp: ReducedParams, nl: Nonlinearity) -> tuple[float, float]:
    """(theta, rho) velocity in polar coordinates on the open first quadrant."""
    return _field_polar((theta, rho), rp, nl)

