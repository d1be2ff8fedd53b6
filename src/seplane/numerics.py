"""Scalar root finding and quadrature on Python floats.

``brent`` is Brent's method (Brent 1973, Algorithms for Minimization without
Derivatives, ch. 4) in the operation order of scipy's ``brentq``, so a root
and its number of f calls equal brentq's bit for bit. ``tanh_sinh`` is the
double-exponential rule (Takahasi & Mori 1974; Bailey, Jeyabalan & Li 2005,
Exp. Math. 14:317-329) with its nodes and weights tabulated once at import.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

from .errors import IntegrationError

__all__ = ["brent", "tanh_sinh"]

_EPS = sys.float_info.epsilon


def brent(f: Callable[[float], float], a: float, b: float, xtol: float = 2e-12,
          rtol: float = 4.0 * _EPS, maxiter: int = 100) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign, to within
    xtol + rtol |x|. Raises ValueError for xtol <= 0, rtol < 4 eps, a NaN
    value of f or f(a), f(b) of one sign, and RuntimeError after maxiter
    iterations without convergence."""
    if xtol <= 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4.0 * _EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4.0 * _EPS:g})")
    if maxiter < 0:
        raise ValueError("maxiter should be > 0")

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x:.6g} is NaN; solver cannot converge.")
        return fx

    # the names of brentq.c: cur is the best iterate, pre the previous one,
    # blk the end of the bracket opposite cur; spre and scur the last two steps.
    # Every f value below is nonzero and not NaN, so x < 0 is signbit(x)
    xpre, xcur = float(a), float(b)
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # a zero denominator gives C an inf or NaN trial step, which fails
            # the step test below and bisects
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf
            bound = abs(spre) if abs(spre) < 3.0 * abs(sbis) - delta else 3.0 * abs(sbis) - delta
            if 2.0 * abs(stry) < bound:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur!r}")


# tanh-sinh on [-1, 1]: x = tanh(u), u = (pi/2) sinh t, weight dx/dt =
# (pi/2) cosh t / cosh^2 u. Level j adds the nodes at the odd multiples of
# 2^-j (level 0: the integers) with 0 < t <= _TS_T_MAX, as (distance 1 - x of
# the node from its nearer end, weight) pairs; 1 - x = 2 e / (1 + e) with
# e = exp(-2u) keeps every distance to full relative precision. From
# t = 3.17 on, 1 - x is below eps/2, where x itself rounds to 1; the tail
# beyond _TS_T_MAX holds under 4e-17 of a bounded integrand's bound times the
# half-width
_TS_T_MAX = 3.2
_TS_MIN_LEVEL = 3
_TS_MAX_LEVEL = 8


def _tanh_sinh_level(j: int) -> tuple[tuple[float, float], ...]:
    h = 2.0 ** -j
    ks = range(1, int(_TS_T_MAX / h) + 1, 1 if j == 0 else 2)
    rows = []
    for k in ks:
        t = k * h
        e = math.exp(-math.pi * math.sinh(t))
        rows.append((2.0 * e / (1.0 + e), 2.0 * math.pi * math.cosh(t) * e / (1.0 + e) ** 2))
    return tuple(rows)


_TS_LEVELS = tuple(_tanh_sinh_level(j) for j in range(_TS_MAX_LEVEL + 1))


def _tanh_sinh_piece(f, a: float, b: float, epsabs: float, epsrel: float) -> tuple[float, float]:
    r = 0.5 * (b - a)
    # the t = 0 node at the midpoint, weight pi/2
    acc = 0.5 * math.pi * f(a + r)
    total = gap = math.nan
    for j, level in enumerate(_TS_LEVELS):
        for dist, w in level:
            # a node that rounds onto its end, which only a piece narrow
            # against |a| or |b| has, is dropped
            x = a + r * dist
            if x > a:
                acc += w * f(x)
            x = b - r * dist
            if x < b:
                acc += w * f(x)
        total, prev = acc * r * 2.0 ** -j, total
        if not math.isfinite(total):
            raise IntegrationError(f"tanh-sinh sum on [{a!r}, {b!r}] is {total} at level {j}")
        gap = abs(total - prev)
        if j >= _TS_MIN_LEVEL and gap <= max(epsabs, epsrel * abs(total)):
            return total, gap
    raise IntegrationError(
        f"tanh-sinh sum on [{a!r}, {b!r}] did not converge: at h = 2^-{_TS_MAX_LEVEL} "
        f"it moved by {gap:.3g} (tolerance {max(epsabs, epsrel * abs(total)):.3g})")


def tanh_sinh(f: Callable[[float], float], a: float, b: float, epsabs: float,
              epsrel: float, points: Sequence[float] | None = None) -> tuple[float, float]:
    """Integral of f over [a, b] with an error estimate, by the tanh-sinh
    rule on each piece between the break points ``points`` that lie inside
    (a, b). On each piece h halves from 1 until, at h = 2^-3 or finer, two
    successive sums agree to max(epsabs, epsrel |sum|); that difference is the
    piece's estimate. f is never called at a or b, and it should be bounded:
    the nodes stop at t = _TS_T_MAX. A piece that has not converged at
    h = 2^-8, or whose sum is not finite, raises IntegrationError."""
    cuts = [a, *sorted(x for x in points or () if a < x < b), b]
    value = err = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        v, e = _tanh_sinh_piece(f, lo, hi, epsabs, epsrel)
        value += v
        err += e
    return value, err
