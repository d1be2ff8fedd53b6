"""Bracketed root finding on monotone scalar functions.

Brackets are grown geometrically and then polished with Brent's
bisection-secant hybrid; tolerances are on the argument.
"""

from __future__ import annotations

from typing import Callable

from scipy.optimize import brentq

from .errors import DomainError


def grow_bracket(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Expand [lo, hi] upward fourfold at a time until f changes sign,
    keeping lo fixed."""
    flo = f(lo)
    if flo == 0.0:
        return lo, lo
    fhi = f(hi)
    for _ in range(200):
        if fhi == 0.0 or (flo < 0.0) != (fhi < 0.0):
            return lo, hi
        hi = lo + 4.0 * (hi - lo)
        fhi = f(hi)
    raise DomainError("could not bracket a sign change while growing upward")


def invert_increasing(f: Callable[[float], float], target: float, lo: float) -> float:
    """Solve f(x) = target for increasing f on [lo, inf).

    The caller guarantees f(lo) <= target; the upper bracket is grown
    geometrically.
    """
    g = lambda x: f(x) - target
    glo = g(lo)
    if glo > 0.0:
        raise DomainError(f"target {target} below the increasing branch start f({lo}) = {f(lo)}")
    if glo == 0.0:
        return lo
    lo_, hi_ = grow_bracket(g, lo, lo + max(1.0, abs(lo)))
    if lo_ == hi_:
        return lo_
    return brentq(g, lo_, hi_, xtol=1e-12)
