"""The package's root finder and quadrature against their oracles: brent
against scipy's brentq bit for bit, tanh_sinh against scipy's quad and a
30-digit mpmath quadrature."""

import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from seplane.errors import IntegrationError
from seplane.numerics import brent, tanh_sinh
from seplane.params import ProblemParams, critical_potential, reduce_params
from seplane.periods import period_infimum_p1, period_zero_amplitude_limit

EPS = sys.float_info.epsilon

# nine families of brackets: smooth, steep, flat to fifth order, wiggling,
# with an exact-zero plateau, with an infinite value at one end, two
# staircases, and subnormal values, whose products underflow to a zero
# denominator in the extrapolation
FAMILIES = [
    lambda c, s: lambda x: x**3 - c,
    lambda c, s: lambda x: math.tanh(s * (x - c)),
    lambda c, s: lambda x: s * (x - c) ** 5,
    lambda c, s: lambda x: math.atan(x - c) + 1e-3 * s * math.sin(50.0 * x),
    lambda c, s: lambda x: 0.0 if abs(x - c) < 1e-3 else x - c,
    lambda c, s: lambda x: math.copysign(math.inf, x - c) if abs(x - c) > 1.0 else x - c,
    lambda c, s: lambda x: math.copysign(1.0, x - c),
    lambda c, s: lambda x: math.floor(s * (x - c)) + 0.5,
    lambda c, s: lambda x: math.copysign(1e-320, x - c) * (1.0 + s * abs(x)),
]


def outcome(solver, fn, a, b, **kwargs):
    """(root bits or exception class, number of f calls) of one solve."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return fn(x)

    try:
        result = solver(counted, a, b, **kwargs).hex()
    except (ValueError, RuntimeError) as exc:
        result = type(exc)
    return result, calls[0]


class TestBrent:
    def test_bit_identical_to_brentq(self):
        rng = np.random.default_rng(2024)
        tolerances = [(2e-12, 4 * EPS), (1e-6, 4 * EPS), (sys.float_info.min, 4 * EPS),
                      (1e-13, 1e-10), (1e-3, 1e-10)]
        compared = 0
        for _ in range(120):
            c, s = rng.uniform(-2.0, 2.0), rng.uniform(0.1, 20.0)
            a, b = c - 10.0 ** rng.uniform(-6, 1), c + 10.0 ** rng.uniform(-6, 1)
            if rng.random() < 0.5:
                a, b = b, a
            for family in FAMILIES:
                fn = family(c, s)
                for xtol, rtol in tolerances:
                    assert outcome(brent, fn, a, b, xtol=xtol, rtol=rtol) \
                        == outcome(brentq, fn, a, b, xtol=xtol, rtol=rtol), (a, b, xtol, rtol)
                    compared += 1
        assert compared == 5400

    @pytest.mark.parametrize("fn,a,b,kwargs", [
        (lambda x: x, -1.0, 2.0, {"xtol": 0.0}),
        (lambda x: x, -1.0, 2.0, {"xtol": -1e-12}),
        (lambda x: x, -1.0, 2.0, {"rtol": 2 * EPS}),
        (lambda x: x, 1.0, 2.0, {}),
        (lambda x: x - 3.0, -1.0, 2.0, {}),
        (lambda x: math.nan, -1.0, 2.0, {}),
        (lambda x: math.nan if x > 0.3 else x, -1.0, 2.0, {}),
        (lambda x: math.atan(x - 0.1), -1.0, 2.0, {"maxiter": 3}),
        (lambda x: math.atan(x - 0.1), -1.0, 2.0, {"maxiter": 0}),
        (lambda x: x, 0.0, 2.0, {}),
        (lambda x: x - 2.0, 0.0, 2.0, {}),
        (lambda x: np.float64(x - 0.25), -1.0, 2.0, {}),
    ], ids=["xtol-zero", "xtol-negative", "rtol-small", "same-sign", "same-sign-negative",
            "nan-at-end", "nan-inside", "no-convergence", "no-iterations", "root-at-a",
            "root-at-b", "numpy-float"])
    def test_edge_cases_match_brentq(self, fn, a, b, kwargs):
        assert outcome(brent, fn, a, b, **kwargs) == outcome(brentq, fn, a, b, **kwargs)


def t0_by_quad(p, q, c):
    """T0 by scipy's quad, with the break points and tolerances that the
    package passes to its own rule."""
    rp = reduce_params(ProblemParams(p, q, c))
    p, b, d = rp.p, rp.b, rp.d
    eps0, curv = -(b + d), (p - 1.0) + 0.5 * (p - 2.0) * d
    width = math.sqrt(eps0 / curv) if curv > 0.0 else math.inf
    spots = [width * 10.0**k for k in range(math.ceil(math.log10(0.1 / width)))] \
        if width < 1e-2 else None

    def integrand(th):
        t = math.tan(th)
        den = (p - 1.0) * t * t + eps0 - d * math.expm1(
            0.5 * (p - 2.0) * math.log1p(-math.sin(th) ** 2))
        return (1.0 + (p - 1.0) * t * t) / den

    val, _ = quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-10, epsrel=1e-12, limit=400,
                  points=spots)
    return rp, 4.0 * val


def seeded_triples(seed, n, gap):
    """n triples with p in [1.2, 4.5], q = p - 1 + p / beta with beta in
    [0.5, 2], and c = c_q - gap(rng, c_q)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        p = rng.uniform(1.2, 4.5)
        q = p - 1.0 + p / rng.uniform(0.5, 2.0)
        cq = critical_potential(p, q)
        out.append((p, q, cq - gap(rng, cq)))
    return out


class TestTanhSinh:
    @pytest.mark.parametrize("triples", [
        # c_q - c from 1e-3 to 10: peak widths from 1.7e-2 up. The largest
        # gap, 9.4e-13 at p = 3.19, is quad's own error: against 30-digit
        # mpmath the rule is off by 1.5e-15 there
        seeded_triples(19, 400, lambda rng, cq: 10.0 ** rng.uniform(-3.0, 1.0)),
        # c_q - c from 1e-12 to 1e-5 of |c_q|: peaks narrower than 1e-2,
        # integrated piecewise between the break points
        seeded_triples(21, 60, lambda rng, cq: abs(cq) * 10.0 ** rng.uniform(-12.0, -5.0)),
    ], ids=["wide-peaks", "narrow-peaks"])
    def test_zero_amplitude_limit_against_quad(self, triples):
        worst = 0.0
        for p, q, c in triples:
            rp, ref = t0_by_quad(p, q, c)
            worst = max(worst, abs(period_zero_amplitude_limit(rp) - ref) / ref)
        assert worst <= 1e-12

    @pytest.mark.parametrize("d", [0.0, 1e-3, 0.2, 3.0])
    def test_p1_infimum_against_mpmath(self, d):
        with mpmath.workdps(30):
            ref = 4 * mpmath.quad(lambda th: mpmath.sqrt(mpmath.cos(th) / (mpmath.cos(th) + 2 * d)),
                                  [0, mpmath.pi / 2])
            assert abs(period_infimum_p1(d) - ref) / ref <= 1e-14

    def test_error_estimate_and_break_points(self):
        # a kink at 1/3, split off by a break point; the estimate covers the error
        value, err = tanh_sinh(lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0, 1e-14, 1e-14,
                               points=[1.0 / 3.0, 5.0, -1.0])
        assert abs(value - 5.0 / 18.0) <= max(err, 4 * EPS)
        assert err <= 2e-14   # two pieces, each within its own 1e-14
        # at a loose tolerance the estimate is the last move of the sum, which
        # the error of the finer sum stays under
        value, err = tanh_sinh(math.exp, 0.0, 1.0, 1e-6, 1e-6)
        assert 0.0 < abs(value - math.expm1(1.0)) <= err <= 1e-6

    @pytest.mark.parametrize("a,b,epsabs", [
        (0.0, 1.0, 1e-30), (-math.pi / 2.0, math.pi / 2.0, 1e-30),
        # most nodes of a piece this narrow against |a| round onto an end
        (1.0, 1.0 + 1e-9, 1e-11)], ids=["from-zero", "symmetric", "narrow"])
    def test_ends_are_never_evaluated(self, a, b, epsabs):
        def f(x):
            assert a < x < b
            return math.cos(x)

        value, _ = tanh_sinh(f, a, b, epsabs, 1e-13)
        assert abs(value - (math.sin(b) - math.sin(a))) <= max(epsabs, 1e-13 * abs(value))

    def test_unconverged_sum_raises(self):
        # a jump inside the interval caps the rule at first order in h
        with pytest.raises(IntegrationError, match="did not converge"):
            tanh_sinh(lambda x: 1.0 if x > 1.0 / 3.0 else 0.0, 0.0, 1.0, 1e-10, 1e-12)

    def test_non_finite_sum_raises(self):
        with pytest.raises(IntegrationError, match="is nan at level 0"):
            tanh_sinh(lambda x: math.nan if x > 0.9 else x, 0.0, 1.0, 1e-10, 1e-12)
