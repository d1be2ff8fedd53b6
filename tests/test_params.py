import fractions
import math
import random
import sys
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from seplane import params as params_mod
from seplane.errors import DomainError
from seplane.params import (
    Nonlinearity,
    ProblemParams,
    ReducedParams,
    angular_eigenvalue,
    critical_potential,
    damping_coefficient,
    decay_exponent,
    invert_slope_potential,
    lift_profile,
    mode_threshold_zero_c,
    odd_power,
    reduce_params,
    slope_map,
    slope_map_deriv,
    slope_map_inv,
    slope_map_primitive,
    slope_potential,
    slope_potential_min,
    stationary_abscissa,
)
from seplane.periods import mode_bounds, mode_threshold

from conftest import rel_err

# strategy for admissible exponent pairs, kept clear of the q -> p-1 edge
pq = st.tuples(st.floats(1.05, 4.5), st.floats(0.1, 8.0)).map(
    lambda t: (t[0], t[0] - 1.0 + t[1]))


class TestScalarConstants:
    def test_decay_exponent_values(self):
        assert decay_exponent(2.0, 3.0) == 1.0
        assert decay_exponent(3.0, 4.0) == 1.5
        for q in (0.5, 1.0, 2.0, 7.0):
            assert rel_err(decay_exponent(1.0, q), 1.0 / q) < 1e-15

    def test_decay_exponent_domain(self):
        with pytest.raises(DomainError):
            decay_exponent(3.0, 2.0)

    def test_exponent_gap_checked_as_computed(self):
        # q > p - 1 holds here, but q + 1 - p rounds to 0: every owner of the
        # exponent pair refuses it rather than divide by the gap
        p, q = 1.0000000000000002, 2.2215500820439895e-16
        assert q > p - 1.0 and q + 1.0 - p == 0.0
        for build in (decay_exponent, critical_potential, mode_threshold_zero_c,
                      ProblemParams, Nonlinearity, lambda p, q: ReducedParams(p, q, 1.0, 0.0)):
            with pytest.raises(DomainError, match="q \\+ 1 - p > 0"):
                build(p, q)

    def test_eigenvalue_values(self):
        assert angular_eigenvalue(2.0, 3.0) == 1.0
        assert angular_eigenvalue(3.0, 5.0) == 3.0
        for q in (0.5, 2.0, 5.0):
            assert rel_err(angular_eigenvalue(1.0, q), -1.0 / q) < 1e-14

    def test_critical_potential_values(self):
        assert critical_potential(2.0, 3.0) == 1.0
        assert critical_potential(3.0, 3.0) == 63.0
        for q in (0.5, 2.0, 5.0):
            assert rel_err(critical_potential(1.0, q), -1.0) < 1e-14

    @given(pq)
    @settings(max_examples=200, deadline=None)
    def test_eigenvalue_forms_identical(self, pair):
        # the two printed forms are one rational function; verify exactly
        p, q = pair
        fp, fq = fractions.Fraction(p), fractions.Fraction(q)
        fb = fp / (fq + 1 - fp)
        assert fb * (fq * fb - 2) == fb * (fp - 2 + (fp - 1) * fb)

    @given(pq)
    @settings(max_examples=200, deadline=None)
    def test_critical_potential_product(self, pair):
        p, q = pair
        beta = decay_exponent(p, q)
        lhs = critical_potential(p, q)
        rhs = beta ** (p - 2.0) * angular_eigenvalue(p, q)
        scale = beta ** (p - 2.0) * beta * (abs(q * beta) + 2.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestReduction:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            ProblemParams(float("nan"), 2.0, 0.0)
        with pytest.raises(DomainError):
            ProblemParams(2.0, 3.0, float("inf"))
        with pytest.raises(DomainError):
            ProblemParams(0.9, 2.0, 0.0)

    def test_reduce_examples(self):
        rp = reduce_params(ProblemParams(2.0, 3.0, 0.0))
        assert (rp.b, rp.d) == (-1.0, 0.0)
        rp = reduce_params(ProblemParams(2.0, 3.0, 2.0))
        assert (rp.b, rp.d) == (-1.0, 2.0)
        rp = reduce_params(ProblemParams(1.0, 2.0, 5.0))
        assert (rp.b, rp.d) == (1.0, 5.0)

    @given(pq, st.floats(-6.0, 6.0))
    @settings(max_examples=200, deadline=None)
    def test_sign_equivalence(self, pair, c):
        p, q = pair
        rp = reduce_params(ProblemParams(p, q, c))
        assert (rp.b + rp.d > 0.0) == (c > critical_potential(p, q))

    def test_stationary_abscissa(self):
        rp = reduce_params(ProblemParams(2.0, 3.0, 2.0))
        nl = Nonlinearity(2.0, 3.0)
        assert rel_err(stationary_abscissa(rp, nl), 1.0) < 1e-14
        with pytest.raises(DomainError):
            stationary_abscissa(reduce_params(ProblemParams(2.0, 3.0, 0.0)), nl)

    @given(pq)
    @settings(max_examples=200, deadline=None)
    def test_reduced_slope_potential_always_increasing(self, pair):
        # reductions of the original problem never produce an interior
        # minimum of the slope potential
        p, q = pair
        rp = reduce_params(ProblemParams(p, q, 0.0))
        assert slope_potential_min(p, rp.b) is None


class TestLift:
    def test_p2_identity(self):
        params = ProblemParams(2.0, 3.0, 0.0)
        tau = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
        w = np.cos(tau)
        sigma, omega = lift_profile(tau, w, params)
        assert np.allclose(sigma, tau) and np.allclose(omega, w)

    def test_p1_half_wave(self):
        params = ProblemParams(1.0, 2.0, 0.0)
        tau = np.linspace(1e-3, math.pi - 1e-3, 200)
        w = 2.0 * np.sin(tau)
        sigma, omega = lift_profile(tau, w, params)
        assert np.allclose(omega, (2.0 * np.sin(sigma)) ** 0.5)

    def test_lift_overflow_is_a_domain_error(self):
        # beta = 207.3: beta^beta is beyond the largest double
        params = ProblemParams(2.3802022906663343, 1.3916826402679285, 451477.24463120766)
        with pytest.raises(DomainError, match="beta\\^beta overflows binary64"):
            lift_profile(0.0, 1.0, params)

    def test_constant_round_trip(self):
        params = ProblemParams(2.5, 4.0, 6.0)
        rp = reduce_params(params)
        e = params.q + 1.0 - params.p
        w_const = (rp.b + rp.d) ** (1.0 / e)
        tau = np.linspace(0.0, 10.0, 64)
        _, omega = lift_profile(tau, np.full_like(tau, w_const), params)
        expected = (params.c - critical_potential(params.p, params.q)) ** (1.0 / e)
        assert np.max(np.abs(omega - expected)) < 1e-12 * expected


class TestSlopePotential:
    def test_values(self):
        assert slope_potential(1.0, 2.0, 1.0) == 0.0
        assert invert_slope_potential(2.0, 2.0, -1.0) == pytest.approx(1.0, abs=1e-12)

    def test_minimum(self):
        assert slope_potential_min(2.0, 5.0) is None
        eta, emin = slope_potential_min(3.0, 10.0)
        assert eta == pytest.approx(1.0, abs=1e-14)
        # the closed form must reproduce a direct evaluation at eta
        assert rel_err(emin, slope_potential(eta, 3.0, 10.0)) < 1e-12
        assert emin == pytest.approx(-8.0 * math.sqrt(2.0), rel=1e-14)

    def test_invert_below_minimum(self):
        with pytest.raises(DomainError):
            invert_slope_potential(-100.0, 3.0, 10.0)

    @given(st.floats(1.05, 4.0), st.floats(-5.0, 5.0), st.floats(1e-3, 4.0))
    @settings(max_examples=150, deadline=None)
    def test_inverse_round_trip(self, p, b, offset):
        # the inverse is not Lipschitz at the flat branch start, so the
        # argument-space identity only holds away from it
        mn = slope_potential_min(p, b)
        lo = mn[0] if mn else 0.0
        xi = lo + offset
        val = slope_potential(xi, p, b)
        xi_back = invert_slope_potential(val, p, b)
        assert abs(xi_back - xi) < 1e-10 * (1.0 + xi) / min(1.0, offset)
        back = slope_potential(xi_back, p, b)
        assert abs(back - val) < 1e-10 * (1.0 + abs(val))

    def test_inverse_against_decimal_oracle(self):
        # relative accuracy, down to the small roots of d -> -b+ (c -> c_q+)
        rng = random.Random(2026)
        cases = [(3.0, 1.0, -1.0 + 1e-10), (3.0, 1.0, -1.0 + 1e-6), (1.5, 1.0, -0.99999),
                 (3.0, 0.0, 1e-300), (2.5, 0.0, 1e-200)]
        while len(cases) < 400:
            p, b = rng.uniform(1.05, 6.0), rng.uniform(-5.0, 5.0)
            mn = slope_potential_min(p, b)
            if mn is None:
                cases.append((p, b, -b + max(1.0, abs(b)) * 10.0 ** rng.uniform(-12.0, 2.0)))
            else:  # clear of the flat branch start eta
                xi = mn[0] * (1.0 + 10.0 ** rng.uniform(-1.0, 2.0))
                cases.append((p, b, slope_potential(xi, p, b)))
        worst = 0.0
        for p, b, d in cases:
            xi = invert_slope_potential(d, p, b)
            ref = _oracle_potential_root(d, p, b, xi)
            # E + b = (p-1) xi^2 s - b (s - 1) cancels where (p-2) b nears
            # 2(p-1), the onset of an interior minimum; scale by that cancellation
            lg = (p / 2.0 - 1.0) * math.log1p(xi * xi)
            terms = ((p - 1.0) * xi * xi * math.exp(lg), b * math.expm1(lg))
            cond = (abs(terms[0]) + abs(terms[1])) / abs(terms[0] - terms[1])
            worst = max(worst, float(abs(Decimal(xi) / ref - 1)) / max(1.0, cond))
        assert worst <= 1e-14

    def test_inverse_brackets_roots_near_the_float_range(self):
        # at p = 2, b = 1 the shifted potential is xi^2: the root of 1e308 is 1e154,
        # past the 200 fourfold growths (4^200 ~ 2.6e120) the bracket used to stop at
        assert rel_err(invert_slope_potential(1e308, 2.0, 1.0), 1e154) \
            <= 4.0 * sys.float_info.epsilon
        # near p = 1 the root of 1e308 lies beyond the largest float
        for value in (1e308, math.inf):
            with pytest.raises(DomainError):
                invert_slope_potential(value, 1.001, 1.0)


def _oracle_potential_root(value: float, p: float, b: float, start: float) -> Decimal:
    """Root of ((p-1) xi^2 - b)(1 + xi^2)^(p/2 - 1) = value to 30 digits, by
    Newton from start at 80 digits, which absorb the cancellation of value
    against -b."""
    with localcontext() as ctx:
        ctx.prec = 80
        V, P, B = Decimal(value), Decimal(p), Decimal(b)
        k = P / 2 - 1
        x = Decimal(start)
        for _ in range(40):
            s, inner = 1 + x * x, (P - 1) * x * x - B
            dx = (inner * s**k - V) / (2 * x * s ** (k - 1) * ((P - 1) * s + k * inner))
            x -= dx
            if abs(dx) < Decimal("1e-30") * x:
                return x
    raise AssertionError(f"oracle did not converge at value={value}, p={p}, b={b}")


class TestSlopeMap:
    def test_p2_identity(self):
        assert slope_map(0.7, 2.0) == 0.7
        assert slope_map_inv(0.7, 2.0) == 0.7
        assert slope_map_primitive(0.7, 2.0) == pytest.approx(0.245)

    def test_p1_closed_form(self):
        assert slope_map_inv(0.6, 1.0) == pytest.approx(0.75, rel=1e-15)
        with pytest.raises(DomainError):
            slope_map_inv(1.0, 1.0)

    def test_p3_round_trip(self):
        u = slope_map(2.0, 3.0)
        assert abs(slope_map_inv(u, 3.0) - 2.0) < 1e-10

    @given(st.floats(1.0, 4.0), st.floats(-3.0, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, p, xi):
        u = slope_map(xi, p)
        assert abs(slope_map_inv(u, p) - xi) < 1e-10 * (1.0 + abs(xi))

    def test_primitive_against_quadrature(self):
        for p, u in [(3.0, 1.7), (1.5, 0.8), (2.5, 2.2)]:
            oracle, _ = quad(lambda s: slope_map_inv(s, p), 0.0, u, epsabs=1e-12)
            assert abs(slope_map_primitive(u, p) - oracle) < 1e-10

    def test_primitive_even(self):
        assert slope_map_primitive(-1.2, 3.0) == slope_map_primitive(1.2, 3.0)


def _oracle_inverse(u: float, p: float, start: float) -> Decimal:
    """Root of xi (1 + xi^2)^((p-2)/2) = u at 50 digits, by Newton from start."""
    with localcontext() as ctx:
        ctx.prec = 50
        U, P = Decimal(u), Decimal(p)
        h = (P - 2) / 2
        x = Decimal(start)
        for _ in range(20):
            s = 1 + x * x
            dx = (x * s**h - U) / (s ** (h - 1) * (1 + (P - 1) * x * x))
            x -= dx
            if abs(dx) < Decimal("1e-45") * x:
                return x
    raise AssertionError(f"oracle did not converge at u={u}, p={p}")


class TestSlopeMapInverse:
    def test_against_decimal_oracle(self):
        rng = random.Random(2024)
        worst = 0.0
        for _ in range(2000):
            p = rng.uniform(1.0, 6.0)
            xi = 10.0 ** rng.uniform(-8.0, 8.0)
            u = slope_map(xi, p)
            ref = _oracle_inverse(u, p, xi)
            worst = max(worst, float(abs(Decimal(slope_map_inv(u, p)) / ref - 1)))
        assert worst <= 1e-14

    @given(st.floats(1.05, 6.0), st.floats(-1e3, 1e3))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_within_4_ulp(self, p, u):
        # plus the step of u across one ulp of xi: the map stretches it up to
        # p - 1 ulp of u, so even the correctly rounded xi can miss 4 ulp
        xi = slope_map_inv(u, p)
        assert abs(slope_map(xi, p) - u) \
            <= 4.0 * math.ulp(u) + slope_map_deriv(xi, p) * math.ulp(xi)

    @pytest.mark.parametrize("p", [1.0, 1.0 + 1e-12, 1.3, 1.9, 2.0, 2.7, 4.5])
    def test_array_path_matches_scalar(self, p):
        # both paths end with the same Newton step in xi, but numpy's array
        # power and the C library's pow may round its residual apart by an
        # ulp, which the condition number 1/g' = (1 + xi^2)/(1 + (p-1) xi^2)
        # carries into xi
        rng = np.random.default_rng(7)
        top = 0.0 if p < 1.5 else 8.0
        u = rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-8.0, top, 500)
        u = np.concatenate([u, [0.0]])
        if p == 1.0:
            u *= 0.9
        arr = slope_map_inv(u, p)
        scalar = np.array([slope_map_inv(float(v), p) for v in u])
        cond = (1.0 + scalar**2) / (1.0 + (p - 1.0) * scalar**2)
        assert arr.shape == u.shape
        assert np.all(np.abs(arr - scalar)
                      <= 2.0 * np.spacing(np.abs(scalar)) * np.maximum(1.0, cond))

    # the Newton path one ulp from p = 2 and p = 1 against the closed forms
    # there: the gaps measured 6.2e-15 at most at these points
    SEAM_U = [1e-8, 0.3, 0.9, 5.0, 1e6]

    def test_continuous_across_p2(self):
        u = np.concatenate([-np.geomspace(1e-6, 1e6, 61), np.geomspace(1e-6, 1e6, 61),
                            self.SEAM_U])
        at_two = slope_map_inv(u, 2.0)
        for p in (math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0)):
            for v, ref in zip(u, at_two):
                assert rel_err(slope_map_inv(float(v), p), ref) <= 1e-14

    def test_continuous_across_p1(self):
        # the exact inverse moves by about 4e-12 relative at |u| = 0.9
        for v in np.linspace(-0.9, 0.9, 73):
            assert rel_err(slope_map_inv(float(v), 1.0 + 1e-12),
                           slope_map_inv(float(v), 1.0)) <= 1e-11
        for v in self.SEAM_U:
            if v < 1.0:
                assert rel_err(slope_map_inv(v, math.nextafter(1.0, 2.0)),
                               v / math.sqrt(1.0 - v * v)) <= 1e-14

    def test_typed_failure_near_p1(self):
        # the preimage of 1.1 at p = 1 + 1e-7 is about exp(9.5e5)
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="slope map"):
            slope_map_inv(1.1, 1.0000001)
        with pytest.raises(DomainError, match="slope map"):
            slope_map_inv(np.array([0.5, -1.1]), 1.0000001)
        # outside the p = 1 range the preimage one ulp above p = 1 exceeds every float
        for u in (5.0, 1e6):
            for p in (1.0, math.nextafter(1.0, 2.0)):
                with pytest.raises(DomainError, match="slope map"):
                    slope_map_inv(u, p)
        assert time.perf_counter() - t0 < 1.0
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                slope_map_inv(bad, 2.5)

    def test_no_root_find(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("slope_map_inv root-finds")

        monkeypatch.setattr(params_mod, "brentq", forbidden)
        monkeypatch.setattr(params_mod, "_invert_increasing", forbidden)
        assert slope_map_inv(slope_map(2.0, 3.0), 3.0) == 2.0
        assert slope_map_inv(np.array([slope_map(2.0, 3.0)]), 3.0)[0] == 2.0


# u drawn as sign * 10^e over the spans of the fixed-point seam tests above:
# [1e-8, 1e6] at p = 2, [1e-8, 0.9] at p = 1, where the inverse is closed form
def _signed_u(lo: float, hi: float):
    return st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                     st.floats(lo, hi))


SEAM_DRAWS = {2.0: _signed_u(-8.0, 6.0), 1.0: _signed_u(-8.0, math.log10(0.9))}


class TestSeamContinuity:
    """One ulp either side of p = 2 and p = 1 the array inverse and the
    primitive meet their closed forms at the seam to 1e-14 relative, the bound
    of the scalar inverse's seam tests. Over 20,000 draws per seam the gaps
    measured at most 6.3e-15 and 9.0e-15 (near u = 1e6) at p = 2, 1.3e-15 and
    8.4e-16 at p = 1; the primitive's bracket (1 + xi^2)^(p/2) - 1, formed
    without expm1, missed by 1.1e-13 at p = 2 and 3.0e-12 at p = 1 (u = 0.01)."""

    @pytest.mark.parametrize("seam", [2.0, 1.0])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_array_inverse(self, seam, data):
        u = np.array(data.draw(st.lists(SEAM_DRAWS[seam], min_size=1, max_size=16)))
        at_seam = slope_map_inv(u, seam)
        for p in (math.nextafter(seam, 0.0), math.nextafter(seam, 3.0)):
            assert np.all(np.abs(slope_map_inv(u, p) - at_seam) <= 1e-14 * np.abs(at_seam))

    @pytest.mark.parametrize("seam", [2.0, 1.0])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_primitive(self, seam, data):
        u = data.draw(SEAM_DRAWS[seam])
        at_seam = slope_map_primitive(u, seam)
        for p in (math.nextafter(seam, 0.0), math.nextafter(seam, 3.0)):
            assert rel_err(slope_map_primitive(u, p), at_seam) <= 1e-14


class TestDampingCoefficient:
    def test_fully_integrable_regime_vanishes(self):
        for p in (1.5, 2.0, 3.0, 4.2):
            for xi in (0.0, 0.3, 1.7):
                assert damping_coefficient(xi, p, 2.0 * p - 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_zero_at_zero_slope(self):
        assert damping_coefficient(0.0, 2.5, 3.0, -2.0) == 0.0

    def test_direct_evaluation(self):
        # p=2, b=0, q=3 collapses to zero; cross-check the general formula
        for xi in (0.2, 1.0, 2.5):
            assert damping_coefficient(xi, 2.0, 3.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        p, q, b, xi = 2.5, 3.0, -1.5, 0.8
        expected = ((p - 2.0) * b + q - 3.0 * (p - 1.0)
                    + (q + 1.0 - 2.0 * p) * (p - 1.0) * xi**2) \
            / (1.0 + (p - 1.0) * xi**2) * xi
        assert damping_coefficient(xi, p, q, b) == pytest.approx(expected, rel=1e-15)


class TestModeThreshold:
    def test_frozen_values(self):
        assert mode_threshold(ProblemParams(2.0, 3.0, 0.0)) == pytest.approx(1.0, rel=1e-10)
        assert mode_threshold(ProblemParams(2.0, 2.0, 0.0)) == pytest.approx(2.0, rel=1e-10)
        assert mode_threshold(ProblemParams(3.0, 5.0, 0.0)) == pytest.approx(
            1.5797958971132713, rel=1e-10)

    def test_matches_closed_form_at_zero_c(self):
        for p, q in [(2.0, 2.0), (2.0, 3.0), (3.0, 5.0), (2.5, 3.0), (1.5, 1.0)]:
            quad_val = mode_threshold(ProblemParams(p, q, 0.0))
            assert rel_err(quad_val, mode_threshold_zero_c(p, q)) < 1e-8

    @pytest.mark.parametrize("q", [2.0, 3.0, 5.0])
    @pytest.mark.parametrize("p", [math.nextafter(2.0, 1.0), math.nextafter(2.0, 3.0),
                                   2.0 - 1e-8, 2.0 + 1e-8])
    def test_closed_form_continuous_across_p2(self, p, q):
        # one ulp off p = 2 the factor p - 2 must cancel, not divide 0 by 0
        quad_val = mode_threshold(ProblemParams(p, q, 0.0))
        assert rel_err(quad_val, mode_threshold_zero_c(p, q)) < 1e-8

    def test_vanishes_on_the_critical_line(self):
        # c = c_q = 0 exactly for this pair; the limit period diverges
        assert mode_threshold(ProblemParams(1.5, 2.0, 0.0)) == 0.0
        assert mode_threshold_zero_c(1.5, 2.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            mode_threshold(ProblemParams(2.0, 3.0, 5.0))
        with pytest.raises(DomainError):
            mode_threshold(ProblemParams(1.0, 2.0, -1.0))


    @given(st.floats(1.05, 4.0).filter(lambda p: abs(p - 2.0) > 1e-3))
    @settings(max_examples=100, deadline=None)
    def test_threshold_geometry_identity(self, p):
        # the closed form at c = 0 satisfies 1/M + 1 = (beta+1)/(beta*m)
        # wherever it is finite and positive
        q = 2.0 * (p - 1.0) / (2.0 - p) - 0.3 if p < 2.0 else p + 2.0
        if q <= p - 1.0 + 1e-6:
            return
        m = math.sqrt((2.0 * (p - 1.0) + (p - 2.0) * q) / (p * (p - 1.0)))
        mq = mode_threshold_zero_c(p, q)
        beta = decay_exponent(p, q)
        assert 1.0 / mq + 1.0 == pytest.approx((beta + 1.0) / (beta * m), rel=1e-11)


class TestModeBounds:
    def test_positive_cap(self):
        mb = mode_bounds(ProblemParams(2.0, 3.0, 9.0))
        assert mb.positive_modes == (1, 2, 3)
        assert mb.k_sign_changing_min == 1

    def test_sign_changing_threshold(self):
        mb = mode_bounds(ProblemParams(2.0, 3.0, 0.0))
        assert mb.k_sign_changing_min == 2
        assert mb.mode_threshold == pytest.approx(1.0, rel=1e-10)
        assert not mb.positive_nonconstant_exists

    def test_p1_range(self):
        mb = mode_bounds(ProblemParams(1.0, 2.0, 3.0))
        assert mb.positive_modes == (3,)
        lower, upper = mb.notes["period_derived_bounds"]
        assert lower == 2.0
        assert 3.0 < upper < 4.0
        assert "literal_reading" in mb.notes

    def test_p1_empty_ranges(self):
        assert mode_bounds(ProblemParams(1.0, 2.0, -0.5)).positive_modes == ()
        assert mode_bounds(ProblemParams(1.0, 0.5, 0.0)).k_sign_changing_min == 1
        assert mode_bounds(ProblemParams(1.0, 2.0, 0.0)).k_sign_changing_min is None

    def test_mode_count_is_capped_before_listing(self):
        # at (2, 3, c) the positive modes run from 1 to about sqrt(2 (c - 1))
        mb = mode_bounds(ProblemParams(2.0, 3.0, 4.9e9))
        assert (len(mb.positive_modes), mb.positive_modes[-1]) == (98994, 98994)
        with pytest.raises(DomainError, match="100995 positive modes, k = 1 to 100995"):
            mode_bounds(ProblemParams(2.0, 3.0, 5.1e9))


class TestNonlinearity:
    def test_power_bundle(self):
        nl = Nonlinearity(2.0, 3.0)
        assert nl.f(-2.0) == -8.0
        assert nl.F(2.0) == 4.0
        assert nl.h(3.0) == 9.0
        assert nl.h_inverse(9.0) == 3.0
        assert nl.power == 3.0

    @given(st.floats(0.01, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_h_inverse_round_trip(self, s):
        nl = Nonlinearity(1.5, 2.2)
        assert rel_err(nl.h_inverse(nl.h(s)), s) < 1e-12

    def test_h_strictly_increasing(self):
        nl = Nonlinearity(2.5, 3.0)
        grid = np.linspace(0.01, 5.0, 200)
        vals = [nl.h(s) for s in grid]
        assert np.all(np.diff(vals) > 0.0)


def _bits(x) -> int:
    return int(np.float64(x).view(np.int64))


class TestOddPower:
    # every finite float: zeros, subnormals and values whose power overflows
    finite = st.floats(allow_nan=False, allow_infinity=False)
    exponent = st.floats(0.3, 6.0) | st.sampled_from([0.5, 1.0, 2.0, 3.0])

    @settings(max_examples=1000)
    @given(finite, exponent)
    def test_scalar_path_matches_array_path_bit_for_bit(self, s, e):
        # the array path on a 0-d array is what a scalar took before the
        # scalar path existed
        with np.errstate(over="ignore"):
            want = odd_power(np.asarray(s), e)
            for x in (s, np.float64(s)):
                got = odd_power(x, e)
                assert type(got) is float
                assert _bits(got) == _bits(want), (x, e, got, want)

    @pytest.mark.parametrize("s", [0.0, -0.0])
    @pytest.mark.parametrize("e", [0.5, 1.0, 3.0])
    def test_zero_maps_to_positive_zero(self, s, e):
        assert _bits(odd_power(s, e)) == _bits(0.0)
