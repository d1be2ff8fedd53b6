import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seplane.errors import DomainError, SingularFieldError, SingularOriginError
from seplane.fields import (
    cartesian_rhs,
    check_scaling_conditions,
    field_cartesian,
    field_p1_cartesian,
    field_p1_slope,
    field_polar,
    field_regularized,
    field_slope,
    p1_cartesian_rhs,
    p1_slope_rhs,
    polar_rhs,
    regularized_rhs,
    reversed_rhs,
    slope_rhs,
)
from seplane.integrate import IntegratorConfig, integrate
from seplane.orbits import saddle_data
from seplane.params import (
    Nonlinearity,
    ReducedParams,
    odd_power,
    slope_map,
    slope_map_deriv,
    stationary_abscissa,
)

from conftest import rel_err

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


class TestCartesian:
    def test_stationary_point(self, center_case):
        rp, nl = center_case
        a = stationary_abscissa(rp, nl)
        d1, d2 = field_cartesian((a, 0.0), rp, nl)
        assert math.hypot(d1, d2) < 1e-13

    def test_p2_collapse(self, duffing_soft):
        # at p = 2 the second component collapses to (b+d) w - f(w)
        rp, nl = duffing_soft
        fv = field_cartesian((1.0, 0.0), rp, nl)
        assert fv == (0.0, -2.0)
        for w, y in [(0.5, 0.3), (1.2, -0.7)]:
            d1, d2 = field_cartesian((w, y), rp, nl)
            assert d1 == y
            assert d2 == pytest.approx((rp.b + rp.d) * w - w**3, rel=1e-14)

    def test_origin_raises(self, duffing_soft):
        rp, nl = duffing_soft
        with pytest.raises(SingularOriginError):
            field_cartesian((0.0, 0.0), rp, nl)

    @given(st.floats(0.05, 2.0), st.floats(0.05, 2.0),
           st.sampled_from([(2.0, 3.0, -1.0, 0.0), (3.0, 5.0, -3.0, 2.0),
                            (1.5, 2.0, 1.0, 0.5)]))
    @settings(max_examples=200, deadline=None)
    def test_equivariance(self, w, y, case):
        rp = ReducedParams(*case)
        nl = Nonlinearity(rp.p, rp.q)
        f1, f2 = field_cartesian((w, y), rp, nl)
        g1, g2 = field_cartesian((-w, -y), rp, nl)
        assert abs(f1 + g1) <= 1e-14 * (1.0 + abs(f1))
        assert abs(f2 + g2) <= 1e-14 * (1.0 + abs(f2))
        h1, h2 = field_cartesian((w, -y), rp, nl)
        assert abs(h1 + f1) <= 1e-14 * (1.0 + abs(f1))
        assert abs(h2 - f2) <= 1e-14 * (1.0 + abs(f2))


class TestChartConsistency:
    @given(st.floats(0.05, 2.0), st.floats(0.05, 2.0),
           st.sampled_from([(2.0, 3.0, -1.0, 0.0), (3.0, 5.0, -3.0, 2.0),
                            (2.5, 4.0, -2.0, 4.0), (1.5, 2.0, 1.0, 0.5)]))
    @settings(max_examples=250, deadline=None)
    def test_pushforwards_match(self, w, y, case):
        rp = ReducedParams(*case)
        nl = Nonlinearity(rp.p, rp.q)
        f1, f2 = field_cartesian((w, y), rp, nl)

        rho, theta = math.hypot(w, y), math.atan2(y, w)
        pol1, pol2 = field_polar(theta, rho, rp, nl)
        dtheta = (w * f2 - y * f1) / rho**2
        drho = (w * f1 + y * f2) / rho
        assert abs(pol1 - dtheta) <= 1e-9 * (1.0 + abs(dtheta))
        assert abs(pol2 - drho) <= 1e-9 * (1.0 + abs(drho))

        xi = y / w
        u = slope_map(xi, rp.p)
        sl1, sl2 = field_slope((w, u), rp, nl)
        du = slope_map_deriv(xi, rp.p) * (f2 - xi * f1) / w
        assert abs(sl1 - f1) <= 1e-9 * (1.0 + abs(f1))
        assert abs(sl2 - du) <= 1e-9 * (1.0 + abs(du))

        e = rp.q + 1.0 - rp.p
        rg1, rg2 = field_regularized((w**e, u), rp, nl)
        dv = e * w ** (e - 1.0) * f1
        assert abs(rg1 - dv) <= 1e-9 * (1.0 + abs(dv))
        assert abs(rg2 - du) <= 1e-9 * (1.0 + abs(du))


class TestPolar:
    def test_angle_rate_near_vertical(self, duffing_soft):
        rp, nl = duffing_soft
        dtheta, _ = field_polar(math.pi / 2.0 - 1e-7, 1.0, rp, nl)
        assert dtheta == pytest.approx(-1.0, abs=1e-3)

    def test_stationary_limit(self, center_case):
        rp, nl = center_case
        a = stationary_abscissa(rp, nl)
        theta = 1e-9
        dtheta, drho = field_polar(theta, a / math.cos(theta), rp, nl)
        assert abs(drho) < 1e-8
        assert abs(dtheta) < 1e-8

    def test_domain(self, duffing_soft):
        rp, nl = duffing_soft
        with pytest.raises(DomainError):
            field_polar(0.0, 1.0, rp, nl)
        with pytest.raises(DomainError):
            field_polar(math.pi / 2.0, 1.0, rp, nl)


class TestSlopeChart:
    def test_stationary(self, center_case):
        rp, nl = center_case
        a = stationary_abscissa(rp, nl)
        dw, du = field_slope((a, 0.0), rp, nl)
        assert dw == 0.0
        assert abs(du) < 1e-14

    def test_critical_locus(self, center_case):
        # du = 0 exactly where h(w) = d - E(inverse slope image)
        from seplane.params import slope_map_inv, slope_potential

        rp, nl = center_case
        u = 0.4
        xi = slope_map_inv(u, rp.p)
        target = rp.d - slope_potential(xi, rp.p, rp.b)
        w = nl.h_inverse(target)
        _, du = field_slope((w, u), rp, nl)
        assert abs(du) < 1e-13


class TestRegularized:
    def test_saddle_is_stationary(self, center_case):
        rp, nl = center_case
        sd = saddle_data(rp, nl)
        dv, du = field_regularized((0.0, sd["u_saddle"]), rp, nl)
        assert math.hypot(dv, du) < 1e-12

    def test_linearization_by_finite_differences(self, center_case):
        # the Jacobian at the saddle is lower triangular; the finite
        # difference oracle pins both eigenvalues
        rp, nl = center_case
        sd = saddle_data(rp, nl)
        us = sd["u_saddle"]
        h = 1e-7

        def F(v, u):
            return np.array(field_regularized((v, u), rp, nl))

        d_dv = (F(h, us) - F(0.0, us)) / h
        d_du = (F(0.0, us + h) - F(0.0, us - h)) / (2.0 * h)
        jac = np.column_stack([d_dv, d_du])
        eigs = sorted(np.linalg.eigvals(jac).real)
        assert eigs[1] == pytest.approx(sd["unstable"], rel=1e-6)
        assert eigs[0] == pytest.approx(sd["stable"], rel=1e-6)
        assert abs(jac[0, 1]) < 1e-6
        assert jac[1, 0] == pytest.approx(-1.0, rel=1e-6)


class TestP1Charts:
    def test_slope_examples(self, p1_power):
        rp = ReducedParams(1.0, 2.0, 1.0, 0.0)
        fv = field_p1_slope((1.0, 0.0), rp, p1_power)
        assert fv == (0.0, 0.0)
        rp2 = ReducedParams(1.0, 2.0, 1.0, 0.7)
        _, du = field_p1_slope((0.4, 0.0), rp2, p1_power)
        assert du == pytest.approx(1.0 - 0.4 + 0.7)
        with pytest.raises(DomainError):
            field_p1_slope((1.0, 1.0), rp, p1_power)

    def test_acceleration_identity_along_arc(self, p1_power):
        # u'' from samples of the flow must satisfy the second-order slope
        # equation (1-b) u u' / sqrt(1-u^2) - b u - d u / sqrt(1-u^2)
        rp = ReducedParams(1.0, 2.0, 0.5, 0.8)
        arc = integrate(p1_slope_rhs(rp, p1_power), (0.6, 0.0), (0.0, 1.2),
                        cfg=TIGHT, dense=True)
        h = 0.01
        ts = np.arange(0.0, 1.2, h)
        us = arc.sample(ts)[:, 1]
        upp = (-np.roll(us, -2) + 16 * np.roll(us, -1) - 30 * us
               + 16 * np.roll(us, 1) - np.roll(us, 2)) / (12.0 * h * h)
        for i in range(4, len(ts) - 4):
            w, u = arc.sample([ts[i]])[0]
            root = math.sqrt(1.0 - u * u)
            du = rp.b * root - w + rp.d
            rhs_val = (1.0 - rp.b) * u / root * du - rp.b * u - rp.d * u / root
            assert abs(upp[i] - rhs_val) < 1e-6 * (1.0 + abs(rhs_val))

    def test_cartesian_singular_line(self, p1_power):
        # one Cartesian chart for every p >= 1; the p = 1 names are aliases
        assert p1_cartesian_rhs is cartesian_rhs and field_p1_cartesian is field_cartesian
        rp = ReducedParams(1.0, 2.0, 1.0, 0.0)
        fv = field_p1_cartesian((0.0, 2.0), rp, p1_power)
        assert fv == (2.0, 0.0)
        rp_d = ReducedParams(1.0, 2.0, 1.0, 0.5)
        with pytest.raises(SingularFieldError):
            field_p1_cartesian((0.0, 2.0), rp_d, p1_power)
        with pytest.raises(SingularOriginError):
            field_p1_cartesian((0.0, 0.0), rp, p1_power)


class TestScalingConditions:
    def test_power_field_satisfies(self, duffing_soft):
        rp, nl = duffing_soft
        rep = check_scaling_conditions(rp, nl)
        assert rep.satisfied
        assert abs(rep.f_derivative_range[0]) < 1e-9
        assert abs(rep.f_derivative_range[1]) < 1e-9
        assert rep.g_derivative_max < 0.0

    def test_corrupted_field_flagged(self, duffing_soft):
        rp, nl = duffing_soft

        def corrupted(w, y):
            d1, d2 = field_cartesian((w, y), rp, nl)
            # negate the source contribution: G + 2 f(w) rho^(4-p)/denominator
            rho2 = w * w + y * y
            den = w * w + (rp.p - 1.0) * y * y
            return d1, d2 + 2.0 * nl.f(w) * rho2 ** (2.0 - rp.p / 2.0) / den

        rep = check_scaling_conditions(rp, nl, planar_field=corrupted)
        assert not rep.satisfied
        assert rep.violations


# state components: moderate values, exact zeros, and magnitudes up to 1e150
# where powers of w overflow
COMPONENT = st.one_of(st.floats(-10.0, 10.0), st.just(0.0), st.floats(-1e150, 1e150))
CASES = st.sampled_from([(2.0, 3.0, -1.0, 0.0), (3.0, 5.0, -3.0, 2.0), (1.5, 2.0, 1.0, 0.5),
                         (2.5, 6.0, -2.0, 4.0)])
# (b + 2) - 1 is an ulp off b + 1 at b = 0.3
P1_CASES = st.sampled_from([(1.0, 1.0, 1.0, 0.0), (1.0, 3.0, 1.0, 0.7), (1.0, 0.5, 0.5, -0.3),
                            (1.0, 2.0, 0.3, 0.4)])


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def odd_power_ref(w, e):
    return np.sign(w) * np.abs(w) ** e


def closure_or_raise(rhs, w, y, powers, den):
    """rhs at (w, y), or None where float arithmetic raises: ** exactly where
    one of the reference's ``powers`` is not finite, / where ``den`` is 0."""
    for failed, error in ((not all(np.isfinite(x) for x in powers), OverflowError),
                          (den == 0.0, ZeroDivisionError)):
        if failed:
            with pytest.raises(error):
                rhs(0.0, (w, y))
            return None
    return rhs(0.0, (w, y))


class TestFloatContract:
    """Each chart closure takes and returns a pair of Python floats, computed
    by the same IEEE operations as a numpy evaluation of its formula."""

    @given(COMPONENT, COMPONENT, CASES)
    @example(1e60, 1.0, (2.5, 6.0, -2.0, 4.0))   # w^q overflows to inf, the rest is finite
    @example(-1e60, 1.0, (2.5, 6.0, -2.0, 4.0))
    @example(0.0, -0.5, (3.0, 5.0, -3.0, 2.0))
    @settings(max_examples=300, deadline=None)
    def test_cartesian_matches_numpy_formula(self, w, y, case):
        assume(w != 0.0 or y != 0.0)
        rp = ReducedParams(*case)
        nl = Nonlinearity(rp.p, rp.q)
        p, b, d = rp.p, rp.b, rp.d
        W, Y = np.float64(w), np.float64(y)
        with np.errstate(all="ignore"):
            r2 = W * W + Y * Y
            w3, r2ex = W**3, r2 ** (2.0 - p / 2.0)
            num = b * w3 + (b + 2.0 - p) * W * Y * Y \
                - (odd_power_ref(W, rp.q) - d * odd_power_ref(W, p - 1.0)) * r2ex
            den = W * W + (p - 1.0) * Y * Y
            ref = (y, float(num / den))
        out = closure_or_raise(cartesian_rhs(rp, nl), w, y, (w3, r2ex), den)
        if out is not None:
            assert type(out) is tuple and [type(x) for x in out] == [float, float]
            assert same(out[0], ref[0]) and same(out[1], ref[1])
            back = reversed_rhs(cartesian_rhs(rp, nl))(0.0, (w, y))
            assert same(back[0], -out[0]) and same(back[1], -out[1])

    @given(COMPONENT | COMPONENT.map(np.float64)
           | st.sampled_from([0.0, -0.0, math.nan, 1e300, -1e300]),
           st.floats(0.3, 6.0) | st.integers(1, 7) | st.floats(0.3, 6.0).map(np.float64))
    @example(-0.0, 3.0)
    @example(math.nan, 2)
    @example(1e200, 4.0)                 # |s|^e overflows to +inf
    @example(-1e200, np.float64(4.0))    # and to -inf
    @settings(max_examples=500, deadline=None)
    def test_odd_power_fast_path_matches_array_path(self, s, e):
        with np.errstate(over="ignore"):
            want = odd_power(np.asarray(s), e)
            got = odd_power(s, e)
        assert type(got) is float
        assert same(got, want)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @given(COMPONENT, COMPONENT, CASES | st.just((2.0, 3.0, 0.0, 1.0)))
    @example(-1.0, 0.0, (2.0, 3.0, 0.0, 1.0))   # the source is an exact zero, num is -0.0
    @example(-0.0, 0.5, (2.5, 6.0, -2.0, 4.0))
    @example(1e60, 1.0, (2.5, 6.0, -2.0, 4.0))
    @example(-1e60, 1.0, (2.5, 6.0, -2.0, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_cartesian_source_matches_two_odd_powers(self, w, y, case):
        assume(w != 0.0 or y != 0.0)
        rp = ReducedParams(*case)
        nl = Nonlinearity(rp.p, rp.q)
        p, b, d, q = rp.p, rp.b, rp.d, nl.power

        def two_odd_powers(t, s):
            w, y = s
            r2 = w * w + y * y
            num = b * w**3 + (b + 2.0 - p) * w * y * y \
                - (odd_power(w, q) - d * odd_power(w, p - 1.0)) * r2 ** (2.0 - p / 2.0)
            return y, num / (w * w + (p - 1.0) * y * y)

        with np.errstate(over="ignore"):
            try:
                ref = two_odd_powers(0.0, (w, y))
            except (OverflowError, ZeroDivisionError) as exc:
                with pytest.raises(type(exc)):
                    cartesian_rhs(rp, nl)(0.0, (w, y))
                return
            out = cartesian_rhs(rp, nl)(0.0, (w, y))
        for a, r in zip(out, ref):
            assert same(a, r) and math.copysign(1.0, a) == math.copysign(1.0, r)

    @given(COMPONENT, COMPONENT, P1_CASES)
    @settings(max_examples=300, deadline=None)
    def test_p1_cartesian_matches_numpy_formula(self, w, y, case):
        rp = ReducedParams(*case)
        nl = Nonlinearity(1.0, case[1])
        rhs = p1_cartesian_rhs(rp, nl)
        if w == 0.0:
            if y == 0.0:
                with pytest.raises(SingularOriginError):
                    rhs(0.0, (w, y))
            elif rp.d != 0.0:
                with pytest.raises(SingularFieldError):
                    rhs(0.0, (w, y))
            else:
                assert rhs(0.0, (w, y)) == (y, 0.0)
            return
        b, d = rp.b, rp.d
        W, Y = np.float64(w), np.float64(y)
        with np.errstate(all="ignore"):
            r2 = W * W + Y * Y
            w3, r2ex = W**3, r2**1.5
            num = b * w3 + (b + 1.0) * W * Y * Y \
                - (odd_power_ref(W, nl.power) - d * np.copysign(1.0, W)) * r2ex
            ref = (y, float(num / (W * W)))
        out = closure_or_raise(rhs, w, y, (w3, r2ex), W * W)
        if out is not None:
            assert type(out) is tuple and [type(x) for x in out] == [float, float]
            assert same(out[0], ref[0]) and same(out[1], ref[1])

    @given(COMPONENT, st.floats(-0.999, 0.999), P1_CASES)
    @example(-1e150, 0.3, (1.0, 3.0, 1.0, 0.7))   # w^q overflows to -inf
    @settings(max_examples=300, deadline=None)
    def test_p1_slope_matches_numpy_formula(self, w, u, case):
        rp = ReducedParams(*case)
        nl = Nonlinearity(1.0, case[1])
        W, U = np.float64(w), np.float64(u)
        with np.errstate(all="ignore"):
            root = np.sqrt(1.0 - U * U)
            ref = (float(W * U / root), float(rp.b * root - odd_power_ref(W, nl.power) + rp.d))
        out = p1_slope_rhs(rp, nl)(0.0, (w, u))
        assert type(out) is tuple and [type(x) for x in out] == [float, float]
        assert same(out[0], ref[0]) and same(out[1], ref[1])
        back = reversed_rhs(p1_slope_rhs(rp, nl))(0.0, (w, u))
        assert same(back[0], -out[0]) and same(back[1], -out[1])

    @given(st.floats(0.01, 1.56), st.floats(1e-3, 10.0), st.floats(-5.0, 5.0), CASES)
    @settings(max_examples=100, deadline=None)
    def test_every_chart_returns_two_floats(self, angle, radius, u, case):
        rp = ReducedParams(*case)
        nl = Nonlinearity(rp.p, rp.q)
        p1 = ReducedParams(1.0, 2.0, 1.0, 0.5)
        outs = [cartesian_rhs(rp, nl)(0.0, (radius, u)),
                polar_rhs(rp, nl)(0.0, (angle, radius)),
                slope_rhs(rp, nl)(0.0, (radius, u)),
                regularized_rhs(rp, nl)(0.0, (radius, u)),
                p1_slope_rhs(p1, Nonlinearity(1.0, 1.0))(0.0, (u, angle / 1.6)),
                p1_cartesian_rhs(p1, Nonlinearity(1.0, 1.0))(0.0, (radius, u))]
        for out in outs:
            assert type(out) is tuple and [type(x) for x in out] == [float, float]
