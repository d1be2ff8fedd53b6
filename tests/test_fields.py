import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seplane.errors import DomainError, SingularFieldError, SingularOriginError
from seplane.fields import (
    check_scaling_conditions,
    field_cartesian,
    field_p1_cartesian,
    field_p1_slope,
    field_polar,
    field_regularized,
    field_slope,
    p1_slope_rhs,
)
from seplane.integrate import IntegratorConfig, integrate
from seplane.orbits import saddle_data
from seplane.params import (
    Nonlinearity,
    ReducedParams,
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
        fv = field_cartesian((a, 0.0), rp, nl)
        assert math.hypot(fv.d1, fv.d2) < 1e-13

    def test_p2_collapse(self, duffing_soft):
        # at p = 2 the second component collapses to (b+d) w - f(w)
        rp, nl = duffing_soft
        fv = field_cartesian((1.0, 0.0), rp, nl)
        assert fv == (0.0, -2.0)
        for w, y in [(0.5, 0.3), (1.2, -0.7)]:
            fv = field_cartesian((w, y), rp, nl)
            assert fv.d1 == y
            assert fv.d2 == pytest.approx((rp.b + rp.d) * w - w**3, rel=1e-14)

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
        f = field_cartesian((w, y), rp, nl)
        g = field_cartesian((-w, -y), rp, nl)
        assert abs(f.d1 + g.d1) <= 1e-14 * (1.0 + abs(f.d1))
        assert abs(f.d2 + g.d2) <= 1e-14 * (1.0 + abs(f.d2))
        h = field_cartesian((w, -y), rp, nl)
        assert abs(h.d1 + f.d1) <= 1e-14 * (1.0 + abs(f.d1))
        assert abs(h.d2 - f.d2) <= 1e-14 * (1.0 + abs(f.d2))


class TestChartConsistency:
    @given(st.floats(0.05, 2.0), st.floats(0.05, 2.0),
           st.sampled_from([(2.0, 3.0, -1.0, 0.0), (3.0, 5.0, -3.0, 2.0),
                            (2.5, 4.0, -2.0, 4.0), (1.5, 2.0, 1.0, 0.5)]))
    @settings(max_examples=250, deadline=None)
    def test_pushforwards_match(self, w, y, case):
        rp = ReducedParams(*case)
        nl = Nonlinearity(rp.p, rp.q)
        f = field_cartesian((w, y), rp, nl)

        rho, theta = math.hypot(w, y), math.atan2(y, w)
        pol = field_polar(theta, rho, rp, nl)
        dtheta = (w * f.d2 - y * f.d1) / rho**2
        drho = (w * f.d1 + y * f.d2) / rho
        assert abs(pol.d1 - dtheta) <= 1e-9 * (1.0 + abs(dtheta))
        assert abs(pol.d2 - drho) <= 1e-9 * (1.0 + abs(drho))

        xi = y / w
        u = slope_map(xi, rp.p)
        sl = field_slope((w, u), rp, nl)
        du = slope_map_deriv(xi, rp.p) * (f.d2 - xi * f.d1) / w
        assert abs(sl.d1 - f.d1) <= 1e-9 * (1.0 + abs(f.d1))
        assert abs(sl.d2 - du) <= 1e-9 * (1.0 + abs(du))

        e = rp.q + 1.0 - rp.p
        rg = field_regularized((w**e, u), rp, nl)
        dv = e * w ** (e - 1.0) * f.d1
        assert abs(rg.d1 - dv) <= 1e-9 * (1.0 + abs(dv))
        assert abs(rg.d2 - du) <= 1e-9 * (1.0 + abs(du))


class TestPolar:
    def test_angle_rate_near_vertical(self, duffing_soft):
        rp, nl = duffing_soft
        fv = field_polar(math.pi / 2.0 - 1e-7, 1.0, rp, nl)
        assert fv.d1 == pytest.approx(-1.0, abs=1e-3)

    def test_stationary_limit(self, center_case):
        rp, nl = center_case
        a = stationary_abscissa(rp, nl)
        theta = 1e-9
        fv = field_polar(theta, a / math.cos(theta), rp, nl)
        assert abs(fv.d2) < 1e-8
        assert abs(fv.d1) < 1e-8

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
        fv = field_slope((a, 0.0), rp, nl)
        assert fv.d1 == 0.0
        assert abs(fv.d2) < 1e-14

    def test_critical_locus(self, center_case):
        # du = 0 exactly where h(w) = d - E(inverse slope image)
        from seplane.params import slope_map_inv, slope_potential

        rp, nl = center_case
        u = 0.4
        xi = slope_map_inv(u, rp.p)
        target = rp.d - slope_potential(xi, rp.p, rp.b)
        w = nl.h_inverse(target)
        fv = field_slope((w, u), rp, nl)
        assert abs(fv.d2) < 1e-13


class TestRegularized:
    def test_saddle_is_stationary(self, center_case):
        rp, nl = center_case
        sd = saddle_data(rp, nl)
        fv = field_regularized((0.0, sd["u_saddle"]), rp, nl)
        assert math.hypot(fv.d1, fv.d2) < 1e-12

    def test_linearization_by_finite_differences(self, center_case):
        # the Jacobian at the saddle is lower triangular; the finite
        # difference oracle pins both eigenvalues
        rp, nl = center_case
        sd = saddle_data(rp, nl)
        us = sd["u_saddle"]
        h = 1e-7

        def F(v, u):
            fv = field_regularized((v, u), rp, nl)
            return np.array([fv.d1, fv.d2])

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
        fv = field_p1_slope((0.4, 0.0), rp2, p1_power)
        assert fv.d2 == pytest.approx(1.0 - 0.4 + 0.7)
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
            fv = field_cartesian((w, y), rp, nl)
            # negate the source contribution: G + 2 f(w) rho^(4-p)/denominator
            rho2 = w * w + y * y
            den = w * w + (rp.p - 1.0) * y * y
            return fv.d1, fv.d2 + 2.0 * nl.f(w) * rho2 ** (2.0 - rp.p / 2.0) / den

        rep = check_scaling_conditions(rp, nl, planar_field=corrupted)
        assert not rep.satisfied
        assert rep.violations
