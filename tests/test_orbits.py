import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from seplane.errors import DegenerateCriticalError, DomainError, IntegrationError
from seplane.fields import cartesian_rhs, regularized_rhs
from seplane.integrate import EventSpec, IntegratorConfig, integrate
from seplane.orbits import (
    CLOSED_AROUND_CENTER,
    CLOSED_AROUND_ORIGIN,
    DEGENERATE_CRITICAL,
    HOMOCLINIC,
    classify_orbit,
    conserved_quantity,
    first_integral,
    first_integral_p1,
    first_integral_u,
    shoot_homoclinic,
)
from seplane.params import (
    Nonlinearity,
    ProblemParams,
    ReducedParams,
    reduce_params,
    reduced_nonlinearity,
    slope_map,
    slope_map_inv,
    slope_map_primitive,
    slope_potential,
    slope_potential_min,
    stationary_abscissa,
)

from conftest import rel_err

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


class TestClassify:
    def test_center_orbit(self, center_case):
        rp, nl = center_case
        a = stationary_abscissa(rp, nl)
        oc = classify_orbit((a / 2.0, 0.0), rp, nl)
        assert oc.tag == CLOSED_AROUND_CENTER
        assert oc.witness["left"] < a < oc.witness["right"]

    def test_exterior_orbit(self, center_case):
        rp, nl = center_case
        oc = classify_orbit((0.0, 5.0), rp, nl)
        assert oc.tag == CLOSED_AROUND_ORIGIN

    def test_all_orbits_circle_origin_when_no_center(self, duffing_soft):
        rp, nl = duffing_soft
        for start in [(0.5, 0.5), (2.0, 0.1), (0.1, 2.0)]:
            oc = classify_orbit(start, rp, nl)
            assert oc.tag == CLOSED_AROUND_ORIGIN
            assert oc.witness["axis_state"][1] > 0.0
            assert oc.witness["tau_back"] > 0.0   # measured back on a falling span

    def test_homoclinic_start(self, center_case):
        rp, nl = center_case
        orb = shoot_homoclinic(rp, nl, TIGHT)
        mid = orb.trajectory.states[len(orb.trajectory.states) // 4]
        oc = classify_orbit(tuple(mid), rp, nl, origin_shrink=1e-5,
                            slope_tol=1e-2)
        assert oc.tag == HOMOCLINIC
        assert abs(oc.witness["slope"] - 1.0) < 1e-2

    @pytest.mark.parametrize("sign,tag", [(-1.0, CLOSED_AROUND_CENTER),
                                          (1.0, CLOSED_AROUND_ORIGIN)])
    def test_branch_passing_the_origin_ball(self, center_case, sign, tag):
        # on the level sign * eps of the energy y^2/2 - w^2/2 + w^4/4 the
        # backward branch passes the origin at about sqrt(2 eps) = 0.8 delta,
        # so it crosses the delta ball at a slope near 0.5 (inside) or 2
        # (outside), not at the root slope 1, and leaves it again
        rp, nl = center_case
        shrink = 1e-2
        delta = shrink * math.hypot(1.0, math.sqrt(0.5))
        eps = sign * (0.8 * delta) ** 2 / 2.0
        start = (1.0, math.sqrt(2.0 * eps + 0.5))
        assert classify_orbit(start, rp, nl, origin_shrink=shrink).tag == tag

    def test_degenerate_band(self):
        eta, emin = slope_potential_min(3.0, 10.0)
        rp = ReducedParams(3.0, 5.0, 10.0, emin)
        oc = classify_orbit((0.5, 0.5), rp, Nonlinearity(3.0, 5.0))
        assert oc.tag == DEGENERATE_CRITICAL

    def test_bounded_orbits(self, center_case):
        rp, nl = center_case
        for start in [(0.0, 3.0), (0.5, 0.1), (2.5, 1.0)]:
            oc = classify_orbit(start, rp, nl)
            assert oc.witness.get("max_radius", 0.0) < 1e3 * math.hypot(*start)

    def test_invalid_start(self, duffing_soft):
        rp, nl = duffing_soft
        with pytest.raises(DomainError):
            classify_orbit((0.0, 0.0), rp, nl)
        with pytest.raises(DomainError):
            classify_orbit((-1.0, 0.5), rp, nl)

    def test_inconclusive_reports_diagnostics(self, center_case, monkeypatch):
        from seplane import orbits
        from seplane.errors import InconclusiveOrbitError

        rp, nl = center_case
        monkeypatch.setattr(orbits, "CLASSIFY_HORIZON", 0.01)
        with pytest.raises(InconclusiveOrbitError) as exc:
            classify_orbit((0.5, 0.1), rp, nl)
        assert "max_radius" in exc.value.diagnostics


class TestShooting:
    def test_slope_and_apex_from_energy_oracle(self, center_case):
        # at p = 2, q = 3 the energy y^2/2 - (b+d) w^2/2 + w^4/4 vanishes on
        # the separatrix, so the apex sits at w = sqrt(2 (b+d))
        rp, nl = center_case
        orb = shoot_homoclinic(rp, nl, TIGHT)
        assert abs(orb.m_initial - math.sqrt(rp.d + rp.b)) < 1e-6
        assert abs(orb.apex_w - math.sqrt(2.0 * (rp.b + rp.d))) < 1e-9

    def test_zero_d_slope(self):
        rp = ReducedParams(3.0, 5.0, 1.0, 0.0)
        orb = shoot_homoclinic(rp, Nonlinearity(3.0, 5.0), TIGHT)
        assert abs(orb.m_initial - math.sqrt(rp.b / (rp.p - 1.0))) < 1e-6

    def test_offset_refinement(self, center_case):
        rp, nl = center_case
        a1 = shoot_homoclinic(rp, nl, TIGHT, offset=1e-8).apex_w
        a2 = shoot_homoclinic(rp, nl, TIGHT, offset=1e-9).apex_w
        assert rel_err(a1, a2) < 1e-6

    def test_b1_level_and_slope_equation(self):
        # on the b = 1 separatrix the first integral vanishes and the
        # transformed slope solves the reduced first-order equation
        rp = ReducedParams(1.5, 2.0, 1.0, 0.5)
        nl = Nonlinearity(1.5, 2.0)
        orb = shoot_homoclinic(rp, nl, TIGHT)
        p, q = rp.p, rp.q
        vals = [first_integral((w, y), rp, nl)
                for w, y in orb.trajectory.states if w > 1e-12]
        assert max(abs(v) for v in vals) < 1e-7
        for w, y in orb.trajectory.states[20:-20:50]:
            if y <= 0.0 or w <= 0.0:
                continue
            xi = y / w
            u = slope_map(xi, p)
            du_field = -slope_potential(xi, p, rp.b) - nl.h(w) + rp.d
            du_reduced = (q + 1.0 - p) / p * (slope_potential(xi, p, rp.b) - rp.d)
            assert abs(du_field - du_reduced) < 1e-6 * (1.0 + abs(du_reduced))

    def test_apex_exceeds_center(self, center_case):
        rp, nl = center_case
        orb = shoot_homoclinic(rp, nl, TIGHT)
        assert orb.apex_w > stationary_abscissa(rp, nl)

    def test_second_branch_root(self):
        # (p-2) b > 2 (p-1) with min E < d <= -b: shooting uses the upper root
        rp = ReducedParams(3.0, 5.0, 10.0, -10.5)
        nl = Nonlinearity(3.0, 5.0)
        orb = shoot_homoclinic(rp, nl, TIGHT)
        eta, emin = slope_potential_min(3.0, 10.0)
        m2 = brentq(lambda x: slope_potential(x, 3.0, 10.0) - rp.d, eta, 10.0)
        assert abs(orb.m_initial - m2) < 1e-6

    def test_infinite_family_regime_slope(self):
        # launches below the threshold approach the origin backward with the
        # lower slope root
        rp = ReducedParams(3.0, 5.0, 10.0, -10.5)
        nl = Nonlinearity(3.0, 5.0)
        eta, emin = slope_potential_min(3.0, 10.0)
        m1 = brentq(lambda x: slope_potential(x, 3.0, 10.0) - rp.d, 1e-8, eta)
        wt = 0.5 * (rp.d - emin) ** (1.0 / 3.0)
        assert nl.h(wt) <= rp.d - emin
        start = (wt, eta * wt)
        rho0 = math.hypot(*start)
        traj = integrate(cartesian_rhs(rp, nl), start, (0.0, -200.0),
                         events=[EventSpec("origin",
                                           lambda t, s: math.hypot(s[0], s[1])
                                           - 1e-6 * rho0,
                                           terminal=True, direction=-1)],
                         cfg=TIGHT)
        state = traj.events[-1].state
        assert abs(state[1] / state[0] - m1) < 1e-4

    def test_subquadratic_diffusion_shot(self):
        rp = reduce_params(ProblemParams(1.5, 2.5, 1.0))
        nl = Nonlinearity(1.5, 2.5)
        orb = shoot_homoclinic(rp, nl, TIGHT)
        orb2 = shoot_homoclinic(rp, nl, TIGHT, offset=1e-9)
        assert rel_err(orb.apex_w, orb2.apex_w) < 1e-9
        assert abs(slope_potential(orb.m_initial, rp.p, rp.b) - rp.d) < 1e-6

    @pytest.mark.parametrize("p", [1.0001, 1.003, 1.02])
    def test_near_p1_shot_keeps_the_b1_level(self, p):
        # the saddle's eigenvalues grow like 1/(p-1) as p falls to 1, and
        # the first step's stages overshoot the ascent to v < 0 or past the
        # slope map's range; such a stage shrinks the step. The separatrix
        # keeps the b = 1 first integral at 0 (the default config: 2.8e-10
        # at most over p = 1.0001, 1.001, 1.003, 1.01, 1.02 and d = 0.5, 2)
        rp, nl = ReducedParams(p, 2.0, 1.0, 2.0), Nonlinearity(p, 2.0)
        orb = shoot_homoclinic(rp, nl)
        vals = [first_integral((w, y), rp, nl) for w, y in orb.trajectory.states if w > 1e-12]
        assert max(map(abs, vals)) < 1e-8
        tighter = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
        assert orb.apex_w == pytest.approx(shoot_homoclinic(rp, nl, tighter).apex_w, rel=1e-10)

    def test_slope_map_too_flat_at_the_saddle(self):
        # at p = 1 + 1e-5 the inverse slope map has condition 1e5 at the
        # saddle's slope m = 5e4, so a float u fixes m only to 2.2e-11:
        # enough for rel_tol 1e-10, not for 1e-12
        rp, nl = ReducedParams(1.00001, 2.0, 1.0, 0.5), Nonlinearity(1.00001, 2.0)
        assert shoot_homoclinic(rp, nl).apex_w == pytest.approx(2.12132, rel=1e-5)
        with pytest.raises(IntegrationError, match="slope map at p=1.00001 is too flat"):
            shoot_homoclinic(rp, nl, TIGHT)

    def test_degenerate_band_refused(self):
        eta, emin = slope_potential_min(3.0, 10.0)
        rp = ReducedParams(3.0, 5.0, 10.0, emin)
        with pytest.raises(DegenerateCriticalError):
            shoot_homoclinic(rp, Nonlinearity(3.0, 5.0))

    def test_no_root_regime(self, duffing_soft):
        rp, nl = duffing_soft
        with pytest.raises(DomainError):
            shoot_homoclinic(rp, nl)

    def test_slope_monotone_on_quarter_orbit(self, duffing_soft):
        # on an origin-surrounding quarter orbit the slope falls from
        # arbitrarily large values to zero
        rp, nl = duffing_soft
        traj = integrate(cartesian_rhs(rp, nl), (1e-6, 1.0), (0.0, 10.0),
                         events=[EventSpec("y=0", lambda t, s: s[1],
                                           terminal=True, direction=-1)],
                         cfg=TIGHT, dense=True)
        ts = np.linspace(1e-4, traj.events[-1].tau - 1e-4, 300)
        wy = traj.sample(ts)
        slopes = wy[:, 1] / wy[:, 0]
        assert np.all(np.diff(slopes) < 0.0)
        assert slopes[0] > 100.0 and slopes[-1] < 0.05


class TestConservedQuantity:
    @given(st.floats(1.2, 8.0), st.floats(-5.0, 5.0), st.floats(0.0, 3.0),
           st.floats(0.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_continuous_across_the_p2_seam(self, q, c, w, y):
        # one ulp either side of p = 2 the energy still applies, and its value
        # moves by at most 1e-12 of its largest term (about 2e-14 measured)
        vals, terms = [], []
        for p in (math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0)):
            params = ProblemParams(p, q, c)
            rp, nl = reduce_params(params), reduced_nonlinearity(params)
            integral = conserved_quantity(rp, nl)
            assert integral is not None, f"no conserved quantity at p = {p!r}"
            vals.append(integral(w, y))
            terms += [y * y / 2.0, abs(rp.b + rp.d) * w * w / 2.0, nl.F(w)]
        assert max(vals) - min(vals) <= 1e-12 * max(terms)

    @given(st.floats(0.5, 8.0), st.floats(-5.0, 5.0), st.floats(0.0, 10.0),
           st.floats(-1e12, 1e12))
    @example(3.0, 0.5, 1e-8, 1e8)        # (w, y) = (1e-8, 1): u rounds to 1
    @example(3.0, 0.5, 1e-9, 1e12)       # the w cut itself
    @example(3.0, 0.5, 1.0, 1e200)       # xi^2 overflows, and u would read 0
    @settings(max_examples=200, deadline=None)
    def test_p1_value_or_none_at_every_slope(self, q, c, w, ratio):
        # at p = 1 the quantity is read through u = xi / sqrt(1 + xi^2), which
        # is exactly +-1 from |xi| = 2^27 on; there it has no value, as at
        # w <= 1e-9, and below |xi| = 1e7 it has a finite one
        params = ProblemParams(1.0, q, c)
        integral = conserved_quantity(reduce_params(params), reduced_nonlinearity(params))
        y = w * ratio
        value = integral(w, y)
        if w <= 1e-9 or abs(y / w) >= 2.0**27:
            assert value is None
        elif abs(y / w) < 1e7:
            assert type(value) is float and math.isfinite(value)
        else:
            assert value is None or (type(value) is float and math.isfinite(value))

    @given(st.floats(-30.0, 30.0))
    @settings(max_examples=50, deadline=None)
    def test_none_off_every_integrable_family(self, c):
        params = ProblemParams(3.0, 5.0, c)
        rp = reduce_params(params)
        assert abs(rp.b - 1.0) > 1e-12
        assert conserved_quantity(rp, reduced_nonlinearity(params)) is None


class TestFirstIntegralP2Family:
    def test_axis_value(self):
        rp = ReducedParams(2.0, 3.0, 1.0, 0.0)
        nl = Nonlinearity(2.0, 3.0)
        assert first_integral((0.0, 1.3), rp, nl) == pytest.approx(1.3**2 / 2.0)

    def test_turning_point_expression(self):
        rp = ReducedParams(2.5, 4.0, 1.0, 0.7)
        nl = Nonlinearity(2.5, 4.0)
        for w in (0.3, 0.9, 1.4):
            expected = -(1.0 + rp.d) * w**rp.p / rp.p + nl.F(w)
            assert first_integral((w, 0.0), rp, nl) == pytest.approx(expected, rel=1e-14)

    def test_requires_unit_b(self, duffing_soft):
        rp, nl = duffing_soft
        with pytest.raises(DomainError):
            first_integral((0.5, 0.5), rp, nl)

    def test_conserved_along_orbit(self):
        rp = ReducedParams(2.5, 4.0, 1.0, 0.5)
        nl = Nonlinearity(2.5, 4.0)
        traj = integrate(cartesian_rhs(rp, nl), (0.0, 1.2), (0.0, 6.0),
                         cfg=TIGHT, dense=True)
        samples = traj.sample(np.linspace(0.0, 6.0, 200))
        vals = [first_integral((w, y), rp, nl) for w, y in samples]
        assert max(vals) - min(vals) < 1e-7 * max(1.0, abs(vals[0]))


class TestFirstIntegralP1:
    def test_b1_closed_form(self, p1_power):
        rp = ReducedParams(1.0, 2.0, 1.0, 0.0)
        for w, u in [(0.5, 0.2), (1.4, -0.6)]:
            expected = w * math.sqrt(1.0 - u * u) - w * w / 2.0
            assert first_integral_p1((w, u), rp, p1_power) == pytest.approx(expected)

    def test_constant_solution_level(self, p1_power):
        # the center sits on the level a^(b+1)/(b(b+1))
        for b, d in [(1.0, 0.0), (1.0, 0.8), (2.0, 0.5), (-0.5, 1.0)]:
            rp = ReducedParams(1.0, 2.0, b, d)
            a = b + d
            level = first_integral_p1((a, 0.0), rp, p1_power)
            assert level == pytest.approx(a ** (b + 1.0) / (b * (b + 1.0)), rel=1e-12)

    def test_explicit_family_level(self, p1_power):
        # w = sqrt(1 - K^2 sin^2 t) - K cos t carries the level (1 - K^2)/2
        rp = ReducedParams(1.0, 2.0, 1.0, 0.0)
        for K in (0.3, 0.7):
            tau = np.linspace(0.1, math.pi - 0.1, 50)
            A = np.sqrt(1.0 - K * K * np.sin(tau) ** 2)
            w = A - K * np.cos(tau)
            wprime = -K * K * np.sin(tau) * np.cos(tau) / A + K * np.sin(tau)
            xi = wprime / w
            u = xi / np.sqrt(1.0 + xi * xi)
            vals = [first_integral_p1((wi, ui), rp, p1_power)
                    for wi, ui in zip(w, u)]
            assert np.max(np.abs(np.array(vals) - (1.0 - K * K) / 2.0)) < 1e-10

    def test_domain(self, p1_power):
        rp = ReducedParams(1.0, 2.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            first_integral_p1((0.0, 0.5), rp, p1_power)
        with pytest.raises(DomainError):
            first_integral_p1((1.0, 1.0), rp, p1_power)


class TestFirstIntegralU:
    def test_turning_point(self):
        rp = ReducedParams(3.0, 5.0, 1.0, 0.3)
        ustar = 0.8
        psi = slope_map_primitive(ustar, 3.0)
        expected = 2.0 * (1.0 + rp.d) * psi - 3.0 * psi * psi
        assert first_integral_u(ustar, 0.0, rp) == pytest.approx(expected)

    def test_conserved_along_flow(self):
        rp = ReducedParams(3.0, 5.0, 1.0, 0.3)
        nl = Nonlinearity(3.0, 5.0)
        arc = integrate(regularized_rhs(rp, nl), (0.5, 0.1), (0.0, 4.0),
                        cfg=TIGHT, dense=True)
        v, u = arc.sample(np.linspace(0.0, 4.0, 200)).T
        du = -slope_potential(slope_map_inv(u, rp.p), rp.p, rp.b) - v + rp.d
        vals = [first_integral_u(ui, dui, rp) for ui, dui in zip(u, du)]
        assert max(vals) - min(vals) < 1e-8 * max(1.0, abs(vals[0]))

    def test_p2_reduction_against_quadrature(self):
        # at p = 2, q = 3 the potential is 2 (1+d) Psi - 2 Psi^2 with
        # Psi = u^2/2; cross-check Psi by quadrature of the inverse map
        rp = ReducedParams(2.0, 3.0, 1.0, 0.0)
        for u in (0.4, 1.1):
            psi, _ = quad(lambda s: slope_map_inv(s, 2.0), 0.0, u, epsabs=1e-13)
            expected = 2.0 * psi - 2.0 * psi * psi
            assert first_integral_u(u, 0.0, rp) == pytest.approx(expected, rel=1e-10)

    def test_regime_guard(self):
        with pytest.raises(DomainError):
            first_integral_u(0.5, 0.1, ReducedParams(3.0, 4.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            first_integral_u(0.5, 0.1, ReducedParams(3.0, 5.0, 0.5, 0.0))
