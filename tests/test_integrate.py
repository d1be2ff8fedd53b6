import math

import numpy as np
import pytest
from scipy.integrate import quad

from seplane.errors import IntegrationError, MaxStepsError, NoCrossingError
from seplane.fields import cartesian_rhs, p1_cartesian_rhs
from seplane.integrate import (
    EventSpec,
    IntegratorConfig,
    integrate,
    integrate_to_section,
)
from seplane.params import ReducedParams


def cubic_quarter_time_oracle():
    """Quarter period of w'' + w + w^3 = 0 from (0, 1) by energy quadrature.

    The energy fixes y^2 = 1 - w^2 - w^4/2 with apex A^2 = sqrt(3) - 1; the
    substitution w = A sin(phi) removes the turning-point singularity.
    """
    a2 = math.sqrt(3.0) - 1.0
    val, _ = quad(lambda ph: math.sqrt(2.0)
                  / math.sqrt(a2 * math.sin(ph) ** 2 + 1.0 + math.sqrt(3.0)),
                  0.0, math.pi / 2.0, epsabs=1e-13)
    return val, math.sqrt(a2)


class TestIntegrate:
    def test_zero_field(self):
        traj = integrate(lambda t, s: np.zeros(2), (1.0, 2.0), (0.0, 3.0))
        assert np.allclose(traj.states[-1], [1.0, 2.0])
        assert traj.events == []
        assert traj.status == "completed"

    def test_cubic_quarter_period_against_energy_oracle(self, duffing_soft):
        rp, nl = duffing_soft
        oracle, apex = cubic_quarter_time_oracle()
        traj = integrate(cartesian_rhs(rp, nl), (0.0, 1.0), (0.0, 50.0),
                         events=[EventSpec("y=0", lambda t, s: s[1],
                                           terminal=True, direction=-1)])
        ev = traj.events[0]
        assert abs(ev.tau - oracle) < 1e-7
        assert abs(ev.state[0] - apex) < 1e-9
        assert abs(ev.state[1]) < 1e-10

    def test_p1_circle_quarter(self, p1_power):
        # the unique sign-changing p = 1 orbit is the circle of radius b + 1
        rp = ReducedParams(1.0, 2.0, 1.0, 0.0)
        traj = integrate(p1_cartesian_rhs(rp, p1_power), (0.0, 2.0), (0.0, 10.0),
                         events=[EventSpec("y=0", lambda t, s: s[1],
                                           terminal=True, direction=-1),
                                 EventSpec("w=0", lambda t, s: s[0])])
        ev = traj.events[-1]
        assert ev.kind == "y=0"
        assert abs(ev.tau - math.pi / 2.0) < 1e-8
        assert abs(ev.state[0] - 2.0) < 1e-8
        radii = np.hypot(traj.states[:, 0], traj.states[:, 1])
        assert np.max(np.abs(radii - 2.0)) < 1e-8

    def test_time_reversal(self, duffing_soft):
        rp, nl = duffing_soft
        rhs = cartesian_rhs(rp, nl)
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        fwd = integrate(rhs, (0.3, 0.4), (0.0, 5.0), cfg=cfg)
        back = integrate(rhs, fwd.states[-1], (5.0, 0.0), cfg=cfg)
        assert np.max(np.abs(back.states[-1] - [0.3, 0.4])) < 100 * cfg.rel_tol

    def test_tolerance_halving(self, duffing_soft, center_case):
        for (rp, nl), start in ((duffing_soft, (0.2, 0.5)),
                                (center_case, (0.0, 1.5)),
                                (center_case, (0.6, 0.0))):
            rhs = cartesian_rhs(rp, nl)
            terminal = []
            for rtol in (1e-8, 5e-9):
                cfg = IntegratorConfig(rel_tol=rtol, abs_tol=1e-12)
                terminal.append(
                    integrate(rhs, start, (0.0, 10.0), cfg=cfg).states[-1])
            assert np.max(np.abs(terminal[0] - terminal[1])) < 10 * 1e-8

    def test_event_residual(self, duffing_soft):
        rp, nl = duffing_soft
        traj = integrate(cartesian_rhs(rp, nl), (0.0, 1.0), (0.0, 12.0),
                         events=[EventSpec("y=0", lambda t, s: s[1]),
                                 EventSpec("w=0", lambda t, s: s[0])])
        assert traj.events
        for ev in traj.events:
            value = ev.state[1] if ev.kind == "y=0" else ev.state[0]
            assert abs(value) < 1e-10

    def test_monotone_taus_and_immutability(self, duffing_soft):
        rp, nl = duffing_soft
        traj = integrate(cartesian_rhs(rp, nl), (0.0, 1.0), (0.0, 3.0))
        assert np.all(np.diff(traj.taus) > 0.0)
        with pytest.raises(ValueError):
            traj.states[0, 0] = 9.9

    def test_max_steps(self, duffing_soft):
        rp, nl = duffing_soft
        cfg = IntegratorConfig(max_steps=5, max_step=1e-3)
        with pytest.raises(MaxStepsError):
            integrate(cartesian_rhs(rp, nl), (0.0, 1.0), (0.0, 10.0), cfg=cfg)

    def test_dense_output_matches_nodes(self, duffing_soft):
        rp, nl = duffing_soft
        traj = integrate(cartesian_rhs(rp, nl), (0.0, 1.0), (0.0, 2.0), dense=True)
        mid = traj.sample(traj.taus)
        assert np.max(np.abs(mid - traj.states)) < 1e-9

    def test_programming_error_in_step_propagates(self):
        with pytest.raises(IndexError):
            integrate(lambda t, s: -s if t < 0.5 else s[5], (1.0, 2.0), (0.0, 1.0))

    def test_overflow_in_step_is_integration_error(self):
        # the solver's constructor evaluates the rhs near t = 0 only
        def rhs(t, s):
            if t > 0.5:
                raise OverflowError("(34, 'Numerical result out of range')")
            return -s

        with pytest.raises(IntegrationError):
            integrate(rhs, (1.0, 2.0), (0.0, 1.0))


class TestAdvanceToAxis:
    """Advancing a start point to its first crossing of an axis or of a line
    through the origin."""

    def test_w_axis_crossing_at_half_period(self, duffing_soft):
        rp, nl = duffing_soft
        rhs = cartesian_rhs(rp, nl)
        quarter, _ = integrate_to_section(rhs, (1e-9, 1.0), 1000.0)
        traj = integrate(rhs, (1e-9, 1.0), (0.0, 1000.0),
                         events=[EventSpec("w=0", lambda t, s: s[0], terminal=True)])
        ev = traj.events[-1]
        assert abs(ev.tau - 2.0 * quarter) < 1e-7
        assert ev.state[1] == pytest.approx(-1.0, abs=1e-7)

    def test_p1_circle_crossing_by_symmetry(self, p1_power):
        # direct integration cannot track the circle into the singular line
        # (transverse deviations grow without bound approaching w = 0), so
        # the crossing time follows from the quarter time by reflection
        rp = ReducedParams(1.0, 2.0, 1.0, 0.0)
        quarter, traj = integrate_to_section(p1_cartesian_rhs(rp, p1_power),
                                             (0.0, 2.0), 1000.0)
        assert abs(2.0 * quarter - math.pi) < 2e-8
        assert abs(traj.states[-1][0] - 2.0) < 1e-8

    def test_slope_locus(self, center_case):
        rp, nl = center_case
        eta = 0.6
        traj = integrate(cartesian_rhs(rp, nl), (0.4, 0.6), (0.0, 1000.0),
                         events=[EventSpec("slope", lambda t, s: s[1] - eta * s[0],
                                           terminal=True)])
        state = traj.events[-1].state
        assert abs(state[1] - eta * state[0]) < 1e-9

    def test_no_crossing(self, duffing_soft):
        rp, nl = duffing_soft
        # the quarter orbit from (0, 1) takes about 1.4 to reach the section
        with pytest.raises(NoCrossingError):
            integrate_to_section(cartesian_rhs(rp, nl), (0.0, 1.0), 1.0)
