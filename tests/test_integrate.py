import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from seplane.errors import (
    DomainError,
    IntegrationError,
    MaxStepsError,
    NoCrossingError,
    StepUnderflowError,
)
from seplane.fields import cartesian_rhs, p1_cartesian_rhs
from seplane.integrate import (
    SECTION,
    EventSpec,
    IntegratorConfig,
    _dp_step,
    _quartic,
    integrate,
    integrate_to_section,
)
from seplane.params import (
    ProblemParams,
    ReducedParams,
    critical_potential,
    reduce_params,
    reduced_nonlinearity,
)


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

    def test_dense_coefficients_are_each_steps_quartic(self, duffing_soft):
        # a run that ends at a terminal event, whose last step spans past it
        rp, nl = duffing_soft
        rhs, cfg = cartesian_rhs(rp, nl), IntegratorConfig()
        traj = integrate(rhs, (0.0, 1.0), (0.0, 1e4), events=[SECTION], cfg=cfg, dense=True)
        assert traj.status == "terminal-event"
        dense = traj.dense
        assert len(dense.q) == len(dense.h) == len(traj.taus) - 1
        for i in range(len(dense.q)):
            t, (y0, y1) = float(traj.taus[i]), traj.states[i].tolist()
            # the step's stages again, from its start and its size
            *_, k = _dp_step(rhs, t, float(dense.h[i]), y0, y1, *rhs(t, (y0, y1)),
                             cfg.rel_tol, cfg.abs_tol)
            assert np.array_equal(dense.q[i], np.reshape(_quartic(k), (2, 4)))

    def test_programming_error_in_step_propagates(self):
        with pytest.raises(IndexError):
            integrate(lambda t, s: (-s[0], -s[1]) if t < 0.5 else s[5], (1.0, 2.0), (0.0, 1.0))

    def test_overflow_in_step_is_integration_error(self):
        # the solver's constructor evaluates the rhs near t = 0 only
        def rhs(t, s):
            if t > 0.5:
                raise OverflowError("(34, 'Numerical result out of range')")
            return -s[0], -s[1]

        with pytest.raises(IntegrationError):
            integrate(rhs, (1.0, 2.0), (0.0, 1.0))

    def test_error_on_first_call_propagates_as_raised(self):
        def rhs(t, s):
            raise DomainError("start outside the chart")

        with pytest.raises(DomainError) as info:
            integrate(rhs, (1.0, 2.0), (0.0, 1.0))
        assert not isinstance(info.value, IntegrationError)

    @pytest.mark.parametrize("start,span,message", [
        ((1.0, 0.0), (0.0, 2.0), "shrank below 1e-14 of the span"),
        ((-1.0, 0.0), (0.0, -2.0), "shrank below 1e-14 of the span"),
        # ten ulps of tau = 1e20 exceed the steps that the blow-up allows
        ((1e-5, 0.0), (1e20, 1e20 + 1e6), "step size underflow at tau=1e\\+20"),
    ], ids=["forward", "backward", "ten-ulp-floor"])
    def test_blow_up_is_step_underflow(self, start, span, message):
        # y' = y^2 leaves every float at tau = tau_0 + 1/y_0
        with pytest.raises(StepUnderflowError, match=message):
            integrate(lambda t, s: np.array([s[0] ** 2, 0.0]), start, span)

    def test_rhs_and_monitors_receive_float_tuples(self, duffing_soft):
        rp, nl = duffing_soft
        field = cartesian_rhs(rp, nl)
        seen_rhs, seen_monitor, returned = [], [], []

        def rhs(t, s):
            seen_rhs.append(s)
            out = field(t, s)
            returned.append(out)
            return out

        def monitor(t, s):
            seen_monitor.append(s)
            return s[1]

        traj = integrate(rhs, (0.0, 1.0), (0.0, 3.0),
                         events=[EventSpec("y=0", monitor, terminal=True)])
        # the start, every step end and the brentq polish of the crossing
        assert traj.status == "terminal-event"
        assert len(seen_monitor) > len(traj.taus)
        for pair in (*seen_rhs, *seen_monitor, *returned):
            assert type(pair) is tuple and len(pair) == 2
            assert all(type(x) is float for x in pair)
        state = traj.events[0].state
        assert state.dtype == float and state.shape == (2,)
        assert not state.flags.writeable

    def test_planar_states_only(self):
        with pytest.raises(DomainError):
            integrate(lambda t, s: (-s[0], -s[1]), (1.0, 2.0, 3.0), (0.0, 1.0))


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


def oracle_cases(n=12, seed=7):
    """Seeded (p, q, c, nu), p in (1.2, 4.5), c alternately below and above
    c_q, with the Cartesian rhs of each."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        p = rng.uniform(1.2, 4.5)
        q = p - 1.0 + rng.uniform(0.3, 5.0)
        cq = critical_potential(p, q)
        c = cq + (1.0 if i % 2 else -1.0) * rng.uniform(0.1, 3.0) * max(1.0, abs(cq))
        params = ProblemParams(p, q, c)
        rhs = cartesian_rhs(reduce_params(params), reduced_nonlinearity(params))
        yield pytest.param(rhs, 10.0 ** rng.uniform(-1.0, 1.0),
                           id=f"p{p:.2f}-c{'+' if c > cq else '-'}{i}")


def scipy_rk45(rhs, start, span, cfg=IntegratorConfig(), events=(), dense=False):
    return solve_ivp(rhs, span, list(start), method="RK45", rtol=cfg.rel_tol,
                     atol=cfg.abs_tol, events=list(events), dense_output=dense)


def y_falling(t, y):
    return y[1]


y_falling.terminal, y_falling.direction = True, -1


class TestAgainstScipyRK45:
    """The float stepper runs the arithmetic and step control of scipy's RK45,
    which serves as the oracle at the same tolerances."""

    @pytest.mark.parametrize("rhs,nu", oracle_cases())
    def test_quarter_orbit(self, rhs, nu):
        tau, traj = integrate_to_section(rhs, (0.0, nu), 1e4)
        ref = scipy_rk45(rhs, (0.0, nu), (0.0, 1e4), events=[y_falling])
        ref_tau, ref_state = ref.t_events[0][0], ref.y_events[0][0]
        assert abs(tau - ref_tau) <= 1e-9 * ref_tau
        assert np.max(np.abs(traj.events[-1].state - ref_state)) \
            <= 1e-9 * np.max(np.abs(ref_state))
        steps, ref_steps = len(traj.taus) - 1, len(ref.t) - 1
        assert abs(steps - ref_steps) <= 0.01 * ref_steps
        assert abs(traj.events[-1].state[1]) < 1e-10

    @pytest.mark.parametrize("rhs,nu", list(oracle_cases(4, seed=11)))
    def test_backward_span_and_dense_output(self, rhs, nu):
        span = (3.0, -2.0)
        traj = integrate(rhs, (0.0, nu), span, dense=True)
        ref = scipy_rk45(rhs, (0.0, nu), span, dense=True)
        assert traj.status == "completed" and traj.taus[-1] == span[1]
        assert np.all(np.diff(traj.taus) < 0.0)
        assert abs(len(traj.taus) - len(ref.t)) <= 0.01 * len(ref.t)
        scale = np.max(np.abs(ref.y))
        assert np.max(np.abs(traj.states[-1] - ref.y[:, -1])) <= 1e-9 * scale
        ts = np.linspace(*span, 301)
        assert np.max(np.abs(traj.sample(ts) - ref.sol(ts).T)) <= 1e-9 * scale

    def test_backward_events(self, duffing_soft):
        rp, nl = duffing_soft
        rhs = cartesian_rhs(rp, nl)
        traj = integrate(rhs, (0.3, 0.8), (0.0, -12.0),
                         events=[EventSpec("w=0", lambda t, s: s[0]),
                                 EventSpec("y=0", lambda t, s: s[1])])

        def w_axis(t, y):
            return y[0]

        def y_axis(t, y):
            return y[1]

        ref = scipy_rk45(rhs, (0.3, 0.8), (0.0, -12.0), events=[w_axis, y_axis])
        expected = sorted([(t, "w=0") for t in ref.t_events[0]]
                          + [(t, "y=0") for t in ref.t_events[1]], reverse=True)
        assert len(expected) >= 6
        assert [ev.kind for ev in traj.events] == [k for _, k in expected]
        assert max(abs(ev.tau - t) for ev, (t, _) in zip(traj.events, expected)) < 1e-9
        for ev in traj.events:
            assert abs(ev.state[0 if ev.kind == "w=0" else 1]) < 1e-10

    @pytest.mark.parametrize("rhs,nu", list(oracle_cases(4, seed=3)))
    def test_sample_at_nodes_and_events(self, rhs, nu):
        events = [EventSpec("w=0", lambda t, s: s[0]),
                  EventSpec("slope", lambda t, s: s[1] - 0.5 * s[0])]
        traj = integrate(rhs, (0.0, nu), (0.0, 20.0), events=events, dense=True)
        assert np.max(np.abs(traj.sample(traj.taus) - traj.states)) <= 1e-12 * max(
            1.0, np.max(np.abs(traj.states)))
        assert traj.events
        for ev in traj.events:
            s = ev.state
            assert abs(s[0] if ev.kind == "w=0" else s[1] - 0.5 * s[0]) < 1e-10
            # an event state is the interpolant's value at its time
            assert np.array_equal(traj.sample(ev.tau), s)
