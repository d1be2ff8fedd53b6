import functools
import math
import operator
import re
import sys

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import DOP853, RK45, rk_step

from seplane.errors import (
    DomainError,
    IntegrationError,
    MaxStepsError,
    NoCrossingError,
    StepUnderflowError,
)
from seplane.fields import cartesian_rhs
from seplane.integrate import (
    _DOP853,
    _DOP853_D,
    _DOP853_DENSE,
    _DOP853_EXTENSION,
    _DOP853_POWERS,
    _DOP853_TABLEAU,
    _DP5,
    _DP5_TABLEAU,
    SECTION,
    EventSpec,
    IntegratorConfig,
    StageRejected,
    _dop853_coefficients,
    _dop853_norm,
    _extra_stages,
    _rms,
    _to_section,
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


def integrate_run(rhs, start, span, cfg=None):
    return integrate(rhs, start, span, cfg=cfg)


def dop853_run(rhs, start, span, cfg=None):
    """The run of integrate_to_section without dense output, over any span."""
    return _to_section(rhs, start, span, cfg or IntegratorConfig())


def dp5_run(rhs, start, span, cfg=None):
    """The same run on DP5, as an underflow rerun steps it."""
    return _to_section(rhs, start, span, cfg or IntegratorConfig(), dp5=True)


# the typed failures are the step-size controller's, which both pairs share
PAIR_RUNS = (integrate_run, dop853_run, dp5_run)


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
        traj = integrate(cartesian_rhs(rp, p1_power), (0.0, 2.0), (0.0, 10.0),
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

    def test_falling_span_orders_events_within_one_step(self):
        # w = 1 + tau falls through 0.5, 0.3 and 0.1 at tau = -0.5, -0.7 and
        # -0.9, all inside the last step; the run meets them latest tau first,
        # so "a" is recorded and "b", the first terminal one met, ends the run
        events = [EventSpec("c", lambda t, s: s[0] - 0.1, terminal=True),
                  EventSpec("b", lambda t, s: s[0] - 0.3, terminal=True),
                  EventSpec("a", lambda t, s: s[0] - 0.5)]
        traj = integrate(lambda t, s: (1.0, 0.0), (1.0, 0.0), (0.0, -2.0),
                         events=events)
        assert traj.taus[-2] > -0.5   # one step brackets all three
        assert [ev.kind for ev in traj.events] == ["a", "b"]
        assert [ev.tau for ev in traj.events] == pytest.approx([-0.5, -0.7], abs=1e-12)
        assert traj.status == "terminal-event" and traj.taus[-1] == traj.events[-1].tau

    def test_monotone_taus_and_immutability(self, duffing_soft):
        rp, nl = duffing_soft
        traj = integrate(cartesian_rhs(rp, nl), (0.0, 1.0), (0.0, 3.0))
        assert np.all(np.diff(traj.taus) > 0.0)
        with pytest.raises(ValueError):
            traj.states[0, 0] = 9.9

    def test_max_steps(self, duffing_soft):
        # the message names the tau reached and the state there: those of the
        # same run over the span that ends at that tau
        rp, nl = duffing_soft
        rhs = cartesian_rhs(rp, nl)
        cfg = IntegratorConfig(max_steps=5, max_step=1e-3)
        for run in PAIR_RUNS:
            with pytest.raises(MaxStepsError) as caught:
                run(rhs, (0.0, 1.0), (0.0, 10.0), cfg=cfg)
            found = re.fullmatch(r"exceeded 5 steps over tau in \(0\.0, 10\.0\): "
                                 r"reached tau=(\S+) at the state \((\S+), (\S+)\)",
                                 str(caught.value))
            assert found
            tau, w, y = map(float, found.groups())
            assert tau == pytest.approx(5e-3, rel=1e-12)
            short = run(rhs, (0.0, 1.0), (0.0, tau), cfg=IntegratorConfig(max_step=1e-3))
            assert len(short.taus) == 6 and short.states[-1].tolist() == [w, y]

    def test_dense_output_matches_nodes(self, duffing_soft):
        rp, nl = duffing_soft
        traj = integrate(cartesian_rhs(rp, nl), (0.0, 1.0), (0.0, 2.0), dense=True)
        mid = traj.sample(traj.taus)
        assert np.max(np.abs(mid - traj.states)) < 1e-9

    def test_dense_coefficients_are_each_steps_extension(self, duffing_soft):
        # a run that ends at a terminal event, whose last step spans past it:
        # each step's degree-7 coefficients, built for that step alone, are
        # those that the run builds for all steps at once
        rp, nl = duffing_soft
        rhs, cfg = cartesian_rhs(rp, nl), IntegratorConfig()
        traj = integrate(rhs, (0.0, 1.0), (0.0, 1e4), events=[SECTION], cfg=cfg, dense=True)
        assert traj.status == "terminal-event"
        dense = traj.dense
        assert len(dense.q) == len(dense.h) == len(traj.taus) - 1
        assert dense.q.shape[-1] == 7
        for i in range(len(dense.q)):
            t, h, (y0, y1) = float(traj.taus[i]), float(dense.h[i]), traj.states[i].tolist()
            # the step's stages again, from its start and its size
            n0, n1, _, k = _DOP853_DENSE.step(rhs, t, h, y0, y1, *rhs(t, (y0, y1)),
                                              cfg.rel_tol, cfg.abs_tol)
            step = (h, n0, n1, *k, *_extra_stages(rhs, t, h, y0, y1, k))
            assert np.array_equal(dense.q[i], _dop853_coefficients(traj.states[i:i + 1],
                                                                   [step])[1][0])

    def test_programming_error_in_step_propagates(self):
        with pytest.raises(IndexError):
            integrate(lambda t, s: (-s[0], -s[1]) if t < 0.5 else s[5], (1.0, 2.0), (0.0, 1.0))

    def test_overflow_in_step_is_integration_error(self):
        # the solver's constructor evaluates the rhs near t = 0 only
        def rhs(t, s):
            if t > 0.5:
                raise OverflowError("(34, 'Numerical result out of range')")
            return -s[0], -s[1]

        for run in PAIR_RUNS:
            with pytest.raises(IntegrationError):
                run(rhs, (1.0, 2.0), (0.0, 1.0))

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
        # y' = y^2 leaves every float at tau = tau_0 + 1/y_0; a DOP853 run
        # whose steps underflow before the section is run again on DP5
        for run in PAIR_RUNS:
            with pytest.raises(StepUnderflowError, match=message):
                run(lambda t, s: np.array([s[0] ** 2, 0.0]), start, span)

    @pytest.mark.parametrize("run", PAIR_RUNS, ids=["integrate", "dop853", "dp5"])
    @pytest.mark.parametrize("start,span", [
        ((math.nan, 1.0), (0.0, 1.0)),
        ((0.0, math.inf), (0.0, 1.0)),
        ((0.0, 1.0), (0.0, math.nan)),
    ], ids=["nan-start", "inf-start", "nan-span"])
    def test_non_finite_start_is_domain_error(self, start, span, run):
        calls = []
        with pytest.raises(DomainError, match="finite start and span"):
            run(lambda t, s: calls.append(s) or (-s[1], s[0]), start, span)
        assert calls == []

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
        quarter, traj = integrate_to_section(cartesian_rhs(rp, p1_power),
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
        # the quarter orbit from (0, 1) takes about 1.4 to reach the section,
        # with either pair
        for dense in (True, False):
            with pytest.raises(NoCrossingError):
                integrate_to_section(cartesian_rhs(rp, nl), (0.0, 1.0), 1.0, dense=dense)


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


def scipy_dop853(rhs, start, span, cfg=IntegratorConfig(), events=(), dense=False):
    return solve_ivp(rhs, span, list(start), method="DOP853", rtol=cfg.rel_tol,
                     atol=cfg.abs_tol, events=list(events), dense_output=dense)


# scipy's DOP853 at these tolerances is the reference solution of the section
# runs, which do not take scipy's steps; its run at the default tolerances is
# the yardstick of their cost
REFERENCE = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)


def y_falling(t, y):
    return y[1]


y_falling.terminal, y_falling.direction = True, -1


def counting(rhs):
    """``rhs`` and a one-entry list that counts its calls."""
    calls = [0]

    def counted(t, s):
        calls[0] += 1
        return rhs(t, s)

    return counted, calls


def step_attempts(monkeypatch, name="_DOP853"):
    """(t, error estimate) of every step that the module's pair ``name`` tries
    from now on; inf for a step with a rejected stage."""
    module, tried = sys.modules["seplane.integrate"], []
    pair = getattr(module, name)

    def counted(rhs, t, *args):
        try:
            out = pair.step(rhs, t, *args)
        except StageRejected:
            tried.append((t, math.inf))
            raise
        tried.append((t, out[2]))
        return out

    monkeypatch.setattr(module, name, pair._replace(step=counted))
    return tried


def rejections(tried) -> int:
    return sum(not err < 1.0 for _, err in tried)


def landing_steps(monkeypatch):
    """The accepted steps in y of every landing from now on."""
    module = sys.modules["seplane.integrate"]
    steps, recorded = module._steps, []

    def recording(*args, **kwargs):
        for out in steps(*args, **kwargs):
            if kwargs.get("var") == "y":
                recorded.append(out)
            yield out

    monkeypatch.setattr(module, "_steps", recording)
    return recorded


def scipy_step_polynomial(rhs, t, y, h, cfg=IntegratorConfig()):
    """scipy's DOP853 dense output on the single step of size h > 0 from
    (t, y), which it accepts at the first try where a section run's step of
    the same arithmetic was accepted."""
    solver = DOP853(rhs, t, np.array(y), t + 2.0 * h, rtol=cfg.rel_tol, atol=cfg.abs_tol,
                    first_step=h)
    solver.step()
    assert solver.t == pytest.approx(t + h, rel=1e-15, abs=1e-300)
    return solver.dense_output()


SECTION_CASES = list(oracle_cases())


class TestAgainstScipyRK45:
    """integrate runs the arithmetic and step control of scipy's DOP853, and
    localizes events on the same seventh-order extension; scipy's DOP853
    serves as the oracle at the same tolerances. The class keeps the name it
    had while integrate stepped RK45's pair, so its tests keep their ids."""

    @pytest.mark.parametrize("rhs,nu", oracle_cases())
    def test_quarter_orbit(self, rhs, nu):
        traj = integrate(rhs, (0.0, nu), (0.0, 1e4), events=[SECTION])
        tau = traj.events[-1].tau
        ref = scipy_dop853(rhs, (0.0, nu), (0.0, 1e4), events=[y_falling])
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
        ref = scipy_dop853(rhs, (0.0, nu), span, dense=True)
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

        ref = scipy_dop853(rhs, (0.3, 0.8), (0.0, -12.0), events=[w_axis, y_axis])
        expected = sorted([(t, "w=0") for t in ref.t_events[0]]
                          + [(t, "y=0") for t in ref.t_events[1]], reverse=True)
        assert len(expected) >= 6
        assert [ev.kind for ev in traj.events] == [k for _, k in expected]
        assert max(abs(ev.tau - t) for ev, (t, _) in zip(traj.events, expected)) < 1e-9
        for ev in traj.events:
            assert abs(ev.state[0 if ev.kind == "w=0" else 1]) < 1e-10

    @pytest.mark.parametrize("rhs,nu", list(oracle_cases(4, seed=3)))
    def test_event_times(self, rhs, nu):
        # every crossing of w = 0 and of the slope 1/2, either way, against
        # scipy's events on the same orbit
        def w_axis(t, y):
            return y[0]

        def slope(t, y):
            return y[1] - 0.5 * y[0]

        traj = integrate(rhs, (0.1 * nu, nu), (0.0, 20.0),
                         events=[EventSpec("w=0", lambda t, s: s[0]),
                                 EventSpec("slope", lambda t, s: s[1] - 0.5 * s[0])])
        ref = scipy_dop853(rhs, (0.1 * nu, nu), (0.0, 20.0), events=[w_axis, slope])
        expected = sorted([(t, "w=0") for t in ref.t_events[0]]
                          + [(t, "slope") for t in ref.t_events[1]])
        assert len(expected) >= 4
        assert [ev.kind for ev in traj.events] == [k for _, k in expected]
        for ev, (t, _) in zip(traj.events, expected):
            assert abs(ev.tau - t) <= 1e-9 * t

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


class TestAgainstScipyDOP853:
    """A section run steps the arithmetic of scipy's DOP853 under its own step
    control and lands on the section by Henon's step, scipy by root finding
    on its seventh-order interpolant. Its crossing and its steps' ends are
    compared with scipy's DOP853 at rel_tol 1e-13 and abs_tol 1e-15, its cost
    with scipy's DOP853 at the same tolerances, and its dense output with
    scipy's on the same steps; the single steps and the tableaux are
    scipy's."""

    @pytest.mark.parametrize("rhs,nu", SECTION_CASES)
    def test_quarter_orbit(self, rhs, nu, monkeypatch):
        landing = landing_steps(monkeypatch)
        counted, calls = counting(rhs)
        tau, traj = integrate_to_section(counted, (0.0, nu), 1e4)
        ref = scipy_dop853(rhs, (0.0, nu), (0.0, 1e4), REFERENCE, events=[y_falling])
        ref_tau, ref_state = ref.t_events[0][0], ref.y_events[0][0]
        assert abs(tau - ref_tau) <= 1e-9 * ref_tau
        assert np.max(np.abs(traj.events[-1].state - ref_state)) \
            <= 1e-9 * np.max(np.abs(ref_state))
        assert abs(traj.events[-1].state[1]) < 1e-10
        # without its landing's twelve calls per step in y, the run costs no
        # more than scipy's, which spends three more on its bracketing step
        same = scipy_dop853(rhs, (0.0, nu), (0.0, 1e4), events=[y_falling])
        assert calls[0] - 12 * len(landing) <= same.nfev

    def test_tableaux_are_scipys(self):
        c = dop853_coefficients
        n = c.N_STAGES
        for ours, ref in ((_DP5_TABLEAU, (RK45.C, RK45.A, RK45.B, [RK45.E])),
                          (_DOP853_TABLEAU, (c.C[:n], c.A[:n, :n], c.A[n, :n],
                                             [c.E5, c.E3]))):
            assert ours.c == tuple(ref[0])
            for i, row in enumerate(ours.a):
                assert row == tuple(ref[1][i, :i]) and not ref[1][i, i:].any()
            assert ours.b == tuple(ref[2])
            assert ours.estimators == tuple(map(tuple, ref[3]))
        # the continuous extension: stages 14-16 over all earlier stages, and
        # the rows of D over all sixteen
        ext = _DOP853_EXTENSION
        assert ext.c == tuple(DOP853.C_EXTRA)
        for s, (row, ref_row) in enumerate(zip(ext.a, DOP853.A_EXTRA), start=n + 1):
            assert row == tuple(ref_row[:s]) and not ref_row[s:].any()
        assert ext.d == tuple(map(tuple, DOP853.D))

    @pytest.mark.parametrize("rhs,nu", SECTION_CASES)
    def test_dense_output(self, rhs, nu):
        # the seventh-order extension against scipy's on each of the run's
        # steps, the bracketing one included, at x = 1/4, 1/2 and 3/4
        counted, calls = counting(rhs)
        tau, traj = integrate_to_section(counted, (0.0, nu), 1e4, dense=True)
        ref = scipy_dop853(rhs, (0.0, nu), (0.0, 2.0 * tau), REFERENCE, dense=True)
        scale = np.max(np.abs(ref.y))
        x = np.array([0.25, 0.5, 0.75])
        for t, s, h in zip(traj.taus[:-1], traj.states[:-1], traj.dense.h):
            ts = t + h * x
            scipys = scipy_step_polynomial(rhs, t, s, h)(ts).T
            assert np.max(np.abs(traj.sample(ts) - scipys)) <= 1e-13 * scale
        # its nodes against the reference, as the crossing's state
        assert np.max(np.abs(traj.states - ref.sol(traj.taus).T)) <= 1e-9 * scale
        # the plain run's calls and three per step, the bracketing one included
        plain, plain_calls = counting(rhs)
        integrate_to_section(plain, (0.0, nu), 1e4)
        assert calls[0] == plain_calls[0] + 3 * len(traj.dense.h)

    @pytest.mark.parametrize("pair,tableau,keep,norm", [
        (_DP5, _DP5_TABLEAU, (1, 3, 4, 5, 6, 7), _rms),
        (_DOP853, _DOP853_TABLEAU, (13,), _dop853_norm)], ids=["dp5", "dop853"])
    @pytest.mark.parametrize("rhs,nu", list(oracle_cases(3, seed=5)))
    def test_generated_step_is_the_tableau_loop(self, pair, tableau, keep, norm, rhs, nu):
        # the straight-line step against a loop over the tableau that adds
        # the nonzero terms left to right, as the generated sums do: equal
        # to the last bit
        def weighted(coeffs, k, m):
            return functools.reduce(operator.add, (kj[m] * x for kj, x in zip(k, coeffs) if x))

        t, h, y = 0.2, 0.07, (0.3 * nu, nu)
        cfg = IntegratorConfig()
        k = [rhs(t, y)]
        for ci, row in zip(tableau.c[1:], tableau.a[1:]):
            k.append(rhs(t + ci * h, tuple(y[m] + weighted(row, k, m) * h for m in (0, 1))))
        new = tuple(y[m] + h * weighted(tableau.b, k, m) for m in (0, 1))
        k.append(rhs(t + h, new))
        errors = [weighted(e, k, m) * h / (cfg.abs_tol + max(abs(y[m]), abs(new[m])) * cfg.rel_tol)
                  for e in tableau.estimators for m in (0, 1)]
        stages = tuple(x for j in keep for x in k[j - 1])
        assert pair.step(rhs, t, h, *y, *k[0], cfg.rel_tol, cfg.abs_tol) \
            == (*new, norm(*errors), stages)

    @pytest.mark.parametrize("pair,method", [(_DP5, RK45), (_DOP853, DOP853)],
                             ids=["dp5", "dop853"])
    @pytest.mark.parametrize("rhs,nu", list(oracle_cases(3, seed=5)))
    def test_one_step_against_scipys_loop(self, pair, method, rhs, nu):
        # the unrolled step against scipy's stage loop on numpy arrays and
        # its error norm, from a point near the orbit, both ways; the estimate
        # sums weights that add up to 0, so its roundoff is relative to the
        # stages, about 1e-8 of an estimate near 1 for DOP853
        cfg = IntegratorConfig()
        y = np.array([0.3 * nu, nu])
        f = np.array(rhs(0.2, tuple(y)))
        ref = method(lambda t, s: np.array(rhs(t, tuple(s))), 0.2, y, 10.0,
                     rtol=cfg.rel_tol, atol=cfg.abs_tol)
        for h in (0.1, -0.1):
            n0, n1, err, stages = pair.step(rhs, 0.2, h, *y, *f, cfg.rel_tol, cfg.abs_tol)
            y_new, f_new = rk_step(ref.fun, 0.2, y, f, h, ref.A, ref.B, ref.C, ref.K)
            scale = cfg.abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * cfg.rel_tol
            assert np.max(np.abs([n0, n1] - y_new)) <= 1e-13 * np.max(np.abs(y_new))
            assert np.max(np.abs(stages[-2:] - f_new)) <= 1e-13 * np.max(np.abs(f_new))
            assert err == pytest.approx(ref._estimate_error_norm(ref.K, h, scale), rel=1e-6)


class TestStepControl:
    """The section runs' step-size control shrinks a rejected step by the
    pair's order and the same step rejected again by the order that its last
    two estimates show, both with safety 0.8, so few attempts are rejected."""

    def test_first_step_at_a_rough_start(self, monkeypatch):
        # at the start w = 0, where |w|^(p-2) w is not smooth, the estimate
        # falls only about as h^2.7: shrinking by the pair's order 8 alone
        # takes ten attempts
        params = ProblemParams(1.76, 2.7, critical_potential(1.76, 2.7) - 1.0)
        rhs = cartesian_rhs(reduce_params(params), reduced_nonlinearity(params))
        tried = step_attempts(monkeypatch)
        integrate_to_section(rhs, (0.0, 0.5), 1e4)
        first = [err for t, err in tried if t == 0.0]
        assert first[-1] < 1.0 and len(first) <= 5

    def test_few_section_attempts_are_rejected(self, monkeypatch):
        # the steps in tau and in y of the section runs (0.29 under shrinks by
        # the pair's order with safety 0.9)
        tried = step_attempts(monkeypatch)
        for case in SECTION_CASES:
            rhs, nu = case.values
            integrate_to_section(rhs, (0.0, nu), 1e4)
        assert rejections(tried) < 0.2 * len(tried)


class TestDOP853SectionRun:
    """The DOP853 run lands on y = 0 by steps in y; the step-size control
    checks each of them and subdivides the landing where one step's estimate
    exceeds 1."""

    def test_one_henon_step_on_an_orbit(self, duffing_soft, monkeypatch):
        landing = landing_steps(monkeypatch)
        rp, nl = duffing_soft
        oracle, apex = cubic_quarter_time_oracle()
        tau, traj = integrate_to_section(cartesian_rhs(rp, nl), (0.0, 1.0), 50.0)
        assert len(landing) == 1 and landing[0][0] == 0.0
        assert abs(tau - oracle) < 1e-9
        assert traj.events[-1].state.tolist() == [pytest.approx(apex, abs=1e-9), 0.0]
        assert traj.status == "terminal-event" and traj.taus[-1] == tau

    def test_estimate_above_one_subdivides(self, monkeypatch):
        # y = 1 - tau^2 and w = tau are polynomials that the pair steps in
        # tau exactly, so its steps grow tenfold; in y the landing meets
        # tau = sqrt(1 - y), which one step over most of the descent misses
        landing = landing_steps(monkeypatch)
        tau, traj = integrate_to_section(lambda t, s: (1.0, -2.0 * t), (0.0, 1.0), 10.0)
        assert len(landing) > 1 and landing[-1][0] == 0.0
        assert tau == pytest.approx(1.0, abs=1e-9)
        assert traj.events[-1].state.tolist() == [pytest.approx(1.0, abs=1e-9), 0.0]

    @pytest.mark.parametrize("y0,from_end", [(0.25, True), (3.0, False)])
    def test_landing_starts_where_y_falls(self, y0, from_end, monkeypatch):
        # y = y0 + tau - tau^2 has its root at (1 + sqrt(1 + 4 y0)) / 2. At
        # y0 = 1/4 the step that brackets it also spans the maximum of y at
        # tau = 1/2, so the landing starts from the step's end, below the
        # section, and steps up in y
        landing = landing_steps(monkeypatch)
        tau, _ = integrate_to_section(lambda t, s: (1.0, 1.0 - 2.0 * t), (0.0, y0), 10.0)
        assert landing[-1][0] == 0.0 and (landing[0][1] > 0.0) == from_end
        assert tau == pytest.approx((1.0 + math.sqrt(1.0 + 4.0 * y0)) / 2.0, abs=1e-10)

    def test_tangent_landing_is_integration_error(self):
        # y = (1 - tau)^3 falls through 0 with y' = 0, so dtau/dy is
        # unbounded there: the landing subdivides until its steps underflow
        with pytest.raises(IntegrationError, match="at y="):
            integrate_to_section(lambda t, s: (1.0, -3.0 * (1.0 - t) ** 2), (0.0, 1.0), 10.0)

    def test_underflow_reruns_on_dp5(self, monkeypatch):
        # p near 1: the source term |w|^(p-2) w has an unbounded slope at the
        # start w = 0, where DOP853's steps underflow and DP5's do not
        params = ProblemParams(1.1034525830151343, 1.3550154520533193, -6.973864794399716)
        rhs = cartesian_rhs(reduce_params(params), reduced_nonlinearity(params))
        start, cfg = (0.0, 4.529907864737164), IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        module, runs = sys.modules["seplane.integrate"], []
        monkeypatch.setattr(module, "_to_section",
                            lambda *args, **kwargs: runs.append(kwargs.get("dp5", False))
                            or _to_section(*args, **kwargs))
        tau, traj = integrate_to_section(rhs, start, 1e4, cfg)
        dp5 = _to_section(rhs, start, (0.0, 1e4), cfg, dp5=True)
        assert runs == [False, True]
        assert tau == dp5.events[-1].tau and np.array_equal(traj.states, dp5.states)
        # the rerun lands by Henon's step, on the crossing of the DOP853
        # reference at a tighter tolerance
        ref = solve_ivp(rhs, (0.0, 1e4), list(start), method="DOP853", rtol=1e-13,
                        atol=1e-15, events=[y_falling])
        assert tau == pytest.approx(ref.t_events[0][0], rel=1e-9)
        # with dense output the rerun's quartics are the dense output
        _, traj = integrate_to_section(rhs, start, 1e4, cfg, dense=True)
        assert runs == [False, True, False, True] and traj.dense.q.shape[-1] == 4
        assert np.array_equal(traj.states, dp5.states)
        assert np.max(np.abs(traj.sample(traj.taus) - traj.states)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 37, 5000])
    def test_coefficients_sum_as_einsum_does(self, n):
        # the sums run term by term, as einsum's do on these shapes, so the
        # dense output is that of the einsum form bit for bit
        rng = np.random.default_rng(n)
        starts, steps = rng.normal(size=(n, 2)), rng.normal(size=(n, 27)) * 10.0
        h, q = _dop853_coefficients(starts, steps.tolist())
        k = steps[:, 3:].reshape(-1, 12, 2)
        dy = (steps[:, 1:3] - starts) / h[:, None]
        nested = np.concatenate([dy[..., None], (k[:, 0] - dy)[..., None],
                                 (2.0 * dy - (k[:, 8] + k[:, 0]))[..., None],
                                 np.einsum("nsc,rs->ncr", k, _DOP853_D)], axis=-1)
        assert np.array_equal(q, np.einsum("nci,ij->ncj", nested, _DOP853_POWERS))

    @pytest.mark.parametrize("rhs,nu", list(oracle_cases(4, seed=13)))
    def test_dense_run_is_the_plain_run(self, rhs, nu):
        # dense output adds three stages to the same steps, so the steps, the
        # landing and the crossing are those of the plain run bit for bit.
        # The step ends lie on the polynomials (exactly, in these cases); the
        # landing is off the last one by at most 4.3e-12 of the orbit's size
        # over 12 such cases
        cfg = IntegratorConfig()
        plain = _to_section(rhs, (0.0, nu), (0.0, 1e4), cfg)
        traj = _to_section(rhs, (0.0, nu), (0.0, 1e4), cfg, dense=True)
        assert np.array_equal(plain.taus, traj.taus)
        assert np.array_equal(plain.states, traj.states)
        assert plain.events[0].tau == traj.events[0].tau
        assert traj.dense.q.shape == (len(traj.taus) - 1, 2, 7)
        scale = np.max(np.abs(traj.states))
        assert np.max(np.abs(traj.sample(traj.taus[:-1]) - traj.states[:-1])) <= 1e-13 * scale
        assert np.max(np.abs(traj.sample(traj.taus[-1]) - traj.states[-1])) <= 1e-10 * scale
