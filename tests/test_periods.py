import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from seplane import periods
from seplane.errors import DomainError, IntegrationError, OutOfRangeError, StepUnderflowError
from seplane.fields import p1_slope_rhs
from seplane.integrate import EventSpec, IntegratorConfig, StageRejected, integrate
from seplane.params import (
    Nonlinearity,
    ProblemParams,
    ReducedParams,
    critical_potential,
    decay_exponent,
    reduce_params,
    reduced_nonlinearity,
    stationary_abscissa,
)
from seplane.periods import (
    _p1_mubar,
    find_amplitude_for_period,
    mode_bounds,
    mode_threshold,
    monotonicity,
    p1_turning_from_amplitude,
    period_infimum_p1,
    period_limits,
    period_positive,
    period_positive_p1,
    period_sample,
    period_scan,
    period_sign_changing,
    period_zero_amplitude_closed,
    period_zero_amplitude_limit,
)
from seplane.solutions import PROFILE_CONFIG

from conftest import rel_err

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
LOOSE = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-3)


def cubic_period_oracle(nu: float) -> float:
    """Period of w'' + w + w^3 = 0 at y-intercept nu by energy quadrature."""
    e0 = nu * nu / 2.0
    a2 = math.sqrt(1.0 + 4.0 * e0) - 1.0  # apex: A^2/2 + A^4/4 = e0
    s2 = math.sqrt(1.0 + 4.0 * e0) + 1.0

    def integrand(ph):
        return math.sqrt(2.0) / math.sqrt(a2 * math.sin(ph) ** 2 + s2)

    val, _ = quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-13)
    return 4.0 * val


NL = Nonlinearity(2.0, 3.0)
NL1 = Nonlinearity(1.0, 1.0)
CUBIC = ReducedParams(2.0, 3.0, -1.0, 0.0)  # b + d < 0: no positive family
P1 = ReducedParams(1.0, 2.0, 1.0, 0.0)  # p = 1: no sign-changing family
P1_NO_POSITIVE = ReducedParams(1.0, 2.0, 1.0, -1.5)
# p = 1 reduces to b = 1 only; any other b, one ulp off included, is refused
P1_OFF_B = [ReducedParams(1.0, 2.0, b, 2.0) for b in
            (0.0, -1.0, 2.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0))]


@pytest.mark.parametrize("call", [
    lambda: period_sign_changing(1.0, P1, NL1),
    lambda: period_positive(0.5, CUBIC, NL),
    lambda: period_positive_p1(0.5, P1_NO_POSITIVE, NL1),
    lambda: period_zero_amplitude_limit(P1),
    lambda: period_limits(P1, NL1, "sign-changing"),
    lambda: period_limits(CUBIC, NL, "positive"),
    lambda: period_limits(P1_NO_POSITIVE, NL1, "positive"),
    lambda: period_limits(CUBIC, NL, "bogus"),
    lambda: period_sample("sign-changing", 1.0, P1, NL1),
    lambda: period_sample("positive", 0.5, CUBIC, NL),
    lambda: period_sample("positive", 0.5, P1_NO_POSITIVE, NL1),
    lambda: period_sample("bogus", 1.0, CUBIC, NL),
    lambda: period_scan("bogus", [1.0], CUBIC, NL),
    lambda: find_amplitude_for_period(3.0, "sign-changing", P1, NL1),
    lambda: find_amplitude_for_period(3.0, "positive", CUBIC, NL),
    lambda: find_amplitude_for_period(3.0, "positive", P1_NO_POSITIVE, NL1),
    lambda: find_amplitude_for_period(3.0, "bogus", CUBIC, NL),
] + [call for rp in P1_OFF_B for call in (
    lambda rp=rp: period_positive_p1(0.9 * (rp.b + rp.d), rp, NL1),
    lambda rp=rp: period_limits(rp, NL1, "positive"),
    lambda rp=rp: find_amplitude_for_period(3.0, "positive", rp, NL1),
)], ids=["sc", "pos", "pos-p1", "zero-amp", "limits-sc", "limits-pos",
         "limits-pos-p1", "limits-kind", "sample-sc", "sample-pos", "sample-pos-p1",
         "sample-kind", "scan-kind", "invert-sc", "invert-pos", "invert-pos-p1",
         "invert-kind"] + [f"{name}-p1-b{rp.b!r}" for rp in P1_OFF_B
                           for name in ("pos", "limits-pos", "setup-pos")])
def test_missing_family_or_unknown_kind(call):
    with pytest.raises(DomainError):
        call()


class TestSignChanging:
    def test_energy_oracle(self, duffing_soft):
        rp, nl = duffing_soft
        for nu in (0.5, 1.0, 3.0):
            s = period_sign_changing(nu, rp, nl, method="event-timing")
            assert rel_err(s.period, cubic_period_oracle(nu)) < 1e-8

    def test_small_amplitude_limit(self, duffing_soft):
        # harmonic limit of the cubic oscillator
        rp, nl = duffing_soft
        s = period_sign_changing(1e-3, rp, nl, method="event-timing")
        assert abs(s.period - 2.0 * math.pi) < 1e-4

    def test_dual_method_agreement(self):
        cases = [ReducedParams(2.0, 3.0, -1.0, 0.0),
                 ReducedParams(2.0, 3.0, -1.0, 2.0),
                 ReducedParams(3.0, 5.0, -3.0, 0.0),
                 ReducedParams(2.5, 4.0, -2.0, -1.0),
                 ReducedParams(1.5, 2.5, 0.1666666, 1.5)]
        grid = np.geomspace(0.05, 20.0, 20)
        for rp in cases:
            nl = Nonlinearity(rp.p, rp.q)
            for nu in grid:
                s = period_sign_changing(float(nu), rp, nl)
                assert s.cross_check is not None
                assert rel_err(s.period, s.cross_check) < 1e-6
                assert abs(s.period - s.cross_check) <= 10.0 * s.est_error \
                    + 1e-12

    @pytest.mark.parametrize("nu", [0.05, 0.2, 0.5, 1.0, 3.0, 10.0, 30.0])
    def test_quadrature_route_energy_oracle(self, duffing_soft, nu):
        # the polar-angle run steps its own orbit: measured at most 3.7e-12
        # here, at nu = 3, where event timing was off by up to 1.6e-11
        rp, nl = duffing_soft
        s = period_sign_changing(nu, rp, nl)
        assert rel_err(s.cross_check, cubic_period_oracle(nu)) < 1e-11

    def test_landing_outside_its_step_is_integration_error(self):
        # at rel_tol = abs_tol = 1e-3 the first DOP853 step already crosses
        # y = 0, and the Henon landing in y ends at tau = -0.30, before the
        # step's start: a period of -1.21 where the default config gives 1.64
        pp = ProblemParams(1.1116, 1.2952, critical_potential(1.1116, 1.2952) - 3.0)
        rp, nl = reduce_params(pp), reduced_nonlinearity(pp)
        nu = 0.010867997972429213
        with pytest.raises(IntegrationError, match="left its step from tau=0.0 to"):
            period_sign_changing(nu, rp, nl, LOOSE, method="event-timing")
        assert period_sign_changing(nu, rp, nl, method="event-timing").period \
            == pytest.approx(1.6398714076, rel=1e-9)

    def test_domain(self, duffing_soft):
        rp, nl = duffing_soft
        with pytest.raises(DomainError):
            period_sign_changing(-1.0, rp, nl)
        with pytest.raises(DomainError):
            period_sign_changing(1.0, rp, nl, method="quadrature")
        with pytest.raises(DomainError):
            period_sign_changing(1.0, ReducedParams(1.0, 2.0, 1.0, 0.0),
                                 Nonlinearity(1.0, 1.0))


class TestZeroAmplitudeLimit:
    def test_p2_value(self, duffing_soft):
        rp, nl = duffing_soft
        assert period_zero_amplitude_limit(rp) == pytest.approx(2.0 * math.pi,
                                                                rel=1e-10)
        assert period_zero_amplitude_closed(rp) == pytest.approx(2.0 * math.pi)

    def test_divergence_at_zero_sum(self):
        assert period_zero_amplitude_limit(
            ReducedParams(2.0, 3.0, -1.0, 1.0)) == math.inf

    def test_p3_closed_form(self):
        rp = ReducedParams(3.0, 5.0, -3.0, 0.0)
        gamma = math.sqrt(1.5)
        expected = 2.0 * math.pi * (2.0 * gamma + 1.0) / (2.0 * gamma * (gamma + 1.0))
        assert expected == pytest.approx(3.9772133341153264, rel=1e-12)
        assert rel_err(period_zero_amplitude_limit(rp), expected) < 1e-8
        assert period_zero_amplitude_closed(rp) == pytest.approx(expected)

    def test_closed_form_simple_values(self):
        assert period_zero_amplitude_closed(
            ReducedParams(2.0, 3.0, -4.0, 0.0)) == pytest.approx(math.pi)

    def test_limit_reached_by_small_amplitudes(self, duffing_soft):
        rp, nl = duffing_soft
        td = period_zero_amplitude_limit(rp)
        t = period_sign_changing(1e-3, rp, nl, method="event-timing").period
        assert t < td and abs(t - td) < 1e-4

    def test_validity_region(self, center_case):
        # b + d > 0 (twice), and b + d = 0 with d above an interior minimum
        for rp in (center_case[0], ReducedParams(3.0, 5.0, 10.0, -10.0),
                   ReducedParams(2.0, 3.0, 2.0, 1.0)):
            nl = Nonlinearity(rp.p, rp.q)
            assert period_zero_amplitude_limit(rp) \
                == period_limits(rp, nl, "sign-changing").at_zero == math.inf

    @pytest.mark.parametrize("p,q", [(3.0, 2.05), (2.0, 1.05), (2.5, 1.6), (4.5, 3.6)])
    def test_peak_near_critical_potential(self, p, q):
        # as eps0 = -(b + d) -> 0 the limit follows 2 pi / sqrt(eps0 A)
        cq = critical_potential(p, q)
        thresholds = []
        for gap in (1e-10, 1e-6, 1e-3):
            params = ProblemParams(p, q, cq - gap)
            rp = reduce_params(params)
            eps0 = -(rp.b + rp.d)
            curv = (p - 1.0) + 0.5 * (p - 2.0) * rp.d
            if eps0 <= 1e-10:
                td = period_zero_amplitude_limit(rp)
                assert 0.99 <= td * math.sqrt(eps0 * curv) / (2.0 * math.pi) <= 1.01
            thresholds.append(mode_threshold(params))
        # at (4.5, 3.6) c_q - 1e-10 rounds to c_q, but b + d < 0 gives a finite T_0
        assert thresholds[0] > 0.0
        assert 0.0 <= thresholds[0] < thresholds[1] < thresholds[2]

    def test_mode_threshold_tie(self):
        for params in (ProblemParams(2.0, 3.0, 0.0), ProblemParams(3.0, 5.0, 1.0),
                       ProblemParams(2.5, 3.5, -2.0)):
            rp = reduce_params(params)
            beta = decay_exponent(params.p, params.q)
            td = period_zero_amplitude_limit(rp)
            assert rel_err(mode_threshold(params), 2.0 * math.pi * beta / td) < 1e-8


class TestPositive:
    def test_center_limit(self, center_case):
        rp, nl = center_case
        a = stationary_abscissa(rp, nl)
        limit = 2.0 * math.pi / math.sqrt((rp.q + 1.0 - rp.p) * (rp.b + rp.d))
        s = period_positive(a * (1.0 - 1e-4), rp, nl, TIGHT)
        assert rel_err(s.period, limit) < 1e-3
        lims = period_limits(rp, nl, "positive")
        assert lims.at_zero == math.inf
        assert rel_err(lims.at_upper, limit) < 1e-12

    def test_divergence_toward_zero(self, center_case):
        rp, nl = center_case
        t_mid = period_positive(0.5, rp, nl).period
        t_small = period_positive(1e-4, rp, nl).period
        assert t_small > 3.0 * t_mid

    def test_domain(self, center_case):
        rp, nl = center_case
        with pytest.raises(DomainError):
            period_positive(1.5, rp, nl)


class TestP1Periods:
    def test_constant_period_at_zero_d(self, p1_power):
        rp = ReducedParams(1.0, 2.0, 1.0, 0.0)
        for mu in (0.05, 0.4, 0.95):
            assert abs(period_positive_p1(mu, rp, p1_power).period
                       - 2.0 * math.pi) < 1e-8

    def test_infimum_forms_and_frozen_value(self):
        assert period_infimum_p1(0.0) == pytest.approx(2.0 * math.pi, abs=1e-12)
        # frozen by the angular quadrature; a 2e6-point Simpson rule and
        # event timing of the flow both reproduce it
        assert period_infimum_p1(1.0) == pytest.approx(2.9116845975543946,
                                                       abs=1e-9)
        rng = np.random.default_rng(7)
        for d in rng.uniform(0.0, 10.0, 20):
            period_infimum_p1(float(d))  # raises if the two forms disagree
        for d in np.geomspace(1e-14, 1e12, 105):
            period_infimum_p1(float(d))

    def test_d_positive_increasing_between_endpoints(self, p1_power):
        rp = ReducedParams(1.0, 2.0, 1.0, 1.0)
        mubar = 2.0 - math.sqrt(3.0)
        scan = period_scan("positive",
                           np.linspace(mubar * 1.001, 2.0 * 0.999, 9),
                           rp, p1_power)
        assert scan.verdict == "increasing"
        tb = period_infimum_p1(1.0)
        upper = 2.0 * math.pi / math.sqrt(2.0)
        assert tb < scan.samples[0].period < scan.samples[-1].period < upper

    def test_d_negative_decreasing_to_center_limit(self, p1_power):
        rp = ReducedParams(1.0, 2.0, 1.0, -0.5)
        a = 0.5
        scan = period_scan("positive", np.linspace(0.01 * a, 0.999 * a, 8),
                           rp, p1_power)
        assert scan.verdict == "decreasing"
        assert rel_err(scan.samples[-1].period,
                       2.0 * math.pi / math.sqrt(0.5)) < 1e-3

    @pytest.mark.parametrize("d", [-0.5, 0.5, 1.0, 3.0, 20.0])
    def test_against_event_timing(self, d, p1_power):
        rp = ReducedParams(1.0, 2.0, 1.0, d)
        mu = 0.5 * (_p1_mubar(d) + 1.0 + d)
        quad_period = period_positive_p1(mu, rp, p1_power).period
        traj = integrate(p1_slope_rhs(rp, p1_power), (mu, 0.0), (0.0, 200.0),
                         events=[EventSpec("u=0", lambda t, s: s[1],
                                           terminal=True, direction=-1)],
                         cfg=TIGHT)
        assert rel_err(quad_period, 2.0 * traj.events[-1].tau) < 1e-7

    def test_mubar_closed_form(self):
        # against 1 + d - sqrt(1 + 2d) in 50-digit decimal arithmetic, where
        # the float difference would cancel
        for d in np.geomspace(1e-12, 1e12, 97).tolist():
            with decimal.localcontext(prec=50):
                dd = decimal.Decimal(d)
                exact = 1 + dd - (1 + 2 * dd).sqrt()
                assert abs(decimal.Decimal(_p1_mubar(d)) / exact - 1) < 4e-16
            # at the endpoint the peak slope reaches |u| = 1
            assert abs(p1_turning_from_amplitude(_p1_mubar(d) * (1.0 + 1e-9), d)
                       - 1.0) < 1e-4
        assert _p1_mubar(0.0) == _p1_mubar(-0.5) == 0.0

    def test_admissible_interval(self, p1_power):
        rp = ReducedParams(1.0, 2.0, 1.0, 1.0)
        mubar = 2.0 - math.sqrt(3.0)
        with pytest.raises(DomainError):
            period_positive_p1(mubar * 0.5, rp, p1_power)
        with pytest.raises(DomainError):
            period_positive_p1(2.5, rp, p1_power)


class TestScans:
    def test_sign_changing_decreasing(self, duffing_soft):
        rp, nl = duffing_soft
        scan = period_scan("sign-changing", np.geomspace(0.01, 100.0, 12), rp, nl)
        assert scan.verdict == "decreasing"
        assert scan.max_violation == 0.0

    def test_fully_integrable_positive_decreasing(self):
        # b = 1 with q = 2p - 1 and p > 2: the positive period decreases
        rp = ReducedParams(3.0, 5.0, 1.0, 0.3)
        nl = Nonlinearity(3.0, 5.0)
        a = stationary_abscissa(rp, nl)
        scan = period_scan("positive", np.linspace(0.05 * a, 0.98 * a, 8), rp, nl)
        assert scan.verdict == "decreasing"

    def test_p1_constant_verdict(self, p1_power):
        rp = ReducedParams(1.0, 2.0, 1.0, 0.0)
        scan = period_scan("positive", np.linspace(0.1, 0.9, 7), rp, p1_power)
        assert scan.verdict == "constant"
        assert scan.max_violation < 1e-8 * 2.0 * math.pi

    @pytest.mark.parametrize("values,verdict,violation", [
        ([2.0, 2.0 + 1e-9, 2.0 - 1e-9], "constant", (2.0 + 1e-9) - (2.0 - 1e-9)),
        ([3.0, 2.0, 1.5, 0.1], "decreasing", 0.0),
        ([0.1, 1.5, 2.0, 3.0], "increasing", 0.0),
        ([3.0, 1.0, 1.5, 1.2], "none", 0.5),
        ([3.0, 2.0, 2.0, 1.0], "none", 0.0),
    ], ids=["constant", "decreasing", "increasing", "none", "none-flat-step"])
    def test_monotonicity_verdicts(self, values, verdict, violation):
        # "constant" reports the spread, "none" the smaller of the largest rise
        # and the largest fall; a flat step is neither decreasing nor
        # increasing, and a sequence broken by it alone is 0 from strict
        assert monotonicity(values) == (verdict, violation)

    def test_seed_1_triple_falls_at_small_amplitude(self):
        # period-scan seed 1's triple (3.9565, 7.3206, 1.4642): its periods
        # at the grid's first three amplitudes fall by 2.0e-10 and 7.5e-10,
        # 5e-11 and 2e-10 relative, within the "constant" spread. Timed on
        # DP5 they rose by 5.0e-10 and 2.3e-10, and the verdict of the full
        # grid read "none"
        params = ProblemParams(3.9564906300532474, 7.32061024846698, 1.464168536386377)
        grid = [0.01, 0.01373823795883263, 0.018873918221350976]
        scan = period_scan("sign-changing", grid, reduce_params(params),
                           reduced_nonlinearity(params), method="both")
        assert np.all(np.diff([s.period for s in scan.samples]) < 0.0)

    def test_empty_grid(self, duffing_soft):
        rp, nl = duffing_soft
        with pytest.raises(DomainError):
            period_scan("sign-changing", [], rp, nl)


class TestAmplitudeForPeriod:
    def test_round_trip(self, duffing_soft):
        rp, nl = duffing_soft
        target = period_sign_changing(1.0, rp, nl, method="event-timing").period
        roots = find_amplitude_for_period(target, "sign-changing", rp, nl)
        assert len(roots) == 1
        assert abs(roots[0] - 1.0) < 1e-8

    def test_p1_single_root(self, p1_power):
        rp = ReducedParams(1.0, 2.0, 1.0, 1.0)
        roots = find_amplitude_for_period(math.pi, "positive", rp, p1_power)
        assert len(roots) == 1
        assert rel_err(period_positive_p1(roots[0], rp, p1_power).period,
                       math.pi) < 1e-9

    def test_out_of_range(self, duffing_soft):
        rp, nl = duffing_soft
        # the attainable range is (0, 2 pi)
        with pytest.raises(OutOfRangeError):
            find_amplitude_for_period(10.0, "sign-changing", rp, nl)

    @pytest.mark.parametrize("target", [1.0, 10.0], ids=["below", "above"])
    def test_p1_target_outside_the_range(self, target, p1_power):
        # the ends of the p = 1 amplitude range, 1e-9 inside it, carry the
        # infimum and the center's small-oscillation period
        rp = ReducedParams(1.0, 2.0, 1.0, 1.0)
        with pytest.raises(OutOfRangeError) as info:
            find_amplitude_for_period(target, "positive", rp, p1_power)
        lo, hi = info.value.attained
        assert rel_err(lo, period_infimum_p1(1.0)) < 1e-9
        assert rel_err(hi, 2.0 * math.pi / math.sqrt(2.0)) < 1e-9

    def test_p1_constant_period_refused(self, p1_power):
        rp = ReducedParams(1.0, 2.0, 1.0, 0.0)
        with pytest.raises(DomainError, match="constant period function"):
            find_amplitude_for_period(2.0 * math.pi, "positive", rp, p1_power)

    def test_positive_target_below_the_center_period(self, center_case):
        # the walk climbs toward a and stops 1e-6 a short of it, where event
        # timing already reads the period 1.3e-7 below the center's
        rp, nl = center_case
        small = period_limits(rp, nl, "positive").at_upper
        known: dict[float, float] = {}
        with pytest.raises(OutOfRangeError) as info:
            find_amplitude_for_period(0.99 * small, "positive", rp, nl, known=known)
        assert rel_err(info.value.attained[0], small) < 1e-6
        assert 1e-6 < 1.0 - max(known) / stationary_abscissa(rp, nl) < 4e-6

    def test_positive_search(self, center_case):
        rp, nl = center_case
        target = 5.2
        roots = find_amplitude_for_period(target, "positive", rp, nl)
        assert roots
        for mu in roots:
            assert rel_err(period_positive(mu, rp, nl).period, target) < 1e-7

    def test_known_zero_limit_is_not_recomputed(self, duffing_soft, monkeypatch):
        rp, nl = duffing_soft
        known = {0.0: period_zero_amplitude_limit(rp)}

        def forbidden(*args):
            raise AssertionError("T_0 recomputed")

        monkeypatch.setattr(periods, "period_zero_amplitude_limit", forbidden)
        roots = find_amplitude_for_period(5.0, "sign-changing", rp, nl, known=known)
        assert len(roots) == 1 and roots[0] in known

    @pytest.mark.parametrize("kind, fixture, targets", [
        ("sign-changing", "duffing_soft", (5.0, 3.0)),
        ("positive", "center_case", (5.2, 5.0)),
    ])
    def test_shared_known_periods_are_not_recomputed(self, kind, fixture, targets,
                                                     request, monkeypatch):
        rp, nl = request.getfixturevalue(fixture)
        sample, calls = periods.period_sample, []

        def counted(kind, amp, *args, **kwargs):
            calls.append(amp)
            return sample(kind, amp, *args, **kwargs)

        monkeypatch.setattr(periods, "period_sample", counted)
        known: dict[float, float] = {}
        first = find_amplitude_for_period(targets[0], kind, rp, nl, known=known)
        held, calls[:] = dict(known), []
        second = find_amplitude_for_period(targets[1], kind, rp, nl, known=known)
        assert calls and not set(calls) & set(held)
        assert set(known) == set(held) | set(calls)
        # sharing the dict changes no root
        assert first == find_amplitude_for_period(targets[0], kind, rp, nl)
        assert second == find_amplitude_for_period(targets[1], kind, rp, nl)

    def test_small_positive_root_meets_its_period(self):
        # mode 1 of this triple sits at mu ~ 2e-8; an absolute xtol of 1e-12
        # leaves its period 5e-7 off the target
        pp = ProblemParams(*WALK_TRIPLES[1][0])
        rp, nl = reduce_params(pp), reduced_nonlinearity(pp)
        t_1 = 2.0 * math.pi * decay_exponent(pp.p, pp.q)
        [mu] = find_amplitude_for_period(t_1, "positive", rp, nl, PROFILE_CONFIG)
        assert mu < 1e-7
        assert rel_err(period_sample("positive", mu, rp, nl, PROFILE_CONFIG).period,
                       t_1) < 1e-10


# solve-positive triples (p, q, c), each with the number of its positive
# roots that lie below the old scan's floor mu = 1e-4 a
WALK_TRIPLES = [((2.0190847457414183, 3.243856137929265, 10.976483247224046), 0),
                ((1.611970203427001, 2.340580500568365, 14.352610196343544), 1)]


def _scan_roots(t_target, rp, nl, cfg, held):
    """The positive inversion the bracket walk replaced: 60 amplitudes
    geometric in 1 - mu/a from 1e-6 to 1 - 1e-4, every sign change polished
    with the walk's tolerance, so that the two differ only in their brackets.
    ``held`` keeps the scan's periods across targets. Returns the roots and
    the scan's lowest amplitude."""
    a = stationary_abscissa(rp, nl)
    grid = (a * (1.0 - np.geomspace(1e-6, 1.0 - 1e-4, 60))[::-1]).tolist()

    def f(mu):
        if mu not in held:
            held[mu] = period_sample("positive", mu, rp, nl, cfg).period
        return held[mu] - t_target

    vals = [f(mu) for mu in grid]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(f, grid[i], grid[i + 1], xtol=1e-12 * min(1.0, grid[i])))
    return roots, grid[0]


@pytest.mark.parametrize("case", ["center_case", *WALK_TRIPLES], ids=str)
def test_positive_walk_agrees_with_the_old_scan(case, request):
    if case == "center_case":
        rp, nl = request.getfixturevalue(case)
        targets, cfg, n_lost = (5.2, 5.0, 4.8), None, 0
    else:
        triple, n_lost = case
        pp = ProblemParams(*triple)
        rp, nl, cfg = reduce_params(pp), reduced_nonlinearity(pp), PROFILE_CONFIG
        beta = decay_exponent(pp.p, pp.q)
        targets = [2.0 * math.pi * beta / k for k in mode_bounds(pp).positive_modes]
    lost, held, known = 0, {}, {}
    for t in targets:
        [walked] = find_amplitude_for_period(t, "positive", rp, nl, cfg, known=known)
        scanned, floor = _scan_roots(t, rp, nl, cfg, held)
        if len(scanned) == 1:
            assert rel_err(walked, scanned[0]) < 1e-12
        elif not scanned:
            # the scan's floor lost the root: the walk finds it below the floor
            lost += 1
            assert walked < floor
            assert rel_err(period_sample("positive", walked, rp, nl, cfg).period, t) < 1e-10
    assert lost == n_lost


@pytest.mark.parametrize("kind,case,mu", [
    ("positive", "center_case", 0.485937),
    ("sign-changing", (1.76, 2.7, -1.0), 0.5),
    pytest.param("sign-changing", (3.0, 5.0, -1.0), 0.7, marks=pytest.mark.xfail(
        strict=True, reason="the first step's estimate, 1.7e-9 and 2 % roundoff, sets the "
                            "second step's size: 2.8e-14 (see the FOUND line on the "
                            "event-timing period's roughness in CHANGES.md)"))],
    ids=["center_case", "sign-changing", "sign-changing-rough-start"])
def test_period_is_smooth_in_the_amplitude(kind, case, mu, request):
    # over a 4e-11-relative window the period is its least-squares line to
    # roundoff; a step control that feeds its error history back into h makes
    # it rough there (2e-14 to 3e-12 with a PI controller). The sign-changing
    # triple is (p, q, c_q + offset). On (3, 5, c_q - 1) at 0.7 the first
    # step's estimate is below 1 by so much that roundoff moves it by 2 %,
    # and under safety 0.8 it still sets the second step's size (at 0.9 the
    # growth cap of 10 did): the period is rough at 2.8e-14 (1.5e-15 at 0.9)
    if kind == "positive":
        rp, nl = request.getfixturevalue(case)
    else:
        p, q, offset = case
        pp = ProblemParams(p, q, critical_potential(p, q) + offset)
        rp, nl = reduce_params(pp), reduced_nonlinearity(pp)
    x = np.linspace(-0.5, 0.5, 41)
    t = np.array([period_sample(kind, mu * (1.0 + 4e-11 * xi), rp, nl).period for xi in x])
    line = np.polyval(np.polyfit(x, t, 1), x)
    assert np.max(np.abs(t - line)) <= 1e-14 * np.max(t)


@given(st.one_of(st.just(1.0), st.floats(1.05, 4.5)), st.floats(0.1, 8.0),
       st.floats(-6.0, 40.0))
@settings(max_examples=100, deadline=None)
def test_positive_modes_from_period_endpoints(p, dq, offset):
    # closed-form k-images of the endpoints: sqrt(p beta^(1-p)(c - c_q)) at
    # p > 1; sqrt(1 + c) and pi / (2 int_0^(pi/2) sqrt(cos/(cos + 2c))) at p = 1
    q = p - 1.0 + dq
    c = critical_potential(p, q) + offset
    lo = hi = 0.0
    if p > 1.0:
        excess = c - critical_potential(p, q)
        hi = math.sqrt(max(p * decay_exponent(p, q) ** (1.0 - p) * excess, 0.0))
    elif c > 0.0:
        quarter, _ = quad(lambda t: math.sqrt(math.cos(t) / (math.cos(t) + 2.0 * c)),
                          0.0, math.pi / 2.0, epsabs=1e-10, limit=200)
        lo, hi = math.sqrt(1.0 + c), math.pi / (2.0 * quarter)
    # integer ends are decided to 1e-9; keep the draws clear of them
    assume(all(abs(x - round(x)) > 1e-6 for x in (lo, hi) if x > 0.0))
    expected = tuple(k for k in range(1, math.ceil(hi) + 1) if lo < k < hi)
    mb = mode_bounds(ProblemParams(p, q, c))
    assert mb.positive_modes == expected
    assert mb.positive_nonconstant_exists == bool(expected)


class TestSignChangingDenseOutput:
    @pytest.mark.parametrize("nu", [0.05, 1.0, 20.0])
    def test_event_timing_alone_matches_both(self, nu, monkeypatch):
        pp = ProblemParams(2.5, 4.0, critical_potential(2.5, 4.0) - 1.0)
        rp, nl = reduce_params(pp), reduced_nonlinearity(pp)
        asked = []
        section = periods.integrate_to_section

        def recorded(*args, **kwargs):
            asked.append(kwargs.get("dense", False))
            return section(*args, **kwargs)

        monkeypatch.setattr(periods, "integrate_to_section", recorded)
        both = period_sign_changing(nu, rp, nl, method="both")
        alone = period_sign_changing(nu, rp, nl, method="event-timing")
        # neither method reads dense output: the polar-angle route steps its
        # own run, and event timing's run is the same for both
        assert asked == [False, False]
        assert both.period == alone.period
        assert alone.cross_check is None and both.cross_check is not None


class TestQuadratureRoute:
    # the angular-time integral T/4, stepped as an ODE in the polar angle.
    # period-scan seed 1's triple (3.9154, 7.2150, 6.0913), c above c_q: at
    # nu = 0.01 the quarter orbit runs out along a ray from the origin, where
    # the angular speed nearly vanishes
    CREEP = ProblemParams(3.9154375563508577, 7.21503433798867, 6.0912532922241756)

    def test_creeping_orbit_keeps_the_routes_together(self):
        # along the ray the angle is a slow clock but a smooth one: the gap
        # was 6.6e-12 (9.9e-10 for the quadrature on event timing's dense
        # output, 1.1e-4 for the angle's element alone on that output)
        rp, nl = reduce_params(self.CREEP), reduced_nonlinearity(self.CREEP)
        s = period_sign_changing(0.01, rp, nl)
        assert rel_err(s.cross_check, s.period) < 1e-8

    @pytest.mark.parametrize("p, beta, offset, nu", [
        (3.7211263994576536, 1.049030228930469, 0.8740916453280638, 0.002366921138037098),
        (4.201461762826547, 1.0008817736499278, 2.5112172526279744, 0.012161217204995627),
        (3.325536234606319, 0.9674089345137071, 2.5141547973676883, 0.004291841009452685)])
    def test_loose_tolerances_keep_the_route(self, p, beta, offset, nu):
        # draws of a seeded fuzz at rel_tol = abs_tol = 1e-3, c above c_q,
        # where a quadrature on event timing's dense output found the angle
        # rising; the polar-angle run came within 1.3e-6 of the default
        # config's period, where event timing was off by up to 7.3e-3
        q = p - 1.0 + p / beta
        pp = ProblemParams(p, q, critical_potential(p, q) + offset)
        rp, nl = reduce_params(pp), reduced_nonlinearity(pp)
        s = period_sign_changing(nu, rp, nl, LOOSE)
        assert rel_err(s.cross_check, period_sign_changing(nu, rp, nl).period) < 1e-5

    def test_a_stage_whose_angle_turns_back_up_is_rejected(self):
        # above c_q the angle rises on the w axis inside the positive
        # equilibrium a, where h(w) < b + d: a stage there is rejected, as is
        # one with rho <= 0, and the controller shrinks the step
        rp, nl = reduce_params(self.CREEP), reduced_nonlinearity(self.CREEP)
        a = stationary_abscissa(rp, nl)
        rhs = periods._polar_clock(1.0, rp, nl)
        for theta, x in ((0.0, 0.5 * a), (0.0, 0.0), (0.1, -1.0)):
            with pytest.raises(StageRejected):
                rhs(theta, (x, 0.0))
        assert all(map(math.isfinite, rhs(0.0, (2.0 * a, 0.0))))
        assert all(map(math.isfinite, rhs(math.pi / 2.0, (1.0, 0.0))))

    def test_only_floats_reach_the_polar_clock(self, monkeypatch):
        # perfbench's grid is numpy's; a numpy scalar nu would carry numpy
        # arithmetic into every stage of the polar-angle run
        rp, nl = reduce_params(self.CREEP), reduced_nonlinearity(self.CREEP)
        grid = np.geomspace(0.01, 100.0, 5)
        seen = set()
        clock = periods._polar_clock

        def recorded(nu, rp, nl):
            rhs = clock(nu, rp, nl)
            seen.add(type(nu))

            def typed(theta, state):
                seen.update(map(type, (theta, *state)))
                return rhs(theta, state)

            return typed

        monkeypatch.setattr(periods, "_polar_clock", recorded)
        scan = period_scan("sign-changing", grid, rp, nl, method="both")
        assert seen == {float}
        floats = period_scan("sign-changing", [float(nu) for nu in grid], rp, nl, method="both")
        assert scan.samples == floats.samples

    def test_first_failing_amplitude_raises(self, duffing_soft, monkeypatch):
        # the polar-angle run of the scan's second amplitude fails (its angle
        # stops falling short of 0) before the third amplitude's run
        rp, nl = duffing_soft
        clock = periods._polar_clock

        def stalled(nu, rp, nl):
            rhs = clock(nu, rp, nl)

            def stalls(theta, state):
                if nu == 2.0 and theta < 0.5:
                    raise StageRejected
                return rhs(theta, state)

            return stalls

        monkeypatch.setattr(periods, "_polar_clock", stalled)
        match = "polar-angle run of the quarter orbit failed at nu=2.0: step .* at theta=0.5"
        with pytest.raises(StepUnderflowError, match=match):
            period_scan("sign-changing", [1.0, 2.0, 3.0], rp, nl, method="both")
        with pytest.raises(StepUnderflowError, match=match):
            period_scan("sign-changing", [1.0, 2.0, -3.0], rp, nl, method="both")
        with pytest.raises(DomainError, match="need nu > 0"):
            period_scan("sign-changing", [1.0, -3.0, 2.0], rp, nl, method="both")


# the two sign-changing period routes as each other's oracle, drawn over
# period-scan's ranges. Each route steps its own run, event timing in tau and
# the other in the polar angle, so their gap sees the global error of both.
# The example's nu is 1 + 8e-16: a first step sized from |log nu| there would
# be 8e-16, which is why the polar-angle run's state is rho / nu, not log rho
@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@example(p=2.0, beta=1.0, offset=1.0, side=-1.0, log_nu=3.5035098051949985e-16)
@given(p=st.floats(1.5, 4.0, exclude_min=True, exclude_max=True),
       beta=st.floats(0.9, 1.1, exclude_min=True, exclude_max=True),
       offset=st.floats(0.3, 3.0, exclude_min=True, exclude_max=True),
       side=st.sampled_from([-1.0, 1.0]),
       log_nu=st.floats(-2.0, 2.0))
def test_period_routes_agree(p, beta, offset, side, log_nu):
    q = p - 1.0 + p / beta
    pp = ProblemParams(p, q, critical_potential(p, q) + side * offset)
    s = period_sign_changing(10.0 ** log_nu, reduce_params(pp), reduced_nonlinearity(pp))
    assert rel_err(s.cross_check, s.period) < 1e-6
