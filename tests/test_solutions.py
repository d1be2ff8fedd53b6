import math

import numpy as np
import pytest

from seplane import periods, solutions
from seplane.errors import DomainError, NoCrossingError
from seplane.params import (
    ProblemParams,
    ReducedParams,
    angular_eigenvalue,
    critical_potential,
    decay_exponent,
    odd_power,
    reduce_params,
    reduced_nonlinearity,
    stationary_abscissa,
)
from seplane.periods import mode_bounds
from seplane.solutions import (
    PROFILE_CONFIG,
    AngularProfile,
    _near_zero,
    build_solution_set,
    p1_explicit,
    reduced_residual_report,
    sector_exists,
    verify_profile,
)

from conftest import rel_err


def make_profile(omega, k=1, kind="positive"):
    n = len(omega)
    return AngularProfile(np.linspace(0.0, 2.0 * math.pi, n, endpoint=False),
                          np.asarray(omega, dtype=float), k, kind)


class TestVerifyProfile:
    def test_constant_profile_exact(self):
        params = ProblemParams(2.0, 3.0, 9.0)
        value = (9.0 - critical_potential(2.0, 3.0)) ** 0.5
        rep = verify_profile(make_profile(np.full(2048, value), kind="constant"),
                             params)
        assert rep.passed
        assert rep.max_residual < 1e-12

    def test_sine_identity_reduced_chart(self, p1_power):
        # w = 2 sin(tau) solves the p = 1 reduced equation with b = 1, d = 0:
        # the three terms cancel identically
        rp = ReducedParams(1.0, 1.5, 1.0, 0.0)
        tau = np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)
        w = 2.0 * np.sin(tau)
        rep = reduced_residual_report(tau, w, rp, p1_power, tol=1e-12,
                                      w_prime=2.0 * np.cos(tau),
                                      w_second=-2.0 * np.sin(tau))
        assert rep.passed and rep.max_residual < 1e-12
        rep_fd = reduced_residual_report(tau, w, rp, p1_power, tol=1e-8)
        assert rep_fd.passed

    def test_explicit_p1_lift_residual(self):
        params = ProblemParams(1.0, 2.0, 0.0)
        prof = p1_explicit(0.5, 2.0, n=4096)
        rep = verify_profile(prof, params, tol=1e-6)
        assert rep.passed

    def test_grid_too_coarse(self):
        params = ProblemParams(2.0, 3.0, 9.0)
        with pytest.raises(DomainError):
            verify_profile(make_profile(np.ones(512)), params)

    def test_detects_wrong_profile(self):
        params = ProblemParams(2.0, 3.0, 9.0)
        rep = verify_profile(make_profile(2.0 + np.cos(
            np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False))), params)
        assert not rep.passed


    def test_excluded_neighborhoods_match_the_loop(self):
        def reference(om):
            bad = set()
            crossings = np.nonzero(np.sign(om) != np.sign(np.roll(om, -1)))[0]
            small = np.nonzero(np.abs(om) < 1e-3 * np.max(np.abs(om)))[0]
            for idx in list(crossings) + list(small):
                bad.update(j % len(om) for j in range(idx - 4, idx + 6))
            mask = np.zeros(len(om), dtype=bool)
            mask[list(bad)] = True
            return mask

        rng = np.random.default_rng(7)
        for n in list(range(1, 40)) + [257, 2048]:
            x = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
            for om in (rng.normal(size=n), np.sin(3.0 * x + rng.uniform(0.0, 6.0)),
                       rng.choice([-1.0, 0.0, 1e-4, 1.0], size=n),
                       np.abs(rng.normal(size=n)) + 0.5):
                assert np.array_equal(_near_zero(om), reference(om))


class TestExplicitFamilies:
    def test_small_turning_parameter_limit(self):
        prof = p1_explicit(1e-6, 2.0, n=2048)
        assert np.max(np.abs(prof.omega - 1.0)) < 2e-6

    def test_pointwise_value(self):
        prof = p1_explicit(0.5, 2.0, n=2048)
        assert prof.omega[0] == pytest.approx(math.sqrt(0.5))

    def test_reduced_intercepts(self):
        # the underlying reduced profile meets the axis at 1 -+ K
        for K in (0.25, 0.6):
            prof = p1_explicit(K, 1.0, n=2048)
            w = prof.omega  # q = 1 lift is the identity
            assert w[0] == pytest.approx(1.0 - K)
            assert w[len(w) // 2] == pytest.approx(1.0 + K, rel=1e-9)

    def test_sign_changing_profile(self):
        prof = p1_explicit("omega0", 0.5, n=2048)
        sig = prof.sigma
        assert np.allclose(prof.omega, 4.0 * np.abs(np.sin(sig)) * np.sin(sig))
        with pytest.raises(DomainError):
            p1_explicit("omega0", 2.0)

    def test_positive_limit_profile(self):
        prof = p1_explicit("omega0plus", 0.5, n=2048)
        assert np.allclose(prof.omega, (2.0 * np.abs(np.sin(prof.sigma))) ** 2)
        with pytest.raises(DomainError):
            p1_explicit("omega0plus", 1.5)

    def test_two_parameter_family_shares_period(self):
        params = ProblemParams(1.0, 2.0, 0.0)
        for K in np.arange(0.1, 0.95, 0.1):
            prof = p1_explicit(round(float(K), 1), 2.0, n=4096)
            rep = verify_profile(prof, params, tol=1e-6)
            assert rep.passed
            half = len(prof.omega) // 2
            shifted = np.roll(prof.omega, -half)
            assert np.max(np.abs(shifted - prof.omega)) > 0.05


class TestBuildSolutionSet:
    def test_residual_is_continuous_across_p_2(self):
        # the keep mask excludes the neighborhoods of the zeros only off p = 2;
        # one ulp either side the verdict stays put, and on the points that
        # both masks keep so do the scaled residual and the scale
        params = ProblemParams(2.0, 3.0, 0.0)
        entry = build_solution_set(params, k_max=2).sign_changing[0]
        at_2 = verify_profile(entry.profile, params)
        assert at_2.passed and at_2.n_excluded == 0
        om = entry.profile.omega
        h = entry.profile.sigma[1] - entry.profile.sigma[0]

        def on_common_points(p):
            return solutions._angular_report(
                om, h, p, decay_exponent(p, 3.0), angular_eigenvalue(p, 3.0), 0.0,
                lambda s: odd_power(s, 3.0), 1e-5, keep=~_near_zero(om))

        common_2 = on_common_points(2.0)
        for p in (math.nextafter(2.0, 1.0), math.nextafter(2.0, 3.0)):
            rep = verify_profile(entry.profile, ProblemParams(p, 3.0, 0.0))
            assert rep.n_excluded > 0 and rep.passed
            assert on_common_points(p) == rep
            assert rel_err(rep.max_residual / rep.scale,
                           common_2.max_residual / common_2.scale) < 1e-4
            assert rel_err(rep.scale, common_2.scale) < 1e-12

    def test_cubic_zero_potential(self):
        ss = build_solution_set(ProblemParams(2.0, 3.0, 0.0), k_max=2)
        assert ss.constants == [] and ss.positive == []
        assert [e.k for e in ss.sign_changing] == [2]
        entry = ss.sign_changing[0]
        assert entry.residual.passed
        assert rel_err(entry.period_measured, math.pi) < 1e-8
        om = entry.profile.omega
        nz = om[np.abs(om) > 1e-9 * np.max(np.abs(om))]
        assert int(np.sum(np.sign(nz) != np.sign(np.roll(nz, -1)))) == 4

    def test_positive_threshold_scan(self):
        # the first positive mode appears exactly above c_q + beta^(p-1)/p
        threshold = critical_potential(2.0, 3.0) + 0.5
        assert mode_bounds(ProblemParams(2.0, 3.0, threshold + 1e-4)).positive_modes \
            == (1,)
        assert mode_bounds(ProblemParams(2.0, 3.0, threshold - 1e-4)).positive_modes \
            == ()

    def test_p1_set(self):
        ss = build_solution_set(ProblemParams(1.0, 2.0, 3.0))
        assert ss.constants == [pytest.approx(2.0)]
        assert [e.k for e in ss.positive] == [3]
        entry = ss.positive[0]
        assert entry.residual.passed
        assert entry.profile.omega.min() > 0.0
        assert rel_err(entry.period_measured, 2.0 * math.pi / 3.0) < 1e-6

    def test_constant_only_positive_set_below_threshold(self):
        # p < 2 with a negative critical potential: at c = 0 the positive set
        # is the single constant (-c_q)^(1/(q+1-p)) and modes start at k = 1
        params = ProblemParams(1.5, 2.5, 0.0)
        ss = build_solution_set(params, k_max=1)
        cq = critical_potential(1.5, 2.5)
        assert cq < 0.0
        assert ss.constants == [pytest.approx((-cq) ** 0.5)]
        assert ss.positive == []
        assert [e.k for e in ss.sign_changing] == [1]
        assert ss.sign_changing[0].residual.passed

    def test_p1_zero_potential_families(self):
        ss = build_solution_set(ProblemParams(1.0, 0.5, 0.0))
        names = [f["family"] for f in ss.explicit_families]
        assert "omega0" in names and "omega0plus" in names
        assert sum(1 for n in names if n == "omega_K_plus") == 3
        assert ss.constants == [pytest.approx(1.0)]

    def test_subquadratic_diffusion_with_potential(self):
        # p < 2 with d != 0: sign-changing orbits cross the line w = 0 where
        # the field is only Hoelder; profiles must still verify
        ss = build_solution_set(ProblemParams(1.7, 2.2, -1.0))
        assert [e.k for e in ss.sign_changing] == [2, 3, 4]
        for e in ss.sign_changing:
            assert e.residual.passed
        assert not [n for n in ss.notes if "failed" in n]

    def test_subquadratic_center_regime(self):
        ss = build_solution_set(ProblemParams(1.5, 2.5, 1.0), k_max=1)
        assert [e.k for e in ss.sign_changing] == [1]
        assert [e.k for e in ss.positive] == [1]
        assert all(e.residual.passed for e in ss.sign_changing + ss.positive)

    def test_programming_error_propagates(self, monkeypatch):
        # only package errors become "failed" notes; a bug must surface
        def broken(*args, **kwargs):
            raise IndexError("list index out of range")

        monkeypatch.setattr("seplane.solutions.find_amplitude_for_period", broken)
        with pytest.raises(IndexError):
            build_solution_set(ProblemParams(2.0, 3.0, 0.0), k_max=2)

    def test_positive_walk_evaluates_lattice_and_polish_points_once(self, monkeypatch):
        # every positive period evaluation is a point of the walk's lattice or
        # a brentq polish point; each polish starts at the two lattice
        # neighbours that bracket its root, whose periods the walk holds
        evals, polish, roots = [], [], []
        period_positive, brentq = periods.period_positive, periods.brentq

        def counted_period(*args, **kwargs):
            evals.append(args[0])
            return period_positive(*args, **kwargs)

        def counted_brentq(f, *args, **kwargs):
            calls = []

            def g(x):
                calls.append(x)
                return f(x)
            roots.append(brentq(g, *args, **kwargs))
            polish.append(calls)
            return roots[-1]

        monkeypatch.setattr(periods, "period_positive", counted_period)
        monkeypatch.setattr(periods, "brentq", counted_brentq)
        params = ProblemParams(2.0, 3.0, 9.0)
        ss = build_solution_set(params, k_max=0)
        assert [e.k for e in ss.positive] == [1, 2, 3]
        assert not ss.sign_changing
        assert len(roots) == 3

        a = stationary_abscissa(reduce_params(params), reduced_nonlinearity(params))
        down = up = [0.5 * a]
        for _ in range(60):
            down, up = down + [0.25 * down[-1]], up + [a - 0.25 * (a - up[-1])]
        lattice = down[::-1] + up[1:]
        walked = [mu for mu in evals if mu in lattice]
        assert evals[0] == 0.5 * a
        for calls in polish:
            lo, hi = calls[:2]
            assert lattice.index(hi) == lattice.index(lo) + 1 and lo in walked
        assert len(set(evals)) == len(evals)
        assert len(evals) == len(walked) + sum(len(c) for c in polish) - 2 * len(roots)

    @pytest.mark.parametrize("params,k_max", [(ProblemParams(2.0, 3.0, 0.0), 4),
                                              (ProblemParams(2.0, 3.0, 9.0), None),
                                              (ProblemParams(3.0, 5.0, 1.0), 5)])
    def test_inversion_never_repeats_an_amplitude(self, params, k_max, monkeypatch):
        # across the whole set, the positive scan and every amplitude the
        # bracket searches or brentq visit are each evaluated once per family
        calls = []
        sample = periods.period_sample

        def counted_sample(kind, amp, *args, **kwargs):
            calls.append((kind, amp))
            return sample(kind, amp, *args, **kwargs)

        monkeypatch.setattr(periods, "period_sample", counted_sample)
        ss = build_solution_set(params, k_max=k_max)
        assert len(ss.sign_changing) + len(ss.positive) > 1
        assert calls
        assert len(set(calls)) == len(calls)

    def test_positive_mode_below_the_old_scan_floor(self):
        # mode 1 sits at mu ~ 2e-8 a, below the 1e-4 a floor of the fixed
        # 60-point scan that the bracket walk replaced
        params = ProblemParams(1.611970203427001, 2.340580500568365, 14.352610196343544)
        ss = build_solution_set(params, k_max=mode_bounds(params).k_sign_changing_min)
        assert [e.k for e in ss.positive] == [1, 2, 3, 4]
        assert all(e.residual.passed for e in ss.positive)
        assert not [n for n in ss.notes if "failed" in n]

    def test_failed_scan_fails_every_mode_of_its_family(self, monkeypatch):
        def failing(*args, **kwargs):
            raise NoCrossingError("scan failed")

        monkeypatch.setattr(periods, "period_positive", failing)
        ss = build_solution_set(ProblemParams(2.0, 3.0, 9.0), k_max=0)
        assert not ss.positive
        assert [n for n in ss.notes if "failed" in n] == [
            f"positive mode {k} failed: scan failed" for k in (1, 2, 3)]

    def test_describe_is_json_ready(self):
        import json

        ss = build_solution_set(ProblemParams(1.0, 2.0, 3.0))
        text = json.dumps(ss.describe(), sort_keys=True)
        assert "positive" in text


def _fold_by_point(traj, tau_end, taus, quarter):
    """Reference fold: one one-point sample of the dense output per grid
    point. Returns the folded values, the sampled abscissae and the samples."""
    tt = np.mod(taus, (4.0 if quarter else 2.0) * tau_end)
    w, abscissae, raw = (np.empty_like(tt) for _ in range(3))
    for i, t in enumerate(tt):
        sign = 1.0
        if quarter and t > 2.0 * tau_end:
            t, sign = t - 2.0 * tau_end, -1.0
        abscissae[i] = t if t <= tau_end else 2.0 * tau_end - t
        raw[i] = traj.sample([abscissae[i]])[0, 0]
        w[i] = sign * raw[i]
    return w, abscissae, raw


def _mode_entry_fold(monkeypatch, params, kind, k):
    """Arguments and result of the fold that builds mode k."""
    calls = []
    fold = solutions._fold

    def recording(traj, tau_end, taus, quarter):
        out = fold(traj, tau_end, taus, quarter)
        calls.append(((traj, tau_end, taus, quarter), out))
        return out

    monkeypatch.setattr(solutions, "_fold", recording)
    rp, nl = reduce_params(params), reduced_nonlinearity(params)
    solutions._mode_entry(kind, k, params, rp, nl, PROFILE_CONFIG, {})
    return calls[0]


class TestFold:
    @pytest.mark.parametrize("params, kind, k", [
        (ProblemParams(3.0, 5.0, critical_potential(3.0, 5.0) - 1.0), "sign-changing", 3),
        (ProblemParams(2.5, 4.0, critical_potential(2.5, 4.0) + 20.0), "positive", 3),
        (ProblemParams(1.0, 2.0, 3.0), "positive", 3),
    ], ids=["sign-changing-quarter", "positive-half", "p1-positive"])
    def test_one_sample_matches_the_per_point_loop(self, monkeypatch, params, kind, k):
        args, folded = _mode_entry_fold(monkeypatch, params, kind, k)
        traj, tau_end, taus, quarter = args
        looped, abscissae, raw = _fold_by_point(traj, tau_end, taus, quarter)
        assert len(folded) == 2048 * k
        # one matrix product over the grid may sum the interpolant's terms in
        # another order than the one-point product
        assert np.all(np.abs(folded - looped) <= 4.0 * np.spacing(np.abs(looped)))
        # where the batched evaluation of the loop's abscissae agrees with the
        # one-point one, the reflections must add nothing
        same = traj.sample(abscissae)[:, 0] == raw
        assert np.mean(same) > 0.5
        assert np.array_equal(folded[same], looped[same])


class TestSector:
    def test_boundary_case(self):
        rep = sector_exists(2.0, 3.0, math.pi)
        assert rep.beta_s == pytest.approx(1.0, abs=1e-12)
        assert rep.beta_q == 1.0
        assert not rep.exists  # strict inequality required

    def test_exists_case(self):
        rep = sector_exists(2.0, 5.0, math.pi)
        assert rep.beta_q == 0.5 and rep.exists

    def test_unconditional_shortcut(self):
        for theta in (0.5, 2.0, 5.0):
            rep = sector_exists(1.5, 3.0, theta)
            assert rep.exists and rep.unconditional

    def test_wide_opening(self):
        rep = sector_exists(2.0, 5.2, 2.0 * math.pi * (1.0 - 1e-12))
        assert rep.beta_s == pytest.approx(0.5, abs=1e-9)
        assert rep.exists  # 2/(q-1) < 1/2 for q > 5
        assert not sector_exists(2.0, 4.9, 2.0 * math.pi * (1.0 - 1e-12)).exists

    def test_monotone_in_opening(self):
        values = [sector_exists(2.7, 4.0, th).beta_s
                  for th in np.linspace(0.2, 6.0, 30)]
        assert all(b1 > b2 for b1, b2 in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            sector_exists(2.0, 3.0, 0.0)
        with pytest.raises(DomainError):
            sector_exists(1.0, 2.0, 1.0)
