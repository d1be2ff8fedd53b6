"""Assembly and verification of the full sets of angular profiles.

Profiles are built from one verified quarter or half orbit and extended by
the reflection symmetries of the phase plane, then checked against the
angular equation with finite-difference residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SeplaneError
from .fields import cartesian_rhs, p1_slope_rhs
from .integrate import IntegratorConfig, integrate_to_section
from .params import (
    Nonlinearity,
    ProblemParams,
    ReducedParams,
    angular_eigenvalue,
    angular_time_scale,
    decay_exponent,
    lift_profile,
    odd_power,
    reduce_params,
    reduced_nonlinearity,
    stationary_abscissa,
)
from .periods import ModeBounds, find_amplitude_for_period, mode_bounds

__all__ = [
    "AngularProfile",
    "ResidualReport",
    "ModeEntry",
    "SolutionSet",
    "SectorReport",
    "verify_profile",
    "reduced_residual_report",
    "p1_explicit",
    "build_solution_set",
    "sector_exists",
]

# profile samples per least period; the explicit p = 1 families get four times as many
POINTS_PER_PERIOD = 2048
# profile samples a solution set may build over its modes, POINTS_PER_PERIOD k each
MAX_PROFILE_SAMPLES = 2**24
# turning parameters K of the explicit positive p = 1 family sampled at c = 0
EXPLICIT_K = (0.25, 0.5, 0.75)
# finite differencing of the sampled profile amplifies dense-output
# roughness, so profiles are built tighter than the integrator default
PROFILE_CONFIG = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


@dataclass(frozen=True)
class AngularProfile:
    """Sampled 2 pi periodic profile on a uniform grid (endpoint excluded)."""

    sigma: np.ndarray
    omega: np.ndarray
    k: int
    kind: str  # sign-changing | positive | constant | explicit

    def __post_init__(self):
        self.sigma.flags.writeable = False
        self.omega.flags.writeable = False


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    l2_residual: float
    scale: float
    tol: float
    passed: bool
    n_excluded: int


@dataclass(frozen=True)
class ModeEntry:
    k: int
    amplitude: float
    period_target: float
    period_measured: float
    residual: ResidualReport
    profile: AngularProfile
    note: str = ""


@dataclass
class SolutionSet:
    """Assembled description of the angular solution sets."""

    params: ProblemParams
    constants: list[float]
    sign_changing: list[ModeEntry]
    positive: list[ModeEntry]
    explicit_families: list[dict]
    bounds: ModeBounds
    notes: list[str] = field(default_factory=list)

    def describe(self) -> dict:
        def entry(e: ModeEntry) -> dict:
            return {
                "k": e.k,
                "amplitude": e.amplitude,
                "period_target": e.period_target,
                "period_measured": e.period_measured,
                "residual_max": e.residual.max_residual,
                "residual_scale": e.residual.scale,
                "passed": e.residual.passed,
                "note": e.note,
            }

        return {
            "p": self.params.p,
            "q": self.params.q,
            "c": self.params.c,
            "constants": list(self.constants),
            "sign_changing": [entry(e) for e in self.sign_changing],
            "positive": [entry(e) for e in self.positive],
            "explicit_families": [
                {k: v for k, v in fam.items() if k != "profile"}
                for fam in self.explicit_families
            ],
            "mode_bounds": {
                "k_sign_changing_min": self.bounds.k_sign_changing_min,
                "positive_modes": list(self.bounds.positive_modes),
                "positive_nonconstant_exists": self.bounds.positive_nonconstant_exists,
                "mode_threshold": self.bounds.mode_threshold,
                "notes": self.bounds.notes,
            },
            "notes": list(self.notes),
        }


def _fd1_periodic(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central first derivative on a periodic uniform grid."""
    vp1, vm1 = np.roll(values, -1), np.roll(values, 1)
    vp2, vm2 = np.roll(values, -2), np.roll(values, 2)
    return (-vp2 + 8.0 * vp1 - 8.0 * vm1 + vm2) / (12.0 * h)


def _near_zero(om: np.ndarray) -> np.ndarray:
    """Mask of the samples at offsets -4..+5 (periodically) from a sign change
    or from a sample below 1e-3 of the largest |om|."""
    zero = (np.sign(om) != np.sign(np.roll(om, -1))) | (np.abs(om) < 1e-3 * np.max(np.abs(om)))
    return np.logical_or.reduce([np.roll(zero, offset) for offset in range(-4, 6)])


def _angular_report(values: np.ndarray, h: float, p: float, beta: float,
                    lam: float, cpot: float, g, tol: float,
                    deriv: np.ndarray | None = None,
                    second: np.ndarray | None = None,
                    keep: np.ndarray | None = None) -> ResidualReport:
    """Residual report of the generic angular equation on a periodic grid.

    The maximum and l2 residuals are taken over the kept points and scaled by
    the largest term there; by default a neighborhood of each zero of the
    profile is excluded when p != 2 since the flux degenerates there.
    Derivatives default to fourth-order finite differences; passing exact
    ``deriv``/``second`` arrays evaluates the equation algebraically (the
    flux derivative expanded by the chain rule), free of stencil noise.
    """
    om = values
    dom = _fd1_periodic(om, h) if deriv is None else np.asarray(deriv, dtype=float)
    base = beta * beta * om * om + dom * dom
    flux = base ** (p / 2.0 - 1.0) * dom
    if second is None:
        dflux = _fd1_periodic(flux, h)
    else:
        ddom = np.asarray(second, dtype=float)
        dflux = base ** (p / 2.0 - 1.0) * ddom \
            + (p - 2.0) * base ** (p / 2.0 - 2.0) \
            * (beta * beta * om * dom + dom * ddom) * dom
    t_lin = lam * base ** (p / 2.0 - 1.0) * om
    t_src = g(om)
    t_pot = cpot * odd_power(om, p - 1.0)
    residual = dflux + t_lin + t_src - t_pot

    if keep is None:
        keep = np.ones(len(om), dtype=bool) if p == 2.0 else ~_near_zero(om)
    with np.errstate(invalid="ignore"):
        residual = np.where(np.isfinite(residual), residual, np.inf)
    scale = float(max(np.max(np.abs(dflux[keep])), np.max(np.abs(t_lin[keep])),
                      np.max(np.abs(t_src[keep])), np.max(np.abs(t_pot[keep])), 1e-300))
    mx = float(np.max(np.abs(residual[keep])))
    l2 = float(np.sqrt(np.mean(residual[keep] ** 2)))
    return ResidualReport(mx, l2, scale, tol, mx < tol * scale, int(np.sum(~keep)))


def verify_profile(profile: AngularProfile, params: ProblemParams,
                   tol: float = 1e-5) -> ResidualReport:
    """Finite-difference residual of the angular equation for the profile.

    Requires at least 2048 uniform samples per least period; passes when the
    scaled max residual over the smooth arcs is below tol.
    """
    n = len(profile.sigma)
    if n < 2048 * profile.k:
        raise DomainError(
            f"grid too coarse: {n} points gives {n / profile.k:.0f} per least period")
    h = profile.sigma[1] - profile.sigma[0]
    if not np.allclose(np.diff(profile.sigma), h, rtol=1e-9, atol=1e-12):
        raise DomainError("profile grid must be uniform")
    p, q, c = params.p, params.q, params.c
    beta = decay_exponent(p, q)
    lam = angular_eigenvalue(p, q)
    return _angular_report(profile.omega, h, p, beta, lam, c,
                           lambda s: odd_power(s, q), tol)


def reduced_residual_report(tau: np.ndarray, w: np.ndarray, rp: ReducedParams,
                            nl: Nonlinearity, tol: float = 1e-5,
                            w_prime: np.ndarray | None = None,
                            w_second: np.ndarray | None = None) -> ResidualReport:
    """Residual of the reduced profile equation for a periodic w(tau) grid.

    Exact derivative arrays, when supplied, turn this into an algebraic
    identity check at roundoff level.
    """
    h = tau[1] - tau[0]
    return _angular_report(np.asarray(w, dtype=float), h, rp.p, 1.0, -rp.b, rp.d,
                           nl.f, tol, deriv=w_prime, second=w_second)


def p1_explicit(family, q: float, n: int = 4096) -> AngularProfile:
    """Closed-form p = 1 profiles: a turning parameter K in (0, 1) gives the
    positive two-parameter family, "omega0" the sign-changing profile
    (q <= 1), "omega0plus" its positive counterpart (q < 1)."""
    sigma = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    if isinstance(family, (int, float)):
        K = float(family)
        if not 0.0 < K < 1.0:
            raise DomainError("K must lie in (0, 1)")
        w = np.sqrt(1.0 - K * K * np.sin(sigma) ** 2) - K * np.cos(sigma)
        return AngularProfile(sigma, w ** (1.0 / q), 1, "explicit")
    if family == "omega0":
        if q > 1.0:
            raise DomainError("the sign-changing explicit profile needs q <= 1")
        om = 2.0 ** (1.0 / q) * odd_power(np.sin(sigma), 1.0 / q)
        return AngularProfile(sigma, om, 1, "explicit")
    if family == "omega0plus":
        if q >= 1.0:
            raise DomainError("the positive limiting profile needs q < 1")
        om = (2.0 * np.abs(np.sin(sigma))) ** (1.0 / q)
        return AngularProfile(sigma, om, 2, "explicit")
    raise DomainError(f"unknown family {family!r}")


def _fold(dense_traj, tau_end: float, taus: np.ndarray, quarter: bool) -> np.ndarray:
    """Evaluate a full period from the upper half orbit (positive) or from one
    quarter (sign-changing) via the reflections (w, y) -> (w, -y) and
    (w, y) -> (-w, -y), with one sample of the dense output."""
    tt = np.mod(taus, (4.0 if quarter else 2.0) * tau_end)
    sign = np.ones_like(tt)
    if quarter:
        back = tt > 2.0 * tau_end
        tt = np.where(back, tt - 2.0 * tau_end, tt)
        sign[back] = -1.0
    s = np.where(tt <= tau_end, tt, 2.0 * tau_end - tt)
    return sign * dense_traj.sample(s)[:, 0]


def _mode_entry(kind: str, k: int, params: ProblemParams, rp, nl, cfg,
                known: dict[float, float]) -> ModeEntry:
    """Mode k of a family: the amplitude of reduced period t_k (inverted with
    the family's known periods), one quarter (sign-changing, from (0, nu)) or
    half (positive, from (mu, 0)) orbit up to its section, folded over the
    period, lifted, and verified."""
    scale = angular_time_scale(params.p, params.q)
    t_k = 2.0 * math.pi * scale / k
    roots = find_amplitude_for_period(t_k, kind, rp, nl, cfg, known=known)
    quarter = kind == "sign-changing"
    rhs = p1_slope_rhs(rp, nl) if params.p == 1.0 else cartesian_rhs(rp, nl)
    start = (0.0, roots[0]) if quarter else (roots[0], 0.0)
    tau_end, traj = integrate_to_section(rhs, start, 2.0 * t_k, cfg, dense=True)
    sigma = np.linspace(0.0, 2.0 * math.pi, POINTS_PER_PERIOD * k, endpoint=False)
    taus = scale * sigma
    _, omega = lift_profile(taus, _fold(traj, tau_end, taus, quarter), params)
    profile = AngularProfile(sigma, omega, k, kind)
    residual = verify_profile(profile, params)
    return ModeEntry(k, roots[0], t_k, (4.0 if quarter else 2.0) * tau_end, residual, profile)


def build_solution_set(
    params: ProblemParams,
    cfg: IntegratorConfig = PROFILE_CONFIG,
    *,
    k_max: int | None = None,
) -> SolutionSet:
    """Assemble the constant, sign-changing, and positive profile families.

    Sign-changing modes form an infinite upward family; the scan stops at
    k_max (default: three modes above the threshold). Numeric failures are
    attached as notes, never silently dropped.
    """
    p, q, c = params.p, params.q, params.c
    bounds = mode_bounds(params)
    rp = reduce_params(params)
    nl = reduced_nonlinearity(params)
    notes = [
        "reduced-period convention: mode k uses the w-period 2 pi beta / k, "
        "the reading forced by least angular period 2 pi / k",
    ]
    # the lifted phase-plane center, which exists iff c > c_q
    constants = [float(lift_profile(0.0, stationary_abscissa(rp, nl), params)[1])] \
        if rp.b + rp.d > 0.0 else []
    families: list[dict] = []
    k_lo = bounds.k_sign_changing_min
    sign_changing = range(k_lo, (k_lo + 2 if k_max is None else k_max) + 1) \
        if p > 1.0 else range(0)
    # counted in closed form before any mode is listed or built
    samples = POINTS_PER_PERIOD * (sum(bounds.positive_modes) + len(sign_changing)
                                   * (sign_changing.start + sign_changing.stop - 1) // 2)
    if samples > MAX_PROFILE_SAMPLES:
        raise DomainError(f"the modes need {samples} profile samples, more than the "
                          f"{MAX_PROFILE_SAMPLES} a solution set builds")
    modes = ([("sign-changing", k) for k in sign_changing]
             + [("positive", k) for k in bounds.positive_modes])
    if p == 1.0:
        n = 4 * POINTS_PER_PERIOD
        if c == 0.0 and q <= 1.0:
            families.append({"family": "omega0", "q": q, "kind": "sign-changing",
                             "profile": p1_explicit("omega0", q, n=n)})
        if c == 0.0:
            for K in EXPLICIT_K:
                families.append({"family": "omega_K_plus", "K": K, "q": q,
                                 "kind": "positive", "profile": p1_explicit(K, q, n=n)})
            notes.append("c = 0: two-parameter positive family omega_K, K in (0, 1)")
            if q < 1.0:
                families.append({"family": "omega0plus", "q": q, "kind": "positive",
                                 "profile": p1_explicit("omega0plus", q, n=n)})

    entries: dict[str, list[ModeEntry]] = {"sign-changing": [], "positive": []}
    # the periods each family's inversions have computed, shared by its modes;
    # mode_bounds has T_0 already where b + d <= 0
    known: dict[str, dict[float, float]] = {
        "sign-changing": {} if bounds.zero_limit is None else {0.0: bounds.zero_limit},
        "positive": {}}
    for kind, k in modes:
        try:
            entries[kind].append(_mode_entry(kind, k, params, rp, nl, cfg, known[kind]))
        except SeplaneError as exc:
            notes.append(f"{kind} mode {k} failed: {exc}")
    if "literal_reading" in bounds.notes:
        notes.append(f"literal printed mode bounds: {bounds.notes['literal_reading']}"
                     " (period-derived bounds used instead)")
    return SolutionSet(params, constants, entries["sign-changing"], entries["positive"],
                       families, bounds, notes)


@dataclass(frozen=True)
class SectorReport:
    theta: float
    k_geom: float
    beta_s: float
    beta_q: float
    exists: bool
    unconditional: bool
    notes: str = ""


def sector_exists(p: float, q: float, theta: float) -> SectorReport:
    """Existence of a positive separable profile on an angular sector.

    beta_s is the positive root of (s-1) x^2 + (s (p-2)/(p-1) - 2) x - 1 with
    s = (1 + theta/pi)^2 read through k = pi/theta; existence holds iff the
    problem exponent stays strictly below it.
    """
    if not 0.0 < theta < 2.0 * math.pi:
        raise DomainError("sector opening must lie in (0, 2 pi)")
    if p <= 1.0:
        raise DomainError("the sector predicate needs p > 1")
    beta = decay_exponent(p, q)
    k = math.pi / theta
    s = (1.0 + 1.0 / k) ** 2
    A = s - 1.0
    B = s * (p - 2.0) / (p - 1.0) - 2.0
    disc = math.sqrt(B * B + 4.0 * A)
    beta_s = (-B + disc) / (2.0 * A) if B <= 0.0 else 2.0 / (B + disc)
    unconditional = p < 2.0 and q >= 2.0 * (p - 1.0) / (2.0 - p)
    return SectorReport(
        theta=theta, k_geom=k, beta_s=beta_s, beta_q=beta,
        exists=beta < beta_s, unconditional=unconditional,
        notes="quadratic grouped so the squared affine term sits outside the "
              "aperture factor; the other grouping has no positive root at p = 2",
    )
