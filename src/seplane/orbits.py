"""Orbit classification, homoclinic shooting, and conserved quantities.

The phase plane of the reduced equation splits into closed orbits around the
origin, closed orbits around the interior center, and the separatrix joining
the origin to itself. Shooting launches from the saddle of the regularized
chart along its exact unstable eigendirection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import (
    DegenerateCriticalError,
    DomainError,
    InconclusiveOrbitError,
)
from .fields import (
    cartesian_rhs,
    regularized_rhs,
    reversed_rhs,
)
from .integrate import (
    SECTION,
    EventSpec,
    IntegratorConfig,
    Trajectory,
    integrate,
    integrate_to_section,
)
from .params import (
    Nonlinearity,
    ReducedParams,
    degenerate_critical,
    origin_slope,
    slope_map,
    slope_map_inv,
    slope_map_primitive,
    slope_potential,
    stationary_abscissa,
)

__all__ = [
    "CLOSED_AROUND_ORIGIN",
    "CLOSED_AROUND_CENTER",
    "HOMOCLINIC",
    "DEGENERATE_CRITICAL",
    "OrbitClass",
    "HomoclinicOrbit",
    "classify_orbit",
    "shoot_homoclinic",
    "saddle_data",
    "conserved_quantity",
    "first_integral",
    "first_integral_p1",
    "first_integral_u",
]

CLOSED_AROUND_ORIGIN = "closed-around-origin"
CLOSED_AROUND_CENTER = "closed-around-P0"
HOMOCLINIC = "homoclinic"
DEGENERATE_CRITICAL = "degenerate-critical"

# reduced time each branch of classify_orbit integrates before giving up
CLASSIFY_HORIZON = 400.0


@dataclass(frozen=True)
class OrbitClass:
    tag: str
    witness: dict


@dataclass
class HomoclinicOrbit:
    """Separatrix orbit: ascent from the origin through the apex and the
    mirrored descent."""

    trajectory: Trajectory
    m_initial: float
    apex_w: float
    witness: dict = field(default_factory=dict)


def classify_orbit(
    start,
    rp: ReducedParams,
    nl: Nonlinearity,
    cfg: IntegratorConfig | None = None,
    *,
    origin_shrink: float = 1e-6,
    slope_tol: float = 1e-3,
) -> OrbitClass:
    """Classify the trajectory through a first-quadrant start point.

    The backward branch decides: reaching w = 0 with y > 0 means a closed
    orbit around the origin, reaching y = 0 left of the center means a closed
    orbit around it, and converging into a shrinking origin ball with slope at
    a root of the slope potential means the homoclinic separatrix; a branch
    that crosses the ball at any other slope is passing the origin and is
    followed on past it. A start on the y axis already witnesses the first
    class (the separatrix never meets that axis). Transverse error grows
    exponentially while tracking a separatrix backward, so the origin ball
    cannot be taken much below 1e-6 of the initial radius at binary64.
    """
    if rp.p <= 1.0:
        raise DomainError("classification runs the p > 1 phase plane")
    w0, y0 = float(start[0]), float(start[1])
    if w0 < 0.0 or y0 < 0.0 or (w0 == 0.0 and y0 == 0.0):
        raise DomainError("start must lie in the closed first quadrant minus the origin")

    crit = degenerate_critical(rp)
    if crit is not None:
        return OrbitClass(DEGENERATE_CRITICAL,
                          {"eta": crit[0], "potential_min": crit[1], "d": rp.d})

    if w0 == 0.0:
        return OrbitClass(CLOSED_AROUND_ORIGIN,
                          {"axis_state": (0.0, y0), "tau_back": 0.0})

    a = stationary_abscissa(rp, nl) if rp.b + rp.d > 0.0 else None
    rho0 = math.hypot(w0, y0)
    if a is not None and math.hypot(w0 - a, y0) < 1e-12 * (1.0 + a):
        return OrbitClass(CLOSED_AROUND_CENTER,
                          {"stationary": True, "center": (a, 0.0)})

    delta = origin_shrink * rho0
    rhs = cartesian_rhs(rp, nl)
    ev_origin = EventSpec("origin", lambda t, s: math.hypot(s[0], s[1]) - delta,
                          terminal=True, direction=-1)
    ev_w = EventSpec("w=0", lambda t, s: s[0], terminal=True)
    ev_y = EventSpec("y=0", lambda t, s: s[1], terminal=True)

    back = integrate(reversed_rhs(rhs), (w0, y0), (0.0, CLASSIFY_HORIZON),
                     events=[ev_origin, ev_w, ev_y], cfg=cfg)
    bound = float(np.max(np.hypot(back.states[:, 0], back.states[:, 1])))
    if back.status != "terminal-event":
        raise InconclusiveOrbitError(
            "backward branch resolved no criterion within the horizon",
            {"horizon": CLASSIFY_HORIZON, "max_radius": bound, "last": back.states[-1].tolist()})
    ev = back.events[-1]
    if ev.kind == "origin":
        wb, yb = float(ev.state[0]), float(ev.state[1])
        slope = yb / wb if wb != 0.0 else math.inf
        mismatch = abs(slope_potential(slope, rp.p, rp.b) - rp.d)
        if mismatch > slope_tol * (1.0 + abs(rp.d)):
            # the branch crosses the ball at a slope that is no root of the
            # slope potential: it passes the origin rather than entering it,
            # so it resumes from the ball without the origin event
            back = integrate(reversed_rhs(rhs), tuple(ev.state), (ev.tau, CLASSIFY_HORIZON),
                             events=[ev_w, ev_y], cfg=cfg)
            if back.status != "terminal-event":
                raise InconclusiveOrbitError(
                    "backward branch passed the origin and resolved no criterion",
                    {"slope": slope, "mismatch": mismatch, "last": back.states[-1].tolist()})
            bound = max(bound, float(np.max(np.hypot(back.states[:, 0], back.states[:, 1]))))
            ev = back.events[-1]

    if ev.kind == "w=0":
        ybar = float(ev.state[1])
        return OrbitClass(CLOSED_AROUND_ORIGIN,
                          {"axis_state": (0.0, ybar), "tau_back": ev.tau,
                           "max_radius": bound})

    if ev.kind == "y=0":
        mu = float(ev.state[0])
        fwd = integrate(rhs, (w0, y0), (0.0, CLASSIFY_HORIZON), events=[SECTION], cfg=cfg)
        gmu = float(fwd.events[-1].state[0]) if fwd.events else math.nan
        crossings = sorted(x for x in (mu, gmu, w0 if y0 == 0.0 else math.nan)
                           if math.isfinite(x))
        if a is None or not crossings or not (crossings[0] < a < crossings[-1]):
            raise InconclusiveOrbitError(
                "y-axis crossings do not straddle the center",
                {"crossings": crossings, "center": a})
        return OrbitClass(CLOSED_AROUND_CENTER,
                          {"left": crossings[0], "right": crossings[-1],
                           "center": a, "max_radius": bound})

    # origin ball entered backward at a root slope: the approach must shrink
    tail = back.states[-min(1000, len(back.states)):]
    rhos = np.hypot(tail[:, 0], tail[:, 1])
    monotone = bool(np.all(np.diff(rhos) <= 1e-12 * rhos[:-1] + 1e-300))
    if not monotone:
        raise InconclusiveOrbitError(
            "origin approach with a radius that does not shrink",
            {"slope": slope, "mismatch": mismatch, "rho_monotone": monotone})
    fwd = integrate(rhs, (w0, y0), (0.0, CLASSIFY_HORIZON),
                    events=[ev_origin, ev_w], cfg=cfg)
    rho_f = np.hypot(fwd.states[:, 0], fwd.states[:, 1])
    min_forward = float(np.min(rho_f))
    if min_forward > 1e-3 * rho0:
        raise InconclusiveOrbitError(
            "forward branch never re-approached the origin",
            {"min_forward_radius": min_forward})
    return OrbitClass(HOMOCLINIC,
                      {"slope": slope, "mismatch": mismatch,
                       "rho_monotone": monotone,
                       "min_forward_radius": min_forward, "max_radius": bound})


def saddle_data(rp: ReducedParams, nl: Nonlinearity) -> dict:
    """Saddle of the regularized chart: origin slope root m, its u-image, the
    triangular linearization, and the exact unstable eigendirection."""
    p, q, b, d = rp.p, rp.q, rp.b, rp.d
    if p <= 1.0:
        raise DomainError("saddle shooting runs the p > 1 regularized chart")
    crit = degenerate_critical(rp)
    if crit is not None:
        raise DegenerateCriticalError(
            f"|d - min E| = {abs(d - crit[1]):.2e} sits in the refused critical band")
    m = origin_slope(rp)
    if m is None:
        raise DomainError("the slope-potential equation E(m) = d has no usable root")
    u_s = slope_map(m, p)
    eta2 = ((p - 2.0) * b - 2.0 * (p - 1.0)) / (p * (p - 1.0))
    kappa = p * (p - 1.0) * (eta2 - m * m) / (1.0 + (p - 1.0) * m * m)
    unstable = (q + 1.0 - p) * m
    stable = m * kappa
    # Jacobian is [[unstable, 0], [-h~'(0), stable]]; h~'(0) = 1 for the power
    eigvec = np.array([1.0, -1.0 / (unstable - stable)])
    return {"m": m, "u_saddle": u_s, "unstable": unstable, "stable": stable,
            "kappa": kappa, "eigvec_unstable": eigvec}


def shoot_homoclinic(
    rp: ReducedParams,
    nl: Nonlinearity,
    cfg: IntegratorConfig | None = None,
    *,
    offset: float = 1e-8,
) -> HomoclinicOrbit:
    """Construct the homoclinic orbit by launching off the saddle of the
    regularized chart along its unstable eigenvector.

    The ascent is integrated to the apex (u = 0), sampled at 2000 points, and
    mirrored across the w-axis for the descent.
    """
    p, q = rp.p, rp.q
    sd = saddle_data(rp, nl)
    u_s = sd["u_saddle"]
    eps = offset * u_s
    v0 = eps * sd["eigvec_unstable"][0]
    u0 = u_s + eps * sd["eigvec_unstable"][1]

    rhs = regularized_rhs(rp, nl)
    horizon = 200.0 + 4.0 * abs(math.log(max(v0, 1e-300))) / sd["unstable"]
    tau_apex, traj = integrate_to_section(rhs, (v0, u0), horizon, cfg, dense=True)
    v_apex = float(traj.events[-1].state[0])

    e = 1.0 / (q + 1.0 - p)
    taus = np.linspace(0.0, tau_apex, 2000)
    vu = traj.sample(taus)
    w = np.maximum(vu[:, 0], 0.0) ** e
    y = slope_map_inv(vu[:, 1], p) * w

    full_tau = np.concatenate([taus, 2.0 * tau_apex - taus[-2::-1]])
    full_w = np.concatenate([w, w[-2::-1]])
    full_y = np.concatenate([y, -y[-2::-1]])
    out = Trajectory(full_tau, np.column_stack([full_w, full_y]),
                     [traj.events[-1]], "completed", None)

    apex_w = v_apex**e
    m_initial = float(y[0] / w[0])
    witness = dict(sd)
    witness.update({"launch": (v0, u0), "tau_apex": tau_apex, "offset": offset})
    return HomoclinicOrbit(out, m_initial, apex_w, witness)


def first_integral(pt, rp: ReducedParams, nl: Nonlinearity) -> float:
    """Conserved quantity of the p > 1 flow, available exactly when b = 1."""
    if rp.p <= 1.0:
        raise DomainError("use first_integral_p1 at p = 1")
    if abs(rp.b - 1.0) > 1e-12:
        raise DomainError("the first integral exists only for b = 1")
    w, y = float(pt[0]), float(pt[1])
    p, d = rp.p, rp.d
    r2 = w * w + y * y
    return (r2 ** (p / 2.0 - 1.0) * ((p - 1.0) * y * y - w * w)) / p \
        - d * abs(w) ** p / p + nl.F(w)


def _s1_and_r(w: float, b: float, nl: Nonlinearity) -> tuple[float, float]:
    """Primitives of s^(b-1) f(s) and s^(b-1) at w for the power source."""
    if w <= 0.0:
        raise DomainError("the p = 1 integral needs w > 0")
    e = b + nl.power
    s1 = math.log(w) if e == 0.0 else w**e / e
    r = math.log(w) if b == 0.0 else w**b / b
    return s1, r


def first_integral_p1(st, rp: ReducedParams, nl: Nonlinearity) -> float:
    """Conserved quantity of the p = 1 flow in the (w, u) chart, any b."""
    if rp.p != 1.0:
        raise DomainError("defined at p = 1 only")
    w, u = float(st[0]), float(st[1])
    if abs(u) >= 1.0:
        raise DomainError("the p = 1 slope chart needs |u| < 1")
    s1, r = _s1_and_r(w, rp.b, nl)
    return w**rp.b * math.sqrt(1.0 - u * u) - s1 + rp.d * r


def conserved_quantity(rp: ReducedParams, nl: Nonlinearity):
    """Conserved quantity I(w, y) of the Cartesian flow, or None where it has
    none: the b = 1 integral for p > 1; the p = 2 energy within 1e-12 of p = 2,
    where its drift is below the integration error, so that a drift does not
    jump at the seam; at p = 1 the (w, u) integral read through
    u = xi / sqrt(1 + xi^2), xi = y / w, with value None at w <= 1e-9 and
    where |u| rounds to 1 (|xi| from about 1e8 on) or xi^2 overflows."""
    if rp.p > 1.0 and abs(rp.b - 1.0) <= 1e-12:
        return lambda w, y: first_integral((w, y), rp, nl)
    if abs(rp.p - 2.0) <= 1e-12:
        return lambda w, y: y * y / 2.0 - (rp.b + rp.d) * w * w / 2.0 + nl.F(w)
    if rp.p != 1.0:
        return None

    def integral_p1(w, y):
        if w > 1e-9:
            xi = y / w
            xi2 = xi * xi
            u = xi / math.sqrt(1.0 + xi2)
            if abs(u) < 1.0 and xi2 < math.inf:
                return first_integral_p1((w, u), rp, nl)
        return None

    return integral_p1


def first_integral_u(u: float, uprime: float, rp: ReducedParams) -> float:
    """Conserved quantity of the transformed-slope equation in the fully
    integrable regime b = 1, q = 2p - 1."""
    p, q = rp.p, rp.q
    if p <= 1.0 or abs(rp.b - 1.0) > 1e-12 or abs(q - (2.0 * p - 1.0)) > 1e-12:
        raise DomainError("defined only for b = 1, q = 2p - 1, p > 1")
    psi = slope_map_primitive(u, p)
    return uprime * uprime / (q + 1.0 - p) + 2.0 * (1.0 + rp.d) * psi - p * psi * psi
