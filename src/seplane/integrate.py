"""Adaptive time stepping with dense output and event localization.

Chart-agnostic plumbing: the stepper advances any planar rhs(t, s), which
maps the state pair s of Python floats to the pair of its derivatives, by the
Dormand-Prince 5(4) pair on floats, records sampled states, and polishes every
sign change of the scalar monitors g(t, s) on the step's quartic interpolant.
The pair, its error norm and its step-size control are those of Dormand &
Prince (J. Comput. Appl. Math. 6, 1980) and Hairer, Norsett & Wanner, Solving
ODEs I, II.4-II.6, with the continuous extension of Shampine (Math. Comp. 46,
1986), in the arithmetic of scipy's RK45.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    IntegrationError,
    MaxStepsError,
    NoCrossingError,
    SeplaneError,
    StepUnderflowError,
)
from .numerics import brent as brentq

__all__ = [
    "IntegratorConfig",
    "EventSpec",
    "TrajEvent",
    "Trajectory",
    "SECTION",
    "integrate",
    "integrate_to_section",
]


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    max_steps: int = 10_000_000
    event_tol: float = 1e-12

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step", "event_tol"):
            # written so that NaN fails; max_step may be inf
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be positive")
        if self.max_steps <= 0:
            raise DomainError("max_steps must be positive")


DEFAULT_CONFIG = IntegratorConfig()


@dataclass(frozen=True)
class EventSpec:
    """Scalar monitor g(tau, s) of the float pair s; events are its roots on the path.

    direction > 0 keeps only rising crossings, < 0 only falling, 0 both.
    """

    name: str
    fn: Callable[[float, tuple[float, float]], float]
    terminal: bool = False
    direction: int = 0


class TrajEvent(NamedTuple):
    tau: float
    kind: str
    state: np.ndarray


# Dormand-Prince 5(4): stage nodes C, stage weights A, fifth-order weights B,
# error weights E over the seven stages (the last is the derivative at the
# new state), and the matrix P whose product K^T P gives the coefficients of
# x, x^2, x^3, x^4 of the quartic interpolant y_old + h K^T P (x, .., x^4)
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200,
                                -22 / 525, 1 / 40)
# rows for stages 1, 3, 4, 5, 6, 7; the row of stage 2 is zero
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
# the columns of x^2, x^3, x^4; the column of x is stage 1 alone
_P_HIGHER = tuple(zip(*_P))[1:]
# the same coefficients by stage, shape (6, 3), for the coefficients of a whole run
_P_HIGHER_ROWS = np.array(_P)[:, 1:]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1 / 5   # the error of the embedded fourth-order pair is O(h^5)
_SQRT2 = 2 ** 0.5


def _dp_step(rhs, t, h, y0, y1, k10, k11, rtol, atol):
    """One Dormand-Prince step of size h from (y0, y1) with derivative
    (k10, k11): the fifth-order state, the RMS over both components of the
    embedded error estimate, each scaled by atol + max(|y|, |y_new|) rtol,
    and the seven stage derivatives, flat."""
    k20, k21 = rhs(t + _C2 * h, (y0 + k10 * _A21 * h, y1 + k11 * _A21 * h))
    k30, k31 = rhs(t + _C3 * h, (y0 + (k10 * _A31 + k20 * _A32) * h,
                                 y1 + (k11 * _A31 + k21 * _A32) * h))
    k40, k41 = rhs(t + _C4 * h,
                   (y0 + (k10 * _A41 + k20 * _A42 + k30 * _A43) * h,
                    y1 + (k11 * _A41 + k21 * _A42 + k31 * _A43) * h))
    k50, k51 = rhs(t + _C5 * h,
                   (y0 + (k10 * _A51 + k20 * _A52 + k30 * _A53 + k40 * _A54) * h,
                    y1 + (k11 * _A51 + k21 * _A52 + k31 * _A53 + k41 * _A54) * h))
    k60, k61 = rhs(t + h,
                   (y0 + (k10 * _A61 + k20 * _A62 + k30 * _A63 + k40 * _A64
                          + k50 * _A65) * h,
                    y1 + (k11 * _A61 + k21 * _A62 + k31 * _A63 + k41 * _A64
                          + k51 * _A65) * h))
    n0 = y0 + h * (k10 * _B1 + k30 * _B3 + k40 * _B4 + k50 * _B5 + k60 * _B6)
    n1 = y1 + h * (k11 * _B1 + k31 * _B3 + k41 * _B4 + k51 * _B5 + k61 * _B6)
    k70, k71 = rhs(t + h, (n0, n1))
    e0 = (k10 * _E1 + k30 * _E3 + k40 * _E4 + k50 * _E5 + k60 * _E6
          + k70 * _E7) * h / (atol + max(abs(y0), abs(n0)) * rtol)
    e1 = (k11 * _E1 + k31 * _E3 + k41 * _E4 + k51 * _E5 + k61 * _E6
          + k71 * _E7) * h / (atol + max(abs(y1), abs(n1)) * rtol)
    return (n0, n1, _rms(e0, e1),
            (k10, k11, k30, k31, k40, k41, k50, k51, k60, k61, k70, k71))


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / _SQRT2


def _quartic(k) -> tuple[float, ...]:
    """Interpolant coefficients K^T P of one step, component 0 then 1."""
    k10, k11, k30, k31, k40, k41, k50, k51, k60, k61, k70, k71 = k
    return (k10, *[k10 * p1 + k30 * p3 + k40 * p4 + k50 * p5 + k60 * p6 + k70 * p7
                   for p1, p3, p4, p5, p6, p7 in _P_HIGHER],
            k11, *[k11 * p1 + k31 * p3 + k41 * p4 + k51 * p5 + k61 * p6 + k71 * p7
                   for p1, p3, p4, p5, p6, p7 in _P_HIGHER])


def _initial_step(rhs, t0, y0, y1, f0, f1, t1, direction, cfg) -> float:
    """First step size of Hairer, Norsett & Wanner II.4 (scipy's
    select_initial_step for an error of order 4): one extra rhs call."""
    span = abs(t1 - t0)
    s0 = cfg.abs_tol + abs(y0) * cfg.rel_tol
    s1 = cfg.abs_tol + abs(y1) * cfg.rel_tol
    d0 = _rms(y0 / s0, y1 / s1)
    d1 = _rms(f0 / s0, f1 / s1)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    g0, g1 = rhs(t0 + h0 * direction, (y0 + h0 * direction * f0,
                                        y1 + h0 * direction * f1))
    d2 = _rms((g0 - f0) / s0, (g1 - f1) / s1) / h0
    if not (d1 > 1e-15 or d2 > 1e-15):
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span, cfg.max_step)


class PiecewiseQuartic:
    """Dense output of a run: step i starts at ``taus[i]`` from ``states[i]``
    and spans ``h[i]`` (the last step may end past the last node, at a
    terminal event); ``q[i]`` holds its interpolant coefficients, shape
    (steps, 2, 4), built from the flat stage tuples ``stages[i]`` of
    ``_dp_step`` in one pass over all steps."""

    def __init__(self, taus: np.ndarray, states: np.ndarray, h, stages):
        self.taus, self.starts = taus, states[:-1]
        self.h = np.asarray(h, dtype=float)
        # k[i, j, c]: stage j (of 1, 3, 4, 5, 6, 7) of step i, component c
        k = np.asarray(stages, dtype=float).reshape(-1, 6, 2)
        self.q = np.empty((len(k), 2, 4))
        self.q[..., 0] = k[:, 0]
        # the x^2..x^4 columns summed stage by stage, in _quartic's order
        acc = k[:, 0, :, None] * _P_HIGHER_ROWS[0]
        for j in range(1, 6):
            acc = acc + k[:, j, :, None] * _P_HIGHER_ROWS[j]
        self.q[..., 1:] = acc
        self.ascending = taus[-1] >= taus[0]

    def __call__(self, ts) -> np.ndarray:
        """States at the times ``ts``, shape (len(ts), 2). A node shared by
        two steps is read on the earlier one; times beyond the run are
        extrapolated from its first or last step."""
        ts = np.asarray(ts, dtype=float)
        n = len(self.h)
        if self.ascending:
            seg = np.searchsorted(self.taus, ts, side="left") - 1
        else:
            seg = n - np.searchsorted(self.taus[::-1], ts, side="right")
        seg = np.clip(seg, 0, n - 1)
        x = (ts - self.taus[seg]) / self.h[seg]
        x2 = x * x
        x3 = x2 * x
        q = self.q[seg]
        poly = (q[..., 0] * x[:, None] + q[..., 1] * x2[:, None]
                + q[..., 2] * x3[:, None] + q[..., 3] * (x3 * x)[:, None])
        return self.h[seg][:, None] * poly + self.starts[seg]


@dataclass
class Trajectory:
    """Sampled path of a flow in one chart, immutable once returned."""

    taus: np.ndarray
    states: np.ndarray
    events: list[TrajEvent]
    status: str
    dense: PiecewiseQuartic | None = None

    def __post_init__(self):
        self.taus.flags.writeable = False
        self.states.flags.writeable = False

    def sample(self, taus):
        if self.dense is None:
            raise DomainError("trajectory was recorded without dense output")
        taus = np.asarray(taus, dtype=float)
        out = self.dense(taus.reshape(-1))
        return out[0] if taus.ndim == 0 else out


def _crossed(g_old: float, g_new: float, direction: int) -> bool:
    if g_old == 0.0 or not (math.isfinite(g_old) and math.isfinite(g_new)):
        # starting on the locus is not a crossing
        return False
    if g_new != 0.0 and (g_old < 0.0) == (g_new < 0.0):
        return False
    rising = g_old < 0.0
    return direction == 0 or (direction > 0) == rising


def _interpolant(t_old, h, y0, y1, q):
    """State at tau on one step's quartic, as a pair of floats."""
    def at(tau):
        x = (tau - t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return (h * (q[0] * x + q[1] * x2 + q[2] * x3 + q[3] * x4) + y0,
                h * (q[4] * x + q[5] * x2 + q[6] * x3 + q[7] * x4) + y1)
    return at


def integrate(
    rhs: Callable[[float, tuple[float, float]], tuple[float, float]],
    start,
    tau_span: tuple[float, float],
    events: Sequence[EventSpec] = (),
    cfg: IntegratorConfig | None = None,
    *,
    dense: bool = False,
) -> Trajectory:
    """Advance the planar state over tau_span, localizing events to event_tol.

    ``rhs(t, s)`` receives the state as a pair of Python floats and returns
    its two derivatives as floats; event monitors receive the same pair.
    Stops at the span end, at the first terminal event, or with an error at
    the step budget / step underflow; a non-finite start or span end is a
    DomainError. An error raised by the first two rhs calls (the start and the
    trial of the first step size) propagates as it is; a chart-domain,
    arithmetic or value error on a later stage becomes an IntegrationError.
    """
    cfg = cfg or DEFAULT_CONFIG
    t0, t1 = float(tau_span[0]), float(tau_span[1])
    y_start = np.array(start, dtype=float)
    if y_start.shape != (2,):
        raise DomainError(f"the stepper advances planar states, got shape {y_start.shape}")
    y0, y1 = y_start.tolist()
    if not all(map(math.isfinite, (t0, t1, y0, y1))):
        raise DomainError(f"the stepper needs a finite start and span, got {start}, {tau_span}")
    if t1 == t0:
        return Trajectory(np.array([t0]), y_start[None, :], [], "completed", None)

    span = abs(t1 - t0)
    direction = 1.0 if t1 > t0 else -1.0
    t, rtol, atol, max_step = t0, cfg.rel_tol, cfg.abs_tol, cfg.max_step
    f0, f1 = rhs(t0, (y0, y1))
    h_abs = _initial_step(rhs, t0, y0, y1, f0, f1, t1, direction, cfg)
    taus = [t0]
    states = [(y0, y1)]
    steps_h, steps_k = [], []
    recorded: list[TrajEvent] = []
    g_prev = [ev.fn(t0, (y0, y1)) for ev in events]
    status = None

    for _ in range(cfg.max_steps):
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        accepted = rejected = False
        try:
            while not accepted and h_abs >= min_step:
                t_new = t + h_abs * direction
                if direction * (t_new - t1) > 0.0:
                    t_new = t1
                h = t_new - t
                h_abs = abs(h)
                n0, n1, err, k = _dp_step(rhs, t, h, y0, y1, f0, f1, rtol, atol)
                accepted = err < 1.0
                if accepted:
                    # no growth right after a rejection
                    factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR,
                                                                _SAFETY * err ** _EXPONENT)
                    h_abs *= min(1.0, factor) if rejected else factor
                else:
                    h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
                    rejected = True
        except (SeplaneError, ArithmeticError, ValueError) as exc:
            # a chart-domain, overflow or math-domain error on a trial stage;
            # any other exception is a programming error and propagates
            raise IntegrationError(f"step failed at tau={t}: {exc}") from exc
        if not accepted:
            raise StepUnderflowError(f"step size underflow at tau={t}")
        if abs(h) < 1e-14 * span:
            raise StepUnderflowError(f"step shrank below 1e-14 of the span at tau={t_new}")
        hits = []
        if events:
            g_now = [ev.fn(t_new, (n0, n1)) for ev in events]
            q = None   # the step's interpolant, built at its first bracketed event
            for i, ev in enumerate(events):
                if _crossed(g_prev[i], g_now[i], ev.direction):
                    if q is None:
                        q = _quartic(k)
                    at = _interpolant(t, h, y0, y1, q)
                    lo, hi = (t_new, t) if direction < 0.0 else (t, t_new)
                    t_ev = brentq(lambda s, e=ev: e.fn(s, at(s)), lo, hi,
                                  xtol=cfg.event_tol)
                    hits.append((t_ev, ev, at))
            if len(hits) > 1:
                hits.sort(key=lambda hit: hit[0], reverse=direction < 0.0)
            g_prev = g_now

        stop = None
        for t_ev, ev, at in hits:
            s_ev = at(t_ev)
            state = np.array(s_ev)
            state.flags.writeable = False
            recorded.append(TrajEvent(t_ev, ev.name, state))
            if ev.terminal:
                stop = (t_ev, s_ev)
                break
        if dense:
            steps_h.append(h)
            steps_k.append(k)
        if stop is not None:
            taus.append(stop[0])
            states.append(stop[1])
            status = "terminal-event"
            break
        t, y0, y1, f0, f1 = t_new, n0, n1, k[10], k[11]
        taus.append(t)
        states.append((y0, y1))
        if direction * (t - t1) >= 0.0:
            status = "completed"
            break
    else:
        raise MaxStepsError(f"exceeded {cfg.max_steps} steps over {tau_span}")

    taus_arr, states_arr = np.array(taus), np.array(states)
    quartics = PiecewiseQuartic(taus_arr, states_arr, steps_h, steps_k) if dense else None
    return Trajectory(taus_arr, states_arr, recorded, status, quartics)


# the section that ends quarter and half orbits and the homoclinic ascent: the
# second coordinate (y, or the slope u in the slope charts) falling through 0
SECTION = EventSpec("y=0", lambda t, s: s[1], terminal=True, direction=-1)


def integrate_to_section(
    rhs,
    start,
    tau_max: float,
    cfg: IntegratorConfig | None = None,
    *,
    dense: bool = False,
) -> tuple[float, Trajectory]:
    """Time of the first SECTION crossing from ``start`` and the trajectory
    that ends there; a start on the section is not a crossing.

    The span (0, tau_max) also sets the first step size, so callers keep
    their own horizon. Raises NoCrossingError when the span ends first.
    """
    traj = integrate(rhs, start, (0.0, tau_max), events=[SECTION], cfg=cfg,
                     dense=dense)
    if not traj.events:
        raise NoCrossingError(
            f"no downward crossing of y = 0 (u = 0 in slope charts) within tau <= {tau_max}")
    return traj.events[-1].tau, traj
