"""Adaptive time stepping with dense output and event localization.

Chart-agnostic plumbing: the stepper advances any rhs(t, state) callable with
an embedded Runge-Kutta 5(4) pair, records sampled states, and polishes every
sign change of the registered scalar monitors on the step-local interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.integrate import RK45, OdeSolution
from scipy.optimize import brentq

from .errors import (
    DomainError,
    IntegrationError,
    MaxStepsError,
    NoCrossingError,
    SeplaneError,
    StepUnderflowError,
)

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
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be positive")
        if self.max_steps <= 0:
            raise DomainError("max_steps must be positive")


DEFAULT_CONFIG = IntegratorConfig()


@dataclass(frozen=True)
class EventSpec:
    """Scalar monitor g(tau, state); an event is a root of g along the path.

    direction > 0 keeps only rising crossings, < 0 only falling, 0 both.
    """

    name: str
    fn: Callable[[float, np.ndarray], float]
    terminal: bool = False
    direction: int = 0


class TrajEvent(NamedTuple):
    tau: float
    kind: str
    state: np.ndarray


@dataclass
class Trajectory:
    """Sampled path of a flow in one chart, immutable once returned."""

    taus: np.ndarray
    states: np.ndarray
    events: list[TrajEvent]
    status: str
    dense: OdeSolution | None = None

    def __post_init__(self):
        self.taus.flags.writeable = False
        self.states.flags.writeable = False

    def sample(self, taus):
        if self.dense is None:
            raise DomainError("trajectory was recorded without dense output")
        return np.asarray(self.dense(np.asarray(taus, dtype=float))).T


def _crossed(g_old: float, g_new: float, direction: int) -> bool:
    if g_old == 0.0 or not (math.isfinite(g_old) and math.isfinite(g_new)):
        # starting on the locus is not a crossing
        return False
    if g_new != 0.0 and (g_old < 0.0) == (g_new < 0.0):
        return False
    rising = g_old < 0.0
    return direction == 0 or (direction > 0) == rising


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    start,
    tau_span: tuple[float, float],
    events: Sequence[EventSpec] = (),
    cfg: IntegratorConfig | None = None,
    *,
    dense: bool = False,
) -> Trajectory:
    """Advance the state over tau_span, localizing events to event_tol.

    Stops at the span end, at the first terminal event, or with an error at
    the step budget / step underflow.
    """
    cfg = cfg or DEFAULT_CONFIG
    t0, t1 = float(tau_span[0]), float(tau_span[1])
    y0 = np.atleast_1d(np.asarray(start, dtype=float)).copy()
    if t1 == t0:
        return Trajectory(np.array([t0]), y0[None, :], [], "completed", None)

    solver = RK45(rhs, t0, y0, t1, rtol=cfg.rel_tol, atol=cfg.abs_tol,
                  max_step=cfg.max_step)
    span = abs(t1 - t0)
    backward = t1 < t0
    taus = [t0]
    states = [y0.copy()]
    interps = []
    recorded: list[TrajEvent] = []
    g_prev = [ev.fn(t0, y0) for ev in events]
    status = None

    for _ in range(cfg.max_steps):
        if solver.status == "finished":
            status = "completed"
            break
        try:
            solver.step()
        except (SeplaneError, ArithmeticError, ValueError) as exc:
            # a chart-domain, overflow or math-domain error on a trial stage;
            # any other exception is a programming error and propagates
            raise IntegrationError(f"step failed at tau={solver.t}: {exc}") from exc
        if solver.status == "failed":
            raise StepUnderflowError(f"step size underflow at tau={solver.t}")
        t_old, t, y = solver.t_old, solver.t, solver.y
        if abs(t - t_old) < 1e-14 * span:
            raise StepUnderflowError(f"step shrank below 1e-14 of the span at tau={t}")
        # the step interpolant is built only for a dense run or a bracketed event
        interp = solver.dense_output() if dense else None

        hits = []
        g_now = [ev.fn(t, y) for ev in events]
        for i, ev in enumerate(events):
            if _crossed(g_prev[i], g_now[i], ev.direction):
                if interp is None:
                    interp = solver.dense_output()
                lo, hi = (t, t_old) if backward else (t_old, t)
                t_ev = brentq(lambda s, e=ev: e.fn(s, interp(s)), lo, hi,
                              xtol=cfg.event_tol)
                hits.append((t_ev, ev))
        hits.sort(key=lambda h: h[0], reverse=backward)

        stop = None
        for t_ev, ev in hits:
            s_ev = np.asarray(interp(t_ev), dtype=float)
            recorded.append(TrajEvent(t_ev, ev.name, s_ev))
            if ev.terminal:
                stop = (t_ev, s_ev)
                break
        if dense:
            interps.append(interp)
        if stop is not None:
            taus.append(stop[0])
            states.append(stop[1])
            status = "terminal-event"
            break
        taus.append(t)
        states.append(y.copy())
        g_prev = g_now
    else:
        raise MaxStepsError(f"exceeded {cfg.max_steps} steps over {tau_span}")

    sol = OdeSolution(np.asarray(taus), interps) if interps else None
    for ev in recorded:
        ev.state.flags.writeable = False
    return Trajectory(np.asarray(taus), np.asarray(states), recorded, status, sol)


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
