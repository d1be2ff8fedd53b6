"""Adaptive time stepping with dense output and event localization.

Chart-agnostic plumbing: the stepper advances any planar rhs(t, s), which
maps the state pair s of Python floats to the pair of its derivatives, by an
explicit Runge-Kutta pair on floats. Each step is generated as straight-line
code from its Butcher tableau at import. Two pairs share one step-size
control, the I-controller of Hairer, Norsett & Wanner (Solving ODEs I, II.4).
The section and fixed-span runs scale h with safety 0.8, and a step that is
rejected again shrinks by the order that its last two estimates show, since
the estimate can jump much faster than h^8 mid-orbit and fall much slower
where the field is not smooth, as at w = 0 under |w|^(p-2) w. The recorded
runs of ``integrate`` step as scipy's DOP853 does: safety 0.9, and every
rejection shrinks by the pair's order.

- Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner I, II.10), in the
  arithmetic of scipy's DOP853, runs every call: ``integrate``, which records
  sampled states and polishes every sign change of the scalar monitors
  g(t, s); ``integrate_to_section``, a run to the first section crossing; and
  ``integrate_to_end``, a run over a fixed span whose rhs may reject a stage.
  Its dense output is the pair's seventh-order continuous extension, three
  extra stages per step (II.6), on the same steps; ``integrate`` computes
  them on every step that brackets an event and polishes the event on that
  step's polynomial. A section run lands on the section with one step in y
  as the independent variable (Henon, Physica D 5, 1982), so it needs no
  interpolant to time the crossing.
- Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 1980), in the arithmetic of
  scipy's RK45, runs only a section run whose DOP853 steps underflow before
  the section. It lands the same way, and its dense output is the quartic
  continuous extension of Shampine (Math. Comp. 46, 1986).
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
    "integrate_to_end",
    "StageRejected",
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


class _Tableau(NamedTuple):
    """Butcher tableau of an explicit pair with s stages: nodes c, the rows
    a[i] of the stage matrix below its diagonal, weights b, and rows of error
    weights over the s stages and the derivative at the new state."""

    c: tuple[float, ...]
    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    estimators: tuple[tuple[float, ...], ...]


def _weighted(coeffs, comp) -> str:
    """The sum of coeffs[j] times stage j + 1, component ``comp``, as code:
    in the coefficients' order, zero coefficients skipped."""
    return " + ".join(f"k{j}{comp} * {x!r}" for j, x in enumerate(coeffs, 1) if x)


def _stage_line(i: int, ci: float, row) -> str:
    """The line that evaluates stage i at t + ci h from y + h (sum of row[j]
    times stage j + 1)."""
    return (f"    k{i}0, k{i}1 = rhs(t + {ci!r} * h, ("
            f"y0 + ({_weighted(row, 0)}) * h, y1 + ({_weighted(row, 1)}) * h))")


def _compiled(name, lines, namespace=None):
    namespace = dict(namespace or {})
    exec(compile("\n".join(lines), f"<{name}>", "exec"), namespace)
    return namespace[name]


def _unrolled_step(name, tableau, keep, norm):
    """One step of the explicit Runge-Kutta pair ``tableau`` on a float pair,
    generated as straight-line code.

    The function ``name(rhs, t, h, y0, y1, k10, k11, rtol, atol)`` takes the
    derivative (k10, k11) at the start, evaluates stage i + 1 at
    t + c[i] h from y + h (sum of a[i][j] k_(j+1)), and then the derivative
    at the new state y + h (sum of b[j] k_(j+1)) as the last stage. Every sum
    runs in the tableau's order and skips zero coefficients. Each row e of
    ``estimators`` weights all stages, the last included; its sum times h,
    divided per component by atol + max(|y|, |y_new|) rtol, is passed with
    the others to ``norm``, which returns the error norm. The function
    returns the new state, that norm and the stages numbered in ``keep``
    (from 1), flat by component, the last stage last.
    """
    c, a, b, estimators = tableau
    last = len(c) + 1
    lines = [f"def {name}(rhs, t, h, y0, y1, k10, k11, rtol, atol):"]
    lines += [_stage_line(i + 1, c[i], a[i]) for i in range(1, len(c))]
    lines += [f"    n{m} = y{m} + h * ({_weighted(b, m)})" for m in (0, 1)]
    lines.append(f"    k{last}0, k{last}1 = rhs(t + h, (n0, n1))")
    for m in (0, 1):
        lines.append(f"    s{m} = atol + max(abs(y{m}), abs(n{m})) * rtol")
        lines += [f"    e{j}{m} = ({_weighted(e, m)}) * h / s{m}"
                  for j, e in enumerate(estimators)]
    errors = ", ".join(f"e{j}{m}" for j in range(len(estimators)) for m in (0, 1))
    stages = ", ".join(f"k{j}{m}" for j in keep for m in (0, 1))
    lines.append(f"    return n0, n1, _norm({errors}), ({stages},)")
    return _compiled(name, lines, {"_norm": norm})


def _unrolled_extra_stages(name, extension, keep):
    """The extra stages of a continuous extension, generated as straight-line
    code like the step itself.

    The function ``name(rhs, t, h, y0, y1, k)`` takes the stages numbered in
    ``keep`` (from 1) of an accepted step of size h from (t, y0, y1), flat by
    component as the step returns them. It evaluates stage s + i at
    t + c[i] h from y + h (sum of a[i][j] k_(j+1)), where s is the stage after
    the last kept one, and returns the new stages flat by component.
    """
    first = keep[-1] + 1
    kept = ", ".join(f"k{j}{m}" for j in keep for m in (0, 1))
    lines = [f"def {name}(rhs, t, h, y0, y1, k):", f"    {kept}, = k"]
    lines += [_stage_line(first + i, ci, row)
              for i, (ci, row) in enumerate(zip(extension.c, extension.a))]
    new = ", ".join(f"k{first + i}{m}" for i in range(len(extension.c)) for m in (0, 1))
    lines.append(f"    return ({new},)")
    return _compiled(name, lines)


_SQRT2 = 2 ** 0.5


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / _SQRT2


def _dop853_norm(a0: float, a1: float, b0: float, b1: float) -> float:
    """DOP853's error norm |h| |E5|^2 / sqrt(2 (|E5|^2 + 0.01 |E3|^2)), where
    E5 and E3 are the fifth- and third-order estimates scaled per component
    and |.| is the Euclidean norm. The arguments are h E5 (a) and h E3 (b),
    whose quotient gives the factor |h|."""
    e5, e3 = a0 * a0 + a1 * a1, b0 * b0 + b1 * b1
    return e5 / math.sqrt(2.0 * (e5 + 0.01 * e3)) if e5 else 0.0


class _Pair(NamedTuple):
    step: Callable   # the unrolled step of _unrolled_step
    order: int       # the controlled error estimate is O(h^order)


# Dormand-Prince 5(4) (Dormand & Prince 1980): nodes, stage rows, fifth-order
# weights and the error weights over all seven stages. The kept stages 1, 3,
# 4, 5, 6 and 7 build the quartic extension; the row of stage 2 in _P is zero
_DP5_TABLEAU = _Tableau(
    c=(0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0),
    a=((),
       (1 / 5,),
       (3 / 40, 9 / 40),
       (44 / 45, -56 / 15, 32 / 9),
       (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
       (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
    b=(35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    estimators=((-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
                 1 / 40),))
_DP5 = _Pair(_unrolled_step("dp5_step", _DP5_TABLEAU, keep=(1, 3, 4, 5, 6, 7), norm=_rms),
             order=5)

# Dormand-Prince 8(5,3) (Prince & Dormand 1981; Hairer, Norsett & Wanner I,
# II.10), the twelve stages of Hairer's DOP853 as scipy ships them
# (scipy/integrate/_ivp/dop853_coefficients.py), each float written in its
# shortest round-trip form: nodes, stage rows, eighth-order weights, and the
# fifth- and third-order error weights over the twelve stages and the new
# state's derivative. Only that derivative is kept, for the next step
_DOP853_TABLEAU = _Tableau(
    c=(0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
       0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
       0.6512820512820513, 0.6, 0.8571428571428571, 1.0),
    a=((),
       (0.05260015195876773,),
       (0.0197250569845379, 0.0591751709536137),
       (0.02958758547680685, 0.0, 0.08876275643042054),
       (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
       (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
       (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
       (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023),
       (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996),
       (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486,
        -0.020331201708508627),
       (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
        -3.0467644718982196),
       (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
        12.360567175794303, 0.6433927460157636)),
    b=(0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
       -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
       0.04471061572777259),
    estimators=(
        (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
         1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
         -0.022355307863886294, 0.0),
        (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
         -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
         0.02265179219836082, 0.0)))
_DOP853 = _Pair(_unrolled_step("dop853_step", _DOP853_TABLEAU, keep=(13,),
                               norm=_dop853_norm), order=8)


class _Extension(NamedTuple):
    """Continuous extension of a pair: nodes c and rows a (over all earlier
    stages) of its extra stages, and the rows d that weight all stages."""

    c: tuple[float, ...]
    a: tuple[tuple[float, ...], ...]
    d: tuple[tuple[float, ...], ...]


# DOP853's seventh-order continuous extension (Hairer, Norsett & Wanner I,
# II.6 and II.10), as scipy ships it (C_EXTRA, A_EXTRA and D of
# dop853_coefficients.py): stages 14-16 after the step, and the rows of D over
# the sixteen stages. With Dy = y_new - y_old, f and f_new the derivatives at
# the step's ends, and F3..F6 = h D K, the state at t + x h is
# y_old + x (Dy + (1-x) (h f - Dy + x (2 Dy - h (f + f_new)
#            + (1-x) (F3 + x (F4 + (1-x) (F5 + x F6))))))
_DOP853_EXTENSION = _Extension(
    c=(0.1, 0.2, 0.7777777777777778),
    a=((0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
        -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
        0.007567897660545699, -0.008298),
       (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
        -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325),
       (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
        2.9475147891527724, -9.15095847217987)),
    d=((-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
        2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
        0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894),
       (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
        -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408),
       (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
        527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
        0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279),
       (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
        357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
        29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564)))
# the stages that the extension reads: 2-5 have zero weight in every row
_DOP853_DENSE_KEEP = (1, 6, 7, 8, 9, 10, 11, 12, 13)
# the same step, returning the stages that its dense output reads
_DOP853_DENSE = _Pair(_unrolled_step("dop853_dense_step", _DOP853_TABLEAU,
                                     keep=_DOP853_DENSE_KEEP, norm=_dop853_norm), order=8)
_dop853_extra_stages = _unrolled_extra_stages("dop853_extra_stages", _DOP853_EXTENSION,
                                              _DOP853_DENSE_KEEP)


# the rows of D over the stages that the dense step keeps and the extra ones
_DOP853_D = np.array(_DOP853_EXTENSION.d)[:, [j - 1 for j in (*_DOP853_DENSE_KEEP, 14, 15, 16)]]


def _nested_powers() -> np.ndarray:
    """The nested form of the extension in powers of x: row i holds the
    coefficients of x .. x^7 in x^(i//2 + 1) (1-x)^((i+1)//2), the factor of
    F_i, with F0, F1, F2 = Dy, h f - Dy, 2 Dy - h (f + f_new)."""
    powers = np.zeros((7, 7))
    for i in range(7):
        low, high = i // 2 + 1, (i + 1) // 2
        for m in range(high + 1):
            powers[i, low + m - 1] = math.comb(high, m) * (-1) ** m
    return powers


_DOP853_POWERS = _nested_powers()

# the matrix P whose product K^T P, over the kept DP5 stages, gives the
# coefficients of x, x^2, x^3, x^4 of the quartic extension
# y_old + h K^T P (x, .., x^4) (Shampine 1986)
_P = np.array((
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
))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.8, 0.2, 10.0
_SCIPY_SAFETY = 0.9   # scipy's DOP853, which integrate's runs step as


class StageRejected(Exception):
    """Raised by an rhs for a stage that a shorter step would avoid; the
    controller rejects the step as if its error estimate were infinite."""


def _initial_step(pair, rhs, t0, y0, y1, f0, f1, t1, direction, cfg) -> float:
    """First step size of Hairer, Norsett & Wanner II.4 (scipy's
    select_initial_step for the pair's error order): one extra rhs call. A
    derivative whose scaled norm overflows leaves none: IntegrationError."""
    span = abs(t1 - t0)
    s0 = cfg.abs_tol + abs(y0) * cfg.rel_tol
    s1 = cfg.abs_tol + abs(y1) * cfg.rel_tol
    d0 = _rms(y0 / s0, y1 / s1)
    d1 = _rms(f0 / s0, f1 / s1)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0.0:
        raise IntegrationError(f"no first step from the start ({y0!r}, {y1!r}) at {t0}: "
                               f"the norm of its derivative ({f0!r}, {f1!r}) overflows")
    h0 = min(h0, span)
    g0, g1 = rhs(t0 + h0 * direction, (y0 + h0 * direction * f0,
                                        y1 + h0 * direction * f1))
    d2 = _rms((g0 - f0) / s0, (g1 - f1) / s1) / h0
    if not (d1 > 1e-15 or d2 > 1e-15):
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / pair.order)
    return min(100 * h0, h1, span, cfg.max_step)


def _steps(pair, rhs, t, y0, y1, f0, f1, t1, h_abs, cfg, var="tau", as_scipy=False):
    """The accepted steps of ``pair`` from (t, y0, y1), whose derivative is
    (f0, f1), to t1, trying h_abs first: yields (t_new, h, n0, n1, stages)
    for each and returns at t1. This is the step-size control of every run,
    with its typed failures; ``var`` names the independent variable in their
    messages.

    An estimate err scales h by 0.8 err^(-1/order), within [0.2, 10], and an
    accepted step does not grow right after a rejection (Hairer, Norsett &
    Wanner I, II.4). The same step rejected again shrinks by the order
    q = log(err1/err2) / log(h1/h2) of its last two estimates, when both are
    finite, clamped to [1, order], instead of by the pair's order. With
    ``as_scipy`` the safety is 0.9 and every rejection shrinks by the pair's
    order, the control of scipy's RungeKutta."""
    step, exponent = pair.step, -1 / pair.order
    safety = _SCIPY_SAFETY if as_scipy else _SAFETY
    span, t0 = abs(t1 - t), t
    direction = 1.0 if t1 > t else -1.0
    rtol, atol, max_step = cfg.rel_tol, cfg.abs_tol, cfg.max_step
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
                try:
                    n0, n1, err, k = step(rhs, t, h, y0, y1, f0, f1, rtol, atol)
                except StageRejected:
                    err = math.inf
                accepted = err < 1.0
                if accepted:
                    # no growth right after a rejection
                    factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR,
                                                                safety * err ** exponent)
                    h_abs *= min(1.0, factor) if rejected else factor
                else:
                    shrink = exponent
                    if (rejected and not as_scipy and math.isfinite(err)
                            and math.isfinite(err_old)):
                        order = math.log(err_old / err) / math.log(h_old / h_abs)
                        shrink = -1.0 / min(max(order, 1.0), pair.order)
                    h_old, err_old = h_abs, err
                    h_abs *= max(_MIN_FACTOR, safety * err ** shrink)
                    rejected = True
        except (SeplaneError, ArithmeticError, ValueError) as exc:
            # a chart-domain, overflow or math-domain error on a trial stage;
            # any other exception is a programming error and propagates
            raise IntegrationError(f"step failed at {var}={t}: {exc}") from exc
        if not accepted:
            raise StepUnderflowError(f"step size underflow at {var}={t}")
        if abs(h) < 1e-14 * span:
            raise StepUnderflowError(
                f"step shrank below 1e-14 of the span at {var}={t_new}")
        yield t_new, h, n0, n1, k
        t, y0, y1, f0, f1 = t_new, n0, n1, k[-2], k[-1]
        if direction * (t - t1) >= 0.0:
            return
    raise MaxStepsError(f"exceeded {cfg.max_steps} steps over {var} in ({t0}, {t1}): "
                        f"reached {var}={t!r} at the state ({y0!r}, {y1!r})")


def _planar_start(start, tau_span) -> tuple[float, float, np.ndarray]:
    """The span's ends as floats and the start as a float pair, checked."""
    t0, t1 = float(tau_span[0]), float(tau_span[1])
    y_start = np.array(start, dtype=float)
    if y_start.shape != (2,):
        raise DomainError(f"the stepper advances planar states, got shape {y_start.shape}")
    if not all(map(math.isfinite, (t0, t1, *y_start.tolist()))):
        raise DomainError(f"the stepper needs a finite start and span, got {start}, {tau_span}")
    return t0, t1, y_start


def _weighted_sums(k: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sums over s of k[:, s, c] rows[s], shape (n, 2, len(rows[0])), term by
    term in the order of s: einsum's arithmetic, without paging its code in."""
    acc = k[:, 0, :, None] * rows[0]
    for s in range(1, len(rows)):
        acc = acc + k[:, s, :, None] * rows[s]
    return acc


def _dp5_coefficients(starts: np.ndarray, steps) -> tuple[np.ndarray, np.ndarray]:
    """Step sizes and quartics K^T P, shape (steps, 2, 4), of DP5 steps, each
    given flat as (h, y_new, kept stages), in one pass; the starts are unused."""
    rows = np.array(steps)
    return rows[:, 0].copy(), _weighted_sums(rows[:, 3:].reshape(-1, 6, 2), _P)


def _dop853_coefficients(starts: np.ndarray, steps) -> tuple[np.ndarray, np.ndarray]:
    """Step sizes and degree-7 coefficients, shape (steps, 2, 7), of DOP853
    steps from ``starts``, each given flat as (h, y_new, kept stages, extra
    stages), in one pass over all steps: F / h of the nested form, then its
    powers of x. The large entries of D cancel in D K, so the powers come
    from the small F and keep the step ends to a few ulps."""
    rows = np.array(steps)
    h = rows[:, 0].copy()
    k = rows[:, 3:].reshape(-1, 12, 2)
    f, f_new = k[:, 0], k[:, _DOP853_DENSE_KEEP.index(13)]
    dy = (rows[:, 1:3] - starts) / h[:, None]
    nested = np.empty((len(rows), 2, 7))
    nested[..., 0] = dy
    nested[..., 1] = f - dy
    nested[..., 2] = 2.0 * dy - (f_new + f)
    nested[..., 3:] = _weighted_sums(k, _DOP853_D.T)
    return h, _weighted_sums(nested.transpose(0, 2, 1), _DOP853_POWERS)


class PiecewisePolynomial:
    """Dense output of a run: step i starts at ``taus[i]`` from ``states[i]``
    and spans ``h[i]`` (the last step may end past the last node, at the
    section or a terminal event). At tau = taus[i] + x h[i] the state is
    states[i] + h[i] (q[i, :, 0] x + ... + q[i, :, n-1] x^n), where the
    degree n is read off ``q``, shape (steps, 2, n): DOP853's seventh-order
    extension, or the quartics of DP5 (Shampine 1986) on an underflow rerun."""

    def __init__(self, taus: np.ndarray, states: np.ndarray, h, q: np.ndarray):
        self.taus, self.starts = taus, states[:-1]
        self.h = np.asarray(h, dtype=float)
        self.q = q
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
        x = ((ts - self.taus[seg]) / self.h[seg])[:, None]
        # one coefficient column at a time: the run's coefficients gathered
        # for every time at once would take n times the memory of the states
        power = x
        poly = self.q[seg, :, 0] * power
        for j in range(1, self.q.shape[-1]):
            power = power * x
            poly = poly + self.q[seg, :, j] * power
        return self.h[seg][:, None] * poly + self.starts[seg]


@dataclass
class Trajectory:
    """Sampled path of a flow in one chart, immutable once returned."""

    taus: np.ndarray
    states: np.ndarray
    events: list[TrajEvent]
    status: str
    dense: PiecewisePolynomial | None = None

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


def _step_polynomial(t_old, y0, y1, step):
    """State at tau, a pair of floats, on the degree-7 extension of one DOP853
    step from (t_old, y0, y1), given flat as _dop853_coefficients reads it;
    its sums are PiecewisePolynomial's term for term."""
    h, q = _dop853_coefficients(np.array([(y0, y1)]), [step])
    h, (q0, q1) = float(h[0]), q[0].tolist()
    def at(tau):
        x = (tau - t_old) / h
        power, s0, s1 = x, q0[0] * x, q1[0] * x
        for c0, c1 in zip(q0[1:], q1[1:]):
            power = power * x
            s0, s1 = s0 + c0 * power, s1 + c1 * power
        return h * s0 + y0, h * s1 + y1
    return at


def _trajectory(taus, states, events, status, steps=None, coefficients=None) -> Trajectory:
    """The run's Trajectory, with the dense output of ``steps`` if given."""
    taus_arr, states_arr = np.array(taus), np.array(states)
    polys = (PiecewisePolynomial(taus_arr, states_arr,
                                 *(coefficients or _dop853_coefficients)(states_arr[:-1], steps))
             if steps is not None else None)
    return Trajectory(taus_arr, states_arr, events, status, polys)


def integrate(
    rhs: Callable[[float, tuple[float, float]], tuple[float, float]],
    start,
    tau_span: tuple[float, float],
    events: Sequence[EventSpec] = (),
    cfg: IntegratorConfig | None = None,
    *,
    dense: bool = False,
) -> Trajectory:
    """Advance the planar state over tau_span with the Dormand-Prince 8(5,3)
    pair, localizing events to event_tol on the seventh-order extension of
    the step that brackets them.

    ``rhs(t, s)`` receives the state as a pair of Python floats and returns
    its two derivatives as floats; event monitors receive the same pair. A
    step that brackets an event evaluates its three extra stages, as every
    step does with ``dense``. Stops at the span end, at the first terminal
    event, or with an error at the step budget / step underflow; a non-finite
    start or span end is a DomainError. An error raised by the first two rhs
    calls (the start and the trial of the first step size) propagates as it
    is; a chart-domain, arithmetic or value error on a later stage becomes an
    IntegrationError.

    The steps are those of scipy's DOP853 at the same tolerances, under its
    control (_steps with ``as_scipy``), so a recorded orbit, its events and
    its dense output are scipy's step for step. With dense output an
    accepted step costs three calls more than a rejected one, and there the
    section runs' control saves few calls, if any.
    """
    cfg = cfg or DEFAULT_CONFIG
    t0, t1, y_start = _planar_start(start, tau_span)
    if t1 == t0:
        return Trajectory(np.array([t0]), y_start[None, :], [], "completed", None)

    direction = 1.0 if t1 > t0 else -1.0
    t, (y0, y1) = t0, y_start.tolist()
    f0, f1 = rhs(t0, (y0, y1))
    h_abs = _initial_step(_DOP853, rhs, t0, y0, y1, f0, f1, t1, direction, cfg)
    taus = [t0]
    states = [(y0, y1)]
    steps = []   # with dense output: each step's h, new state and stages, flat
    recorded: list[TrajEvent] = []
    g_prev = [ev.fn(t0, (y0, y1)) for ev in events]
    status = "completed"

    pair = _DOP853_DENSE if dense or events else _DOP853
    for t_new, h, n0, n1, k in _steps(pair, rhs, t0, y0, y1, f0, f1, t1, h_abs, cfg,
                                      as_scipy=True):
        step = (h, n0, n1, *k, *_extra_stages(rhs, t, h, y0, y1, k)) if dense else None
        hits = []
        if events:
            g_now = [ev.fn(t_new, (n0, n1)) for ev in events]
            at = None   # the step's polynomial, built at its first bracketed event
            for i, ev in enumerate(events):
                if _crossed(g_prev[i], g_now[i], ev.direction):
                    if at is None:
                        step = step or (h, n0, n1, *k, *_extra_stages(rhs, t, h, y0, y1, k))
                        at = _step_polynomial(t, y0, y1, step)
                    lo, hi = (t_new, t) if direction < 0.0 else (t, t_new)
                    t_ev = brentq(lambda s, e=ev: e.fn(s, at(s)), lo, hi,
                                  xtol=cfg.event_tol)
                    hits.append((t_ev, ev))
            if len(hits) > 1:
                hits.sort(key=lambda hit: hit[0], reverse=direction < 0.0)
            g_prev = g_now

        stop = None
        for t_ev, ev in hits:
            s_ev = at(t_ev)
            recorded.append(TrajEvent(t_ev, ev.name, _frozen(s_ev)))
            if ev.terminal:
                stop = (t_ev, s_ev)
                break
        if dense:
            steps.append(step)
        if stop is not None:
            taus.append(stop[0])
            states.append(stop[1])
            status = "terminal-event"
            break
        t, y0, y1 = t_new, n0, n1
        taus.append(t)
        states.append((y0, y1))

    return _trajectory(taus, states, recorded, status, steps if dense else None)


def _frozen(pair) -> np.ndarray:
    state = np.array(pair)
    state.flags.writeable = False
    return state


# the section that ends quarter and half orbits and the homoclinic ascent: the
# second coordinate (y, or the slope u in the slope charts) falling through 0
SECTION = EventSpec("y=0", lambda t, s: s[1], terminal=True, direction=-1)


def _to_section(rhs, start, tau_span, cfg: IntegratorConfig, dense: bool = False,
                dp5: bool = False) -> Trajectory:
    """The run of integrate(rhs, start, tau_span, [SECTION], cfg, dense=dense)
    under the section runs' step control (_steps), stepped by the
    Dormand-Prince 8(5,3) pair, or 5(4) with ``dp5``, and ended on the
    section by Henon's step.

    The step that brackets the section is not recorded as a node. From its
    start (tau, w, y) a DOP853 run in the independent variable y, on the
    state (w, tau) with dw/dy = w'/y' and dtau/dy = 1/y', lands on y = 0
    (Henon, Physica D 5, 1982). Where y does not fall at the start, as on a
    step across a maximum of y, the landing runs from the step's end, and
    where it falls at neither end the run raises IntegrationError. An
    estimate above 1, or a stage where y does not fall (y' = 0 included),
    subdivides the landing, and a landed tau outside the bracketing step by
    more than its tolerance on tau raises IntegrationError. A DOP853 run
    whose steps underflow before the section is run again on DP5.

    Dense output adds each accepted DOP853 step's three extra stages and
    builds the polynomials of all steps, the bracketing one included, in one
    pass at the end. The steps and the landing are those of the run without
    it, bit for bit.
    """
    t0, t1, y_start = _planar_start(start, tau_span)
    if t1 == t0:
        return Trajectory(np.array([t0]), y_start[None, :], [], "completed", None)

    direction = 1.0 if t1 > t0 else -1.0
    t, (w, y) = t0, y_start.tolist()
    f0, f1 = rhs(t0, (w, y))
    pair = _DP5 if dp5 else _DOP853_DENSE if dense else _DOP853
    h_abs = _initial_step(pair, rhs, t0, w, y, f0, f1, t1, direction, cfg)
    taus = [t0]
    states = [(w, y)]
    steps = []   # with dense output: each step's h, new state and stages, flat

    def by_y(y, s):
        f0, f1 = rhs(s[1], (s[0], y))
        if not direction * f1 < 0.0:
            raise StageRejected
        return f0 / f1, 1.0 / f1

    def run(events, status):
        return _trajectory(taus, states, events, status, steps if dense else None,
                           _dp5_coefficients if dp5 else None)

    try:
        for t_new, h, n0, n1, k in _steps(pair, rhs, t0, w, y, f0, f1, t1, h_abs, cfg):
            if dense:
                steps.append((h, n0, n1, *k) if dp5 else
                             (h, n0, n1, *k, *_extra_stages(rhs, t, h, w, y, k)))
            if _crossed(y, n1, SECTION.direction):
                break
            t, w, y, f0, f1 = t_new, n0, n1, k[-2], k[-1]
            taus.append(t)
            states.append((w, y))
        else:
            return run([], "completed")
    except StepUnderflowError:
        # where the field is not smooth, as at w = 0 of a Cartesian orbit at p
        # near 1 with its source term |w|^(p-2) w, DOP853's estimate can shrink
        # the steps below the floor where DP5's does not
        if dp5:
            raise
        return _to_section(rhs, start, tau_span, cfg, dense, dp5=True)

    lo, hi = sorted((t, t_new))
    if not direction * f1 < 0.0:
        t, w, y, f0, f1 = t_new, n0, n1, k[-2], k[-1]
        if not direction * f1 < 0.0:
            raise IntegrationError(f"cannot land on y = 0: y falls at neither end of the "
                                   f"step from tau={lo} to {hi}")
    for _, _, w, t, _ in _steps(_DOP853, by_y, y, w, t, f0 / f1, 1.0 / f1, 0.0, abs(y), cfg,
                                var="y"):
        pass
    slack = cfg.abs_tol + cfg.rel_tol * abs(t)
    if not lo - slack <= t <= hi + slack:
        raise IntegrationError(f"the landing on y = 0 at tau={t} left its step from "
                               f"tau={lo} to {hi}")
    taus.append(t)
    states.append((w, 0.0))
    return run([TrajEvent(t, SECTION.name, _frozen((w, 0.0)))], "terminal-event")


def _extra_stages(rhs, t, h, y0, y1, k) -> tuple[float, ...]:
    """The three extra stages of the accepted DOP853 step of size h from
    (t, y0, y1) with the kept stages k; an error on one of them is an
    IntegrationError, as on a stage of the step."""
    try:
        return _dop853_extra_stages(rhs, t, h, y0, y1, k)
    except (SeplaneError, ArithmeticError, ValueError) as exc:
        raise IntegrationError(f"dense-output stage failed in the step from tau={t}: "
                               f"{exc}") from exc


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

    The run steps the Dormand-Prince 8(5,3) pair and lands on the section
    with Henon's step (_to_section); dense output does not change its
    crossing time. The span (0, tau_max) also sets the first step size, so
    callers keep their own horizon. Raises NoCrossingError when the span
    ends first.
    """
    traj = _to_section(rhs, start, (0.0, tau_max), cfg or DEFAULT_CONFIG, dense)
    if not traj.events:
        raise NoCrossingError(
            f"no downward crossing of y = 0 (u = 0 in slope charts) within tau <= {tau_max}")
    return traj.events[-1].tau, traj


def integrate_to_end(rhs, start, span: tuple[float, float], cfg: IntegratorConfig | None = None,
                     *, var: str = "tau") -> tuple[float, float]:
    """The state at the end of ``span`` of the Dormand-Prince 8(5,3) run from
    ``start``, without events or dense output. ``rhs`` may raise
    StageRejected for a stage that a shorter step would avoid, as the
    landing's does. An error at the start is an IntegrationError, as on any
    later stage; ``var`` names the independent variable in messages."""
    t0, t1, y_start = _planar_start(start, span)
    y0, y1 = y_start.tolist()
    cfg = cfg or DEFAULT_CONFIG
    try:
        f0, f1 = rhs(t0, (y0, y1))
        h_abs = _initial_step(_DOP853, rhs, t0, y0, y1, f0, f1, t1, 1.0 if t1 > t0 else -1.0, cfg)
    except (SeplaneError, ArithmeticError, ValueError, StageRejected) as exc:
        raise IntegrationError(f"cannot start at {var}={t0} from ({y0!r}, {y1!r}): "
                               f"{exc!r}") from exc
    for _, _, y0, y1, _ in _steps(_DOP853, rhs, t0, y0, y1, f0, f1, t1, h_abs, cfg, var=var):
        pass
    return y0, y1
