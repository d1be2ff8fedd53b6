"""Command-line front end: every computation as a subcommand emitting
JSON or CSV suitable for tables and plots.

Exit codes: 0 success, 2 invalid input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import checks as _checks
from .errors import DomainError, SeplaneError
from .fields import cartesian_rhs, field_cartesian
from .integrate import DEFAULT_CONFIG, EventSpec, IntegratorConfig, integrate
from .orbits import classify_orbit, conserved_quantity, saddle_data, shoot_homoclinic
from .params import (
    ProblemParams,
    angular_eigenvalue,
    critical_potential,
    decay_exponent,
    degenerate_critical,
    reduce_params,
    reduced_nonlinearity,
    slope_potential_min,
    stationary_abscissa,
)
from .periods import mode_bounds, monotonicity, period_sample, require_family
from .schemas import SCHEMA_VERSION
from .solutions import PROFILE_CONFIG, build_solution_set, sector_exists

__all__ = ["main"]

# rows written for an orbit sampled from dense output or a closed form
ORBIT_ROWS = 800


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-p", type=float, required=True, help="diffusion exponent, p >= 1")
    sub.add_argument("-q", type=float, required=True, help="source exponent, q > p - 1")
    sub.add_argument("-c", type=float, default=0.0, help="potential coefficient")
    sub.add_argument("--tol-rel", type=float, default=None)
    sub.add_argument("--tol-abs", type=float, default=None)
    sub.add_argument("--format", choices=("json", "csv"), default=None)
    sub.add_argument("--out", default=None, help="output path (directory for solve-set)")
    sub.add_argument("--seed", type=int, default=12345,
                     help="seed for the randomized acceptance suites")
    sub.add_argument("--paper-check", action="store_true",
                     help="run the acceptance assertions relevant to this subcommand")
    sub.add_argument("--config", default=None,
                     help="key=value file overriding integrator settings")


def _integrator_config(args, base: IntegratorConfig = DEFAULT_CONFIG) -> IntegratorConfig:
    """``base`` with the --config keys, then the --tol-* flags, applied."""
    fields = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read config file {args.config!r}: {exc}") from exc
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in ("rel_tol", "abs_tol", "max_step", "max_steps", "event_tol"):
                raise DomainError(f"unknown config key {key!r}")
            try:
                fields[key] = int(value) if key == "max_steps" else float(value)
            except ValueError as exc:
                raise DomainError(f"config key {key!r}: {exc}") from exc
    if args.tol_rel is not None:
        fields["rel_tol"] = args.tol_rel
    if args.tol_abs is not None:
        fields["abs_tol"] = args.tol_abs
    return dataclasses.replace(base, **fields)


def _problem(args) -> ProblemParams:
    return ProblemParams(args.p, args.q, args.c)


def cmd_params(args) -> int:
    params = _problem(args)
    p, q, c = params.p, params.q, params.c
    rp = reduce_params(params)
    nl = reduced_nonlinearity(params)
    cq = critical_potential(p, q)
    mb = mode_bounds(params)
    out = {
        "schema_version": SCHEMA_VERSION,
        "p": p, "q": q, "c": c,
        "beta_q": decay_exponent(p, q),
        "lambda_q": angular_eigenvalue(p, q),
        "c_q": cq,
        "b": rp.b, "d": rp.d,
        "a": stationary_abscissa(rp, nl) if rp.b + rp.d > 0.0 else None,
        "m_d": None,
        "M_q": mb.mode_threshold,
        "regime": {
            "b_plus_d_positive": rp.b + rp.d > 0.0,
            "slope_potential_increasing": True,
            "degenerate_critical": False,
        },
        "mode_bounds": {
            "k_q": mb.k_sign_changing_min,
            "positive_modes": list(mb.positive_modes),
            "positive_nonconstant_exists": mb.positive_nonconstant_exists,
        },
    }
    if p > 1.0:
        mn = slope_potential_min(p, rp.b)
        out["regime"]["slope_potential_increasing"] = mn is None
        out["regime"]["degenerate_critical"] = degenerate_critical(rp) is not None
        try:
            out["m_d"] = saddle_data(rp, nl)["m"]
        except SeplaneError:
            pass
    _emit(_json_dump(out), args.out)
    return 0


def _orbit_rows(traj):
    taus = np.linspace(traj.taus[0], traj.taus[-1], ORBIT_ROWS)
    if traj.dense is not None and len(traj.taus) > 1:
        states = traj.sample(taus)
    else:
        taus, states = traj.taus, traj.states
    return taus, states


def _p1_circle(w0, y0, rp, span, meta):
    """Samples of a start on the circle of radius b + 1, continued in closed
    form, or None off it. Only that circle crosses the singular line w = 0 at
    p = 1, d = 0 (it is the zero level of the first integral)."""
    radius = rp.b + 1.0
    if not (rp.d == 0.0 and abs(math.hypot(w0, y0) - radius) <= 1e-9 * radius):
        if w0 == 0.0:
            raise DomainError(
                "no p = 1 trajectory crosses w = 0 off the circle of radius b + 1")
        return None
    meta["orbit_class"] = "closed-around-origin"
    meta["analytic"] = "unique sign-changing orbit, continued in closed form"
    phase = math.atan2(w0, y0)
    taus = np.linspace(0.0, span, ORBIT_ROWS)
    w = radius * np.sin(taus + phase)
    y = radius * np.cos(taus + phase)
    events = []
    for name, offset in (("w=0", 0.0), ("y=0", math.pi / 2.0)):
        k = math.ceil((phase - offset) / math.pi)
        t_ev = k * math.pi + offset - phase
        while t_ev <= span:
            if t_ev > 0.0:
                events.append({"tau": t_ev, "kind": name,
                               "state": [radius * math.sin(t_ev + phase),
                                         radius * math.cos(t_ev + phase)]})
            t_ev += math.pi
    meta["events"] = sorted(events, key=lambda e: e["tau"])
    return taus, np.column_stack([w, y])


def _finish_orbit(args, taus, states, rp, nl, meta) -> int:
    """Record the sample count and the drift of the conserved quantity these
    parameters have, if any, then write the orbit."""
    meta["n_samples"] = len(taus)
    integral = conserved_quantity(rp, nl)
    vals = [v for w, y in states if (v := integral(w, y)) is not None] if integral else []
    if vals:
        meta["first_integral_drift"] = float(max(vals) - min(vals))
    _write_orbit(args, taus, states, meta)
    return 0


def cmd_orbit(args) -> int:
    params = _problem(args)
    cfg = _integrator_config(args)
    rp = reduce_params(params)
    nl = reduced_nonlinearity(params)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "p": rp.p, "q": rp.q, "b": rp.b, "d": rp.d,
        "orbit_class": None, "first_integral_drift": None,
        "homoclinic": None, "events": [],
    }
    if args.homoclinic:
        orb = shoot_homoclinic(rp, nl, cfg)
        meta["homoclinic"] = {
            "m_d": orb.witness["m"], "m_initial": orb.m_initial,
            "apex_w": orb.apex_w, "offset": orb.witness["offset"],
        }
        meta["orbit_class"] = "homoclinic"
        return _finish_orbit(args, orb.trajectory.taus, orb.trajectory.states,
                             rp, nl, meta)
    if args.start is None:
        raise DomainError("orbit needs --start W Y or --homoclinic")
    w0, y0 = args.start
    circle = _p1_circle(w0, y0, rp, args.span, meta) if rp.p == 1.0 else None
    if circle is not None:
        return _finish_orbit(args, *circle, rp, nl, meta)
    if rp.p > 1.0:
        if math.hypot(*field_cartesian((w0, y0), rp, nl)) < 1e-12:
            meta["orbit_class"] = "closed-around-P0"
            meta["stationary"] = True
            _write_orbit(args, np.array([0.0]), np.array([[w0, y0]]), meta)
            return 0
    traj = integrate(cartesian_rhs(rp, nl), (w0, y0), (0.0, args.span),
                     events=[EventSpec("w=0", lambda t, s: s[0]),
                             EventSpec("y=0", lambda t, s: s[1])],
                     cfg=cfg, dense=True)
    taus, states = _orbit_rows(traj)
    meta["events"] = [{"tau": e.tau, "kind": e.kind,
                       "state": [float(x) for x in e.state]}
                      for e in traj.events]
    if rp.p > 1.0 and (w0 > 0.0 or y0 > 0.0):
        try:
            meta["orbit_class"] = classify_orbit((w0, y0), rp, nl, cfg).tag
        except SeplaneError as exc:
            meta["orbit_class"] = None
            meta["classification_note"] = str(exc)
    return _finish_orbit(args, taus, states, rp, nl, meta)


def _write_orbit(args, taus, states, meta) -> None:
    if (args.format or "csv") == "json":
        doc = dict(meta)
        doc["samples"] = [[float(t), float(w), float(y)]
                          for t, (w, y) in zip(taus, states)]
        _emit(_json_dump(doc), args.out)
        return
    lines = ["tau,w,y"]
    lines += [f"{_fmt(t)},{_fmt(w)},{_fmt(y)}" for t, (w, y) in zip(taus, states)]
    lines += ["# " + line for line in _json_dump(meta).rstrip("\n").split("\n")]
    _emit("\n".join(lines) + "\n", args.out)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise DomainError("grid spec is lo:hi:n or lo:hi:n:log")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n <= 0 or hi <= lo:
        raise DomainError("grid needs hi > lo and n > 0")
    if len(parts) == 4 and parts[3] == "log":
        if lo <= 0.0:
            raise DomainError("log grid needs lo > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def cmd_period_scan(args) -> int:
    params = _problem(args)
    cfg = _integrator_config(args)
    rp = reduce_params(params)
    nl = reduced_nonlinearity(params)
    grid = _parse_grid(args.grid)
    require_family(args.kind, rp)
    rows, failed = [], False
    for amp in grid:
        try:
            s = period_sample(args.kind, float(amp), rp, nl, cfg)
            rows.append((amp, s.period, s.method, s.est_error, ""))
        except SeplaneError as exc:
            failed = True
            rows.append((amp, math.nan, "", math.nan, str(exc).replace(",", ";")))
    periods = [r[1] for r in rows if r[4] == ""]
    verdict, violation = "insufficient data", math.nan
    if len(periods) >= 2:
        verdict, violation = monotonicity(periods)
    if (args.format or "csv") == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": args.kind, "verdict": verdict, "max_violation": violation,
            "rows": [{"amplitude": float(a), "period": None if math.isnan(t) else t,
                      "method": m, "est_error": None if math.isnan(e) else e,
                      "error": err}
                     for a, t, m, e, err in rows],
        }
        _emit(_json_dump(doc), args.out)
    else:
        lines = ["amplitude,period,method,est_error,error"]
        for a, t, m, e, err in rows:
            tcol = "" if math.isnan(t) else _fmt(t)
            ecol = "" if math.isnan(e) else _fmt(e)
            lines.append(f"{_fmt(a)},{tcol},{m},{ecol},{err}")
        lines.append(f"# verdict: {verdict} (max violation {violation})")
        _emit("\n".join(lines) + "\n", args.out)
    return 3 if failed else 0


def cmd_solve_set(args) -> int:
    params = _problem(args)
    cfg = _integrator_config(args, PROFILE_CONFIG)
    ss = build_solution_set(params, cfg, k_max=args.k_max)
    doc = ss.describe()
    doc["schema_version"] = SCHEMA_VERSION
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "solution_set.json").write_text(_json_dump(doc))
        profiles = [(f"mode_sc_k{e.k}", e.profile) for e in ss.sign_changing] \
            + [(f"mode_pos_k{e.k}", e.profile) for e in ss.positive] \
            + [("family_" + fam["family"] + (f"_K{fam['K']}" if "K" in fam else ""),
                fam["profile"]) for fam in ss.explicit_families]
        for name, prof in profiles:
            # one formatting pass per profile, the same bytes as _fmt per value;
            # the row floats live only inside the expression, so they are freed
            # before the write and add nothing to peak RSS
            (out_dir / f"{name}.csv").write_text("sigma,omega\n" + "%.17g,%.17g\n" * len(
                prof.sigma) % tuple(np.column_stack((prof.sigma, prof.omega)).ravel().tolist()))
    else:
        sys.stdout.write(_json_dump(doc))
    bad = [n for n in ss.notes if "failed" in n]
    return 3 if bad else 0


def cmd_sector(args) -> int:
    rep = sector_exists(args.p, args.q, args.theta)
    doc = dataclasses.asdict(rep)
    doc = {"schema_version": SCHEMA_VERSION, "beta_s": doc.pop("beta_s"), **doc}
    _emit(_json_dump(doc), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seplane",
        description="Separable singular profiles of a quasilinear reaction "
                    "equation via phase-plane analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="derived constants and regime tags")
    _add_common(p_params)
    p_params.set_defaults(fn=cmd_params)

    p_orbit = sub.add_parser("orbit", help="integrate one phase-plane orbit")
    _add_common(p_orbit)
    p_orbit.add_argument("--start", type=float, nargs=2, metavar=("W", "Y"))
    p_orbit.add_argument("--homoclinic", action="store_true",
                         help="construct the separatrix by saddle shooting")
    p_orbit.add_argument("--span", type=float, default=20.0)
    p_orbit.set_defaults(fn=cmd_orbit)

    p_scan = sub.add_parser("period-scan", help="period function over an amplitude grid")
    _add_common(p_scan)
    p_scan.add_argument("--kind", choices=("sign-changing", "positive"),
                        required=True)
    p_scan.add_argument("--grid", required=True, help="lo:hi:n or lo:hi:n:log")
    p_scan.set_defaults(fn=cmd_period_scan)

    p_solve = sub.add_parser("solve-set", help="assemble the full solution sets")
    _add_common(p_solve)
    p_solve.add_argument("--k-max", type=int, default=None)
    p_solve.set_defaults(fn=cmd_solve_set)

    p_sector = sub.add_parser("sector", help="existence on an angular sector")
    _add_common(p_sector)
    p_sector.add_argument("--theta", type=float, required=True,
                          help="sector opening in radians, 0 < theta < 2 pi")
    p_sector.set_defaults(fn=cmd_sector)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.format == "csv" and args.command not in ("orbit", "period-scan"):
            raise DomainError("--format csv applies to orbit and period-scan only")
        if args.command in ("params", "sector") and (
                args.tol_rel is not None or args.tol_abs is not None or args.config):
            raise DomainError("--tol-rel, --tol-abs and --config apply to orbit, "
                              "period-scan and solve-set only")
        if args.paper_check:
            ids = _checks.CHECKS_BY_COMMAND[args.command]
            ok = _checks.run_checks(ids, seed=args.seed)
            return 0 if ok else 3
        return args.fn(args)
    except DomainError as exc:
        print(f"seplane: invalid input: {exc}", file=sys.stderr)
        return 2
    except SeplaneError as exc:
        print(f"seplane: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
