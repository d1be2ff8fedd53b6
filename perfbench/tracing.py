"""Per-layer counters and self times, taken by wrapping seplane's public
functions in every module that binds them.

Only the benchmark's own files change: ``install`` replaces each target in
its defining module and in every other ``seplane`` module that imported it by
name (``from .integrate import integrate`` makes a binding of its own in
``periods``, ``solutions``, ``orbits`` and ``cli``). The package re-exports
the function ``integrate`` under the module's name, so the module itself is
reached through ``sys.modules``.

Self time is a call's duration minus the time of the traced calls it made, so
the self times of all layers plus the benchmark's own share partition the
traced requests' wall time. The rhs closures run hundreds of thousands of
times per request; they add to a counter and a time sum instead of recording
spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PERIOD_EVALS = ("period_sign_changing", "period_positive", "period_positive_p1")
RHS_FACTORIES = ("cartesian_rhs", "polar_rhs", "slope_rhs", "regularized_rhs",
                 "p1_slope_rhs", "p1_cartesian_rhs")

# per-layer metrics: name -> unit; every run reports all of them
METRICS = {
    "fields.rhs_calls": "count",
    "fields.rhs_s": "s",
    "params.slope_map_inv_calls": "count",
    "params.slope_map_inv_s": "s",
    "integrate.calls": "count",
    "integrate.steps": "count",
    "integrate.events": "count",
    "integrate.self_s": "s",
    "integrate.sample_calls": "count",
    "integrate.sample_s": "s",
    "periods.period_evals": "count",
    "periods.period_s": "s",
    "periods.quad_s": "s",
    "periods.invert_calls": "count",
    "periods.invert_s": "s",
    "periods.driver_self_s": "s",
    "periods.evals_per_root": "evals/root",
    "orbits.shoot_s": "s",
    "orbits.classify_s": "s",
    "solutions.verify_calls": "count",
    "solutions.verify_s": "s",
    "solutions.assemble_self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "bench.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Wraps the targets on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.stats = defaultdict(float)
        self._stack = [[0.0]]   # traced time of the children of each open call
        self._invert_depth = 0
        self._patched = []      # (owner, attribute, original)

    @property
    def top_level_s(self) -> float:
        """Time spent inside outermost traced calls."""
        return self._stack[0][0]

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, self_key, count_key=None, total_key=None, after=None):
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stats[self_key] += dt - children[0]
                if count_key:
                    stats[count_key] += 1
                if total_key:
                    stats[total_key] += dt
            if after:
                after(out)
            return out

        return traced

    def _rhs_factory(self, factory):
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        def make(*args, **kwargs):
            rhs = factory(*args, **kwargs)

            def traced_rhs(t, s):
                children = [0.0]
                stack.append(children)
                t0 = clock()
                try:
                    return rhs(t, s)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stack[-1][0] += dt
                    stats["fields.rhs_calls"] += 1
                    stats["fields.rhs_s"] += dt - children[0]

            return traced_rhs

        return make

    def _period_eval(self, fn):
        timed = self._timed(fn, "periods.quad_s", "periods.period_evals", "periods.period_s")

        def traced(*args, **kwargs):
            if self._invert_depth:
                self.stats["periods.invert_evals"] += 1
            return timed(*args, **kwargs)

        return traced

    def _invert(self, fn):
        def count_roots(roots):
            self.stats["periods.roots"] += len(roots)

        timed = self._timed(fn, "periods.driver_self_s", "periods.invert_calls",
                            "periods.invert_s", after=count_roots)

        def traced(*args, **kwargs):
            self._invert_depth += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._invert_depth -= 1

        return traced

    def _integrate_done(self, traj):
        self.stats["integrate.steps"] += len(traj.taus) - 1
        self.stats["integrate.events"] += len(traj.events)

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, module_name: str, name: str, wrap) -> None:
        original = getattr(sys.modules[module_name], name)
        wrapped = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "seplane" or mod_name.startswith("seplane.")) \
                    and getattr(mod, name, None) is original:
                self._patched.append((mod, name, original))
                setattr(mod, name, wrapped)

    def install(self) -> None:
        from seplane.integrate import Trajectory

        for name in RHS_FACTORIES:
            self._replace_everywhere("seplane.fields", name, self._rhs_factory)
        self._replace_everywhere("seplane.params", "slope_map_inv", lambda f: self._timed(
            f, "params.slope_map_inv_s", "params.slope_map_inv_calls"))
        self._replace_everywhere("seplane.integrate", "integrate", lambda f: self._timed(
            f, "integrate.self_s", "integrate.calls", after=self._integrate_done))
        for name in PERIOD_EVALS:
            self._replace_everywhere("seplane.periods", name, self._period_eval)
        self._replace_everywhere("seplane.periods", "period_zero_amplitude_limit",
                                 lambda f: self._timed(f, "periods.quad_s"))
        self._replace_everywhere("seplane.periods", "find_amplitude_for_period", self._invert)
        self._replace_everywhere("seplane.periods", "period_scan",
                                 lambda f: self._timed(f, "periods.driver_self_s"))
        for name, key in (("shoot_homoclinic", "orbits.shoot_s"),
                          ("classify_orbit", "orbits.classify_s")):
            self._replace_everywhere("seplane.orbits", name, lambda f, k=key: self._timed(f, k))
        self._replace_everywhere("seplane.solutions", "verify_profile", lambda f: self._timed(
            f, "solutions.verify_s", "solutions.verify_calls"))
        self._replace_everywhere("seplane.solutions", "build_solution_set",
                                 lambda f: self._timed(f, "solutions.assemble_self_s"))
        self._replace_everywhere("seplane.cli", "main", lambda f: self._timed(f, "cli.self_s"))

        sample = Trajectory.sample
        self._patched.append((Trajectory, "sample", sample))
        Trajectory.sample = self._timed(sample, "integrate.sample_s", "integrate.sample_calls")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def metrics(self) -> dict:
        """Values of every METRICS entry the tracer measures itself."""
        out = {name: self.stats.get(name, 0.0) for name in METRICS}
        for name, unit in METRICS.items():
            if unit in ("count", "B"):
                out[name] = int(out[name])
        roots = self.stats.get("periods.roots", 0.0)
        out["periods.evals_per_root"] = (self.stats.get("periods.invert_evals", 0.0) / roots
                                         if roots else 0.0)
        return out
