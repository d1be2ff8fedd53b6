"""The benchmark in perfbench/ wraps seplane functions by name and calls the
package's public API. These tests fail when a change to seplane removes or
renames a name the benchmark relies on."""

import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (module, attribute) that perfbench/tracing.py wraps in its defining module
WRAPPED = [
    *(("seplane.fields", name) for name in (
        "cartesian_rhs", "polar_rhs", "slope_rhs", "regularized_rhs",
        "p1_slope_rhs", "p1_cartesian_rhs")),
    ("seplane.params", "slope_map_inv"),
    ("seplane.integrate", "integrate"),
    *(("seplane.periods", name) for name in (
        "period_sign_changing", "period_positive", "period_positive_p1",
        "period_zero_amplitude_limit", "find_amplitude_for_period", "period_scan")),
    ("seplane.orbits", "shoot_homoclinic"),
    ("seplane.orbits", "classify_orbit"),
    ("seplane.solutions", "verify_profile"),
    ("seplane.solutions", "build_solution_set"),
    ("seplane.cli", "main"),
]


@pytest.fixture
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def _bindings():
    """Every binding of a wrapped name in any seplane module, and the
    Trajectory.sample method."""
    from seplane.integrate import Trajectory

    names = {name for _, name in WRAPPED}
    out = {(mod_name, name): getattr(mod, name)
           for mod_name, mod in list(sys.modules.items())
           if mod_name == "seplane" or mod_name.startswith("seplane.")
           for name in names if hasattr(mod, name)}
    out[("Trajectory", "sample")] = Trajectory.sample
    return out


def test_tracer_wraps_every_target_and_restores_it(perfbench_on_path):
    import workloads  # noqa: F401  imports seplane and seplane.cli
    from tracing import Tracer

    for mod_name, name in WRAPPED:
        assert hasattr(sys.modules[mod_name], name), f"{mod_name}.{name} is missing"
    before = _bindings()
    tracer = Tracer()
    try:
        tracer.install()
        during = _bindings()
        for mod_name, name in WRAPPED:
            assert during[(mod_name, name)] is not before[(mod_name, name)], \
                f"{mod_name}.{name} was not wrapped"
        assert during[("Trajectory", "sample")] is not before[("Trajectory", "sample")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, f"{key} not restored"


def test_workloads_use_existing_names(perfbench_on_path):
    import seplane
    import workloads

    source = (PERFBENCH / "workloads.py").read_text()
    used = set(re.findall(r"\bseplane\.([A-Za-z_]\w*)", source))
    assert used
    missing = sorted(name for name in used if not hasattr(seplane, name))
    assert not missing, f"perfbench/workloads.py uses missing names {missing}"
    assert callable(workloads.cli.main)



def test_tracer_counts_rhs_and_slope_inverse_calls(perfbench_on_path):
    # the chart closures must run through the names the tracer wraps: a field
    # reached past its factory, or an inverse bound at import, would run
    # uncounted and read 0 here
    from tracing import Tracer

    from seplane import fields, periods
    from seplane.params import ProblemParams, ReducedParams, reduce_params, \
        reduced_nonlinearity

    params = ProblemParams(2.0, 3.0, 9.0)
    rp_reg = ReducedParams(2.5, 4.0, -1.0, 3.0)
    nl_reg = reduced_nonlinearity(ProblemParams(2.5, 4.0, 0.0))
    tracer = Tracer()
    try:
        tracer.install()
        periods.period_positive(0.5, reduce_params(params), reduced_nonlinearity(params))
        cartesian_calls = tracer.stats["fields.rhs_calls"]
        sys.modules["seplane.integrate"].integrate(
            fields.regularized_rhs(rp_reg, nl_reg), (1.0, 0.2), (0.0, 2.0))
    finally:
        tracer.uninstall()
    stats = tracer.metrics()
    assert stats["integrate.calls"] == 2
    assert cartesian_calls > 0
    assert stats["fields.rhs_calls"] > cartesian_calls
    assert stats["params.slope_map_inv_calls"] > 0
