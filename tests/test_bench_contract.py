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
