import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import grassgeo
from grassgeo import manifold

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# the home submodule of each exported name
HOMES = {
    "errors": ("ChartEscapeError", "ConsistencyError", "DomainError", "GeometryError",
               "NotInChartError", "NumericalFailure"),
    "kernel": ("SvdResult", "fd_jacobian", "herm_eig", "svd"),
    "manifold": ("AngleSpectrum", "ChartPoint", "Plane", "PluckerVector", "TangentCoord",
                 "base_plane", "cayley_distance", "chart_to_plane", "cos_cayley",
                 "cos_cayley_planes", "exp0", "geodesic_chart", "geodesic_distance0",
                 "geodesic_group", "geodesic_residual", "haar_random_chart",
                 "haar_random_plane", "hat_basis", "log0", "overlap", "plane_to_chart",
                 "plucker", "plucker_pairing", "stationary_angles_svd",
                 "stationary_angles_w", "tan_pole_distance"),
    "loci": ("CartanDirection", "ConjugateClass", "ConjugateParam", "JacobianProbe",
             "LocusVerdict", "SchubertSymbol", "cartan_to_tangent", "cayley_cut_check",
             "classify_conjugate", "conjugate_test_jacobian", "coverage_limit",
             "cut_locus_symbol", "cut_locus_test", "cut_time", "flag_order",
             "jacobian_spectrum", "schubert_generic_sample", "schubert_membership",
             "tangent_conjugate_params", "v_pl_symbol"),
    "verify": ("DEFAULT_TOLERANCES", "REQUIRED_PROPERTIES", "SuiteConfig", "SuiteReport",
               "run_suite", "scan_conjugate", "write_scan_csv"),
}

# after each step, the grassgeo modules a fresh interpreter has loaded
LAZY_PROBE = """
import json, sys
import numpy as np
def loaded():
    return [key for key in sys.modules if key.split(".")[0] == "grassgeo"]
steps = []
import grassgeo
steps.append(loaded())
grassgeo.exp0(grassgeo.TangentCoord(np.full((2, 2), 0.3 + 0.1j)))
steps.append(loaded())
grassgeo.cut_locus_test
steps.append(loaded())
grassgeo.run_suite
steps.append(loaded())
print(json.dumps(steps))
"""


def test_submodules_load_on_first_use():
    done = subprocess.run([sys.executable, "-W", "error", "-c", LAZY_PROBE],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    chart = {"grassgeo", "grassgeo.errors", "grassgeo.kernel", "grassgeo.manifold"}
    assert [set(step) for step in json.loads(done.stdout)] == [
        {"grassgeo"}, chart, chart | {"grassgeo.loci"}, chart | {"grassgeo.loci", "grassgeo.verify"}]


def test_exports_are_the_home_modules_objects():
    names = [name for group in HOMES.values() for name in group]
    assert len(names) == 63
    # the order the package has always exported them in
    assert grassgeo.__all__ == sorted(names)
    for home, group in HOMES.items():
        module = getattr(grassgeo, home)
        assert module is sys.modules[f"grassgeo.{home}"]
        for name in group:
            obj = getattr(grassgeo, name)
            assert obj is getattr(module, name), name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name
    namespace = {}
    exec("from grassgeo import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == grassgeo.__all__
    assert set(grassgeo.__all__) <= set(dir(grassgeo))
    from grassgeo import loci
    assert isinstance(loci, types.ModuleType) and loci is sys.modules["grassgeo.loci"]
    with pytest.raises(AttributeError, match="'nope'"):
        grassgeo.nope
    assert grassgeo.__version__ == "0.1.0"


def test_exports_follow_a_rebound_home(monkeypatch):
    # nothing is cached in the package, so patching or tracing the home
    # binding is seen through grassgeo.<name> as well
    def fake(v):
        return v

    monkeypatch.setattr(manifold, "exp0", fake)
    assert grassgeo.exp0 is fake
    monkeypatch.undo()
    assert grassgeo.exp0 is manifold.exp0 is not fake
