import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

import grassgeo
from grassgeo import kernel, loci, manifold, verify

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

# after each step, the grassgeo modules a fresh interpreter has loaded and
# whether it has loaded dataclasses
LAZY_PROBE = """
import json, sys
import numpy as np
def loaded():
    return [key for key in sys.modules if key.split(".")[0] == "grassgeo"], "dataclasses" in sys.modules
steps = []
import grassgeo
steps.append(loaded())
grassgeo.exp0(grassgeo.TangentCoord(np.full((2, 2), 0.3 + 0.1j)))
steps.append(loaded())
grassgeo.cut_locus_test
steps.append(loaded())
grassgeo.run_suite
steps.append(loaded())
import grassgeo.cli
steps.append(loaded())
print(json.dumps(steps))
"""


def test_submodules_load_on_first_use():
    done = subprocess.run([sys.executable, "-W", "error", "-c", LAZY_PROBE],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout)
    chart = {"grassgeo", "grassgeo.errors", "grassgeo.kernel", "grassgeo.manifold"}
    suite = chart | {"grassgeo.loci", "grassgeo.verify"}
    assert [set(modules) for modules, _ in steps] == [
        {"grassgeo"}, chart, chart | {"grassgeo.loci"}, suite, suite | {"grassgeo.cli"}]
    # the records are plain slotted classes: no step loads dataclasses
    assert [has_dataclasses for _, has_dataclasses in steps] == [False] * 5


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


def test_dir_lists_the_public_names_submodules_and_dunders_only():
    listed = dir(grassgeo)
    dunders = {name for name in vars(grassgeo) if name.startswith("__") and name.endswith("__")}
    assert listed == sorted(set(grassgeo.__all__) | set(HOMES) | dunders)
    assert "sys" not in listed and "__version__" in listed and "manifold" in listed
    assert not [name for name in listed if name.startswith("_") and not name.startswith("__")]


def test_exports_follow_a_rebound_home(monkeypatch):
    # nothing is cached in the package, so patching or tracing the home
    # binding is seen through grassgeo.<name> as well
    def fake(v):
        return v

    monkeypatch.setattr(manifold, "exp0", fake)
    assert grassgeo.exp0 is fake
    monkeypatch.undo()
    assert grassgeo.exp0 is manifold.exp0 is not fake


_ROW = np.array([[1.0, 0.5 + 0.5j, 0.0]])
_PROBE = dict(t=1.0, min_sv=0.1, max_sv=2.0, ratio=0.05, is_conjugate=False, indeterminate=False)
_RESULT = dict(name="exp-log-roundtrip", passed=True, trials=3, worst_margin=-1e-12, detail="",
               elapsed=0.25)

# each public record: its documented keywords, the fields it fills in by
# default, whether == compares its fields (scalars, strings and tuples
# only), and whether it is frozen
RECORDS = [
    (kernel.SvdResult, dict(u=np.eye(2), s=np.ones(2), v=np.eye(2)), {}, False, True),
    (manifold.ChartPoint, dict(z=_ROW[:, 1:]), dict(signature="compact"), False, True),
    (manifold.TangentCoord, dict(b=_ROW[:, 1:]), dict(signature="compact"), False, True),
    (manifold.Plane, dict(basis=_ROW), {}, False, True),
    (manifold.AngleSpectrum, dict(angles=np.array([0.5, 0.25])), {}, False, False),
    (manifold.PluckerVector, dict(n=1, big_n=3, indices=((0,), (1,), (2,)), coords=_ROW[0]),
     {}, False, False),
    (loci.SchubertSymbol, dict(w=(0, 1), m=2), {}, True, True),
    (loci.LocusVerdict, dict(in_locus=True, max_angle=1.5, pairing_abs=0.0), {}, True, False),
    (loci.CartanDirection, dict(h=np.array([0.5, 0.25])), {}, False, False),
    (loci.ConjugateParam, dict(family="t1plus", p=0, q=1, lam=1, t=2.5, multiplicity=2), {},
     True, False),
    (loci.JacobianProbe, _PROBE, {}, True, False),
    (loci.ConjugateClass, dict(label="none", angles=manifold.AngleSpectrum([0.5, 0.25]),
                               jacobian_ratio=0.5), {}, False, False),
    (verify.SuiteConfig, {}, dict(seed=0, trials=20, n=2, m=2), True, False),
    (verify.PropertyResult, _RESULT, {}, True, False),
    (verify.SuiteReport, dict(config=verify.SuiteConfig(), results=[], elapsed=1.0), {}, True,
     False),
]


@pytest.mark.parametrize("cls, given, defaults, by_fields, frozen", RECORDS,
                         ids=[record[0].__name__ for record in RECORDS])
def test_public_records(cls, given, defaults, by_fields, frozen):
    record = cls(**given)
    fields = {**given, **defaults}
    for name, value in fields.items():
        assert np.array_equal(getattr(record, name), value), name
    # the repr names the class and its fields in order, the plane's derived
    # frame excepted
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({body})"
    name = next(iter(fields))
    if by_fields:
        other = cls(**given)
        assert record == other
        # past a frozen record's refusal, as its constructor sets fields
        object.__setattr__(other, name, "other")
        assert record != other
        assert record.__eq__(tuple(fields.values())) is NotImplemented
    if frozen:
        for act in (lambda: setattr(record, name, fields[name]), lambda: delattr(record, name)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                act()
    else:
        setattr(record, name, fields[name])
        assert getattr(record, name) is fields[name]
    if cls in (manifold.ChartPoint, manifold.TangentCoord):
        # a chart point or tangent owns a read-only copy of its matrix
        got = getattr(record, name)
        assert np.array_equal(got, fields[name]) and not np.shares_memory(got, fields[name])
        assert not got.flags.writeable
    # slotted: no attribute outside the fields
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
