import ast
import csv
import importlib
import json
import pathlib

import numpy as np
import pytest

import grassgeo.manifold
from grassgeo import loci, verify


def _small_config(**kw):
    kw.setdefault("seed", 3)
    kw.setdefault("trials", 3)
    return verify.SuiteConfig(**kw)


def test_required_property_names_are_frozen():
    assert verify.REQUIRED_PROPERTIES == (
        "cayley-angle-product",
        "angle-routes-agree",
        "cauchy-binet-pairing",
        "exp-log-roundtrip",
        "angles-match-singular-values",
        "geodesic-ode-residual",
        "group-chart-agreement",
        "overlap-symmetry-scaling",
        "noncompact-injectivity",
        "cut-locus-polar-divisor",
        "cayley-cut-criterion",
        "cut-locus-schubert-variety",
        "conjugate-radii-jacobian",
        "conjugate-class-angles",
        "noncompact-jacobian-floor",
        "schubert-sample-membership",
        "jacobian-spectrum-routes",
    )
    assert set(verify.DEFAULT_TOLERANCES) == set(verify.REQUIRED_PROPERTIES)


def test_suite_passes_on_small_run():
    report = verify.run_suite(_small_config())
    assert report.passed
    assert report.failures == 0
    assert [r.name for r in report.results] == list(verify.REQUIRED_PROPERTIES)
    assert all(r.worst_margin <= 0.0 for r in report.results)


def test_suite_is_deterministic_per_seed():
    a = verify.run_suite(_small_config(seed=42))
    b = verify.run_suite(_small_config(seed=42))
    ja = json.dumps(a.to_dict(include_timing=False), sort_keys=True)
    jb = json.dumps(b.to_dict(include_timing=False), sort_keys=True)
    assert ja == jb
    c = verify.run_suite(_small_config(seed=43))
    assert ja != json.dumps(c.to_dict(include_timing=False), sort_keys=True)


def test_broken_overlap_is_caught(monkeypatch):
    true_overlap = grassgeo.manifold.overlap
    monkeypatch.setattr(grassgeo.manifold, "overlap",
                        lambda zp, z: 1.02 * true_overlap(zp, z))
    report = verify.run_suite(_small_config())
    assert not report.passed
    failed = {r.name for r in report.results if not r.passed}
    assert "cauchy-binet-pairing" in failed


@pytest.mark.parametrize("seed, trials, n, m", [
    (1133804918, 60, 2, 2),  # trial 32: overlap 1167, symmetry defect 1.9e-10
    (1002, 100, 3, 5),       # trial 47: overlap 2590, symmetry defect 2.2e-10
])
def test_overlap_tolerances_scale_with_overlap(seed, trials, n, m):
    # Unnormalized overlaps reach ~1e3, so their rounding error exceeds an
    # absolute 1e-10 on correct code; the allowance scales with max(1, |overlap|).
    report = verify.run_suite(verify.SuiteConfig(seed=seed, trials=trials, n=n, m=m))
    assert report.passed, verify.report_json(report, include_timing=False)


@pytest.mark.parametrize("n, m", [(3, 2), (3, 1)])
def test_suite_passes_with_more_rows_than_columns(n, m):
    # n-planes in C^(n+m) with n > m share n - m dimensions; those zero
    # angles used to come out of arccos near 1 as ~1e-8
    assert verify.run_suite(verify.SuiteConfig(seed=1, trials=3, n=n, m=m)).passed


def test_trial_caps_bound_the_heavy_properties():
    report = verify.run_suite(_small_config(trials=50))
    by_name = {r.name: r for r in report.results}
    assert by_name["conjugate-radii-jacobian"].trials <= 6
    assert by_name["noncompact-jacobian-floor"].trials <= 4
    assert by_name["exp-log-roundtrip"].trials == 50


def test_report_config_block_is_pinned():
    # the JSON config block is built from constants: pin every value and the
    # suite order of the tolerances
    expected = {
        "seed": 5, "trials": 1, "n": 1, "m": 2, "lambda_max": 2,
        "tolerances": {
            "cayley-angle-product": 1e-10,
            "angle-routes-agree": 1e-9,
            "cauchy-binet-pairing": 1e-10,
            "exp-log-roundtrip": 1e-9,
            "angles-match-singular-values": 1e-9,
            "geodesic-ode-residual": 1e-4,
            "group-chart-agreement": 1e-9,
            "overlap-symmetry-scaling": 1e-10,
            "noncompact-injectivity": 1e-9,
            "cut-locus-polar-divisor": 1e-6,
            "cayley-cut-criterion": 1e-9,
            "cut-locus-schubert-variety": 1e-9,
            "conjugate-radii-jacobian": 1e-3,
            "conjugate-class-angles": 1e-6,
            "noncompact-jacobian-floor": 1e-1,
            "schubert-sample-membership": 1e-9,
            "jacobian-spectrum-routes": 1e-6,
        },
    }
    report = verify.run_suite(verify.SuiteConfig(seed=5, trials=1, n=1, m=2))
    config = report.to_dict(include_timing=False)["config"]
    assert config == expected
    assert list(config["tolerances"]) == list(expected["tolerances"])


def test_properties_share_the_locus_thresholds():
    tol = verify.DEFAULT_TOLERANCES
    assert tol["cut-locus-polar-divisor"] == loci.ANGLE_TOL
    assert tol["conjugate-class-angles"] == loci.ANGLE_TOL
    assert tol["cayley-cut-criterion"] == loci.CAYLEY_TOL
    assert tol["conjugate-radii-jacobian"] == loci.CONJUGATE_TOL


def test_report_shapes():
    report = verify.run_suite(_small_config())
    d = report.to_dict(include_timing=True)
    assert "elapsed" in d and "elapsed" in d["results"][0]
    d2 = report.to_dict(include_timing=False)
    assert "elapsed" not in d2 and "elapsed" not in d2["results"][0]
    text = report.to_text(include_timing=False)
    assert text.count("[PASS]") == 17
    assert "all properties passed" in text


def test_scan_grid_annotations_and_pole_rows(tmp_path):
    d = loci.CartanDirection(np.array([0.8, 0.6]))
    t2 = np.pi / 1.6
    rows = verify.scan_conjugate(d, (t2 - 0.4, t2 + 0.4), 5, 2, 2)
    assert len(rows) == 5
    mid = rows[2]
    assert mid["class"] == "pole"
    assert mid["family"] == "t2"
    assert mid["min_jac_sv"] == ""

    out = tmp_path / "scan.csv"
    verify.write_scan_csv(rows, str(out))
    with open(out) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == ["t", "family", "p", "q", "lambda", "min_jac_sv", "max_angle",
                      "second_angle", "overlap_abs", "class"]
    assert len(body) == 5


def test_scan_finds_the_pair_radius_dip():
    d = loci.CartanDirection(np.array([0.8, 0.6]))
    rows = verify.scan_conjugate(d, (2.0, 2.5), 26, 2, 2)
    ratios = [(r["min_jac_sv"], r["t"]) for r in rows if r["min_jac_sv"] != ""]
    best_ratio, best_t = min(ratios)
    assert abs(best_t - np.pi / 1.4) <= 0.02 + 1e-12
    # the nearest grid point sits ~0.004 off the radius, so the dip reads a
    # few times 1e-3 rather than the on-radius collapse
    assert best_ratio < 5e-3
    near = [r for r in rows if abs(r["t"] - np.pi / 1.4) <= 0.01]
    assert near and near[0]["family"] == "t1plus"


def test_scan_noncompact_has_no_conjugate_structure():
    d = loci.CartanDirection(np.array([0.8, 0.6]) / np.linalg.norm([0.8, 0.6]))
    rows = verify.scan_conjugate(d, (0.2, 1.5), 8, 2, 2, signature="noncompact")
    assert all(r["class"] == "none" for r in rows)
    assert all(r["family"] == "" for r in rows)
    assert all(r["min_jac_sv"] > 1e-1 for r in rows)


def _escape_time(h):
    """A time 1.5e-3 past a pole of the largest entry with |t h| >= 18, where
    10 stencil steps reach the pole but the 1e-3 pole-row window does not,
    and the other entries stay 0.01 clear of a pole."""
    winding = int(np.ceil((18.0 * h[0] / np.linalg.norm(h) - 0.5 * np.pi) / np.pi))
    while True:
        t = ((winding + 0.5) * np.pi + 1.5e-3) / h[0]
        if h.size == 1 or np.min(grassgeo.manifold.tan_pole_distance(t * h[1:])) >= 0.01:
            return t
        winding += 1


@pytest.mark.parametrize("shape, h, signature", [((2, 2), (0.8, 0.6), "compact"),
                                                 ((3, 5), (0.9, 0.7, 0.3), "compact"),
                                                 ((4, 6), (1.0, 0.7, 0.4, 0.2), "compact"),
                                                 ((3, 5), (0.9, 0.7, 0.3), "noncompact")])
def test_scan_rows_equal_per_point_calls(shape, h, signature):
    # the stacked scan and the per-point API share one code path, so every
    # value must agree exactly, pole and escape rows included
    n, m = shape
    d = loci.CartanDirection(np.array(h))
    compact = signature == "compact"
    grids = [(0.3, 4.0, 23)]
    if compact:
        pole = 1.5 * np.pi / h[0]
        grids.append((pole - 0.5, pole + 0.5, 11))
        escape = _escape_time(d.h)
        grids.append((escape - 0.2, escape + 0.2, 9))
    tc = loci.cartan_to_tangent(d, n, m, signature)
    origin = grassgeo.manifold.base_plane(n, m)
    classes = set()
    for t0, t1, steps in grids:
        for row in verify.scan_conjugate(d, (t0, t1), steps, n, m, signature=signature):
            t = row["t"]
            plane = grassgeo.manifold.geodesic_group(tc, t)
            spectrum = grassgeo.manifold.stationary_angles_svd(plane, origin)
            assert row["max_angle"] == spectrum.max_angle
            assert row["second_angle"] == spectrum.angles[1]
            assert row["overlap_abs"] == grassgeo.manifold.cos_cayley_planes(plane, origin)
            verdict = loci.classify_conjugate(tc, t)
            assert np.array_equal(verdict.plane.basis, plane.basis)
            assert np.array_equal(verdict.angles.angles, spectrum.angles)
            if row["class"] == "pole":
                classes.add("pole")
                assert row["min_jac_sv"] == ""
                continue
            assert row["class"] == verdict.label
            if row["min_jac_sv"] == "":
                classes.add("escape")
                assert np.isnan(verdict.jacobian_ratio)
            else:
                assert row["min_jac_sv"] == verdict.jacobian_ratio
    if compact:
        assert classes == {"pole", "escape"}


def test_scan_input_validation():
    d = loci.CartanDirection(np.array([1.0]))
    with pytest.raises(ValueError):
        verify.scan_conjugate(d, (1.0, 0.5), 10, 1, 1)
    with pytest.raises(ValueError):
        verify.scan_conjugate(d, (0.5, 1.0), 1, 1, 1)
    with pytest.raises(ValueError, match="finite"):
        verify.scan_conjugate(d, (0.5, np.inf), 10, 1, 1)


def test_traced_benchmark_layers_resolve():
    # perfbench/tracer.py wraps each (layer, name) of its TRACED table; read
    # the table without importing the benchmark and check every name exists
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text())
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    assert table
    for layer, name in table:
        assert callable(getattr(importlib.import_module(f"grassgeo.{layer}"), name)), (layer, name)
