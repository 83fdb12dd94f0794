import ast
import csv
import importlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import grassgeo.cli  # noqa: F401  (the benchmark's scan workload calls grassgeo.cli.main)
import grassgeo.manifold
from grassgeo import kernel, loci, verify

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _small_config(**kw):
    kw.setdefault("seed", 3)
    kw.setdefault("trials", 3)
    return verify.SuiteConfig(**kw)


def test_suite_config_validation():
    assert verify.SuiteConfig() == verify.SuiteConfig(seed=0, trials=20, n=2, m=2)
    assert verify.SuiteConfig(np.uint64(7), np.int32(3)).trials == 3
    with pytest.raises(ValueError, match="trials must be positive, got 0"):
        verify.SuiteConfig(trials=0)
    # the shape passes manifold._shape, the package's one shape rule
    for kw, got in (({"n": 0}, "n=0, m=2"), ({"m": -1}, "n=2, m=-1")):
        with pytest.raises(ValueError, match=f"need n >= 1 and m >= 1, got {got}"):
            verify.SuiteConfig(**kw)
    # refused at construction: run_suite died of a TypeError on a float trials,
    # n or m, and ran on a float seed
    for kw in ({"trials": 2.7}, {"n": 1.5}, {"m": 2.0}, {"seed": 0.5}):
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be an integer"):
            verify.SuiteConfig(**kw)
    # the seed keys the Philox streams, which take 0 <= key < 2**128; numpy
    # refused the others only once run_suite started
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match=r"seed must be in 0 <= seed < 2\*\*128"):
            verify.SuiteConfig(seed=seed)
    for seed in (0, 2**128 - 1):
        assert verify.SuiteConfig(seed=seed).seed == seed


@pytest.mark.parametrize("min_gap, min_entry", [(0.05, 0.1), (0.15, 0.2)])
def test_cartan_tangent_meets_its_bounds_at_every_length(min_gap, min_entry):
    # every draw meets the bounds at every r, also at r >= 5, where no unit
    # vector meets the (0.15, 0.2) pair; equal streams give equal directions
    for r in range(1, 9):
        cfg = verify.SuiteConfig(n=r, m=r + 2)
        for trial in range(1000):
            direction, tc = verify._cartan_tangent(verify._trial_rng(3, trial, r), cfg,
                                                   min_gap, min_entry)
            h = direction.h
            assert h.size == r and h[-1] > min_entry
            assert np.all(h[:-1] - h[1:] > min_gap)
        assert np.array_equal(tc.b[np.diag_indices(r)], h)
        again, _ = verify._cartan_tangent(verify._trial_rng(3, trial, r), cfg, min_gap, min_entry)
        assert np.array_equal(again.h, h)


@pytest.mark.parametrize("n, m", [(4, 6), (5, 5), (6, 8), (7, 9), (8, 3), (8, 10)])
def test_suite_passes_at_the_larger_shapes(n, m):
    # r = 3 to 8, n > m at 8x3: from r = 4 on few unit vectors, and from
    # r = 5 none, are as separated as conjugate-class-angles needs
    report = verify.run_suite(verify.SuiteConfig(seed=1, trials=2, n=n, m=m))
    assert report.passed, verify.report_json(report, include_timing=False)


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
            "cut-locus-polar-divisor": 1e-9,
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
    assert tol["cut-locus-polar-divisor"] == kernel.RANK_TOL
    assert tol["conjugate-class-angles"] == loci.ANGLE_TOL
    assert tol["cayley-cut-criterion"] == kernel.RANK_TOL
    assert tol["conjugate-radii-jacobian"] == loci.CONJUGATE_TOL
    assert tol["cut-locus-schubert-variety"] == kernel.RANK_TOL
    assert tol["schubert-sample-membership"] == kernel.RANK_TOL


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
                                                 ((3, 5), (0.9, 0.7, 0.3), "noncompact"),
                                                 ((4, 2), (1.0, 0.4), "compact")])
def test_scan_rows_equal_per_point_calls(shape, h, signature):
    # the stacked scan and classify_conjugate share one code path, so every
    # value must agree exactly, pole and escape rows included; the numeric
    # group route reproduces the closed-form angles and overlap
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
            verdict = loci.classify_conjugate(tc, t)
            assert row["max_angle"] == verdict.angles.max_angle
            assert row["second_angle"] == verdict.angles.angles[1]
            assert row["overlap_abs"] == verdict.angles.cos_product()
            plane = grassgeo.manifold.geodesic_group(tc, t)
            spectrum = grassgeo.manifold.stationary_angles_svd(plane, origin)
            assert np.max(np.abs(verdict.angles.angles - spectrum.angles)) <= 1e-12
            assert abs(row["overlap_abs"]
                       - grassgeo.manifold.cos_cayley_planes(plane, origin)) <= 1e-12
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


def test_scan_csv_is_what_the_csv_module_writes(tmp_path):
    # rows with a blank second angle, a pole row (family t2, blank q and
    # ratio), a non-pole row with a blank ratio, and the dual signature
    one = loci.CartanDirection(np.array([1.0]))
    wide = loci.CartanDirection(np.array([0.9, 0.7, 0.3]))
    escape = _escape_time(wide.h)
    scans = [verify.scan_conjugate(one, (0.3, 20.0), 77, 1, 1),
             verify.scan_conjugate(one, (1.0708, 2.0708), 11, 1, 2),
             verify.scan_conjugate(wide, (escape - 0.2, escape + 0.2), 9, 3, 5),
             verify.scan_conjugate(wide, (0.2, 8.0), 100, 3, 5, signature="noncompact")]
    assert any(r["class"] == "pole" and r["q"] == "" for r in scans[1])
    assert any(r["class"] != "pole" and r["min_jac_sv"] == "" for r in scans[2])
    out = tmp_path / "scan.csv"
    for rows in scans:
        assert {type(v) for row in rows for v in row.values()} <= {float, int, str}
        buf = io.StringIO(newline="")
        writer = csv.DictWriter(buf, fieldnames=verify.SCAN_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        verify.write_scan_csv(rows, str(out))
        assert out.read_bytes() == buf.getvalue().encode()
    row = scans[0][0]
    for bad in ({**row, "extra": 1.0}, {k: v for k, v in row.items() if k != "q"}):
        with pytest.raises(ValueError, match="scan row 1 has columns"):
            verify.write_scan_csv([row, bad], str(out))


@pytest.mark.parametrize("shape, h", [((2, 2), (0.8, 0.6)), ((3, 5), (0.95, 0.7, 0.4)),
                                      ((6, 8), (1.0, 0.85, 0.7, 0.5, 0.35, 0.3))])
@pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12])
def test_small_essential_angles_are_resolved(shape, h, delta):
    # t h_r lies delta past pi, so the smallest essential angle is delta;
    # its cosine rounds to 1 for delta below about 1e-8, where arccos reads 0
    n, m = shape
    d = loci.CartanDirection(np.array(h))
    tc = loci.cartan_to_tangent(d, n, m)
    t = (np.pi + delta) / d.h[-1]
    verdict = loci.classify_conjugate(tc, t)
    assert abs(verdict.angles.angles[d.r - 1] - abs(t * d.h[-1] - np.pi)) <= 1e-13
    row = verify.scan_conjugate(d, (t, t + 1.0), 2, n, m)[0]
    assert row["t"] == t and row["class"] == verdict.label
    assert row["max_angle"] == verdict.angles.max_angle
    assert row["second_angle"] == verdict.angles.angles[1]
    assert row["overlap_abs"] == verdict.angles.cos_product()


def test_scan_and_classify_read_one_svd_and_build_no_plane(monkeypatch):
    # the angles are closed forms in the singular values of B: the numeric
    # group-plane route is the check, not part of the hot path; the scan
    # reads those singular values from the direction itself, with no SVD
    calls = {"svd": 0, "plane": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    # every SVD of the package, kernel.svd's included, goes through kernel._svd
    monkeypatch.setattr(kernel, "_svd", counted("svd", kernel._svd))
    monkeypatch.setattr(grassgeo.manifold.Plane, "__post_init__",
                        counted("plane", grassgeo.manifold.Plane.__post_init__))
    for shape, h, signature in (((2, 2), (0.8, 0.6), "compact"),
                                ((3, 5), (0.9, 0.7, 0.3), "noncompact"),
                                ((6, 8), (1.0, 0.85, 0.7, 0.5, 0.35, 0.2), "compact")):
        d = loci.CartanDirection(np.array(h))
        tc = loci.cartan_to_tangent(d, *shape, signature)
        calls.update(svd=0, plane=0)
        verify.scan_conjugate(d, (0.3, 12.0), 40, *shape, signature=signature)
        assert calls == {"svd": 0, "plane": 0}, shape
        calls.update(svd=0, plane=0)
        loci.classify_conjugate(tc, 1.3)
        assert calls == {"svd": 1, "plane": 0}, shape
    # the origin plane runs neither an SVD nor a Plane validation
    grassgeo.manifold.base_plane(2, 2)
    assert calls == {"svd": 1, "plane": 0}


def _reference_radius(params, t, half_step):
    """The scan's matching rule, written out: the nearest radius within half
    a grid step, the first in sorted order among equal distances."""
    near = [par for par in params if abs(par.t - t) <= half_step]
    return min(near, key=lambda c: abs(c.t - t)) if near else None


@pytest.mark.parametrize("shape, h, signature, lambda_max", [
    ((2, 3), (0.8, 0.4), "compact", 2),     # t1minus(1,2) and t3(2) both at pi/0.4
    ((1, 1), (1.0,), "compact", 2),
    ((6, 8), (1.0, 0.85, 0.7, 0.5, 0.35, 0.2), "compact", 2),
    ((3, 5), (0.9, 0.7, 0.3), "noncompact", 2),
    # t3(2) and t1minus(1,2) one ulp apart: at t = 31 their distances round
    # to the same double, and the lower one is the first
    ((2, 3), (0.7, float(np.nextafter(0.35, 1.0))), "compact", 1),
    # the scan builds only the windings that reach each grid; the reference
    # reads all 60
    ((2, 2), (0.8, 0.6), "compact", 60),
])
def test_scan_matches_each_row_to_the_nearest_radius(shape, h, signature, lambda_max):
    n, m = shape
    d = loci.CartanDirection(np.array(h))
    # the dual has no radii; its grids stay short of where tanh saturates
    params = (loci.tangent_conjugate_params(d, n, m, lambda_max)
              if signature == "compact" else [])
    radii = sorted({par.t for par in params})
    grids = ([(0.3, 20.0, 77), (0.3, 40.0, 2000), (31.0, 200.0, 2), (0.05, 60.0, 3)]
             if params else [(0.2, 8.0, 100), (0.1, 10.0, 2)])
    # grids starting and ending on radii, on midpoints between neighbours,
    # and with a radius exactly half a step (1/16) from its two grid points
    for a, b in zip(radii[::7], radii[3::7]):
        grids += [(a, b, 2), (a, b, 9)]
    mids = [0.5 * (a + b) for a, b in zip(radii, radii[1:])]
    for a, b in zip(mids[::5], mids[2::5]):
        grids += [(a, b, 2), (a, b, 3), (a, b, 11)]
    grids += [(r - 0.0625, r + 0.0625, 2) for r in radii[::3] if r > 0.0625]
    matched = edge = 0
    for t0, t1, steps in grids:
        rows = verify.scan_conjugate(d, (t0, t1), steps, n, m, signature=signature,
                                     lambda_max=lambda_max)
        half_step = 0.5 * (rows[1]["t"] - rows[0]["t"])
        for row in rows:
            par = _reference_radius(params, row["t"], half_step)
            want = (("", "", "", "") if par is None else
                    (par.family, par.p, "" if par.q is None else par.q, par.lam))
            assert (row["family"], row["p"], row["q"], row["lambda"]) == want, (t0, t1, steps)
            matched += par is not None
            edge += par is not None and abs(par.t - row["t"]) == half_step
    assert (matched > 0) == (edge > 0) == bool(params)


def test_scan_builds_only_the_windings_that_reach_its_grid(monkeypatch):
    # a radius of winding lam is at least lam pi / (2 h_1), so the grid's last
    # half step t1 + half_step = 4.0921 is reached by lam <= ceil(2.08) = 3;
    # one spare makes 4, whatever lambda_max allows past that
    asked = []
    radii = loci._radii

    def counted(direction, n, m, lambda_max):
        asked.append(lambda_max)
        return radii(direction, n, m, lambda_max)

    monkeypatch.setattr(loci, "_radii", counted)
    d = loci.CartanDirection(np.array([0.8, 0.6]))
    rows = {}
    for lambda_max in (1, 3, 4, 5, 100000):
        rows[lambda_max] = verify.scan_conjugate(d, (0.5, 4.0), 20, 2, 2,
                                                 lambda_max=lambda_max)
    assert asked == [1, 3, 4, 4, 4]
    # the second winding's first radius, 2 pi / 1.6 = 3.93, is on the grid
    assert [row["lambda"] for row in rows[1]].count(2) == 0
    assert [row["lambda"] for row in rows[3]].count(2) == 1
    assert rows[3] == rows[4] == rows[5] == rows[100000]
    # the dual has no radii and asks for none
    asked.clear()
    verify.scan_conjugate(d, (0.5, 4.0), 20, 2, 2, signature="noncompact", lambda_max=100000)
    assert asked == []


@pytest.mark.parametrize("h, shape", [((0.0,), (1, 1)), ((0.0, 0.0), (2, 3)), ((0.0,), (3, 2))])
def test_scan_of_a_vanishing_direction_labels_no_radius(h, shape):
    # every root vanishes, so there is no radius to match: the label columns
    # are blank, and the rows sit at the origin plane
    rows = verify.scan_conjugate(loci.CartanDirection(np.array(h)), (0.5, 4.0), 9, *shape)
    assert len(rows) == 9
    for row in rows:
        assert (row["family"], row["p"], row["q"], row["lambda"]) == ("", "", "", "")
        assert (row["max_angle"], row["overlap_abs"]) == (0.0, 1.0)


def test_scan_input_validation():
    d = loci.CartanDirection(np.array([1.0]))
    with pytest.raises(ValueError):
        verify.scan_conjugate(d, (1.0, 0.5), 10, 1, 1)
    with pytest.raises(ValueError):
        verify.scan_conjugate(d, (0.5, 1.0), 1, 1, 1)
    with pytest.raises(ValueError, match="finite"):
        verify.scan_conjugate(d, (0.5, np.inf), 10, 1, 1)
    pair = loci.CartanDirection(np.array([0.8, 0.6]))
    for signature in ("compact", "noncompact"):
        with pytest.raises(ValueError, match="lambda_max"):
            verify.scan_conjugate(pair, (0.5, 2.0), 3, 2, 2, signature=signature, lambda_max=0)
        # the scan builds no tangent, but refuses what cartan_to_tangent refuses
        with pytest.raises(ValueError, match="direction has 2 entries but rank is 1"):
            verify.scan_conjugate(pair, (0.5, 2.0), 3, 1, 3, signature=signature)


@pytest.mark.parametrize("h, t1", [(1e300, 2.0), (1e200, 2.0), (1.0, 2.0**33), (1e10, 1e300)])
def test_scan_refuses_grids_too_coarse_for_the_angle_threshold(h, t1):
    # past t1 h_1 ~ 2^33 neighbouring doubles of t h_1 are farther apart than
    # ANGLE_TOL, so the rows would be noise; the refusal comes before any
    # stacked call, so no overflow warning is raised on the way (pytest turns
    # warnings into errors), and an overflowing t1 h_1 is refused as well
    d = loci.CartanDirection(np.array([h]))
    with pytest.raises(ValueError, match="too large"):
        verify.scan_conjugate(d, (0.5, t1), 3, 1, 1)
    assert len(verify.scan_conjugate(loci.CartanDirection(np.array([1.0])),
                                     (0.5, 2.0**32), 3, 1, 1)) == 3


def _benchmark_workloads(monkeypatch):
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_output_checks_pass_on_real_output(tmp_path, monkeypatch):
    # the benchmark's own output checks, two cycles per workload: every real
    # output must pass and every deliberately perturbed copy must fail
    workloads = _benchmark_workloads(monkeypatch)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(grassgeo, str(tmp_path))
        for k in range(2):
            for op in workload.cycle(21, k):
                out = workload.outputs(op, workload.call(op))
                assert workload.check(op, out) == [], (name, k, op.kind, op.n, op.m)
                for label, wrong in workload.perturb(op, out):
                    assert workload.check(op, wrong), (name, k, label)


def test_chart_calls_sample_runs_twelve_svds_and_three_plane_validations(tmp_path, monkeypatch):
    # records built from kept factors inherit them, and the group and Haar
    # planes are built from orthonormal rows: a chart-calls sample runs 12
    # LAPACK SVDs (16 before) and validates 3 planes (5 before); a probe runs
    # one SVD, of its Jacobian
    workload = _benchmark_workloads(monkeypatch).WORKLOADS["chart-calls"](grassgeo, str(tmp_path))
    calls = {"svd": 0, "plane": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernel, "_lapack_svd_s", counted("svd", kernel._lapack_svd_s))
    monkeypatch.setattr(kernel, "_lapack_svd", counted("svd", kernel._lapack_svd))
    monkeypatch.setattr(grassgeo.manifold.Plane, "__post_init__",
                        counted("plane", grassgeo.manifold.Plane.__post_init__))
    samples = probes = 0
    for k in range(2):
        for op in workload.cycle(21, k):
            workload.call(op)
            samples += op.params["samples"]
            probes += len(op.params["probes"])
    assert (samples, probes) == (30, 10)
    assert calls == {"svd": 12 * samples + probes, "plane": 3 * samples}


def _traced_table():
    # perfbench/tracer.py wraps each (layer, name) of its TRACED table; read
    # the table without importing the benchmark
    path = ROOT / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text())
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    assert table
    return table


def test_traced_benchmark_layers_resolve():
    for layer, name in _traced_table():
        assert callable(getattr(importlib.import_module(f"grassgeo.{layer}"), name)), (layer, name)


def test_cli_import_loads_every_traced_layer():
    # the tracer wraps only the grassgeo modules in sys.modules when it
    # installs, right after the benchmark's `import grassgeo, grassgeo.cli`
    probe = ("import json, sys, grassgeo, grassgeo.cli; "
             "print(json.dumps(list(sys.modules)))")
    done = subprocess.run([sys.executable, "-W", "error", "-c", probe],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    missing = {f"grassgeo.{layer}" for layer, _ in _traced_table()} - loaded
    assert missing == set()
