"""Acceptance gate: every shipping-blocker criterion, one pass/fail line each.

Run with -s to see the lines as they are produced:

    pytest tests/test_acceptance.py -v -s
"""
import contextlib
import io
import json

import numpy as np
import pytest

from grassgeo import cli, loci, manifold as mf, verify


class criterion:
    """Prints one [PASS]/[FAIL] line for the enclosed block."""

    def __init__(self, tag, label):
        self.tag, self.label = tag, label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.tag}: {self.label}")
        return False


_SHAPES = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]


def _pair(rng, n, m, min_overlap=0.0):
    for _ in range(64):
        z = mf.haar_random_chart(n, m, rng)
        zp = mf.haar_random_chart(n, m, rng)
        if abs(mf.overlap(zp, z)) > min_overlap:
            return zp, z
    raise AssertionError("no usable pair sampled")


def _random_direction(rng, min_gap=0.0, min_entry=0.0):
    for _ in range(256):
        h = np.sort(np.abs(rng.standard_normal(2)))[::-1]
        h /= np.linalg.norm(h)
        if h[-1] <= min_entry or (h[0] - h[1]) <= min_gap:
            continue
        return loci.CartanDirection(h)
    raise AssertionError("no separated direction sampled")


def test_criterion_01_normalized_overlap_is_angle_cosine_product():
    with criterion(1, "normalized overlap equals the product of angle cosines"):
        rng = np.random.default_rng(1001)
        worst = 0.0
        for k in range(200):
            n, m = _SHAPES[k % len(_SHAPES)]
            zp, z = _pair(rng, n, m, min_overlap=1e-6)
            lhs = mf.cos_cayley(zp, z)
            rhs = mf.stationary_angles_w(zp, z).cos_product()
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10, f"worst deviation {worst:.3e}"


def test_criterion_02_angle_routes_agree():
    with criterion(2, "product-matrix and orthonormal-basis angles agree"):
        rng = np.random.default_rng(1002)
        worst = 0.0
        for k in range(200):
            n, m = _SHAPES[k % len(_SHAPES)]
            zp, z = _pair(rng, n, m, min_overlap=1e-6)
            a = mf.stationary_angles_w(zp, z).angles
            b = mf.stationary_angles_svd(mf.chart_to_plane(zp),
                                         mf.chart_to_plane(z)).angles
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst < 1e-9, f"worst deviation {worst:.3e}"


def test_criterion_03_minor_pairing_reproduces_overlap():
    with criterion(3, "minor pairing reproduces the overlap determinant"):
        rng = np.random.default_rng(1003)
        shapes = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4),
                  (4, 4), (1, 7), (2, 6)]
        worst = 0.0
        for n, m in shapes:
            for _ in range(10):
                zp, z = _pair(rng, n, m)
                pair = mf.plucker_pairing(mf.plucker(mf.chart_to_plane(z)),
                                          mf.plucker(mf.chart_to_plane(zp)))
                ov = mf.overlap(zp, z)
                worst = max(worst, abs(pair - ov) / max(1.0, abs(ov)))
        assert worst < 1e-10, f"worst deviation {worst:.3e} relative to max(1, |overlap|)"


def test_criterion_04_geodesics_satisfy_second_order_equation():
    with criterion(4, "chart geodesics satisfy the second-order equation"):
        rng = np.random.default_rng(1004)
        worst = 0.0
        for signature in ("compact", "noncompact"):
            for k in range(100):
                n, m = [(2, 2), (2, 3), (3, 3)][k % 3]
                tc = verify._tangent(rng, n, m, 1.0, None, signature)
                t = rng.uniform(0.1, 1.0)
                worst = max(worst, mf.geodesic_residual(tc, t, step=1e-3))
        assert worst < 1e-4, f"worst residual {worst:.3e}"


def test_criterion_05_exponential_roundtrip_and_angles():
    with criterion(5, "exp/log roundtrip and exponential angle readout"):
        rng = np.random.default_rng(1005)
        worst_rt, worst_ang = 0.0, 0.0
        for k in range(200):
            n, m = _SHAPES[k % len(_SHAPES)]
            smax = rng.uniform(0.05, np.pi / 2 - 0.11)
            tc = verify._tangent(rng, n, m, smax, 2, "compact")
            point = mf.exp0(tc)
            worst_rt = max(worst_rt, float(np.linalg.norm(mf.log0(point).b - tc.b)))
            svals = np.sort(np.linalg.svd(tc.b, compute_uv=False))[::-1]
            got = mf.stationary_angles_svd(mf.chart_to_plane(point),
                                           mf.base_plane(n, m)).angles
            want = np.zeros_like(got)
            want[:svals.size] = svals
            worst_ang = max(worst_ang, float(np.max(np.abs(got - want))))
        assert worst_rt < 1e-9, f"worst roundtrip {worst_rt:.3e}"
        assert worst_ang < 1e-9, f"worst angle deviation {worst_ang:.3e}"


def test_criterion_06_cut_locus_routes_agree_exactly():
    with criterion(6, "angle, pairing, Cayley, and incidence routes agree on 1200 planes"):
        rng = np.random.default_rng(1006)
        symbol = loci.cut_locus_symbol(2, 2)
        planes = [(verify._cut_plane(rng, 2, 2), True) for _ in range(200)]
        planes += [(mf.haar_random_plane(2, 2, rng), None) for _ in range(1000)]
        for plane, constructed in planes:
            verdict = loci.cut_locus_test(plane)
            by_cayley = loci.cayley_cut_check(plane)
            by_schubert = loci.schubert_membership(plane, symbol, flag="perp")
            assert verdict.in_locus == by_cayley == by_schubert
            if constructed:
                assert verdict.in_locus
                assert verdict.pairing_abs < 1e-10


def test_criterion_07a_jacobian_collapses_at_every_predicted_radius():
    with criterion("7a", "Jacobian ratio below 1e-3 at every probe-safe radius"):
        rng = np.random.default_rng(1007)
        tested, worst = 0, 0.0
        for _ in range(50):
            d = _random_direction(rng)
            tc = loci.cartan_to_tangent(d, 2, 2)
            params = loci.tangent_conjugate_params(d, 2, 2, lambda_max=2)
            for par in verify._testable_radii(params, d):
                worst = max(worst, loci.conjugate_test_jacobian(tc, par.t).ratio)
                tested += 1
        assert tested >= 100, f"only {tested} radii were probe-safe"
        assert worst < 1e-3, f"worst radius ratio {worst:.3e} over {tested} radii"


def test_criterion_07b_scan_dip_sits_at_the_pair_radius():
    with criterion("7b", "scan dip within one grid step of the pair radius"):
        d = loci.CartanDirection(np.array([0.8, 0.6]))
        rows = verify.scan_conjugate(d, (2.0, 2.5), 26, 2, 2)
        step = rows[1]["t"] - rows[0]["t"]
        ratios = [(r["min_jac_sv"], r["t"]) for r in rows if r["min_jac_sv"] != ""]
        best_ratio, best_t = min(ratios)
        assert abs(best_t - np.pi / 1.4) <= step + 1e-12, \
            f"dip at t={best_t:.4f}, radius at {np.pi / 1.4:.4f}"
        assert best_ratio < 1e-2


def _chart_differential_ratio(t, h):
    """Closed-form extreme singular value ratio of the differential of the
    compact chart map B -> B tan(|B|)/|B| at B = t diag(h), square shape.

    With x = t h the singular values are |tan'(x_a)|, |tan(x_a)/x_a| and,
    for a < b, |(tan x_a +- tan x_b)/(x_a +- x_b)|.  Since
    tan x_a +- tan x_b = sin(x_a +- x_b)/(cos x_a cos x_b), every one of them
    is |s(x_a +- x_b)/(cos x_a cos x_b)| over a <= b, with s(y) = sin(y)/y:
    the root factor sin(t alpha)/(t alpha) times the chart's sec growth.
    a = b gives tan' (the minus sign, the x_a = x_b limit, s(0) = 1) and
    tan(x_a)/x_a (the plus sign).
    """
    x = t * np.asarray(h, dtype=float)
    a, b = np.triu_indices(x.size)
    sec = 1.0 / (np.cos(x[a]) * np.cos(x[b]))
    svs = np.abs(np.concatenate([np.sinc((x[a] - x[b]) / np.pi) * sec,
                                 np.sinc((x[a] + x[b]) / np.pi) * sec]))
    return float(svs.min() / svs.max())


def test_criterion_07c_midpoint_ratio_floor():
    with criterion("7c", "gap-midpoint Jacobian ratio equals the closed form "
                         "and stays above 1e-3"):
        rng = np.random.default_rng(1007)
        ratios, mismatches = [], []
        for _ in range(50):
            d = _random_direction(rng)
            tc = loci.cartan_to_tangent(d, 2, 2)
            params = loci.tangent_conjugate_params(d, 2, 2, lambda_max=2)
            horizon = loci.coverage_limit(d, 2, 2, lambda_max=2)
            times = sorted({p.t for p in params if p.t <= horizon})
            for ta, tb in zip(times, times[1:]):
                mid = 0.5 * (ta + tb)
                if tb - ta < 0.5:
                    continue
                if float(np.min(mf.tan_pole_distance(mid * d.h))) <= 0.15:
                    continue
                got = loci.conjugate_test_jacobian(tc, mid).ratio
                want = _chart_differential_ratio(mid, d.h)
                ratios.append(got)
                if abs(got - want) > 1e-6 * want:
                    mismatches.append(f"h={d.h} t={mid:.6f}: {got:.10g} vs {want:.10g}")
        assert len(ratios) >= 50
        # The ratio is the chart map's, not the Riemannian one: the root
        # factors sin(t alpha)/(t alpha) are weighted by sec growth, so a gap
        # midpoint near a tan pole reads low.  Over these 117 midpoints
        # min/median/max are 0.0027 / 0.061 / 0.209 (the minimum at pole
        # distance 0.154), and 9 readings sit in the indeterminate band
        # [1e-3, 1e-2); the closed form predicts every one of them, so no
        # fixed floor above that band can hold.  Each reading must equal the
        # closed form, and none may reach the 1e-3 conjugate threshold, so
        # the detector never reports a false radius.
        assert not mismatches, (f"{len(mismatches)} of {len(ratios)} midpoints "
                                f"off the closed form: " + "; ".join(mismatches[:5]))
        assert min(ratios) > 1e-3, f"false conjugate flag: min {min(ratios):.3e}"


def test_criterion_08_conjugate_points_classify_by_angles():
    with criterion(8, "pair radii give equal angles, single radii give 0 or pi/2"):
        rng = np.random.default_rng(1008)
        for _ in range(20):
            d = _random_direction(rng, min_gap=0.15, min_entry=0.2)
            tc = loci.cartan_to_tangent(d, 2, 2)
            pair_params = [p for p in
                           loci.tangent_conjugate_params(d, 2, 2, lambda_max=1)
                           if p.family.startswith("t1")]
            par = verify._testable_radii(pair_params, d)[0]
            verdict = loci.classify_conjugate(tc, par.t)
            assert verdict.label == "interior"
            top = verdict.angles.angles[:2]
            assert abs(top[0] - top[1]) < 1e-6, f"angle gap {abs(top[0] - top[1]):.3e}"

            half = loci.classify_conjugate(tc, np.pi / (2.0 * d.h[0]))
            assert half.label == "wong"
            assert abs(half.angles.max_angle - np.pi / 2) < 1e-6

            full = loci.classify_conjugate(tc, np.pi / d.h[0])
            assert full.label == "wong"
            assert float(full.angles.angles[-1]) < 1e-6


def test_criterion_09_noncompact_jacobian_never_dips():
    with criterion(9, "noncompact Jacobian ratio stays above 1e-1 out to t=3"):
        rng = np.random.default_rng(1009)
        worst = np.inf
        for _ in range(100):
            tc = verify._tangent(rng, 2, 2, 0.5, None, "noncompact")
            for t in (0.3, 0.8, 1.4, 2.0, 2.6, 3.0):
                worst = min(worst, loci.conjugate_test_jacobian(tc, t).ratio)
        assert worst > 1e-1, f"worst ratio {worst:.4f}"


def test_criterion_10_verification_report_is_reproducible():
    with criterion(10, "verification report is byte-identical across reruns"):
        a = verify.run_suite(verify.SuiteConfig(seed=42, trials=10))
        b = verify.run_suite(verify.SuiteConfig(seed=42, trials=10))
        assert a.passed and b.passed
        assert (verify.report_json(a, include_timing=False)
                == verify.report_json(b, include_timing=False))

        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["verify", "--seed", "42", "--trials", "3",
                                 "--no-timing", "--json", "-"])
            assert code == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
