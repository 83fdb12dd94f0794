import dataclasses

import numpy as np
import pytest

from grassgeo import kernel, loci, manifold as mf
from grassgeo.errors import ChartEscapeError, DomainError, NotInChartError, NumericalFailure


def _rand_chart(rng, n, m):
    return mf.haar_random_chart(n, m, rng)


def _projector(plane):
    b = plane.basis
    return b.conj().T @ np.linalg.solve(b @ b.conj().T, b)


def _angles_from_projectors(p, q):
    """Independent oracle: cos^2 of the angles are the top-n eigenvalues of
    the product of the two orthogonal projectors."""
    vals = np.linalg.eigvals(_projector(p) @ _projector(q))
    cos2 = np.sort(np.clip(vals.real, 0.0, 1.0))[::-1][:p.n]
    return np.sort(np.arccos(np.sqrt(cos2)))[::-1]


def _curve_residual(curve, t, signature, step=1e-3):
    """Second-order equation residual for an arbitrary chart curve."""
    zm, z0, zp = curve(t - step), curve(t), curve(t + step)
    zdd = (zp - 2.0 * z0 + zm) / step**2
    zd = (zp - zm) / (2.0 * step)
    eps = 1.0 if signature == "compact" else -1.0
    n = z0.shape[0]
    core = np.linalg.solve(np.eye(n) + eps * (z0 @ z0.conj().T), zd)
    return float(np.linalg.norm(zdd - 2.0 * eps * (zd @ z0.conj().T) @ core))


# ---------------------------------------------------------------- overlap

def test_overlap_frozen_scalar_example():
    z = mf.ChartPoint(np.array([[1.0 + 0j]]))
    zp = mf.ChartPoint(np.array([[1j]]))
    assert mf.overlap(zp, z) == pytest.approx(1.0 - 1.0j)


def test_overlap_noncompact_sign():
    z = mf.ChartPoint(np.array([[0.5 + 0j]]), signature="noncompact")
    zp = mf.ChartPoint(np.array([[0.25 + 0j]]), signature="noncompact")
    assert mf.overlap(zp, z) == pytest.approx(0.875)


def test_overlap_matches_gram_determinant():
    rng = np.random.default_rng(21)
    for n, m in [(1, 1), (2, 2), (2, 3), (3, 2)]:
        z = _rand_chart(rng, n, m)
        zp = _rand_chart(rng, n, m)
        gram = mf.hat_basis(z) @ mf.hat_basis(zp).conj().T
        assert mf.overlap(zp, z) == pytest.approx(complex(np.linalg.det(gram)), rel=1e-10)


def test_overlap_conjugate_symmetry():
    rng = np.random.default_rng(22)
    z = _rand_chart(rng, 2, 3)
    zp = _rand_chart(rng, 2, 3)
    assert mf.overlap(zp, z) == pytest.approx(np.conj(mf.overlap(z, zp)))


def test_overlap_rejects_mixed_signatures():
    z = mf.ChartPoint(np.zeros((1, 1), dtype=complex))
    w = mf.ChartPoint(np.zeros((1, 1), dtype=complex), signature="noncompact")
    with pytest.raises(ValueError):
        mf.overlap(z, w)


def test_cos_cayley_scalar_quarter_turn():
    z = mf.ChartPoint(np.array([[1.0 + 0j]]))
    origin = mf.ChartPoint(np.zeros((1, 1), dtype=complex))
    assert mf.cos_cayley(zp=origin, z=z) == pytest.approx(1 / np.sqrt(2), rel=1e-12)
    assert mf.cayley_distance(origin, z) == pytest.approx(np.pi / 4, rel=1e-12)


def test_cos_cayley_refuses_noncompact():
    z = mf.ChartPoint(np.array([[0.5 + 0j]]), signature="noncompact")
    with pytest.raises(DomainError):
        mf.cos_cayley(z, z)


def test_cos_cayley_planes_handles_any_basis_scaling():
    rng = np.random.default_rng(23)
    z = _rand_chart(rng, 2, 2)
    zp = _rand_chart(rng, 2, 2)
    p, q = mf.chart_to_plane(z), mf.chart_to_plane(zp)
    t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 3 * np.eye(2)
    scaled = mf.Plane(t @ p.basis)
    assert mf.cos_cayley_planes(scaled, q) == pytest.approx(mf.cos_cayley_planes(p, q),
                                                           rel=1e-10)
    assert mf.cos_cayley_planes(p, q) == pytest.approx(mf.cos_cayley(zp, z), rel=1e-10)


def test_cos_cayley_is_the_gram_pairing_of_the_hat_bases():
    # one normalized pairing: the chart route reads the planes' frame pairing
    rng = np.random.default_rng(33)
    for n, m in ((1, 1), (2, 3), (3, 2), (4, 4)):
        z, zp = _rand_chart(rng, n, m), _rand_chart(rng, n, m)
        want = mf.cos_cayley_planes(mf.chart_to_plane(zp), mf.chart_to_plane(z))
        assert mf.cos_cayley(zp, z) == want
    # so it answers where det(1 + Z Zp*) overflows: s e_i against e_i in n
    # orthogonal copies of C^2 pairs to 2^(-n/2) as s grows
    for n in (1, 2, 4):
        zp = mf.ChartPoint(np.eye(n, n + 1, dtype=complex))
        for s in (1e160, 1e300):
            z = mf.ChartPoint(s * zp.z)
            assert mf.cos_cayley(zp, z) == pytest.approx(2 ** (-n / 2), rel=1e-12)


def test_cos_cayley_resolves_near_parallel_chart_rows():
    # det(1 + Z Z*) = 1 + |Z|_F^2 + det(Z)^2 = 5e16 + 2e8 + 2 here; the
    # pairing is read from the hat bases' frames, with no Gram determinant
    # of nearly parallel rows to round to 0
    z = mf.ChartPoint(np.array([[1e8, 1e8], [1e8, 1e8 + 1]], dtype=complex))
    origin = mf.ChartPoint(np.zeros((2, 2), dtype=complex))
    want = 1.0 / np.sqrt(5e16 + 2e8 + 2)
    assert mf.cos_cayley(z, origin) == pytest.approx(want, rel=1e-6)
    assert mf.cayley_distance(z, origin) == pytest.approx(np.pi / 2 - want, abs=1e-15)


# ------------------------------------------------------------------ angles

def test_angles_scalar_line_formula():
    z = mf.ChartPoint(np.array([[0.7 - 0.4j]]))
    zp = mf.ChartPoint(np.array([[-0.2 + 1.1j]]))
    v = np.array([1.0, 0.7 - 0.4j])
    w = np.array([1.0, -0.2 + 1.1j])
    expect = np.arccos(abs(np.vdot(w, v)) / (np.linalg.norm(v) * np.linalg.norm(w)))
    assert mf.stationary_angles_w(zp, z).max_angle == pytest.approx(expect, abs=1e-12)
    assert mf.stationary_angles_svd(mf.chart_to_plane(zp),
                                    mf.chart_to_plane(z)).max_angle == pytest.approx(
        expect, abs=1e-12)


def test_angle_routes_match_projector_oracle():
    rng = np.random.default_rng(24)
    for n, m in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        z = _rand_chart(rng, n, m)
        zp = _rand_chart(rng, n, m)
        oracle = _angles_from_projectors(mf.chart_to_plane(z), mf.chart_to_plane(zp))
        via_w = mf.stationary_angles_w(zp, z).angles
        via_svd = mf.stationary_angles_svd(mf.chart_to_plane(z),
                                           mf.chart_to_plane(zp)).angles
        assert np.max(np.abs(via_w - oracle)) < 1e-8
        assert np.max(np.abs(via_svd - oracle)) < 1e-8


def test_angles_vanishing_overlap_needs_svd_route():
    # span(e2) against span(e1) in C^2: overlap is exactly zero
    line = mf.Plane(np.array([[0.0, 1.0 + 0j]]))
    origin = mf.base_plane(1, 1)
    assert mf.stationary_angles_svd(line, origin).max_angle == pytest.approx(np.pi / 2)
    z = mf.ChartPoint(np.array([[1e7 + 0j]]))
    zo = mf.ChartPoint(np.zeros((1, 1), dtype=complex))
    near = mf.stationary_angles_w(zo, z).max_angle
    assert abs(near - np.pi / 2) < 1e-6


def _cut_locus_pair(rng, n, m, nudge):
    """Chart points with 1 + Z Zp* singular, each on the other's cut locus:
    Zp* v = w for Z w = -v.  A nudge of w moves the pair off the locus."""
    z = mf.haar_random_chart(n, m, rng).z
    w = mf._complex_gaussian(rng, m, 1)[:, 0]
    w /= np.linalg.norm(z @ w)
    v = -z @ w
    w = w + nudge * mf._complex_gaussian(rng, m, 1)[:, 0]
    r = mf._complex_gaussian(rng, m, n)
    zp_star = r + np.outer(w - r @ v, v.conj())
    return mf.ChartPoint(zp_star.conj().T), mf.ChartPoint(z)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 5)])
def test_chart_angle_route_answers_on_the_cut_locus(n, m):
    # G = (1+ZZ*)^-1/2 (1+ZZp*) (1+ZpZp*)^-1/2 exists for every pair of chart
    # points, so the W route answers where the overlap vanishes or nearly does
    rng = np.random.default_rng(2500 + 10 * n + m)
    for nudge in (0.0, 1e-12, 1e-9, 1e-8):
        zp, z = _cut_locus_pair(rng, n, m, nudge)
        assert abs(mf.overlap(zp, z)) <= 1e-6
        got = mf.stationary_angles_w(zp, z).angles
        want = mf.stationary_angles_svd(mf.chart_to_plane(zp), mf.chart_to_plane(z)).angles
        assert np.max(np.abs(got - want)) < 1e-9, nudge
        assert abs(got[0] - np.pi / 2) < 1e-6, nudge


def test_chart_angle_route_refuses_only_what_floating_point_cannot_hold():
    # Z = [[s, 1], [i, 2]] against Z' = 1: the route forms no Gram matrix, so
    # at s = 1e100 and at s = 1e160, where ZZ* would overflow, it answers,
    # equal to the frame route on a row-scaled basis of the same plane; only
    # where the middle factor 1 + Z Zp* itself overflows is it refused
    zp = mf.ChartPoint(np.eye(2, dtype=complex))
    for s in (1e100, 1e160):
        z = mf.ChartPoint(np.array([[s, 1.0], [1j, 2.0]]))
        rows = np.array([[1.0 / s, 0.0, 1.0, 1.0 / s], [0.0, 1.0, 1j, 2.0]])
        want = mf.stationary_angles_svd(mf.chart_to_plane(zp), mf.Plane(rows)).angles
        assert np.max(np.abs(mf.stationary_angles_w(zp, z).angles - want)) < 1e-12, s
    big = mf.ChartPoint(np.array([[1e160, 1.0], [1j, 2.0]]))
    with pytest.raises(DomainError, match="floating-point overflow"):
        mf.overlap(big, big)
    huge = mf.ChartPoint(np.array([[1e200, 1.0], [1j, 2.0]]))
    with pytest.raises(DomainError, match="floating-point overflow"):
        mf.stationary_angles_w(huge, huge)


def _complement_angles(zp, z):
    """The frame route on the orthogonal complements, the row spans of
    (-Z* | 1_m), each row scaled to a largest modulus of 1: the m angles
    that are not forced to 0 when n > m."""
    def complement(point):
        rows = np.hstack([-point.z.conj().T, np.eye(point.shape[1])])
        return mf.Plane(loci._unit_rows(rows))
    return mf.stationary_angles_svd(complement(zp), complement(z)).angles


def test_chart_angle_route_holds_at_n_above_m():
    # the n - m unit eigenvalues of 1 + ZZ* survive in a Gram matrix only to
    # absolute eps |Z|^2; the route reads the m nontrivial angles from the
    # complements' charts -Z* and pads n - m zeros.  At s = 1e7 the Gram
    # route was off the frame route by 2.0e-5 rad
    zp = mf.ChartPoint(np.array([[0.3], [0.1], [0.2]]))
    z = mf.ChartPoint(1e7 * np.array([[1.0], [1.0001], [0.9999]]))
    want = mf.stationary_angles_svd(mf.chart_to_plane(zp),
                                    mf.Plane(loci._unit_rows(mf.hat_basis(z)))).angles
    got = mf.stationary_angles_w(zp, z).angles
    assert np.max(np.abs(got - want)) < 1e-9
    assert np.array_equal(got[1:], [0.0, 0.0])
    # at 1e100 the hat bases are refused as numerically dependent, and the
    # route still answers, with no warning, equal to the complements' frames
    rng = np.random.default_rng(83)
    for m in (1, 2):
        zp = mf.haar_random_chart(3, m, rng)
        z = mf.ChartPoint(1e100 * mf.haar_random_chart(3, m, rng).z)
        got = mf.stationary_angles_w(zp, z).angles
        assert np.max(np.abs(got[:m] - _complement_angles(zp, z))) < 1e-9, m
        assert np.array_equal(got[m:], np.zeros(3 - m)), m


def test_angle_spectrum_is_sorted_and_clipped():
    spec = mf.AngleSpectrum(np.array([0.3, 1.2, 0.7]))
    assert np.all(spec.angles[:-1] >= spec.angles[1:])
    assert spec.max_angle == pytest.approx(1.2)
    assert spec.cos_product() == pytest.approx(np.cos(0.3) * np.cos(1.2) * np.cos(0.7))


# ------------------------------------------------------------- exponential

def test_exp_log_roundtrip_compact():
    rng = np.random.default_rng(25)
    for n, m in [(1, 1), (2, 2), (2, 3), (3, 2)]:
        b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        b *= rng.uniform(0.1, np.pi / 2 - 0.11) / np.linalg.svd(b, compute_uv=False)[0]
        tc = mf.TangentCoord(b)
        back = mf.log0(mf.exp0(tc))
        assert np.linalg.norm(back.b - tc.b) < 1e-12


def test_exp_log_roundtrip_noncompact_large_norm():
    rng = np.random.default_rng(26)
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b *= 2.5 / np.linalg.norm(b)
    tc = mf.TangentCoord(b, signature="noncompact")
    back = mf.log0(mf.exp0(tc))
    assert np.linalg.norm(back.b - tc.b) < 1e-9


def test_exp_scalar_values():
    tc = mf.TangentCoord(np.array([[np.pi / 6 + 0j]]))
    assert mf.exp0(tc).z[0, 0] == pytest.approx(np.tan(np.pi / 6), rel=1e-14)
    th = mf.TangentCoord(np.array([[1.0 + 0j]]), signature="noncompact")
    assert mf.exp0(th).z[0, 0] == pytest.approx(np.tanh(1.0), rel=1e-14)


def test_exp_pole_raises_chart_escape():
    tc = mf.TangentCoord(np.array([[1.0 + 0j]]))
    with pytest.raises(ChartEscapeError):
        mf.geodesic_chart(tc, np.pi / 2)


def test_exp_beyond_pole_reenters_chart():
    tc = mf.TangentCoord(np.array([[1.0 + 0j]]))
    z = mf.geodesic_chart(tc, 2.0)
    assert z.z[0, 0] == pytest.approx(np.tan(2.0), rel=1e-13)
    via_group = mf.plane_to_chart(mf.geodesic_group(tc, 2.0))
    assert np.linalg.norm(via_group.z - z.z) < 1e-12


def test_antipode_is_orthogonal_complement_line():
    tc = mf.TangentCoord(np.array([[1.0 + 0j]]))
    plane = mf.geodesic_group(tc, np.pi / 2)
    assert abs(plane.basis[0, 0]) < 1e-12
    assert abs(plane.basis[0, 1]) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(NotInChartError):
        mf.plane_to_chart(plane)


def test_group_route_rows_stay_orthonormal_compact():
    rng = np.random.default_rng(27)
    b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    tc = mf.TangentCoord(b)
    for t in (0.4, 1.1, 2.7):
        basis = mf.geodesic_group(tc, t).basis
        assert np.linalg.norm(basis @ basis.conj().T - np.eye(2)) < 1e-12


def test_group_route_rows_stay_orthonormal_noncompact():
    # the dual's rows (1 | tanh) rescaled by 1/hypot(1, tanh): orthonormal,
    # and the same plane as the unscaled rows, far past where they would
    # grow numerically dependent
    rng = np.random.default_rng(28)
    for n, m in ((1, 1), (2, 3), (3, 2), (4, 6)):
        b = mf._complex_gaussian(rng, n, m)
        tc = mf.TangentCoord(b, "noncompact")
        res = kernel.svd(b)
        for t in (-2.0, 0.4, 3.0, 40.0):
            basis = mf.geodesic_group(tc, t).basis
            assert np.abs(basis @ basis.conj().T - np.eye(n)).max() < 4e-16 * (n + m), (n, m, t)
            unscaled = np.concatenate([np.eye(n), res.apply(np.tanh(t * res.s))], axis=1)
            cos = mf.stationary_angles_svd(mf.Plane(basis), mf.Plane(unscaled)).angles
            assert np.abs(cos).max() < 1e-7, (n, m, t)


def _group_and_haar_rows(rng):
    """(shape, orthonormal rows) of geodesic_group planes on both signatures,
    at the cut time of the compact one among others, and Haar planes."""
    for n, m in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 5), (4, 6)):
        b = mf._complex_gaussian(rng, n, m)
        s_max = np.linalg.svd(b, compute_uv=False)[0]
        for signature in ("compact", "noncompact"):
            tc = mf.TangentCoord(b, signature)
            for t in (0.3, np.pi / (2 * s_max), 2.2, -1.7):
                yield (n, m), mf.geodesic_group(tc, t).basis
        yield (n, m), mf.haar_random_plane(n, m, rng).basis


def test_orthonormal_row_planes_agree_with_validated_planes():
    # a plane built from rows that are orthonormal by construction keeps
    # them as its frame, with no SVD: its cut verdicts and angles match
    # those of Plane(rows), which factors the same rows
    rng = np.random.default_rng(29)
    verdicts = set()
    for (n, m), rows in _group_and_haar_rows(rng):
        fast, checked = mf.Plane._orthonormal(rows.copy()), mf.Plane(rows)
        assert np.array_equal(fast.basis, checked.basis)
        assert not fast.basis.flags.writeable and not fast.frame.flags.writeable
        got, want = loci.cut_locus_test(fast), loci.cut_locus_test(checked)
        assert got.in_locus == want.in_locus
        assert loci.cayley_cut_check(fast) == loci.cayley_cut_check(checked)
        verdicts.add(got.in_locus)
        assert abs(got.max_angle - want.max_angle) <= 1e-14
        assert abs(fast.origin_pairing - checked.origin_pairing) <= 1e-14
        other = mf.haar_random_plane(n, m, rng)
        for q in (other, mf.base_plane(n, m)):
            a = mf.stationary_angles_svd(fast, q).angles
            assert np.abs(a - mf.stationary_angles_svd(checked, q).angles).max() <= 1e-14
            assert abs(mf.cos_cayley_planes(fast, q) - mf.cos_cayley_planes(checked, q)) <= 1e-14
    assert verdicts == {True, False}


def _inherited_records(rng):
    """(label, record) for records built from kept factors at 1x1 to 4x6:
    exp0 on both signatures, compact tangents with singular values past
    pi/2, where tan is negative and out of order, rank-deficient tangents
    and n > m; log0 of those points; and t B at negative and positive t,
    as geodesic_chart builds it."""
    for n, m in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 5), (4, 2), (4, 6)):
        k = min(n, m)
        u = np.linalg.qr(mf._complex_gaussian(rng, n, k))[0]
        v = np.linalg.qr(mf._complex_gaussian(rng, m, k))[0]
        for label, s in (("below pi/2", rng.uniform(0.05, 1.5, k)),
                         ("past pi/2", rng.uniform(0.05, 3.05, k)),
                         ("rank-deficient", np.r_[rng.uniform(0.2, 2.9, 1), np.zeros(k - 1)])):
            s = s[mf.tan_pole_distance(s) > 0.05]
            b = (u[:, :s.size] * s) @ v[:, :s.size].conj().T
            for signature in ("compact", "noncompact"):
                tc = mf.TangentCoord(b, signature)
                for name, record in (("exp0", mf.exp0(tc)), ("log0", mf.log0(mf.exp0(tc)))):
                    yield f"{name} {signature} {label} {n}x{m}", record
                res = tc._svd()
                for t in (-1.3, 0.7):
                    yield f"t B {signature} {label} {n}x{m} t={t}", mf.TangentCoord._inherit(
                        res, t * res.s, signature)


def test_inherited_factors_are_the_svd_of_the_record():
    # the SVD a record inherits is one of its own matrix: its singular values
    # are those of a fresh SVD to 4 k eps s_max (k = min(n, m); the fresh
    # SVD of the rounded matrix is itself off by up to 7 eps s_max at 4x6),
    # descending and non-negative, with orthonormal columns that reproduce
    # the matrix to the backward error of the SVD they came from
    rng = np.random.default_rng(31)
    eps = np.finfo(float).eps
    labels = set()
    for label, record in _inherited_records(rng):
        # the SVD is mapped from the source's on first use
        assert record._factors is None and record._source is not None, label
        matrix = record.z if isinstance(record, mf.ChartPoint) else record.b
        kept, fresh = record._svd(), kernel.svd(matrix)
        assert record._factors is kept and record._source is None, label
        k, s_max = kept.s.size, float(fresh.s[0])
        assert np.abs(kept.s - fresh.s).max() <= 4 * k * eps * s_max, label
        assert np.all(kept.s >= 0.0) and np.all(np.diff(kept.s) <= 0.0), label
        for factor in (kept.u, kept.v):
            assert np.abs(factor.conj().T @ factor - np.eye(k)).max() <= 8 * k * eps, label
        assert np.abs(kept.apply(kept.s) - matrix).max() <= 16 * k * eps * s_max, label
        labels.add(label.split()[0])
    assert labels == {"exp0", "log0", "t"}


def test_exp0_near_tanh_saturation_answers_on_its_kept_values():
    # exp0's noncompact point is not factored again: its kept values are
    # tanh(S), below 1 by exp0's saturation guard.  Where tanh(s) is within
    # an ulp or two of 1, a fresh SVD of the rounded matrix can read 1 (about
    # one draw in four here), and ChartPoint(z, "noncompact") would refuse
    # that matrix; exp0 answers, and its point's bound is on the kept values
    rng = np.random.default_rng(185)
    for n, m in ((2, 2), (2, 3), (3, 4)):
        k = min(n, m)
        for _ in range(8):
            u = np.linalg.qr(mf._complex_gaussian(rng, n, k))[0]
            v = np.linalg.qr(mf._complex_gaussian(rng, m, k))[0]
            tc = mf.TangentCoord((u * rng.uniform(17.5, 18.3, k)) @ v.conj().T, "noncompact")
            kept = mf.exp0(tc)._svd().s
            assert np.array_equal(kept, np.tanh(tc._svd().s)) and kept[0] < 1.0


def test_geodesic_distance_matches_scalar_parameters():
    z = mf.ChartPoint(np.array([[np.tan(0.7) + 0j]]))
    assert mf.geodesic_distance0(z) == pytest.approx(0.7, rel=1e-12)
    w = mf.ChartPoint(np.array([[np.tanh(0.9) + 0j]]), signature="noncompact")
    assert mf.geodesic_distance0(w) == pytest.approx(0.9, rel=1e-12)


def test_distance_is_l2_norm_of_angles():
    rng = np.random.default_rng(28)
    z = _rand_chart(rng, 2, 2)
    angles = mf.stationary_angles_svd(mf.chart_to_plane(z), mf.base_plane(2, 2)).angles
    assert mf.geodesic_distance0(z) == pytest.approx(np.linalg.norm(angles), rel=1e-9)


# ---------------------------------------------------------------- geodesics

def test_geodesic_residual_small_on_true_geodesics():
    rng = np.random.default_rng(29)
    for signature in ("compact", "noncompact"):
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b /= np.linalg.norm(b)
        tc = mf.TangentCoord(b, signature=signature)
        assert mf.geodesic_residual(tc, 0.6) < 1e-4


def test_residual_oracle_rejects_perturbed_curve():
    # the same stencil applied to a non-geodesic must light up
    good = _curve_residual(lambda t: np.array([[np.tan(t) + 0j]]), 0.5, "compact")
    bad = _curve_residual(lambda t: np.array([[np.tan(t) * (1 + 0.1 * t) + 0j]]),
                          0.5, "compact")
    assert good < 1e-4
    assert bad > 1e-2


def test_residual_matches_curve_oracle():
    rng = np.random.default_rng(30)
    b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b /= np.linalg.norm(b)
    tc = mf.TangentCoord(b)
    direct = mf.geodesic_residual(tc, 0.8)
    # the chart form U tan(tS) V* on one SVD of B, as the residual reads it:
    # central differences amplify rounding by 1/step^2, so an oracle through
    # fresh SVDs of t B agrees only to about 1e-10
    u, s, vh = np.linalg.svd(b, full_matrices=False)

    def curve(t):
        return (u * np.tan(t * s)) @ vh

    oracle = _curve_residual(curve, 0.8, "compact")
    assert direct == pytest.approx(oracle, abs=1e-12)
    for t in (0.799, 0.8, 0.801):
        assert np.abs(mf.geodesic_chart(tc, t).z - curve(t)).max() < 1e-14


# ------------------------------------------------------------------ plucker

def test_plucker_hand_computed_minors():
    a = 0.7 + 0.2j
    z = mf.ChartPoint(np.array([[a, 0.0], [0.0, 0.0]], dtype=complex))
    vec = mf.plucker(mf.chart_to_plane(z))
    assert vec.indices == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    want = np.array([1.0, 0.0, 0.0, -a, 0.0, 0.0])
    assert np.allclose(vec.coords, want, atol=1e-14)


def test_plucker_pairing_is_cauchy_binet_overlap():
    rng = np.random.default_rng(31)
    for n, m in [(1, 1), (2, 2), (2, 3), (3, 2)]:
        z = _rand_chart(rng, n, m)
        zp = _rand_chart(rng, n, m)
        pair = mf.plucker_pairing(mf.plucker(mf.chart_to_plane(z)),
                                  mf.plucker(mf.chart_to_plane(zp)))
        assert pair == pytest.approx(mf.overlap(zp, z), rel=1e-10)


def test_plucker_refuses_a_stack_over_the_cap_before_building_it(monkeypatch):
    def unreachable(a):
        raise AssertionError("the minor stack was built")

    monkeypatch.setattr(kernel, "_lapack_det", unreachable)
    # 9,657,700 blocks of 12 x 12: 22 GB
    with pytest.raises(ValueError, match=r"C\(26, 12\) = 9657700 minors need a "
                                         r"22251340800-byte stack"):
        mf.plucker(mf.base_plane(12, 14))


def test_plucker_runs_at_8x10():
    vec = mf.plucker(mf.base_plane(8, 10))
    assert vec.coords.shape == (43758,)
    assert vec.coords[0] == 1.0 and not np.any(vec.coords[1:])


def test_plucker_pairing_shape_mismatch():
    a = mf.plucker(mf.base_plane(1, 1))
    b = mf.plucker(mf.base_plane(1, 2))
    with pytest.raises(ValueError):
        mf.plucker_pairing(a, b)


# ----------------------------------------------------------------- sampling

def test_haar_plane_is_deterministic_and_orthonormal():
    p1 = mf.haar_random_plane(2, 3, seed=77)
    p2 = mf.haar_random_plane(2, 3, seed=77)
    assert np.array_equal(p1.basis, p2.basis)
    assert np.linalg.norm(p1.basis @ p1.basis.conj().T - np.eye(2)) < 1e-12


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (3, 2), (6, 8)])
def test_haar_random_chart_solves_the_drawn_rows(n, m):
    # the chart point is solved from the Gaussian rows themselves; the route
    # through the orthonormalized rows of haar_random_plane and
    # plane_to_chart must give the same Z, from the same generator calls
    for seed in range(51):
        got = mf.haar_random_chart(n, m, seed)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n + m)) + 1j * rng.standard_normal((n, n + m))
        q = np.linalg.qr(g.T / np.sqrt(2.0))[0].T
        want = np.linalg.solve(q[:, :n], q[:, n:])
        assert np.linalg.norm(got.z - want) <= 1e-12 * np.linalg.norm(want), seed
        stream = np.random.default_rng(seed)
        mf.haar_random_chart(n, m, stream)
        assert stream.standard_normal() == rng.standard_normal()


def test_haar_random_chart_gives_up_after_64_draws_outside_the_chart(monkeypatch):
    # the chart test reads rank_tol's rule through its non-validating core
    calls = []
    monkeypatch.setattr(kernel, "_rank", lambda a: calls.append(a.shape) or 0)
    rng = np.random.default_rng(34)
    with pytest.raises(NumericalFailure, match="64 tries"):
        mf.haar_random_chart(2, 3, rng)
    assert calls == [(2, 2)] * 64
    # each try drew its own rows
    ref = np.random.default_rng(34)
    for _ in range(64):
        ref.standard_normal((2, 5))
        ref.standard_normal((2, 5))
    assert rng.standard_normal() == ref.standard_normal()


def test_haar_line_angle_distribution_is_uniform_in_cos2():
    rng = np.random.default_rng(32)
    vals = []
    for _ in range(10_000):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vals.append(abs(v[0]) ** 2 / (abs(v[0]) ** 2 + abs(v[1]) ** 2))
    assert np.mean(vals) == pytest.approx(0.5, abs=0.02)
    sampled = mf.haar_random_plane(1, 1, seed=1).basis[0]
    got = abs(sampled[0]) ** 2 / np.linalg.norm(sampled) ** 2
    assert 0.0 <= got <= 1.0


# --------------------------------------------------------------- validation

def test_plane_rejects_dependent_rows():
    with pytest.raises(ValueError):
        mf.Plane(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], dtype=complex))


def test_every_plane_constructor_refuses_improper_shapes():
    # Plane validates an n x N basis with an SVD; base_plane and
    # haar_random_plane keep orthonormal rows with none, built from a shape
    # that the shape rule has checked
    for n, m in ((0, 3), (2, 0), (2, -1)):
        with pytest.raises(ValueError, match="need 1 <= n < N for a proper plane"):
            mf.Plane(np.eye(n, n + m))
        for build in (lambda: mf.base_plane(n, m), lambda: mf.haar_random_plane(n, m, seed=1)):
            with pytest.raises(ValueError, match=f"need n >= 1 and m >= 1, got n={n}, m={m}"):
                build()


@pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
def test_every_route_refuses_an_empty_chart_record_with_valueerror(shape):
    # an empty matrix is refused where it enters, by the shape rule, so no
    # route meets a record without singular values, and none raises IndexError
    words = f"need n >= 1 and m >= 1, got n={shape[0]}, m={shape[1]}"
    tangent_routes = (mf.exp0, lambda tc: mf.geodesic_chart(tc, 1.0),
                      lambda tc: mf.geodesic_group(tc, 1.0),
                      lambda tc: mf.geodesic_residual(tc, 1.0),
                      lambda tc: loci.classify_conjugate(tc, 1.0),
                      lambda tc: loci.jacobian_spectrum(tc, 1.0),
                      lambda tc: loci.conjugate_test_jacobian(tc, 1.0))
    chart_routes = (mf.log0, mf.geodesic_distance0, mf.chart_to_plane, mf.hat_basis,
                    lambda z: mf.geodesic_group(z, 1.0), lambda z: mf.overlap(z, z),
                    lambda z: mf.stationary_angles_w(z, z), lambda z: mf.cos_cayley(z, z))
    for signature in ("compact", "noncompact"):
        for cls, routes in ((mf.TangentCoord, tangent_routes), (mf.ChartPoint, chart_routes)):
            for route in routes:
                with pytest.raises(ValueError, match=words):
                    route(cls(np.zeros(shape), signature))


def test_samplers_and_the_origin_plane_refuse_bad_shapes_by_the_shape_rule():
    builds = (lambda n, m: mf.haar_random_chart(n, m, seed=1),
              lambda n, m: mf.haar_random_plane(n, m, seed=1), mf.base_plane)
    for n, m in ((0, 3), (2, 0), (2, -1)):
        for build in builds:
            with pytest.raises(ValueError, match=f"need n >= 1 and m >= 1, got n={n}, m={m}"):
                build(n, m)
    for build in builds:
        with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
            build(2.5, 3)
    # numpy integers are integers
    assert np.array_equal(mf.base_plane(np.int64(2), np.int32(3)).basis, np.eye(2, 5))
    assert np.array_equal(mf.haar_random_chart(np.int64(2), 3, seed=4).z,
                          mf.haar_random_chart(2, 3, seed=4).z)


def test_scalar_time_routes_refuse_an_array_of_times():
    tc = mf.TangentCoord(np.array([[0.4, 0.1j, 0.0], [0.2, 0.3, 0.1]]))
    routes = (mf.geodesic_chart, mf.geodesic_group, mf.geodesic_residual,
              loci.conjugate_test_jacobian, loci.classify_conjugate)
    for route in routes:
        for t in (np.array([1.0, 2.0]), np.ones((1, 1))):
            with pytest.raises(ValueError, match="t must be a single time"):
                route(tc, t)
    # a zero-dimensional time is one time, read as the float it holds
    for t in (np.float64(0.7), np.array(0.7), 0.7):
        assert mf.geodesic_chart(tc, t).z.tobytes() == mf.geodesic_chart(tc, 0.7).z.tobytes()
        got, want = loci.classify_conjugate(tc, t), loci.classify_conjugate(tc, 0.7)
        assert (got.label, got.jacobian_ratio) == (want.label, want.jacobian_ratio)
        assert got.angles.angles.tobytes() == want.angles.angles.tobytes()
    # the stacked route still takes an array, one row per time
    assert loci.jacobian_spectrum(tc, np.array([1.0, 2.0])).shape == (2, 12)


def test_geodesic_residual_reads_its_time_as_the_other_routes_do():
    # the time passes tangent._at before t - step: a list time raised TypeError
    tc = mf.TangentCoord(np.eye(2, 3))
    for t in ([1.0], [1.0, 2.0], np.array([1.0])):
        with pytest.raises(ValueError, match="t must be a single time"):
            mf.geodesic_residual(tc, t)
    with pytest.raises(ValueError, match="times must be finite"):
        mf.geodesic_residual(tc, np.nan)
    assert mf.geodesic_residual(tc, np.array(0.6)) == mf.geodesic_residual(tc, 0.6)


def test_seeds_are_none_a_generator_or_a_non_negative_integer():
    symbol = loci.SchubertSymbol(w=(1, 2), m=2)
    for seed in (1.5, "1", 2.0, np.float64(3.0), [1, 2]):
        with pytest.raises(ValueError, match="seed must be an integer"):
            mf.haar_random_plane(2, 3, seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            loci.schubert_generic_sample(symbol, seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            mf.haar_random_chart(2, 3, seed=seed)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        mf.haar_random_plane(2, 3, seed=-1)
    # an int, a numpy int and a Generator keep numpy's stream
    want = mf.haar_random_plane(2, 3, seed=5).basis
    for seed in (5, np.int64(5), np.uint8(5), np.random.default_rng(5)):
        assert np.array_equal(mf.haar_random_plane(2, 3, seed=seed).basis, want)
    assert mf.haar_random_plane(2, 3, seed=None).basis.shape == (2, 5)


def test_origin_plane_keeps_its_rows_as_lapacks_frame():
    # base_plane runs no SVD: LAPACK's frame of (1_n | 0) is its rows, bit
    # for bit, so every route reads the same numbers as before
    for n in range(1, 9):
        for m in range(1, 11):
            rows = np.eye(n, n + m, dtype=complex)
            origin = mf.base_plane(n, m)
            assert origin.frame.tobytes() == mf.Plane(rows).frame.tobytes(), (n, m)
            assert origin.basis.tobytes() == rows.tobytes()


def test_plane_is_frozen():
    # the frame is computed from the basis once, so neither may change; the
    # origin pairing is read from the frame on each access
    plane = mf.base_plane(2, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plane.basis = np.eye(2, 5, k=1, dtype=complex)
    for array in (plane.basis, plane.frame):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 1] = 1.0
    assert np.array_equal(plane.basis, np.eye(2, 5))


def _matrix(record):
    """The matrix field of a chart point or a tangent: z or b."""
    return getattr(record, record._fields[0])


@pytest.mark.parametrize("cls, route", [(mf.ChartPoint, mf.log0), (mf.TangentCoord, mf.exp0)])
def test_records_own_their_matrix_and_keep_no_stale_factorization(cls, route):
    # the record copies the matrix it is given and keeps it read-only, and
    # it is frozen: no field can be rebound, so the SVD it keeps, computed
    # or inherited, is always that of its matrix
    rng = np.random.default_rng(84)
    first = 0.3 * (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    second = 0.2 * (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    given = first.copy()
    record = cls(given)
    before = _matrix(route(record))
    given *= 2.0
    assert np.array_equal(_matrix(record), first)
    with pytest.raises(ValueError, match="read-only"):
        _matrix(record)[0, 0] = 1.0
    assert np.array_equal(_matrix(route(record)), before)
    for name, value in ((record._fields[0], second), ("signature", "noncompact"),
                        ("_factors", None), ("_matrix", second)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert np.array_equal(_matrix(record), first) and record.signature == "compact"
    assert np.array_equal(_matrix(route(record)), before)
    # a derived record is frozen and read-only too
    derived = route(record)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(derived, derived._fields[0], second)
    assert not _matrix(derived).flags.writeable


def test_plane_to_chart_outside_chart():
    with pytest.raises(NotInChartError):
        mf.plane_to_chart(mf.Plane(np.array([[0.0, 1.0 + 0j]])))


def test_noncompact_chart_point_must_stay_in_ball():
    with pytest.raises(DomainError):
        mf.ChartPoint(np.array([[1.5 + 0j]]), signature="noncompact")


@pytest.mark.parametrize("top", [1e308, np.nextafter(1.0, 2.0)])
def test_noncompact_refusal_prints_the_singular_value_in_full(top):
    # the refusal names the value as repr reads it: six decimals printed 1e308
    # as a 309-digit number and the double above 1 as 1.000000
    with pytest.raises(DomainError) as info:
        mf.ChartPoint(np.array([[top + 0j]]), signature="noncompact")
    assert str(info.value) == ("noncompact chart requires all singular values below 1, "
                               f"got {float(top)!r}")


def test_chart_point_rejects_bad_signature():
    with pytest.raises(ValueError):
        mf.ChartPoint(np.zeros((1, 1), dtype=complex), signature="spherical")


@pytest.mark.parametrize("signature", ["compact", "noncompact"])
def test_signature_record_members_agree(signature):
    sig = mf._check_signature(signature)
    assert sig.compact == (signature == "compact")
    # the principal branch of arctan, and a wider grid clear of the tan poles
    x = np.linspace(-1.4, 1.4, 57)
    assert sig.ata(sig.ta(x)) == pytest.approx(x, rel=1e-13, abs=1e-15)
    st = np.linspace(0.0, 6.0, 241)
    st = st[mf.tan_pole_distance(st) > 0.05]
    assert sig.ta(st) == pytest.approx(sig.sn(st) / sig.cs(st), rel=1e-14, abs=1e-15)
    co, si = sig.group(st)
    assert si / co == pytest.approx(sig.ta(st), rel=1e-14, abs=1e-15)
    assert sig.fold(st) == pytest.approx(np.arctan(np.abs(sig.ta(st))), rel=1e-13, abs=1e-15)
    assert float(sig.pole_distance(np.pi / 2)) == (0.0 if sig.compact else np.inf)
    assert bool(sig.saturates(20.0)) is not sig.compact
    assert not np.any(sig.saturates(st))
    # the sign of 1 + eps Z Z*, as overlap reads it
    z = mf.ChartPoint(np.array([[0.5 + 0j]]), signature)
    assert mf.overlap(z, z) == pytest.approx(1.0 + sig.eps * 0.25, rel=1e-15)
