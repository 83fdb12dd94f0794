import dataclasses
import json
import warnings

import numpy as np
import pytest

from grassgeo import cli, kernel, loci, manifold as mf, verify
from grassgeo.errors import ChartEscapeError, ConsistencyError, DomainError


# ------------------------------------------------------------ symbols, flags

def test_symbol_validation():
    loci.SchubertSymbol(w=(0, 1, 1), m=2)
    with pytest.raises(ValueError):
        loci.SchubertSymbol(w=(1, 0), m=2)
    with pytest.raises(ValueError):
        loci.SchubertSymbol(w=(0, 3), m=2)
    with pytest.raises(ValueError):
        loci.SchubertSymbol(w=(), m=2)
    # entries and m are integers: numpy integers pass, floats are refused
    # where they were truncated
    assert loci.SchubertSymbol(w=np.array([0, 1]), m=np.int64(2)) == loci.SchubertSymbol((0, 1), 2)
    with pytest.raises(ValueError, match="symbol entry must be an integer, got 0.9"):
        loci.SchubertSymbol(w=(0.9, 1.7), m=2)
    with pytest.raises(ValueError, match="m must be an integer, got 1.5"):
        loci.SchubertSymbol(w=(0,), m=1.5)


def test_symbol_codimension():
    assert loci.SchubertSymbol(w=(2, 2), m=2).codimension() == 0
    assert loci.SchubertSymbol(w=(0, 1), m=2).codimension() == 3


def test_v_pl_symbols():
    assert loci.v_pl_symbol(2, 1, 2, 2).w == (1, 2)
    assert loci.v_pl_symbol(3, 2, 2, 2).w == (1, 1)
    assert loci.v_pl_symbol(2, 1, 2, 2).w == loci.cut_locus_symbol(2, 2).w
    with pytest.raises(ValueError):
        loci.v_pl_symbol(5, 1, 2, 2)
    for args in ((2.5, 1, 2, 2), (2, 1.5, 2, 2), (2, 1, 2.0, 2), (2, 1, 2, 2.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            loci.v_pl_symbol(*args)
    for args in ((2.5, 2), (2, 2.0), (2, "3")):
        with pytest.raises(ValueError, match="must be an integer"):
            loci.cut_locus_symbol(*args)
    for args in ((0, 2), (2, 0), (-1, 3)):
        with pytest.raises(ValueError, match="need n >= 1 and m >= 1"):
            loci.cut_locus_symbol(*args)


def test_cut_locus_symbol_is_one_frozen_instance_per_shape():
    sym = loci.cut_locus_symbol(3, 5)
    assert sym.w == (4, 5, 5) and sym.m == 5
    assert loci.cut_locus_symbol(np.int64(3), np.int64(5)) is sym
    assert loci.cut_locus_symbol(5, 3) is not sym
    for name, value in (("w", (0, 0, 0)), ("m", 6)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sym, name, value)
    assert loci.cut_locus_symbol(3, 5).w == (4, 5, 5)


def test_flag_orders():
    sym = loci.SchubertSymbol(w=(1, 2), m=2)
    for _ in range(2):  # the second call reads the cached order
        assert loci.flag_order(sym, "standard") == (0, 1, 2, 3)
        assert loci.flag_order(sym, "perp") == (2, 3, 0, 1)
        assert loci.flag_order(sym, "chart") == (2, 0, 3, 1)
    # an equal symbol reads the same order
    assert loci.flag_order(loci.SchubertSymbol(w=(1, 2), m=2), "chart") == (2, 0, 3, 1)
    for flag in ("random", ["perp"], None):
        with pytest.raises(ValueError, match="unknown flag"):
            loci.flag_order(sym, flag)


# ------------------------------------------------------------- membership

def test_origin_plane_is_in_every_standard_variety():
    origin = mf.base_plane(2, 2)
    for w in [(0, 0), (0, 1), (1, 2), (2, 2)]:
        sym = loci.SchubertSymbol(w=w, m=2)
        assert loci.schubert_membership(origin, sym, flag="standard")


def test_perp_flag_detects_planes_meeting_the_complement():
    # span(e3, e4) is the whole complement of the origin plane in C^4
    far = mf.Plane(np.array([[0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex))
    sym = loci.cut_locus_symbol(2, 2)
    assert loci.schubert_membership(far, sym, flag="perp")
    assert not loci.schubert_membership(mf.base_plane(2, 2), sym, flag="perp")


def test_generic_plane_misses_proper_varieties():
    rng = np.random.default_rng(41)
    plane = mf.haar_random_plane(2, 2, rng)
    for w in [(0, 0), (0, 2), (1, 2)]:
        sym = loci.SchubertSymbol(w=w, m=2)
        assert not loci.schubert_membership(plane, sym, flag="standard")
    whole = loci.SchubertSymbol(w=(2, 2), m=2)
    assert loci.schubert_membership(plane, whole, flag="standard")


@pytest.mark.parametrize("w", [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)])
def test_staircase_samples_belong_to_their_variety(w):
    rng = np.random.default_rng(sum(w) + 101)
    sym = loci.SchubertSymbol(w=w, m=2)
    for _ in range(5):
        sample = loci.schubert_generic_sample(sym, rng, flag="chart")
        assert loci.schubert_membership(sample, sym, flag="chart")


def test_staircase_sample_rectangular():
    sym = loci.SchubertSymbol(w=(1, 3), m=4)
    sample = loci.schubert_generic_sample(sym, seed=7, flag="chart")
    assert sample.basis.shape == (2, 6)
    assert loci.schubert_membership(sample, sym, flag="chart")


# --------------------------------------------------------------- cut locus

def test_cut_locus_test_on_constructed_and_random_planes():
    rng = np.random.default_rng(42)
    for _ in range(10):
        verdict = loci.cut_locus_test(verify._cut_plane(rng, 2, 2))
        assert verdict.in_locus
        assert verdict.pairing_abs < 1e-10
        assert verdict.max_angle == pytest.approx(np.pi / 2, abs=1e-7)
    for _ in range(10):
        verdict = loci.cut_locus_test(mf.haar_random_plane(2, 2, rng))
        assert not verdict.in_locus


@pytest.mark.parametrize("n, m", [(2, 2), (3, 5), (6, 8)])
def test_cut_pairing_equals_explicit_minor_pairing(n, m):
    # the Gram pairing is the Cauchy-Binet closed form of the normalized
    # pairing of all C(n+m, n) minors with the origin's
    rng = np.random.default_rng(47)
    origin = mf.plucker(mf.base_plane(n, m))
    for k in range(6):
        plane = verify._cut_plane(rng, n, m) if k % 2 == 0 else mf.haar_random_plane(n, m, rng)
        minors = mf.plucker(plane)
        explicit = abs(mf.plucker_pairing(minors, origin)) / np.linalg.norm(minors.coords)
        assert loci.cut_locus_test(plane).pairing_abs == pytest.approx(explicit, rel=1e-12)


def test_cut_routes_agree_with_schubert_and_cayley():
    rng = np.random.default_rng(43)
    sym = loci.cut_locus_symbol(2, 3)
    for k in range(20):
        plane = verify._cut_plane(rng, 2, 3) if k % 2 == 0 else mf.haar_random_plane(2, 3, rng)
        expect = loci.cut_locus_test(plane).in_locus
        assert loci.cayley_cut_check(plane) == expect
        assert loci.schubert_membership(plane, sym, flag="perp") == expect


def _origin_test_planes(rng, n, m):
    """A plane built in the cut locus, a Haar plane, and unnormalized bases
    of both: a scaled Gaussian basis and a built basis mixed by a random
    invertible matrix."""
    g = rng.standard_normal((n, n + m)) + 1j * rng.standard_normal((n, n + m))
    mix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    built = verify._cut_plane(rng, n, m)
    return [built, mf.haar_random_plane(n, m, rng), mf.Plane(g * rng.uniform(1e-3, 1e3)),
            mf.Plane(mix @ built.basis)]


@pytest.mark.parametrize("n, m", [(1, 4), (3, 5), (6, 8), (3, 2), (4, 1)])
def test_origin_cut_routes_equal_the_general_routes(n, m):
    # cut_locus_test and cayley_cut_check read the leading block of the
    # plane's own basis; the numbers must be exactly those of the general
    # routes against an explicit origin plane
    rng = np.random.default_rng(53 + n + m)
    origin = mf.base_plane(n, m)
    for _ in range(4):
        for plane in _origin_test_planes(rng, n, m):
            verdict = loci.cut_locus_test(plane)
            cos = mf.cos_cayley_planes(plane, origin)
            assert verdict.max_angle == mf.stationary_angles_svd(plane, origin).max_angle
            assert verdict.pairing_abs == cos
            assert loci.cayley_cut_check(plane) == (cos <= kernel.RANK_TOL)


@pytest.mark.parametrize("shape, h", [((2, 2), (0.8, 0.6)), ((3, 5), (0.9, 0.7, 0.3)),
                                      ((4, 2), (1.0, 0.4))])
def test_origin_stacks_equal_the_general_stacks_on_a_scan(shape, h):
    # along a geodesic_group scan, the whole angle spectrum read from the
    # leading rows of the plane's frame, and the cached origin pairing, are
    # bit for bit those of the general routes against an explicit origin
    n, m = shape
    tc = loci.cartan_to_tangent(loci.CartanDirection(np.array(h)), n, m)
    origin = mf.base_plane(n, m)
    for t in np.linspace(0.3, 12.0, 41):
        plane = mf.geodesic_group(tc, t)
        by_origin = mf.AngleSpectrum(mf._angles_of(plane.frame[:n].conj().T, n + m))
        general = mf.stationary_angles_svd(plane, origin)
        assert np.array_equal(by_origin.angles, general.angles)
        assert loci.cut_locus_test(plane).max_angle == general.max_angle
        assert plane.origin_pairing == mf.cos_cayley_planes(plane, origin)


def test_planes_are_factored_once(monkeypatch):
    # a Plane runs one SVD, and the cut, pairing and angle routes read its
    # frame: no further SVD or QR of the basis, and no row scaling.  Every
    # SVD of the package, kernel.svd's included, goes through kernel._svd
    calls = {"svd": 0, "qr": 0, "pairing": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernel, "_svd", counted("svd", kernel._svd))
    monkeypatch.setattr(kernel, "_lapack_qr_r_raw", counted("qr", kernel._lapack_qr_r_raw))
    # the origin pairing reads the frame, not the unit-row basis
    monkeypatch.setattr(loci, "_unit_rows", counted("pairing", loci._unit_rows))
    rng = np.random.default_rng(71)
    for n, m in ((1, 4), (3, 5), (6, 8)):
        built = verify._cut_plane(rng, n, m)
        g = rng.standard_normal((n, n + m)) + 1j * rng.standard_normal((n, n + m))
        calls.update(svd=0, qr=0, pairing=0)
        other = mf.Plane(g)
        # the origin plane's rows are their own frame: it runs no SVD
        origin = mf.base_plane(n, m)
        assert calls == {"svd": 1, "qr": 0, "pairing": 0}
        for plane in (built, other):
            calls.update(svd=0, pairing=0)
            for _ in range(2):
                verdict = loci.cut_locus_test(plane)
                assert loci.cayley_cut_check(plane) == verdict.in_locus
                mf.stationary_angles_svd(plane, origin)
                mf.stationary_angles_svd(built, other)
            assert calls == {"svd": 0, "qr": 0, "pairing": 0}, (n, m)
        assert loci.cut_locus_test(built).in_locus and not loci.cut_locus_test(other).in_locus


@pytest.mark.parametrize("n, m", [(3, 5), (6, 8), (7, 9)])
def test_cut_routes_run_three_svds_and_one_det_per_plane(n, m, monkeypatch):
    # a plane pays for its validating SVD, the SVD of its frame's leading
    # block (the cosines), the det of that block (the pairing) and the
    # Schubert route's SVD of the unit-row block, and for nothing else;
    # the cosines and pairing are kept, so repeating the routes adds none
    calls = {"svd": 0, "det": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    rng = np.random.default_rng(29 + n)
    bases = [verify._cut_plane(rng, n, m).basis, mf.haar_random_plane(n, m, rng).basis]
    monkeypatch.setattr(kernel, "_lapack_svd_s", counted("svd", kernel._lapack_svd_s))
    monkeypatch.setattr(kernel, "_lapack_svd", counted("svd", kernel._lapack_svd))
    monkeypatch.setattr(kernel, "_lapack_det", counted("det", kernel._lapack_det))
    for basis, in_locus in zip(bases, (True, False)):
        calls.update(svd=0, det=0)
        plane = mf.Plane(basis)
        verdict = loci.cut_locus_test(plane)
        cayley = loci.cayley_cut_check(plane)
        schubert = loci.schubert_membership(plane, loci.cut_locus_symbol(n, m), flag="perp")
        assert calls == {"svd": 3, "det": 1}
        assert verdict.in_locus == cayley == schubert == in_locus
        calls.update(svd=0, det=0)
        assert loci.cut_locus_test(plane) == verdict
        assert loci.cayley_cut_check(plane) == cayley
        assert calls == {"svd": 0, "det": 0}


def test_one_tangent_and_one_chart_point_are_factored_once(monkeypatch):
    # every route reads the SVD a record keeps: one SVD of B serves exp0,
    # geodesic_group, classify_conjugate and jacobian_spectrum, and one SVD
    # of a noncompact Z serves its ball check, log0 and the chart angle route
    factored = []
    svd = kernel._svd

    def counted(a):
        factored.append(a)
        return svd(a)

    monkeypatch.setattr(kernel, "_svd", counted)
    for signature in ("compact", "noncompact"):
        tc = loci.cartan_to_tangent(loci.CartanDirection(np.array([0.9, 0.4])), 2, 3, signature)
        for _ in range(2):
            mf.exp0(tc)
            mf.geodesic_group(tc, 1.3)
            loci.classify_conjugate(tc, 1.3)
            loci.jacobian_spectrum(tc, np.array([0.7, 1.3]))
        assert sum(a is tc.b for a in factored) == 1, signature
    zp = mf.ChartPoint(np.array([[0.1, 0.2j], [0.0, 0.3]]), "noncompact")
    z = mf.ChartPoint(np.array([[0.5, 0.0], [0.1j, 0.2]]), "noncompact")
    factored.clear()
    mf.log0(z)
    mf.stationary_angles_w(zp, z)
    mf.stationary_angles_w(z, zp)
    assert factored == []
    # records built from kept factors inherit them.  The chain below factors
    # B once: no point it builds is factored again, for the noncompact ball
    # or otherwise, and its plane is built from orthonormal rows.  t B on the
    # chart route inherits too, so a residual's three points and one more
    # chart point read one SVD.  A Haar plane is orthonormal by its QR.
    rng = np.random.default_rng(18)
    for n, m in ((2, 3), (3, 2)):
        b = 0.4 * mf._complex_gaussian(rng, n, m)
        for signature in ("compact", "noncompact"):
            factored.clear()
            plane = mf.geodesic_group(mf.exp0(mf.log0(mf.exp0(mf.TangentCoord(b, signature)))),
                                      0.8)
            assert len(factored) == 1 and factored[0] is not b, (n, m, signature)
            assert plane.basis.shape == (n, n + m)
            factored.clear()
            tc = mf.TangentCoord(b, signature)
            mf.geodesic_residual(tc, 0.6)
            mf.geodesic_chart(tc, -1.1)
            assert len(factored) == 1 and factored[0] is tc.b, (n, m, signature)
        factored.clear()
        mf.haar_random_plane(n, m, rng)
        assert factored == []


@pytest.mark.parametrize("n", range(1, 8))
def test_cut_routes_do_not_overflow_on_large_bases(n):
    # the origin plane with every entry 1e100 to 1e300: the Gram
    # determinants of the unscaled rows overflow from n = 2 on
    for m in (1, 3):
        origin = mf.base_plane(n, m)
        symbol = loci.cut_locus_symbol(n, m)
        for scale in (1e100, 1e150, 1e300):
            plane = mf.Plane(scale * origin.basis)
            verdict = loci.cut_locus_test(plane)
            assert not verdict.in_locus and verdict.max_angle == 0.0
            assert verdict.pairing_abs == mf.cos_cayley_planes(plane, origin) == 1.0
            assert not loci.cayley_cut_check(plane)
            assert not loci.schubert_membership(plane, symbol, flag="perp")


def _membership_every_condition(plane, symbol, flag):
    """schubert_membership without the dimension-count shortcut: one rank
    test for each of the n conditions."""
    n, m = symbol.n, symbol.m
    order = loci.flag_order(symbol, flag)
    eye = np.eye(n + m, dtype=complex)
    for i in range(n):
        p = symbol.w[i] + i + 1
        stacked = np.vstack([plane.basis, eye[list(order[:p])]])
        if n + p - kernel.rank_tol(stacked) < i + 1:
            return False
    return True


@pytest.mark.parametrize("n, m", [(1, 3), (2, 2), (3, 5), (3, 2), (4, 1)])
def test_schubert_membership_equals_every_condition(n, m):
    rng = np.random.default_rng(59 + n * m)
    symbols = [loci.cut_locus_symbol(n, m)]
    symbols += [loci.v_pl_symbol(p, l, n, m) for l in range(1, n + 1) for p in range(l, m + l + 1)]
    symbols += [loci.SchubertSymbol(w=tuple(int(v) for v in np.sort(rng.integers(0, m + 1, n))),
                                    m=m) for _ in range(6)]
    assert any(m in s.w for s in symbols) and any(m not in s.w for s in symbols)
    verdicts = set()
    for symbol in symbols:
        planes = _origin_test_planes(rng, n, m)
        planes += [loci.schubert_generic_sample(symbol, rng, flag=flag)
                   for flag in ("standard", "perp", "chart")]
        for plane in planes:
            for flag in ("standard", "perp", "chart"):
                want = _membership_every_condition(plane, symbol, flag)
                assert loci.schubert_membership(plane, symbol, flag=flag) == want
                verdicts.add(want)
    assert verdicts == {True, False}


def test_schubert_membership_skips_conditions_that_always_hold(monkeypatch):
    # the rank tests read rank_tol's rule through its non-validating core
    calls = []
    rank = kernel._rank

    def counted(a):
        calls.append(a.shape)
        return rank(a)

    plane = mf.haar_random_plane(6, 8, np.random.default_rng(61))
    monkeypatch.setattr(kernel, "_rank", counted)
    assert not loci.schubert_membership(plane, loci.cut_locus_symbol(6, 8), flag="perp")
    assert calls == [(6, 6)]
    assert loci.schubert_membership(plane, loci.SchubertSymbol(w=(8,) * 6, m=8))
    assert calls == [(6, 6)]


@pytest.mark.parametrize("n, m", [(2, 1), (3, 5), (6, 8)])
def test_schubert_membership_does_not_depend_on_the_basis_scale(n, m):
    # the origin plane, and a plane built in the cut locus, with the whole
    # basis scaled: each row is scaled to a largest modulus of 1 before the
    # flag vectors are stacked under it, so no scale swamps the flag rows
    symbol = loci.cut_locus_symbol(n, m)
    origin = np.eye(n, n + m, dtype=complex)
    built = verify._cut_plane(np.random.default_rng(67 + n), n, m).basis
    verdicts = set()
    for basis in (origin, built):
        for flag in ("standard", "perp", "chart"):
            want = loci.schubert_membership(mf.Plane(basis), symbol, flag=flag)
            verdicts.add((flag, want))
            for scale in (1e-6, 1.0, 1e9, 1e12, 1e100, 1e200):
                assert loci.schubert_membership(mf.Plane(scale * basis), symbol,
                                                flag=flag) == want, (scale, flag)
    # the origin plane is outside the cut locus, the built plane inside it
    assert {("perp", False), ("perp", True)} <= verdicts


def _membership_by_columns(plane, symbol, flag):
    """Every condition, none skipped, as n - rank_tol of the unit-row
    columns outside V_p, taken in ascending order."""
    n, big_n = plane.basis.shape
    rows = loci._unit_rows(plane.basis)
    order = loci.flag_order(symbol, flag)
    for i in range(n):
        outside = sorted(set(range(big_n)) - set(order[:symbol.w[i] + i + 1]))
        if n - kernel.rank_tol(rows[:, outside]) < i + 1:
            return False
    return True


@pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (2, 3), (3, 5), (4, 2), (6, 8), (7, 9)])
def test_schubert_membership_reads_the_columns_outside_the_flag_space(n, m):
    # Haar planes whose last row has its leading block scaled by 1e-12 to
    # 1e-6, then the whole basis by 1e-3 to 1e3: for the cut symbol against
    # the perp flag the verdicts straddle the rank threshold
    rng = np.random.default_rng(71 + 10 * n + m)
    symbols = [loci.cut_locus_symbol(n, m)]
    symbols += [loci.SchubertSymbol(w=tuple(int(v) for v in np.sort(rng.integers(0, m + 1, n))),
                                    m=m) for _ in range(3)]
    cut_verdicts = set()
    for eps in np.geomspace(1e-12, 1e-6, 25):
        basis = mf.haar_random_plane(n, m, rng).basis.copy()
        basis[n - 1, :n] *= eps
        plane = mf.Plane(basis * rng.uniform(1e-3, 1e3))
        for symbol in symbols:
            for flag in ("standard", "perp", "chart"):
                want = _membership_by_columns(plane, symbol, flag)
                assert loci.schubert_membership(plane, symbol, flag=flag) == want
        cut_verdicts.add(_membership_by_columns(plane, symbols[0], "perp"))
    assert cut_verdicts == {True, False}


@pytest.mark.parametrize("trailing", [[1.0], [1j, 0.5], [1.0, 1.0, 1.0],
                                      [0.6 + 0.8j, -0.3, 0.2j, 1.0]])
def test_schubert_cut_boundary_is_the_rank_threshold_on_the_leading_entry(trailing):
    # a row (a, trailing) whose largest trailing modulus is 1: the Schubert
    # route reads it in the cut locus exactly when |a| is at most RANK_TOL,
    # whatever the trailing entries; the stacked (n + p) x N rule read 1.5e-9
    # as in the locus next to a single trailing 1
    symbol = loci.cut_locus_symbol(1, len(trailing))
    for lead, member in ((1.5e-9, False), (5e-10, True)):
        plane = mf.Plane(np.array([[lead, *trailing]]))
        assert loci.schubert_membership(plane, symbol, flag="perp") == member, lead


def _near_locus_planes(rng):
    """Haar planes from 1x1 to 7x9 with the leading block of their first k
    rows scaled by 1e-14 to 1e-2, for k from 1 to min(n, m) (past m such rows
    are numerically dependent), then the cut-test repros: 1 x 2 rows
    (a, 1), the 2x3 basis (1e-8, 0, 1), (0, 1e-8, 1), and 3x5 planes with
    three cosines of 1e-3 or 5e-4 against the origin."""
    planes = []
    for n, m in ((1, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 2), (6, 8), (7, 9)):
        for k in range(1, min(n, m) + 1):
            for scale in np.geomspace(1e-14, 1e-2, 25):
                basis = mf.haar_random_plane(n, m, rng).basis.copy()
                basis[:k, :n] *= scale
                planes.append(mf.Plane(basis))
    planes += [mf.Plane(np.array([[a, 1.0]])) for a in (1e-7, 5e-9, 1.5e-9, 5e-10)]
    planes.append(mf.Plane(np.array([[1e-8, 0, 1], [0, 1e-8, 1]])))
    planes += [mf.Plane(np.hstack([c * np.eye(3), np.sqrt(1 - c * c) * np.eye(3, 5)]))
               for c in (1e-3, 5e-4)]
    return planes


def test_near_locus_cut_routes_read_one_rank_rule(capsys):
    # every cut route reads the leading block at RANK_TOL: cut_locus_test the
    # smallest cosine, cayley_cut_check the pairing, which is the cosine
    # product and so at most the smallest cosine
    planes = _near_locus_planes(np.random.default_rng(20261019))
    seen = set()
    for plane in planes:
        n, big_n = plane.basis.shape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = loci.cut_locus_test(plane)
            cayley = loci.cayley_cut_check(plane)
            schubert = loci.schubert_membership(plane, loci.cut_locus_symbol(n, big_n - n),
                                                flag="perp")
            data = [[v.real, v.imag] for v in plane.basis.ravel()]
            code = cli.main(["cut-test", json.dumps({"rows": n, "cols": big_n, "data": data})])
        cos = np.linalg.svd(plane.frame[:n].conj().T, compute_uv=False)
        pairing = verdict.pairing_abs
        assert verdict.in_locus == (cos[-1] <= kernel.RANK_TOL)
        assert cayley == (pairing <= kernel.RANK_TOL) and pairing == plane.origin_pairing
        assert cayley or not verdict.in_locus
        assert abs(pairing - np.prod(cos)) <= 1e-12
        if n == 1:
            assert cayley == verdict.in_locus
            # the Schubert route reads the leading entry over the row's
            # largest modulus, which is the cosine times 1 to sqrt(N): equal
            # verdicts on a 1 x 2 basis, and at most a band apart on a longer one
            assert schubert == verdict.in_locus or (
                big_n > 2 and not schubert and cos[0] * np.sqrt(big_n) > kernel.RANK_TOL)
        assert code == 0
        shown = json.loads(capsys.readouterr().out)
        assert (shown["in_locus"], shown["cayley"], shown["schubert"]) == (
            verdict.in_locus, cayley, schubert)
        seen.add((verdict.in_locus, cayley))
    # in the locus, out of it, and in the product band between the routes
    assert seen == {(True, True), (False, False), (False, True)}
    # the 2x3 repro: one angle of 0 and one with cosine 1e-8 / sqrt(2)
    assert planes[-3].origin_pairing == pytest.approx(1e-8 / np.sqrt(2), rel=1e-6)


def test_cut_time_equal_entries():
    d = loci.CartanDirection(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert loci.cut_time(d) == pytest.approx(2.221441469079183, rel=1e-12)


def test_cut_time_reaches_the_locus():
    d = loci.CartanDirection(np.array([0.8, 0.6]))
    tc = loci.cartan_to_tangent(d, 2, 2)
    plane = mf.geodesic_group(tc, loci.cut_time(d))
    assert loci.cut_locus_test(plane).in_locus


# --------------------------------------------------------- conjugate radii

def test_worked_direction_radius_table():
    d = loci.CartanDirection(np.array([0.8, 0.6]))
    params = loci.tangent_conjugate_params(d, 2, 2, lambda_max=2)
    got = [(c.family, c.lam, round(c.t, 4)) for c in params]
    assert got == [
        ("t2", 1, 1.9635),
        ("t1plus", 1, 2.244),
        ("t2", 1, 2.618),
        ("t2", 2, 3.927),
        ("t1plus", 2, 4.488),
        ("t2", 2, 5.236),
        ("t1minus", 1, 15.708),
        ("t1minus", 2, 31.4159),
    ]
    assert all(c.multiplicity == 2 for c in params if c.family.startswith("t1"))
    assert all(c.multiplicity == 1 for c in params if c.family == "t2")


def test_rectangular_direction_has_t3_family():
    d = loci.CartanDirection(np.array([0.5]))
    params = loci.tangent_conjugate_params(d, 1, 2, lambda_max=1)
    fams = {c.family: c for c in params}
    assert set(fams) == {"t2", "t3"}
    assert fams["t3"].t == pytest.approx(2 * np.pi, rel=1e-12)
    assert fams["t3"].multiplicity == 2
    square = loci.tangent_conjugate_params(d, 1, 1, lambda_max=1)
    assert all(c.family != "t3" for c in square)


def test_equal_entries_drop_the_difference_family():
    d = loci.CartanDirection(np.array([0.7, 0.7]))
    params = loci.tangent_conjugate_params(d, 2, 2, lambda_max=2)
    assert all(c.family != "t1minus" for c in params)


def test_coverage_limit_worked_direction():
    d = loci.CartanDirection(np.array([0.8, 0.6]))
    assert loci.coverage_limit(d, 2, 2, lambda_max=2) == pytest.approx(
        3 * np.pi / 1.6, rel=1e-12)


ROOT_SHAPES = [(1, 1), (1, 3), (2, 2), (3, 2), (3, 5), (5, 3), (4, 6), (8, 10)]


@pytest.mark.parametrize("n, m", ROOT_SHAPES)
def test_root_table_counts_the_real_dimension(n, m):
    # r flat values and the roots with their multiplicities span the 2nm real
    # coordinates; a generic direction has every root nonzero
    r = min(n, m)
    rng = np.random.default_rng(100 * n + m)
    direction = loci.CartanDirection(np.sort(rng.uniform(0.2, 1.0, r))[::-1])
    params = loci.tangent_conjugate_params(direction, n, m, 1)
    assert r + sum(c.multiplicity for c in params) == 2 * n * m
    tc = loci.cartan_to_tangent(direction, n, m)
    # a pole-clear time; at n != m the e_a roots are in the spectrum too
    t = next(t for t in rng.uniform(0.3, 3.0, 100)
             if np.min(mf.tan_pole_distance(t * direction.h)) > 0.1)
    spectrum = loci.jacobian_spectrum(tc, t)
    assert spectrum.shape == (2 * n * m,)
    assert loci.classify_conjugate(tc, t).jacobian_ratio == spectrum[-1] / spectrum[0]


@pytest.mark.parametrize("n, m", ROOT_SHAPES)
def test_coverage_limit_is_the_first_radius_of_the_next_winding(n, m):
    rng = np.random.default_rng(200 * n + m)
    for k in range(6):
        # full-length directions, and short ones padded with zeros
        r = min(n, m) if k % 2 == 0 else int(rng.integers(1, min(n, m) + 1))
        direction = loci.CartanDirection(np.sort(rng.uniform(0.05, 2.0, r))[::-1])
        for lam in (1, 2, 3):
            want = min(c.t for c in loci.tangent_conjugate_params(direction, n, m, lam + 1)
                       if c.lam == lam + 1)
            assert loci.coverage_limit(direction, n, m, lam) == want
    # a vanishing direction has no radius in any winding
    assert loci.coverage_limit(loci.CartanDirection(np.zeros(1)), n, m) == np.inf
    with pytest.raises(ValueError, match="lambda_max"):
        loci.coverage_limit(direction, n, m, -1)


def test_radius_routes_refuse_non_integer_shapes_and_windings():
    # a float winding cap gave float windings and a coverage limit at 3.5 pi
    # / 1.6; a float steps, n or m died of a TypeError deep in numpy
    d = loci.CartanDirection(np.array([0.8, 0.6]))
    calls = {
        "lambda_max": [lambda: loci.tangent_conjugate_params(d, 2, 2, lambda_max=2.5),
                       lambda: loci.coverage_limit(d, 2, 2, 2.5),
                       lambda: verify.scan_conjugate(d, (1.0, 2.0), 5, 2, 2, lambda_max=1.5)],
        "steps": [lambda: verify.scan_conjugate(d, (1.0, 2.0), 2.5, 2, 2)],
        "n": [lambda: loci.cartan_to_tangent(d, 2.5, 3),
              lambda: loci.tangent_conjugate_params(d, 2.0, 2)],
        "m": [lambda: loci.coverage_limit(d, 2, 3.0)],
    }
    for name, funcs in calls.items():
        for func in funcs:
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                func()
    params = loci.tangent_conjugate_params(d, np.int64(2), np.int32(2), lambda_max=np.int8(2))
    assert [p.lam for p in params] == [p.lam for p in loci.tangent_conjugate_params(d, 2, 2)]
    assert all(type(p.lam) is int for p in params)


def _reference_radii(direction, n, m, lambda_max):
    """The radius rule of tangent_conjugate_params, written out: on h padded
    with zeros to r = min(n, m), per a the pairs over a < b < r, h_a + h_b
    and |h_a - h_b|, then the singles h_a + h_a and, when n != m, h_a; then
    lam pi / den per winding and root with den >= DENOM_TOL, sorted stably
    by time."""
    r = min(n, m)
    h = np.concatenate([direction.h, np.zeros(r - direction.r)])
    roots = []
    for a in range(r):
        for b in range(a + 1, r):
            roots += [("t1plus", a + 1, b + 1, 2, h[a] + h[b]),
                      ("t1minus", a + 1, b + 1, 2, abs(h[a] - h[b]))]
        roots.append(("t2", a + 1, None, 1, h[a] + h[a]))
        if n != m:
            roots.append(("t3", a + 1, None, 2 * abs(m - n), h[a]))
    out = [loci.ConjugateParam(family=fam, p=p, q=q, lam=lam, t=lam * np.pi / den,
                               multiplicity=mult)
           for lam in range(1, lambda_max + 1) for fam, p, q, mult, den in roots
           if den >= loci.DENOM_TOL]
    out.sort(key=lambda c: c.t)
    return out


def _reference_root_table(n, m):
    """The roots of Gr(n, n+m) one Python row (family, a, b, sign,
    multiplicity) at a time, by a, then the r zero weights."""
    r = min(n, m)
    rows = []
    for a in range(r):
        rows += [(fam, a, b, sign, 2) for b in range(a + 1, r)
                 for fam, sign in (("t1plus", 1.0), ("t1minus", -1.0))]
        rows += [("t2", a, a, 1.0, 1)] + [("t3", a, r, 1.0, 2 * abs(m - n))] * (n != m)
    return rows + [("zero", a, a, -1.0, 1) for a in range(r)]


def test_root_table_columns_follow_the_root_rule():
    for n, m in [(n, m) for n in range(1, 9) for m in range(1, 11)] + [(150, 150)]:
        fam, *cols = loci._root_table(n, m)
        want = list(zip(*_reference_root_table(n, m)))
        assert [loci._FAMILIES[f] for f in fam.tolist()] == list(want[0]), (n, m)
        # bit for bit, dtypes included
        for got, ref in zip(cols, map(np.array, want[1:])):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (n, m)
        for col in (fam, *cols):
            assert not col.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                col[0] = col[0]
        assert int(cols[-1].sum()) == 2 * n * m


def _directions(rng, r):
    """Directions for rank r: distinct entries, coincident ones, trailing
    zeros, a short one that pads with zeros, and all zeros."""
    distinct = np.sort(rng.uniform(0.05, 2.0, r))[::-1]
    coincident = np.sort(rng.choice([0.3, 0.7, 1.1], r))[::-1]
    zeros = distinct.copy()
    zeros[int(rng.integers(0, r)):] = 0.0
    short = distinct[:int(rng.integers(1, r + 1))]
    return [loci.CartanDirection(h) for h in (distinct, coincident, zeros, short, np.zeros(r))]


@pytest.mark.parametrize("n, m", ROOT_SHAPES + [(8, 8), (2, 7), (7, 2)])
def test_radii_arrays_follow_the_radius_rule(n, m):
    rng = np.random.default_rng(300 * n + m)
    for direction in _directions(rng, min(n, m)):
        for lambda_max in (1, 2, 3, 4):
            want = _reference_radii(direction, n, m, lambda_max)
            got = loci.tangent_conjugate_params(direction, n, m, lambda_max)
            assert ([(c.family, c.p, c.q, c.lam, c.multiplicity) for c in got]
                    == [(c.family, c.p, c.q, c.lam, c.multiplicity) for c in want])
            # bit for bit, in the same order
            assert np.array([c.t for c in got]).tobytes() == np.array([c.t for c in want]).tobytes()
            t, root, lam = loci._radii(direction, n, m, lambda_max)
            assert t.tolist() == [c.t for c in want] and lam.tolist() == [c.lam for c in want]
            assert [loci._radius_param(n, m, tk, k, lk) for tk, k, lk
                    in zip(t, root.tolist(), lam.tolist())] == got
            # the JSON of conj-params reads Python ints
            assert all(type(c.lam) is int and type(c.p) is int for c in got)
        if not direction.h.any():
            assert got == [] and t.size == root.size == lam.size == 0


@pytest.mark.parametrize("signature", ["compact", "noncompact"])
def test_padded_direction_is_the_svd_of_its_tangent(signature):
    # the scan reads the singular values of the diagonal tangent off the
    # direction; they equal the SVD's bit for bit
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        for m in range(1, 11):
            for direction in _directions(rng, min(n, m)):
                s = kernel.svd(loci.cartan_to_tangent(direction, n, m, signature).b).s
                assert loci._padded(direction, n, m)[:-1].tobytes() == s.tobytes(), (n, m)


def test_direction_validation():
    with pytest.raises(ValueError):
        loci.CartanDirection(np.array([0.3, 0.8]))
    with pytest.raises(ValueError):
        loci.CartanDirection(np.array([0.8, -0.1]))
    # up to half the largest double every root length and cut_time is finite
    top = np.finfo(float).max / 2
    for h in ([top], [top, top], [top, 1.0]):
        d = loci.CartanDirection(np.array(h))
        params = loci.tangent_conjugate_params(d, 2, 3, lambda_max=1)
        assert all(0.0 < p.t < np.inf for p in params) and 0.0 < loci.cut_time(d) < np.inf
    for bad in (np.nextafter(top, np.inf), np.inf, np.nan):
        with pytest.raises(ValueError, match="half the largest double"):
            loci.CartanDirection(np.array([bad]))
    with pytest.raises(ValueError, match="direction has 3 entries but rank is 2"):
        loci.cartan_to_tangent(loci.CartanDirection(np.array([1.0, 0.5, 0.2])), 2, 2)
    # n and m are refused before the direction's length is compared with the rank
    short = loci.CartanDirection(np.array([0.5]))
    for n, m in ((-2, 3), (0, 3), (3, 0), (2, -1)):
        with pytest.raises(ValueError, match=f"need n >= 1 and m >= 1, got n={n}, m={m}"):
            loci.tangent_conjugate_params(short, n, m)
        assert cli.main(["conj-params", "--h", "0.5", "--n", str(n), "--m", str(m)]) == 2


def test_cartan_to_tangent_embeds_diagonal():
    d = loci.CartanDirection(np.array([0.8, 0.6]))
    tc = loci.cartan_to_tangent(d, 2, 3)
    want = np.array([[0.8, 0, 0], [0, 0.6, 0]], dtype=complex)
    assert np.array_equal(tc.b, want)


# ------------------------------------------------------------ the Jacobian

def test_jacobian_collapses_at_radius_and_not_between():
    d = loci.CartanDirection(np.array([0.8, 0.6]))
    tc = loci.cartan_to_tangent(d, 2, 2)
    at_radius = loci.conjugate_test_jacobian(tc, np.pi / 1.4)
    assert at_radius.is_conjugate
    assert at_radius.ratio < 1e-6
    mid = 0.5 * (1.9635 + 2.244)
    between = loci.conjugate_test_jacobian(tc, mid)
    assert not between.is_conjugate
    assert between.ratio > 1e-2


def test_jacobian_scalar_case():
    tc = mf.TangentCoord(np.array([[1.0 + 0j]]))
    for t in (0.3, 0.8, 1.2, 2.0, 2.8):
        assert not loci.conjugate_test_jacobian(tc, t).is_conjugate
    # a full half-turn of the singular value collapses the phase direction
    assert loci.conjugate_test_jacobian(tc, np.pi).is_conjugate


def test_jacobian_refuses_pole_adjacent_times():
    tc = mf.TangentCoord(np.array([[1.0 + 0j]]))
    with pytest.raises(ChartEscapeError):
        loci.conjugate_test_jacobian(tc, np.pi / 2)


def test_noncompact_jacobian_never_collapses():
    rng = np.random.default_rng(44)
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b *= 0.5 / np.linalg.norm(b)
    tc = mf.TangentCoord(b, signature="noncompact")
    for t in (0.5, 1.5, 2.5, 3.0):
        assert loci.conjugate_test_jacobian(tc, t).ratio > 1e-1


def test_saturated_dual_refuses_negative_times_on_every_jacobian_route():
    # the saturation guard reads |t| s: tanh(-30 s) rounds to -1 as
    # tanh(30 s) rounds to 1
    tc = mf.TangentCoord(np.array([[1.0, 0.3]]), signature="noncompact")
    for t in (30.0, -30.0):
        for route in (loci.jacobian_spectrum, loci.classify_conjugate,
                      loci.conjugate_test_jacobian):
            with pytest.raises(DomainError):
                route(tc, t)


def _pointwise_jacobian_svs(tangent, t):
    """Singular values of the central-difference Jacobian of the chart map
    at t B, one exp0 call per stencil point, at the probe's default step."""
    bt = t * tangent.b
    step = 1e-5 * max(1.0, float(np.linalg.norm(bt)))
    x0 = kernel.realvec(bt)

    def chart(x):
        coord = mf.TangentCoord(x.view(np.complex128).reshape(bt.shape), tangent.signature)
        return kernel.realvec(mf.exp0(coord).z)

    jac = np.empty((x0.size, x0.size))
    for j in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += step
        xm[j] -= step
        jac[:, j] = (chart(xp) - chart(xm)) / (2.0 * step)
    return np.linalg.svd(jac, compute_uv=False)


@pytest.mark.parametrize("signature", ["compact", "noncompact"])
@pytest.mark.parametrize("shape, h", [((2, 2), (0.8, 0.6)),
                                      ((3, 5), (0.9, 0.7, 0.3)),
                                      ((4, 6), (1.0, 0.7, 0.4, 0.2))])
def test_stacked_probe_equals_pointwise_stencil(shape, h, signature):
    tc = loci.cartan_to_tangent(loci.CartanDirection(np.array(h)), *shape, signature)
    for t in (0.4, 1.3):
        probe = loci.conjugate_test_jacobian(tc, t)
        svs = _pointwise_jacobian_svs(tc, t)
        assert probe.min_sv == svs[-1]
        assert probe.max_sv == svs[0]
        assert probe.ratio == svs[-1] / svs[0]


def test_stacked_probe_equals_pointwise_stencil_off_diagonal():
    rng = np.random.default_rng(46)
    b = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    tc = mf.TangentCoord(b / np.linalg.norm(b))
    probe = loci.conjugate_test_jacobian(tc, 1.1)
    svs = _pointwise_jacobian_svs(tc, 1.1)
    assert (probe.min_sv, probe.max_sv, probe.ratio) == (svs[-1], svs[0], svs[-1] / svs[0])


def _exp0_stack(b, signature):
    """exp0 of each matrix of a stack, as the finite-difference route maps its stencil."""
    res = kernel.svd(b)
    return res.apply(mf._exp0_values(res, mf._check_signature(signature)))


def test_exp0_stack_refuses_a_member_at_a_tan_pole():
    b = np.zeros((3, 2, 2), dtype=complex)
    b[:, 0, 0] = [0.3, np.pi / 2 + 0.5 * mf.POLE_TOL, 0.7]
    with pytest.raises(ChartEscapeError):
        _exp0_stack(b, "compact")
    b[1, 0, 0] = 0.5
    assert _exp0_stack(b, "compact").shape == (3, 2, 2)


def test_exp0_stack_refuses_a_noncompact_member_outside_the_ball():
    b = np.zeros((3, 2, 3), dtype=complex)
    b[:, 1, 1] = [0.3, 19.5, 1.2]
    assert np.tanh(19.5) == 1.0
    with pytest.raises(DomainError):
        _exp0_stack(b, "noncompact")
    b[1, 1, 1] = 5.0
    assert _exp0_stack(b, "noncompact").shape == (3, 2, 3)


@pytest.mark.parametrize("h, shape, nullity", [((0.8,), (2, 2), 5),
                                               ((0.8, 0.0), (2, 2), 5),
                                               ((0.8,), (2, 3), 7)])
def test_short_direction_multiplicity_matches_jacobian_nullity(h, shape, nullity):
    # implicit zero entries pair with the given ones: e_1 +/- e_2 radii at pi/0.8
    direction = loci.CartanDirection(np.array(h))
    t = np.pi / 0.8
    predicted = sum(c.multiplicity
                    for c in loci.tangent_conjugate_params(direction, *shape)
                    if abs(c.t - t) <= 1e-9 * t)
    svs = _pointwise_jacobian_svs(loci.cartan_to_tangent(direction, *shape), t)
    measured = int(np.count_nonzero(svs < 1e-6 * svs[0]))
    assert measured == nullity
    assert predicted == measured


@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 5), (4, 4),
                                  (4, 6)])
def test_predicted_multiplicity_equals_spectrum_nullity(n, m):
    # every predicted radius short of the winding cap's coverage limit (past
    # it, coincident radii of the next winding are missing from the list);
    # odd-winding t2 radii sit on a tan pole, where the chart has no
    # differential and the spectrum is nan
    rng = np.random.default_rng(10 * n + m)
    tested = 0
    for k in range(8):
        r = min(n, m) if k % 2 == 0 else int(rng.integers(1, min(n, m) + 1))
        direction = loci.CartanDirection(np.sort(rng.uniform(0.2, 1.0, r))[::-1])
        params = loci.tangent_conjugate_params(direction, n, m)
        horizon = loci.coverage_limit(direction, n, m)
        radii = sorted({c.t for c in params if c.t < horizon})
        spectra = loci.jacobian_spectrum(loci.cartan_to_tangent(direction, n, m), radii)
        for t, spectrum in zip(radii, spectra):
            if np.isnan(spectrum).any():
                assert np.min(mf.tan_pole_distance(t * direction.h)) < 1e-3
                continue
            predicted = sum(c.multiplicity for c in params if abs(c.t - t) <= 1e-9 * t)
            assert np.count_nonzero(spectrum < 1e-9 * spectrum[0]) == predicted, (direction.h, t)
            tested += 1
    assert tested >= 8


def test_jacobian_spectrum_matches_the_probe():
    # the probe's extreme ratio from the closed form, on a non-diagonal
    # tangent with a zero row, in both signatures and for a stack of times
    rng = np.random.default_rng(49)
    b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    b[1] = 0.0
    for signature in ("compact", "noncompact"):
        tc = mf.TangentCoord(b / np.linalg.norm(b), signature)
        stack = loci.jacobian_spectrum(tc, [0.7, 1.9])
        assert stack.shape == (2, 24)
        for t, spectrum in zip((0.7, 1.9), stack):
            assert np.array_equal(loci.jacobian_spectrum(tc, t), spectrum)
            probe = loci.conjugate_test_jacobian(tc, t)
            assert spectrum[-1] / spectrum[0] == pytest.approx(probe.ratio, rel=1e-6)
            assert spectrum[0] == pytest.approx(probe.max_sv, rel=1e-6)


def test_jacobian_spectrum_is_nan_where_the_probe_escapes():
    tc = mf.TangentCoord(np.array([[1.0 + 0j]]))
    with pytest.raises(ChartEscapeError):
        loci.conjugate_test_jacobian(tc, np.pi / 2 + 1e-5)
    assert np.isnan(loci.jacobian_spectrum(tc, np.pi / 2 + 1e-5)).all()
    assert np.isnan(loci.classify_conjugate(tc, np.pi / 2 + 1e-5).jacobian_ratio)


# -------------------------------------------------------------- classifier

def test_classify_interior_at_pair_radius():
    d = loci.CartanDirection(np.array([0.8, 0.6]))
    tc = loci.cartan_to_tangent(d, 2, 2)
    verdict = loci.classify_conjugate(tc, np.pi / 1.4)
    assert verdict.label == "interior"
    top = verdict.angles.angles[:2]
    assert top[0] == pytest.approx(top[1], abs=1e-9)
    assert top[0] == pytest.approx(np.pi * 0.6 / 1.4, abs=1e-9)
    assert verdict.jacobian_ratio < 1e-6


def test_classify_wong_at_half_period():
    d = loci.CartanDirection(np.array([0.8, 0.6]))
    tc = loci.cartan_to_tangent(d, 2, 2)
    verdict = loci.classify_conjugate(tc, np.pi / 1.6)
    assert verdict.label == "wong"
    assert verdict.angles.max_angle == pytest.approx(np.pi / 2, abs=1e-9)
    # the chart form has a pole here, so no Jacobian reading is possible
    assert np.isnan(verdict.jacobian_ratio)


def test_classify_wong_when_an_angle_returns_to_zero():
    d = loci.CartanDirection(np.array([0.8, 0.6]))
    tc = loci.cartan_to_tangent(d, 2, 2)
    verdict = loci.classify_conjugate(tc, np.pi / 0.8)
    assert verdict.label == "wong"
    assert verdict.angles.angles[-1] == pytest.approx(0.0, abs=1e-9)


def test_classify_generic_time_is_none():
    d = loci.CartanDirection(np.array([0.8, 0.6]))
    tc = loci.cartan_to_tangent(d, 2, 2)
    assert loci.classify_conjugate(tc, 0.9).label == "none"


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("signature", ["compact", "noncompact"])
def test_time_routes_refuse_nonfinite_times(t, signature):
    # refused before any trig or SVD sees the time, so no RuntimeWarning
    # and no LinAlgError escapes
    tc = loci.cartan_to_tangent(loci.CartanDirection(np.array([0.8, 0.6])), 2, 3, signature)
    for route in (mf.geodesic_chart, mf.geodesic_group, loci.jacobian_spectrum,
                  loci.classify_conjugate, loci.conjugate_test_jacobian):
        with pytest.raises(ValueError, match="times must be finite"):
            route(tc, t)
    with pytest.raises(ValueError, match="times must be finite"):
        loci.jacobian_spectrum(tc, np.array([1.0, t]))


@pytest.mark.parametrize("signature", ["compact", "noncompact"])
def test_time_routes_refuse_overflowing_and_unresolvable_times(signature):
    # t = 1e308 times the velocity's scale overflows: refused before numpy
    # meets the inf, so no RuntimeWarning
    tc = loci.cartan_to_tangent(loci.CartanDirection(np.array([5.0, 3.0])), 2, 3, signature)
    for route in (mf.geodesic_chart, mf.geodesic_group, loci.jacobian_spectrum,
                  loci.classify_conjugate, loci.conjugate_test_jacobian):
        with pytest.raises(ValueError, match="overflows"):
            route(tc, 1e308)
    # at t = 2^40 neighbouring doubles of t h_1 are 1.2e-4 apart, coarser than
    # ANGLE_TOL: refused as the scan refuses such a grid
    tc = loci.cartan_to_tangent(loci.CartanDirection(np.array([0.8, 0.6])), 2, 2, signature)
    for route in (mf.geodesic_chart, mf.geodesic_group, loci.jacobian_spectrum,
                  loci.classify_conjugate, loci.conjugate_test_jacobian):
        for t in (2.0**40, -2.0**40, 1e308):
            with pytest.raises(ValueError, match="too large"):
                route(tc, t)


def test_consistency_error_when_routes_disagree(monkeypatch):
    # force the pairing off the product of the cosines; a nan raises too
    rng = np.random.default_rng(45)
    plane = mf.haar_random_plane(2, 2, rng)
    for forced in (2.0, np.nan):
        monkeypatch.setattr(mf.Plane, "origin_pairing", property(lambda self: forced))
        with pytest.raises(ConsistencyError):
            loci.cut_locus_test(plane)
