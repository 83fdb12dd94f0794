import numpy as np
import pytest

from grassgeo import kernel, loci, manifold as mf
from grassgeo.errors import ChartEscapeError, ConsistencyError, DomainError


def _cut_plane(rng, n, m):
    rows = mf.hat_basis(mf.haar_random_chart(n, m, rng))
    w = np.zeros(n + m, dtype=complex)
    w[n:] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    rows[n - 1] = w / np.linalg.norm(w)
    return mf.Plane(rows)


# ------------------------------------------------------------ symbols, flags

def test_symbol_validation():
    loci.SchubertSymbol(w=(0, 1, 1), m=2)
    with pytest.raises(ValueError):
        loci.SchubertSymbol(w=(1, 0), m=2)
    with pytest.raises(ValueError):
        loci.SchubertSymbol(w=(0, 3), m=2)
    with pytest.raises(ValueError):
        loci.SchubertSymbol(w=(), m=2)


def test_symbol_codimension():
    assert loci.SchubertSymbol(w=(2, 2), m=2).codimension() == 0
    assert loci.SchubertSymbol(w=(0, 1), m=2).codimension() == 3


def test_jumps_examples():
    assert loci.jumps(loci.SchubertSymbol(w=(0, 1, 1), m=2)) == (1, 3)
    assert loci.jumps(loci.SchubertSymbol(w=(2, 2), m=2)) == (2,)
    assert loci.jumps(loci.SchubertSymbol(w=(0, 1, 2), m=2)) == (1, 2, 3)


def test_v_pl_symbols():
    assert loci.v_pl_symbol(2, 1, 2, 2).w == (1, 2)
    assert loci.v_pl_symbol(3, 2, 2, 2).w == (1, 1)
    assert loci.v_pl_symbol(2, 1, 2, 2).w == loci.cut_locus_symbol(2, 2).w
    with pytest.raises(ValueError):
        loci.v_pl_symbol(5, 1, 2, 2)


def test_flag_orders():
    sym = loci.SchubertSymbol(w=(1, 2), m=2)
    assert loci.flag_order(sym, "standard") == (0, 1, 2, 3)
    assert loci.flag_order(sym, "perp") == (2, 3, 0, 1)
    assert loci.flag_order(sym, "chart") == (2, 0, 3, 1)
    with pytest.raises(ValueError):
        loci.flag_order(sym, "random")


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
        verdict = loci.cut_locus_test(_cut_plane(rng, 2, 2))
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
        plane = _cut_plane(rng, n, m) if k % 2 == 0 else mf.haar_random_plane(n, m, rng)
        minors = mf.plucker(plane)
        explicit = abs(mf.plucker_pairing(minors, origin)) / np.linalg.norm(minors.coords)
        assert loci.cut_locus_test(plane).pairing_abs == pytest.approx(explicit, rel=1e-12)


def test_cut_routes_agree_with_schubert_and_cayley():
    rng = np.random.default_rng(43)
    sym = loci.cut_locus_symbol(2, 3)
    for k in range(20):
        plane = _cut_plane(rng, 2, 3) if k % 2 == 0 else mf.haar_random_plane(2, 3, rng)
        expect = loci.cut_locus_test(plane).in_locus
        assert loci.cayley_cut_check(plane) == expect
        assert loci.schubert_membership(plane, sym, flag="perp") == expect


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


def test_direction_validation():
    with pytest.raises(ValueError):
        loci.CartanDirection(np.array([0.3, 0.8]))
    with pytest.raises(ValueError):
        loci.CartanDirection(np.array([0.8, -0.1]))
    with pytest.raises(ValueError):
        loci.cartan_to_tangent(loci.CartanDirection(np.array([1.0, 0.5, 0.2])), 2, 2)


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


def _pointwise_jacobian_svs(tangent, t):
    """Singular values of the central-difference Jacobian of the chart map
    at t B, one exp0 call per stencil point, at the probe's default step."""
    bt = t * tangent.b
    step = 1e-5 * max(1.0, float(np.linalg.norm(bt)))
    x0 = kernel.realvec(bt)

    def chart(x):
        coord = mf.TangentCoord(kernel.complexmat(x, bt.shape), tangent.signature)
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


def test_exp0_stack_refuses_a_member_at_a_tan_pole():
    b = np.zeros((3, 2, 2), dtype=complex)
    b[:, 0, 0] = [0.3, np.pi / 2 + 0.5 * mf.POLE_TOL, 0.7]
    with pytest.raises(ChartEscapeError):
        mf._exp0_stack(b, "compact")
    b[1, 0, 0] = 0.5
    assert mf._exp0_stack(b, "compact").shape == (3, 2, 2)


def test_exp0_stack_refuses_a_noncompact_member_outside_the_ball():
    b = np.zeros((3, 2, 3), dtype=complex)
    b[:, 1, 1] = [0.3, 19.5, 1.2]
    assert np.tanh(19.5) == 1.0
    with pytest.raises(DomainError):
        mf._exp0_stack(b, "noncompact")
    b[1, 1, 1] = 5.0
    assert mf._exp0_stack(b, "noncompact").shape == (3, 2, 3)


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
    assert np.array_equal(verdict.plane.basis, mf.geodesic_group(tc, np.pi / 1.4).basis)
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


def test_consistency_error_when_routes_disagree(monkeypatch):
    # force the disagreement path with an absurd angle tolerance
    rng = np.random.default_rng(45)
    plane = mf.haar_random_plane(2, 2, rng)
    monkeypatch.setattr(loci, "ANGLE_TOL", np.pi / 2)
    with pytest.raises(ConsistencyError):
        loci.cut_locus_test(plane)
