import numpy as np
import pytest

from grassgeo import kernel, manifold as mf
from grassgeo.errors import NotInChartError, NumericalFailure


def _unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_frozen_trig_values():
    # oracle values for the scalar maps the chart forms are built from
    assert np.tan(np.pi / 6) == pytest.approx(0.5773502691896258, rel=1e-14)
    assert np.tan(np.pi / 3) == pytest.approx(1.7320508075688772, rel=1e-14)
    assert np.tanh(1.0) == pytest.approx(0.7615941559557649, rel=1e-14)
    assert 1.0 / np.cos(1.0) ** 2 == pytest.approx(3.425518820814759, rel=1e-14)


def test_svd_reconstructs_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        res = kernel.svd(a)
        assert np.linalg.norm(res.apply(res.s) - a) < 1e-12 * max(1.0, np.linalg.norm(a))
        assert np.all(res.s[:-1] >= res.s[1:])


def test_herm_eig_two_by_two():
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    vals, vecs = kernel.herm_eig(a)
    assert vals == pytest.approx([3.0, 1.0], abs=1e-12)
    for k in range(2):
        assert np.linalg.norm(a @ vecs[:, k] - vals[k] * vecs[:, k]) < 1e-12


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        kernel.herm_eig(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(ValueError):
        kernel.herm_eig(np.ones((2, 3), dtype=complex))


def test_herm_eig_takes_entries_whose_squares_overflow():
    a = 1e300 * np.array([[2.0, 1j], [-1j, 2.0]])
    vals, _ = kernel.herm_eig(a)
    assert vals == pytest.approx([3e300, 1e300], rel=1e-12)
    with pytest.raises(ValueError, match="not Hermitian"):
        kernel.herm_eig(1e300 * np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))


def _flags_invalid(gufunc):
    """A stand-in that fails as numpy's LAPACK gufuncs report a failure: it
    returns nan in place of each result and raises the floating-point
    invalid flag, which the layer's state turns into an exception."""
    def failed(*args):
        out = gufunc(*args)
        nan = np.divide(0.0, np.zeros(1))  # 0/0 raises the invalid flag
        return tuple(r * nan for r in out) if isinstance(out, tuple) else out * nan
    return failed


def test_svd_nonconvergence_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(kernel, "_lapack_svd_s", _flags_invalid(kernel._lapack_svd_s))
    monkeypatch.setattr(kernel, "_lapack_svd", _flags_invalid(kernel._lapack_svd))
    with pytest.raises(NumericalFailure, match="SVD did not converge"):
        kernel.svd(np.eye(2))
    with pytest.raises(NumericalFailure, match="SVD did not converge"):
        kernel.rank_tol(np.eye(2))


def test_failed_solve_qr_and_eigh_raise_as_numpy_linalg_does(monkeypatch):
    # a singular solve is LAPACK's own failure, not a stand-in's
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        kernel._solve(np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex))
    monkeypatch.setattr(kernel, "_lapack_qr_reduced", _flags_invalid(kernel._lapack_qr_reduced))
    with pytest.raises(np.linalg.LinAlgError, match="while performing QR factorization"):
        kernel._qr_q(np.eye(3, 2, dtype=complex))
    monkeypatch.setattr(kernel, "_lapack_eigh_lo", _flags_invalid(kernel._lapack_eigh_lo))
    with pytest.raises(NumericalFailure, match="eigendecomposition did not converge"):
        kernel.herm_eig(np.eye(2))


_SHAPES = [(1, 1), (1, 3), (2, 2), (3, 1), (3, 5), (5, 3), (4, 4), (7, 16), (8, 10), (10, 8)]


def _inputs(rng, shape, stack):
    """A complex and a real matrix of the shape, or stacks of 3 of them."""
    full = (3, *shape) if stack else shape
    real = rng.standard_normal(full)
    return real + 1j * rng.standard_normal(full), real


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("stack", [False, True])
@pytest.mark.parametrize("shape", _SHAPES)
def test_lapack_layer_matches_numpy_linalg_bit_for_bit(shape, stack):
    rng = np.random.default_rng(sum(shape) + 100 * stack)
    n, m = shape
    for a in _inputs(rng, shape, stack):
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        if a.dtype == complex:
            res = kernel._svd(a)
            for got, want in ((res.u, u), (res.s, s), (res.v, vh.conj().swapaxes(-1, -2))):
                _same_bits(got, want)
        _same_bits(kernel._svdvals(a), np.linalg.svd(a, compute_uv=False))
        square = a[..., :min(n, m), :min(n, m)]
        _same_bits(kernel._lapack_det(square), np.linalg.det(square))
        rhs = a[..., :min(n, m), :]
        _same_bits(kernel._solve(square, rhs), np.linalg.solve(square, rhs))
        if a.dtype == complex and not stack:
            before = a.copy()
            _same_bits(kernel._qr_q(a), np.linalg.qr(a)[0])
            _same_bits(a, before)  # the raw QR ran on the layer's own copy


def test_matrix_phi_identity_function_is_identity():
    # phi = id on the singular values gives back the matrix itself
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    res = kernel.svd(a)
    assert np.linalg.norm(res.apply((lambda s: s)(res.s)) - a) < 1e-13


def _tanh_of(a):
    res = kernel.svd(a)
    return res.apply(np.tanh(res.s))


def test_svd_apply_commutes_with_unitaries():
    # phi(U B V*) = U phi(B) V* pins down that phi only acts on the singular values
    rng = np.random.default_rng(6)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, v = _unitary(rng, 3), _unitary(rng, 3)
    lhs = _tanh_of(u @ b @ v.conj().T)
    rhs = u @ _tanh_of(b) @ v.conj().T
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_as_complex_matrix_validation():
    with pytest.raises(ValueError):
        kernel.as_complex_matrix(np.ones(3), "a")
    with pytest.raises(ValueError):
        kernel.as_complex_matrix(np.array([[np.inf, 0.0]]), "a")
    with pytest.raises(ValueError):
        kernel.as_complex_matrix(np.array([[np.nan + 0j]]), "a")


def test_fd_jacobian_of_tan_chart_at_zero_is_identity():
    def chart(x):
        # rows of interleaved (re, im) coordinates as a (k, 2, 2) complex stack
        res = kernel.svd(np.ascontiguousarray(x).view(np.complex128).reshape(-1, 2, 2))
        return res.apply(np.tan(res.s)).reshape(len(x), -1).view(np.float64)

    jac = kernel.fd_jacobian(chart, np.zeros(8), step=1e-5)
    assert np.linalg.norm(jac - np.eye(8)) < 1e-6


def test_fd_jacobian_linear_map_is_exact():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    jac = kernel.fd_jacobian(lambda x: x @ a.T, np.array([0.3, -0.7]))
    assert np.linalg.norm(jac - a) < 1e-9


def test_fd_jacobian_evaluates_the_stencil_in_one_call():
    x0 = np.array([0.3, -0.7, 1.1])
    step = 1e-3
    calls = []

    def f(x):
        calls.append(x.copy())
        return np.sin(x)

    jac = kernel.fd_jacobian(f, x0, step=step)
    assert len(calls) == 1
    points = calls[0]
    assert points.shape == (6, 3)
    assert np.array_equal(points[:3], x0 + step * np.eye(3))
    assert np.array_equal(points[3:], x0 - step * np.eye(3))
    assert np.allclose(jac, np.diag(np.cos(x0)), atol=1e-6)
    with pytest.raises(ValueError):
        kernel.fd_jacobian(f, x0, step=0.0)


def test_difference_steps_must_be_positive_and_finite():
    tc = mf.TangentCoord(np.array([[0.5, 0.2j], [0.1, 0.3]]))
    for step in (0.0, -1e-3, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            kernel.fd_jacobian(np.sin, np.array([0.3, -0.7]), step=step)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            mf.geodesic_residual(tc, 0.5, step=step)
    assert mf.geodesic_residual(tc, 0.5, step=1e-3) < 1e-4


def test_svd_of_a_stack_matches_each_member():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
    res = kernel.svd(a)
    assert res.u.shape == (5, 3, 3) and res.s.shape == (5, 3) and res.v.shape == (5, 4, 3)
    for k in range(5):
        one = kernel.svd(a[k])
        assert np.array_equal(res.s[k], one.s)
        assert np.array_equal(res.u[k], one.u) and np.array_equal(res.v[k], one.v)
    a[3, 1, 2] = np.nan
    with pytest.raises(ValueError):
        kernel.svd(a)


def test_rank_tol_counts_dominant_directions():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a[3] = a[0] + a[1]
    assert kernel.rank_tol(a) == 3
    assert kernel.rank_tol(np.eye(4, dtype=complex)) == 4
    assert kernel.rank_tol(np.zeros((2, 2), dtype=complex)) == 0


def _with_singular_values(rng, s):
    """An n x n complex matrix with the given singular values."""
    n = len(s)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return (u * np.asarray(s)) @ v.conj().T


def _reference_rank(a):
    """The numerical-rank rule as written inline before rank_tol held it:
    singular values above 1e-9 * max(s_max, 1)."""
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > 1e-9 * max(s[0], 1.0)))


@pytest.mark.parametrize("s_max", [0.5, 1.0, 30.0])
@pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3])
@pytest.mark.parametrize("n", [2, 3])
def test_plane_and_chart_read_rank_through_rank_tol(n, side, s_max):
    # s_min / s_max just below and just above RANK_TOL: Plane acceptance,
    # plane_to_chart's chart test and rank_tol's count must all follow the
    # reference rule, including the absolute floor at s_max below 1
    assert kernel.RANK_TOL == 1e-9
    rng = np.random.default_rng(int(100 * s_max) + n)
    s = np.geomspace(s_max, s_max * 1e-9 * side, n)
    block = _with_singular_values(rng, s)
    basis = np.hstack([block, np.zeros((n, 2))])
    want = _reference_rank(block)
    assert kernel.rank_tol(block) == kernel.rank_tol(basis) == want
    if want == n:
        mf.Plane(basis)
    else:
        with pytest.raises(ValueError, match="numerically dependent"):
            mf.Plane(basis)
    chart_basis = np.hstack([block, np.eye(n)])
    assert kernel.rank_tol(chart_basis) == _reference_rank(chart_basis) == n
    if want == n:
        mf.plane_to_chart(mf.Plane(chart_basis))
    else:
        with pytest.raises(NotInChartError):
            mf.plane_to_chart(mf.Plane(chart_basis))
    # the floor: below s_max = 1 the cutoff is the absolute 1e-9
    assert (want == n) == (s_max >= 1.0 and side > 1.0)


def test_realvec_complexmat_roundtrip():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    v = kernel.realvec(z)
    assert v.shape == (12,)
    assert v[0] == z[0, 0].real and v[1] == z[0, 0].imag


def _mapped_in_general(res, vals):
    """SvdResult._mapped's general path: (u sign(vals), |vals|, v), the
    columns in the stable order of descending |vals|."""
    mag = abs(vals)
    order = (-mag).argsort(kind="stable")
    return kernel.SvdResult(res.u.take(order, 1) * np.copysign(1.0, vals.take(order)),
                            mag.take(order), res.v.take(order, 1))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("label, vals, kept", [
    ("random", np.sort(np.random.default_rng(3).uniform(0.1, 2.0, 3))[::-1], True),
    ("tied", np.array([1.5, 1.5, 0.2]), True),
    ("exactly 0", np.array([0.7, 0.0, 0.0]), True),
    ("-0.0", np.array([0.7, 0.0, -0.0]), False),
    ("ascending", np.array([0.2, 0.5, 0.9]), False),
    ("negative", np.array([0.9, -0.5, 0.1]), False),
])
def test_mapped_keeps_the_factors_where_the_general_path_would_not_move_them(label, vals,
                                                                              kept):
    # values that descend with no sign bit set leave the factors where they
    # are: _mapped keeps them, and they are the general path's bit for bit;
    # a -0.0, an ascending pair or a negative value takes the general path
    rng = np.random.default_rng(17)
    for shape in ((3, 4), (4, 3), (3, 3)):
        res = kernel.svd(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        got, want = res._mapped(vals), _mapped_in_general(res, vals)
        assert (got.u is res.u and got.v is res.v and got.s is vals) == kept, (label, shape)
        for name in ("u", "s", "v"):
            assert _same_bits(getattr(got, name), getattr(want, name)), (label, shape, name)


def test_records_built_on_kept_factors_match_the_general_path():
    # log0, geodesic_chart at t > 0 and compact exp0 below the first pole map
    # values that descend with no sign bit set: their records keep the
    # source's factors, which are the general path's bit for bit
    rng = np.random.default_rng(23)
    for n, m in ((1, 1), (2, 3), (3, 2), (3, 5)):
        k = min(n, m)
        for s in (rng.uniform(0.1, 1.5, k), np.r_[1.2, np.zeros(k - 1)]):
            u = np.linalg.qr(mf._complex_gaussian(rng, n, k))[0]
            v = np.linalg.qr(mf._complex_gaussian(rng, m, k))[0]
            tc = mf.TangentCoord((u * s) @ v.conj().T)
            res = tc._svd()
            scaled = _mapped_in_general(res, 0.7 * res.s)
            point = mf.ChartPoint(mf.exp0(tc).z)
            for label, record, source, want in (
                    ("exp0", mf.exp0(tc), res, _mapped_in_general(res, np.tan(res.s))),
                    ("geodesic_chart", mf.geodesic_chart(tc, 0.7), res,
                     _mapped_in_general(scaled, np.tan(scaled.s))),
                    ("log0", mf.log0(point), point._svd(),
                     _mapped_in_general(point._svd(), np.arctan(point._svd().s)))):
                got = record._svd()
                assert got.u is source.u and got.v is source.v, (label, n, m)
                for name in ("u", "s", "v"):
                    assert _same_bits(getattr(got, name), getattr(want, name)), (label, n, m, name)
