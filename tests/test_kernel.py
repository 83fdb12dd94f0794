import numpy as np
import pytest

from grassgeo import kernel
from grassgeo.errors import DomainError


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
        assert np.linalg.norm(res.reconstruct() - a) < 1e-12 * max(1.0, np.linalg.norm(a))
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


def test_matrix_phi_identity_function_is_identity():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert np.linalg.norm(kernel.matrix_phi(a, lambda s: s) - a) < 1e-13


def test_matrix_phi_commutes_with_unitaries():
    # phi(U B V*) = U phi(B) V* pins down that phi only acts on the singular values
    rng = np.random.default_rng(6)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, v = _unitary(rng, 3), _unitary(rng, 3)
    lhs = kernel.matrix_phi(u @ b @ v.conj().T, np.tanh)
    rhs = u @ kernel.matrix_phi(b, np.tanh) @ v.conj().T
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_matrix_phi_rejects_nonfinite_values():
    with pytest.raises(DomainError):
        kernel.matrix_phi(np.array([[2.0 + 0j]]), np.arctanh)


def test_as_complex_matrix_validation():
    with pytest.raises(ValueError):
        kernel.as_complex_matrix(np.ones(3), "a")
    with pytest.raises(ValueError):
        kernel.as_complex_matrix(np.array([[np.inf, 0.0]]), "a")
    with pytest.raises(ValueError):
        kernel.as_complex_matrix(np.array([[np.nan + 0j]]), "a")


def test_fd_jacobian_of_tan_chart_at_zero_is_identity():
    def chart(x):
        return np.stack([kernel.realvec(kernel.matrix_phi(kernel.complexmat(row, (2, 2)), np.tan))
                         for row in x])

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


def test_realvec_complexmat_roundtrip():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    v = kernel.realvec(z)
    assert v.shape == (12,)
    assert v[0] == z[0, 0].real and v[1] == z[0, 0].imag
    assert np.array_equal(kernel.complexmat(v, (2, 3)), z)
