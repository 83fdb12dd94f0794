"""Dense complex linear-algebra primitives used by the geometry layers.

Factorizations are delegated to LAPACK through numpy.linalg; this module
adds the conventions the rest of the package relies on (descending order,
tolerance-based rank, spectral matrix functions of rectangular matrices,
real central-difference Jacobians of complex maps).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalFailure

HERMITIAN_RTOL = 1e-10


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD a = u @ diag(s) @ v.conj().T with s descending."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.conj().T


def as_complex_matrix(a, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """The input as a finite complex128 matrix, or as a stack (..., n, m) of
    them when stacked is set; raises ValueError otherwise."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 and not (stacked and arr.ndim > 2):
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def svd(a) -> SvdResult:
    """Thin singular value decomposition of a complex matrix, or of each
    matrix of a stack (..., n, m) at once; the factors keep the stack axes."""
    arr = as_complex_matrix(a, stacked=True)
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    return SvdResult(u=u, s=s, v=vh.conj().swapaxes(-1, -2))


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (values, vectors) with values descending and vectors as columns.
    The input must be Hermitian to relative tolerance 1e-10 in Frobenius norm.
    """
    arr = as_complex_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"herm_eig needs a square matrix, got {arr.shape}")
    defect = np.linalg.norm(arr - arr.conj().T)
    if defect > HERMITIAN_RTOL * max(np.linalg.norm(arr), 1e-300):
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    try:
        vals, vecs = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition did not converge: {exc}") from exc
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def matrix_phi(b, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to the singular values of b.

    For b = u @ diag(s) @ v* returns u @ diag(f(s)) @ v*, the standard
    spectral extension of f to rectangular matrices; the removable 0/0 at
    vanishing singular values is resolved by evaluating f at 0 directly.
    Non-finite f(s) values (poles of f inside the spectrum) raise DomainError.
    """
    res = svd(b)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        vals = np.asarray(f(res.s), dtype=float)
    if vals.shape != res.s.shape:
        raise ValueError("f must map the singular value vector elementwise")
    if not np.all(np.isfinite(vals)):
        bad = res.s[~np.isfinite(vals)]
        raise DomainError(f"scalar function is singular at singular value(s) {bad}")
    return (res.u * vals) @ res.v.conj().T


def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], x, step: float = 1e-4) -> np.ndarray:
    """Central-difference Jacobian of a real vector map at x.

    J[i, j] = d f_i / d x_j with symmetric differences of half-width step.
    f is called once, on the (2d, d) stack of stencil points: row j is
    x + step e_j and row d + j is x - step e_j.  It must return one value
    row per point.
    """
    x0 = np.asarray(x, dtype=float).ravel()
    if step <= 0:
        raise ValueError("step must be positive")
    d = x0.size
    points = np.tile(x0, (2 * d, 1))
    diag = np.arange(d)
    points[diag, diag] += step
    points[d + diag, diag] -= step
    values = np.asarray(f(points), dtype=float).reshape(2 * d, -1)
    return ((values[:d] - values[d:]) / (2.0 * step)).T


def rank_tol(a, tol: float = 1e-9) -> int:
    """Numerical rank: singular values above tol * max(s_max, 1)."""
    arr = as_complex_matrix(a)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    cutoff = tol * max(float(s[0]) if s.size else 0.0, 1.0)
    return int(np.count_nonzero(s > cutoff))


def realvec(z) -> np.ndarray:
    """Flatten a complex matrix into interleaved (re, im) real coordinates."""
    arr = np.ascontiguousarray(z, dtype=np.complex128)
    return arr.ravel().view(np.float64).copy()


def complexmat(v, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of realvec for the given matrix shape."""
    arr = np.ascontiguousarray(v, dtype=np.float64)
    if arr.size != 2 * shape[0] * shape[1]:
        raise ValueError(f"expected {2 * shape[0] * shape[1]} reals for shape {shape}")
    return arr.view(np.complex128).reshape(shape).copy()
