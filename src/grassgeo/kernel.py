"""Dense complex linear-algebra primitives used by the geometry layers.

This module adds the conventions the rest of the package relies on
(descending order, tolerance-based rank, spectral matrix functions of
rectangular matrices, real central-difference Jacobians of complex maps),
and it is the package's one LAPACK layer: every factorization of the
package runs here, on the gufuncs of numpy.linalg._umath_linalg that
numpy.linalg's own svd, det, solve, qr and eigh call, bound once at import
(numpy>=2.0 names them so).  The layer keeps what those wrappers guarantee:
the floating-point state around each call, built once at import and
applied as a decorator, under which LAPACK's invalid
flag raises (NumericalFailure for an SVD or eigendecomposition that did
not converge, LinAlgError for a singular solve or a failed QR), and det
bare, as numpy's is.  It drops what they add per call and the package
does not need: array conversion, the type promotion (inputs are already
complex128, or float64 for the Jacobian, so the gufunc picks its loop
from the dtype), the result casts and the result namedtuple.  The same
LAPACK routines run on the same arrays, so the results are numpy.linalg's
bit for bit.

numerical_rank is the package's one numerical-rank rule and RANK_TOL its
one tolerance; it reads full rank from the smallest singular value alone,
with no array operation, and counts only below full rank.  Each array is
checked once: svd and rank_tol check their input with as_complex_matrix,
and the records, checked when built, factor what they own through the
unchecked cores _svd and _rank, or map the SVD of the record they were
computed from (SvdResult._mapped), which keeps the source's factors
where the values already descend with no sign bit set; Plane validation
applies numerical_rank to the SVD it keeps.  herm_eig has no caller in the
package; it stays public for outside callers and the benchmark's tracer.

_Record is the base of the package's records: plain classes with __slots__
and an explicit __init__, which cost microseconds to create at import where
generated classes cost about a millisecond each.  A frozen record sets
each slot, in its constructor or once from first use, through one setter,
_FrozenRecord._set: object.__setattr__ bound to the record, with no
keyword dict per record.  For the same reason
kernel and manifold, the modules a first exp0 imports, evaluate their
annotations: `from __future__ import annotations` would import __future__,
about 0.3 ms.  manifold's annotations naming np.random are strings, as
evaluating them would import numpy.random.
"""

import operator
from typing import Callable

import numpy as np

from .errors import NumericalFailure

try:
    from numpy.linalg._umath_linalg import (
        det as _lapack_det, eigh_lo as _lapack_eigh_lo, qr_r_raw as _lapack_qr_r_raw,
        qr_reduced as _lapack_qr_reduced, solve as _lapack_solve, svd as _lapack_svd,
        svd_s as _lapack_svd_s)
except ImportError as exc:
    raise ImportError(f"grassgeo needs numpy>=2.0, whose numpy.linalg._umath_linalg has the "
                      f"LAPACK gufuncs kernel binds; numpy {np.__version__}: {exc}") from None

HERMITIAN_RTOL = 1e-10
RANK_TOL = 1e-9


def _lapack_state(error: type, message: str) -> np.errstate:
    """numpy.linalg's floating-point state around a LAPACK gufunc, as a
    decorator: the gufunc flags a failed factorization as an invalid value,
    which raises error(message); overflow, division and underflow pass."""
    def fault(err: str, flag: int) -> None:
        raise error(message)
    return np.errstate(call=fault, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


_svd_state = _lapack_state(NumericalFailure,
                           "SVD did not converge: LAPACK flagged an invalid value")
_eigh_state = _lapack_state(NumericalFailure,
                            "eigendecomposition did not converge: LAPACK flagged an invalid value")
_solve_state = _lapack_state(np.linalg.LinAlgError, "Singular matrix")
_qr_state = _lapack_state(np.linalg.LinAlgError,
                          "Incorrect argument found while performing QR factorization")


class _Record:
    """A record's repr, Name(field=value, ...), and == by its fields, between
    records of one class; each record class lists its fields, a tuple of
    names, in _fields."""

    __slots__ = _fields = ()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, name) for name in self._fields] == [
            getattr(other, name) for name in self._fields]


class _FrozenRecord(_Record):
    """A record that refuses to set or delete any attribute: its constructors,
    and a field kept from first use, set a field by self._set(name, value),
    object.__setattr__ bound to the record, past the refusal."""

    __slots__ = ()
    _set = object.__setattr__

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError  # only when raised
        raise FrozenInstanceError(f"cannot set or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__


def as_index(value, name: str) -> int:
    """The value as an int through operator.index, so numpy integers pass;
    ValueError for a float or any other non-integral value."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class SvdResult(_FrozenRecord):
    """Thin SVD a = u @ diag(s) @ v.conj().T with s descending."""

    __slots__ = _fields = ("u", "s", "v")

    def __init__(self, u, s, v):
        self._set("u", u)
        self._set("s", s)
        self._set("v", v)

    def apply(self, vals: np.ndarray) -> np.ndarray:
        """u @ diag(vals) @ v* over the stack axes: the spectral extension of a
        scalar function to the matrix, given its values at the values s."""
        return (self.u * vals[..., None, :]) @ self.v.conj().swapaxes(-1, -2)

    def _mapped(self, vals: np.ndarray) -> "SvdResult":
        """The SVD of apply(vals), for one matrix, with no new factorization:
        (u sign(vals), |vals|, v), the columns in the stable order of
        descending |vals|.  Where the values descend and none has its sign
        bit set, that is (u, vals, v), kept as it is: a positive last value
        clears the others, else signbit reads each.  On LAPACK's factors the
        two are the same bits; the general path's complex product with +1
        would read as +0.0 a signed zero that an earlier flip of a column's
        sign left in u, and the kept u keeps it."""
        x = vals.tolist()
        if all(map(operator.ge, x, x[1:])) and (x[-1] > 0 or not np.signbit(vals).any()):
            return SvdResult(self.u, vals, self.v)
        mag = abs(vals)
        order = (-mag).argsort(kind="stable")
        return SvdResult(self.u.take(order, 1) * np.copysign(1.0, vals.take(order)),
                         mag.take(order), self.v.take(order, 1))


def as_complex_matrix(a, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """The input as a finite complex128 matrix, or as a stack (..., n, m) of
    them when stacked is set; raises ValueError otherwise."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 and not (stacked and arr.ndim > 2):
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def svd(a) -> SvdResult:
    """Thin singular value decomposition of a complex matrix, or of each
    matrix of a stack (..., n, m) at once; the factors keep the stack axes."""
    return _svd(as_complex_matrix(a, stacked=True))


@_svd_state
def _svd(arr: np.ndarray) -> SvdResult:
    """svd of an array that as_complex_matrix has already checked."""
    u, s, vh = _lapack_svd_s(arr)
    return SvdResult(u, s, vh.conj().swapaxes(-1, -2))


@_svd_state
def _svdvals(arr: np.ndarray) -> np.ndarray:
    """Singular values, descending, of a complex128 or float64 matrix, or of
    each matrix of a stack."""
    return _lapack_svd(arr)


@_solve_state
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for complex128 matrices a (square) and b, or stacks of them;
    LinAlgError where a is singular."""
    return _lapack_solve(a, b)


@_qr_state
def _qr_q(a: np.ndarray) -> np.ndarray:
    """The orthonormal factor Q of the thin QR of a complex128 matrix: the
    raw QR overwrites its argument, so it runs on a copy."""
    raw = a.copy()
    return _lapack_qr_reduced(raw, _lapack_qr_r_raw(raw))


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (values, vectors) with values descending and vectors as columns.
    The input must be Hermitian to relative tolerance 1e-10 in Frobenius norm.
    """
    arr = as_complex_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"herm_eig needs a square matrix, got {arr.shape}")
    # scaled to a largest modulus of 1, neither norm overflows
    unit = arr / max(float(np.abs(arr).max(initial=0.0)), 1e-300)
    defect = np.linalg.norm(unit - unit.conj().T)
    if defect > HERMITIAN_RTOL * np.linalg.norm(unit):
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    vals, vecs = _eigh(arr)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


@_eigh_state
def _eigh(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a Hermitian matrix, from
    its lower triangle."""
    return _lapack_eigh_lo(arr)


def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], x, step: float = 1e-4) -> np.ndarray:
    """Central-difference Jacobian of a real vector map at x.

    J[i, j] = d f_i / d x_j with symmetric differences of half-width step.
    f is called once, on the (2d, d) stack of stencil points (row j is
    x + step e_j, row d + j is x - step e_j), and returns a row per point.
    """
    x0 = np.asarray(x, dtype=float).ravel()
    if not 0.0 < step < np.inf:  # a nan fails too
        raise ValueError("step must be positive and finite")
    d = x0.size
    points = np.tile(x0, (2 * d, 1))
    diag = np.arange(d)
    points[diag, diag] += step
    points[d + diag, diag] -= step
    values = np.asarray(f(points), dtype=float).reshape(2 * d, -1)
    return ((values[:d] - values[d:]) / (2.0 * step)).T


def numerical_rank(s: np.ndarray) -> int:
    """Numerical rank from descending singular values: those above
    RANK_TOL * max(s_max, 1).  As s descends, full rank reads s[-1] alone."""
    if not s.size:
        return 0
    cut = RANK_TOL * max(s.item(0), 1.0)
    return s.size if s.item(-1) > cut else int(np.count_nonzero(s > cut))


def rank_tol(a) -> int:
    """Numerical rank of a matrix by the rule of numerical_rank."""
    return _rank(as_complex_matrix(a))


def _rank(arr: np.ndarray) -> int:
    """rank_tol of an array that as_complex_matrix has already checked."""
    return numerical_rank(_svdvals(arr)) if arr.size else 0


def realvec(z) -> np.ndarray:
    """Flatten a complex matrix into interleaved (re, im) real coordinates."""
    arr = np.ascontiguousarray(z, dtype=np.complex128)
    return arr.ravel().view(np.float64).copy()

