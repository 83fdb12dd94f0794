"""Charts, geodesics, angles, and Pluecker machinery for complex Grassmannians.

Points on the Grassmannian of n-planes in C^(n+m) are handled in the affine
chart around the origin plane O = span(e_1 .. e_n): a plane in the chart has
a unique row basis (1_n | Z) with Z an n x m complex matrix.  The signature
tag selects between the compact space and its noncompact dual (the bounded
domain of Z with all singular values below one); every formula and chart
guard reads what differs between them from one _Signature record.

Geodesics through O come in two equivalent forms: the chart form
Z(t) = B ta(t sqrt(B*B)) / sqrt(B*B) with ta = tan or tanh, and the group
form obtained from the one-parameter subgroup acting on O, which never
leaves the manifold and is used whenever the chart form hits a pole.

A Plane runs one thin SVD of its basis: the package's one rank rule reads
its singular values, and its right factor V is the orthonormal frame that
every angle and pairing route reads (Bjorck-Golub): cosines are the singular
values of V1* V2, and the normalized pairing |det V1* V2| is their product.
Records are frozen, own read-only copies of their arrays, checked once when
built, and keep what their routes factor: the SVD of a chart point's or
tangent's matrix, and a plane's cosines and pairing against O.

Each input is checked once, where it enters: a shape (n, m) by _shape, a
record's signature tag when it is built (routes read the _Signature record
it keeps), and a route's one time along a geodesic by _Factored._at.

Records built from kept factors inherit them.  exp at B = U S V* is
U ta(S) V* (Edelman, Arias & Smith 1998), so the SVD of the point exp0
returns is (U sign ta(S), |ta(S)|, V), re-sorted descending, which
SvdResult._mapped builds from the tangent's on first use; log0 and
geodesic_chart's t B do the same with ata and t.  geodesic_group,
haar_random_plane and base_plane build orthonormal rows from a checked
shape, which are their own frame: those planes run no SVD and no rank
test.  Plane(basis) always validates, an n x N basis with 1 <= n < N, and
chart_to_plane keeps its own SVD, independent of the chart point's.

Every factorization (SVD, det, solve, QR) runs in kernel's LAPACK layer,
on numpy's gufuncs: it keeps numpy.linalg's errors and results bit for
bit and drops the per-call conversions of its Python wrappers.
"""

import itertools
import math
import operator
from typing import Callable, Literal

import numpy as np

from . import kernel
from .errors import ChartEscapeError, DomainError, NotInChartError, NumericalFailure

Signature = Literal["compact", "noncompact"]

ANGLE_TOL = 1e-6
POLE_TOL = 1e-9
# bytes of the (C(N, n), n, n) complex stack plucker may build: 45 MB at
# 8x10, 218 MB at 9x11, 1.03 GB at 10x12
PLUCKER_MAX_BYTES = 1 << 28


def tan_pole_distance(s: np.ndarray) -> np.ndarray:
    """Distance from each value to the nearest pole of tan (pi/2 + k pi)."""
    frac = np.mod(np.asarray(s, dtype=float) / np.pi, 1.0)
    return np.abs(frac - 0.5) * np.pi


class _Signature:
    """A signature's name and what it selects (Helgason, Ch. V): eps in
    1 + eps Z Z*, the chart function ta and its inverse ata, the Jacobian's
    sn/cs pair, geodesic_group's (co, si), the fold of t s to its angle, the
    tan pole distance, and whether ta saturates to the boundary: a plain
    slotted class, built in microseconds, read twice as fast as a tuple."""

    __slots__ = ("name", "compact", "eps", "ta", "ata", "sn", "cs", "group", "fold",
                 "pole_distance", "saturates")

    def __init__(self, name: str, compact: bool, eps: float, ta: Callable, ata: Callable,
                 sn: Callable, cs: Callable, group: Callable, fold: Callable,
                 pole_distance: Callable, saturates: Callable):
        self.name, self.compact, self.eps, self.ta, self.ata = name, compact, eps, ta, ata
        self.sn, self.cs, self.group, self.fold = sn, cs, group, fold
        self.pole_distance, self.saturates = pole_distance, saturates


_SIGNATURES = {
    "compact": _Signature(
        "compact", True, 1.0, np.tan, np.arctan, np.sin, np.cos,
        lambda st: (np.cos(st), np.sin(st)), lambda st: np.pi / 2 - tan_pole_distance(st),
        tan_pole_distance, lambda s: np.False_),
    # tanh has no poles; where it rounds to 1 or to the last double below it,
    # a chart image cannot be told from the boundary of the bounded domain
    "noncompact": _Signature(
        "noncompact", False, -1.0, np.tanh, np.arctanh, np.sinh, np.cosh,
        lambda st: np.stack([np.ones_like(st), np.tanh(st)]) / np.hypot(1.0, np.tanh(st)),
        lambda st: np.arctan(np.tanh(st)),
        lambda s: np.full(np.shape(s), np.inf),
        lambda s: np.tanh(s) >= np.nextafter(1.0, 0.0)),
}


def _check_signature(signature: str) -> _Signature:
    """The record of a signature; ValueError unless it is compact or noncompact."""
    if isinstance(signature, str) and signature in _SIGNATURES:
        return _SIGNATURES[signature]
    raise ValueError(f"signature must be 'compact' or 'noncompact', got {signature!r}")


def _shape(n, m) -> tuple[int, int]:
    """The shape (n, m) of Gr(n, n+m) as ints, by kernel.as_index; ValueError
    unless both are at least 1."""
    n, m = kernel.as_index(n, "n"), kernel.as_index(m, "m")
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    return n, m


class _Factored(kernel._FrozenRecord):
    """One n x m matrix, read-only, and the _Signature record of its tag,
    frozen.  The record keeps the SVD of its matrix from first use: factored
    by _svd, or, for a record _inherit built from another's SVD res,
    res._mapped(vals), with no new factorization."""

    __slots__ = ("_matrix", "_sig", "_factors", "_source")
    signature = property(operator.attrgetter("_sig.name"))

    def __init__(self, matrix, signature):
        """Check the matrix, its shape and the signature tag, and own a copy."""
        matrix = kernel.as_complex_matrix(matrix, self._fields[0]).copy()
        _shape(*matrix.shape)
        self._own(matrix, _check_signature(signature), None)

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    def _own(self, matrix, sig, source) -> None:
        """Set the fields once: the matrix read-only, the signature record,
        and the (function, argument) that builds the SVD on first use, or
        None to factor the matrix."""
        matrix.flags.writeable = False
        self._set(_matrix=matrix, _sig=sig, _factors=None, _source=source)

    @classmethod
    def _inherit(cls, res, vals, sig):
        """The record of res.apply(vals), a spectral function of res's matrix."""
        record = cls.__new__(cls)
        record._own(res.apply(vals), sig, (res._mapped, vals))
        return record

    def _svd(self) -> kernel.SvdResult:
        if self._factors is None:
            build, arg = self._source or (kernel._svd, self._matrix)
            self._set(_factors=build(arg), _source=None)
        return self._factors

    def _at(self, t) -> tuple[kernel.SvdResult, np.ndarray]:
        """The kept SVD and t, one time that _resolvable_times accepts, as a 0-d array."""
        res = self._svd()
        ts = _resolvable_times(t, res.s[0])
        if ts.ndim:
            raise ValueError(f"t must be a single time, got an array of shape {ts.shape}")
        return res, ts


class ChartPoint(_Factored):
    """Chart coordinate Z of a plane with row basis (1_n | Z).  DomainError
    for a noncompact point unless every singular value of Z is below 1.
    exp0's point is not factored again: the bound holds for the values
    tanh(S) it keeps, by exp0's saturation guard, though a fresh SVD of its
    rounded matrix can read 1 where tanh(s) is within an ulp or two of 1."""

    __slots__ = ()
    _fields = ("z", "signature")
    z = property(operator.attrgetter("_matrix"))

    def __init__(self, z: np.ndarray, signature: Signature = "compact"):
        _Factored.__init__(self, z, signature)
        if not self._sig.compact and self._svd().s[0] >= 1.0:
            raise DomainError("noncompact chart requires all singular values below 1, "
                              f"got {self._svd().s[0]:.6f}")


class TangentCoord(_Factored):
    """Tangent vector at the origin plane in normal coordinates."""

    __slots__ = ()
    _fields = ("b", "signature")
    b = property(operator.attrgetter("_matrix"))

    def __init__(self, b: np.ndarray, signature: Signature = "compact"):
        _Factored.__init__(self, b, signature)


class Plane(kernel._FrozenRecord):
    """n-plane in C^N given by a row basis (rows span the plane, rank n).

    The thin SVD A = U S V* of the basis that validates the rank is kept as
    frame = V (N x n), the orthonormal row basis V* every angle and pairing
    route reads.  The plane is frozen and owns read-only copies of both
    arrays, so neither can go stale.  Its repr and == read the basis only.
    The validation runs in __post_init__, where a tracer can wrap it.
    """

    __slots__ = ("basis", "frame", "_origin_block")
    _fields = ("basis",)

    def __init__(self, basis: np.ndarray):
        self.__post_init__(basis)

    def __post_init__(self, basis):
        basis = kernel.as_complex_matrix(basis, "basis").copy()
        n, big_n = basis.shape
        if not 1 <= n < big_n:
            raise ValueError(f"need 1 <= n < N for a proper plane, got {n} x {big_n}")
        res = kernel._svd(basis)
        if kernel.numerical_rank(res.s) != n:
            raise ValueError("basis rows are numerically dependent")
        self._keep(basis, res.v)

    def _keep(self, basis, frame) -> None:
        basis.flags.writeable = frame.flags.writeable = False
        self._set(basis=basis, frame=frame, _origin_block=None)

    @classmethod
    def _orthonormal(cls, rows):
        """The plane of n x (n + m) rows the caller made orthonormal, from a
        checked shape, its own frame rows*: no SVD and no rank test.  The
        rows become the plane's own."""
        plane = cls.__new__(cls)
        plane._keep(rows, rows.conj().T)
        return plane

    def _origin(self) -> tuple[np.ndarray, float]:
        """Cosines against O, descending, and origin_pairing, kept from first
        use: the general routes' bits, as LAPACK's frame of O is (1_n | 0)^T."""
        if self._origin_block is None:
            block = self.frame[:self.n].conj().T
            cos = _cosines_of(block, self.big_n)
            cos.flags.writeable = False
            self._set(_origin_block=(cos, _pairing_of(block)))
        return self._origin_block

    @property
    def origin_pairing(self) -> float:
        """cos_cayley_planes against the origin plane O: |det V[:n]|."""
        return self._origin()[1]

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def big_n(self) -> int:
        return self.basis.shape[1]


def _descending_angles(a: np.ndarray) -> np.ndarray:
    """Angles clipped to [0, pi/2] and sorted descending along the last axis."""
    return np.sort(np.minimum(np.maximum(0.0, a), np.pi / 2), axis=-1)[..., ::-1]


class AngleSpectrum(kernel._Record):
    """Stationary (principal) angles between two planes, descending in [0, pi/2]."""

    __slots__ = _fields = ("angles",)

    def __init__(self, angles: np.ndarray):
        self.angles = _descending_angles(np.asarray(angles, dtype=float)).copy()

    @property
    def max_angle(self) -> float:
        return float(self.angles[0])

    def cos_product(self) -> float:
        return float(np.prod(np.cos(self.angles)))


class PluckerVector(kernel._Record):
    """Minor coordinates of a plane over lexicographic column n-tuples."""

    __slots__ = _fields = ("n", "big_n", "indices", "coords")

    def __init__(self, n: int, big_n: int, indices: tuple[tuple[int, ...], ...],
                 coords: np.ndarray):
        self.n, self.big_n, self.indices = n, big_n, indices
        self.coords = np.asarray(coords, dtype=np.complex128)


def base_plane(n: int, m: int) -> Plane:
    """The origin plane O spanned by the first n coordinate vectors.  Its
    rows are orthonormal, and LAPACK's frame of them is (1_n | 0)^T bit for
    bit, so it runs no SVD."""
    n, m = _shape(n, m)
    return Plane._orthonormal(np.eye(n, n + m, dtype=complex))


def hat_basis(point: ChartPoint) -> np.ndarray:
    """Row basis (1_n | Z) of the plane with chart coordinate Z."""
    return np.concatenate([np.eye(point.z.shape[0], dtype=complex), point.z], axis=1)


def chart_to_plane(point: ChartPoint) -> Plane:
    return Plane(hat_basis(point))


def plane_to_chart(plane: Plane) -> ChartPoint:
    """Compact chart coordinate of a plane, when the leading n x n block is
    invertible: has full kernel.rank_tol rank."""
    return ChartPoint(z=_chart_solve(plane.basis))


def _chart_solve(rows: np.ndarray) -> np.ndarray:
    """Z = A_lead^-1 A_trail for an n x N row basis A of the plane (1_n | Z);
    NotInChartError unless A_lead has full kernel.rank_tol rank."""
    n = rows.shape[0]
    lead = rows[:, :n]
    if kernel._rank(lead) != n:
        raise NotInChartError("leading block is singular; plane lies outside the chart")
    return kernel._solve(lead, rows[:, n:])


def _check_pair(zp: ChartPoint, z: ChartPoint) -> None:
    if zp.shape != z.shape:
        raise ValueError(f"shape mismatch: {zp.shape} vs {z.shape}")
    if zp._sig is not z._sig:
        raise ValueError(f"signature mismatch: {zp.signature} vs {z.signature}")


def _fp_guard(where: str) -> np.errstate:
    """np.errstate raising DomainError on an overflow, nan or division by zero in `where`."""
    def fault(err: str, flag: int) -> None:
        raise DomainError(f"floating-point {err} in {where}: entries out of this route's range")
    return np.errstate(call=fault, over="call", invalid="call", divide="call")


def overlap(zp: ChartPoint, z: ChartPoint) -> complex:
    """Unnormalized pairing of two chart points, the first conjugated:
    det(1 + eps Z Zp*), the Gram determinant det((zp_i, z_j)) of their hat
    bases.  DomainError where the product or its determinant overflows."""
    _check_pair(zp, z)
    eps = z._sig.eps
    with _fp_guard("the chart products"):
        return complex(kernel._lapack_det(np.eye(z.shape[0]) + eps * (z.z @ zp.z.conj().T)))


def cos_cayley(zp: ChartPoint, z: ChartPoint) -> float:
    """Normalized overlap in [0, 1] of compact chart points: cos_cayley_planes
    on the SVD frames of their hat bases, with no Plane, so no rank rule."""
    _check_pair(zp, z)
    if not z._sig.compact:
        raise DomainError(
            "the Cayley distance comes from the projective embedding of the "
            "compact space; the noncompact normalized overlap is not a cosine")
    return _pairing_of(kernel._svd(hat_basis(zp)).v.conj().T @ kernel._svd(hat_basis(z)).v)


def cayley_distance(zp: ChartPoint, z: ChartPoint) -> float:
    """arccos of the normalized overlap; lies in [0, pi/2]."""
    return float(np.arccos(cos_cayley(zp, z)))


def cos_cayley_planes(p: Plane, q: Plane) -> float:
    """Normalized pairing of two planes, |det V1* V2| on their frames: the
    product of the cosines of the angles, defined for every pair of planes."""
    if p.basis.shape != q.basis.shape:
        raise ValueError(f"shape mismatch: {p.basis.shape} vs {q.basis.shape}")
    return _pairing_of(p.frame.conj().T @ q.frame)


def stationary_angles_w(zp: ChartPoint, z: ChartPoint) -> AngleSpectrum:
    """Stationary angles from the eigenvalues of the chart product matrix
    W = (1+ZZ*)^-1 (1+ZZp*) (1+ZpZp*)^-1 (1+ZpZ*), whose spectrum is cos^2
    of the angles.  W is similar to the Hermitian G G* with
    G = (1+ZZ*)^-1/2 (1+ZZp*) (1+ZpZp*)^-1/2, so _angles_of reads the
    cosines from G, which exists for every pair of chart points, those on
    each other's cut locus (1 + ZZp* singular) included.  With the kept
    SVD Z = U S V* and U square (n <= m), (1+ZZ*)^-1/2 = U diag(1/hypot(1, s))
    U*, and _angles_of reads U* G Up.  For n > m it reads the complements'
    charts -Z*: V square, the middle factor 1 + Z*Zp, and n - m zero angles.
    DomainError where the middle product overflows, or rounds to a nan.
    """
    _check_pair(zp, z)
    n, m = z.shape
    res, resp = z._svd(), zp._svd()
    with _fp_guard("the chart products"):
        if n <= m:
            g = res.u.conj().T @ (np.eye(n) + z.z @ zp.z.conj().T) @ resp.u
        else:
            g = res.v.conj().T @ (np.eye(m) + z.z.conj().T @ zp.z) @ resp.v
        g = g / np.hypot(1.0, res.s)[:, None] / np.hypot(1.0, resp.s)
        return AngleSpectrum(np.concatenate([_angles_of(g, n + m), np.zeros(n - res.s.size)]))


def stationary_angles_svd(p: Plane, q: Plane) -> AngleSpectrum:
    """Stationary angles as arccos of the singular values of V1* V2 for the
    planes' orthonormal frames (Bjorck-Golub); defined for every pair of
    planes."""
    if p.basis.shape != q.basis.shape:
        raise ValueError(f"plane shape mismatch: {p.basis.shape} vs {q.basis.shape}")
    return AngleSpectrum(_angles_of(p.frame.conj().T @ q.frame, p.big_n))


def _cosines_of(cross: np.ndarray, big_n: int) -> np.ndarray:
    """Cosines of the stationary angles, descending: the singular values of
    the n x n product V1* V2 of orthonormal frames of two n-planes in C^N."""
    cos = np.minimum(kernel._svdvals(cross), 1.0)
    # two n-planes in C^N meet in at least 2n - N dimensions
    cos[:max(0, 2 * cos.size - big_n)] = 1.0
    return cos


def _angles_of(cross: np.ndarray, big_n: int) -> np.ndarray:
    """Angles whose cosines are _cosines_of the cross product of frames."""
    return np.arccos(_cosines_of(cross, big_n))


def _pairing_of(cross: np.ndarray) -> float:
    """|det V1* V2| of orthonormal frames, the cosine product, clipped to 1;
    0 where numpy's det turns a subnormal LU pivot (|det| < 2^(n^2) 2.2e-308) into a nan."""
    with np.errstate(divide="ignore", invalid="ignore"):
        det = float(abs(kernel._lapack_det(cross)))
    return min(det, 1.0) if det == det else 0.0


def exp0(tangent: TangentCoord) -> ChartPoint:
    """Chart coordinate of the geodesic exponential at the origin:
    Z = B ta(sqrt(B*B)) / sqrt(B*B) = U ta(S) V* on the tangent's kept SVD,
    with ta = tan (compact) or tanh (noncompact).  ChartEscapeError within
    1e-9 of a tan pole, where the geodesic passes the polar divisor outside
    the chart, and where a noncompact tanh saturates, so floating point
    cannot place the point inside the domain; geodesic_group reaches both.
    The point inherits (U sign ta(S), |ta(S)|, V) as its SVD.
    """
    res = tangent._svd()
    return ChartPoint._inherit(res, _exp0_values(res, tangent._sig), tangent._sig)


def _exp0_values(res: kernel.SvdResult, sig: _Signature) -> np.ndarray:
    """ta(S) for exp0 from the SVD of a tangent or a (k, n, m) stack:
    ChartEscapeError within 1e-9 of a tan pole or where a tanh saturates."""
    if float(sig.pole_distance(res.s).min()) < POLE_TOL:
        raise ChartEscapeError("geodesic meets the polar divisor (tan pole); use "
                               "geodesic_group (--route group)")
    if sig.saturates(res.s).any():
        raise ChartEscapeError(
            "noncompact chart saturates: tanh of a singular value rounds to 1, "
            "so the image cannot be told from the boundary; use geodesic_group "
            "(--route group)")
    return sig.ta(res.s)


def log0(point: ChartPoint) -> TangentCoord:
    """Inverse of exp0 on the chart: arctan / artanh of the singular values.
    The tangent inherits (U, ata(S), V) as its SVD."""
    res = point._svd()
    return TangentCoord._inherit(res, point._sig.ata(res.s), point._sig)


def _resolvable_times(t, scale: float) -> np.ndarray:
    """The time, or times, as a float array.  ValueError unless every time and
    its product with scale (the velocity's largest singular value) are
    finite, and doubles next to that product lie within ANGLE_TOL (below
    about 2^33): else t B reaches numpy as inf, or the angles are noise."""
    ts = np.asarray(t, dtype=float)
    top = float(np.abs(ts).max(initial=0.0))  # a nan propagates
    if not math.isfinite(top):
        raise ValueError("times must be finite")
    # a product of Python floats overflows to inf without a numpy warning
    reach = top * float(scale)
    if not math.isfinite(reach):
        raise ValueError(f"time {top:g} is too large: its product with the velocity's "
                         f"scale {float(scale):.6g} overflows")
    if math.ulp(reach) > ANGLE_TOL:
        raise ValueError(f"t * h_1 = {reach:.6g} is too large: neighbouring doubles there "
                         f"are {math.ulp(reach):.3g} apart, coarser than the angle "
                         f"threshold {ANGLE_TOL:g}")
    return ts


def geodesic_chart(tangent: TangentCoord, t: float) -> ChartPoint:
    """Geodesic through the origin with initial velocity B, in the chart:
    exp0 of t B, which inherits the tangent's SVD with its values scaled by t."""
    res, t = tangent._at(t)
    return exp0(TangentCoord._inherit(res, t * res.s, tangent._sig))


def geodesic_group(tangent: TangentCoord, t: float) -> Plane:
    """Geodesic through the origin as a plane, via the one-parameter subgroup:
    its first n rows (co(t sqrt(BB*)) | B si(t sqrt(B*B))/sqrt(B*B)), with
    co/si = cos/sin, for every t, poles of the chart form included.  On the
    noncompact dual (co, si) = (1, tanh) / hypot(1, tanh): the rows
    (cosh | sinh) rescaled to unit length, the same plane as the dual never
    leaves the chart.  Unscaled, the rows grow apart like e^(t h) until they
    are numerically dependent.  The rows are orthonormal on both signatures,
    so the plane keeps them as its frame, with no SVD.
    """
    res, t = tangent._at(t)
    co, si = tangent._sig.group(t * res.s)
    n = res.u.shape[0]
    # cos(t sqrt(BB*)) = 1_n + U (co - 1) U*: the orthogonal complement of the
    # column space of B carries co(0) = 1
    left = np.eye(n, dtype=complex) + (res.u * (co - 1.0)) @ res.u.conj().T
    return Plane._orthonormal(np.concatenate([left, res.apply(si)], axis=-1))


def geodesic_residual(tangent: TangentCoord, t: float, step: float = 1e-3) -> float:
    """Frobenius norm of the second-order geodesic equation residual
    Zdd - 2 eps Zd Z* (1 + eps Z Z*)^-1 Zd at time t, with derivatives by
    central differences of half-width step.  It takes one time, through
    tangent._at, as geodesic_chart does."""
    if not 0.0 < step < np.inf:  # a nan fails too
        raise ValueError("step must be positive and finite")
    _, t = tangent._at(t)
    zm = geodesic_chart(tangent, t - step).z
    z0 = geodesic_chart(tangent, t).z
    zp = geodesic_chart(tangent, t + step).z
    zdd = (zp - 2.0 * z0 + zm) / step**2
    zd = (zp - zm) / (2.0 * step)
    eps = tangent._sig.eps
    n = z0.shape[0]
    core = kernel._solve(np.eye(n) + eps * (z0 @ z0.conj().T), zd)
    return float(np.linalg.norm(zdd - 2.0 * eps * (zd @ z0.conj().T) @ core))


def plucker(plane: Plane) -> PluckerVector:
    """All n x n minors of the row basis, over lexicographic column n-tuples.
    ValueError, before anything is allocated, when the stack of the C(N, n)
    blocks would pass PLUCKER_MAX_BYTES; DomainError where a minor overflows,
    or rounds to a nan or a division by zero."""
    n, big_n = plane.basis.shape
    count = math.comb(big_n, n)
    nbytes = count * n * n * np.dtype(complex).itemsize
    if nbytes > PLUCKER_MAX_BYTES:
        raise ValueError(f"plucker: C({big_n}, {n}) = {count} minors need a {nbytes}-byte "
                         f"stack, over the {PLUCKER_MAX_BYTES}-byte cap")
    indices = tuple(itertools.combinations(range(big_n), n))
    cols = np.asarray(indices, dtype=int)
    # det(A[:, c]) = det(A.T[c]) and the stacked form evaluates all minors at once
    with _fp_guard("the Pluecker minors"):
        dets = kernel._lapack_det(plane.basis.T[cols])
    return PluckerVector(n=n, big_n=big_n, indices=indices, coords=dets)


def plucker_pairing(a: PluckerVector, b: PluckerVector) -> complex:
    """Hermitian pairing sum_S a_S conj(b_S) over the common index set: for
    hat bases, the overlap with b's source conjugated."""
    if (a.n, a.big_n) != (b.n, b.big_n):
        raise ValueError(f"incompatible shapes: ({a.n},{a.big_n}) vs ({b.n},{b.big_n})")
    return complex(np.vdot(b.coords, a.coords))


def _rng(seed) -> "np.random.Generator":
    """The generator, or a new one from None or an integer seed >= 0; else ValueError."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is not None and kernel.as_index(seed, "seed") < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def _complex_gaussian(rng: "np.random.Generator", rows: int, cols: int) -> np.ndarray:
    """A rows x cols matrix of independent complex Gaussians, real parts drawn
    first.  Its rows span a Haar-random plane when rows < cols."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_random_plane(n: int, m: int, seed=None) -> Plane:
    """Uniformly random n-plane in C^(n+m): orthonormalized complex Gaussian.
    The QR rows are orthonormal, so the plane keeps them as its frame, with
    no SVD."""
    n, m = _shape(n, m)
    g = _complex_gaussian(_rng(seed), n, n + m)
    q = kernel._qr_q(g.T / np.sqrt(2.0))
    return Plane._orthonormal(q.T.copy())


def haar_random_chart(n: int, m: int, seed=None) -> ChartPoint:
    """Compact chart coordinate of a random plane: Z = G_lead^-1 G_trail from
    the Gaussian rows G that haar_random_plane draws and orthonormalizes,
    with the same generator calls and plane_to_chart's solve and chart test.
    A draw outside the chart is drawn again; NumericalFailure after 64."""
    n, m = _shape(n, m)
    rng = _rng(seed)
    for _ in range(64):
        try:
            return ChartPoint(z=_chart_solve(_complex_gaussian(rng, n, n + m)))
        except NotInChartError:
            continue
    raise NumericalFailure("no chart sample found in 64 tries")


def geodesic_distance0(point: ChartPoint) -> float:
    """Geodesic distance from the origin plane: the Frobenius norm of log0,
    equal to the l2 norm of the stationary angles in the compact case."""
    return float(np.linalg.norm(log0(point).b))
