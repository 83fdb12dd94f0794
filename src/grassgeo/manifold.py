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
"""
from __future__ import annotations

import itertools
import math
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
    """What a signature selects (Helgason, Ch. V): the eps of 1 + eps Z Z*, the
    chart's spectral function ta and its inverse ata, the sn/cs pair of the
    Jacobian spectrum, geodesic_group's (co, si), the fold of t s to its
    angle, the tan pole distance, and whether ta saturates to the boundary.
    A plain slotted class: created at import in microseconds, and its slots
    read in about half the time of a named tuple's fields."""

    __slots__ = ("compact", "eps", "ta", "ata", "sn", "cs", "group", "fold",
                 "pole_distance", "saturates")

    def __init__(self, compact: bool, eps: float, ta: Callable, ata: Callable, sn: Callable,
                 cs: Callable, group: Callable, fold: Callable, pole_distance: Callable,
                 saturates: Callable):
        self.compact, self.eps, self.ta, self.ata, self.sn = compact, eps, ta, ata, sn
        self.cs, self.group, self.fold = cs, group, fold
        self.pole_distance, self.saturates = pole_distance, saturates


_SIGNATURES = {
    "compact": _Signature(
        True, 1.0, np.tan, np.arctan, np.sin, np.cos, lambda st: (np.cos(st), np.sin(st)),
        lambda st: np.pi / 2 - tan_pole_distance(st), tan_pole_distance,
        lambda s: np.False_),
    # tanh has no poles; where it rounds to 1 or to the last double below it,
    # a chart image cannot be told from the boundary of the bounded domain
    "noncompact": _Signature(
        False, -1.0, np.tanh, np.arctanh, np.sinh, np.cosh,
        lambda st: (np.ones_like(st), np.tanh(st)), lambda st: np.arctan(np.tanh(st)),
        lambda s: np.full(np.shape(s), np.inf),
        lambda s: np.tanh(s) >= np.nextafter(1.0, 0.0)),
}


def _check_signature(signature: str) -> _Signature:
    """The record of a signature; ValueError unless it is compact or noncompact."""
    if isinstance(signature, str) and signature in _SIGNATURES:
        return _SIGNATURES[signature]
    raise ValueError(f"signature must be 'compact' or 'noncompact', got {signature!r}")


def _check_ball(z: np.ndarray) -> None:
    """DomainError unless every singular value of z lies below 1: the
    noncompact chart's bounded domain."""
    smax = float(np.max(np.linalg.svd(z, compute_uv=False))) if z.size else 0.0
    if smax >= 1.0:
        raise DomainError(
            f"noncompact chart requires all singular values below 1, got {smax:.6f}")


class ChartPoint(kernel._Record):
    """Chart coordinate Z of a plane with row basis (1_n | Z)."""

    __slots__ = _fields = ("z", "signature")

    def __init__(self, z: np.ndarray, signature: Signature = "compact"):
        self.z = kernel.as_complex_matrix(z, "z")
        self.signature = signature
        if not _check_signature(signature).compact:
            _check_ball(self.z)

    @property
    def shape(self) -> tuple[int, int]:
        return self.z.shape


class TangentCoord(kernel._Record):
    """Tangent vector at the origin plane in normal coordinates."""

    __slots__ = _fields = ("b", "signature")

    def __init__(self, b: np.ndarray, signature: Signature = "compact"):
        self.b = kernel.as_complex_matrix(b, "b")
        self.signature = signature
        _check_signature(signature)

    @property
    def shape(self) -> tuple[int, int]:
        return self.b.shape


class Plane(kernel._FrozenRecord):
    """n-plane in C^N given by a row basis (rows span the plane, rank n).

    The thin SVD A = U S V* of the basis that validates the rank is kept as
    frame = V (N x n): V* is an orthonormal row basis of the plane, and every
    angle and pairing route reads it.  The plane is frozen and both arrays
    are read-only, so neither can go stale through the plane.  Its repr and
    == read the basis only.  The validation runs in __post_init__, looked up
    on the class, where a tracer can wrap it.
    """

    __slots__ = ("basis", "frame")
    _fields = ("basis",)

    def __init__(self, basis: np.ndarray):
        self.__post_init__(basis)

    def __post_init__(self, basis):
        basis = kernel.as_complex_matrix(basis, "basis").view()
        n, big_n = basis.shape
        if not 1 <= n < big_n:
            raise ValueError(f"need 1 <= n < N for a proper plane, got {n} x {big_n}")
        res = kernel.svd(basis)
        if kernel.numerical_rank(res.s) != n:
            raise ValueError("basis rows are numerically dependent")
        basis.flags.writeable = res.v.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "frame", res.v)

    @property
    def origin_pairing(self) -> float:
        """cos_cayley_planes against the origin plane O, read from the
        leading n rows of the frame: |det V[:n]|.  The same number, since
        LAPACK's frame of O is exactly (1_n | 0)^T, so V* times it is
        exactly V[:n]*."""
        return _pairing_of(self.frame[:self.n].conj().T)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def big_n(self) -> int:
        return self.basis.shape[1]


def _descending_angles(a: np.ndarray) -> np.ndarray:
    """Angles clipped to [0, pi/2] and sorted descending along the last axis."""
    return np.sort(np.clip(a, 0.0, np.pi / 2), axis=-1)[..., ::-1]


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
    """The origin plane O spanned by the first n coordinate vectors."""
    return Plane(np.hstack([np.eye(n), np.zeros((n, m))]).astype(complex))


def hat_basis(point: ChartPoint) -> np.ndarray:
    """Row basis (1_n | Z) of the plane with chart coordinate Z."""
    n = point.z.shape[0]
    return np.hstack([np.eye(n, dtype=complex), point.z])


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
    if kernel.rank_tol(lead) != n:
        raise NotInChartError("leading block is singular; plane lies outside the chart")
    return np.linalg.solve(lead, rows[:, n:])


def _check_pair(zp: ChartPoint, z: ChartPoint) -> None:
    if zp.shape != z.shape:
        raise ValueError(f"shape mismatch: {zp.shape} vs {z.shape}")
    if zp.signature != z.signature:
        raise ValueError(f"signature mismatch: {zp.signature} vs {z.signature}")


def _fp_guard(where: str) -> np.errstate:
    """np.errstate raising DomainError on an overflow, nan or division by zero in `where`."""
    def fault(err: str, flag: int) -> None:
        raise DomainError(f"floating-point {err} in {where}: entries out of this route's range")
    return np.errstate(call=fault, over="call", invalid="call", divide="call")


def overlap(zp: ChartPoint, z: ChartPoint) -> complex:
    """Unnormalized pairing of two chart points; the first argument is conjugated.

    Compact: det(1 + Z Zp*).  Noncompact: det(1 - Z Zp*).  For hat bases this
    is the Gram determinant det((zp_i, z_j)) of the two row families.
    DomainError where the product or its determinant overflows.
    """
    _check_pair(zp, z)
    eps = _check_signature(z.signature).eps
    with _fp_guard("the chart products"):
        return complex(np.linalg.det(np.eye(z.shape[0]) + eps * (z.z @ zp.z.conj().T)))


def cos_cayley(zp: ChartPoint, z: ChartPoint) -> float:
    """Normalized overlap magnitude in [0, 1] for compact chart points:
    cos_cayley_planes on the SVD frames of their hat bases, with no Plane
    built, so no rank rule refuses a large Z."""
    _check_pair(zp, z)
    if not _check_signature(z.signature).compact:
        raise DomainError(
            "the Cayley distance comes from the projective embedding of the "
            "compact space; the noncompact normalized overlap is not a cosine")
    return _pairing_of(kernel.svd(hat_basis(zp)).v.conj().T @ kernel.svd(hat_basis(z)).v)


def cayley_distance(zp: ChartPoint, z: ChartPoint) -> float:
    """arccos of the normalized overlap; lies in [0, pi/2]."""
    return float(np.arccos(np.clip(cos_cayley(zp, z), 0.0, 1.0)))


def cos_cayley_planes(p: Plane, q: Plane) -> float:
    """Normalized pairing of two planes, |det V1* V2| on their frames.

    Equals the product of the cosines of the stationary angles, so it is
    defined for every pair of planes, including ones outside the chart.
    """
    if p.basis.shape != q.basis.shape:
        raise ValueError(f"shape mismatch: {p.basis.shape} vs {q.basis.shape}")
    return _pairing_of(p.frame.conj().T @ q.frame)


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """Each row of a basis scaled to a largest modulus of 1: the same plane,
    on the scale of unit vectors.  (A row norm would overflow from entries
    of about 1e154.)"""
    return a / np.abs(a).max(axis=1, keepdims=True)


def stationary_angles_w(zp: ChartPoint, z: ChartPoint) -> AngleSpectrum:
    """Stationary angles from the eigenvalues of the chart product matrix
    W = (1+ZZ*)^-1 (1+ZZp*) (1+ZpZp*)^-1 (1+ZpZ*), whose spectrum is cos^2
    of the angles.  W is similar to the Hermitian G G* with
    G = (1+ZZ*)^-1/2 (1+ZZp*) (1+ZpZp*)^-1/2, so _angles_of reads the
    cosines from G, which exists for every pair of chart points, those on
    each other's cut locus (1 + ZZp* singular) included.  DomainError where a
    chart product overflows, or rounds to a nan or a division by zero.
    """
    _check_pair(zp, z)
    n = z.shape[0]
    with _fp_guard("the chart products"):
        inv_sqrt_a = _inv_sqrt_gram(np.eye(n) + z.z @ z.z.conj().T)
        inv_sqrt_ap = _inv_sqrt_gram(np.eye(n) + zp.z @ zp.z.conj().T)
        g = inv_sqrt_a @ (np.eye(n) + z.z @ zp.z.conj().T) @ inv_sqrt_ap
        return AngleSpectrum(_angles_of(g, n + z.shape[1]))


def _inv_sqrt_gram(a: np.ndarray) -> np.ndarray:
    vals, vecs = kernel.herm_eig(a)
    return kernel.SvdResult(vecs, vals, vecs).apply(1.0 / np.sqrt(vals))


def stationary_angles_svd(p: Plane, q: Plane) -> AngleSpectrum:
    """Stationary angles as arccos of the singular values of V1* V2 for the
    planes' orthonormal frames (Bjorck-Golub); defined for every pair of
    planes."""
    if p.big_n != q.big_n or p.n != q.n:
        raise ValueError(f"plane shape mismatch: {p.basis.shape} vs {q.basis.shape}")
    return AngleSpectrum(_angles_of(p.frame.conj().T @ q.frame, p.big_n))


def _cosines_of(cross: np.ndarray, big_n: int) -> np.ndarray:
    """Cosines of the stationary angles, descending: the singular values of
    the n x n product V1* V2 of orthonormal frames of two n-planes in C^N."""
    n = cross.shape[-1]
    cos = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
    # two n-planes in C^N meet in at least 2n - N dimensions
    cos[:max(0, 2 * n - big_n)] = 1.0
    return cos


def _angles_of(cross: np.ndarray, big_n: int) -> np.ndarray:
    """Angles whose cosines are _cosines_of the cross product of frames."""
    return np.arccos(_cosines_of(cross, big_n))


def _pairing_of(cross: np.ndarray) -> float:
    """|det V1* V2| of the n x n product of orthonormal frames: the product of
    the cosines of the stationary angles, clipped to 1.  Read as 0 where numpy's
    det turns a subnormal LU pivot into a nan, as |det| < 2^(n^2) * 2.2e-308."""
    with np.errstate(divide="ignore", invalid="ignore"):
        det = float(abs(np.linalg.det(cross)))
    return min(det, 1.0) if det == det else 0.0


def exp0(tangent: TangentCoord) -> ChartPoint:
    """Chart coordinate of the geodesic exponential at the origin.

    Z = B ta(sqrt(B*B)) / sqrt(B*B) evaluated through the SVD of B, with
    ta = tan (compact) or tanh (noncompact).  Compact input whose singular
    values sit within 1e-9 of a tan pole raises ChartEscapeError: the
    geodesic is passing through the polar divisor, outside the chart.
    Noncompact input whose tanh saturates raises ChartEscapeError as well:
    the point lies in the chart, but floating point cannot place it inside
    the domain.  geodesic_group reaches both.  This is _exp0_stack on a
    stack of one.
    """
    z = _exp0_stack(tangent.b[None], tangent.signature)[0]
    return ChartPoint(z=z, signature=tangent.signature)


def _exp0_stack(b: np.ndarray, signature: Signature) -> np.ndarray:
    """exp0 of each matrix of a (k, n, m) stack of tangents, as a (k, n, m)
    stack of chart coordinates, with one stacked SVD.

    Every member gets the checks of exp0: finite entries, ChartEscapeError
    within 1e-9 of a tan pole (compact), and ChartEscapeError where tanh of
    a singular value saturates (noncompact).
    """
    sig = _check_signature(signature)
    res = kernel.svd(b)
    if res.s.size and float(sig.pole_distance(res.s).min()) < POLE_TOL:
        raise ChartEscapeError("geodesic meets the polar divisor (tan pole); use "
                               "geodesic_group (--route group)")
    if sig.saturates(res.s).any():
        raise ChartEscapeError(
            "noncompact chart saturates: tanh of a singular value rounds to 1, "
            "so the image cannot be told from the boundary; use geodesic_group "
            "(--route group)")
    return res.apply(sig.ta(res.s))


def log0(point: ChartPoint) -> TangentCoord:
    """Inverse of exp0 on the chart: arctan / artanh of the singular values."""
    sig = _check_signature(point.signature)
    res = kernel.svd(point.z)
    if not sig.compact and res.s.size and float(res.s[0]) >= 1.0:
        raise DomainError("noncompact log needs all singular values below 1")
    return TangentCoord(b=res.apply(sig.ata(res.s)), signature=point.signature)


def _resolvable_times(t, scale: float) -> np.ndarray:
    """The time, or times, as a float array.  ValueError unless every time is
    finite, and so is its product with scale (the velocity's largest
    singular value), and neighbouring doubles of that product lie within
    ANGLE_TOL, below about 2^33: else t B reaches numpy as inf, or points
    and angles are noise."""
    ts = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValueError("times must be finite")
    # a product of Python floats overflows to inf without a numpy warning
    top = float(np.max(np.abs(ts), initial=0.0))
    reach = top * float(scale)
    if not np.isfinite(reach):
        raise ValueError(f"time {top:g} is too large: its product with the velocity's "
                         f"scale {float(scale):.6g} overflows")
    if np.spacing(reach) > ANGLE_TOL:
        raise ValueError(f"t * h_1 = {reach:.6g} is too large: neighbouring doubles there "
                         f"are {np.spacing(reach):.3g} apart, coarser than the angle "
                         f"threshold {ANGLE_TOL:g}")
    return ts


def geodesic_chart(tangent: TangentCoord, t: float) -> ChartPoint:
    """Geodesic through the origin with initial velocity B, in the chart."""
    ts = _resolvable_times(t, kernel.svd(tangent.b).s[0])
    return exp0(TangentCoord(b=ts * tangent.b, signature=tangent.signature))


def geodesic_group(tangent: TangentCoord, t: float) -> Plane:
    """Geodesic through the origin as a plane, via the one-parameter subgroup.

    The first n rows of the subgroup element give the basis
    (co(t sqrt(BB*)) | B si(t sqrt(B*B))/sqrt(B*B)) with the circular pair
    co/si = cos/sin.  Defined for every t, including parameters where the
    chart form has a pole.  For the noncompact dual, co = 1 and si = tanh:
    the hyperbolic basis (cosh | sinh) with its rows rescaled by sech, which
    spans the same plane because the dual never leaves the chart.  Unscaled,
    the rows grow apart like e^(t h) until they are numerically dependent.
    """
    res = kernel.svd(tangent.b)
    co, si = _check_signature(tangent.signature).group(_resolvable_times(t, res.s[0]) * res.s)
    n = res.u.shape[0]
    # cos(t sqrt(BB*)) = 1_n + U (co - 1) U*: the orthogonal complement of the
    # column space of B carries co(0) = 1
    left = np.eye(n, dtype=complex) + (res.u * (co - 1.0)) @ res.u.conj().T
    return Plane(np.concatenate([left, res.apply(si)], axis=-1))


def geodesic_residual(tangent: TangentCoord, t: float, step: float = 1e-3) -> float:
    """Frobenius norm of the second-order geodesic equation residual
    Zdd - 2 eps Zd Z* (1 + eps Z Z*)^-1 Zd at time t, with derivatives by
    central differences of half-width step."""
    if step <= 0:
        raise ValueError("step must be positive")
    zm = geodesic_chart(tangent, t - step).z
    z0 = geodesic_chart(tangent, t).z
    zp = geodesic_chart(tangent, t + step).z
    zdd = (zp - 2.0 * z0 + zm) / step**2
    zd = (zp - zm) / (2.0 * step)
    eps = _check_signature(tangent.signature).eps
    n = z0.shape[0]
    core = np.linalg.solve(np.eye(n) + eps * (z0 @ z0.conj().T), zd)
    return float(np.linalg.norm(zdd - 2.0 * eps * (zd @ z0.conj().T) @ core))


def plucker(plane: Plane) -> PluckerVector:
    """All n x n minors of the row basis, over lexicographic column n-tuples.

    ValueError, before anything is allocated, when the stack of the
    C(N, n) leading blocks would pass PLUCKER_MAX_BYTES.  DomainError where
    a minor overflows, or rounds to a nan or a division by zero."""
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
        dets = np.linalg.det(plane.basis.T[cols])
    return PluckerVector(n=n, big_n=big_n, indices=indices, coords=dets)


def plucker_pairing(a: PluckerVector, b: PluckerVector) -> complex:
    """Hermitian pairing sum_S a_S conj(b_S) over the common index set.

    For hat bases this reproduces the overlap with b's source conjugated.
    """
    if (a.n, a.big_n) != (b.n, b.big_n):
        raise ValueError(f"incompatible shapes: ({a.n},{a.big_n}) vs ({b.n},{b.big_n})")
    return complex(np.vdot(b.coords, a.coords))


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A rows x cols matrix of independent complex Gaussians, real parts drawn
    first.  Its rows span a Haar-random plane when rows < cols."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_random_plane(n: int, m: int, seed=None) -> Plane:
    """Uniformly random n-plane in C^(n+m): orthonormalized complex Gaussian."""
    g = _complex_gaussian(_rng(seed), n, n + m)
    q, _ = np.linalg.qr(g.T / np.sqrt(2.0))
    return Plane(q.T.copy())


def haar_random_chart(n: int, m: int, seed=None) -> ChartPoint:
    """Compact chart coordinate of a random plane, resampling until it lies
    in the chart.

    Z = G_lead^-1 G_trail is solved from the Gaussian rows G that
    haar_random_plane draws, with the same generator calls; its
    orthonormalized rows span the same plane.  The solve and its chart test
    are plane_to_chart's; a draw outside the chart is drawn again, and
    NumericalFailure follows 64 of them.
    """
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
