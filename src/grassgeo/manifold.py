"""Charts, geodesics, angles, and Pluecker machinery for complex Grassmannians.

Points on the Grassmannian of n-planes in C^(n+m) are handled in the affine
chart around the origin plane O = span(e_1 .. e_n): a plane in the chart has
a unique row basis (1_n | Z) with Z an n x m complex matrix.  The signature
tag selects between the compact space and its noncompact dual (the bounded
domain of Z with all singular values below one); formulas differ only by the
circular/hyperbolic trig pair and a sign epsilon.

Geodesics through O come in two equivalent forms: the chart form
Z(t) = B ta(t sqrt(B*B)) / sqrt(B*B) with ta = tan or tanh, and the group
form obtained from the one-parameter subgroup acting on O, which never
leaves the manifold and is used whenever the chart form hits a pole.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import kernel
from .errors import ChartEscapeError, DomainError, NotInChartError, NumericalFailure

Signature = Literal["compact", "noncompact"]

RANK_TOL = 1e-9
POLE_TOL = 1e-9
OVERLAP_TOL = 1e-12


def _check_signature(signature: str) -> str:
    if signature not in ("compact", "noncompact"):
        raise ValueError(f"signature must be 'compact' or 'noncompact', got {signature!r}")
    return signature


def _check_ball(z: np.ndarray) -> None:
    """DomainError unless every singular value of z lies below 1: the
    noncompact chart's bounded domain."""
    smax = float(np.max(np.linalg.svd(z, compute_uv=False))) if z.size else 0.0
    if smax >= 1.0:
        raise DomainError(
            f"noncompact chart requires all singular values below 1, got {smax:.6f}")


@dataclass(slots=True)
class ChartPoint:
    """Chart coordinate Z of a plane with row basis (1_n | Z)."""

    z: np.ndarray
    signature: Signature = "compact"

    def __post_init__(self):
        self.z = kernel.as_complex_matrix(self.z, "z")
        _check_signature(self.signature)
        if self.signature == "noncompact":
            _check_ball(self.z)

    @property
    def shape(self) -> tuple[int, int]:
        return self.z.shape


@dataclass(slots=True)
class TangentCoord:
    """Tangent vector at the origin plane in normal coordinates."""

    b: np.ndarray
    signature: Signature = "compact"

    def __post_init__(self):
        self.b = kernel.as_complex_matrix(self.b, "b")
        _check_signature(self.signature)

    @property
    def shape(self) -> tuple[int, int]:
        return self.b.shape


@dataclass(slots=True)
class Plane:
    """n-plane in C^N given by a row basis (rows span the plane, rank n)."""

    basis: np.ndarray

    def __post_init__(self):
        self.basis = kernel.as_complex_matrix(self.basis, "basis")
        _check_bases(self.basis)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def big_n(self) -> int:
        return self.basis.shape[1]


def _check_bases(basis: np.ndarray) -> None:
    """ValueError unless the n x N basis, or each member of a (k, n, N) stack,
    spans a proper n-plane: 1 <= n < N and n numerically independent rows."""
    n, big_n = basis.shape[-2:]
    if not 1 <= n < big_n:
        raise ValueError(f"need 1 <= n < N for a proper plane, got {n} x {big_n}")
    # rank n: the smallest of the n singular values clears kernel.rank_tol's cutoff
    s = np.linalg.svd(basis, compute_uv=False)
    if not (s[..., -1] > RANK_TOL * np.maximum(s[..., 0], 1.0)).all():
        raise ValueError("basis rows are numerically dependent")


def _descending_angles(a: np.ndarray) -> np.ndarray:
    """Angles clipped to [0, pi/2] and sorted descending along the last axis."""
    return np.sort(np.clip(a, 0.0, np.pi / 2), axis=-1)[..., ::-1]


@dataclass(slots=True)
class AngleSpectrum:
    """Stationary (principal) angles between two planes, descending in [0, pi/2]."""

    angles: np.ndarray

    def __post_init__(self):
        self.angles = _descending_angles(np.asarray(self.angles, dtype=float)).copy()

    @property
    def max_angle(self) -> float:
        return float(self.angles[0])

    def cos_product(self) -> float:
        return float(np.prod(np.cos(self.angles)))


@dataclass(slots=True)
class PluckerVector:
    """Minor coordinates of a plane over lexicographic column n-tuples."""

    n: int
    big_n: int
    indices: tuple[tuple[int, ...], ...]
    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.complex128)


def base_plane(n: int, m: int) -> Plane:
    """The origin plane O spanned by the first n coordinate vectors."""
    return Plane(np.hstack([np.eye(n), np.zeros((n, m))]).astype(complex))


def hat_basis(point: ChartPoint) -> np.ndarray:
    """Row basis (1_n | Z) of the plane with chart coordinate Z."""
    n = point.z.shape[0]
    return np.hstack([np.eye(n, dtype=complex), point.z])


def chart_to_plane(point: ChartPoint) -> Plane:
    return Plane(hat_basis(point))


def plane_to_chart(plane: Plane, signature: Signature = "compact") -> ChartPoint:
    """Chart coordinate of a plane, when the leading n x n block is invertible."""
    n = plane.n
    lead = plane.basis[:, :n]
    if kernel.rank_tol(lead, RANK_TOL) != n:
        raise NotInChartError("leading block is singular; plane lies outside the chart")
    z = np.linalg.solve(lead, plane.basis[:, n:])
    return ChartPoint(z=z, signature=signature)


def _check_pair(zp: ChartPoint, z: ChartPoint) -> None:
    if zp.shape != z.shape:
        raise ValueError(f"shape mismatch: {zp.shape} vs {z.shape}")
    if zp.signature != z.signature:
        raise ValueError(f"signature mismatch: {zp.signature} vs {z.signature}")


def overlap(zp: ChartPoint, z: ChartPoint) -> complex:
    """Unnormalized pairing of two chart points; the first argument is conjugated.

    Compact: det(1 + Z Zp*).  Noncompact: det(1 - Z Zp*).  For hat bases this
    is the Gram determinant det((zp_i, z_j)) of the two row families.
    """
    _check_pair(zp, z)
    n = z.shape[0]
    sign = 1.0 if z.signature == "compact" else -1.0
    return complex(np.linalg.det(np.eye(n) + sign * (z.z @ zp.z.conj().T)))


def cos_cayley(zp: ChartPoint, z: ChartPoint) -> float:
    """Normalized overlap magnitude in [0, 1] for compact chart points."""
    _check_pair(zp, z)
    if z.signature != "compact":
        raise DomainError(
            "the Cayley distance comes from the projective embedding of the "
            "compact space; the noncompact normalized overlap is not a cosine")
    num = abs(overlap(zp, z))
    den = np.sqrt(overlap(z, z).real * overlap(zp, zp).real)
    return min(num / den, 1.0)


def cayley_distance(zp: ChartPoint, z: ChartPoint) -> float:
    """arccos of the normalized overlap; lies in [0, pi/2]."""
    return float(np.arccos(np.clip(cos_cayley(zp, z), 0.0, 1.0)))


def cos_cayley_planes(p: Plane, q: Plane) -> float:
    """Normalized Gram pairing of two planes from arbitrary row bases.

    Equals the product of the cosines of the stationary angles, so it is
    defined for every pair of planes, including ones outside the chart.
    """
    if p.basis.shape != q.basis.shape:
        raise ValueError(f"shape mismatch: {p.basis.shape} vs {q.basis.shape}")
    return float(_cos_cayley_stack(p.basis[None], q.basis[None])[0])


def _cos_cayley_stack(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """cos_cayley_planes over (k, n, N) stacks of row bases; q may be a stack
    of one, paired with every member of p."""
    qh = q.conj().swapaxes(-1, -2)
    num = np.abs(np.linalg.det(p @ qh))
    den = np.sqrt(np.linalg.det(p @ p.conj().swapaxes(-1, -2)).real * np.linalg.det(q @ qh).real)
    return np.minimum(num / den, 1.0)


def stationary_angles_w(zp: ChartPoint, z: ChartPoint) -> AngleSpectrum:
    """Stationary angles from the eigenvalues of the chart product matrix
    W = (1+ZZ*)^-1 (1+ZZp*) (1+ZpZp*)^-1 (1+ZpZ*), whose spectrum is cos^2
    of the angles.  W is similar to the Hermitian G G* with
    G = (1+ZZ*)^-1/2 (1+ZZp*) (1+ZpZp*)^-1/2, so the eigenvalues are computed
    as squared singular values of G.  Requires a nonzero overlap.
    """
    _check_pair(zp, z)
    n = z.shape[0]
    big_m = np.eye(n) + z.z @ zp.z.conj().T
    if abs(np.linalg.det(big_m)) <= OVERLAP_TOL:
        raise DomainError("vanishing overlap; use the orthonormal-basis angle route")
    inv_sqrt_a = _inv_sqrt_gram(np.eye(n) + z.z @ z.z.conj().T)
    inv_sqrt_ap = _inv_sqrt_gram(np.eye(n) + zp.z @ zp.z.conj().T)
    g = inv_sqrt_a @ big_m @ inv_sqrt_ap
    cos2 = np.clip(np.linalg.svd(g, compute_uv=False) ** 2, 0.0, 1.0)
    # two n-planes in C^(n+m) meet in at least n - m dimensions
    cos2[:max(0, n - z.shape[1])] = 1.0
    return AngleSpectrum(np.arccos(np.sqrt(cos2)))


def _inv_sqrt_gram(a: np.ndarray) -> np.ndarray:
    vals, vecs = kernel.herm_eig(a)
    return kernel.SvdResult(vecs, vals, vecs).apply(1.0 / np.sqrt(vals))


def stationary_angles_svd(p: Plane, q: Plane) -> AngleSpectrum:
    """Stationary angles as arccos of singular values of Q1* Q2 for
    orthonormalized bases; defined for every pair of planes."""
    if p.big_n != q.big_n or p.n != q.n:
        raise ValueError(f"plane shape mismatch: {p.basis.shape} vs {q.basis.shape}")
    return AngleSpectrum(_angles_svd_stack(p.basis[None], q.basis[None])[0])


def _angles_svd_stack(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """stationary_angles_svd over (k, n, N) stacks of row bases, as a (k, n)
    array of angles in no fixed order; q may be a stack of one, paired with
    every member of p."""
    n, big_n = p.shape[-2:]
    q1 = np.linalg.qr(p.swapaxes(-1, -2))[0]
    q2 = np.linalg.qr(q.swapaxes(-1, -2))[0]
    cos = np.clip(np.linalg.svd(q1.conj().swapaxes(-1, -2) @ q2, compute_uv=False),
                  0.0, 1.0)
    # two n-planes in C^N meet in at least 2n - N dimensions
    cos[..., :max(0, 2 * n - big_n)] = 1.0
    return np.arccos(cos)


def tan_pole_distance(s: np.ndarray) -> np.ndarray:
    """Distance from each value to the nearest pole of tan (pi/2 + k pi)."""
    frac = np.mod(np.asarray(s, dtype=float) / np.pi, 1.0)
    return np.abs(frac - 0.5) * np.pi


def _tanh_saturates(s) -> np.ndarray:
    """Whether tanh of each value rounds to 1 or to the last double below it:
    a noncompact chart image there cannot be told from the boundary of the
    bounded domain."""
    return np.tanh(s) >= np.nextafter(1.0, 0.0)


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
    res = kernel.svd(b)
    if signature == "compact":
        if res.s.size and float(np.min(tan_pole_distance(res.s))) < POLE_TOL:
            raise ChartEscapeError(
                "geodesic meets the polar divisor (tan pole); use geodesic_group")
        vals = np.tan(res.s)
    else:
        vals = np.tanh(res.s)
        if np.any(_tanh_saturates(res.s)):
            raise ChartEscapeError(
                "noncompact chart saturates: tanh of a singular value rounds to 1, "
                "so the image cannot be told from the boundary; use geodesic_group "
                "(--route group)")
    return res.apply(vals)


def log0(point: ChartPoint) -> TangentCoord:
    """Inverse of exp0 on the chart: arctan / artanh of the singular values."""
    res = kernel.svd(point.z)
    if point.signature == "compact":
        vals = np.arctan(res.s)
    else:
        if res.s.size and float(res.s[0]) >= 1.0:
            raise DomainError("noncompact log needs all singular values below 1")
        vals = np.arctanh(res.s)
    return TangentCoord(b=res.apply(vals), signature=point.signature)


def geodesic_chart(tangent: TangentCoord, t: float) -> ChartPoint:
    """Geodesic through the origin with initial velocity B, in the chart."""
    return exp0(TangentCoord(b=t * tangent.b, signature=tangent.signature))


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
    return Plane(_geodesic_group_stack(res, np.array([float(t)]), tangent.signature)[0])


def _geodesic_group_stack(res: kernel.SvdResult, ts: np.ndarray,
                          signature: Signature) -> np.ndarray:
    """geodesic_group's row bases at each time of the 1-D array ts, as a
    (k, n, n + m) stack, from the SVD of B; the rank test is left to the
    caller."""
    st = ts[:, None] * res.s
    if signature == "compact":
        co, si = np.cos(st), np.sin(st)
    else:
        co, si = np.ones_like(st), np.tanh(st)
    n = res.u.shape[0]
    # cos(t sqrt(BB*)) = 1_n + U (co - 1) U*: the orthogonal complement of the
    # column space of B carries co(0) = 1
    left = np.eye(n, dtype=complex) + (res.u * (co - 1.0)[:, None, :]) @ res.u.conj().T
    return np.concatenate([left, res.apply(si)], axis=-1)


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
    eps = 1.0 if tangent.signature == "compact" else -1.0
    n = z0.shape[0]
    core = np.linalg.solve(np.eye(n) + eps * (z0 @ z0.conj().T), zd)
    return float(np.linalg.norm(zdd - 2.0 * eps * (zd @ z0.conj().T) @ core))


def plucker(plane: Plane) -> PluckerVector:
    """All n x n minors of the row basis, over lexicographic column n-tuples."""
    n, big_n = plane.basis.shape
    indices = tuple(itertools.combinations(range(big_n), n))
    cols = np.asarray(indices, dtype=int)
    # det(A[:, c]) = det(A.T[c]) and the stacked form evaluates all minors at once
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


def haar_random_plane(n: int, m: int, seed=None) -> Plane:
    """Uniformly random n-plane in C^(n+m): orthonormalized complex Gaussian."""
    rng = _rng(seed)
    g = (rng.standard_normal((n, n + m)) + 1j * rng.standard_normal((n, n + m)))
    q, _ = np.linalg.qr(g.T / np.sqrt(2.0))
    return Plane(q.T.copy())


def haar_random_chart(n: int, m: int, seed=None, signature: Signature = "compact") -> ChartPoint:
    """Chart coordinate of a random plane, resampling until it lies in the
    chart (and, for the noncompact signature, inside the bounded domain)."""
    rng = _rng(seed)
    for _ in range(64):
        try:
            return plane_to_chart(haar_random_plane(n, m, rng), signature=signature)
        except (NotInChartError, DomainError):
            continue
    raise NumericalFailure("no chart sample found in 64 tries")


def geodesic_distance0(point: ChartPoint) -> float:
    """Geodesic distance from the origin plane: the Frobenius norm of log0,
    equal to the l2 norm of the stationary angles in the compact case."""
    return float(np.linalg.norm(log0(point).b))
