"""Cut locus, conjugate locus, and Schubert variety tests for the chart origin.

The cut locus of the origin plane O in the compact space is the set of planes
with a stationary angle of pi/2, equivalently the planes whose overlap with O
vanishes.  Membership is decided twice, by the angle spectrum and by the
normalized Gram pairing |det A[:, :n]| / sqrt(det A A*) of a row basis A with
O, which is the overlap of the plane's coherent state with |0>; the two
answers must agree.  By Cauchy-Binet that pairing equals the normalized
pairing of the Pluecker vectors; the verify suite's cauchy-binet-pairing
property checks the identity with the explicit minor enumeration.

Conjugate points along a geodesic with Cartan direction h (the singular
values of the velocity) occur at an explicit list of radii built from sums,
differences, doubles, and plain reciprocals of the h entries.  The
differential of the chart exponential has a closed-form spectrum, the
Daleckii-Krein divided differences of tan (tanh) at the singular values of
t B (jacobian_spectrum); its zeros fall exactly at those radii, with the
predicted multiplicities.  classify_conjugate and the scanner read their
ratio from it.  A finite-difference Jacobian of the exponential
(conjugate_test_jacobian) measures the same spectrum independently and is
the route the verify suite checks it against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import ChartEscapeError, ConsistencyError, DomainError
from .manifold import (AngleSpectrum, Plane, TangentCoord, _angles_svd_stack,
                       _descending_angles, _exp0_stack, _geodesic_group_stack, _tanh_saturates,
                       base_plane, cos_cayley_planes, stationary_angles_svd, tan_pole_distance)

ANGLE_TOL = 1e-6
CAYLEY_TOL = 1e-9
CONJUGATE_TOL = 1e-3
PAIRING_TOL = 1e-8
DENOM_TOL = 1e-12


@dataclass(slots=True)
class SchubertSymbol:
    """Nondecreasing tuple w of length n with entries in 0..m.

    The associated variety consists of the n-planes X with
    dim(X intersect V_{w_i + i}) >= i for every i, where V_1 < V_2 < ... is a
    complete flag of coordinate subspaces.
    """

    w: tuple[int, ...]
    m: int

    def __post_init__(self):
        self.w = tuple(int(v) for v in self.w)
        if len(self.w) == 0:
            raise ValueError("symbol must have at least one entry")
        if any(b < a for a, b in zip(self.w, self.w[1:])):
            raise ValueError(f"symbol entries must be nondecreasing, got {self.w}")
        if self.w[0] < 0 or self.w[-1] > self.m:
            raise ValueError(f"symbol entries must lie in 0..{self.m}, got {self.w}")

    @property
    def n(self) -> int:
        return len(self.w)

    @property
    def big_n(self) -> int:
        return self.n + self.m

    def codimension(self) -> int:
        return sum(self.m - v for v in self.w)


def jumps(symbol: SchubertSymbol) -> tuple[int, ...]:
    """1-based positions where the symbol strictly increases, plus n."""
    w, n = symbol.w, symbol.n
    out = [i + 1 for i in range(n - 1) if w[i] < w[i + 1]]
    out.append(n)
    return tuple(out)


def v_pl_symbol(p: int, l: int, n: int, m: int) -> SchubertSymbol:
    """Symbol of the planes meeting the first p flag vectors in dimension >= l:
    p - l repeated l times, then m repeated n - l times."""
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    if not l <= p <= m + l:
        raise ValueError(f"need l <= p <= m + l, got p={p}")
    return SchubertSymbol(w=(p - l,) * l + (m,) * (n - l), m=m)


def cut_locus_symbol(n: int, m: int) -> SchubertSymbol:
    """Symbol of the cut locus of the origin: (m-1, m, ..., m) against the
    flag that starts with the orthogonal complement of the origin plane."""
    if m < 1:
        raise ValueError("need m >= 1")
    return SchubertSymbol(w=(m - 1,) + (m,) * (n - 1), m=m)


def flag_order(symbol: SchubertSymbol, flag: str = "standard") -> tuple[int, ...]:
    """0-based ordering of the coordinate vectors generating the flag.

    standard: e_1, ..., e_N in place.
    perp: the complement block e_{n+1}, ..., e_N first, then e_1, ..., e_n;
        turns the symbol of v_pl_symbol into exactly the planes meeting the
        span of the first p complement vectors in dimension >= l.
    chart: interleaved so that the i-th pivot of the symbol is preceded by
        exactly w_i complement vectors; staircase samples built row by row in
        this order always satisfy the membership conditions.
    """
    n, m = symbol.n, symbol.m
    if flag == "standard":
        return tuple(range(n + m))
    if flag == "perp":
        return tuple(range(n, n + m)) + tuple(range(n))
    if flag == "chart":
        order: list[int] = []
        prev = 0
        for i in range(n):
            order.extend(n + j for j in range(prev, symbol.w[i]))
            order.append(i)
            prev = symbol.w[i]
        order.extend(n + j for j in range(prev, m))
        return tuple(order)
    raise ValueError(f"unknown flag {flag!r}; choose standard, perp, or chart")


def schubert_membership(plane: Plane, symbol: SchubertSymbol, tol: float = 1e-9,
                        flag: str = "standard") -> bool:
    """Whether the plane satisfies every incidence condition of the symbol.

    dim(X intersect V_p) is read off as n + p - rank of the basis rows stacked
    on the first p flag vectors.
    """
    n, m = symbol.n, symbol.m
    if plane.basis.shape != (n, n + m):
        raise ValueError(f"plane shape {plane.basis.shape} does not match symbol ({n},{n + m})")
    order = flag_order(symbol, flag)
    eye = np.eye(n + m, dtype=complex)
    for i in range(n):
        p = symbol.w[i] + i + 1
        stacked = np.vstack([plane.basis, eye[list(order[:p])]])
        meet = n + p - kernel.rank_tol(stacked, tol)
        if meet < i + 1:
            return False
    return True


def schubert_generic_sample(symbol: SchubertSymbol, seed=None,
                            flag: str = "chart") -> Plane:
    """Random plane in the open cell of the variety: row i is the pivot flag
    vector at position w_i + i plus a random combination of the earlier ones."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n, m = symbol.n, symbol.m
    order = flag_order(symbol, flag)
    basis = np.zeros((n, n + m), dtype=complex)
    for i in range(n):
        k = symbol.w[i] + i
        basis[i, order[k]] = 1.0
        for j in range(k):
            basis[i, order[j]] = rng.standard_normal() + 1j * rng.standard_normal()
    return Plane(basis)


@dataclass(slots=True)
class LocusVerdict:
    """Outcome of the two-route cut locus test."""

    in_locus: bool
    max_angle: float
    pairing_abs: float


def cut_locus_test(plane: Plane) -> LocusVerdict:
    """Decide whether a plane lies in the cut locus of the origin.

    Route one reads the largest stationary angle against the origin plane;
    route two reads the normalized Gram pairing with the origin,
    |det A[:, :n]| / sqrt(det A A*) for a row basis A: the coherent-state
    overlap with |0>, and by Cauchy-Binet the normalized Pluecker pairing.
    The plane is in the locus when the angle reaches pi/2 within ANGLE_TOL,
    equivalently when the pairing falls to PAIRING_TOL.  Disagreement
    between the routes raises ConsistencyError rather than picking a side.
    """
    n, big_n = plane.basis.shape
    origin = base_plane(n, big_n - n)
    spectrum = stationary_angles_svd(plane, origin)
    by_angle = spectrum.max_angle >= np.pi / 2 - ANGLE_TOL

    pairing = cos_cayley_planes(plane, origin)
    by_pairing = pairing <= PAIRING_TOL

    if by_angle != by_pairing:
        raise ConsistencyError(
            f"angle route ({spectrum.max_angle:.12f} rad) and pairing route "
            f"({pairing:.3e}) disagree on cut locus membership")
    return LocusVerdict(in_locus=by_angle, max_angle=spectrum.max_angle,
                        pairing_abs=pairing)


def cayley_cut_check(plane: Plane) -> bool:
    """Cut locus membership from the normalized Gram pairing alone: the
    arccos of the plane-level cosine reaches pi/2 within CAYLEY_TOL."""
    n, big_n = plane.basis.shape
    cos = cos_cayley_planes(plane, base_plane(n, big_n - n))
    return float(np.arccos(np.clip(cos, 0.0, 1.0))) >= np.pi / 2 - CAYLEY_TOL


@dataclass(slots=True)
class CartanDirection:
    """Singular values h_1 >= ... >= h_r of a geodesic velocity at the origin."""

    h: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.h, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("h must be a nonempty vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("h entries must be finite and nonnegative")
        if np.any(arr[:-1] < arr[1:]):
            raise ValueError("h entries must be nonincreasing")
        self.h = arr.copy()

    @property
    def r(self) -> int:
        return self.h.size


def cartan_to_tangent(direction: CartanDirection, n: int, m: int,
                      signature: str = "compact") -> TangentCoord:
    """Embed the direction as the diagonal n x m tangent matrix."""
    if direction.r > min(n, m):
        raise ValueError(f"direction has {direction.r} entries but rank is {min(n, m)}")
    b = np.zeros((n, m), dtype=complex)
    b[:direction.r, :direction.r][np.diag_indices(direction.r)] = direction.h
    return TangentCoord(b=b, signature=signature)


def cut_time(direction: CartanDirection) -> float:
    """First time the geodesic with this direction meets the cut locus:
    pi over twice the largest entry."""
    top = float(direction.h[0])
    if top < DENOM_TOL:
        raise ValueError("direction with vanishing largest entry never reaches the cut locus")
    return np.pi / (2.0 * top)


@dataclass(slots=True)
class ConjugateParam:
    """One predicted conjugate radius: family label, indices, winding, time."""

    family: str
    p: int
    q: int | None
    lam: int
    t: float
    multiplicity: int


def tangent_conjugate_params(direction: CartanDirection, n: int, m: int,
                             lambda_max: int = 2) -> list[ConjugateParam]:
    """All predicted conjugate radii along the compact geodesic with the given
    direction, for windings 1..lambda_max, sorted by time.

    Pair families (1 <= p < q <= r, multiplicity 2 each):
        lam pi / (h_p + h_q)   and   lam pi / (h_p - h_q)
    Single families (1 <= p <= r):
        lam pi / (2 h_p) with multiplicity 1, and, when n != m,
        lam pi / h_p with multiplicity 2 |m - n|.
    A direction shorter than min(n, m) is padded with zeros to that length:
    the implicit zero entries pair with the given ones.  Vanishing
    denominators contribute nothing.
    """
    if lambda_max < 1:
        raise ValueError("lambda_max must be at least 1")
    r = min(n, m)
    if direction.r > r:
        raise ValueError(f"direction has {direction.r} entries but rank is {r}")
    h = np.zeros(r)
    h[:direction.r] = direction.h
    out: list[ConjugateParam] = []
    for lam in range(1, lambda_max + 1):
        for p in range(r):
            for q in range(p + 1, r):
                for fam, den in (("t1plus", h[p] + h[q]), ("t1minus", h[p] - h[q])):
                    if abs(den) >= DENOM_TOL:
                        out.append(ConjugateParam(family=fam, p=p + 1, q=q + 1, lam=lam,
                                                  t=lam * np.pi / abs(den), multiplicity=2))
            if h[p] >= DENOM_TOL:
                out.append(ConjugateParam(family="t2", p=p + 1, q=None, lam=lam,
                                          t=lam * np.pi / (2.0 * h[p]), multiplicity=1))
                if n != m:
                    out.append(ConjugateParam(family="t3", p=p + 1, q=None, lam=lam,
                                              t=lam * np.pi / h[p],
                                              multiplicity=2 * abs(m - n)))
    out.sort(key=lambda c: c.t)
    return out


def coverage_limit(direction: CartanDirection, n: int, m: int,
                   lambda_max: int = 2) -> float:
    """Smallest conjugate time the winding cap misses: the first radius that
    winding lambda_max + 1 would add.  Scans past this limit run into radii
    absent from the capped list."""
    extra = [c.t for c in tangent_conjugate_params(direction, n, m, lambda_max + 1)
             if c.lam == lambda_max + 1]
    return min(extra) if extra else np.inf


@dataclass(slots=True)
class JacobianProbe:
    """Singular value summary of the finite-difference exponential Jacobian."""

    t: float
    min_sv: float
    max_sv: float
    ratio: float
    is_conjugate: bool
    indeterminate: bool


def _stencil_step(fro):
    """Half-width of the difference stencil at t B, from |t B|_F."""
    return 1e-5 * np.maximum(1.0, fro)


def _probe_clear(st: np.ndarray, step, signature: str) -> np.ndarray:
    """Where the chart map can be differentiated, for each row of st, the
    singular values of t B over a stack of times, with stencil half-width
    step per row.  Compact rows within 10 steps of a tan pole are not clear:
    neither Jacobian route reports a ratio there.  A noncompact row whose
    stencil reaches a saturated tanh raises DomainError."""
    if signature == "compact":
        return np.min(tan_pole_distance(st), axis=-1) >= 10.0 * step
    if np.any(_tanh_saturates(np.max(st, axis=-1) + step)):
        raise DomainError("noncompact chart saturates within the difference stencil: "
                          "tanh of a singular value of t B rounds to 1")
    return np.ones(st.shape[:-1], dtype=bool)


def _fd_spectrum(tangent: TangentCoord, t: float) -> np.ndarray:
    """Descending singular values of the central-difference Jacobian of the
    chart map at t B, with _probe_clear's guard: ChartEscapeError near a tan
    pole, DomainError where a noncompact tanh saturates."""
    bt = t * tangent.b
    step = float(_stencil_step(np.linalg.norm(bt)))
    svals = np.linalg.svd(bt, compute_uv=False)
    if not _probe_clear(svals[None], step, tangent.signature)[0]:
        raise ChartEscapeError("evaluation point too close to a tan pole for finite differences")
    n, m = tangent.shape

    def chart_map(x: np.ndarray) -> np.ndarray:
        # rows of interleaved (re, im) coordinates are (k, n, m) complex stacks
        b = np.ascontiguousarray(x).view(np.complex128).reshape(-1, n, m)
        z = _exp0_stack(b, tangent.signature)
        return z.reshape(len(x), -1).view(np.float64)

    jac = kernel.fd_jacobian(chart_map, kernel.realvec(bt), step=step)
    return np.linalg.svd(jac, compute_uv=False)


def conjugate_test_jacobian(tangent: TangentCoord, t: float) -> JacobianProbe:
    """Probe for a conjugate point at time t by differentiating the chart
    exponential.

    The map from the real coordinates of B to the real coordinates of the
    chart image of exp at t B is differentiated by central differences; a
    conjugate point shows up as a collapse of the smallest singular value of
    the square Jacobian.  The verdict uses the ratio of extreme singular
    values: below CONJUGATE_TOL is conjugate, and ratios within a decade
    above it are flagged indeterminate so callers can re-probe at a nudged
    time.  Compact evaluation closer to a tan pole than the difference
    stencil can resolve raises ChartEscapeError; noncompact evaluation whose
    stencil reaches a saturated tanh raises DomainError.  This is the
    independent route to jacobian_spectrum's closed form.
    """
    svs = _fd_spectrum(tangent, t)
    ratio = float(svs[-1] / svs[0])
    return JacobianProbe(t=float(t), min_sv=float(svs[-1]), max_sv=float(svs[0]),
                         ratio=ratio, is_conjugate=ratio < CONJUGATE_TOL,
                         indeterminate=CONJUGATE_TOL <= ratio < 10.0 * CONJUGATE_TOL)


def _spectrum_stack(st: np.ndarray, shape: tuple[int, int], signature: str) -> np.ndarray:
    """jacobian_spectrum for each row of st, the singular values of t B over
    a stack of times, as a (k, 2nm) array; rows that _probe_clear rejects
    are nan."""
    n, m = shape
    clear = _probe_clear(st, _stencil_step(np.linalg.norm(st, axis=-1)), signature)
    x = st[clear]
    fn, c = (np.sin, np.cos) if signature == "compact" else (np.sinh, np.cosh)
    # y[:, 0, a, b] = x_a - x_b and y[:, 1, a, b] = x_a + x_b: each pair a != b
    # appears twice, as the divided differences should, and a = b once
    y = np.stack([x[:, :, None] - x[:, None, :], x[:, :, None] + x[:, None, :]], axis=1)
    zero = y == 0.0
    y[zero] = 1.0
    vals = fn(y) / y
    vals[zero] = 1.0
    cx = c(x)
    r = x.shape[-1]
    vals = np.abs(vals / (cx[:, None, :, None] * cx[:, None, None, :])).reshape(-1, 2 * r * r)
    # g(x_a)/x_a, the plus diagonal, has 2|m - n| more copies
    extra = np.tile(vals[:, r * r::r + 1], 2 * abs(m - n))
    out = np.full((st.shape[0], 2 * n * m), np.nan)
    out[clear] = -np.sort(-np.concatenate([vals, extra], axis=-1), axis=-1)
    return out


def jacobian_spectrum(tangent: TangentCoord, t) -> np.ndarray:
    """Exact singular values, descending, of the differential of the chart
    map B -> exp0(B) at t B: the quantity conjugate_test_jacobian measures
    by finite differences.

    The map commutes with B -> U B V* for unitary U, V, which act
    orthogonally on real coordinates, so the spectrum depends only on the
    singular values x of t B.  It consists of the Daleckii-Krein divided
    differences of g = tan (tanh for the noncompact dual): g'(x_i) once,
    g(x_i)/x_i 1 + 2|m - n| times, and (g(x_i) -/+ g(x_j))/(x_i -/+ x_j)
    twice each for i < j, 2nm values in all.  Since
    tan a -/+ tan b = sin(a -/+ b)/(cos a cos b), and likewise for tanh with
    sinh and cosh, each value is |S(x_a -/+ x_b)/(c(x_a) c(x_b))| with
    S(y) = sin(y)/y (sinh(y)/y) and c = cos (cosh).  That form has no
    cancellation, so coincident and zero x are exact.  A zero of
    S(t alpha) on a root alpha, a sum or difference of the entries of the
    direction, is a conjugate point.

    t may be a scalar, giving a (2nm,) array, or a 1-D array of times,
    giving a (k, 2nm) stack.  Times within 10 stencil steps of a tan pole,
    where the finite-difference route raises ChartEscapeError, give nan
    rows; noncompact times whose chart image saturates raise DomainError.
    """
    ts = np.asarray(t, dtype=float)
    st = ts.reshape(-1, 1) * kernel.svd(tangent.b).s
    return _spectrum_stack(st, tangent.shape, tangent.signature).reshape(ts.shape + (-1,))


@dataclass(slots=True)
class ConjugateClass:
    """Angle-based classification of a conjugate point candidate, with the
    geodesic plane at the probed time and its angles against the origin."""

    label: str
    angles: AngleSpectrum
    jacobian_ratio: float
    plane: Plane


def _classify_stack(tangent: TangentCoord, ts: np.ndarray):
    """classify_conjugate at each time of the 1-D array ts, from one SVD of B:
    labels (k,), angles (k, n) descending per row, Jacobian ratios (k,), and
    group-form row bases (k, n, n + m), whose rank test is left to the
    caller."""
    n, m = tangent.shape
    r = min(n, m)
    res = kernel.svd(tangent.b)
    bases = _geodesic_group_stack(res, ts, tangent.signature)
    angles = _descending_angles(_angles_svd_stack(bases, np.eye(n, n + m, dtype=complex)[None]))
    wong = (angles[:, 0] >= np.pi / 2 - ANGLE_TOL) | (angles[:, r - 1] <= ANGLE_TOL)
    gaps = angles[:, :r - 1] - angles[:, 1:r]
    interior = np.min(gaps, axis=1, initial=np.inf) <= ANGLE_TOL
    labels = np.where(wong, "wong", np.where(interior, "interior", "none"))
    spectrum = _spectrum_stack(ts[:, None] * res.s, (n, m), tangent.signature)
    return labels, angles, spectrum[:, -1] / spectrum[:, 0], bases


def classify_conjugate(tangent: TangentCoord, t: float) -> ConjugateClass:
    """Classify the geodesic point at time t by its stationary angles.

    A boundary point ("wong") has an angle at pi/2 or a vanishing smallest
    essential angle; an interior coincidence ("interior") has two of the top
    min(n, m) angles equal, each within ANGLE_TOL.  Boundary takes
    precedence.  The extreme ratio of jacobian_spectrum at the same point is
    attached, or nan within 10 stencil steps of a tan pole, where the
    finite-difference route cannot read it.  The group-form plane the angles were read from is returned
    with them, so callers need not recompute it.  This is the stacked scan
    path on a stack of one.
    """
    labels, angles, ratios, bases = _classify_stack(tangent, np.array([float(t)]))
    return ConjugateClass(label=str(labels[0]), angles=AngleSpectrum(angles[0]),
                          jacobian_ratio=float(ratios[0]), plane=Plane(bases[0]))
