"""Cut locus, conjugate locus, and Schubert variety tests for the chart origin.

The cut locus of the origin plane O in the compact space is the set of planes
with a stationary angle of pi/2, equivalently the planes whose overlap with O
vanishes: the planes whose leading n x n block is singular.  Every cut route
reads that block at kernel.RANK_TOL.  cut_locus_test reads its singular
values in the plane's orthonormal frame, the cosines of the angles against
O; cayley_cut_check its |det| there, their product, which is the overlap of
the plane's coherent state with |0> and by Cauchy-Binet the normalized
Pluecker pairing (the verify suite's cauchy-binet-pairing property checks
the identity); schubert_membership, the one nontrivial condition of the
Schubert variety of cut_locus_symbol, its rank in the raw basis with the
rows scaled to a largest modulus of 1.  So a plane pays four LAPACK calls
on the three routes: the Plane's validating SVD, the SVD and det of its
frame's leading block, which it keeps from first use, and the Schubert
route's SVD of the unit-row block.  cut_locus_symbol builds one frozen
symbol per shape and flag_order one order per symbol and flag, both cached.

Conjugate points along a geodesic with Cartan direction h (the singular
values of the velocity) occur at the radii lam pi / |alpha(h)| over the
restricted roots alpha.  _root_table holds the roots once per shape, as
read-only columns: family, a, b, sign and multiplicity of each root, then
the zero weights.  The differential of the chart exponential has a
closed-form spectrum, the Daleckii-Krein divided differences of tan (tanh)
at the singular values of t B (jacobian_spectrum), read off the same
columns; its zeros fall exactly at those radii, with the predicted
multiplicities.  classify_conjugate and the scanner read their ratio from
it, and their angles from the Cartan closed form in t h.  A
finite-difference Jacobian of the exponential (conjugate_test_jacobian)
measures the same spectrum independently and is the route the verify
suite checks it against.  Shapes pass manifold._shape, routes read the
signature record their tangent keeps, and of the routes along a geodesic
only jacobian_spectrum and the scan take an array of times.
"""
from __future__ import annotations

import functools

import numpy as np

from . import kernel
from .errors import ChartEscapeError, ConsistencyError, DomainError
from .manifold import (ANGLE_TOL, AngleSpectrum, Plane, TangentCoord, _descending_angles,
                       _exp0_values, _resolvable_times, _rng, _shape)

CONJUGATE_TOL = 1e-3
PAIRING_TOL = 1e-12
DENOM_TOL = 1e-12
_H_MAX = np.finfo(float).max / 2  # so every root length h_a + h_b is finite


class SchubertSymbol(kernel._FrozenRecord):
    """Nondecreasing tuple w of length n with entries in 0..m.

    The associated variety consists of the n-planes X with
    dim(X intersect V_{w_i + i}) >= i for every i, where V_1 < V_2 < ... is a
    complete flag of coordinate subspaces.  ValueError for an entry or an m
    that is not an integer.  Frozen, so a cached symbol cannot be rebound.
    """

    __slots__ = _fields = ("w", "m")

    def __init__(self, w: tuple[int, ...], m: int):
        w, m = tuple(kernel.as_index(v, "symbol entry") for v in w), kernel.as_index(m, "m")
        if len(w) == 0:
            raise ValueError("symbol must have at least one entry")
        if any(b < a for a, b in zip(w, w[1:])):
            raise ValueError(f"symbol entries must be nondecreasing, got {w}")
        if w[0] < 0 or w[-1] > m:
            raise ValueError(f"symbol entries must lie in 0..{m}, got {w}")
        self._set("w", w)
        self._set("m", m)

    @property
    def n(self) -> int:
        return len(self.w)

    @property
    def big_n(self) -> int:
        return self.n + self.m

    def codimension(self) -> int:
        return sum(self.m - v for v in self.w)


def v_pl_symbol(p: int, l: int, n: int, m: int) -> SchubertSymbol:
    """Symbol of the planes meeting the first p flag vectors in dimension >= l:
    p - l repeated l times, then m repeated n - l times.  ValueError for an
    argument that is not an integer."""
    l, n = kernel.as_index(l, "l"), kernel.as_index(n, "n")
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    if not l <= p <= m + l:
        raise ValueError(f"need l <= p <= m + l, got p={p}")
    return SchubertSymbol(w=(p - l,) * l + (m,) * (n - l), m=m)


def cut_locus_symbol(n: int, m: int) -> SchubertSymbol:
    """Symbol of the cut locus of the origin: (m-1, m, ..., m) against the
    flag that starts with the orthogonal complement of the origin plane.
    One frozen instance per shape, built on first use.  ValueError for a
    shape that manifold._shape refuses."""
    return _cut_symbol(*_shape(n, m))


@functools.cache
def _cut_symbol(n: int, m: int) -> SchubertSymbol:
    """cut_locus_symbol of a checked shape."""
    return SchubertSymbol(w=(m - 1,) + (m,) * (n - 1), m=m)


_FLAGS = ("standard", "perp", "chart")


def flag_order(symbol: SchubertSymbol, flag: str = "standard") -> tuple[int, ...]:
    """0-based ordering of the coordinate vectors generating the flag, built
    once per symbol and flag.

    standard: e_1, ..., e_N in place.
    perp: the complement block e_{n+1}, ..., e_N first, then e_1, ..., e_n;
        turns the symbol of v_pl_symbol into exactly the planes meeting the
        span of the first p complement vectors in dimension >= l.
    chart: interleaved so that the i-th pivot of the symbol is preceded by
        exactly w_i complement vectors; staircase samples built row by row in
        this order always satisfy the membership conditions.
    """
    if flag not in _FLAGS:
        raise ValueError(f"unknown flag {flag!r}; choose standard, perp, or chart")
    return _flag_order(symbol.w, symbol.m, flag)


@functools.cache
def _flag_order(w: tuple[int, ...], m: int, flag: str) -> tuple[int, ...]:
    """flag_order of the symbol (w, m) and a known flag."""
    n = len(w)
    if flag == "standard":
        return tuple(range(n + m))
    if flag == "perp":
        return tuple(range(n, n + m)) + tuple(range(n))
    order: list[int] = []
    prev = 0
    for i in range(n):
        order.extend(n + j for j in range(prev, w[i]))
        order.append(i)
        prev = w[i]
    order.extend(n + j for j in range(prev, m))
    return tuple(order)


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """Each row of a basis scaled to a largest modulus of 1: the same plane.
    (A row norm would overflow from entries of about 1e154.)"""
    return a / np.abs(a).max(axis=1, keepdims=True)


def schubert_membership(plane: Plane, symbol: SchubertSymbol,
                        flag: str = "standard") -> bool:
    """Whether the plane satisfies every incidence condition of the symbol.

    Every flag is spanned by coordinate vectors: V_p by the unit vectors of
    the columns S = order[:p].  Stacked under a row basis A, those unit rows
    clear the columns in S, so rank [A; E_S] = p + rank A[:, S^c] and
    dim(X intersect V_p) = n - rank A[:, S^c], an n x (N - p) test.  The
    rank is kernel.rank_tol's, read through its core _rank, of the basis
    rows scaled to a largest modulus of 1 (_unit_rows), so the verdict does
    not depend on the basis scale.  A condition with w_i = m is skipped:
    there N - p = n - i - 1 columns are left, so the meet is at least i + 1
    for every plane and flag, and the rows are scaled only when some
    condition is computed.  Of the n conditions of cut_locus_symbol only
    the first is computed, and against the perp flag it is the rank of the
    plane's leading n x n block.
    """
    n, m = symbol.n, symbol.m
    if plane.basis.shape != (n, n + m):
        raise ValueError(f"plane shape {plane.basis.shape} does not match symbol ({n},{n + m})")
    order = flag_order(symbol, flag)
    conditions = [(i, order[w + i + 1:]) for i, w in enumerate(symbol.w) if w < m]
    rows = _unit_rows(plane.basis) if conditions else None
    return all(n - kernel._rank(rows.take(cols, 1)) >= i + 1 for i, cols in conditions)


def schubert_generic_sample(symbol: SchubertSymbol, seed=None,
                            flag: str = "chart") -> Plane:
    """Random plane in the open cell of the variety: row i is the pivot flag
    vector at position w_i + i plus a random combination of the earlier ones."""
    rng = _rng(seed)
    n, m = symbol.n, symbol.m
    order = flag_order(symbol, flag)
    basis = np.zeros((n, n + m), dtype=complex)
    for i in range(n):
        k = symbol.w[i] + i
        basis[i, order[k]] = 1.0
        for j in range(k):
            basis[i, order[j]] = rng.standard_normal() + 1j * rng.standard_normal()
    return Plane(basis)


class LocusVerdict(kernel._Record):
    """Outcome of the cut locus test, with the pairing it checked."""

    __slots__ = _fields = ("in_locus", "max_angle", "pairing_abs")

    def __init__(self, in_locus: bool, max_angle: float, pairing_abs: float):
        self.in_locus, self.max_angle, self.pairing_abs = in_locus, max_angle, pairing_abs


def cut_locus_test(plane: Plane) -> LocusVerdict:
    """Decide whether a plane lies in the cut locus of the origin.

    The cosines of the angles against the origin plane are the singular
    values of the leading n x n block of the plane's frame, and its
    origin_pairing is |det| of that block; the largest angle and the pairing
    equal stationary_angles_svd and cos_cayley_planes against
    base_plane(n, m) bit for bit.  The plane is in the locus when the block
    is singular by kernel.numerical_rank of the cosines: cos theta_max <=
    RANK_TOL.  ConsistencyError unless the pairing is the product of the
    cosines to absolute PAIRING_TOL.
    """
    cos = plane._origin()[0]
    pairing = plane.origin_pairing
    err = abs(pairing - float(cos.prod()))
    if not err <= PAIRING_TOL:  # a nan raises too
        raise ConsistencyError(f"pairing {pairing:.3e} is off the cosine product by {err:.3e}")
    return LocusVerdict(in_locus=kernel.numerical_rank(cos) < plane.n,
                        max_angle=float(np.arccos(cos[-1])), pairing_abs=pairing)


def cayley_cut_check(plane: Plane) -> bool:
    """Cut locus membership from the normalized pairing alone: the plane's
    origin_pairing is at most RANK_TOL.  The pairing is the product of the
    cosines of the angles against the origin, at most cos theta_max, so a
    plane that cut_locus_test puts in the locus reads True here too; with
    two or more angles near pi/2 the converse can fail, e.g. three cosines
    of 1e-3 at 3x5 give a pairing of 1e-9."""
    return plane.origin_pairing <= kernel.RANK_TOL


class CartanDirection(kernel._Record):
    """Singular values h_1 >= ... >= h_r of a geodesic velocity at the origin."""

    __slots__ = _fields = ("h",)

    def __init__(self, h: np.ndarray):
        arr = np.asarray(h, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("h must be a nonempty vector")
        if not (arr.min() >= 0 and arr.max() <= _H_MAX):  # a nan fails both
            raise ValueError("h entries must be nonnegative and at most half the largest double")
        if np.any(arr[:-1] < arr[1:]):
            raise ValueError("h entries must be nonincreasing")
        self.h = arr.copy()

    @property
    def r(self) -> int:
        return self.h.size


def cartan_to_tangent(direction: CartanDirection, n: int, m: int,
                      signature: str = "compact") -> TangentCoord:
    """Embed the direction as the diagonal n x m tangent matrix."""
    h = _padded(direction, n, m)[:-1]
    b = np.zeros((n, m), dtype=complex)
    b[np.diag_indices(h.size)] = h
    return TangentCoord(b=b, signature=signature)


def _padded(direction: CartanDirection, n: int, m: int) -> np.ndarray:
    """The direction padded with zeros to length min(n, m) + 1: the singular
    values of cartan_to_tangent's matrix, bit for bit, then the x_r = 0 that
    _root_table's roots read.  ValueError for a shape that manifold._shape
    refuses, or a direction longer than min(n, m)."""
    r = min(_shape(n, m))
    if direction.r > r:
        raise ValueError(f"direction has {direction.r} entries but rank is {r}")
    return np.concatenate([direction.h, np.zeros(r + 1 - direction.r)])


def cut_time(direction: CartanDirection) -> float:
    """First time the geodesic with this direction meets the cut locus:
    pi over twice the largest entry."""
    top = float(direction.h[0])
    if top < DENOM_TOL:
        raise ValueError("direction with vanishing largest entry never reaches the cut locus")
    return np.pi / (2.0 * top)


class ConjugateParam(kernel._Record):
    """One predicted conjugate radius: family label, indices, winding, time."""

    __slots__ = _fields = ("family", "p", "q", "lam", "t", "multiplicity")

    def __init__(self, family: str, p: int, q: int | None, lam: int, t: float,
                 multiplicity: int):
        self.family, self.p, self.q, self.lam = family, p, q, lam
        self.t, self.multiplicity = t, multiplicity


_FAMILIES = ("t1plus", "t1minus", "t2", "t3", "zero")


@functools.cache
def _root_table(n: int, m: int):
    """The positive restricted roots of Gr(n, n+m) (Helgason, Ch. X), once per
    shape, as the read-only columns family (an index into _FAMILIES), a, b,
    sign and multiplicity of the root alpha(x) = x_a + sign x_b on x padded
    with x_r = 0, r = min(n, m).  By a, then e_a +/- e_b (t1plus, t1minus;
    a < b < r, by b; 2), 2 e_a (t2; b = a; 1) and, if n != m, e_a (t3; b = r;
    2|m - n|).  Then the r zero weights (zero, a, a, -1, 1) of the Cartan
    subspace, so the multiplicities sum to 2nm."""
    r = min(n, m)
    pa, pb = np.repeat(np.triu_indices(r, 1), 2, axis=1)  # each pair as + then -
    k = np.arange(r)
    e = k[:r * (n != m)]  # the a of the e_a roots, none when n == m
    fam = np.concatenate([np.tile([0, 1], pa.size // 2), np.full(r, 2), np.full(e.size, 3)])
    a = np.concatenate([pa, k, e])
    order = np.lexsort((np.maximum(fam - 1, 0), a))  # stable: pairs < 2 e_a < e_a per a
    b = np.concatenate([pb, k, np.full(e.size, r)])[order]
    fam = np.concatenate([fam[order], np.full(r, 4)])
    cols = (fam, np.concatenate([a[order], k]), np.concatenate([b, k]),
            np.array([1.0, -1.0, 1.0, 1.0, -1.0])[fam],  # sign and multiplicity by family
            np.array([2, 2, 1, 2 * abs(m - n), 1])[fam])
    for col in cols:
        col.flags.writeable = False
    return cols


def tangent_conjugate_params(direction: CartanDirection, n: int, m: int,
                             lambda_max: int = 2) -> list[ConjugateParam]:
    """All predicted conjugate radii along the compact geodesic with the given
    direction, for windings 1..lambda_max, sorted stably by time: lam pi over
    |alpha(h)| for each root alpha of _root_table, in the table's order.

    Pairs 1 <= p < q <= r: lam pi / (h_p + h_q) and lam pi / (h_p - h_q),
    multiplicity 2 each.  Singles 1 <= p <= r: lam pi / (2 h_p),
    multiplicity 1, and, when n != m, lam pi / h_p, multiplicity 2 |m - n|.
    A direction shorter than min(n, m) is padded with zeros to that length:
    the implicit zero entries pair with the given ones.  Roots with
    |alpha(h)| below DENOM_TOL contribute nothing.
    """
    t, root, lam = _radii(direction, n, m, _winding_cap(lambda_max, 1))
    return [_radius_param(n, m, tk, k, lk) for tk, k, lk in zip(t, root.tolist(), lam.tolist())]


def _winding_cap(lambda_max, least: int) -> int:
    """lambda_max as an int; ValueError unless it is an integer of at least least."""
    lambda_max = kernel.as_index(lambda_max, "lambda_max")
    if lambda_max < least:
        raise ValueError(f"lambda_max must be at least {least}")
    return lambda_max


def _radii(direction: CartanDirection, n: int, m: int, lambda_max: int):
    """The radii of tangent_conjugate_params as arrays, in its order: the
    times lam pi / |alpha(h)|, the row of _root_table(n, m) of each root alpha
    and the winding lam, listed winding by winding in the table's order,
    then sorted by time with a stable argsort.  Empty when no root reaches
    DENOM_TOL."""
    h = _padded(direction, n, m)
    fam, a, b, sign, _ = _root_table(n, m)
    lengths = np.abs(h[a] + sign * h[b])
    root = np.flatnonzero((lengths >= DENOM_TOL) & (fam < 4))  # no zero weight
    lam = np.arange(1, lambda_max + 1)
    t = (lam[:, None] * np.pi / lengths[root]).ravel()
    order = np.argsort(t, kind="stable")
    return t[order], np.tile(root, lam.size)[order], np.repeat(lam, root.size)[order]


def _radius_param(n: int, m: int, t: float, root: int, lam: int) -> ConjugateParam:
    """The ConjugateParam of one radius of _radii: its time, its row of
    _root_table(n, m) and its winding; q is blank for t2 and t3."""
    fam, a, b, _, mult = _root_table(n, m)
    f, q = fam.item(root), b.item(root) + 1
    return ConjugateParam(family=_FAMILIES[f], p=a.item(root) + 1, q=q if f < 2 else None,
                          lam=lam, t=t, multiplicity=mult.item(root))


def coverage_limit(direction: CartanDirection, n: int, m: int,
                   lambda_max: int = 2) -> float:
    """Smallest conjugate time the winding cap misses: the first radius that
    winding lambda_max + 1 would add, on the largest root, 2 h_1 (inf below
    DENOM_TOL).  Scans past this limit run into radii absent from the list."""
    lambda_max = _winding_cap(lambda_max, 0)
    top = 2.0 * _padded(direction, n, m)[0]
    return (lambda_max + 1) * np.pi / top if top >= DENOM_TOL else np.inf


class JacobianProbe(kernel._Record):
    """Singular value summary of the finite-difference exponential Jacobian."""

    __slots__ = _fields = ("t", "min_sv", "max_sv", "ratio", "is_conjugate", "indeterminate")

    def __init__(self, t: float, min_sv: float, max_sv: float, ratio: float,
                 is_conjugate: bool, indeterminate: bool):
        self.t, self.min_sv, self.max_sv, self.ratio = t, min_sv, max_sv, ratio
        self.is_conjugate, self.indeterminate = is_conjugate, indeterminate


def _stencil_step(fro):
    """Half-width of the difference stencil at t B, from |t B|_F."""
    return 1e-5 * np.maximum(1.0, fro)


def _probe_clear(st: np.ndarray, step, sig) -> np.ndarray:
    """Where the chart map of the signature record sig can be differentiated,
    for each row of st, t s over a stack of times t of either sign, with s the
    singular values of B and stencil half-width step per row.  Rows within 10
    steps of a tan pole are not clear: neither Jacobian route reports a ratio
    there.  A row whose stencil reaches a saturated tanh raises DomainError."""
    if sig.saturates(np.abs(st).max(-1) + step).any():
        raise DomainError("noncompact chart saturates within the difference stencil: "
                          "tanh of a singular value of t B rounds to 1")
    return sig.pole_distance(st).min(-1) >= 10.0 * step


def _fd_spectrum(tangent: TangentCoord, t: float) -> np.ndarray:
    """Descending singular values of the central-difference Jacobian of the
    chart map at t B, with _probe_clear's guard: ChartEscapeError near a tan
    pole, DomainError where a noncompact tanh saturates.  It takes one time,
    through tangent._at, as geodesic_group does."""
    res, t = tangent._at(t)
    bt = t * tangent.b
    step = float(_stencil_step(np.linalg.norm(bt)))
    if not _probe_clear(t * res.s[None], step, tangent._sig)[0]:
        raise ChartEscapeError("evaluation point too close to a tan pole for finite differences")
    n, m = tangent.shape

    def chart_map(x: np.ndarray) -> np.ndarray:
        # rows of interleaved (re, im) coordinates are (k, n, m) complex stacks
        stack = kernel.svd(np.ascontiguousarray(x).view(np.complex128).reshape(-1, n, m))
        z = stack.apply(_exp0_values(stack, tangent._sig))
        return z.reshape(len(x), -1).view(np.float64)

    jac = kernel.fd_jacobian(chart_map, kernel.realvec(bt), step=step)
    return kernel._svdvals(jac)


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
    stencil reaches a saturated tanh raises DomainError.  An array of times,
    or a time that _resolvable_times refuses, raises ValueError.  This is the
    independent route to jacobian_spectrum's closed form.
    """
    svs = _fd_spectrum(tangent, t)
    ratio = float(svs[-1] / svs[0])
    return JacobianProbe(t=float(t), min_sv=float(svs[-1]), max_sv=float(svs[0]),
                         ratio=ratio, is_conjugate=ratio < CONJUGATE_TOL,
                         indeterminate=CONJUGATE_TOL <= ratio < 10.0 * CONJUGATE_TOL)


def _spectrum_stack(st: np.ndarray, sig, n: int, m: int) -> np.ndarray:
    """The distinct values of jacobian_spectrum on the signature record sig,
    unsorted, for each row of st, the r singular values of t B over a stack of
    times, one column per root and zero weight of _root_table(n, m); rows that
    _probe_clear rejects are nan.  Per root, |S(alpha(x))| / (c(x_a) c(x_b))
    on x padded with x_r = 0, with S(y) = sn(y)/y, c = cs and c(0) = 1; then
    the r flat values S(0) / c(x_a)^2."""
    clear = _probe_clear(st, _stencil_step(np.linalg.norm(st, axis=-1)), sig)
    _, a, b, sign, mult = _root_table(n, m)
    x = np.concatenate([st[clear], np.zeros((np.count_nonzero(clear), 1))], axis=1)
    y = x[:, a] + sign * x[:, b]
    vals = np.divide(sig.sn(y), y, out=np.ones_like(y), where=y != 0.0)
    cx = sig.cs(x)
    vals /= cx[:, a] * cx[:, b]
    out = np.full((st.shape[0], mult.size), np.nan)
    out[clear] = np.abs(vals)
    return out


def jacobian_spectrum(tangent: TangentCoord, t) -> np.ndarray:
    """Exact singular values, descending, of the differential of the chart
    map B -> exp0(B) at t B: the quantity conjugate_test_jacobian measures
    by finite differences.

    The map commutes with B -> U B V* for unitary U, V, which act
    orthogonally on real coordinates, so the spectrum depends only on the
    singular values x of t B.  It consists of the Daleckii-Krein divided
    differences of g = tan (tanh for the noncompact dual), repeated by the
    multiplicities of _root_table, 2nm values in all: g'(x_a) per zero
    weight and (g(x_a) + sign g(x_b))/alpha(x) per root, with x_r = 0.  As
    tan a -/+ tan b = sin(a -/+ b)/(cos a cos b), and likewise for tanh, each
    is |S(alpha(x))/(c(x_a) c(x_b))| with S(y) = sin(y)/y (sinh(y)/y) and
    c = cos (cosh), with no cancellation, so coincident and zero x are
    exact.  A zero of S(t alpha(h)) is a conjugate point.

    t may be a scalar, giving a (2nm,) array, or a 1-D array of times,
    giving a (k, 2nm) stack.  Times within 10 stencil steps of a tan pole,
    where the finite-difference route raises ChartEscapeError, give nan
    rows; noncompact times whose chart image saturates raise DomainError,
    and times that _resolvable_times refuses raise ValueError.
    """
    n, m = tangent.shape
    s = tangent._svd().s
    ts = _resolvable_times(t, s[0])
    vals = _spectrum_stack(ts.reshape(-1, 1) * s, tangent._sig, n, m)
    vals = np.repeat(vals, _root_table(n, m)[-1], axis=-1)  # by multiplicity
    return -np.sort(-vals, axis=-1).reshape(ts.shape + (-1,))


class ConjugateClass(kernel._Record):
    """Angle-based classification of a conjugate point candidate, with the
    angles against the origin of the geodesic plane at the probed time."""

    __slots__ = _fields = ("label", "angles", "jacobian_ratio")

    def __init__(self, label: str, angles: AngleSpectrum, jacobian_ratio: float):
        self.label, self.angles, self.jacobian_ratio = label, angles, jacobian_ratio


def _classify_stack(n: int, m: int, sig, s: np.ndarray, ts: np.ndarray):
    """classify_conjugate at each time of the 1-D array ts, on an n x m
    tangent B of the signature record sig with the min(n, m) singular values
    s, descending: labels (k,), angles (k, n) descending per row, and
    Jacobian ratios (k,).  The angles are the Cartan closed form: the
    signature's fold of t s for each singular value s (into [0, pi/2];
    arctan(tanh(t s)) on the dual), and n - r zeros."""
    r = min(n, m)
    st = ts[:, None] * s
    angles = _descending_angles(np.concatenate([sig.fold(st), np.zeros((ts.size, n - r))], axis=1))
    wong = (angles[:, 0] >= np.pi / 2 - ANGLE_TOL) | (angles[:, r - 1] <= ANGLE_TOL)
    gaps = angles[:, :r - 1] - angles[:, 1:r]
    interior = gaps.min(axis=1, initial=np.inf) <= ANGLE_TOL
    labels = np.where(wong, "wong", np.where(interior, "interior", "none"))
    spectrum = _spectrum_stack(st, sig, n, m)
    return labels, angles, spectrum.min(axis=1) / spectrum.max(axis=1)


def classify_conjugate(tangent: TangentCoord, t: float) -> ConjugateClass:
    """Classify the geodesic point at time t by its stationary angles.

    A boundary point ("wong") has an angle at pi/2 or a vanishing smallest
    essential angle; an interior coincidence ("interior") has two of the top
    min(n, m) angles equal, each within ANGLE_TOL.  Boundary takes
    precedence.  The extreme ratio of jacobian_spectrum at the same point is
    attached, or nan within 10 stencil steps of a tan pole, where the
    finite-difference route cannot read it.  This is the stacked scan path
    on a stack of one; stationary_angles_svd of geodesic_group checks it.
    ValueError for an array of times, or a t that _resolvable_times refuses,
    as the scan refuses its grid.
    """
    res, t = tangent._at(t)
    labels, angles, ratios = _classify_stack(*tangent.shape, tangent._sig, res.s, t.reshape(1))
    return ConjugateClass(label=str(labels[0]), angles=AngleSpectrum(angles[0]),
                          jacobian_ratio=float(ratios[0]))
