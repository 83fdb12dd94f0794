"""Randomized property suite and conjugate locus scanner.

Every invariant the package relies on is expressed as a named property with
its own tolerance.  Properties return a margin: the amount by which the worst
observation exceeded its allowance, so any value at or below zero is a pass.
Trials are driven by counter-based random streams keyed on (trial, property),
which makes reports reproducible bit for bit at a fixed seed regardless of
execution order.
"""
from __future__ import annotations

import json
import os
import stat
import sys
import time

import numpy as np

from . import kernel, loci, manifold
from .errors import ConsistencyError, GeometryError

LAMBDA_MAX = 2
_POLE_CLEARANCE = 0.05
_T_CAP = 40.0

# name -> (check, tolerance, trial cap) in suite order; a property's position
# in the suite keys its random stream
_PROPERTIES: dict[str, tuple] = {}


def _property(name: str, tol: float, cap: int | None = None):
    """Register a check with its tolerance and, where finite-difference
    Jacobians dominate its runtime, a cap on its trials.

    Tolerances are absolute, except that the two properties comparing
    unnormalized overlaps (which reach ~1e3) scale theirs by max(1, |overlap|).
    """
    def wrap(func):
        _PROPERTIES[name] = (func, tol, cap)
        return func
    return wrap


class SuiteConfig(kernel._Record):
    """Seed, trials per property and shape of a suite run; ValueError unless
    each is an integer, 0 <= seed < 2**128, trials is positive, and the
    shape passes manifold._shape."""

    __slots__ = _fields = ("seed", "trials", "n", "m")

    def __init__(self, seed: int = 0, trials: int = 20, n: int = 2, m: int = 2):
        self.seed, self.trials = kernel.as_index(seed, "seed"), kernel.as_index(trials, "trials")
        self.n, self.m = manifold._shape(n, m)
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must be in 0 <= seed < 2**128, got {self.seed}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")


class PropertyResult(kernel._Record):
    __slots__ = _fields = ("name", "passed", "trials", "worst_margin", "detail", "elapsed")

    def __init__(self, name: str, passed: bool, trials: int, worst_margin: float, detail: str,
                 elapsed: float):
        self.name, self.passed, self.trials = name, passed, trials
        self.worst_margin, self.detail, self.elapsed = worst_margin, detail, elapsed


class SuiteReport(kernel._Record):
    __slots__ = _fields = ("config", "results", "elapsed")

    def __init__(self, config: SuiteConfig, results: list, elapsed: float):
        self.config, self.results, self.elapsed = config, results, elapsed

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> int:
        return sum(not r.passed for r in self.results)

    def to_dict(self, include_timing: bool = True) -> dict:
        """Config and result fields in _fields order; elapsed times only with timing."""
        config = {name: getattr(self.config, name) for name in SuiteConfig._fields}
        shown = [name for name in PropertyResult._fields if include_timing or name != "elapsed"]
        out = {
            "config": {**config, "lambda_max": LAMBDA_MAX, "tolerances": dict(DEFAULT_TOLERANCES)},
            "results": [{name: getattr(r, name) for name in shown} for r in self.results],
            "passed": self.passed,
            "failures": self.failures,
        }
        if include_timing:
            out["elapsed"] = self.elapsed
        return out

    def to_text(self, include_timing: bool = True) -> str:
        lines = []
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            line = f"[{mark}] {r.name:<32} trials={r.trials:<3} worst_margin={r.worst_margin:+.3e}"
            if include_timing:
                line += f"  ({r.elapsed:.2f}s)"
            if r.detail:
                line += f"  {r.detail}"
            lines.append(line)
        verdict = "all properties passed" if self.passed else f"{self.failures} properties FAILED"
        lines.append(f"{len(self.results)} properties, {verdict}")
        return "\n".join(lines)


def _trial_rng(seed: int, trial: int, prop_index: int) -> np.random.Generator:
    bits = np.random.Philox(key=seed, counter=[trial, prop_index, 0, 0])
    return np.random.Generator(bits)


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run every property, in suite order, and collect a report."""
    start = time.perf_counter()
    results = []
    for prop_index, (name, (func, tol, cap)) in enumerate(_PROPERTIES.items()):
        trials = min(config.trials, cap or config.trials)
        t0 = time.perf_counter()
        worst = -np.inf
        detail = ""
        for trial in range(trials):
            rng = _trial_rng(config.seed, trial, prop_index)
            try:
                margin = float(func(rng, config, tol))
            except GeometryError as exc:
                worst = np.inf
                detail = f"trial {trial}: {type(exc).__name__}: {exc}"
                break
            if margin > worst:
                worst = margin
            if margin > 0.0 and not detail:
                detail = f"first failure at trial {trial}"
        results.append(PropertyResult(name=name, passed=worst <= 0.0, trials=trials,
                                      worst_margin=float(worst), detail=detail,
                                      elapsed=time.perf_counter() - t0))
    return SuiteReport(config=config, results=results,
                       elapsed=time.perf_counter() - start)


# ---------------------------------------------------------------- samplers

def _tangent(rng, n, m, size, norm, signature):
    """A Gaussian tangent whose np.linalg.norm of order norm (2 or None) is size."""
    b = manifold._complex_gaussian(rng, n, m)
    b *= size / np.linalg.norm(b, norm)
    return manifold.TangentCoord(b=b, signature=signature)


def _chart_pair(rng, n, m):
    z = manifold.haar_random_chart(n, m, rng)
    return manifold.haar_random_chart(n, m, rng), z


def _cut_plane(rng, n, m):
    """Random plane containing a direction orthogonal to the origin plane."""
    rows = manifold.hat_basis(manifold.haar_random_chart(n, m, rng))
    w = np.zeros(n + m, dtype=complex)
    w[n:] = manifold._complex_gaussian(rng, 1, m)[0]
    w /= np.linalg.norm(w)
    rows[n - 1] = w
    return manifold.Plane(rows)


def _cartan_tangent(rng, cfg, min_gap, min_entry):
    """A direction with gaps > min_gap and entries > min_entry, and its tangent:
    h_r = min_entry u_r and h_i = h_{i+1} + min_gap u_i with u ~ U(1, 2)^r, not
    normalized, since the checks read only t h and put their thresholds on t |h|."""
    r = min(cfg.n, cfg.m)
    u = rng.uniform(1.0, 2.0, r)
    steps = np.append(min_gap * u[:-1], min_entry * u[-1])
    h = np.cumsum(steps[::-1])[::-1]
    direction = loci.CartanDirection(h)
    return direction, loci.cartan_to_tangent(direction, cfg.n, cfg.m)


def _pole_clear(t, s, clearance, pole_distance):
    """Whether pole_distance puts every entry of t * s more than clearance from a pole."""
    return float(np.min(pole_distance(t * s))) > clearance


def _pole_safe_time(rng, tc, t_max):
    """A time drawn from (0.1, t_max) where the compact chart stays
    _POLE_CLEARANCE clear of every tan pole; the first draw for the dual."""
    svals = tc._svd().s
    for _ in range(64):
        t = rng.uniform(0.1, t_max)
        if _pole_clear(t, svals, _POLE_CLEARANCE, tc._sig.pole_distance):
            return t
    raise ConsistencyError("no pole-safe time found")


def _testable_radii(params, direction):
    """Conjugate times where the chart Jacobian can be probed: t |h| <= _T_CAP, t h pole-clear."""
    size = np.linalg.norm(direction.h)
    return [par for par in params if par.t * size <= _T_CAP and _pole_clear(
        par.t, direction.h, _POLE_CLEARANCE, manifold.tan_pole_distance)]


# ------------------------------------------------- chart and angle properties

def _chart_route_property(name, tol, route, reference):
    """Register the check that two routes (zp, z) -> values agree entrywise."""
    def check(rng, cfg, tol):
        zp, z = _chart_pair(rng, cfg.n, cfg.m)
        return float(np.max(np.abs(route(zp, z) - reference(zp, z)))) - tol
    _property(name, tol)(check)


def _roundtrip_property(name, tol, low, high, norm, signature):
    """Register the check that log0 undoes exp0 on a _tangent of size drawn
    from (low, high).  The image is rebuilt from its matrix, so log0 factors
    it afresh: exp0's point keeps the tangent's SVD, and log0 of that point
    would check only arctan of tan."""
    def check(rng, cfg, tol):
        tc = _tangent(rng, cfg.n, cfg.m, rng.uniform(low, high), norm, signature)
        back = manifold.log0(manifold.ChartPoint(manifold.exp0(tc).z, signature))
        return float(np.linalg.norm(back.b - tc.b)) - tol
    _property(name, tol)(check)


_chart_route_property("cayley-angle-product", 1e-10, manifold.cos_cayley,
                      lambda zp, z: manifold.stationary_angles_w(zp, z).cos_product())
_chart_route_property("angle-routes-agree", 1e-9,
                      lambda zp, z: manifold.stationary_angles_w(zp, z).angles,
                      lambda zp, z: manifold.stationary_angles_svd(
                          manifold.chart_to_plane(zp), manifold.chart_to_plane(z)).angles)


@_property("cauchy-binet-pairing", 1e-10)
def _prop_cauchy_binet(rng, cfg, tol):
    zp, z = _chart_pair(rng, cfg.n, cfg.m)
    lhs = manifold.plucker_pairing(manifold.plucker(manifold.chart_to_plane(z)),
                                   manifold.plucker(manifold.chart_to_plane(zp)))
    ov = manifold.overlap(zp, z)
    return abs(lhs - ov) - tol * max(1.0, abs(ov))


_roundtrip_property("exp-log-roundtrip", 1e-9, 0.05, np.pi / 2 - 0.11, 2, "compact")


@_property("angles-match-singular-values", 1e-9)
def _prop_angles_match_sv(rng, cfg, tol):
    tc = _tangent(rng, cfg.n, cfg.m, rng.uniform(0.05, 1.45), 2, "compact")
    svals = kernel._svdvals(tc.b)
    got = manifold.stationary_angles_svd(
        manifold.chart_to_plane(manifold.exp0(tc)),
        manifold.base_plane(cfg.n, cfg.m)).angles
    want = np.zeros_like(got)
    want[:svals.size] = svals
    return float(np.max(np.abs(got - want))) - tol


@_property("geodesic-ode-residual", 1e-4)
def _prop_ode_residual(rng, cfg, tol):
    worst = -np.inf
    for signature in ("compact", "noncompact"):
        tc = _tangent(rng, cfg.n, cfg.m, 1.0, None, signature)
        t = rng.uniform(0.1, 1.0)
        worst = max(worst, manifold.geodesic_residual(tc, t, step=1e-3))
    return worst - tol


@_property("group-chart-agreement", 1e-9)
def _prop_group_chart(rng, cfg, tol):
    tc = _tangent(rng, cfg.n, cfg.m, 1.0, None, "compact")
    t = _pole_safe_time(rng, tc, 2.5)
    via_group = manifold.plane_to_chart(manifold.geodesic_group(tc, t))
    # t B as a tangent of its own, at time 1: the chart route factors t B,
    # a second factorization, where geodesic_chart(tc, t) would scale tc's
    direct = manifold.geodesic_chart(manifold.TangentCoord(t * tc.b, "compact"), 1.0)
    return float(np.linalg.norm(via_group.z - direct.z)) - tol


@_property("overlap-symmetry-scaling", 1e-10)
def _prop_overlap_symmetry(rng, cfg, tol):
    zp, z = _chart_pair(rng, cfg.n, cfg.m)
    ov = manifold.overlap(zp, z)
    sym = abs(ov - np.conj(manifold.overlap(z, zp)))
    p = manifold.chart_to_plane(z)
    q = manifold.chart_to_plane(zp)
    t = manifold._complex_gaussian(rng, cfg.n, cfg.n) + 2.0 * np.eye(cfg.n)
    scaled = manifold.Plane(t @ p.basis)
    inv = abs(manifold.cos_cayley_planes(scaled, q) - manifold.cos_cayley_planes(p, q))
    return max(sym - tol * max(1.0, abs(ov)), inv - tol)


_roundtrip_property("noncompact-injectivity", 1e-9, 0.1, 2.5, None, "noncompact")


# ------------------------------------------------------- cut locus properties

def _cut_route_property(name, route):
    """Register the check of a cut route, plane -> bool: it puts the built cut
    plane in the locus and agrees with cut_locus_test on a Haar random plane
    (trivially for cut_locus_test itself, whose calls must merely not raise)."""
    def check(rng, cfg, tol):
        built = _cut_plane(rng, cfg.n, cfg.m)
        random = manifold.haar_random_plane(cfg.n, cfg.m, rng)
        ok = route(built)
        agree = route(random) == loci.cut_locus_test(random).in_locus
        return 0.0 if (ok and agree) else 1.0
    _property(name, kernel.RANK_TOL)(check)


_cut_route_property("cut-locus-polar-divisor", lambda plane: loci.cut_locus_test(plane).in_locus)
_cut_route_property("cayley-cut-criterion", loci.cayley_cut_check)
_cut_route_property("cut-locus-schubert-variety", lambda plane: loci.schubert_membership(
    plane, loci.cut_locus_symbol(plane.n, plane.big_n - plane.n), flag="perp"))


# ------------------------------------------------- conjugate locus properties

@_property("conjugate-radii-jacobian", loci.CONJUGATE_TOL, cap=6)
def _prop_conjugate_radii(rng, cfg, tol):
    direction, tc = _cartan_tangent(rng, cfg, min_gap=0.05, min_entry=0.1)
    params = loci.tangent_conjugate_params(direction, cfg.n, cfg.m, LAMBDA_MAX)
    worst = -np.inf
    for par in _testable_radii(params, direction):
        probe = loci.conjugate_test_jacobian(tc, par.t)
        worst = max(worst, probe.ratio - tol)

    horizon = loci.coverage_limit(direction, cfg.n, cfg.m, LAMBDA_MAX)
    times = sorted({par.t for par in params if par.t <= horizon})
    size = np.linalg.norm(direction.h)
    for ta, tb in zip(times, times[1:]):
        width = tb - ta
        mid = 0.5 * (ta + tb)
        # between a near-pole radius and a close neighbor the ratio dips for
        # an honest reason: sec^2 growth meets an adjacent zero.  Only gaps wide
        # enough in t |h| and pole-clear enough make a fair no-collapse check.
        if width * size < 0.5:
            continue
        if not _pole_clear(mid, direction.h, 0.15, manifold.tan_pole_distance):
            continue
        probe = loci.conjugate_test_jacobian(tc, mid)
        if probe.is_conjugate or probe.indeterminate:
            # a flat stretch of the ratio can sit near the threshold; nudge
            # the time before calling it a false conjugate point
            for nudge in (mid - 0.05 * width, mid + 0.05 * width):
                probe = loci.conjugate_test_jacobian(tc, nudge)
                if not (probe.is_conjugate or probe.indeterminate):
                    break
        if probe.is_conjugate:
            worst = max(worst, tol - probe.ratio)
    return worst


@_property("conjugate-class-angles", loci.ANGLE_TOL, cap=8)
def _prop_conjugate_classes(rng, cfg, tol):
    # labels from classify_conjugate, margins from the group-form plane
    direction, tc = _cartan_tangent(rng, cfg, min_gap=0.15, min_entry=0.2)
    r = direction.r
    origin = manifold.base_plane(cfg.n, cfg.m)
    worst = -np.inf
    if r > 1:
        pair_times = [par for par in loci.tangent_conjugate_params(direction, cfg.n, cfg.m, 1)
                      if par.q is not None]
        testable = _testable_radii(pair_times, direction)
        if not testable:
            raise ConsistencyError("no probe-safe pair radius for the sampled direction")
        t = testable[0].t
        if loci.classify_conjugate(tc, t).label != "interior":
            return 1.0
        top = manifold.stationary_angles_svd(manifold.geodesic_group(tc, t), origin).angles[:r]
        worst = max(worst, float(np.min(np.abs(np.diff(top)))) - tol)
    t = loci.cut_time(direction)
    if loci.classify_conjugate(tc, t).label != "wong":
        return 1.0
    boundary = manifold.stationary_angles_svd(manifold.geodesic_group(tc, t), origin)
    worst = max(worst, (np.pi / 2 - boundary.max_angle) - tol)
    return worst


@_property("noncompact-jacobian-floor", 1e-1, cap=4)
def _prop_noncompact_floor(rng, cfg, tol):
    tc = _tangent(rng, cfg.n, cfg.m, 0.5, None, "noncompact")
    worst_ratio = np.inf
    for _ in range(8):
        probe = loci.conjugate_test_jacobian(tc, rng.uniform(0.05, 3.0))
        worst_ratio = min(worst_ratio, probe.ratio)
    return tol - worst_ratio


@_property("schubert-sample-membership", kernel.RANK_TOL)
def _prop_schubert_samples(rng, cfg, tol):
    n, m = cfg.n, cfg.m
    w = np.sort(rng.integers(0, m + 1, size=n))
    w[0] = rng.integers(0, m)
    symbol = loci.SchubertSymbol(w=tuple(int(v) for v in np.sort(w)), m=m)
    sample = loci.schubert_generic_sample(symbol, rng, flag="chart")
    ok = loci.schubert_membership(sample, symbol, flag="chart")

    whole = loci.SchubertSymbol(w=(m,) * n, m=m)
    random = manifold.haar_random_plane(n, m, rng)
    ok = ok and loci.schubert_membership(random, whole)
    ok = ok and not loci.schubert_membership(random, symbol)
    return 0.0 if ok else 1.0


@_property("jacobian-spectrum-routes", 1e-6, cap=6)
def _prop_jacobian_spectrum(rng, cfg, tol):
    # the whole finite-difference spectrum against the closed form, relative
    # to the largest value, on a random non-diagonal tangent (one row zeroed
    # half the time, so rank-deficient) at a pole-clear time, both signatures
    worst = -np.inf
    for signature in ("compact", "noncompact"):
        b = manifold._complex_gaussian(rng, cfg.n, cfg.m)
        if cfg.n > 1 and rng.random() < 0.5:
            b[rng.integers(cfg.n)] = 0.0
        tc = manifold.TangentCoord(b / np.linalg.norm(b), signature)
        t = _pole_safe_time(rng, tc, 6.0)
        exact = loci.jacobian_spectrum(tc, t)
        measured = loci._fd_spectrum(tc, t)
        worst = max(worst, float(np.max(np.abs(measured - exact)) / exact[0]) - tol)
    return worst


REQUIRED_PROPERTIES = tuple(_PROPERTIES)
DEFAULT_TOLERANCES = {name: tol for name, (_, tol, _) in _PROPERTIES.items()}


# ------------------------------------------------------------------- scanner

SCAN_COLUMNS = ("t", "family", "p", "q", "lambda", "min_jac_sv", "max_angle",
                "second_angle", "overlap_abs", "class")


def scan_conjugate(direction: loci.CartanDirection, t_range: tuple[float, float],
                   steps: int, n: int, m: int, signature: str = "compact",
                   lambda_max: int = 2) -> list[dict]:
    """Sweep the geodesic with the given direction over a time grid.

    Each row records the Jacobian ratio, the two largest stationary angles
    against the origin, the normalized overlap (the product of the angles'
    cosines), the angle classification, and the predicted radius (family,
    indices, winding) of the nearest radius within half a grid step, the
    first in sorted order among radii at the same distance; of the windings
    1..lambda_max, only those that can reach the grid are built.  Rows
    within 1e-3 of a tan pole are marked class "pole" with an empty ratio;
    rows within 10 stencil steps of a pole keep their angle class and have
    an empty ratio.  The whole grid is evaluated as stacks through the code
    behind classify_conjugate, on the singular values of the direction's
    tangent, which are its entries padded with zeros, with no SVD.
    ValueError, before any stacked call: a steps, n, m or lambda_max that is
    not an integer, lambda_max below 1, for either signature, a direction
    longer than min(n, m), and a grid reaching so far that
    manifold._resolvable_times refuses t1.
    """
    t0, t1 = float(t_range[0]), float(t_range[1])
    steps = kernel.as_index(steps, "steps")
    if not (steps >= 2 and np.isfinite(t1) and t1 > t0 > 0.0):
        raise ValueError("need steps >= 2 and finite 0 < t0 < t1")
    lambda_max = loci._winding_cap(lambda_max, 1)
    manifold._resolvable_times(t1, direction.h[0])
    s = loci._padded(direction, n, m)[:-1]
    sig = manifold._check_signature(signature)
    grid = np.linspace(t0, t1, steps)
    half_step = 0.5 * (grid[1] - grid[0])
    pole = np.min(sig.pole_distance(grid[:, None] * direction.h), axis=1) < 1e-3
    labels, angles, ratios = loci._classify_stack(n, m, sig, s, grid)
    overlaps = np.prod(np.cos(angles), axis=1)
    family, p, q, lam = ([""] * steps for _ in range(4))
    match = np.full(steps, -1)
    if sig.compact:
        # a winding past reach puts every radius beyond the grid's last half
        # step, even on the largest root 2 h_1; one spare covers rounding
        reach = np.ceil((t1 + half_step) * 2.0 * direction.h[0] / np.pi) + 1.0
        ts, root, winding = loci._radii(direction, n, m, int(min(lambda_max, reach)))
        if ts.size:
            match = _nearest_radius(ts, grid, half_step)
    for i in np.flatnonzero(match >= 0).tolist():
        k = match[i]
        par = loci._radius_param(n, m, ts[k], int(root[k]), int(winding[k]))
        family[i], p[i], lam[i] = par.family, par.p, par.lam
        q[i] = par.q if par.q is not None else ""
    # an object array holds Python floats, so the blanks can sit beside them
    jac = np.where(~pole & np.isfinite(ratios), ratios.astype(object), "").tolist()
    second = angles[:, 1].tolist() if n > 1 else [""] * steps
    cols = (grid.tolist(), family, p, q, lam, jac, angles[:, 0].tolist(), second,
            overlaps.tolist(), np.where(pole, "pole", labels).tolist())
    return [dict(zip(SCAN_COLUMNS, vals)) for vals in zip(*cols)]


def _nearest_radius(ts: np.ndarray, grid: np.ndarray, half_step: float) -> np.ndarray:
    """For each grid time t, the index into the ascending radii ts of the
    radius nearest t if it lies within half_step, else -1; among radii at
    the same rounded distance |ts[k] - t|, the first in order.

    Rounded distances do not increase with k below t and do not decrease
    from the first radius at or above t, so the nearest lie on either side of
    that radius's searchsorted position, and the ties below t form a run
    that ends next to it.  The run is walked back to its first radius: equal
    radii, and distinct radii below t / 2 whose differences from t round to
    the same double, both tie.
    """
    above = np.searchsorted(ts, grid)
    below = above - 1
    top = ts.size - 1
    d_above = np.where(above <= top, ts[np.minimum(above, top)] - grid, np.inf)
    d_below = np.where(below >= 0, grid - ts[below], np.inf)
    lower = d_below <= d_above
    pick = np.where(lower, below, above)
    dist = np.where(lower, d_below, d_above)
    while True:
        prev = pick - 1
        tied = lower & (prev >= 0) & (grid - ts[prev] == dist)
        if not tied.any():
            return np.where(dist <= half_step, pick, -1)
        pick[tied] = prev[tied]


def _write_file(path: str, text: str) -> None:
    """Write text to path, overwriting an existing file in place.

    The file is opened without O_TRUNC, written, and then cut to the length
    written.  Truncating a file to zero and writing it again makes ext4
    (auto_da_alloc, its default) write the data back when the file is
    closed, which cost more than a whole short scan; overwriting in place
    and cutting the end does not.  Opening the existing file keeps its
    inode, the symlink that led to it and its mode bits, as truncation by
    open() did.  The cut comes in finally and at the bytes written so far,
    so no tail of a longer earlier file survives, even a failed write.  Only
    a regular file is cut: a pipe, terminal or /dev/null has no tail, and
    ftruncate fails on it.  A path open on the same file as standard output,
    such as /dev/stdout, is written through sys.stdout instead, after what
    was printed before and with nothing cut: a descriptor of its own would
    start at offset 0 and overwrite that output.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        to_stdout = os.path.sameopenfile(fd, sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        to_stdout = False  # sys.stdout has no descriptor, as under output capture
    if to_stdout:
        os.close(fd)
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    data = memoryview(text.encode())
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def write_scan_csv(rows: list[dict], path: str) -> None:
    """Write scan rows to path as the bytes csv.DictWriter writes in the
    default dialect: CRLF line ends, and no quoting, which floats, ints and
    the fixed family and class labels never need.  A row whose keys are not
    exactly SCAN_COLUMNS raises ValueError before anything is written."""
    columns = set(SCAN_COLUMNS)
    for i, row in enumerate(rows):
        if row.keys() != columns:
            raise ValueError(f"scan row {i} has columns {sorted(row)}, not {list(SCAN_COLUMNS)}")
    lines = [",".join([str(row[c]) for c in SCAN_COLUMNS]) for row in rows]
    _write_file(path, "\r\n".join([",".join(SCAN_COLUMNS), *lines, ""]))


def report_json(report: SuiteReport, include_timing: bool = True) -> str:
    return json.dumps(report.to_dict(include_timing=include_timing), indent=2,
                      sort_keys=False)
