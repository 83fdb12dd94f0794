"""Randomized property suite and conjugate locus scanner.

Every invariant the package relies on is expressed as a named property with
its own tolerance.  Properties return a margin: the amount by which the worst
observation exceeded its allowance, so any value at or below zero is a pass.
Trials are driven by counter-based random streams keyed on (trial, property),
which makes reports reproducible bit for bit at a fixed seed regardless of
execution order.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass

import numpy as np

from . import loci, manifold
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


@dataclass(slots=True)
class SuiteConfig:
    seed: int = 0
    trials: int = 20
    n: int = 2
    m: int = 2

    def __post_init__(self):
        if self.trials < 1 or self.n < 1 or self.m < 1:
            raise ValueError("trials, n, and m must all be positive")


@dataclass(slots=True)
class PropertyResult:
    name: str
    passed: bool
    trials: int
    worst_margin: float
    detail: str
    elapsed: float


@dataclass(slots=True)
class SuiteReport:
    config: SuiteConfig
    results: list
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> int:
        return sum(not r.passed for r in self.results)

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "config": {
                "seed": self.config.seed,
                "trials": self.config.trials,
                "n": self.config.n,
                "m": self.config.m,
                "lambda_max": LAMBDA_MAX,
                "tolerances": dict(DEFAULT_TOLERANCES),
            },
            "results": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "trials": r.trials,
                    "worst_margin": r.worst_margin,
                    "detail": r.detail,
                    **({"elapsed": r.elapsed} if include_timing else {}),
                }
                for r in self.results
            ],
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
        passed = True
        for trial in range(trials):
            rng = _trial_rng(config.seed, trial, prop_index)
            try:
                margin = float(func(rng, config, tol))
            except GeometryError as exc:
                passed = False
                worst = np.inf
                detail = f"trial {trial}: {type(exc).__name__}: {exc}"
                break
            if margin > worst:
                worst = margin
            if margin > 0.0 and not detail:
                detail = f"first failure at trial {trial}"
        if worst > 0.0:
            passed = False
        results.append(PropertyResult(name=name, passed=passed, trials=trials,
                                      worst_margin=float(worst), detail=detail,
                                      elapsed=time.perf_counter() - t0))
    return SuiteReport(config=config, results=results,
                       elapsed=time.perf_counter() - start)


# ---------------------------------------------------------------- samplers

def _complex_gaussian(rng, n, m):
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _tangent_with_top_sv(rng, n, m, smax, signature="compact"):
    b = _complex_gaussian(rng, n, m)
    b *= smax / np.linalg.svd(b, compute_uv=False)[0]
    return manifold.TangentCoord(b=b, signature=signature)


def _tangent_with_norm(rng, n, m, fro, signature="compact"):
    b = _complex_gaussian(rng, n, m)
    b *= fro / np.linalg.norm(b)
    return manifold.TangentCoord(b=b, signature=signature)


def _chart_pair(rng, n, m, min_overlap=0.0):
    for _ in range(64):
        z = manifold.haar_random_chart(n, m, rng)
        zp = manifold.haar_random_chart(n, m, rng)
        if abs(manifold.overlap(zp, z)) > min_overlap:
            return zp, z
    raise ConsistencyError("could not sample a chart pair with usable overlap")


def _cut_plane(rng, n, m):
    """Random plane containing a direction orthogonal to the origin plane."""
    rows = manifold.hat_basis(manifold.haar_random_chart(n, m, rng))
    w = np.zeros(n + m, dtype=complex)
    w[n:] = _complex_gaussian(rng, 1, m)[0]
    w /= np.linalg.norm(w)
    rows[n - 1] = w
    return manifold.Plane(rows)


def _unit_direction(rng, r, min_gap=0.0, min_entry=0.0):
    for _ in range(256):
        h = np.sort(np.abs(rng.standard_normal(r)))[::-1]
        h /= np.linalg.norm(h)
        if h[-1] <= min_entry:
            continue
        if r > 1 and float(np.min(h[:-1] - h[1:])) <= min_gap:
            continue
        return loci.CartanDirection(h)
    raise ConsistencyError("could not sample a separated unit direction")


def _pole_safe_time(rng, tc, t_max):
    """A time drawn from (0.1, t_max) where the compact chart stays
    _POLE_CLEARANCE clear of every tan pole; the first draw for the dual."""
    svals = np.linalg.svd(tc.b, compute_uv=False)
    for _ in range(64):
        t = rng.uniform(0.1, t_max)
        if (tc.signature == "noncompact"
                or float(np.min(manifold.tan_pole_distance(t * svals))) > _POLE_CLEARANCE):
            return t
    raise ConsistencyError("no pole-safe time found")


def _testable_radii(params, direction, t_cap=_T_CAP):
    """Conjugate times where the chart Jacobian can actually be probed."""
    out = []
    for par in params:
        if par.t > t_cap:
            continue
        dist = float(np.min(manifold.tan_pole_distance(par.t * direction.h)))
        if dist > _POLE_CLEARANCE:
            out.append(par)
    return out


# ------------------------------------------------- chart and angle properties

@_property("cayley-angle-product", 1e-10)
def _prop_cayley_angle_product(rng, cfg, tol):
    zp, z = _chart_pair(rng, cfg.n, cfg.m, min_overlap=1e-6)
    lhs = manifold.cos_cayley(zp, z)
    rhs = manifold.stationary_angles_w(zp, z).cos_product()
    return abs(lhs - rhs) - tol


@_property("angle-routes-agree", 1e-9)
def _prop_angle_routes(rng, cfg, tol):
    zp, z = _chart_pair(rng, cfg.n, cfg.m, min_overlap=1e-6)
    a = manifold.stationary_angles_w(zp, z).angles
    b = manifold.stationary_angles_svd(manifold.chart_to_plane(zp),
                                       manifold.chart_to_plane(z)).angles
    return float(np.max(np.abs(a - b))) - tol


@_property("cauchy-binet-pairing", 1e-10)
def _prop_cauchy_binet(rng, cfg, tol):
    zp, z = _chart_pair(rng, cfg.n, cfg.m)
    lhs = manifold.plucker_pairing(manifold.plucker(manifold.chart_to_plane(z)),
                                   manifold.plucker(manifold.chart_to_plane(zp)))
    ov = manifold.overlap(zp, z)
    return abs(lhs - ov) - tol * max(1.0, abs(ov))


@_property("exp-log-roundtrip", 1e-9)
def _prop_exp_log(rng, cfg, tol):
    smax = rng.uniform(0.05, np.pi / 2 - 0.11)
    tc = _tangent_with_top_sv(rng, cfg.n, cfg.m, smax)
    back = manifold.log0(manifold.exp0(tc))
    return float(np.linalg.norm(back.b - tc.b)) - tol


@_property("angles-match-singular-values", 1e-9)
def _prop_angles_match_sv(rng, cfg, tol):
    smax = rng.uniform(0.05, 1.45)
    tc = _tangent_with_top_sv(rng, cfg.n, cfg.m, smax)
    svals = np.sort(np.linalg.svd(tc.b, compute_uv=False))[::-1]
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
        tc = _tangent_with_norm(rng, cfg.n, cfg.m, 1.0, signature)
        t = rng.uniform(0.1, 1.0)
        worst = max(worst, manifold.geodesic_residual(tc, t, step=1e-3))
    return worst - tol


@_property("group-chart-agreement", 1e-9)
def _prop_group_chart(rng, cfg, tol):
    tc = _tangent_with_norm(rng, cfg.n, cfg.m, 1.0)
    t = _pole_safe_time(rng, tc, 2.5)
    via_group = manifold.plane_to_chart(manifold.geodesic_group(tc, t))
    direct = manifold.geodesic_chart(tc, t)
    return float(np.linalg.norm(via_group.z - direct.z)) - tol


@_property("overlap-symmetry-scaling", 1e-10)
def _prop_overlap_symmetry(rng, cfg, tol):
    zp, z = _chart_pair(rng, cfg.n, cfg.m)
    ov = manifold.overlap(zp, z)
    sym = abs(ov - np.conj(manifold.overlap(z, zp)))
    p = manifold.chart_to_plane(z)
    q = manifold.chart_to_plane(zp)
    t = _complex_gaussian(rng, cfg.n, cfg.n) + 2.0 * np.eye(cfg.n)
    scaled = manifold.Plane(t @ p.basis)
    inv = abs(manifold.cos_cayley_planes(scaled, q) - manifold.cos_cayley_planes(p, q))
    return max(sym - tol * max(1.0, abs(ov)), inv - tol)


@_property("noncompact-injectivity", 1e-9)
def _prop_noncompact_injectivity(rng, cfg, tol):
    fro = rng.uniform(0.1, 2.5)
    tc = _tangent_with_norm(rng, cfg.n, cfg.m, fro, "noncompact")
    back = manifold.log0(manifold.exp0(tc))
    return float(np.linalg.norm(back.b - tc.b)) - tol


# ------------------------------------------------------- cut locus properties

@_property("cut-locus-polar-divisor", loci.ANGLE_TOL)
def _prop_cut_polar(rng, cfg, tol):
    built = loci.cut_locus_test(_cut_plane(rng, cfg.n, cfg.m))
    random = loci.cut_locus_test(manifold.haar_random_plane(cfg.n, cfg.m, rng))
    del random  # must merely not raise: both routes agreed on the sample
    return 0.0 if built.in_locus else 1.0


@_property("cayley-cut-criterion", loci.CAYLEY_TOL)
def _prop_cayley_cut(rng, cfg, tol):
    built = _cut_plane(rng, cfg.n, cfg.m)
    random = manifold.haar_random_plane(cfg.n, cfg.m, rng)
    ok = loci.cayley_cut_check(built)
    agree = loci.cayley_cut_check(random) == loci.cut_locus_test(random).in_locus
    return 0.0 if (ok and agree) else 1.0


@_property("cut-locus-schubert-variety", 1e-9)
def _prop_cut_schubert(rng, cfg, tol):
    symbol = loci.cut_locus_symbol(cfg.n, cfg.m)
    built = _cut_plane(rng, cfg.n, cfg.m)
    random = manifold.haar_random_plane(cfg.n, cfg.m, rng)
    ok = loci.schubert_membership(built, symbol, tol=tol, flag="perp")
    agree = (loci.schubert_membership(random, symbol, tol=tol, flag="perp")
             == loci.cut_locus_test(random).in_locus)
    return 0.0 if (ok and agree) else 1.0


# ------------------------------------------------- conjugate locus properties

@_property("conjugate-radii-jacobian", loci.CONJUGATE_TOL, cap=6)
def _prop_conjugate_radii(rng, cfg, tol):
    r = min(cfg.n, cfg.m)
    direction = _unit_direction(rng, r, min_gap=0.05, min_entry=0.1)
    tc = loci.cartan_to_tangent(direction, cfg.n, cfg.m)
    params = loci.tangent_conjugate_params(direction, cfg.n, cfg.m, LAMBDA_MAX)
    testable = _testable_radii(params, direction)
    worst = -np.inf
    for par in testable:
        probe = loci.conjugate_test_jacobian(tc, par.t)
        worst = max(worst, probe.ratio - tol)

    horizon = loci.coverage_limit(direction, cfg.n, cfg.m, LAMBDA_MAX)
    times = sorted({par.t for par in params if par.t <= horizon})
    for ta, tb in zip(times, times[1:]):
        width = tb - ta
        mid = 0.5 * (ta + tb)
        # between a near-pole radius and a close neighbor the ratio dips for
        # an honest reason: sec^2 growth meets an adjacent zero.  Only gaps
        # wide enough and pole-clear enough make a fair no-collapse check.
        if width < 0.5:
            continue
        if float(np.min(manifold.tan_pole_distance(mid * direction.h))) <= 0.15:
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
    r = min(cfg.n, cfg.m)
    direction = _unit_direction(rng, r, min_gap=0.15, min_entry=0.2)
    tc = loci.cartan_to_tangent(direction, cfg.n, cfg.m)
    worst = -np.inf
    if r > 1:
        pair_times = [par for par in
                      loci.tangent_conjugate_params(direction, cfg.n, cfg.m, 1)
                      if par.family in ("t1plus", "t1minus")]
        testable = _testable_radii(pair_times, direction)
        if not testable:
            raise ConsistencyError("no probe-safe pair radius for the sampled direction")
        par = testable[0]
        verdict = loci.classify_conjugate(tc, par.t)
        if verdict.label != "interior":
            return 1.0
        top = verdict.angles.angles[:r]
        worst = max(worst, float(np.min(np.abs(np.diff(top)))) - tol)
    boundary = loci.classify_conjugate(tc, np.pi / (2.0 * direction.h[0]))
    if boundary.label != "wong":
        return 1.0
    worst = max(worst, (np.pi / 2 - boundary.angles.max_angle) - tol)
    return worst


@_property("noncompact-jacobian-floor", 1e-1, cap=4)
def _prop_noncompact_floor(rng, cfg, tol):
    tc = _tangent_with_norm(rng, cfg.n, cfg.m, 0.5, "noncompact")
    worst_ratio = np.inf
    for _ in range(8):
        probe = loci.conjugate_test_jacobian(tc, rng.uniform(0.05, 3.0))
        worst_ratio = min(worst_ratio, probe.ratio)
    return tol - worst_ratio


@_property("schubert-sample-membership", 1e-9)
def _prop_schubert_samples(rng, cfg, tol):
    n, m = cfg.n, cfg.m
    w = np.sort(rng.integers(0, m + 1, size=n))
    w[0] = rng.integers(0, m)
    symbol = loci.SchubertSymbol(w=tuple(int(v) for v in np.sort(w)), m=m)
    sample = loci.schubert_generic_sample(symbol, rng, flag="chart")
    ok = loci.schubert_membership(sample, symbol, tol=tol, flag="chart")

    whole = loci.SchubertSymbol(w=(m,) * n, m=m)
    random = manifold.haar_random_plane(n, m, rng)
    ok = ok and loci.schubert_membership(random, whole, tol=tol)
    ok = ok and not loci.schubert_membership(random, symbol, tol=tol)
    return 0.0 if ok else 1.0


@_property("jacobian-spectrum-routes", 1e-6, cap=6)
def _prop_jacobian_spectrum(rng, cfg, tol):
    # the whole finite-difference spectrum against the closed form, relative
    # to the largest value, on a random non-diagonal tangent (one row zeroed
    # half the time, so rank-deficient) at a pole-clear time, both signatures
    worst = -np.inf
    for signature in ("compact", "noncompact"):
        b = _complex_gaussian(rng, cfg.n, cfg.m)
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
    against the origin, the normalized overlap, the angle classification, and
    the predicted radius (family, indices, winding) when one falls within
    half a grid step.  Rows within 1e-3 of a tan pole are marked class
    "pole" with an empty ratio; rows within 10 stencil steps of a pole keep
    their angle class and have an empty ratio.  The whole grid is evaluated
    as stacks through the code behind classify_conjugate, with one stacked
    rank test of the geodesic planes.
    """
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not (steps >= 2 and np.isfinite(t1) and t1 > t0 > 0.0):
        raise ValueError("need steps >= 2 and finite 0 < t0 < t1")
    tc = loci.cartan_to_tangent(direction, n, m, signature)
    origin = manifold.base_plane(n, m)
    params = (loci.tangent_conjugate_params(direction, n, m, lambda_max)
              if signature == "compact" else [])
    grid = np.linspace(t0, t1, steps)
    half_step = 0.5 * (grid[1] - grid[0])
    pole = np.zeros(steps, dtype=bool)
    if signature == "compact":
        pole = np.min(manifold.tan_pole_distance(grid[:, None] * direction.h), axis=1) < 1e-3
    labels, angles, ratios, bases = loci._classify_stack(tc, grid)
    manifold._check_bases(bases)
    overlaps = manifold._cos_cayley_stack(bases, origin.basis[None])
    rows = []
    for i, t in enumerate(grid.tolist()):
        row = {
            "t": t,
            "family": "", "p": "", "q": "", "lambda": "",
            "min_jac_sv": "",
            "max_angle": float(angles[i, 0]),
            "second_angle": float(angles[i, 1]) if n > 1 else "",
            "overlap_abs": float(overlaps[i]),
            "class": "pole" if pole[i] else str(labels[i]),
        }
        near = [par for par in params if abs(par.t - t) <= half_step]
        if near:
            par = min(near, key=lambda c: abs(c.t - t))
            row["family"], row["p"], row["lambda"] = par.family, par.p, par.lam
            row["q"] = par.q if par.q is not None else ""
        if not pole[i] and np.isfinite(ratios[i]):
            row["min_jac_sv"] = float(ratios[i])
        rows.append(row)
    return rows


def write_scan_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SCAN_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def report_json(report: SuiteReport, include_timing: bool = True) -> str:
    return json.dumps(report.to_dict(include_timing=include_timing), indent=2,
                      sort_keys=False)
