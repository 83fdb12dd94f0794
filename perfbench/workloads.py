"""The three workloads: inputs made from a seed, the timed call into the
program, and output checks that do not reuse the program's own routes.

Each workload is a sequence of cycles.  Cycle k draws its inputs from the
stream (seed, k) alone, so the same seed gives the same inputs, and a cycle
always holds the same mix of shapes, so a run's medians do not depend on
where the time limit cut the sequence.

Every workload has these methods: `cycle(seed, k)` makes the ops of one cycle,
`call(op)` is the timed call into the program, `outputs(op, raw)` reads the
program's result into plain data outside the timed region, and
`check(op, out)` returns a list of problems (empty when the output is right).
`perturb(op, out)` returns deliberately wrong copies of an output, which the
self-test feeds to `check` to prove that each check can fail.
"""
from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

ANGLE_TOL = 1e-10
# chart-layer results against the Cholesky-whitened Gram route, scaled by the
# conditioning of the hat bases
CHART_TOL = 1e-13
# the scan rows' classification: angle threshold of the labels, distance from
# a tan pole below which a row is a pole row, and pole distances in stencil
# steps below which the Jacobian must be absent and above which it is checked
CLASS_TOL = 1e-6
POLE_ROW_DIST = 1e-3
ESCAPE_STEPS = (5.0, 100.0)
# central differences against the closed-form ratio
RATIO_RTOL = 1e-3
RATIO_ATOL = 1e-7
PAIRING_RTOL = 1e-12
PAIRING_ATOL = 1e-15


@dataclass
class Op:
    kind: str
    n: int
    m: int
    units: int
    params: dict


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


class Workload:
    name: str
    unit: str
    trace_cycles: int  # cycles in the fixed op list of a traced run

    def __init__(self, gg, workdir: str):
        self.gg = gg
        self.workdir = workdir

    def notes(self) -> str:
        return ""


# ------------------------------------------------------------------- scan

def expected_angles(t: float, h: np.ndarray, n: int, signature: str) -> np.ndarray:
    """Stationary angles against the origin of the geodesic with diagonal
    direction h at time t, descending: fold(t h) in the compact case, the
    distance from t h to the nearest multiple of pi, and arctan(tanh(t h)) in
    the noncompact case; rows beyond h carry angle 0."""
    x = t * h
    if signature == "compact":
        a = np.abs(x - np.pi * np.rint(x / np.pi))
    else:
        a = np.arctan(np.tanh(x))
    out = np.zeros(n)
    out[:a.size] = a
    return np.sort(out)[::-1]


def pole_distance(x: np.ndarray) -> float:
    """Smallest distance from the entries of x to a pole of tan, pi/2 + k pi."""
    y = np.asarray(x) - 0.5 * np.pi
    return float(np.min(np.abs(y - np.pi * np.rint(y / np.pi))))


def expected_ratio(t: float, h: np.ndarray, signature: str) -> float:
    """Extreme singular value ratio of the differential of the chart map
    B -> B f(|B|)/|B| at t B, with f = tan or tanh and B diagonal with entries
    h.  With x = t h, the differential acts on the real coordinates with
    singular values |f'(x_i)|, |f(x_i)/x_i| and, for i < j,
    |(f(x_i) + f(x_j)) / (x_i + x_j)| and |(f(x_i) - f(x_j)) / (x_i - x_j)|."""
    x = t * np.asarray(h, dtype=float)
    if signature == "compact":
        f, df = np.tan(x), 1.0 / np.cos(x) ** 2
    else:
        f, df = np.tanh(x), 1.0 / np.cosh(x) ** 2
    i, j = np.triu_indices(x.size, 1)
    svs = np.abs(np.concatenate([df, f / x, (f[i] + f[j]) / (x[i] + x[j]),
                                 (f[i] - f[j]) / (x[i] - x[j])]))
    return float(svs.min() / svs.max())


def expected_class(want: np.ndarray, r: int) -> str | None:
    """Angle classification of a row from its expected angles: "wong" with an
    angle at pi/2 or a vanishing r-th angle, else "interior" with two equal
    angles among the top r, else "none".  None when the angles lie so near a
    threshold that either label is right."""
    labels = set()
    for tol in (0.5 * CLASS_TOL, 2.0 * CLASS_TOL):
        if want[0] >= np.pi / 2 - tol or want[r - 1] <= tol:
            labels.add("wong")
        elif r > 1 and float(np.min(want[:r - 1] - want[1:r])) <= tol:
            labels.add("interior")
        else:
            labels.add("none")
    return labels.pop() if len(labels) == 1 else None


def check_scan(op: Op, out: dict) -> list[str]:
    p = op.params
    problems = []
    if out["code"] != 0:
        problems.append(f"exit code {out['code']}")
    if out["reported_rows"] != p["steps"] or len(out["rows"]) != p["steps"]:
        problems.append(f"expected {p['steps']} rows, got {out['reported_rows']} "
                        f"reported and {len(out['rows'])} written")
    compact = p["signature"] == "compact"
    r = p["h"].size
    poles = escapes = 0
    for i, row in enumerate(out["rows"]):
        t = float(row["t"])
        want = expected_angles(t, p["h"], op.n, p["signature"])
        got = [float(row["max_angle"])]
        if op.n > 1:
            got.append(float(row["second_angle"]))
        err = float(np.max(np.abs(np.asarray(got) - want[:len(got)])))
        if not err <= ANGLE_TOL:
            problems.append(f"row {i}: angles off by {err:.3e}")
        overlap_err = abs(float(row["overlap_abs"]) - float(np.prod(np.cos(want))))
        if not overlap_err <= ANGLE_TOL:
            problems.append(f"row {i}: overlap_abs off by {overlap_err:.3e}")

        # a grid point within 1e-3 of a tan pole is a pole row; elsewhere the
        # stencil of half-width `step` must stay clear of the poles
        dist = pole_distance(t * p["h"]) if compact else np.inf
        if abs(dist - POLE_ROW_DIST) > 1e-9:
            want_pole = dist < POLE_ROW_DIST
            if (row["class"] == "pole") != want_pole:
                problems.append(f"row {i}: class {row['class']!r} at pole distance {dist:.3e}")
        if row["class"] == "pole":
            poles += 1
            if row["min_jac_sv"] != "":
                problems.append(f"row {i}: pole row carries min_jac_sv {row['min_jac_sv']}")
            continue
        label = expected_class(want, r)
        if label is not None and row["class"] != label:
            problems.append(f"row {i}: class {row['class']!r}, expected {label!r}")
        step = 1e-5 * max(1.0, t * float(np.linalg.norm(p["h"])))
        if row["min_jac_sv"] == "":
            escapes += 1
            if dist >= ESCAPE_STEPS[1] * step:
                problems.append(f"row {i}: no min_jac_sv at pole distance {dist:.3e}, "
                                f"{dist / step:.3g} stencil steps")
            continue
        if dist < ESCAPE_STEPS[0] * step:
            problems.append(f"row {i}: min_jac_sv at pole distance {dist:.3e}, inside the stencil")
        elif dist >= ESCAPE_STEPS[1] * step:
            ratio = expected_ratio(t, p["h"], p["signature"])
            if not abs(float(row["min_jac_sv"]) - ratio) <= RATIO_RTOL * ratio + RATIO_ATOL:
                problems.append(f"row {i}: min_jac_sv {row['min_jac_sv']} vs closed form {ratio:.10g}")
    if p["window"] == "pole" and not poles:
        problems.append("no pole row in a window across a tan pole")
    if p["window"] == "escape" and not escapes:
        problems.append("no row without min_jac_sv in a window whose stencil reaches a pole")
    return problems


class ScanWorkload(Workload):
    """`conj-scan` invocations through `grassgeo.cli.main`, in process.

    Each cycle is four invocations whose row counts make them cost about the
    same, so latency percentiles do not sit on a boundary between shapes:
      - (2,2) compact, one grid point exactly on a tan pole (a `pole` row);
      - (3,5) compact, one grid point 1.5e-3 from a pole at t|h| >= 18, where
        the Jacobian stencil reaches the pole and raises ChartEscapeError;
      - (4,6) compact, one grid point on a pole;
      - (3,5) noncompact.
    """

    name = "scan"
    unit = "rows"
    trace_cycles = 30
    SPECS = (  # n, m, signature, steps, window
        (2, 2, "compact", 32, "pole"),
        (3, 5, "compact", 13, "escape"),
        (4, 6, "compact", 9, "pole"),
        (3, 5, "noncompact", 12, "plain"),
    )

    def __init__(self, gg, workdir: str):
        super().__init__(gg, workdir)
        self.pole_rows = 0

    def notes(self) -> str:
        return f", pole rows {self.pole_rows}"

    @staticmethod
    def _direction(rng, r: int) -> np.ndarray:
        while True:
            h = np.sort(rng.uniform(0.3, 1.0, r))[::-1]
            if r == 1 or float(np.min(h[:-1] - h[1:])) > 0.05:
                return h

    def cycle(self, seed: int, k: int) -> list[Op]:
        rng = _rng(seed, k)
        ops = []
        for i, (n, m, signature, steps, window) in enumerate(self.SPECS):
            h = self._direction(rng, min(n, m))
            if window == "plain":
                t0 = rng.uniform(0.1, 0.5)
                t1 = t0 + rng.uniform(2.0, 4.0)
            else:
                if window == "pole":
                    centre = 1.5 * np.pi / h[0]
                else:
                    while True:
                        norm = float(np.linalg.norm(h))
                        winding = int(np.ceil((18.0 * h[0] / norm - 0.5 * np.pi) / np.pi))
                        centre = ((winding + 0.5) * np.pi + 1.5e-3) / h[0]
                        # another entry within 1e-3 of a pole there would make
                        # the escape row a pole row
                        if h.size == 1 or pole_distance(centre * h[1:]) >= 0.01:
                            break
                        h = self._direction(rng, min(n, m))
                dt = rng.uniform(0.05, 0.1)
                j = int(rng.integers(steps // 4, 3 * steps // 4 + 1))
                t0 = centre - j * dt
                t1 = t0 + (steps - 1) * dt
            path = os.path.join(self.workdir, f"scan{i}.csv")
            argv = ["conj-scan", "--h", ",".join(repr(float(v)) for v in h),
                    "--n", str(n), "--m", str(m), "--t0", repr(float(t0)),
                    "--t1", repr(float(t1)), "--steps", str(steps),
                    "--signature", signature, "--out", path]
            ops.append(Op("scan", n, m, steps, {"h": h, "signature": signature,
                                                "steps": steps, "window": window,
                                                "argv": argv, "path": path}))
        return ops

    def call(self, op: Op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.gg.cli.main(op.params["argv"])
        return code, buf.getvalue()

    def outputs(self, op: Op, raw) -> dict:
        code, text = raw
        try:
            reported = json.loads(text)["rows"]
        except (ValueError, KeyError, TypeError):
            reported = None
        rows = []
        if code == 0:
            with open(op.params["path"], newline="") as fh:
                rows = list(csv.DictReader(fh))
        self.pole_rows += sum(row["class"] == "pole" for row in rows)
        return {"code": code, "reported_rows": reported, "rows": rows}

    def check(self, op: Op, out: dict) -> list[str]:
        return check_scan(op, out)

    def perturb(self, op: Op, out: dict) -> list[tuple[str, dict]]:
        bad = []
        for column, delta in (("max_angle", 1e-6), ("second_angle", -1e-6),
                              ("overlap_abs", 1e-6)):
            wrong = copy.deepcopy(out)
            row = wrong["rows"][len(wrong["rows"]) // 2]
            row[column] = repr(float(row[column]) + delta)
            bad.append((f"{column} {delta:+.0e}", wrong))
        # the row farthest from a conjugate point or pole has the largest ratio
        rows = out["rows"]
        far = max((i for i, row in enumerate(rows) if row["min_jac_sv"] != ""),
                  key=lambda i: float(rows[i]["min_jac_sv"]))
        for label, change in (
                ("min_jac_sv +10%", {"min_jac_sv": repr(float(rows[far]["min_jac_sv"]) * 1.1 + 1e-6)}),
                ("min_jac_sv missing", {"min_jac_sv": ""}),
                ("class relabelled", {"class": "none" if rows[far]["class"] == "interior"
                                      else "interior"})):
            wrong = copy.deepcopy(out)
            wrong["rows"][far].update(change)
            bad.append((label, wrong))
        poles = [i for i, row in enumerate(rows) if row["class"] == "pole"]
        if poles:
            wrong = copy.deepcopy(out)
            wrong["rows"][poles[0]]["class"] = "none"
            bad.append(("pole row relabelled", wrong))
        if op.params["window"] == "escape":
            wrong = copy.deepcopy(out)
            for row in wrong["rows"]:
                if row["class"] != "pole" and row["min_jac_sv"] == "":
                    row["min_jac_sv"] = "0.5"
            bad.append(("escape row given a ratio", wrong))
        wrong = copy.deepcopy(out)
        wrong["rows"].pop()
        bad.append(("row missing", wrong))
        wrong = dict(out, code=3)
        bad.append(("exit code 3", wrong))
        return bad


# -------------------------------------------------------------- cut-batch

def expected_pairing(basis: np.ndarray) -> float:
    """Normalized pairing with the origin plane, |det A[:, :n]| / sqrt(det AA*),
    from the closed form rather than the minor enumeration."""
    n = basis.shape[0]
    gram = np.linalg.det(basis @ basis.conj().T).real
    return abs(np.linalg.det(basis[:, :n])) / np.sqrt(gram)


def check_cut(op: Op, out: dict) -> list[str]:
    want = op.params["in_locus"]
    problems = [f"{route} reads {out[route]}, expected {want}"
                for route in ("in_locus", "cayley", "schubert") if out[route] != want]
    ref = op.params["pairing"]
    err = abs(out["pairing_abs"] - ref)
    if not err <= PAIRING_RTOL * ref + PAIRING_ATOL:
        problems.append(f"pairing_abs {out['pairing_abs']:.17g} vs closed form {ref:.17g}")
    return problems


def _haar_basis(rng, n: int, m: int) -> np.ndarray:
    g = rng.standard_normal((n, n + m)) + 1j * rng.standard_normal((n, n + m))
    return np.ascontiguousarray(np.linalg.qr(g.T)[0].T)


def _cut_basis(rng, n: int, m: int) -> np.ndarray:
    """Orthonormal basis of a random plane in the cut locus of the origin:
    its last row is orthogonal to the origin plane."""
    g = rng.standard_normal((n, n + m)) + 1j * rng.standard_normal((n, n + m))
    g[n - 1, :n] = 0.0
    return np.ascontiguousarray(np.linalg.qr(g.T)[0].T)


class CutBatchWorkload(Workload):
    """One plane per op through all four cut-locus routes: the angle and
    pairing routes of `cut_locus_test`, `cayley_cut_check`, and
    `schubert_membership` against the cut-locus symbol with `flag="perp"`.

    Each cycle holds, for each of (3,5), (6,8) and (7,9), one plane built in
    the cut locus (it contains a vector orthogonal to the origin plane) and
    one Haar-random plane.  The minor enumeration grows like C(n+m, n):
    11,440 minors at 7x9, a stack of about 9 MB.
    """

    name = "cut-batch"
    unit = "planes"
    trace_cycles = 20
    SHAPES = ((3, 5), (6, 8), (7, 9))

    def cycle(self, seed: int, k: int) -> list[Op]:
        rng = _rng(seed, k)
        ops = []
        for n, m in self.SHAPES:
            for in_locus in (True, False):
                basis = _cut_basis(rng, n, m) if in_locus else _haar_basis(rng, n, m)
                ops.append(Op("cut", n, m, 1, {"basis": basis, "in_locus": in_locus,
                                               "pairing": expected_pairing(basis)}))
        return ops

    def call(self, op: Op):
        loci = self.gg.loci
        plane = self.gg.manifold.Plane(op.params["basis"])
        verdict = loci.cut_locus_test(plane)
        cayley = loci.cayley_cut_check(plane)
        symbol = loci.cut_locus_symbol(op.n, op.m)
        schubert = loci.schubert_membership(plane, symbol, flag="perp")
        return verdict, cayley, schubert

    def outputs(self, op: Op, raw) -> dict:
        verdict, cayley, schubert = raw
        return {"in_locus": bool(verdict.in_locus), "pairing_abs": float(verdict.pairing_abs),
                "cayley": bool(cayley), "schubert": bool(schubert)}

    def check(self, op: Op, out: dict) -> list[str]:
        return check_cut(op, out)

    def perturb(self, op: Op, out: dict) -> list[tuple[str, dict]]:
        bad = [(f"{route} flipped", dict(out, **{route: not out[route]}))
               for route in ("in_locus", "cayley", "schubert")]
        bad.append(("pairing_abs +1e-9", dict(out, pairing_abs=out["pairing_abs"] + 1e-9)))
        return bad


# ------------------------------------------------------------ chart-calls

def plane_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosines of the stationary angles between the row spans of a and b,
    ascending, from the Gram matrix whitened by Cholesky factors: neither
    the program's QR route nor its chart-product route."""
    la = np.linalg.cholesky(a @ a.conj().T)
    lb = np.linalg.cholesky(b @ b.conj().T)
    g = np.linalg.solve(la, a @ b.conj().T)
    g = np.linalg.solve(lb, g.conj().T).conj().T
    return np.sort(np.clip(np.linalg.svd(g, compute_uv=False), 0.0, 1.0))


def hat(z: np.ndarray) -> np.ndarray:
    """Row basis [1 Z] of the plane with chart coordinate Z."""
    return np.hstack([np.eye(z.shape[0]), z])


def check_chart_calls(op: Op, out: dict) -> list[str]:
    problems = []
    for i, smp in enumerate(out["samples"]):
        z, zp = smp["z"], smp["zp"]
        # conditioning of the hat bases: the Gram matrices square it
        scale = 1.0 + float(np.linalg.norm(z) ** 2 + np.linalg.norm(zp) ** 2)
        want = plane_cosines(hat(zp), hat(z))
        for route in ("angles_w", "angles_svd"):
            err = float(np.max(np.abs(np.sort(np.cos(smp[route])) - want)))
            if not err <= CHART_TOL * scale:
                problems.append(f"sample {i}: {route} cosines off by {err:.3e}")
        err = abs(smp["cos_cayley"] - float(np.prod(want)))
        if not err <= CHART_TOL * scale:
            problems.append(f"sample {i}: cos_cayley_planes off by {err:.3e}")
        # |B| <= 2.5 bounds the noncompact round trip's artanh amplification
        for key, ref, tol in (("exp_log", z, CHART_TOL * scale),
                              ("log_exp_nc", smp["bn"], CHART_TOL * 100.0)):
            err = float(np.linalg.norm(smp[key] - ref)) / max(1.0, float(np.linalg.norm(ref)))
            if not err <= tol:
                problems.append(f"sample {i}: {key} round trip off by {err:.3e}")
        # the geodesic from the origin with velocity log0(Z) reaches Z at t = 1
        err = 1.0 - float(plane_cosines(smp["geodesic"], hat(z))[0])
        if not err <= CHART_TOL * scale:
            problems.append(f"sample {i}: geodesic_group(log0(Z), 1) misses Z by {err:.3e}")
        top = float(np.linalg.norm(smp["zn"], 2))
        if not top < 1.0:
            problems.append(f"sample {i}: noncompact sample outside the domain, |Z| = {top:.6g}")
        for route in ("in_locus", "cayley"):
            if smp[route] != [True, False]:
                problems.append(f"sample {i}: {route} reads {smp[route]} for [built, Haar]")
    for i, ((h, t), probe) in enumerate(zip(op.params["probes"], out["probes"])):
        ratio = expected_ratio(t, h, "compact")
        if not abs(probe["ratio"] - ratio) <= RATIO_RTOL * ratio + RATIO_ATOL:
            problems.append(f"probe {i}: ratio {probe['ratio']:.10g} vs closed form {ratio:.10g}")
        angles = expected_angles(t, h, op.n, "compact")
        err = float(np.max(np.abs(probe["angles"] - angles)))
        if not err <= ANGLE_TOL:
            problems.append(f"probe {i}: angles off by {err:.3e}")
        label = expected_class(angles, h.size)
        if label is not None and probe["label"] != label:
            problems.append(f"probe {i}: class {probe['label']!r}, expected {label!r}")
    return problems


class ChartCallsWorkload(Workload):
    """Many small independent calls into the chart layer, the per-call path
    that the property suite exercises, driven directly.  `run_suite` itself
    is not the op because the suite fails on its own a few times in 10^5
    trials (absolute tolerances on unnormalized overlaps), which would fail
    several runs in a hundred on correct results.

    One op is a number of random samples at one shape plus one or two
    Jacobian probes.  A sample draws two compact chart points
    (`haar_random_chart`), turns them into planes (`Plane` validation), takes
    both angle routes and `cos_cayley_planes`, round-trips `log0`/`exp0` in
    the compact chart and `exp0`/`log0` on a random noncompact tangent,
    follows `geodesic_group` to t = 1, and runs `cut_locus_test` and
    `cayley_cut_check` on a plane built in the cut locus and a Haar plane.
    A probe is `classify_conjugate` on a diagonal direction at a pole-clear
    time.  Each cycle holds one op at each of (2,2), (2,4) and (3,5), with
    counts that make the three cost about the same and give the FD stencil
    about a third of the time.
    """

    name = "chart-calls"
    unit = "samples"
    trace_cycles = 10
    SHAPES = ((2, 2, 6, 2), (2, 4, 5, 2), (3, 5, 4, 1))  # n, m, samples, probes

    def cycle(self, seed: int, k: int) -> list[Op]:
        rng = _rng(seed, k)
        ops = []
        for n, m, samples, count in self.SHAPES:
            probes = []
            for _ in range(count):
                h = ScanWorkload._direction(rng, n)
                t = float(rng.uniform(0.2, 4.0))
                while pole_distance(t * h) < 0.05:
                    t = float(rng.uniform(0.2, 4.0))
                probes.append((h, t))
            ops.append(Op("chart", n, m, samples,
                          {"samples": samples, "probes": probes,
                           "seed": int(rng.integers(0, 2**63))}))
        return ops

    def call(self, op: Op):
        gg = self.gg
        manifold, loci = gg.manifold, gg.loci
        n, m = op.n, op.m
        rng = np.random.default_rng(op.params["seed"])
        samples = []
        for _ in range(op.params["samples"]):
            z = manifold.haar_random_chart(n, m, rng)
            zp = manifold.haar_random_chart(n, m, rng)
            b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            tn = manifold.TangentCoord(b * (rng.uniform(0.1, 2.5) / np.linalg.norm(b)),
                                       signature="noncompact")
            zn = manifold.exp0(tn)
            p, q = manifold.chart_to_plane(z), manifold.chart_to_plane(zp)
            tc = manifold.log0(z)
            built = manifold.Plane(_cut_basis(rng, n, m))
            haar = manifold.haar_random_plane(n, m, rng)
            samples.append((
                z, zp, tn, zn,
                manifold.stationary_angles_w(zp, z),
                manifold.stationary_angles_svd(q, p),
                manifold.cos_cayley_planes(p, q),
                manifold.exp0(tc),
                manifold.log0(zn),
                manifold.geodesic_group(tc, 1.0),
                [loci.cut_locus_test(built), loci.cut_locus_test(haar)],
                [loci.cayley_cut_check(built), loci.cayley_cut_check(haar)],
            ))
        probes = [loci.classify_conjugate(
                      loci.cartan_to_tangent(loci.CartanDirection(h), n, m), t)
                  for h, t in op.params["probes"]]
        return samples, probes

    def outputs(self, op: Op, raw) -> dict:
        samples, probes = raw
        out = []
        for z, zp, tn, zn, w, svd, cos, back, back_nc, geo, verdicts, cayley in samples:
            out.append({"z": z.z, "zp": zp.z, "bn": tn.b, "zn": zn.z,
                        "angles_w": w.angles, "angles_svd": svd.angles,
                        "cos_cayley": float(cos), "exp_log": back.z, "log_exp_nc": back_nc.b,
                        "geodesic": geo.basis,
                        "in_locus": [bool(v.in_locus) for v in verdicts],
                        "cayley": [bool(v) for v in cayley]})
        return {"samples": out,
                "probes": [{"ratio": float(probe.jacobian_ratio), "label": probe.label,
                            "angles": probe.angles.angles} for probe in probes]}

    def check(self, op: Op, out: dict) -> list[str]:
        return check_chart_calls(op, out)

    def perturb(self, op: Op, out: dict) -> list[tuple[str, dict]]:
        def changed(label, key, value):
            wrong = copy.deepcopy(out)
            wrong["samples"][0][key] = value
            return label, wrong

        smp = out["samples"][0]
        bad = [changed(f"{route} +1e-6", route, smp[route] + 1e-6)
               for route in ("angles_w", "angles_svd")]
        bad += [changed("cos_cayley +1e-6", "cos_cayley", smp["cos_cayley"] + 1e-6),
                changed("exp0(log0) off", "exp_log", smp["exp_log"] * (1 + 1e-6)),
                changed("noncompact log0(exp0) off", "log_exp_nc", smp["log_exp_nc"] * (1 + 1e-6)),
                changed("geodesic misses", "geodesic", hat(smp["zp"])),
                changed("noncompact outside", "zn", smp["zn"] / np.linalg.norm(smp["zn"], 2) * 1.01),
                changed("built plane not in locus", "in_locus", [False, False]),
                changed("Haar plane in locus", "cayley", [True, True])]
        probe = out["probes"][0]
        for label, change in (
                ("probe ratio +10%", {"ratio": probe["ratio"] * 1.1 + 1e-6}),
                ("probe angle +1e-6", {"angles": probe["angles"] + 1e-6}),
                ("probe class relabelled", {"label": "none" if probe["label"] == "interior"
                                            else "interior"})):
            wrong = copy.deepcopy(out)
            wrong["probes"][0].update(change)
            bad.append((label, wrong))
        return bad


WORKLOADS = {w.name: w for w in (ScanWorkload, CutBatchWorkload, ChartCallsWorkload)}
