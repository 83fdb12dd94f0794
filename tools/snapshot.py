"""Write a byte-stable snapshot of the program's observable outputs.

    python3 tools/snapshot.py OUTDIR

Runs a fixed set of CLI commands in process, with their exit codes, and a
seeded dump of library answers, against the package under this checkout's
src/.  Each CLI case writes OUTDIR/<name>.txt holding its exit code, stdout
and stderr; conj-scan cases also write OUTDIR/<name>.csv, over a file first
filled with STALE, which is longer than any of them, so a tail left behind
by the writer shows.  The library dump is OUTDIR/library.txt.  Snapshots
taken from two checkouts compare with

    diff -r OLD NEW

and an empty diff means the two give the same numbers, verdicts and exit
codes on every case.  Each warning a CLI case raises is recorded, not
printed, and ends that case's stderr as one "warning: <Category>: <message>"
line, with no file path.  Exits 1 if any case's exit code is not the one
listed in CASES, after writing every file.  A case that argparse refuses
records its SystemExit code as its exit code.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from grassgeo import cli, loci, manifold, verify  # noqa: E402
from grassgeo.errors import GeometryError  # noqa: E402


def _mat(rows) -> str:
    a = np.asarray(rows, dtype=complex)
    return json.dumps({"rows": a.shape[0], "cols": a.shape[1],
                       "data": [[v.real, v.imag] for v in a.ravel()]})


def _verify(seed, trials, n, m):
    return ["verify", "--seed", str(seed), "--trials", str(trials), "--n", str(n),
            "--m", str(m), "--no-timing", "--json", "-"]


_GEO_B = _mat([[1.0 + 0.5j, 0.2 + 0.1j], [0.3, 0.9]])
# chart points inside the noncompact ball too, so both signatures read them
_ZP = _mat([[0.3 + 0.1j, -0.2, 0.05j], [0.1, 0.25 - 0.1j, 0.2]])
_Z = _mat([[-0.1, 0.4j, 0.2 + 0.2j], [0.35, 0.05, -0.15j]])
# 3 x 2: two 3-planes in C^5 share a line, so one angle is pinned to 0
_ZP_TALL = _mat([[0.5, 0.2j], [-0.3 + 0.1j, 0.4], [0.1, -0.6]])
_Z_TALL = _mat([[0.2j, -0.1], [0.7, 0.3 - 0.2j], [0.05, 0.45]])

# (name, argv, expected exit code); "{csv}" in an argv stands for OUTDIR/<name>.csv
CASES = (
    ("scan-2x2", ["conj-scan", "--h", "0.8,0.6", "--n", "2", "--m", "2", "--t0", "0.5",
                  "--t1", "9", "--steps", "400", "--out", "{csv}"], 0),
    ("scan-3x5", ["conj-scan", "--h", "0.9,0.7,0.3", "--n", "3", "--m", "5", "--t0", "0.3",
                  "--t1", "25", "--steps", "200", "--out", "{csv}"], 0),
    ("scan-3x5-noncompact", ["conj-scan", "--h", "0.9,0.7,0.3", "--n", "3", "--m", "5",
                             "--t0", "0.2", "--t1", "8", "--steps", "100",
                             "--signature", "noncompact", "--out", "{csv}"], 0),
    ("scan-6x8", ["conj-scan", "--h", "1.0,0.85,0.7,0.5,0.35,0.2", "--n", "6", "--m", "8",
                  "--t0", "0.3", "--t1", "20", "--steps", "200", "--out", "{csv}"], 0),
    ("scan-1x1", ["conj-scan", "--h", "1.0", "--n", "1", "--m", "1", "--t0", "0.3",
                  "--t1", "20", "--steps", "77", "--out", "{csv}"], 0),
    # the row at t = 1.5708 is a pole row: family t2, blank q and min_jac_sv
    ("scan-1x2-pole", ["conj-scan", "--h", "1.0", "--n", "1", "--m", "2", "--t0", "1.0708",
                       "--t1", "2.0708", "--steps", "11", "--out", "{csv}"], 0),
    ("verify-42-30-3x4", _verify(42, 30, 3, 4), 0),
    ("verify-7-40-2x2", _verify(7, 40, 2, 2), 0),
    ("verify-1-5-3x2", _verify(1, 5, 3, 2), 0),
    ("verify-3-10-5x3", _verify(3, 10, 5, 3), 0),
    # r = 1: no pair radius, a one-entry direction; and n < m as in the benchmark
    ("verify-0-20-1x1", _verify(0, 20, 1, 1), 0),
    ("verify-42-20-3x5", _verify(42, 20, 3, 5), 0),
    # r = 5 and r = 8: the conjugate properties build their separated directions
    ("verify-1-1-5x5", _verify(1, 1, 5, 5), 0),
    ("verify-1-1-8x10", _verify(1, 1, 8, 10), 0),
    # outside the Philox key range
    ("verify-seed-negative", _verify(-1, 1, 2, 2), 2),
    ("cut-test-in-locus", ["cut-test", _mat([[1, 0, 0.3, 0.1j], [0, 0, 1.0, 0.5]])], 0),
    ("cut-test-generic", ["cut-test", _mat([[1, 0.2, 0.3j], [0.1, 1, -0.4]])], 0),
    ("cut-test-routes-disagree", ["cut-test", _mat([[1e-7, 1]])], 0),
    ("cut-test-dependent-rows", ["cut-test", _mat([[1, 2, 3], [2, 4, 6]])], 2),
    # near the cut locus: every route reads the leading block at RANK_TOL =
    # 1e-9, the Schubert route on the unit rows, the others in the frame
    ("cut-test-near-1.5e-9", ["cut-test", _mat([[1.5e-9, 1]])], 0),
    ("cut-test-near-5e-10", ["cut-test", _mat([[5e-10, 1]])], 0),
    ("cut-test-near-3x5", ["cut-test", _mat([[1, 0.2, 0, 0.3, 0, 0.1j, 0, 0],
                                             [0, 1, 0.4j, 0, 0.5, 0, 0, 0.2],
                                             [2e-9, 0, 3e-9j, 0.6, 1, 0.3, -0.8, 0.5j]])], 0),
    ("cut-test-near-5e-9", ["cut-test", _mat([[5e-9, 1]])], 0),
    # three angles of arccos(1e-3): the pairing is their cosine product, 1e-9
    ("cut-test-near-3x5-cosines-1e-3", ["cut-test", _mat(np.hstack(
        [1e-3 * np.eye(3), np.sqrt(1 - 1e-6) * np.eye(3, 5)]))], 0),
    # well-formed, but its unit-row Gram determinant rounds to 0
    ("cut-test-near-dependent-2x3", ["cut-test", _mat([[1e-8, 0, 1], [0, 1e-8, 1]])], 0),
    ("conj-params-2x2", ["conj-params", "--h", "0.8,0.6", "--n", "2", "--m", "2"], 0),
    ("conj-params-2x3", ["conj-params", "--h", "0.9,0.4", "--n", "2", "--m", "3",
                         "--lambda-max", "3"], 0),
    # t1minus(1,2) and t3(2) tie at pi/0.4: tied radii keep the root order
    ("conj-params-3x2-tie", ["conj-params", "--h", "0.8,0.4", "--n", "3", "--m", "2"], 0),
    # 2 h_1 overflows
    ("conj-params-2h-overflows", ["conj-params", "--h", "1e308", "--n", "1", "--m", "2"], 2),
    # 36 radii, 11 of them tied at t = 8.976 across all four families: the
    # table's order of the roots at r = 4 fixes theirs
    ("conj-params-4x6-ties", ["conj-params", "--h", "0.7,0.7,0.35,0.35", "--n", "4",
                              "--m", "6"], 0),
    ("angles-w-compact", ["angles", _ZP, _Z], 0),
    ("angles-svd-compact", ["angles", _ZP, _Z, "--route", "svd"], 0),
    ("angles-w-noncompact", ["angles", _ZP, _Z, "--signature", "noncompact"], 0),
    ("angles-svd-noncompact", ["angles", _ZP, _Z, "--route", "svd",
                               "--signature", "noncompact"], 0),
    ("angles-svd-3x2", ["angles", _ZP_TALL, _Z_TALL, "--route", "svd"], 0),
    # 1 + Z Zp* is singular: each point is on the other's cut locus
    ("angles-w-cut-locus-2x3", ["angles", _mat([[-1, 0, 0], [0, 0.3, 0.2]]),
                                _mat([[1, 0, 0], [0, 0.5, 0]])], 0),
    ("plucker-minor-overflow", ["plucker", _mat([[1e200, 1e200], [1e200, -1e200]])], 3),
    # the cayley distance reads cos_cayley against the origin chart point
    ("dist-compact", ["dist", _Z], 0),
    # near-parallel rows: cos_cayley to the origin is about 4.5e-9
    ("dist-near-parallel", ["dist", _mat([[1e8, 1e8], [1e8, 1e8 + 1]])], 0),
    ("overlap-compact", ["overlap", _ZP, _Z], 0),
    ("schubert-sample", ["schubert", "--symbol", "1,2", "--m", "2", "--sample",
                         "--seed", "5", "--flag", "chart"], 0),
    # past the first tan pole of s_1 = 1.293 (t = 1.215), and far out on the dual
    ("geodesic-chart-past-pole", ["geodesic", _GEO_B, "--t", "2.0"], 0),
    ("geodesic-group-past-pole", ["geodesic", _GEO_B, "--t", "2.0", "--route", "group"], 0),
    ("geodesic-group-noncompact-30", ["geodesic", _GEO_B, "--t", "30", "--route", "group",
                                      "--signature", "noncompact"], 0),
    ("geodesic-chart-inf", ["geodesic", _GEO_B, "--t", "inf"], 2),
    ("geodesic-group-inf", ["geodesic", _GEO_B, "--t", "inf", "--route", "group"], 2),
    ("exp-inf", ["exp", _GEO_B, "--t", "inf"], 2),
    # finite, but t times the velocity's scale overflows
    ("geodesic-chart-overflow", ["geodesic", _mat([[5, 3]]), "--t", "1e308"], 2),
    ("geodesic-group-overflow", ["geodesic", _mat([[5, 3]]), "--t", "1e308",
                                 "--route", "group"], 2),
    # finite product, but neighbouring doubles of it lie far past ANGLE_TOL
    ("geodesic-chart-1e200", ["geodesic", _mat([[5, 3]]), "--t", "1e200"], 2),
    ("geodesic-group-1e200", ["geodesic", _mat([[5, 3]]), "--t", "1e200", "--route", "group"], 2),
    # the dual side of the chart commands: no cayley field in dist, the
    # minus sign in overlap, artanh in log
    ("dist-noncompact", ["dist", _Z, "--signature", "noncompact"], 0),
    ("overlap-noncompact", ["overlap", _ZP, _Z, "--signature", "noncompact"], 0),
    ("log-compact", ["log", _Z], 0),
    ("log-noncompact", ["log", _Z, "--signature", "noncompact"], 0),
    ("exp-compact-0.7", ["exp", _GEO_B, "--t", "0.7"], 0),
    ("exp-noncompact-0.7", ["exp", _GEO_B, "--t", "0.7", "--signature", "noncompact"], 0),
    # tanh(30 s_1) rounds to 1: the dual chart saturates
    ("exp-noncompact-saturated", ["exp", _GEO_B, "--t", "30", "--signature", "noncompact"], 3),
    # a singular value of pi/2 sits on the first tan pole
    ("exp-compact-pole", ["exp", _mat([[np.pi / 2, 0]])], 3),
    ("geodesic-chart-noncompact", ["geodesic", _GEO_B, "--t", "2.0",
                                   "--signature", "noncompact"], 0),
    ("angles-noncompact-outside-ball", ["angles", _ZP, _mat([[1.2, 0, 0], [0, 0.1, 0]]),
                                        "--signature", "noncompact"], 3),
    ("scan-2x2-noncompact", ["conj-scan", "--h", "0.8,0.6", "--n", "2", "--m", "2",
                             "--t0", "0.5", "--t1", "9", "--steps", "60",
                             "--signature", "noncompact", "--out", "{csv}"], 0),
    # the stencil reaches a saturated tanh before anything is written
    ("scan-1x2-noncompact-saturates", ["conj-scan", "--h", "1.0", "--n", "1", "--m", "2",
                                       "--t0", "1", "--t1", "40", "--steps", "40",
                                       "--signature", "noncompact", "--out", "/dev/null"], 3),
    # every root vanishes: no radius, blank family, p, q and lambda columns
    ("scan-2x3-zero-direction", ["conj-scan", "--h", "0,0", "--n", "2", "--m", "3",
                                 "--t0", "0.5", "--t1", "4", "--steps", "9",
                                 "--out", "{csv}"], 0),
    # the grid passes 2 pi / 1.6 = 3.93, the first radius of winding 2, unlabelled
    ("scan-2x2-lambda-max-1", ["conj-scan", "--h", "0.8,0.6", "--n", "2", "--m", "2",
                               "--t0", "0.5", "--t1", "6", "--steps", "45",
                               "--lambda-max", "1", "--out", "{csv}"], 0),
    # only the windings that reach the grid are built
    ("scan-2x2-lambda-max-1000000", ["conj-scan", "--h", "0.8,0.6", "--n", "2", "--m", "2",
                                     "--t0", "0.5", "--t1", "4", "--steps", "20",
                                     "--lambda-max", "1000000", "--out", "{csv}"], 0),
    # refused by the parser: argparse's usage and message on stderr
    ("scan-unknown-flag", ["conj-scan", "--h", "0.8", "--n", "1", "--m", "1", "--t0", "0.5",
                           "--t1", "1", "--steps", "3", "--bogus", "--out", "/dev/null"], 2),
)

# about 1 MB; the largest scan CSV is about 43 kB
STALE = "stale filler that a shorter scan CSV must not leave behind\n" * 16384

FILES = tuple(sorted([f"{name}.txt" for name, _, _ in CASES]
                     + [f"{name}.csv" for name, argv, _ in CASES if "{csv}" in argv]
                     + ["library.txt"]))


def run_case(outdir: Path, name: str, argv: list[str]) -> int:
    csv_path = str(outdir / f"{name}.csv")
    if "{csv}" in argv:
        Path(csv_path).write_text(STALE)
    argv = [csv_path if a == "{csv}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    stdout = out.getvalue().replace(csv_path, f"{name}.csv")
    warned = "".join(f"warning: {w.category.__name__}: {w.message}\n" for w in caught)
    (outdir / f"{name}.txt").write_text(
        f"exit: {code}\n--- stdout\n{stdout}--- stderr\n{err.getvalue()}{warned}")
    return code


def _floats(a) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(a).ravel())


def _cut_basis(rng, n, m) -> np.ndarray:
    """A Haar plane's basis with its last row swapped for a vector in the
    complement of the origin plane: a plane in the cut locus."""
    basis = manifold.haar_random_plane(n, m, rng).basis.copy()
    w = np.zeros(n + m, dtype=complex)
    w[n:] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    basis[n - 1] = w / np.linalg.norm(w)
    return basis


def library_lines() -> list[str]:
    """Seeded library answers: cut verdicts, pairings and Schubert answers on
    Haar and built cut planes, chart draws, classify_conjugate probes,
    geodesic and Jacobian answers on both signatures, overlaps, and the
    refusal of unknown signatures."""
    lines = []
    rng = np.random.default_rng(20261018)
    shapes = ((1, 4), (2, 2), (2, 5), (3, 5), (4, 6), (6, 8), (3, 2))
    for k in range(200):
        n, m = shapes[k % len(shapes)]
        built = k % 2 == 1
        plane = manifold.Plane(_cut_basis(rng, n, m) if built
                               else manifold.haar_random_plane(n, m, rng).basis)
        w = np.sort(rng.integers(0, m + 1, size=n))
        symbol = loci.SchubertSymbol(w=tuple(int(v) for v in w), m=m)
        cut_symbol = loci.cut_locus_symbol(n, m)
        try:
            verdict = loci.cut_locus_test(plane)
            cut = f"{verdict.in_locus} {verdict.max_angle!r} {verdict.pairing_abs!r}"
        except GeometryError as exc:
            cut = type(exc).__name__
        answers = [loci.schubert_membership(plane, sym, flag=flag)
                   for sym in (cut_symbol, symbol) for flag in ("standard", "perp", "chart")]
        lines.append(f"plane {k} {n}x{m} {'cut' if built else 'haar'} {cut} "
                     f"cayley={loci.cayley_cut_check(plane)} w={symbol.w} "
                     f"schubert={' '.join(str(a) for a in answers)}")
    for k in range(100):
        n, m = shapes[k % len(shapes)]
        z = manifold.haar_random_chart(n, m, rng)
        lines.append(f"chart {k} {n}x{m} {_floats(z.z.view(np.float64))}")
        basis = _cut_basis(rng, n, m) if k % 4 == 3 else manifold.haar_random_plane(n, m, rng).basis
        try:
            back = manifold.plane_to_chart(manifold.Plane(basis))
            lines.append(f"plane-to-chart {k} {_floats(back.z.view(np.float64))}")
        except GeometryError as exc:
            lines.append(f"plane-to-chart {k} {type(exc).__name__}")
    for k in range(50):
        n, m = shapes[k % len(shapes)]
        r = min(n, m)
        h = np.sort(rng.uniform(0.1, 1.5, size=r))[::-1]
        tc = loci.cartan_to_tangent(loci.CartanDirection(h), n, m)
        # the half period (a boundary point), a pair radius (an interior
        # coincidence when r > 1), or a random time
        t = (np.pi / (2.0 * h[0]), np.pi / (h[0] + h[-1]),
             float(rng.uniform(0.2, 6.0)))[k % 3]
        got = _answer(lambda: _class_text(loci.classify_conjugate(tc, t)))
        lines.append(f"classify {k} {n}x{m} t={t!r} {got}")
    lines += _tangent_lines(rng) + _signature_lines(rng)
    return lines


def _answer(func) -> str:
    """What func returns, as text (floats by repr), or the name of the
    GeometryError it raises."""
    try:
        out = func()
    except GeometryError as exc:
        return type(exc).__name__
    return out if isinstance(out, str) else _floats(out)


def _class_text(cls) -> str:
    return f"{cls.label} {cls.jacobian_ratio!r} {_floats(cls.angles.angles)}"


def _rebuilt(point):
    """The chart point rebuilt from its matrix, so log0 factors it afresh:
    exp0's point keeps the tangent's SVD, and log0 of that point would check
    only arctan of tan."""
    return manifold.ChartPoint(point.z, point.signature)


def _tangent_lines(rng) -> list[str]:
    """Geodesic and Jacobian answers on seeded tangents from 1x1 to 4x6, on
    both signatures, at a random time, at the first tan pole of the top
    singular value, and far out, where the dual chart saturates."""
    lines = []
    shapes = ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 5), (4, 6))
    for k in range(42):
        n, m = shapes[k % len(shapes)]
        b = manifold._complex_gaussian(rng, n, m)
        b *= rng.uniform(0.3, 1.5) / np.linalg.svd(b, compute_uv=False)[0]
        pole = np.pi / (2.0 * np.linalg.svd(b, compute_uv=False)[0])
        t = (float(rng.uniform(0.2, 3.0)), pole, 25.0)[k % 3]
        for signature in ("compact", "noncompact"):
            tc = manifold.TangentCoord(b=b, signature=signature)
            answers = {
                "residual": lambda: manifold.geodesic_residual(tc, t),
                "fd-ratio": lambda: loci.conjugate_test_jacobian(tc, t).ratio,
                "spectrum": lambda: loci.jacobian_spectrum(tc, t),
                "class": lambda: _class_text(loci.classify_conjugate(tc, t)),
                "geo-group": lambda: manifold.geodesic_group(tc, t).basis.view(np.float64),
                "geo-chart": lambda: manifold.geodesic_chart(tc, t).z.view(np.float64),
                "log-exp": lambda: manifold.log0(_rebuilt(manifold.exp0(tc))).b.view(np.float64),
                "distance": lambda: manifold.geodesic_distance0(_rebuilt(manifold.exp0(tc))),
            }
            for kind, func in answers.items():
                lines.append(f"{kind} {k} {n}x{m} {signature} t={t!r} {_answer(func)}")
    return lines


def _signature_lines(rng) -> list[str]:
    """overlap and cos_cayley on chart points of both signatures, and the
    refusal of a signature that is neither."""
    lines = []
    for k in range(14):
        n, m = (1 + k % 3, 1 + k % 5)
        for signature in ("compact", "noncompact"):
            zp, z = (manifold.exp0(manifold.TangentCoord(
                b=0.4 * manifold._complex_gaussian(rng, n, m), signature=signature))
                for _ in range(2))
            pairing = np.array([manifold.overlap(zp, z)]).view(np.float64)
            lines.append(f"overlap {k} {n}x{m} {signature} {_floats(pairing)} "
                         f"cos_cayley={_answer(lambda: manifold.cos_cayley(zp, z))}")
    for bad in ("dual", "Compact", "", ["compact"], None):
        for name, func in (("chart", lambda: manifold.ChartPoint(np.zeros((1, 1)), bad)),
                           ("tangent", lambda: manifold.TangentCoord(np.zeros((1, 1)), bad)),
                           ("scan", lambda: verify.scan_conjugate(
                               loci.CartanDirection([1.0]), (0.5, 1.0), 2, 1, 1, bad))):
            try:
                func()
                got = "accepted"
            except ValueError as exc:
                got = f"ValueError: {exc}"
            lines.append(f"bad-signature {name} {bad!r} {got}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/snapshot.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(args[0])
    outdir.mkdir(parents=True, exist_ok=True)
    # argparse wraps a usage line to the terminal's width; fix it
    os.environ["COLUMNS"] = "80"
    status = 0
    for name, argv_case, expected in CASES:
        code = run_case(outdir, name, argv_case)
        if code != expected:
            print(f"{name}: exit {code}, expected {expected}", file=sys.stderr)
            status = 1
    (outdir / "library.txt").write_text("\n".join(library_lines()) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
