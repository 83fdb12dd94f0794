"""Command line front end.

Matrices travel as JSON, either {"rows": n, "cols": m, "data": [[re, im], ...]}
with data flat in row-major order, or a bare data list plus --n/--m.  An
argument starting with @ names a file holding the same JSON.  Complex scalars
come back as {"value": [re, im]}.

Exit codes: 0 success, 1 failed verification, 2 bad input, 3 geometric error
(outside chart, vanishing overlap, inconsistent routes).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import loci, manifold, verify
from .errors import GeometryError


def _load_json(text: str):
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    return json.loads(text)


def _parse_matrix(text: str, n: int | None = None, m: int | None = None) -> np.ndarray:
    obj = _load_json(text)
    if isinstance(obj, dict):
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    elif isinstance(obj, list):
        if n is None or m is None:
            raise ValueError("bare data list needs --n and --m")
        rows, cols, data = n, m, obj
    else:
        raise ValueError("matrix JSON must be an object or a list")
    try:
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        flat = np.array([complex(re, im) for re, im in data])
        mat = flat.reshape(rows, cols)
    except TypeError as exc:
        # wrongly typed JSON values (strings, nulls, nested lists) are bad input
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if mat.size == 0:
        raise ValueError(f"matrix must have at least one row and one column, got {mat.shape}")
    return mat


def _matrix_json(a: np.ndarray) -> dict:
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": [[float(v.real), float(v.imag)] for v in a.ravel()],
    }


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _chart(args, text: str) -> manifold.ChartPoint:
    return manifold.ChartPoint(z=_parse_matrix(text, args.n, args.m),
                               signature=args.signature)


def _tangent(args, text: str) -> manifold.TangentCoord:
    return manifold.TangentCoord(b=_parse_matrix(text, args.n, args.m),
                                 signature=args.signature)


def _plane(args, text: str) -> manifold.Plane:
    return manifold.Plane(_parse_matrix(text, args.n, args.m))


def _parse_h(text: str) -> loci.CartanDirection:
    return loci.CartanDirection(np.array([float(v) for v in text.split(",")]))


def _cmd_angles(args) -> int:
    if args.route == "w":
        spectrum = manifold.stationary_angles_w(_chart(args, args.zp), _chart(args, args.z))
    else:
        spectrum = manifold.stationary_angles_svd(
            manifold.chart_to_plane(_chart(args, args.zp)),
            manifold.chart_to_plane(_chart(args, args.z)))
    _emit({"angles": [float(v) for v in spectrum.angles],
           "max_angle": spectrum.max_angle})
    return 0


def _cmd_overlap(args) -> int:
    val = manifold.overlap(_chart(args, args.zp), _chart(args, args.z))
    _emit({"value": [val.real, val.imag]})
    return 0


def _cmd_dist(args) -> int:
    point = _chart(args, args.z)
    out = {"geodesic": manifold.geodesic_distance0(point)}
    if args.signature == "compact":
        origin = manifold.ChartPoint(z=np.zeros(point.shape), signature="compact")
        out["cayley"] = manifold.cayley_distance(point, origin)
    _emit(out)
    return 0


def _cmd_exp(args) -> int:
    tc = _tangent(args, args.b)
    _emit(_matrix_json(manifold.geodesic_chart(tc, args.t).z))
    return 0


def _cmd_log(args) -> int:
    _emit(_matrix_json(manifold.log0(_chart(args, args.z)).b))
    return 0


def _cmd_geodesic(args) -> int:
    tc = _tangent(args, args.b)
    if args.route == "chart":
        _emit(_matrix_json(manifold.geodesic_chart(tc, args.t).z))
    else:
        _emit(_matrix_json(manifold.geodesic_group(tc, args.t).basis))
    return 0


def _cmd_plucker(args) -> int:
    vec = manifold.plucker(manifold.chart_to_plane(_chart(args, args.z)))
    _emit({
        "indices": [[i + 1 for i in idx] for idx in vec.indices],
        "coords": [[v.real, v.imag] for v in vec.coords],
    })
    return 0


def _cmd_cut_test(args) -> int:
    plane = _plane(args, args.plane)
    verdict = loci.cut_locus_test(plane)
    n, big_n = plane.basis.shape
    symbol = loci.cut_locus_symbol(n, big_n - n)
    _emit({
        "in_locus": verdict.in_locus,
        "max_angle": verdict.max_angle,
        "pairing_abs": verdict.pairing_abs,
        "cayley": loci.cayley_cut_check(plane),
        "schubert": loci.schubert_membership(plane, symbol, flag="perp"),
    })
    return 0


def _cmd_schubert(args) -> int:
    w = tuple(int(v) for v in args.symbol.split(","))
    if args.m is None:
        raise ValueError("--m is required to fix the symbol range")
    symbol = loci.SchubertSymbol(w=w, m=args.m)
    if args.sample:
        plane = loci.schubert_generic_sample(symbol, seed=args.seed, flag=args.flag)
        _emit(_matrix_json(plane.basis))
        return 0
    if args.plane is None:
        raise ValueError("give a plane to test, or pass --sample")
    member = loci.schubert_membership(_plane(args, args.plane), symbol,
                                      tol=args.tol, flag=args.flag)
    _emit({"member": member})
    return 0


def _cmd_conj_params(args) -> int:
    direction = _parse_h(args.h)
    params = loci.tangent_conjugate_params(direction, args.n, args.m,
                                           lambda_max=args.lambda_max)
    _emit({
        "params": [
            {"family": c.family, "p": c.p, "q": c.q, "lambda": c.lam,
             "t": c.t, "multiplicity": c.multiplicity}
            for c in params
        ],
        "cut_time": loci.cut_time(direction),
    })
    return 0


def _cmd_conj_scan(args) -> int:
    direction = _parse_h(args.h)
    rows = verify.scan_conjugate(direction, (args.t0, args.t1), args.steps,
                                 args.n, args.m, signature=args.signature,
                                 lambda_max=args.lambda_max)
    verify.write_scan_csv(rows, args.out)
    _emit({"rows": len(rows), "out": args.out})
    return 0


def _cmd_verify(args) -> int:
    config = verify.SuiteConfig(seed=args.seed, trials=args.trials,
                                n=args.n, m=args.m)
    report = verify.run_suite(config)
    # with the JSON report on stdout, the text report goes to stderr
    text_out = sys.stderr if args.json == "-" else sys.stdout
    print(report.to_text(include_timing=not args.no_timing), file=text_out)
    if args.json is not None:
        payload = verify.report_json(report, include_timing=not args.no_timing)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
    return 0 if report.passed else 1


def _add_shape_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="rows for bare data lists")
    p.add_argument("--m", type=int, default=None, help="cols for bare data lists")
    p.add_argument("--signature", choices=("compact", "noncompact"), default="compact")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="grassgeo", description=__doc__,
                                   formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("angles", help="stationary angles between two chart points")
    p.add_argument("zp", help="chart matrix whose side is conjugated")
    p.add_argument("z", help="chart matrix")
    p.add_argument("--route", choices=("w", "svd"), default="w")
    _add_shape_flags(p)
    p.set_defaults(func=_cmd_angles)

    p = sub.add_parser("overlap", help="pairing det(1 +/- Z Zp*) of two chart points")
    p.add_argument("zp")
    p.add_argument("z")
    _add_shape_flags(p)
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("dist", help="distance from the origin plane")
    p.add_argument("z")
    _add_shape_flags(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("exp", help="chart image of the geodesic exponential of t*B")
    p.add_argument("b")
    p.add_argument("--t", type=float, default=1.0)
    _add_shape_flags(p)
    p.set_defaults(func=_cmd_exp)

    p = sub.add_parser("log", help="tangent preimage of a chart point")
    p.add_argument("z")
    _add_shape_flags(p)
    p.set_defaults(func=_cmd_log)

    p = sub.add_parser("geodesic", help="geodesic point at time t, chart or group form")
    p.add_argument("b")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--route", choices=("chart", "group"), default="chart")
    _add_shape_flags(p)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("plucker", help="minor coordinates of a chart point (1-based tuples)")
    p.add_argument("z")
    _add_shape_flags(p)
    p.set_defaults(func=_cmd_plucker)

    p = sub.add_parser("cut-test", help="cut locus membership of a plane, all routes")
    p.add_argument("plane", help="row basis matrix, n x N")
    _add_shape_flags(p)
    p.set_defaults(func=_cmd_cut_test)

    p = sub.add_parser("schubert", help="variety membership, or sample with --sample")
    p.add_argument("plane", nargs="?", default=None)
    p.add_argument("--symbol", required=True, help="comma list, nondecreasing")
    p.add_argument("--flag", choices=("standard", "perp", "chart"), default="standard")
    p.add_argument("--sample", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_shape_flags(p)
    p.set_defaults(func=_cmd_schubert)

    p = sub.add_parser("conj-params", help="predicted conjugate radii for a direction")
    p.add_argument("--h", required=True, help="comma list of direction entries")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda-max", type=int, default=2)
    p.set_defaults(func=_cmd_conj_params)

    p = sub.add_parser("conj-scan", help="scan a geodesic and write a CSV")
    p.add_argument("--h", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--signature", choices=("compact", "noncompact"), default="compact")
    p.add_argument("--lambda-max", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_conj_scan)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--json", default=None, help="write the JSON report here ('-' for stdout)")
    p.add_argument("--no-timing", action="store_true",
                   help="omit elapsed times for byte-stable output")
    p.set_defaults(func=_cmd_verify)

    return root


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
