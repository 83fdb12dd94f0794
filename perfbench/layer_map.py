"""Check a traced run against the layer map the workloads were designed on.

    python3 perfbench/layer_map.py --seed 1

The map says which traced functions each workload must reach, which it must
never reach, and how many `exp0` calls one FD Jacobian makes: the stencil
evaluates the chart map once at the centre and twice per real coordinate,
4nm+1 calls for an n x m direction.  A wrapper that misses a re-bound name
shows up here as a zero count.

This map describes the code the benchmark was defined on.  A change that
batches the stencil or drops the minor enumeration from the cut test changes
the map on purpose, so traced runs print the verdict without failing on it.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys

from tracer import SPAN_NAMES

# functions each workload must call at least once
EXPECTED = {
    "scan": (
        "kernel.svd", "kernel.rank_tol", "kernel.fd_jacobian",
        "manifold.exp0", "manifold.geodesic_group", "manifold.stationary_angles_svd",
        "manifold.cos_cayley_planes", "manifold.Plane",
        "loci.conjugate_test_jacobian", "loci.classify_conjugate",
        "loci.tangent_conjugate_params",
        "verify.scan_conjugate", "verify.write_scan_csv", "cli.main",
    ),
    "cut-batch": (
        "kernel.rank_tol", "manifold.plucker", "manifold.stationary_angles_svd",
        "manifold.cos_cayley_planes", "manifold.Plane",
        "loci.cut_locus_test", "loci.cayley_cut_check", "loci.schubert_membership",
    ),
    "chart-calls": (
        "kernel.svd", "kernel.herm_eig", "kernel.rank_tol", "kernel.fd_jacobian",
        "manifold.plucker", "manifold.exp0", "manifold.log0", "manifold.geodesic_group",
        "manifold.stationary_angles_svd", "manifold.stationary_angles_w",
        "manifold.cos_cayley_planes", "manifold.haar_random_plane",
        "manifold.haar_random_chart", "manifold.Plane",
        "loci.cut_locus_test", "loci.cayley_cut_check",
        "loci.conjugate_test_jacobian", "loci.classify_conjugate",
    ),
}

# functions a workload must never call
ABSENT = {
    "scan": ("manifold.plucker",),
    "cut-batch": ("kernel.fd_jacobian",),
    "chart-calls": ("verify.scan_conjugate", "cli.main"),
}

_unmapped = set(SPAN_NAMES) - {span for spans in EXPECTED.values() for span in spans}
if _unmapped:
    raise RuntimeError(f"layer map leaves traced functions unassigned: {sorted(_unmapped)}")


def evaluate(workload: str, metrics: dict, tracer) -> list[str]:
    """One PASS/FAIL line per rule of the map for this workload."""
    lines = []

    def rule(ok: bool, text: str) -> None:
        lines.append(f"{'PASS' if ok else 'FAIL'} {text}")

    for span in EXPECTED[workload]:
        calls = metrics[f"{span}.calls"][0]
        rule(calls > 0, f"{span} called ({calls})")
    for span in ABSENT[workload]:
        calls = metrics[f"{span}.calls"][0]
        rule(calls == 0, f"{span} not called ({calls})")
    for d in sorted(tracer.fd_calls):
        per_call = tracer.fd_exp0[d] / tracer.fd_calls[d]
        rule(per_call == 2 * d + 1,
             f"exp0 per fd_jacobian at 2nm={d}: {per_call:g} (4nm+1 = {2 * d + 1})")
    if workload == "scan":
        escapes = metrics["loci.conjugate_test_jacobian.escape_ratio"][0]
        rule(escapes > 0, f"ChartEscapeError path reached (escape_ratio {escapes:.4g})")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    failures = 0
    for workload in EXPECTED:
        proc = subprocess.run([sys.executable, run, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", "1", "--trace", "1"],
                              capture_output=True, text=True, timeout=600)
        verdicts = [line.removeprefix("layer-map: ") for line in proc.stdout.splitlines()
                    if line.startswith("layer-map: ")]
        bad = [line for line in verdicts if line.startswith("FAIL")]
        if proc.returncode != 0 or not verdicts:
            bad.append(f"FAIL traced run exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        failures += len(bad)
        print(f"{workload}: {len(verdicts) - len(bad)} rules pass, {len(bad)} fail")
        for line in bad:
            print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
