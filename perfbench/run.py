"""grassgeo benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The program is imported from `src/` of the checkout this file sits in, never
from an installed copy; without those sources the run exits non-zero and
prints no result.  A single client drives the package in a closed loop: the
next op starts when the previous one has returned and been checked.

Times are normalized to the speed of the host at the moment they were taken.
A fixed calibration kernel (small numpy factorizations and an interpreter
loop, no grassgeo code) runs before the first op and after every op, and
each op's wall time is multiplied by CAL_REF_S over the mean of the two
calibrations around it.  On a shared host whose speed drifts by tens of
percent over seconds, this keeps the figures a property of the program;
the raw wall-clock figures are printed as well.  `setup_s` is normalized
instead by the `import numpy` each setup interpreter runs first.

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
runs a fixed op list twice, untraced and then traced, and reports per-layer
metrics from the traced pass; the difference in op time is the tracing
overhead.  Both modes first run one cycle as a self-test: each real output
must pass its check and each deliberately perturbed copy must fail it.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

# One client and small matrices: a BLAS thread pool only spins a second core
# and adds that core's contention to every timing.  Set before numpy loads;
# the setup interpreters inherit it, and the `env:` line records it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 15
# the calibration kernel's time on the reference host (2 vCPU x86_64,
# Python 3.11, numpy 2.4.6 with OpenBLAS 0.3.31); normalized times are
# what an op would have taken there
CAL_REF_S = 0.002
# mallopt parameters of glibc's malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# `import numpy` in a fresh interpreter on the same reference host
NUMPY_IMPORT_REF_S = 0.1
# a fresh interpreter importing numpy, then the package, and taking one
# exponential; it prints the time of the first step and of the other two
SETUP_SNIPPET = "; ".join((
    "import sys, time", "t0 = time.perf_counter()", "import numpy as np",
    "t1 = time.perf_counter()", "sys.path.insert(0, sys.argv[1])", "import grassgeo",
    "grassgeo.exp0(grassgeo.TangentCoord(np.full((2, 2), 0.3 + 0.1j)))",
    "print(t1 - t0, time.perf_counter() - t1)"))


def pin_allocator() -> None:
    """Serve allocations below 32 MiB from the heap and never trim it.

    By default glibc moves its mmap threshold as blocks are freed.  The 9 MB
    minor stacks of `cut-batch` then went either to fresh mappings, faulted
    in on every op, or to reused heap, and which one held changed from one
    process to the next: peak RSS read 60 or 52 MiB, and throughput about 8%
    apart.  Fixing both thresholds picks the reuse path in every run.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(M_TRIM_THRESHOLD, 128 << 20)
    except (OSError, AttributeError):  # not glibc: keep its allocator as it is
        pass


def import_program():
    """Import grassgeo from this checkout's sources, or exit non-zero."""
    package = os.path.join(SRC, "grassgeo")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"benchmark: no grassgeo sources at {package}")
    sys.path.insert(0, SRC)
    import grassgeo
    import grassgeo.cli  # noqa: F401  (binds grassgeo.cli for the scan workload)
    if os.path.dirname(os.path.abspath(grassgeo.__file__)) != package:
        sys.exit(f"benchmark: imported grassgeo from {grassgeo.__file__}, not {package}")
    return grassgeo


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    threads = {var: os.environ.get(var, "unset")
               for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


class Calibration:
    """Times a fixed kernel of small complex factorizations and interpreter
    work, the same mix of costs as the package's own calls."""

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))

    def __call__(self) -> float:
        np, a = self.np, self.a
        start = time.perf_counter()
        acc = 0.0
        for _ in range(60):
            acc += float(np.linalg.svd(a, compute_uv=False)[0])
            acc += abs(complex(np.linalg.det(np.linalg.qr(a.T)[1][:3])))
            for j in range(40):
                acc += j * 0.5
        return time.perf_counter() - start


def local_scale(cals: list[float], i: int) -> float:
    """Factor that takes a time measured between calibrations i and i+1 to
    the reference host: CAL_REF_S over the mean of those two.  Wider windows
    tracked the host's drift worse on ops of a few hundred milliseconds."""
    return 2.0 * CAL_REF_S / (cals[i] + cals[i + 1])


def measure_setup() -> tuple[float, float]:
    """Median time of fresh interpreters importing the package and taking a
    first exponential, after one unmeasured run that leaves the bytecode cache
    warm: (normalized, wall).  Each sample is normalized by the `import numpy`
    that the same interpreter ran just before, which tracks the host's speed
    for this kind of work (file access, unmarshalling, module init) far
    better than the calibration kernel does."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, SRC]
    subprocess.run(cmd, check=True, cwd=ROOT, timeout=60, capture_output=True)
    wall, normalized = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, check=True, cwd=ROOT, timeout=60,
                              capture_output=True, text=True)
        numpy_s, setup_s = (float(v) for v in proc.stdout.split())
        wall.append(setup_s)
        normalized.append(setup_s * NUMPY_IMPORT_REF_S / numpy_s)
    return statistics.median(normalized), statistics.median(wall)


class Tally:
    """Latencies, work units and failures of the ops one pass ran."""

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.cals = []
        self.wall = []  # (seconds, index of the calibration before the op)
        self.units = 0
        self.attempted = 0
        self.failed = 0

    def run(self, workload, ops) -> None:
        if not self.cals:
            self.cals.append(self.calibrate())
        for op in ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                raw = workload.call(op)
            except Exception as exc:  # an op that raises is a failed op; keep going
                self.cals.append(self.calibrate())
                self.failed += 1
                print(f"FAIL {op.kind} {op.n}x{op.m}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            self.cals.append(self.calibrate())
            out = workload.outputs(op, raw)
            problems = workload.check(op, out)
            if problems:
                self.failed += 1
                print(f"FAIL {op.kind} {op.n}x{op.m}: {'; '.join(problems[:3])}",
                      file=sys.stderr)
                continue
            self.wall.append((elapsed, len(self.cals) - 2))
            self.units += op.units

    @property
    def latencies(self) -> list[float]:
        """Op latencies in seconds, normalized to the reference host."""
        return [t * local_scale(self.cals, i) for t, i in self.wall]

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def self_test(workload, seed: int) -> bool:
    """Run cycle 0 for real; every output must pass its check and every
    perturbed copy of it must fail.  Doubles as the warm-up."""
    ok = True
    for op in workload.cycle(seed, 0):
        try:
            out = workload.outputs(op, workload.call(op))
        except Exception as exc:  # reported as a failed self-test, not a crash
            print(f"self-test: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
            continue
        problems = workload.check(op, out)
        if problems:
            print(f"self-test: real output rejected: {problems[:3]}", file=sys.stderr)
            ok = False
        for label, wrong in workload.perturb(op, out):
            if not workload.check(op, wrong):
                print(f"self-test: perturbation '{label}' was not caught", file=sys.stderr)
                ok = False
    return ok


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by Python's default exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def run_untraced(workload, seed: int, seconds: float, calibrate) -> tuple[Tally, dict]:
    tally = Tally(calibrate)
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        tally.run(workload, workload.cycle(seed, k))
        k += 1
    if not tally.wall:
        sys.exit(f"benchmark: all {tally.attempted} ops failed")
    ms = [v * 1e3 for v in tally.latencies]
    metrics = {
        "throughput": (tally.units / tally.busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (percentile(ms, 90), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    wall_ms = [t * 1e3 for t, _ in tally.wall]
    print(f"wall clock: throughput {tally.units / sum(wall_ms) * 1e3:.6g} {workload.unit}/s, "
          f"p50 {statistics.median(wall_ms):.6g} ms, p90 {percentile(wall_ms, 90):.6g} ms")
    return tally, metrics


def run_traced(gg, workload, seed: int, calibrate) -> tuple[Tally, dict, object]:
    from tracer import Tracer
    ops = [op for k in range(workload.trace_cycles) for op in workload.cycle(seed, k)]
    plain = Tally(calibrate)
    plain.run(workload, ops)
    tracer = Tracer(gg)
    tracer.install()
    try:
        traced = Tally(calibrate)
        traced.run(workload, ops)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace_overhead_s"] = (traced.busy_s - plain.busy_s, "s")
    # both passes ran and checked the same ops
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.units += plain.units
    return traced, metrics, tracer


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    pin_allocator()
    gg = import_program()
    from workloads import WORKLOADS
    print("env: " + json.dumps(environment(), sort_keys=True))
    declared = declared_metrics(bool(args.trace))
    calibrate = Calibration()
    calibrate()
    if not args.trace:
        setup_s, setup_wall = measure_setup()
        print(f"wall clock: setup {setup_wall:.6g} s")
    with tempfile.TemporaryDirectory(prefix=".scan-", dir=HERE) as workdir:
        workload = WORKLOADS[args.workload](gg, workdir)
        tested = self_test(workload, args.seed)
        if args.trace:
            tally, metrics, tracer = run_traced(gg, workload, args.seed, calibrate)
            from layer_map import evaluate
            for line in evaluate(args.workload, metrics, tracer):
                print(f"layer-map: {line}")
        else:
            tally, metrics = run_untraced(workload, args.seed, args.seconds, calibrate)
            metrics["setup_s"] = (setup_s, "s")
    if set(metrics) != set(declared):
        sys.exit(f"benchmark: metric names differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(declared))}")
    print(f"workload {args.workload}: {tally.attempted} ops, {tally.units} {workload.unit}, "
          f"fail_ratio {tally.failed / tally.attempted:.6g}, self-test "
          f"{'passed' if tested else 'FAILED'}{workload.notes()}")
    for name, (value, unit) in metrics.items():
        shown = f"{workload.unit}/s" if name == "throughput" else unit
        print(f"  {name:<58} {value:>16.6g} {shown}")
    result = {
        "correct": bool(tested and tally.failed == 0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is per workload."""
    status = 0
    for name in ("scan", "cut-batch", "chart-calls"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "cut-batch", "chart-calls", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
