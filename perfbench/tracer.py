"""Per-layer tracing from outside the program.

The tracer wraps public functions of the grassgeo layers and re-binds every
name in every grassgeo module that refers to the same object.  Re-binding by
identity matters: `loci` imports `exp0`, `plucker` and friends by name and
the package `__init__` re-exports them, so patching `manifold.exp0` alone
would miss every call made through those other bindings.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by the spans it caused, kept on a stack as the calls nest.
Spans are aggregated in memory into calls and self seconds per name; a few
counters are kept at the same boundaries so that ratios are measured where
the work happens.
"""
from __future__ import annotations

import functools
import sys
import time
from math import comb

import numpy as np

# (layer module, public name) for every traced function.  `manifold.Plane`
# is the plane constructor's validation, traced through `__post_init__`.
TRACED = (
    ("kernel", "svd"), ("kernel", "herm_eig"), ("kernel", "rank_tol"),
    ("kernel", "fd_jacobian"),
    ("manifold", "plucker"), ("manifold", "exp0"), ("manifold", "log0"),
    ("manifold", "geodesic_group"), ("manifold", "stationary_angles_svd"),
    ("manifold", "stationary_angles_w"), ("manifold", "cos_cayley_planes"),
    ("manifold", "haar_random_plane"), ("manifold", "haar_random_chart"),
    ("manifold", "Plane"),
    ("loci", "cut_locus_test"), ("loci", "cayley_cut_check"),
    ("loci", "schubert_membership"), ("loci", "conjugate_test_jacobian"),
    ("loci", "classify_conjugate"), ("loci", "tangent_conjugate_params"),
    ("verify", "scan_conjugate"), ("verify", "write_scan_csv"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, name in TRACED)


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Wraps the traced functions of one imported grassgeo package."""

    def __init__(self, gg):
        self.gg = gg
        self.stats = {name: _Stat() for name in SPAN_NAMES}
        self.active = dict.fromkeys(SPAN_NAMES, 0)
        self.stack: list[list[float]] = []
        # exp0 calls made inside fd_jacobian, keyed by the stencil's real
        # dimension d = 2nm, with the fd_jacobian calls of that dimension
        self.fd_exp0 = {}
        self.fd_calls = {}
        self._fd_frames: list[list[int]] = []
        self.chart_draws = 0
        self.chart_accepts = 0
        self.plucker_minors = 0
        self.plucker_bytes = 0
        self.probe_escapes = 0
        self.probe_indeterminate = 0
        self._restore = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        gg = self.gg
        modules = [mod for key, mod in sys.modules.items()
                   if key == "grassgeo" or key.startswith("grassgeo.")]
        for layer, name in TRACED:
            span = f"{layer}.{name}"
            original = getattr(getattr(gg, layer), name)
            if isinstance(original, type):
                init = original.__post_init__
                self._restore.append((original, "__post_init__", init))
                original.__post_init__ = self._wrap(span, init)
                continue
            wrapper = self._wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, span, func):
        stat = self.stats[span]
        stack = self.stack
        active = self.active
        clock = time.perf_counter
        before = self._before.get(span)
        after = self._after.get(span)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            frame = [0.0]
            stack.append(frame)
            active[span] += 1
            outcome = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                outcome = result
                return result
            except Exception as exc:
                outcome = exc
                raise
            finally:
                elapsed = clock() - start
                active[span] -= 1
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if after is not None:
                    after(self, args, outcome)

        return traced

    # ------------------------------------------------------------- counters

    def _count_exp0(self, args):
        if self.active["kernel.fd_jacobian"]:
            # attribute to the innermost fd_jacobian frame's dimension
            self._fd_frames[-1][1] += 1

    def _enter_fd(self, args):
        d = int(np.size(args[1]))
        self._fd_frames.append([d, 0])

    def _leave_fd(self, args, outcome):
        d, exp0_calls = self._fd_frames.pop()
        self.fd_calls[d] = self.fd_calls.get(d, 0) + 1
        self.fd_exp0[d] = self.fd_exp0.get(d, 0) + exp0_calls

    def _count_draw(self, args):
        if self.active["manifold.haar_random_chart"]:
            self.chart_draws += 1

    def _count_accept(self, args, outcome):
        if not isinstance(outcome, Exception):
            self.chart_accepts += 1

    def _count_minors(self, args):
        n, big_n = args[0].basis.shape
        minors = comb(big_n, n)
        self.plucker_minors += minors
        # the stacked n x n complex submatrices the enumeration evaluates
        self.plucker_bytes += minors * n * n * 16

    def _probe_outcome(self, args, outcome):
        if isinstance(outcome, self.gg.ChartEscapeError):
            self.probe_escapes += 1
        elif getattr(outcome, "indeterminate", False):
            self.probe_indeterminate += 1

    _before = {
        "manifold.exp0": _count_exp0,
        "kernel.fd_jacobian": _enter_fd,
        "manifold.haar_random_plane": _count_draw,
        "manifold.plucker": _count_minors,
    }
    _after = {
        "kernel.fd_jacobian": _leave_fd,
        "manifold.haar_random_chart": _count_accept,
        "loci.conjugate_test_jacobian": _probe_outcome,
    }

    # -------------------------------------------------------------- metrics

    def metrics(self) -> dict:
        """Per-layer metrics: calls and self seconds per span, plus ratios.

        A ratio whose base is zero (no calls on this workload) reads 0.
        """
        out = {}
        for span in SPAN_NAMES:
            stat = self.stats[span]
            out[f"{span}.calls"] = (stat.calls, "count")
            out[f"{span}.self_s"] = (stat.self_s, "s")

        def ratio(num, den):
            return num / den if den else 0.0

        fd = self.stats["kernel.fd_jacobian"].calls
        out["kernel.fd_jacobian.exp0_per_call"] = (
            ratio(sum(self.fd_exp0.values()), fd), "ratio")
        out["manifold.plucker.minors"] = (self.plucker_minors, "count")
        out["manifold.plucker.bytes_computed"] = (self.plucker_bytes, "B")
        out["manifold.haar_random_chart.accept_ratio"] = (
            ratio(self.chart_accepts, self.chart_draws), "ratio")
        probes = self.stats["loci.conjugate_test_jacobian"].calls
        out["loci.conjugate_test_jacobian.escape_ratio"] = (
            ratio(self.probe_escapes, probes), "ratio")
        out["loci.conjugate_test_jacobian.indeterminate_ratio"] = (
            ratio(self.probe_indeterminate, probes), "ratio")
        return out
