"""Spans around the public entry points of sketchgs, installed from outside.

A `Tracer` used as a context manager replaces the functions and methods in
`_TARGETS` by wrappers that record one span per call (name, start, end,
parent span, operation id) and add computed work counts for the current
operation. Leaving the context puts the originals back. Spans stay in memory
until the run writes them out; nothing in the library knows about tracing.

Functions are patched on the module whose globals the callers look them up
in, so the benchmark calls them through their module (`io.synthetic_matrix`,
`krylov.gmres`) and `bench.run_certify` reaches `io.synthetic_matrix`
through its own imported name.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

from sketchgs import bench, gram_schmidt, io, krylov, sketch


def _sketch_work(tracer, args):
    op = args[0]
    if op.kind is sketch.SketchKind.PSRHT:
        # radix-2 FWHT on the padded length: s*log2(s) adds, each stage
        # reading and writing s binary64 values
        adds = op.s * (op.s.bit_length() - 1)
        tracer.add("sketch.flops_computed", adds)
        tracer.add("sketch.bytes_computed", 16 * adds)
        tracer.add("sketch.rows_computed", op.s)
    else:
        tracer.add("sketch.flops_computed", 2 * op.k * op.n)
        tracer.add("sketch.bytes_computed", 8 * op.k * op.n)
        tracer.add("sketch.rows_computed", op.k)
    tracer.add("sketch.rows_kept", op.k)


def _update_work(tracer, args):
    # the n-dimensional update q' = w - Q r against the i columns so far
    state = args[0]
    n, i = state.theta.n, state.m
    dtype = state.policy.coarse_dtype
    part = "coarse" if dtype.itemsize == 4 else "fine"
    tracer.add(f"gram_schmidt.update_flops_{part}", 2 * n * i)
    tracer.add("gram_schmidt.update_bytes_computed", dtype.itemsize * n * (i + 2))


def _classical_name(args):
    return f"gram_schmidt.classical_push.{args[0].variant.value}"


# (owner, attribute, span name or name-from-arguments, work counter)
_TARGETS = (
    (sketch.SketchOperator, "__init__", "sketch.build", None),
    (sketch.SketchOperator, "apply", "sketch.apply", _sketch_work),
    (sketch, "fwht", "sketch.fwht", None),
    (gram_schmidt.RgsState, "push", "gram_schmidt.push", _update_work),
    (gram_schmidt.ClassicalGsState, "push", _classical_name, None),
    (gram_schmidt, "certificates", "gram_schmidt.certificates", None),
    (krylov, "gmres", "krylov.gmres", None),
    (krylov, "ilu0", "krylov.ilu0", None),
    (krylov.Ilu0Preconditioner, "solve", "krylov.ilu_solve", None),
    (krylov.SparseMatrix, "matvec", "krylov.matvec", None),
    (bench, "run_certify", "bench.run_certify", None),
    (bench, "synthetic_matrix", "io.synthetic_matrix", None),
    (io, "synthetic_matrix", "io.synthetic_matrix", None),
    (io, "generate_laplacian_2d", "io.laplacian", None),
    (io, "write_report", "io.write_report", None),
)

# metric -> (span name, "total" duration or "self" time)
_TIMES = {
    "sketch.apply_s": ("sketch.apply", "total"),
    "sketch.fwht_s": ("sketch.fwht", "total"),
    "sketch.build_s": ("sketch.build", "total"),
    "gram_schmidt.push_s": ("gram_schmidt.push", "total"),
    "gram_schmidt.push_self_s": ("gram_schmidt.push", "self"),
    "gram_schmidt.classical_push_s.cgs": ("gram_schmidt.classical_push.cgs", "total"),
    "gram_schmidt.classical_push_s.mgs": ("gram_schmidt.classical_push.mgs", "total"),
    "gram_schmidt.classical_push_s.cgs2": ("gram_schmidt.classical_push.cgs2", "total"),
    "gram_schmidt.certificates_s": ("gram_schmidt.certificates", "total"),
    "krylov.gmres_s": ("krylov.gmres", "total"),
    "krylov.gmres_self_s": ("krylov.gmres", "self"),
    "krylov.ilu0_build_s": ("krylov.ilu0", "total"),
    "krylov.ilu_solve_s": ("krylov.ilu_solve", "total"),
    "krylov.matvec_s": ("krylov.matvec", "total"),
    "bench.run_certify_s": ("bench.run_certify", "total"),
    "bench.trace_self_s": ("bench.run_certify", "self"),
    "io.synthetic_matrix_s": ("io.synthetic_matrix", "total"),
    "io.laplacian_s": ("io.laplacian", "total"),
    "io.write_report_s": ("io.write_report", "total"),
}
# metric -> span name whose calls it counts
_CALLS = {
    "sketch.apply_calls": "sketch.apply",
    "gram_schmidt.pushes": "gram_schmidt.push",
    "krylov.ilu_solves": "krylov.ilu_solve",
    "krylov.matvecs": "krylov.matvec",
}
_COUNTS = ("sketch.flops_computed", "sketch.bytes_computed",
           "gram_schmidt.update_flops_coarse", "gram_schmidt.update_flops_fine",
           "gram_schmidt.update_bytes_computed")
_PUSH_SPANS = ("gram_schmidt.push",) + tuple(
    f"gram_schmidt.classical_push.{v}" for v in ("cgs", "mgs", "cgs2"))


class Tracer:
    """Records spans while entered; `op` names the unit the spans belong to
    (an operation index, a set-up repetition, or None for neither)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.counts = defaultdict(Counter)  # op -> work counter
        self.op = None
        self._stack = []
        self._saved = []

    def add(self, key, value):
        self.counts[self.op][key] += value

    def __enter__(self):
        for owner, attr, name, work in _TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, work))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fn, name(args) if callable(name) else name,
                              work, args, kwargs)
        return traced

    def _call(self, fn, name, work, args, kwargs):
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
        stack.append(len(self.spans))
        self.spans.append(span)
        if work is not None:
            work(self, args)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.add(f"{name}.{type(exc).__name__}", 1)
            raise
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def _unit_totals(self):
        """Per unit: summed duration, self time and call count of each span
        name, and the summed duration of its top-level spans ("<top>")."""
        covered = defaultdict(float)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        total, own, calls = (defaultdict(Counter) for _ in range(3))
        for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
            total[op][name] += t1 - t0
            own[op][name] += t1 - t0 - covered[sid]
            calls[op][name] += 1
            if parent < 0:
                total[op]["<top>"] += t1 - t0
        return {"total": total, "self": own, "calls": calls}

    def layer_metrics(self, op_seconds, setup_ids):
        """Per-layer metrics: the median over traced operations of each
        per-operation total. A span that never runs inside an operation
        (input generation, sketch construction done in set-up) is the median
        over set-up repetitions instead; one that never runs is 0.

        `op_seconds` maps each traced operation id to its wall time, against
        which the top-level spans' coverage is reported.
        """
        units = self._unit_totals()
        op_ids = list(op_seconds)

        def median_of(kind, key):
            table = units[kind]
            for ids in (op_ids, setup_ids):
                if any(table[u][key] for u in ids):
                    return statistics.median(table[u][key] for u in ids)
            return 0

        out = {m: median_of(kind, name) for m, (name, kind) in _TIMES.items()}
        out.update({m: median_of("calls", name) for m, name in _CALLS.items()})
        for key in _COUNTS:
            out[key] = statistics.median(self.counts[u][key] for u in op_ids)
        kept = statistics.median(self.counts[u]["sketch.rows_kept"] for u in op_ids)
        computed = statistics.median(self.counts[u]["sketch.rows_computed"]
                                     for u in op_ids)
        out["sketch.rows_kept_frac"] = kept / computed if computed else 0
        out["gram_schmidt.breakdowns"] = statistics.median(
            sum(self.counts[u][f"{s}.BreakdownError"] for s in _PUSH_SPANS)
            for u in op_ids)
        out["trace.coverage_frac"] = statistics.median(
            units["total"][u]["<top>"] / op_seconds[u] for u in op_ids)
        return out

    def records(self):
        return [{"id": i, "name": name, "start": t0, "end": t1,
                 "parent": parent, "op": op}
                for i, (name, t0, t1, parent, op) in enumerate(self.spans)]
