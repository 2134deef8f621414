"""Spans around the library's public functions, recorded from outside ``src/``.

Modules bind imported names at import time (``from .sparse_core import spmv``
gives ``eigsolve`` and ``pcg`` their own binding), so wrapping one module
attribute is not enough.  ``Tracer.install`` replaces every binding, in every
loaded ``bregpcg`` module, that refers to a wrapped function, and
``uninstall`` restores them.  Spans are kept in memory; the caller writes
them out when the run ends.
"""

import functools
import importlib
import os
import sys
import time
import warnings

from bregpcg import LinearOperator, RankCollapse


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            **self.attrs,
        }


def _index_bytes(matrix) -> int:
    return matrix.to_scipy().indices.itemsize


def _spmv_bytes(a, x):
    # values and column indices once, row pointers once, x read, y written
    idx = _index_bytes(a)
    return a.nnz * (8 + idx) + (a.n_rows + 1) * idx + (a.n_cols + a.n_rows) * 8


def _tri_bytes(factor, b):
    low = factor.L
    idx = _index_bytes(low)
    cols = 1 if b.ndim == 1 else b.shape[1]
    return low.nnz * (8 + idx) + (low.n_rows + 1) * idx + 2 * low.n_rows * 8 * cols


class Tracer:
    """Records spans with a name, start, end and parent span."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, capture_warnings=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            if before is not None:
                args = before(span, args)
            try:
                if capture_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    caught = ()
                    result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                tracer.close(span)
                raise
            tracer.close(span)
            for w in caught:
                if issubclass(w.category, RankCollapse):
                    span.attrs["rank_collapse"] = span.attrs.get("rank_collapse", 0) + 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if after is not None:
                after(span, args, result)
            return result

        return traced

    def _traced_operator(self, op, name):
        tracer = self
        inner = op.apply

        def apply(v):
            span = tracer.open(name)
            try:
                return inner(v)
            finally:
                tracer.close(span)

        return LinearOperator(op.dimension, apply)

    def _targets(self):
        """(module, function, before, after, capture_warnings) for each wrapped layer."""

        def tri_before(span, args):
            factor, b = args[0], args[1]
            block = getattr(b, "ndim", 1) == 2
            span.name = "sparse_core.tri_solve_block" if block else "sparse_core.tri_solve_vec"
            span.attrs["cols"] = b.shape[1] if block else 1
            span.attrs["bytes"] = _tri_bytes(factor, b)
            return args

        def spmv_before(span, args):
            span.attrs["bytes"] = _spmv_bytes(args[0], args[1])
            return args

        def op_before(op_name):
            def before(span, args):
                return (self._traced_operator(args[0], op_name),) + tuple(args[1:])

            return before

        def sketch_after(span, args, result):
            span.attrs["rank_asked"] = int(args[1])
            span.attrs["rank_achieved"] = int(result.rank)

        def ic0_after(span, args, result):
            span.attrs["nnz_L"] = int(result.L.nnz)

        def build_after(span, args, result):
            span.attrs["reported_matvecs"] = int(result.build_info.matvecs_s)

        def solve_after(span, args, result):
            span.attrs["reported_matvecs"] = int(result[1].matvecs_S)
            span.attrs["iterations"] = int(result[1].iterations)

        def read_before(span, args):
            source = args[0]
            if isinstance(source, str):
                span.attrs["bytes"] = os.path.getsize(source)
            return args

        def suite_after(span, args, rows):
            span.attrs["rows"] = len(rows)
            span.attrs["err_rows"] = sum(
                1 for row in rows if any(str(cell).startswith("err") for cell in row)
            )

        return [
            ("sparse_core", "spmv", spmv_before, None, False),
            ("sparse_core", "tri_solve", tri_before, None, False),
            ("ichol", "ic0", None, ic0_after, False),
            ("eigsolve", "lanczos_tr", op_before("eigsolve.op_apply"), None, False),
            ("sketch", "nystrom", op_before("sketch.op_apply"), sketch_after, True),
            ("sketch", "nystrom_indefinite", op_before("sketch.op_apply"), sketch_after, True),
            ("rng", "normal_matrix", None, None, False),
            ("precond", "build_alpha", None, build_after, False),
            ("precond", "build_svd_krylov", None, build_after, False),
            ("precond", "build_randomized", None, build_after, False),
            ("precond", "build_exact", None, build_after, False),
            ("precond", "apply_inverse", None, None, False),
            ("pcg", "pcg_solve", None, solve_after, False),
            ("pcg", "cond2_preconditioned", None, None, False),
            ("pcg", "divergence_columns", None, None, False),
            ("bregman", "scaled_error", None, None, False),
            ("bregman", "divergence_ld", None, None, False),
            ("dense_kernels", "sym_eig", None, None, False),
            ("dense_kernels", "dense_cholesky", None, None, False),
            ("dense_kernels", "thin_qr", None, None, False),
            ("matio", "read_matrix_market", read_before, None, False),
            ("matio", "write_matrix_market", None, None, False),
            ("harness", "run_small_suite", None, suite_after, False),
            ("harness", "run_large_suite", None, suite_after, False),
            ("cli", "main", None, None, False),
        ]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, func_name, before, after, capture in self._targets():
            home = importlib.import_module(f"bregpcg.{module_name}")
            original = getattr(home, func_name)
            wrapped = self._wrap(
                f"{module_name}.{func_name}", original, before, after, capture
            )
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "bregpcg" and not mod_name.startswith("bregpcg."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    child_time = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.seconds
    return {span.id: span.seconds - child_time.get(span.id, 0.0) for span in spans}


def descendant_counts(spans, name: str) -> dict:
    """Span id -> number of descendant spans called ``name``."""
    by_id = {span.id: span for span in spans}
    counts = {}
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None:
            counts[parent] = counts.get(parent, 0) + 1
            parent = by_id[parent].parent
    return counts


# Per-layer metrics of one traced round: (name, unit).  Times are seconds
# inside the round; counts are exact.  Byte figures are computed from nnz and
# n for each call (values, indices, vectors each touched once), not measured.
PER_LAYER = [
    ("sparse_core.spmv.calls", "count"),
    ("sparse_core.spmv.self_s", "s"),
    ("sparse_core.spmv.bytes_computed", "B"),
    ("sparse_core.tri_solve_vec.calls", "count"),
    ("sparse_core.tri_solve_vec.self_s", "s"),
    ("sparse_core.tri_solve_block.calls", "count"),
    ("sparse_core.tri_solve_block.cols", "count"),
    ("sparse_core.tri_solve_block.self_s", "s"),
    ("sparse_core.tri_solve.bytes_computed", "B"),
    ("ichol.ic0.calls", "count"),
    ("ichol.ic0.self_s", "s"),
    ("ichol.ic0.nnz_L", "count"),
    ("eigsolve.lanczos_tr.calls", "count"),
    ("eigsolve.lanczos_tr.self_s", "s"),
    ("eigsolve.lanczos_tr.op_applies", "count"),
    ("eigsolve.lanczos_tr.op_s", "s"),
    ("eigsolve.lanczos_tr.partial", "count"),
    ("sketch.nystrom.calls", "count"),
    ("sketch.nystrom.self_s", "s"),
    ("sketch.nystrom.op_applies", "count"),
    ("sketch.nystrom_indefinite.calls", "count"),
    ("sketch.nystrom_indefinite.self_s", "s"),
    ("sketch.nystrom_indefinite.op_applies", "count"),
    ("sketch.rank_asked", "count"),
    ("sketch.rank_achieved_frac", "ratio"),
    ("sketch.rank_collapse", "count"),
    ("rng.normal_matrix.calls", "count"),
    ("rng.normal_matrix.self_s", "s"),
    ("precond.build_alpha.s", "s"),
    ("precond.build_alpha.self_s", "s"),
    ("precond.build_svd_krylov.s", "s"),
    ("precond.build_svd_krylov.self_s", "s"),
    ("precond.build_randomized.s", "s"),
    ("precond.build_randomized.self_s", "s"),
    ("precond.build_exact.s", "s"),
    ("precond.build_exact.self_s", "s"),
    ("precond.apply_inverse.calls", "count"),
    ("precond.apply_inverse.self_s", "s"),
    ("precond.build_attempts", "count"),
    ("precond.infeasible", "count"),
    ("precond.wasted_matvecs_S", "count"),
    ("precond.useful_build_frac", "ratio"),
    ("pcg.pcg_solve.calls", "count"),
    ("pcg.pcg_solve.self_s", "s"),
    ("pcg.pcg_solve.true_residual_checks", "count"),
    ("pcg.cond2_preconditioned.s", "s"),
    ("pcg.divergence_columns.s", "s"),
    ("bregman.scaled_error.self_s", "s"),
    ("bregman.divergence_ld.self_s", "s"),
    ("dense_kernels.sym_eig.calls", "count"),
    ("dense_kernels.sym_eig.self_s", "s"),
    ("dense_kernels.dense_cholesky.calls", "count"),
    ("dense_kernels.dense_cholesky.self_s", "s"),
    ("dense_kernels.thin_qr.calls", "count"),
    ("dense_kernels.thin_qr.self_s", "s"),
    ("matio.read_matrix_market.s", "s"),
    ("matio.read_matrix_market.bytes", "B"),
    ("matio.write_matrix_market.s", "s"),
    ("harness.run_small_suite.self_s", "s"),
    ("harness.run_large_suite.self_s", "s"),
    ("harness.rows", "count"),
    ("harness.err_rows", "count"),
    ("trace.spans", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
]

BUILDS = tuple(f"precond.{b}" for b in ("build_alpha", "build_svd_krylov", "build_randomized", "build_exact"))
SKETCHES = ("sketch.nystrom", "sketch.nystrom_indefinite")
SUITES = ("harness.run_small_suite", "harness.run_large_suite")
COUNTED_LAYERS = (
    "sparse_core.spmv", "sparse_core.tri_solve_vec", "sparse_core.tri_solve_block", "ichol.ic0",
    "eigsolve.lanczos_tr", *SKETCHES, "rng.normal_matrix", "precond.apply_inverse",
    "pcg.pcg_solve", "dense_kernels.sym_eig", "dense_kernels.dense_cholesky", "dense_kernels.thin_qr",
)


def layer_metrics(spans, wall_s: float):
    """Per-layer figures of one traced round, and the count cross-check.

    Returns (metrics, problems).  ``problems`` lists every successful build
    or solve whose counted spmv calls differ from the S-products it reported
    (BuildInfo.matvecs_s or SolveReport.matvecs_S).
    """
    selfs = self_times(spans)
    spmv_below = descendant_counts(spans, "sparse_core.spmv")
    calls, total, own, attrs = {}, {}, {}, {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + span.seconds
        own[span.name] = own.get(span.name, 0.0) + selfs[span.id]
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                attrs[span.name, key] = attrs.get((span.name, key), 0) + value

    def attr(names, key):
        return sum(attrs.get((name, key), 0) for name in names)

    def children(parent_name, child_name):
        ids = {s.id for s in spans if s.name == parent_name}
        return [s for s in spans if s.parent in ids and s.name == child_name]

    m = {}
    for layer in COUNTED_LAYERS:
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
    m["sparse_core.spmv.bytes_computed"] = attr(["sparse_core.spmv"], "bytes")
    m["sparse_core.tri_solve_block.cols"] = attr(["sparse_core.tri_solve_block"], "cols")
    m["sparse_core.tri_solve.bytes_computed"] = attr(
        ["sparse_core.tri_solve_vec", "sparse_core.tri_solve_block"], "bytes"
    )
    m["ichol.ic0.nnz_L"] = attr(["ichol.ic0"], "nnz_L")

    applies = children("eigsolve.lanczos_tr", "eigsolve.op_apply")
    m["eigsolve.lanczos_tr.op_applies"] = len(applies)
    m["eigsolve.lanczos_tr.op_s"] = sum(s.seconds for s in applies)
    m["eigsolve.lanczos_tr.partial"] = sum(
        1 for s in spans if s.name == "eigsolve.lanczos_tr" and s.attrs.get("error") == "NoConvergence"
    )
    for sketch in SKETCHES:
        m[f"{sketch}.op_applies"] = len(children(sketch, "sketch.op_apply"))
    asked = attr(SKETCHES, "rank_asked")
    m["sketch.rank_asked"] = asked
    m["sketch.rank_achieved_frac"] = attr(SKETCHES, "rank_achieved") / asked if asked else 0.0
    m["sketch.rank_collapse"] = attr(SKETCHES, "rank_collapse")

    for build in BUILDS:
        m[f"{build}.s"] = total.get(build, 0.0)
        m[f"{build}.self_s"] = own.get(build, 0.0)
    builds = [s for s in spans if s.name in BUILDS]
    failed = [s for s in builds if "error" in s.attrs]
    m["precond.build_attempts"] = len(builds)
    m["precond.infeasible"] = sum(1 for s in failed if s.attrs["error"] == "InfeasibleLowRank")
    m["precond.wasted_matvecs_S"] = sum(spmv_below.get(s.id, 0) for s in failed)
    m["precond.useful_build_frac"] = (len(builds) - len(failed)) / len(builds) if builds else 0.0

    # every S-product of a solve is one PCG iteration or one true-residual check
    m["pcg.pcg_solve.true_residual_checks"] = sum(
        spmv_below.get(s.id, 0) - s.attrs["iterations"]
        for s in spans
        if s.name == "pcg.pcg_solve" and "error" not in s.attrs
    )
    for name in ("pcg.cond2_preconditioned", "pcg.divergence_columns", "matio.read_matrix_market",
                 "matio.write_matrix_market"):
        m[f"{name}.s"] = total.get(name, 0.0)
    for name in ("bregman.scaled_error", "bregman.divergence_ld", *SUITES):
        m[f"{name}.self_s"] = own.get(name, 0.0)
    m["matio.read_matrix_market.bytes"] = attr(["matio.read_matrix_market"], "bytes")
    m["harness.rows"] = attr(SUITES, "rows")
    m["harness.err_rows"] = attr(SUITES, "err_rows")
    m["trace.spans"] = len(spans)
    m["trace.coverage"] = sum(selfs.values()) / wall_s

    problems = []
    for span in spans:
        if "reported_matvecs" in span.attrs and "error" not in span.attrs:
            counted = spmv_below.get(span.id, 0)
            if counted != span.attrs["reported_matvecs"]:
                problems.append(
                    f"{span.name} (span {span.id}): {counted} spmv calls counted, "
                    f"{span.attrs['reported_matvecs']} S-products reported"
                )
    return m, problems
