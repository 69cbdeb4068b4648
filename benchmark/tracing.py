"""Spans around the program's layers, recorded from the benchmark's side.

:meth:`Tracer.install` replaces each layer function listed in ``TARGETS``
with a wrapper, at every name under which a ``rvnorms`` module holds it, so
callers reach the wrapper.  A span is ``[name id, start ns, end ns, parent
offset]``, kept in memory until :meth:`Tracer.dump`.  A name missing
from the program is skipped and its metrics read 0.  All wrapped layers run
on the calling thread (the oracle's worker threads run unwrapped code), so
one span stack suffices.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

# (module, attribute or Class.method, span name)
TARGETS = (
    ("rvnorms.matrixcore", "Matrix.__matmul__", "matrixcore.matmul"),
    ("rvnorms.matrixcore", "Matrix.__init__", "matrixcore.matrix_build"),
    ("rvnorms.matrixcore", "trace_powers", "matrixcore.trace_powers"),
    ("rvnorms.matrixcore", "hermitian_eigenvalues", "matrixcore.eigen"),
    ("rvnorms.matrixcore", "load_matrix", "matrixcore.load"),
    ("rvnorms.words", "placement_terms", "words.placement"),
    ("rvnorms.normengine", "general_norm_pow", "normengine.general"),
    ("rvnorms.normengine", "hermitian_norm_pow", "normengine.hermitian"),
    ("rvnorms.normengine", "series_norm_pow", "normengine.series"),
    ("rvnorms.normengine", "symbolic_formula", "normengine.formula"),
    ("rvnorms.normengine", "TracePolynomial.to_json", "normengine.render"),
    ("rvnorms.normengine", "TracePolynomial.text", "normengine.render"),
    ("rvnorms.partitions", "enumerate_partitions", "partitions.enumerate"),
    ("rvnorms.cumulants", "distribution_cumulants", "cumulants.cumulants"),
    ("rvnorms.cumulants", "parse_distribution", "cumulants.parse"),
    ("rvnorms.series", "TruncatedSeries.exp", "series.exp"),
    ("rvnorms.sympoly", "hunter_poly", "sympoly.hunter"),
    ("rvnorms.sympoly", "hunter_poly_recursive", "sympoly.hunter"),
    ("rvnorms.oracle", "mc_norm_pow", "oracle.sampling"),
    ("rvnorms.oracle", "khintchine_check", "oracle.khintchine"),
    ("rvnorms.suites", "random_hermitian", "suites.inputs"),
    ("rvnorms.suites", "random_general", "suites.inputs"),
    ("rvnorms.suites", "robin_hood_pair", "suites.inputs"),
    ("rvnorms.suites", "random_rational_vector", "suites.inputs"),
)

OP_SPAN = "cli.main"

# Per-layer metric -> (span name, "calls" per operation | "ms" median self time).
SPAN_METRICS = {
    "matrixcore.matmul_calls": ("matrixcore.matmul", "calls"),
    "matrixcore.matmul_ms": ("matrixcore.matmul", "ms"),
    "matrixcore.matrix_builds": ("matrixcore.matrix_build", "calls"),
    "matrixcore.matrix_build_ms": ("matrixcore.matrix_build", "ms"),
    "matrixcore.trace_powers_ms": ("matrixcore.trace_powers", "ms"),
    "matrixcore.eigen_ms": ("matrixcore.eigen", "ms"),
    "matrixcore.load_ms": ("matrixcore.load", "ms"),
    "words.placement_ms": ("words.placement", "ms"),
    "normengine.general_ms": ("normengine.general", "ms"),
    "normengine.hermitian_ms": ("normengine.hermitian", "ms"),
    "normengine.series_ms": ("normengine.series", "ms"),
    "normengine.formula_ms": ("normengine.formula", "ms"),
    "normengine.render_ms": ("normengine.render", "ms"),
    "partitions.enumerate_calls": ("partitions.enumerate", "calls"),
    "partitions.enumerate_ms": ("partitions.enumerate", "ms"),
    "cumulants.cumulants_calls": ("cumulants.cumulants", "calls"),
    "cumulants.cumulants_ms": ("cumulants.cumulants", "ms"),
    "cumulants.parse_ms": ("cumulants.parse", "ms"),
    "series.exp_ms": ("series.exp", "ms"),
    "sympoly.hunter_ms": ("sympoly.hunter", "ms"),
    "oracle.sampling_ms": ("oracle.sampling", "ms"),
    "oracle.khintchine_ms": ("oracle.khintchine", "ms"),
    "suites.inputs_ms": ("suites.inputs", "ms"),
    "cli.self_ms": (OP_SPAN, "ms"),
}


def _modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "rvnorms" and m]


class Tracer:
    """Spans as a flat int64 array of ``(name id, start ns, end ns, parent)``
    records; a parent is the offset of its record, -1 for none."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            at = len(spans)
            spans.extend((nid, clock(), 0, stack[-1] if stack else -1))
            stack.append(at)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[at + 2] = clock()

        return traced

    def install(self) -> None:
        """Wrap every target that exists in the loaded program."""
        modules = _modules()
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and meth in vars(cls):
                    setattr(cls, meth, self.wrap(span_name, vars(cls)[meth]))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            traced = self.wrap(span_name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def per_op(self) -> list[dict]:
        """For each ``cli.main`` span: {span name: [calls, self ns, total ns]}.

        Spans outside an operation (the checks' reruns) are left out.
        """
        spans = self.spans
        count = len(spans) // 4
        child_ns = [0] * count
        root = list(range(count))
        for k in range(count):
            parent = spans[4 * k + 3]
            if parent >= 0:
                child_ns[parent // 4] += spans[4 * k + 2] - spans[4 * k + 1]
                root[k] = root[parent // 4]
        op_id = self.names.index(OP_SPAN) if OP_SPAN in self.names else -1
        ops: dict[int, dict] = {}
        for k in range(count):
            r = root[k]
            if spans[4 * r] != op_id:
                continue
            duration = spans[4 * k + 2] - spans[4 * k + 1]
            acc = ops.setdefault(r, {}).setdefault(self.names[spans[4 * k]], [0, 0, 0])
            acc[0] += 1
            acc[1] += duration - child_ns[k]
            acc[2] += duration
        return [ops[r] for r in sorted(ops)]

    def dump(self, stem: Path, extra: dict) -> None:
        """Write ``stem.json`` (names and ``extra``) and ``stem.spans`` (the
        records as native-endian int64)."""
        stem.with_suffix(".json").write_text(json.dumps(dict(extra, names=self.names)))
        with open(stem.with_suffix(".spans"), "wb") as fh:
            self.spans.tofile(fh)


def layer_metrics(ops: list[dict]) -> dict:
    """Per-operation figures: calls averaged over all operations, self time
    as the median over the operations that entered the layer."""
    out = {}
    count = max(1, len(ops))
    for metric, (span, kind) in SPAN_METRICS.items():
        if kind == "calls":
            out[metric] = sum(op.get(span, (0,))[0] for op in ops) / count
        else:
            entered = [op[span][1] / 1e6 for op in ops if span in op]
            out[metric] = statistics.median(entered) if entered else 0.0
    return out


def samples_per_s(ops: list[dict], samples: int) -> float:
    """Median over operations of Monte Carlo samples per second spent in
    ``mc_norm_pow`` (its whole span, sampling threads included)."""
    rates = [samples / (op["oracle.sampling"][2] / 1e9) for op in ops if "oracle.sampling" in op]
    return statistics.median(rates) if rates else 0.0
