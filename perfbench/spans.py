"""Span tracing around the calls into each alghyp layer.

The tracer replaces a public function at each module binding its callers
look it up through (``alghyp.cli.multiply`` and ``alghyp.chern.multiply``
are separate bindings of ``grassmann.multiply``) with a wrapper that
records a span: name, start, end, parent span and op id.  Spans stay in
memory and are written out when the run ends; self times are computed
from the written spans.  Wrappers record nothing outside an op, so the
output checks run untraced.
"""

from __future__ import annotations

import importlib
import json
import time
from math import comb

_CONSTRUCTORS = ("grassmannian", "projective_space", "orthogonal", "symplectic", "flag", "product")


def _terms(counters, args, result):
    counters["grassmann.terms_out"] += len(result.terms)


def _cases(counters, args, result):
    counters["genus.cases"] += len(result.cases)


def _cells(counters, args, result):
    n, d = args[:2]
    counters["sections.matrix_cells"] += result.target_dim * n * comb(n + d - 1, d - 1)


# (module, attribute, span name, counter updated from the call's result)
BINDINGS = (
    [("alghyp.cli", "main", "cli.main", None),
     ("alghyp.cli", "parse_variety", "cli.parse_variety", None),
     ("alghyp.cli", "parse_chow", "cli.parse_chow", None)]
    + [("alghyp.cli", name, "varieties.build", None) for name in _CONSTRUCTORS]
    + [("alghyp.cli", "classify", "varieties.classify", None),
       ("alghyp.cli", "known_counterexamples", "varieties.known_counterexamples", None),
       ("alghyp.genus", "hyperbolicity_certificate", "genus.hyperbolicity_certificate", _cases)]
    + [(mod, "multiply", "grassmann.multiply", _terms)
       for mod in ("alghyp.grassmann", "alghyp.cli", "alghyp.chern")]
    + [("alghyp.grassmann", "pieri", "grassmann.pieri", None),
       ("alghyp.chern", "top_chern_sym", "chern.top_chern_sym", None),
       ("alghyp.chern", "fano_class", "chern.fano_class", None),
       ("alghyp.chern", "paired_rearrangement", "chern.paired_rearrangement", None),
       ("alghyp.chern", "line_count", "chern.line_count", None),
       ("alghyp.sections", "check_projective_space", "sections.check_projective_space", _cells)]
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in BINDINGS))
COUNTERS = ("cli.stdout_bytes", "cli.exit1", "cli.exit2", "genus.cases",
            "grassmann.terms_out", "sections.matrix_cells")
SELF_TIMED = ("cli.main", "grassmann.multiply", "chern.paired_rearrangement")
# What each workload reaches.  Only these are reported for it, so that no
# per-layer figure is a constant 0 for a layer the workload never calls.
REACHED = {
    "cli-session": (tuple(n for n in SPAN_NAMES if n != "chern.paired_rearrangement"), COUNTERS),
    "schubert-products": (("grassmann.multiply", "grassmann.pieri"), ("grassmann.terms_out",)),
    "line-classes": (("grassmann.multiply", "grassmann.pieri", "chern.top_chern_sym", "chern.fano_class",
                      "chern.paired_rearrangement", "chern.line_count"), ("grassmann.terms_out",)),
    "section-rank": (("sections.check_projective_space",), ("sections.matrix_cells",)),
}


class Tracer:
    def __init__(self):
        self.names = ["op"] + list(SPAN_NAMES)
        self.spans = []  # [name index, start ns, end ns, parent index, op id]
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = None

    def install(self):
        """Wrap every binding that exists; a binding a refactor removed is skipped."""
        for module_name, attr, name, count in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self._wrap(fn, self.names.index(name), count))

    def _wrap(self, fn, index, count):
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter_ns

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [index, clock(), 0, stack[-1], self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin(self, op_id):
        self.op = op_id
        self.stack.append(len(self.spans))
        self.spans.append([0, time.perf_counter_ns(), 0, -1, op_id])

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()
        self.op = None

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(meta, names=self.names, counters=self.counters,
                           fields=["name", "start_ns", "end_ns", "parent", "op"],
                           spans=self.spans), fh, separators=(",", ":"))


def layer_metrics(path, workload):
    """Per-layer calls, total ms and self ms of the layers `workload`
    reaches, from a written span file.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names, spans = data["names"], data["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = [0] * len(names)
    total = [0] * len(names)
    own = [0] * len(names)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child_ns[i]
    layers, counters = REACHED[workload]
    metrics = {}
    for name in layers:
        i = names.index(name)
        metrics[f"{name}.calls"] = (calls[i], "count")
        metrics[f"{name}.ms"] = (total[i] / 1e6, "ms")
        if name in SELF_TIMED:
            metrics[f"{name}.self_ms"] = (own[i] / 1e6, "ms")
    for name in counters:
        metrics[name] = (data["counters"][name], "count")
    metrics["trace.spans"] = (len(spans), "count")
    return metrics
