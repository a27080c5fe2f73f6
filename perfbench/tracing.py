"""Span tracing of grassball's public functions, installed from outside.

The tracer replaces each traced function by a wrapper that records one span
(name, start, end, parent span, op id, raised) per call.  Modules such as
``chamber``, ``plucker`` and ``sampling`` import names directly, so every
module binding of a traced function is replaced, not only the one in its
home module; methods are replaced on their class.  Spans stay in memory and
are aggregated, or written out, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from fractions import Fraction

# layer -> functions traced in it; "Class.method" names a method
TRACED = {
    "exterior": ["wedge", "contract", "classify_sign"],
    "plucker": ["is_decomposable", "spanning_vectors", "plucker_of_matrix",
                "contains"],
    "lemmas": ["shrink_positive", "extend_positive"],
    "linalg": ["rref", "det", "solve"],
    "lp": ["solve_lp"],
    "convexoid": ["vertices", "barycenter", "ConvexoidSpec.fiber",
                  "HalfBallMap.forward", "HalfBallMap.inverse",
                  "GluedBallMap.__init__", "GluedBallMap.forward",
                  "GluedBallMap.inverse"],
    "chamber": ["BallChart.forward", "BallChart.inverse",
                "EFiberFrame.__init__", "FFiberFrame.__init__", "nudge_into",
                "split", "assemble", "ChamberPoint.__post_init__"],
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
SETUP_OP = -1  # op id of spans recorded while the workload is set up

FRAME_INITS = ("chamber.EFiberFrame.__init__", "chamber.FFiberFrame.__init__")


class Tracer:
    """Records spans of the functions in TRACED while installed."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.spans: list = []
        self.op = SETUP_OP
        self.nudge_moved = 0
        self._stack: list[int] = []
        self._restore: list = []

    # -- installation ---------------------------------------------------------

    def install(self, package: str = "grassball") -> None:
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == package or name.startswith(package + "."))
        ]
        for index, span_name in enumerate(self.names):
            layer, _, attr = span_name.partition(".")
            home = sys.modules[f"{package}.{layer}"]
            observe = (
                self._observe_nudge if span_name == "chamber.nudge_into"
                else None
            )
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, index, observe))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, index, observe)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, binding, original))
                        setattr(mod, binding, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _observe_nudge(self, args, result) -> None:
        """Count nudge_into(poly, y) calls that return a point other than y."""
        if result != tuple(Fraction(v) for v in args[1]):
            self.nudge_moved += 1

    def _wrap(self, fn, name_index, observe=None):
        spans, stack, clock, tracer = (
            self.spans, self._stack, time.perf_counter, self)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name_index, start, end, parent, tracer.op, raised)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- output ---------------------------------------------------------------

    def write(self, path: str, extra: dict) -> None:
        """Write every span, with ``extra`` run facts, as gzip'd JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        record = dict(extra)
        record["names"] = self.names
        record["span_fields"] = ["name", "start_s", "end_s", "parent", "op",
                                 "raised"]
        record["spans"] = [
            [n, s - origin, e - origin, p, op, int(r)]
            for n, s, e, p, op, r in self.spans
        ]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(record, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [
        (end - start) - child[i]
        for i, (_, start, end, _, _, _) in enumerate(spans)
    ]


def layer_metrics(names, spans, ops: int, nudge_moved: int) -> dict:
    """Per-function calls, self time and errors, plus the per-op ratios.

    Totals cover the whole traced run, set-up included, because some layers
    (the gluing check) work only there; ``*.per_op`` ratios count only the
    spans of the ``ops`` measured ops.
    """
    calls = [0] * len(names)
    errors = [0] * len(names)
    self_s = [0.0] * len(names)
    op_calls = [0] * len(names)
    for span, own in zip(spans, self_times(spans)):
        name, _, _, _, op, raised = span
        calls[name] += 1
        self_s[name] += own
        errors[name] += raised
        if op >= 0:
            op_calls[name] += 1
    out = {}
    for i, name in enumerate(names):
        out[f"{name}.calls"] = (calls[i], "count")
        out[f"{name}.self_s"] = (self_s[i], "s")
        out[f"{name}.errors"] = (errors[i], "count")
    index = {name: i for i, name in enumerate(names)}
    per_op = max(ops, 1)
    out["trace.ops"] = (ops, "count")
    out["lp.solve_lp.per_op"] = (
        op_calls[index["lp.solve_lp"]] / per_op, "calls/op")
    out["chamber.frames_built.per_op"] = (
        sum(op_calls[index[n]] for n in FRAME_INITS) / per_op, "frames/op")
    out["chamber.BallChart.forward.per_op"] = (
        op_calls[index["chamber.BallChart.forward"]] / per_op, "calls/op")
    nudges = calls[index["chamber.nudge_into"]]
    out["chamber.nudge_into.moved"] = (
        nudge_moved / nudges if nudges else 0.0, "moved/call")
    return out
