"""Spans around the benchmark's calls into htk, and the per-layer metrics
derived from them.

A span is opened around every public call a workload makes through
``Tracer.call``.  Its name is the per-layer metric it feeds, without the
``_s`` suffix (``"L4.graded_morphisms"`` feeds ``L4.graded_morphisms_s``),
and its layer is the name's first component.  The L0 cache counters are
read at both ends of every span.  Spans stay in memory and are written
once, by ``dump``, when the run ends.

``NullTracer`` has the same surface and records nothing, so the timed
phase of an untraced run pays one extra Python call per operation.
"""

import json
import time
from collections import Counter

from htk.arity import canonical_key, layout


def table_keys(P):
    """Number of keys in the tables of a presentation (plain, graded, or
    graded over a base skeleton); 0 for anything else."""
    if isinstance(P, tuple):
        return sum(table_keys(x) for x in P)
    if hasattr(P, "multimaps"):
        return len(P.colours) + len(P.multimaps)
    if not hasattr(P, "strata"):
        return 0
    n = sum(len(t) for t in P.strata.values()) + len(P.top_mul) + len(P.composition)
    objects = getattr(P, "objects", None)
    if objects is not None:
        n += len(objects) + table_keys(P.base)
    return n


def l0_counters():
    keys = canonical_key.cache_info()
    return {"key_calls": keys.hits + keys.misses, "layouts": layout.cache_info().currsize}


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans and the counters that belong to each layer."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        layer = name.split(".", 1)[0]
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        before = l0_counters()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            after = l0_counters()
            for k, v in after.items():
                span[k] = v - before[k]
        self._count(layer, name, args, result)
        return result

    def _count(self, layer, name, args, result):
        """Work counts read at the span's boundary, by layer."""
        if name == "L0.prefill":
            self.counts["L0.arities"] += result
        elif layer in ("L1", "L3"):
            self.counts[f"{layer}.table_keys"] += table_keys(result)
        elif layer == "L2":
            self.counts["L2.validations"] += 1
            self.counts["L2.violations"] += len(result.violations)
        elif layer == "L4":
            self.counts["L4.results"] += len(result)
        elif name == "L5.serialize":
            self.counts["L5.bytes_out"] += len(result.encode())
        elif name == "L5.parse":
            self.counts["L5.bytes_in"] += len(args[0].encode())

    def self_times(self):
        """Seconds per span name, each span's duration minus its children's."""
        child = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = Counter()
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return out

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def dump(self, path, context):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"context": context, "counts": self.counts, "spans": self.spans}, fh)
            fh.write("\n")
