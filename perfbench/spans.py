"""Span recording from outside the program, for the traced pass.

The benchmark wraps public methods on live ``repro`` instances (never
classes, never code under ``src/``). Each call records one span: name,
wall start, wall end, parent span and run id. Spans stay in memory as
flat lists and are written out once, at the end of the run.

A span's *self time* is its duration minus the durations of its direct
children, derived afterwards from the parent links. Summed over every
span, self time equals the summed duration of the top-level spans, so
``1 - covered / wall`` is the share of a run no layer accounts for.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Optional

import numpy as np

#: ``counter(counts, args, result)`` adds per-call work counts.
CountFn = Callable[[Counter, tuple, Any], None]


class SpanRecorder:
    """In-memory span log fed by :meth:`wrap`-installed wrappers.

    Single-threaded by design: the traced workloads run their layers on
    one thread, so one parent stack describes the nesting.
    """

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.names: list = []
        self._name_ix: Dict[str, int] = {}
        self.span_name = []
        self.t0 = []
        self.t1 = []
        self.parent = []
        self.run = []
        self.counts: Counter = Counter()
        self._stack: list = []

    def wrap(self, obj: Any, attr: str, name: str,
             count: Optional[CountFn] = None) -> None:
        """Replace ``obj.attr`` (a bound method) with a span-recording
        wrapper on this one instance."""
        inner = getattr(obj, attr)
        ix = self._name_ix.setdefault(name, len(self.names))
        if ix == len(self.names):
            self.names.append(name)
        rec = self

        def traced(*args, **kwargs):
            i = len(rec.t0)
            stack = rec._stack
            rec.span_name.append(ix)
            rec.parent.append(stack[-1] if stack else -1)
            rec.run.append(rec.run_id)
            rec.t0.append(0.0)
            rec.t1.append(0.0)
            stack.append(i)
            start = perf_counter()
            try:
                out = inner(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec.t0[i] = start
                rec.t1[i] = end
            if count is not None:
                count(rec.counts, args, out)
            return out

        setattr(obj, attr, traced)

    # ------------------------------------------------------------------
    def layer_totals(self, start: float, end: float) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` of the spans
        that began in the timed window ``[start, end]``, plus the
        ``covered_s`` of its top-level spans under the key ``""``."""
        t0 = np.asarray(self.t0)
        dur = np.asarray(self.t1) - t0
        parent = np.asarray(self.parent, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        self_s = dur - child
        inside = (t0 >= start) & (t0 <= end)
        name = np.asarray(self.span_name, dtype=np.int64)[inside]
        dur, self_s, nested = dur[inside], self_s[inside], nested[inside]
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_s, minlength=k)
        out = {
            n: {"calls": int(calls[j]), "total_s": float(total[j]),
                "self_s": float(own[j])}
            for j, n in enumerate(self.names)
        }
        out[""] = {"covered_s": float(dur[~nested].sum())}
        return out

    def write(self, path: Path) -> Path:
        """Write every span as gzipped JSON: a name table plus one
        ``[name, start_s, end_s, parent, run]`` row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "run"],
            "spans": [list(r) for r in zip(self.span_name, self.t0, self.t1,
                                           self.parent, self.run)],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
        return path
