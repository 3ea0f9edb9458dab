"""In-memory spans around the benchmark's calls into each layer.

A span records a name, start and end (``perf_counter`` seconds), the
span that caused it, and the op it belongs to; ``count`` holds the work
the call did where one exists (simulated instructions for a run).
Spans stay in memory until :meth:`Tracer.dump`, so tracing costs two
clock reads and one object per call. A layer's *self time* is its
span's duration minus what its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

_NULL = nullcontext()


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "count")

    def __init__(self, sid, name, parent, op):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.count = None
        self.start = self.end = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self):
        self.tracer._stack.append(self.span.sid)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Span recorder; ``enabled = False`` makes :meth:`span` free."""

    def __init__(self):
        self.spans: List[Span] = []
        self.enabled = True
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.op)
        self.spans.append(span)
        return _Open(self, span)

    def self_times(self) -> Dict[int, float]:
        own = {s.sid: s.dur for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.dur
        return own

    def root_of(self, span: Span) -> Span:
        while span.parent is not None:
            span = self.spans[span.parent]
        return span

    def layer_table(self, root: str, ops=None) -> Dict[str, dict]:
        """Per span name under root spans named ``root`` (and, if given,
        belonging to the op ids in ``ops``): call count, median duration
        per call, total self time and self-time share of the roots'
        total duration."""
        own = self.self_times()
        total = 0.0
        rows: Dict[str, dict] = {}
        for s in self.spans:
            top = self.root_of(s)
            if top.name != root or (ops is not None and s.op not in ops):
                continue
            if s.parent is None:
                total += s.dur
            row = rows.setdefault(s.name, {"durs": [], "self": 0.0})
            row["durs"].append(s.dur)
            row["self"] += own[s.sid]
        return {name: {"calls": len(r["durs"]),
                       "median_s": statistics.median(r["durs"]),
                       "self_s": r["self"],
                       "self_frac": r["self"] / total if total else 0.0}
                for name, r in rows.items()}

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "op": s.op,
                    "count": s.count}) + "\n")
