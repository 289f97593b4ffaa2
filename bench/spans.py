"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, query): perf-counter seconds, the
index of the enclosing span (-1 at the root) and the query id it belongs
to, inherited from the parent when not given. Spans stay in memory and are
written out once, when the run ends. Self time is a span's duration minus
the time its direct children cover; one thread records, so children never
overlap.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, query: str | None = None):
        parent = self._open[-1] if self._open else -1
        if query is None and parent >= 0:
            query = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, query])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """{name: (total self seconds, span count)}."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _query in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[float, int]] = {}
        for index, (name, start, end, _parent, _query) in enumerate(self.spans):
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + (end - start) - child_time[index], calls + 1)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "query": q}
            for n, s, e, p, q in self.spans
        ]
        path.write_text(json.dumps(rows))
