"""Span recording for the traced benchmark run.

Spans live in memory and are written to a file when the run ends.  Each span
records its name, start, end, parent span, row id and the traced pass it
belongs to.  Spans around calls the harness makes itself come from
``Tracer.span``.  Spans around calls the program makes internally
(``entropy_at`` inside ``run_sweep``, the tower and Markov stages inside
their engines) come from ``Tracer.interpose``: for the length of one traced
pass it rebinds the public module attribute through which the program looks
the function up, and restores it afterwards.  Nothing in the program changes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: spans and interposition cost one no-op context each."""

    def span(self, name, row=None):
        return nullcontext()

    def interpose(self, targets):
        return nullcontext()


class Tracer:
    def __init__(self, clock_origin: float):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = clock_origin
        self.pass_index = None  # set by the caller before each traced pass

    @contextmanager
    def span(self, name: str, row=None):
        parent = self._stack[-1] if self._stack else None
        if row is None and parent is not None:
            row = self.spans[parent]["row"]
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "row": row, "pass": self.pass_index,
               "start": time.perf_counter() - self._origin, "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    @contextmanager
    def interpose(self, targets):
        """Wrap ``(module, attr, span_name, row_of, observe)`` targets.

        ``row_of(args)`` names the row a call belongs to (None inherits the
        parent's row); ``observe(span, args, result)`` records counters on
        the span after it has closed, so counting is not timed.
        """
        saved = []
        try:
            for module, attr, name, row_of, observe in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, row_of, observe))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name, row_of, observe):
        def traced(*args, **kwargs):
            row = row_of(args) if row_of is not None else None
            with self.span(name, row) as rec:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(rec, args, result)
            return result
        return traced


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    return {s["id"]: duration(s) - covered[s["id"]] for s in spans}
