"""Spans recorded from outside the program.

The tracer wraps public functions of the repro modules in place and
records one span per call: name, start, end, parent and a row count.
Nothing inside ``src/`` is changed; :meth:`Tracer.uninstall` restores
every original.  Spans stay in memory until the run ends.

A span's self time is its duration minus the part of that interval its
child spans cover (overlapping children are counted once).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    rows: int = 0


class Tracer:
    """Records spans around wrapped calls (see module docstring).

    Every traced workload records from a single thread; parents are
    tracked per thread, but span indices assume one writer at a time.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, rows: int) -> Span:
        stack = self._stack()
        record = Span(name, time.perf_counter(), 0.0,
                      stack[-1] if stack else -1, rows)
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: Span) -> None:
        record.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, rows: int = 0):
        record = self._open(name, rows)
        try:
            yield record
        finally:
            self._close(record)

    def _wrapper(self, original, name: str, rows):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = self._open(name,
                                rows(*args, **kwargs) if rows else 0)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def wrap_method(self, cls: type, attr: str, name: str,
                    rows=None) -> None:
        """Trace ``cls.attr`` (a method defined on ``cls`` itself)."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, rows))

    def wrap_function(self, module, attr: str, name: str,
                      rows=None) -> None:
        """Trace a module-level function everywhere repro imported it."""
        original = getattr(module, attr)
        traced = self._wrapper(original, name, rows)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "repro"
                    and getattr(mod, attr, None) is original):
                self._patches.append((mod, attr, original))
                setattr(mod, attr, traced)

    def uninstall(self) -> None:
        """Restore every wrapped original (newest patch first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def as_rows(self) -> list[list]:
        """Spans as ``[name, start, end, parent, rows]`` lists (for JSON)."""
        return [[s.name, s.start, s.end, s.parent, s.rows]
                for s in self.spans]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus child-covered time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children[span.parent].append((start, end))
    return [(span.end - span.start) - _covered(children.get(i, []))
            for i, span in enumerate(spans)]


@dataclass
class LayerTotals:
    calls: int = 0
    rows: int = 0
    inclusive_s: float = 0.0  # outermost spans of the name only
    self_s: float = 0.0


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: calls, rows, inclusive time and self time.

    Inclusive time counts only spans with no ancestor of the same name,
    so a wrapped method calling its wrapped base is not counted twice.
    """
    selfs = self_times(spans)
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for index, span in enumerate(spans):
        entry = totals[span.name]
        entry.calls += 1
        entry.rows += span.rows
        entry.self_s += selfs[index]
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            entry.inclusive_s += span.end - span.start
    return dict(totals)
