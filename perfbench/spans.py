"""In-memory span tracing around the program's public calls.

A :class:`Tracer` replaces a function or method binding with a wrapper that
records a span (name, start, end, parent) and restores every binding when
its ``installed`` block ends.  The wrapper must replace the binding the
caller uses: ``rvqtok.tokenizer`` imports ``backward``, ``adamw_step`` and
``ema_update`` by name, so those are patched on the importing module, not
where they are defined.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "note")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.note = None  # a counter or value read at this boundary

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; one instance per round of a workload."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _finish(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._open.pop()
        return span

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield self.spans[idx]
        finally:
            self._finish(idx)

    def parent_name(self) -> str | None:
        return self.spans[self._open[-1]].name if self._open else None

    # -- binding replacement -------------------------------------------
    def wrap(self, owner, attr: str, name, note=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name, or a callable of the tracer returning one
        (for a method shared by several layers).  ``note(args, result)``
        reads a counter or keeps a value at the boundary.
        """
        original = vars(owner)[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(tracer) if callable(name) else name
            idx = tracer._begin(label)
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer._finish(idx)
            if note is not None:
                span.note = note(args, result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @contextmanager
    def installed(self):
        """Restore every replaced binding on exit, newest first."""
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- reading --------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children_time(self) -> np.ndarray:
        """Per span, the summed duration of its direct children."""
        out = np.zeros(len(self.spans))
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] += s.duration
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time (duration minus direct children) per span name."""
        child = self.children_time()
        totals: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            totals[s.name] += s.duration - child[i]
        return dict(totals)

    def per_ancestor(self, ancestor: str, name: str,
                     field: str = "duration") -> list[float]:
        """For each span called ``ancestor``, the sum of ``field`` (the
        duration, or a numeric ``note``) over the spans called ``name``
        beneath it; 0 where there are none."""
        anc_of = self._ancestor_index(ancestor)
        sums = {i: 0.0 for i, s in enumerate(self.spans) if s.name == ancestor}
        for i, s in enumerate(self.spans):
            a = anc_of[i]
            if s.name == name and a is not None and a != i:
                sums[a] += getattr(s, field) or 0.0
        return [sums[i] for i in sorted(sums)]

    def self_time_of(self, name: str) -> list[float]:
        child = self.children_time()
        return [s.duration - child[i] for i, s in enumerate(self.spans)
                if s.name == name]

    def _ancestor_index(self, ancestor: str) -> list[int | None]:
        """Index of the nearest enclosing span named ``ancestor`` (itself
        included), per span; spans arrive parents first."""
        out: list[int | None] = []
        for i, s in enumerate(self.spans):
            if s.name == ancestor:
                out.append(i)
            elif s.parent is not None:
                out.append(out[s.parent])
            else:
                out.append(None)
        return out
