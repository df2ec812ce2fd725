"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: ``(name, start, end, parent,
op)``.  Spans nest through a stack, so a span opened inside another
records it as its parent; spans of one benchmark operation share the
``op`` id.  The stack is per thread, so two client threads each get
their own nesting.  Nothing is written until :meth:`Tracer.dump` at the end
of the run, so recording costs one ``perf_counter`` pair and a list
append.

:class:`NullTracer` has the same interface and records nothing: the
end-to-end run uses it, so tracing is off there.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Iterator, Optional


class Span(object):
    __slots__ = ("sid", "name", "start", "end", "parent", "op")

    def __init__(self, sid: int, name: str, start: float,
                 parent: Optional[int], op: Optional[int]) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "op": self.op,
        }


class Tracer(object):
    """Records spans and counters in memory (see module doc)."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ops = 0

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
        return local

    @contextlib.contextmanager
    def op(self) -> Iterator[int]:
        """Tag every span opened inside with a fresh operation id."""
        local = self._state()
        with self._lock:
            self._ops += 1
            op_id = self._ops
        previous, local.op = local.op, op_id
        try:
            yield op_id
        finally:
            local.op = previous

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        local = self._state()
        parent = local.stack[-1].sid if local.stack else None
        with self._lock:
            sp = Span(len(self.spans), name, time.perf_counter(), parent,
                      local.op)
            self.spans.append(sp)
        local.stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            local.stack.pop()

    def add(self, name: str, amount: float = 1.0) -> None:
        """Bump a counter recorded at a layer boundary."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def set(self, name: str, value: float) -> None:
        """Record a value read from the program (last write wins)."""
        self.gauges[name] = float(value)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its children cover.

        Children of one span never overlap (each thread's recorder is
        a stack), so the covered time is the sum of the children's durations,
        clipped to the parent's interval.
        """
        covered: dict[int, float] = {}
        for sp in self.spans:
            if sp.parent is None:
                continue
            parent = self.spans[sp.parent]
            lo = max(sp.start, parent.start)
            hi = min(sp.end, parent.end)
            if hi > lo:
                covered[sp.parent] = covered.get(sp.parent, 0.0) + hi - lo
        return {
            sp.sid: max(0.0, sp.duration - covered.get(sp.sid, 0.0))
            for sp in self.spans
        }

    def by_name(self) -> dict[str, list[float]]:
        """Span name -> list of self times, in recording order."""
        selfs = self.self_times()
        out: dict[str, list[float]] = {}
        for sp in self.spans:
            out.setdefault(sp.name, []).append(selfs[sp.sid])
        return out

    def dump(self, path: str) -> None:
        """Write every span and counter as JSON lines, once."""
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_dict()) + "\n")
            fh.write(json.dumps(
                {"counters": self.counters, "gauges": self.gauges}
            ) + "\n")


_NULL = contextlib.nullcontext()


class NullTracer(object):
    """Tracing off: same interface, records nothing."""

    enabled = False

    def op(self) -> contextlib.nullcontext:
        return _NULL

    def span(self, name: str) -> contextlib.nullcontext:
        return _NULL

    def add(self, name: str, amount: float = 1.0) -> None:
        pass

    def set(self, name: str, value: float) -> None:
        pass
