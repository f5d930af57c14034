"""In-memory spans and per-step call aggregates, recorded from outside the program.

A *span* is one timed call of a function that runs a few times per scenario
(``simulate``, ``solve_stationary``, ``allan_plot``).  A function that runs
once per time step (a filter step, the controller policy) is recorded as an
*aggregate* instead: a count, a total and a self time per (name, enclosing
span).  Self time is a frame's duration minus the time of the frames directly
inside it, so the self times of a root span, of every span below it and of
every aggregate below it add up to the root's duration.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# an open frame: [start, child_s, owner span id, own span id or None]
_START, _CHILD, _OWNER, _SPAN = range(4)


class Tracer:
    """Collects spans, call aggregates and counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[dict] = []
        self.calls: Dict[Tuple[str, Optional[int]], List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[list] = []
        self._next_id = 0

    def _open(self, as_span: bool) -> list:
        owner = self._stack[-1][_OWNER] if self._stack else None
        span_id = None
        if as_span:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, 0.0, span_id if as_span else owner, span_id]
        self._stack.append(frame)
        frame[_START] = self.clock()
        return frame

    def _close(self, frame: list, name: str) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"trace frames closed out of order at {name}")
        duration = end - frame[_START]
        self_s = duration - frame[_CHILD]
        if self._stack:
            self._stack[-1][_CHILD] += duration
        if frame[_SPAN] is not None:
            parent = self._stack[-1][_OWNER] if self._stack else None
            self.spans.append(
                {
                    "id": frame[_SPAN],
                    "name": name,
                    "parent": parent,
                    "start": frame[_START],
                    "end": end,
                    "self_s": self_s,
                }
            )
        else:
            agg = self.calls.setdefault((name, frame[_OWNER]), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += self_s

    @contextmanager
    def span(self, name: str):
        frame = self._open(True)
        try:
            yield
        finally:
            self._close(frame, name)

    def wrap(
        self,
        fn: Callable,
        name: str,
        per_step: bool = False,
        observe: Optional[Callable] = None,
        errors: Tuple[type, ...] = (),
    ) -> Callable:
        """Return ``fn`` traced as a span, or as an aggregate when ``per_step``.

        ``observe(tracer, args, kwargs, result)`` runs after a successful call,
        outside its frame, so its cost lands in the caller's self time.  An
        exception of a type in ``errors`` increments the counter
        ``<layer>.numerical_errors`` and propagates.
        """
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(not per_step)
            try:
                result = fn(*args, **kwargs)
            except errors:
                self.add(f"{layer}.numerical_errors", 1)
                raise
            finally:
                self._close(frame, name)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def maximum(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, value), value)

    # ------------------------------------------------------------------
    # queries

    def total(self, name: str) -> float:
        """Summed duration of every span and call of ``name``."""
        spans = sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)
        return spans + sum(agg[1] for (n, _), agg in self.calls.items() if n == name)

    def count(self, name: str) -> int:
        spans = sum(1 for s in self.spans if s["name"] == name)
        return spans + int(sum(agg[0] for (n, _), agg in self.calls.items() if n == name))

    def self_total(self, name: str) -> float:
        spans = sum(s["self_s"] for s in self.spans if s["name"] == name)
        return spans + sum(agg[2] for (n, _), agg in self.calls.items() if n == name)

    def root_of(self, span_id: Optional[int]) -> Optional[int]:
        parents = {s["id"]: s["parent"] for s in self.spans}
        while span_id is not None and parents.get(span_id) is not None:
            span_id = parents[span_id]
        return span_id

    def export(self) -> dict:
        """Spans (name, start, end, parent; times relative to the first span)
        and the per-step aggregates, as plain JSON-ready data."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        return {
            "spans": [
                dict(s, start=s["start"] - origin, end=s["end"] - origin)
                for s in sorted(self.spans, key=lambda s: s["start"])
            ],
            "calls": [
                {"name": n, "parent": owner, "count": int(a[0]), "total_s": a[1], "self_s": a[2]}
                for (n, owner), a in sorted(self.calls.items(), key=lambda kv: str(kv[0]))
            ],
            "counters": dict(self.counters),
        }
