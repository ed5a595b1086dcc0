"""Spans recorded by the benchmark around its calls into robosum's layers.

A span has a name (``<layer>.<operation>``), a start and an end on the
system-wide monotonic clock (``time.perf_counter``, comparable across the
benchmark's processes), the id of the span that caused it and a run or
session id. Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the part of it its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects spans when enabled; every method is a no-op otherwise."""

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None, run: str | None = None) -> int:
        """Record a finished span; returns its id."""
        span_id = len(self.spans)
        self.spans.append(
            {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "run": run or self.run_id}
        )
        return span_id

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        span_id = self.add(name, time.perf_counter(), 0.0, parent)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def adopt(self, spans: list[dict], parent: int | None = None) -> None:
        """Append spans recorded elsewhere (a child process), renumbering their ids."""
        offset = len(self.spans)
        for span in spans:
            own_parent = span["parent"]
            self.spans.append(
                {
                    **span,
                    "id": span["id"] + offset,
                    "parent": parent if own_parent is None else own_parent + offset,
                }
            )

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
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


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out: dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(span["id"], ()) if e > start and s < end]
        out[span["name"]] = out.get(span["name"], 0.0) + (end - start) - _covered(clipped)
    return out


def durations(spans: list[dict]) -> dict[str, list[float]]:
    """Every duration recorded under each span name, in seconds."""
    out: dict[str, list[float]] = {}
    for span in spans:
        out.setdefault(span["name"], []).append(span["end"] - span["start"])
    return out
