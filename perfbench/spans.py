"""Call counting and span recording around the benchmark's calls into spherecsf.

The benchmark never patches the library: every public call it makes goes
through `Tracer.call`, which counts it and, on traced passes, records a span
(name, start, end, parent, pass id). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    pass_id: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """Counts calls into the program; records spans only while `recording`."""

    def __init__(self):
        self.calls = 0
        self.spans: list[Span] = []
        self.recording = False
        self._root: Optional[Span] = None
        self._pass_id = -1

    def begin_pass(self, workload: str, record: bool) -> None:
        self._pass_id += 1
        self.recording = record
        self._root = None
        if record:
            self._root = Span(len(self.spans), f"bench.pass.{workload}",
                              perf_counter_ns(), 0, None, self._pass_id)
            self.spans.append(self._root)

    def end_pass(self) -> None:
        if self._root is not None:
            self._root.end_ns = perf_counter_ns()
        self.recording = False

    def call(self, name: str, fn, *args, **kwargs):
        self.calls += 1
        if not self.recording:
            return fn(*args, **kwargs)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(len(self.spans), name, start, perf_counter_ns(),
                                   self._root.id, self._pass_id))

    def to_json(self) -> list:
        return [{"id": s.id, "name": s.name, "start_ns": s.start_ns,
                 "end_ns": s.end_ns, "parent": s.parent, "pass": s.pass_id}
                for s in self.spans]


def pass_summaries(spans: list[Span]) -> list[dict]:
    """Per traced pass: seconds and calls per span name, self seconds per
    layer, and the share of the pass covered by spans of library calls."""
    by_pass: dict[int, list[Span]] = {}
    for s in spans:
        by_pass.setdefault(s.pass_id, []).append(s)
    out = []
    for group in by_pass.values():
        child_s: dict[int, float] = {}
        for s in group:
            if s.parent is not None:
                child_s[s.parent] = child_s.get(s.parent, 0.0) + s.seconds
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        root = next(s for s in group if s.parent is None)
        for s in group:
            self_s[s.layer] = (self_s.get(s.layer, 0.0)
                               + s.seconds - child_s.get(s.id, 0.0))
            if s is not root:
                seconds[s.name] = seconds.get(s.name, 0.0) + s.seconds
                calls[s.name] = calls.get(s.name, 0) + 1
        out.append({"seconds": seconds, "calls": calls, "self_s": self_s,
                    "wall_s": root.seconds,
                    "coverage": child_s.get(root.id, 0.0) / root.seconds})
    return out


def median_of(summaries: list[dict], key: str, name: str) -> float:
    """Median over passes of summaries[key][name], 0 where a pass lacks it."""
    return float(statistics.median(s[key].get(name, 0) for s in summaries))
