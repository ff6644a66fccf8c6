"""In-memory spans and counts recorded around the calls into each layer.

The benchmark times the program from outside: every public call into a
layer is wrapped in :meth:`Tracer.span`.  A disabled tracer records nothing
and its ``span`` returns one shared no-op context, so untraced runs pay a
function call per span and nothing else.  An alternating tracer traces
every other unit of work, which gives the tracing overhead as paired
ratios measured in one run.  Spans stay in memory and are
written once, at the end of a run, as Chrome trace-event JSON (viewable in
Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, List, Optional, Tuple

_NULL = contextlib.nullcontext()


class Tracer:
    """Records ``(name, layer, start, end, parent)`` spans and named counts."""

    def __init__(self, enabled: bool, run_id: str, alternate: bool = False) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.alternate = alternate
        # (traced, seconds) of each whole unit of work in an alternating run
        self.units: List[Tuple[bool, float]] = []
        # (name, layer, start_ns, end_ns, parent index or -1)
        self.spans: List[Tuple[str, str, int, int, int]] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def span(self, name: str, layer: str):
        """Context manager timing one call into ``layer``."""
        if not self.enabled:
            return _NULL
        return self._span(name, layer)

    @contextlib.contextmanager
    def _span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, layer, 0, 0, parent))
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, layer, start, end, parent)

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        """Add a span timed by the caller (``time.perf_counter`` seconds).

        For calls whose span is only worth keeping once the call has
        returned, such as the one ingest call in hundreds that closes a
        window.
        """
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, layer, int(start * 1e9), int(end * 1e9), parent))

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to the named count (recorded only when enabled)."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def start_unit(self, index: int) -> None:
        """In an alternating run, trace unit ``index`` when ``index % 4`` is 1 or 2.

        Units pair up as ``(0, 1), (2, 3), ...``; both units of a pair do
        the same work (a mining job, a replay of the feed, a block of app
        requests).  A pair is measured back to back, untraced first in one
        pair and traced first in the next, so a drift of the machine's
        speed over the run, or a warm-up, cancels out of the tracing
        overhead.
        """
        if self.alternate:
            self.enabled = index % 4 in (1, 2)

    def end_unit(self, seconds: float) -> None:
        """Record a unit's cost and trace again until the next unit starts."""
        if self.alternate:
            self.units.append((self.enabled, seconds))
            self.enabled = True

    def overhead_ratios(self) -> List[float]:
        """Per pair of units: the traced unit's cost over the untraced one's, minus one."""
        ratios = []
        for first, second in zip(self.units[0::2], self.units[1::2]):
            (traced, untraced) = (first, second) if first[0] else (second, first)
            ratios.append(traced[1] / untraced[1] - 1.0)
        return ratios

    # -- reports -------------------------------------------------------------------
    def aggregates(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span count, busy seconds and self seconds.

        Busy time is the union of the layer's span intervals, so a layer
        nested in itself is not counted twice.  Self time is each span's
        duration minus the part of it that its child spans cover.
        """
        children: Dict[int, List[Tuple[int, int]]] = {}
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        intervals: Dict[str, List[Tuple[int, int]]] = {}
        result: Dict[str, Dict[str, float]] = {}
        for index, (name, layer, start, end, parent) in enumerate(self.spans):
            entry = result.setdefault(layer, {"count": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            covered = _union_ns(children.get(index, []))
            entry["self_s"] += (end - start - covered) / 1e9
            intervals.setdefault(layer, []).append((start, end))
        for layer, spans in intervals.items():
            result[layer]["busy_s"] = _union_ns(spans) / 1e9
        return result

    def chrome_trace(self) -> Dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        origin = min((span[2] for span in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"run_id": self.run_id, "id": index, "parent": parent},
            }
            for index, (name, layer, start, end, parent) in enumerate(self.spans)
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"run_id": self.run_id, "counts": self.counts},
        }

    def write_chrome_trace(self, path: str) -> None:
        """Write :meth:`chrome_trace` to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0
    current: Optional[Tuple[int, int]] = None
    for start, end in sorted(intervals):
        if current is None or start > current[1]:
            if current is not None:
                total += current[1] - current[0]
            current = (start, end)
        elif end > current[1]:
            current = (current[0], end)
    if current is not None:
        total += current[1] - current[0]
    return total
