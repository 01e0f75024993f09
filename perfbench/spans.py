"""In-memory spans and counts recorded around calls into dcsched.

Every wrapper is installed from the benchmark's side, at the module
attribute the caller looks up (for example ``dcsched.engine.solve_stage``,
which ``engine.run`` calls), so no file of the program changes. A span is
``[name, start, end, parent index, run id]``; counts are exact integers kept
apart from the timings.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable


class Recorder:
    """Spans and counts of one process, written out when the run ends."""

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._open: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        # a forked pool worker starts with an empty record of its own
        os.register_at_fork(after_in_child=self.clear)

    def clear(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        self._open = []

    def wrap(self, module: Any, attr: str, name: str,
             observe: Callable[["Recorder", Any], None] | None = None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = [name, time.perf_counter(), None, parent, self.run_id]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self._open.pop()
                span[2] = time.perf_counter()
            if observe is not None:
                observe(self, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def note_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self) -> dict:
        """Hand over the record so far (no span may be open) and start afresh."""
        record = {"spans": self.spans, "counts": dict(self.counts), "maxima": self.maxima}
        self.clear()
        return record

    def merge(self, record: dict, run_id: str) -> None:
        """Append a record taken in another process under ``run_id``,
        rebasing parent indices."""
        base = len(self.spans)
        for name, start, end, parent, _ in record["spans"]:
            self.spans.append(
                [name, start, end, None if parent is None else parent + base, run_id]
            )
        self.counts.update(record["counts"])
        for key, value in record["maxima"].items():
            self.note_max(key, value)


def patch(module: Any, attr: str, hook: Callable[..., Any]) -> Callable[[], None]:
    """Install ``hook(original, *args, **kwargs)`` at ``module.attr``; return the undo."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def hooked(*args: Any, **kwargs: Any) -> Any:
        return hook(original, *args, **kwargs)

    setattr(module, attr, hooked)
    return lambda: setattr(module, attr, original)


def span_times(spans: list[list[Any]]) -> tuple[dict, dict, Counter, list[float]]:
    """Total seconds, self seconds (span minus its direct children) and call
    count per span name, plus each span's duration."""
    durations = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            child[parent] += durations[i]
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, _, _, _, _) in enumerate(spans):
        total[name] += durations[i]
        own[name] += durations[i] - child[i]
        calls[name] += 1
    return total, own, calls, durations
