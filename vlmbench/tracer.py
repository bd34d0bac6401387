"""In-memory spans and counters recorded around vlmforge's public calls.

A span is (id, name, start, end, parent id, phase); its self time is its
duration minus the time covered by its children, which never overlap
because the benchmark runs on one thread. Counters are kept per phase, so
work done while setting up or probing is not charged to the timed loop.
Nothing is written until `write_spans` runs at the end of a traced run.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict


class Tracer:
    """Records spans and counters while `enabled`; otherwise every call is a no-op."""

    def __init__(self):
        self.enabled = False
        self.phase = "setup"
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 1
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- recording

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.phase))

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counters[(self.phase, name)] += value

    # -- wrapping public calls from outside the program

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace `owner.attr` with a spanned call; `after(result, args)` may count.

        `owner` is a module or an instance. An instance patch shadows the
        class method, so the program's own `self.method(...)` calls are
        spanned too. `restore` undoes every patch in reverse order.
        """
        if not self.enabled:
            return
        had_own = attr in vars(owner)
        original = getattr(owner, attr)

        def spanned(*args, **kwargs):
            self.count(name + ".calls")
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, spanned)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- aggregation

    def totals(self, phase: str) -> tuple[dict[str, float], dict[str, float]]:
        """Per-name inclusive and self seconds for the spans of one phase."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, span_phase in self.spans:
            if span_phase != phase:
                continue
            inclusive[name] += end - start
            self_time[name] += end - start - child_time[span_id]
        return inclusive, self_time

    def counter(self, phase: str, name: str) -> float:
        return self.counters.get((phase, name), 0.0)

    def write_spans(self, path) -> None:
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, phase in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "phase": phase}) + "\n")
