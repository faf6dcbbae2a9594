"""In-memory span tracer for the traced benchmark run.

Functions are wrapped at the module attribute where their caller looks them
up (the package uses from-imports, so `phonoradar.transform.lpc_analyze` is
the name `transform_speech` calls, not `phonoradar.lpc.lpc_analyze`). A target
that no longer exists is recorded as absent instead of failing, so the
benchmark keeps running after a refactor removes a function.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager


class Tracer:
    """Spans are [name, start, end, parent index] lists kept in memory; counts
    are plain sums keyed by metric name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.stage = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, target: str, name: str, on_return=None) -> None:
        """Prepare a wrapper for `module.attr` named by target that records a
        span called name; on_return(tracer, args, kwargs, result) runs after
        each call returns. The wrapper is in place only inside installed()."""
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(target)
            return
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        self._patched.append((module, attr, original, traced))

    @contextmanager
    def installed(self):
        for module, attr, _, traced in self._patched:
            setattr(module, attr, traced)
        try:
            yield
        finally:
            for module, attr, original, _ in reversed(self._patched):
                setattr(module, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy_s (summed duration) and self_s (busy
        time minus the time of traced child spans)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - inner
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans
                if span_name == name]
