"""In-memory span tracer that wraps the package's functions from outside.

Each wrapper replaces a module attribute that the pipeline calls through
(for example ``gridpaths.mds_vpg.build_set_system``) and records a span:
name, start, end, parent span and the op it belongs to.  No source file of
the package is edited, and hot predicates such as ``vpg_adjacent`` are never
wrapped.  A target that no longer exists is reported as absent instead of
failing, so refactors of the package do not break the benchmark.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op]
        self.counts: dict = defaultdict(float)
        self.peaks: dict = defaultdict(dict)  # name -> {op: largest value}
        self.absent: list = []
        self.op = -1
        self._stack: list = []
        self._undo: list = []

    def wrap(self, module, attr: str, name: str, after=None, on_error=None) -> None:
        """Replace module.attr with a span-recording wrapper.

        after(tracer, result, args) and on_error(tracer, exc, args) record
        counts; they run outside the span and must stay cheap.
        """
        orig = getattr(module, attr, None)
        if not callable(orig):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                span[2] = perf_counter()
                tracer._stack.pop()
                if on_error is not None:
                    on_error(tracer, exc, args)
                raise
            span[2] = perf_counter()
            tracer._stack.pop()
            if after is not None:
                after(tracer, result, args)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))

    def unwrap_all(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller of a hook's target)."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def peak(self, name: str, value: float) -> None:
        ops = self.peaks[name]
        ops[self.op] = max(ops.get(self.op, value), value)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total seconds, self seconds and call count.

        Self time is the span's duration minus the durations of its direct
        children; children of one span never overlap.
        """
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: dict = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child.get(idx, 0.0)
        return total, own, calls
