"""Span tracer that wraps the program's public functions from outside.

Nothing under ``src/`` knows about tracing: :class:`Tracer` replaces
functions and methods of the ``repro`` package with timing wrappers for
the duration of a traced iteration and puts the originals back
afterwards.

Spans are aggregated in memory per ``(parent, name)`` edge — calls,
total time and self time (total minus the time covered by child spans)
— because the innermost layers are called millions of times per join.
Counters and maxima recorded at the same boundaries sit next to them.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "<root>"


class Tracer:
    """Aggregated spans, counters and maxima for one traced iteration."""

    def __init__(self) -> None:
        # (parent, name) -> [calls, total_s, self_s]
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        # open spans: [name, time covered by children]
        self._stack: List[list] = [[ROOT, 0.0]]
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _close(self, frame: list, dt: float, calls: int) -> None:
        parent = self._stack[-1]
        parent[1] += dt
        key = (parent[0], frame[0])
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0]
        rec[0] += calls
        rec[1] += dt
        rec[2] += dt - frame[1]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._close(frame, dt, 1)

    def timed(self, name: str, fn: Callable,
              after: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` wrapped in a span; ``after(args, kwargs, result)`` runs
        once the span is closed, to record counters."""
        stack, close, perf = self._stack, self._close, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                close(frame, dt, 1)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def timed_iter(self, name: str, fn: Callable,
                   on_item: Optional[Callable[[Any], None]] = None) -> Callable:
        """Wrap a generator function: every resumption is a span segment."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._stack[-1][0] == name:
                # already inside this span (``run_collect`` draining ``run``):
                # one span covers both, and no per-item cost is added
                return fn(*args, **kwargs)
            return _TracedIter(tracer, name, fn(*args, **kwargs), on_item)

        return wrapper

    # -- patching --------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, fn: Callable, replacement: Callable) -> None:
        """Rebind ``fn`` to ``replacement`` in every ``repro`` module that
        holds it, so callers that imported it by name see the wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------
    def calls(self, name: str) -> float:
        return sum(r[0] for (_, n), r in self.spans.items() if n == name)

    def total(self, name: str) -> float:
        return sum(r[1] for (_, n), r in self.spans.items() if n == name)

    def self_time(self, prefix: str) -> float:
        """Self time of every span whose name is ``prefix`` or starts with
        ``prefix + '.'``."""
        return sum(r[2] for (_, n), r in self.spans.items()
                   if n == prefix or n.startswith(prefix + "."))


class _TracedIter:
    """Iterator proxy that times each ``next()`` of a wrapped generator."""

    __slots__ = ("_tracer", "_name", "_it", "_on_item")

    def __init__(self, tracer: Tracer, name: str, it: Iterator,
                 on_item: Optional[Callable[[Any], None]]) -> None:
        self._tracer, self._name, self._it, self._on_item = tracer, name, it, on_item
        # count the call once, at creation; segments add only time
        tracer._close([name, 0.0], 0.0, 1)

    def __iter__(self) -> "_TracedIter":
        return self

    def __next__(self) -> Any:
        tracer = self._tracer
        frame = [self._name, 0.0]
        tracer._stack.append(frame)
        t0 = time.perf_counter()
        try:
            item = next(self._it)
        finally:
            dt = time.perf_counter() - t0
            tracer._stack.pop()
            tracer._close(frame, dt, 0)
        if self._on_item is not None:
            self._on_item(item)
        return item

    def close(self) -> None:
        self._it.close()
