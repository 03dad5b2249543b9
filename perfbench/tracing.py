"""In-memory span recorder that wraps functions where their callers look them up.

Each wrapped call records one span: name, start, end, parent span, operation
id, and whether it raised. Counters and keys are recorded against the same
operation id. Everything stays in memory until the run ends, and
``Tracer.restore`` puts back every attribute the tracer replaced.

This module is independent of tima: it imports neither numpy nor the package.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

# Probes run in a span of their own, a sibling of the call they measure, so
# their cost leaves the self time of every real layer untouched.
HOOK_SPAN = "trace.hook"

Probe = Callable[[tuple, dict, object], None]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error")

    def __init__(self, name: str, start: float, end: float = 0.0, parent: int = -1,
                 op: int = 0, error: bool = False):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent      # index of the enclosing span, -1 at top level
        self.op = op
        self.error = error


class Tracer:
    """Spans, counters and keys of one traced run, plus the patches that feed them."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self.keys: Dict[str, List[Tuple[int, Hashable]]] = defaultdict(list)
        self.op = 0
        self._open: List[int] = []
        self._active: List[Tuple[object, str, object]] = []
        self._history: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int, error: bool = False) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        except BaseException:
            self.end(index, error=True)
            raise
        self.end(index)

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[(self.op, key)] += amount

    def note(self, key: str, value: Hashable) -> None:
        self.keys[key].append((self.op, value))

    # -- wrapping --------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, probe: Optional[Probe] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``probe(args, kwargs, result)``
        runs after each call that returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, error=True)
                raise
            self.end(index)
            if probe is not None:
                with self.span(HOOK_SPAN):
                    probe(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owners: Iterable[object], original: Callable, name: str,
              probe: Optional[Probe] = None) -> None:
        """Replace ``original`` by its wrapper on every owner attribute that
        holds it: each module that imported it by name, or the class that
        defines it as a method."""
        wrapper = self.wrap(original, name, probe)
        found = False
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._active.append((owner, attr, original))
                    self._history.append((owner, attr, original))
                    found = True
        if not found:
            raise LookupError(f"{name}: no owner holds {original!r}")

    def restore(self) -> None:
        while self._active:
            owner, attr, original = self._active.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every attribute ever patched holds its original again."""
        return all(vars(owner).get(attr) is original
                   for owner, attr, original in self._history)


# -- arithmetic over recorded spans and keys -------------------------------------


def covered(lo: float, hi: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start - covered(span.start, span.end, children[i])
            for i, span in enumerate(spans)]


def _repeats(calls: Iterable[Tuple[int, Hashable]]) -> Tuple[int, int]:
    seen = set()
    repeats = total = 0
    for call in calls:
        total += 1
        if call in seen:
            repeats += 1
        else:
            seen.add(call)
    return repeats, total


def repeat_frac(calls: Iterable[Tuple[int, Hashable]]) -> float:
    """Share of (op, key) calls whose key already occurred earlier in the same op."""
    repeats, total = _repeats(calls)
    return repeats / total if total else 0.0


def unique_frac(calls: Iterable[Tuple[int, Hashable]]) -> float:
    """Distinct keys per op, summed over ops, divided by all calls."""
    repeats, total = _repeats(calls)
    return (total - repeats) / total if total else 0.0
