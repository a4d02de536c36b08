"""In-memory span tracer that wraps module attributes from the outside.

A span records a name, start and end (``perf_counter_ns``), the index of
the span that was open when it began (its parent) and the index of the
outermost open span (its root).  Spans stay in a list until the caller
reads them.  Wrapping replaces ``owner.attr`` with a recording shim and
``restore`` puts every original back, so the traced program runs the same
code on the same arguments and returns the same values.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int
    end: int = -1
    parent: int = -1
    root: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans; ``wrap`` installs shims that ``restore`` removes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs: dict) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else idx
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent,
                               root=root, attrs=attrs))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name, attrs)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name=None, observe=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a fixed span name or a function of the call's
        (args, kwargs); it defaults to ``<module>.<attr>``.
        ``observe(args, kwargs, result)`` returns attributes to store on
        the span after the call returns.
        """
        original = getattr(owner, attr)
        if name is None:
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def shim(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = self._open(label, {})
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                self.spans[idx].attrs.update(observe(args, kwargs, result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, shim)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children are merged as intervals and clipped to the parent, so
    overlapping or out-of-range children are never counted twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(idx)
    out = []
    for span, kids in zip(spans, children):
        covered = 0
        cursor = span.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]); 0.0 for no values."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
