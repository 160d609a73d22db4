"""In-memory spans recorded around calls that cross ``hude`` module boundaries.

A span is a name, a start and end on ``time.perf_counter``, the span that was
open when it started (its parent) and the op it belongs to.  Spans stay in a
list until the run ends.  A span's self time is its duration minus the part of
that interval its child spans cover, so over one op the self times of all its
spans add up to the op's wall time.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, **self.attrs}


class Tracer:
    """Records spans and installs wrappers on module attributes.

    ``patch(module, attr, name)`` replaces ``module.attr`` by a wrapper that
    opens a span named ``name`` around every call; ``restore()`` puts every
    original back.  ``before`` sees the call's arguments and may return
    replacement arguments (used to wrap an objective passed as an argument);
    ``after`` turns the result into span attributes.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op, attrs))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.attrs.update(attrs)
        if self._open.pop() != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(self, fn, name: str, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if before is not None:
                args, kwargs, attrs = before(args, kwargs)
            index = tracer.begin(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(index, raised=True)
                raise
            tracer.end(index, **(after(result) if after is not None else {}))
            return result

        return traced

    def patch(self, module, attr: str, name: str, before=None, after=None):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, before, after))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            children.setdefault(span.parent, []).append(
                (max(span.start, parent.start), min(span.end, parent.end)))
    return [span.duration - union_length(children.get(i, ()))
            for i, span in enumerate(spans)]


def ancestors(spans: list[Span], index: int):
    """Names of the spans enclosing ``spans[index]``, innermost first."""
    parent = spans[index].parent
    while parent is not None:
        yield spans[parent].name
        parent = spans[parent].parent
