"""In-memory spans recorded around the program's public entry points.

The benchmark never edits the program: it replaces a function or method
in the namespace of the module that calls it with a wrapper that
records one :class:`Span` per call, and puts the original back when the
run ends.  Spans are kept in memory and summarised (or written out as
JSON) when the run is over.

A span's *self time* is its duration minus the part of that interval
its direct children cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    """One call: name, start, end (``time.perf_counter``), parent, tag.

    ``op`` is the operation (library workloads) or request (service)
    the call belongs to; ``tag`` carries a per-call detail such as the
    number of trace accesses an engine pass consumed.
    """

    __slots__ = ("name", "start", "end", "parent", "op", "tag")

    def __init__(self, name: str, start: float, end: float,
                 parent: Optional["Span"], op=None, tag=None) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any number of threads.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open on the same thread when it started.  With
    ``keep_spans=False`` it only counts calls per name in ``counts``
    (single thread), which costs one dictionary update per call.
    """

    def __init__(self, keep_spans: bool = True) -> None:
        self.keep_spans = keep_spans
        self.counts: Dict[str, int] = {}
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self):
        stack = self._stack()
        return stack[-1].op if stack else getattr(self._local, "op", None)

    def set_op(self, op) -> None:
        """Label the spans this thread opens next with ``op``."""
        self._local.op = op

    def open(self, name: str, op=None, tag=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, time.perf_counter(), 0.0, parent,
                    op if op is not None else self.current_op(), tag)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def call(self, name: str, function: Callable, args, kwargs,
             tag=None, op=None):
        if not self.keep_spans:
            self.counts[name] = self.counts.get(name, 0) + 1
            return function(*args, **kwargs)
        span = self.open(name, op=op, tag=tag)
        try:
            return function(*args, **kwargs)
        finally:
            self.close(span)

    def wrap(self, function: Callable,
             name: "str | Callable[[tuple, dict], str]",
             tag: Optional[Callable[[tuple, dict], object]] = None,
             op: Optional[Callable[[tuple, dict], object]] = None) -> Callable:
        """Return ``function`` wrapped so every call records a span.

        ``name``, ``tag`` and ``op`` may be callables of the call's
        ``(args, kwargs)``.
        """
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return recorder.call(
                span_name, function, args, kwargs,
                tag=tag(args, kwargs) if tag is not None else None,
                op=op(args, kwargs) if op is not None else None,
            )

        wrapper.__perfbench_recorder__ = recorder
        return wrapper

    def patch(self, target: str, name, tag=None, op=None) -> None:
        """Wrap ``module[:Class].attribute`` in place, e.g.
        ``"repro.archsim.missmodel:synthetic_trace_buffer"`` or
        ``"repro.service.server:ReproService.handle"``."""
        module_name, _, attribute_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attribute = attribute_path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        if getattr(original, "__perfbench_recorder__", None) is self:
            # Already wrapped: a module imported the wrapper by name.
            return
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name, tag, op))

    def unpatch(self) -> None:
        """Put every patched attribute back (last patched first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    low, high = interval
    total = 0.0
    reach = low
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``id(span) -> self time`` for every span in ``spans``.

    Only direct children are subtracted: a grandchild is already inside
    its parent's interval, so counting it again would subtract twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(
                (span.start, span.end)
            )
    return {
        id(span): span.duration - covered(
            (span.start, span.end), children.get(id(span), ())
        )
        for span in spans
    }


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total seconds and total self seconds."""
    selves = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "total": 0.0,
                                           "self": 0.0})
        row["calls"] += 1
        row["total"] += span.duration
        row["self"] += selves[id(span)]
    return table


def dump(spans: Sequence[Span], path: str) -> None:
    """Write spans as JSON rows ``[name, start, end, parent, op, tag]``."""
    index = {id(span): position for position, span in enumerate(spans)}
    rows = [
        [span.name, span.start, span.end,
         index.get(id(span.parent), -1) if span.parent is not None else -1,
         span.op, span.tag]
        for span in spans
    ]
    with open(path, "w") as handle:
        json.dump(rows, handle)


def load(path: str) -> List[Span]:
    """Read spans written by :func:`dump` (parents re-linked)."""
    with open(path) as handle:
        rows = json.load(handle)
    spans = [Span(name, start, end, None, op, tag)
             for name, start, end, _, op, tag in rows]
    for span, row in zip(spans, rows):
        if row[3] >= 0:
            span.parent = spans[row[3]]
    return spans
