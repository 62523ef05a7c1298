"""Hierarchical spans: who did what, under which request, for how long.

A :class:`Span` is one timed unit of pipeline work — a query execution, a
compliance check, an ETL operator, an enforcement pass. Spans nest: the
first span opened becomes the root of a new *trace* and every span opened
while another is active becomes its child, so one delivered report produces
one tree reaching from ``report.deliver`` down to the individual
``query.execute`` and cache lookups it caused. The trace ID of that tree is
what :mod:`repro.audit` stamps into disclosure records, linking an audit
entry back to the exact execution that produced it.

Tracing is **off by default** and the disabled path is near-free: call
sites guard on :meth:`Tracer.active` (an attribute check plus an empty-list
test) and allocate nothing when it is false. IDs are drawn from process
counters, not entropy, so traces are deterministic under test and
:meth:`Tracer.reset` restarts numbering.

The enabled path is built to be left on. A span is a slotted object timed
with ``perf_counter_ns`` and ``process_time_ns``; its IDs stay integers and
are formatted (``t%012x`` / ``s%08x``) only when read. A finished span is
appended to the bounded retention deque under one short lock; at the cap
the oldest span is evicted and counted in the same step.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Iterable

__all__ = ["Span", "Tracer", "TRACER"]

_perf_ns = time.perf_counter_ns
_cpu_ns = time.process_time_ns
_wall = time.time


class Span:
    """One timed, tagged unit of work inside a trace."""

    __slots__ = (
        "name", "tags", "status", "start_time", "wall_s", "cpu_s",
        "_tracer", "_trace", "_id", "_parent", "_t0", "_c0",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        tags: dict[str, Any],
        trace: int,
        span_id: int,
        parent: int,
    ) -> None:
        self.name = name
        self.tags = tags
        self.status = "ok"  # "ok" | "error"
        self.start_time = _wall()  # epoch seconds (wall clock, for log correlation)
        self.wall_s = 0.0  # elapsed wall time, seconds
        self.cpu_s = 0.0  # elapsed process CPU time, seconds
        self._tracer = tracer
        self._trace = trace
        self._id = span_id
        self._parent = parent  # 0 for a root
        self._c0 = _cpu_ns()
        self._t0 = _perf_ns()

    @property
    def trace_id(self) -> str:
        return "t%012x" % self._trace

    @property
    def span_id(self) -> str:
        return "s%08x" % self._id

    @property
    def parent_id(self) -> str | None:
        return "s%08x" % self._parent if self._parent else None

    def set_tag(self, key: str, value: Any) -> "Span":
        self.tags[key] = value
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = (_perf_ns() - self._t0) / 1e9
        self.cpu_s = (_cpu_ns() - self._c0) / 1e9
        if exc_type is not None:
            self.status = "error"
            self.tags.setdefault("error", exc_type.__name__)
        tracer = self._tracer
        stack = tracer._local.stack
        if stack and stack[-1] is self:
            stack.pop()
        else:
            # A mismatched exit (an inner span leaked by an exception):
            # unwind to the span being closed rather than corrupting the stack.
            while stack:
                if stack.pop() is self:
                    break
        with tracer._finish_lock:
            finished = tracer.finished
            if len(finished) == finished.maxlen:
                tracer._count_evicted_locked(1)  # the append evicts the oldest
            finished.append(self)
        if tracer.on_finish is not None:
            tracer.on_finish(self)
        return False

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, parent_id={self.parent_id!r}, "
            f"status={self.status!r})"
        )


class _NoopSpan:
    """Returned when tracing is off; absorbs the span protocol for free."""

    __slots__ = ()

    def set_tag(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __bool__(self) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _ThreadState(threading.local):
    """One thread's open-span stack, created on the thread's first use."""

    def __init__(self) -> None:
        self.stack: list[Span] = []


class Tracer:
    """Produces spans, tracks the active stack, retains finished spans.

    The active-span stack is **thread-local**: spans opened on different
    threads build independent traces, so concurrent deliveries (chaos
    tests, future async execution) cannot corrupt each other's
    parent/child linkage. The finished deque is shared and bounded:
    ``max_finished`` caps retention, evictions are counted in
    :attr:`dropped` (and surfaced through the ``on_drop`` hook as the
    ``repro_spans_dropped_total`` metric), and exporters consume spans via
    :meth:`drain` so a long-lived enabled process cannot grow without
    limit.
    """

    def __init__(self, max_finished: int = 10_000) -> None:
        self.enabled = False
        self.finished: deque[Span] = deque(maxlen=max_finished)
        self.max_finished = max_finished
        self.dropped = 0
        self.on_finish: Callable[[Span], None] | None = None
        self.on_drop: Callable[[int], None] | None = None
        self._local = _ThreadState()
        # Guards the shared finished deque + dropped counter; the open-span
        # stack is thread-local and needs no lock.
        self._finish_lock = threading.Lock()
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    # -- state ---------------------------------------------------------------

    def active(self) -> bool:
        """Should instrumentation record right now?

        True when tracing is globally enabled *or* a span is already open —
        the latter lets a force-opened root (e.g. an
        :class:`~repro.relational.execconfig.ExecutionConfig` with
        ``observe=True``) pull nested cache/engine instrumentation in with
        it without flipping global state.
        """
        return self.enabled or bool(self._local.stack)

    def current_span(self) -> Span | None:
        stack = self._local.stack
        return stack[-1] if stack else None

    def current_trace_id(self) -> str | None:
        stack = self._local.stack
        return stack[-1].trace_id if stack else None

    def reset(self) -> None:
        """Drop all spans and restart ID numbering (tests, CLI runs)."""
        with self._finish_lock:
            self.finished.clear()
            self.dropped = 0
        self._local = _ThreadState()
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    def set_max_finished(self, max_finished: int) -> None:
        """Adjust the retention cap; excess spans are evicted (and counted)."""
        if max_finished < 0:
            raise ValueError("max_finished must be >= 0")
        with self._finish_lock:
            self._count_evicted_locked(len(self.finished) - max_finished)
            self.max_finished = max_finished
            self.finished = deque(self.finished, maxlen=max_finished)

    # -- span lifecycle ------------------------------------------------------

    def span(
        self,
        name: str,
        tags: dict[str, Any] | None = None,
        *,
        force: bool = False,
    ) -> Span | _NoopSpan:
        """Open a span; use as a context manager.

        Returns the no-op singleton when tracing is inactive (unless
        ``force``), so the disabled path allocates nothing.
        """
        stack = self._local.stack
        if stack:
            parent = stack[-1]
            trace = parent._trace
            parent_id = parent._id
        elif self.enabled or force:
            trace = next(self._trace_ids)
            parent_id = 0
        else:
            return NOOP_SPAN
        span = Span(
            self,
            name,
            dict(tags) if tags else {},
            trace,
            next(self._span_ids),
            parent_id,
        )
        stack.append(span)
        return span

    def _count_evicted_locked(self, evicted: int) -> None:
        if evicted <= 0:
            return
        self.dropped += evicted
        if self.on_drop is not None:
            self.on_drop(evicted)

    # -- inspection ----------------------------------------------------------

    def spans(self, trace_id: str | None = None) -> Iterable[Span]:
        """Finished spans, optionally filtered to one trace."""
        with self._finish_lock:
            snapshot = tuple(self.finished)
        if trace_id is None:
            return snapshot
        return tuple(s for s in snapshot if s.trace_id == trace_id)

    def drain(self) -> tuple[Span, ...]:
        """Hand finished spans to an exporter and clear retention.

        This is how long-lived exporters keep the tracer bounded: each
        export cycle drains, so retention only ever holds spans finished
        since the last export. Atomic: a span finished concurrently lands
        either in this drain or the next, never in both or neither.
        """
        with self._finish_lock:
            out = tuple(self.finished)
            self.finished.clear()
        return out

    def trace_ids(self) -> tuple[str, ...]:
        """Distinct trace IDs among finished spans, in first-seen order."""
        seen: dict[int, None] = {}
        for span in self.spans():
            seen.setdefault(span._trace, None)
        return tuple("t%012x" % trace for trace in seen)


#: The process-wide tracer every instrumented call site consults.
TRACER = Tracer()
