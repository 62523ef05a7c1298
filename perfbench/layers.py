"""Per-layer spans, recorded from outside the program.

:class:`LayerTracer` wraps the entry point of each layer a delivery passes
through, records one span per call in memory (id, parent, request id,
name, start, end, tag) and restores every original on exit. Nothing in
``src/`` is edited: the wrappers replace class attributes and module
globals for the duration of the traced phase only.

The daemon has no public per-job hook, so the request boundary is taken
at its two internal seams: ``DeliveryDaemon._submit`` (the consumer side,
where a request id is assigned) and ``DeliveryDaemon._execute`` (the
worker side, one call per job). The payload dict passes through both
unchanged, which is how a job is matched to its request id.

``relational.engine.execute`` runs on every delivery, but on a plan-cache
hit it only builds the cache key and rebuilds the cached table; its self
time is therefore reported as the plan cache's (``plancache.lookup_ms``).
Engine execution proper is ``columnar.execute_columnar``, which
``engine.execute`` calls only on a miss.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import repro.core.translation as translation
import repro.relational.columnar as columnar
import repro.resilience.runtime as resilience_runtime
from repro.anonymize.pseudonym import Pseudonymizer
from repro.audit.log import AuditLog
from repro.concurrency import RWLock
from repro.core.compliance import ComplianceChecker
from repro.core.metareport import MetaReportSet
from repro.resilience.runtime import DeliveryResilience
from repro.service.daemon import DeliveryDaemon
from repro.service.state import MUTATION_KINDS, ServiceState

__all__ = ["LayerTracer", "PER_LAYER_METRICS"]

_now = time.perf_counter_ns

#: Span name -> the per-layer metric reporting its mean self time per call.
#: ``calls`` metrics are named after the layer (``<layer>.calls``).
_LAYER_SPANS = {
    "rwlock.read": "rwlock.read_wait_ms",
    "rwlock.write": "rwlock.write_wait_ms",
    "compliance": "compliance.check_ms",
    "containment": "containment.cover_ms",
    "plancache": "plancache.lookup_ms",
    "engine": "engine.execute_ms",
    "engine.vector": "engine.vector_ms",
    "enforce": "enforce.obligations_ms",
    "anonymize": "anonymize.pseudonymize_ms",
    "audit": "audit.append_ms",
    "resilience": "resilience.probe_ms",
}

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER_METRICS: dict[str, str] = {
    "daemon.calls": "count",
    "daemon.queue_wait_ms": "ms",
    "daemon.self_ms": "ms",
    "daemon.handoff_ms": "ms",
    "rwlock.read.calls": "count",
    "rwlock.read_wait_ms": "ms",
    "rwlock.write.calls": "count",
    "rwlock.write_wait_ms": "ms",
    "mutate.calls": "count",
    **{f"mutate.apply_ms.{kind}": "ms" for kind in MUTATION_KINDS},
    "compliance.calls": "count",
    "compliance.check_ms": "ms",
    "compliance.verdict_hit_ratio": "ratio",
    "containment.calls": "count",
    "containment.cover_ms": "ms",
    "plancache.calls": "count",
    "plancache.lookup_ms": "ms",
    "plancache.hit_ratio": "ratio",
    "engine.calls": "count",
    "engine.execute_ms": "ms",
    "engine.vector.calls": "count",
    "engine.vector_ms": "ms",
    "engine.vector_decline_ratio": "ratio",
    "enforce.calls": "count",
    "enforce.obligations_ms": "ms",
    "anonymize.calls": "count",
    "anonymize.pseudonymize_ms": "ms",
    "audit.calls": "count",
    "audit.append_ms": "ms",
    "resilience.calls": "count",
    "resilience.probe_ms": "ms",
    "resilience.retries": "count",
    "obs.spans_per_request": "spans/request",
    "gc.collections": "count",
    "gc.gen2_collections": "count",
    "gc.pause_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}

# Span record layout, appended when the span ends.
_ID, _PARENT, _RID, _NAME, _START, _END, _TAG = range(7)


class LayerTracer:
    """Wrappers around each layer's entry point, and the spans they record."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: One ``(request id, ns)`` per job: submit -> worker pickup.
        self.queue_waits: list[tuple[int, int]] = []
        #: Attempts beyond the first, one entry per guarded probe.
        self.retries: list[int] = []
        #: ``(generation, pause ns)`` per collection.
        self.gc_pauses: list[tuple[int, int]] = []
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._local = threading.local()
        self._pending: dict[int, tuple[int, int]] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._gc_started = 0

    # -- span primitive ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn: Callable, tag: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span_id = next(self._span_ids)
            parent = stack[-1] if stack else 0
            request = getattr(self._local, "request", 0)
            label = tag(*args) if tag is not None else None
            stack.append(span_id)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                label = "raised"
                raise
            else:
                if name == "engine.vector":
                    label = "declined" if result is None else "ran"
                return result
            finally:
                end = _now()
                stack.pop()
                # Tuples of atoms leave the collector's tracking, so a long
                # traced run does not slow the collections it measures.
                self.spans.append((span_id, parent, request, name, start, end, label))

        return wrapper

    # -- request boundary ----------------------------------------------------

    def _wrap_submit(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def submit(daemon: DeliveryDaemon, kind: str, payload: dict, **kwargs: Any):
            key = id(payload)
            self._pending[key] = (next(self._request_ids), _now())
            try:
                return fn(daemon, kind, payload, **kwargs)
            except BaseException:
                self._pending.pop(key, None)
                raise

        return submit

    def _wrap_execute(self, fn: Callable) -> Callable:
        root = self._span("daemon", fn, tag=lambda daemon, kind, payload: kind)

        @functools.wraps(fn)
        def execute(daemon: DeliveryDaemon, kind: str, payload: dict):
            picked = _now()
            request, submitted = self._pending.pop(id(payload), (0, picked))
            self.queue_waits.append((request, picked - submitted))
            self._local.request = request
            try:
                return root(daemon, kind, payload)
            finally:
                self._local.request = 0

        return execute

    def _wrap_retry(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def call_with_retry(call: Callable, *args: Any, **kwargs: Any):
            attempts = 0

            def counted():
                nonlocal attempts
                attempts += 1
                return call()

            try:
                return fn(counted, *args, **kwargs)
            finally:
                self.retries.append(max(0, attempts - 1))

        return call_with_retry

    def _on_gc(self, phase: str, info: dict) -> None:
        # Collections hold the interpreter lock and never overlap.
        if phase == "start":
            self._gc_started = _now()
        else:
            self.gc_pauses.append((info["generation"], _now() - self._gc_started))

    # -- install / restore ---------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        span = self._span
        self._patch(DeliveryDaemon, "_submit", self._wrap_submit)
        self._patch(DeliveryDaemon, "_execute", self._wrap_execute)
        self._patch(RWLock, "acquire_read", lambda f: span("rwlock.read", f))
        self._patch(RWLock, "acquire_write", lambda f: span("rwlock.write", f))
        self._patch(
            ServiceState,
            "apply_mutation",
            lambda f: span("mutate", f, tag=lambda state, spec: spec.kind),
        )
        self._patch(ComplianceChecker, "check_report", lambda f: span("compliance", f))
        self._patch(MetaReportSet, "find_covering", lambda f: span("containment", f))
        self._patch(translation, "execute", lambda f: span("plancache", f))
        self._patch(columnar, "execute_columnar", lambda f: span("engine", f))
        self._patch(columnar, "try_vector_core", lambda f: span("engine.vector", f))
        self._patch(translation.ReportLevelEnforcer, "generate", lambda f: span("enforce", f))
        self._patch(Pseudonymizer, "apply", lambda f: span("anonymize", f))
        self._patch(AuditLog, "record_instance", lambda f: span("audit", f))
        self._patch(DeliveryResilience, "check_source", lambda f: span("resilience", f))
        self._patch(resilience_runtime, "call_with_retry", self._wrap_retry)
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- results -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: id, parent, request, name, start/end ns, tag."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in sorted(self.spans, key=lambda s: s[_ID]):
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")

    def metrics(
        self,
        *,
        latency_s_total: float,
        requests: int,
        counters: dict[str, float],
        scale: float = 1.0,
    ) -> dict[str, float]:
        """Every :data:`PER_LAYER_METRICS` value.

        ``latency_s_total`` is the consumer-measured submit -> result time
        summed over the traced requests; ``counters`` carries the figures
        read from the program itself (cache hit ratios, obs span count,
        untraced throughput for the overhead). Millisecond figures are
        multiplied by ``scale`` (see :mod:`perfbench.host`).
        """
        child_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[_PARENT]:
                child_ns[span[_PARENT]] += span[_END] - span[_START]
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        root_ns = covered_ns = 0
        root_ids = {span[_ID] for span in self.spans if span[_NAME] == "daemon"}
        for span in self.spans:
            duration = span[_END] - span[_START]
            name = span[_NAME]
            if name == "mutate":
                name = f"mutate.{span[_TAG]}"
            elif name == "engine.vector" and span[_TAG] == "declined":
                calls["engine.vector.declined"] += 1
            calls[name] += 1
            self_ns[name] += duration - child_ns[span[_ID]]
            if span[_NAME] == "daemon":
                root_ns += duration
            elif span[_PARENT] in root_ids:
                covered_ns += duration

        def mean_ms(name: str) -> float:
            return scale * self_ns[name] / calls[name] / 1e6 if calls[name] else 0.0

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        queue_ns = sum(wait for _, wait in self.queue_waits)
        latency_ns = latency_s_total * 1e9
        jobs = calls["daemon"]
        out: dict[str, float] = {
            "daemon.calls": jobs,
            "daemon.queue_wait_ms": scale * ratio(queue_ns, jobs) / 1e6,
            "daemon.self_ms": mean_ms("daemon"),
            "daemon.handoff_ms": scale * ratio(latency_ns - queue_ns - root_ns, jobs) / 1e6,
        }
        for span_name, metric in _LAYER_SPANS.items():
            out[f"{span_name}.calls"] = calls[span_name]
            out[metric] = mean_ms(span_name)
        out["mutate.calls"] = sum(calls[f"mutate.{kind}"] for kind in MUTATION_KINDS)
        for kind in MUTATION_KINDS:
            out[f"mutate.apply_ms.{kind}"] = mean_ms(f"mutate.{kind}")
        out["engine.vector_decline_ratio"] = ratio(
            calls["engine.vector.declined"], calls["engine.vector"]
        )
        out["resilience.retries"] = sum(self.retries)
        out["compliance.verdict_hit_ratio"] = counters["verdict_hit_ratio"]
        out["plancache.hit_ratio"] = counters["plan_hit_ratio"]
        out["obs.spans_per_request"] = ratio(counters["obs_spans"], requests)
        out["gc.collections"] = len(self.gc_pauses)
        out["gc.gen2_collections"] = sum(1 for gen, _ in self.gc_pauses if gen == 2)
        out["gc.pause_ms"] = scale * sum(ns for _, ns in self.gc_pauses) / 1e6
        out["trace.overhead_pct"] = 100.0 * (
            1.0 - ratio(counters["traced_rps"], counters["untraced_rps"])
        )
        out["trace.unattributed_pct"] = 100.0 * ratio(
            latency_ns - queue_ns - covered_ns, latency_ns
        )
        return {name: out[name] for name in PER_LAYER_METRICS}
