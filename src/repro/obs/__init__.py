"""repro.obs — zero-dependency tracing and metrics for the BI pipeline.

The paper's argument is about *where* in the source → warehouse →
meta-report → report pipeline privacy decisions happen; this package makes
that location observable at runtime. It threads hierarchical spans
(:mod:`repro.obs.trace`) through query execution, ETL, enforcement, and
compliance checking; counts decisions, cache hits, and deliveries in a
process-wide :class:`MetricsRegistry` (:mod:`repro.obs.metrics`); and
exports both as JSON-lines span logs and Prometheus text
(:mod:`repro.obs.export`).

Everything is **off by default** and near-free when disabled: call sites
guard on ``TRACER.active()`` and allocate nothing on the cold path. The
enabled path is cheap enough to leave on: a span is a slotted object
with integer IDs, formatted only when read, a metric converts each label
tuple once, and the resilience probes of a healthy source take no lock
they do not need
(``benchmarks/bench_obs_overhead.py`` holds the line at <5% enabled on
query workloads, with its own gate on plan-cache hits, and unmeasurable
disabled). Enable with :func:`enable`, the ``REPRO_OBS``
environment variable, per-config via
:class:`~repro.relational.execconfig.ExecutionConfig(observe=True)`, or the
``repro trace`` / ``repro metrics`` CLI. Audit records carry the trace ID
of the delivery that produced them, linking the tamper-evident disclosure
log back to the exact execution tree.
"""

from __future__ import annotations

import os

from repro.obs.export import (
    render_prometheus,
    render_span_tree,
    span_to_dict,
    spans_to_jsonl,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import TRACER, Span, Tracer
from repro.obs import instrument  # registers built-in metrics + span hook

__all__ = [
    "Span",
    "Tracer",
    "TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricError",
    "DEFAULT_BUCKETS",
    "get_registry",
    "enable",
    "disable",
    "enabled",
    "reset",
    "current_trace_id",
    "span_to_dict",
    "spans_to_jsonl",
    "write_jsonl",
    "render_span_tree",
    "render_prometheus",
    "instrument",
]


def enable() -> None:
    """Turn on tracing and metrics collection process-wide."""
    TRACER.enabled = True


def disable() -> None:
    """Turn observability back off (finished spans are retained)."""
    TRACER.enabled = False


def enabled() -> bool:
    """Is observability currently on?"""
    return TRACER.enabled


def current_trace_id() -> str | None:
    """The trace ID of the innermost open span, if any."""
    return TRACER.current_trace_id()


def reset() -> None:
    """Drop all spans, restart IDs, and zero every metric (registrations
    survive, so module-level handles stay valid). For tests and CLI runs."""
    TRACER.reset()
    get_registry().reset()


def _init_from_env() -> None:
    if os.environ.get("REPRO_OBS", "").strip().lower() in {"1", "true", "yes", "on"}:
        enable()
    cap = os.environ.get("REPRO_OBS_MAX_SPANS", "").strip()
    if cap:
        TRACER.set_max_finished(int(cap))


_init_from_env()
