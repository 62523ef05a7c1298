"""Tests of the benchmark itself: schedules, percentiles, and the tracer.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import repro.core.translation as translation  # noqa: E402
import repro.relational.columnar as columnar  # noqa: E402
import repro.resilience.runtime as resilience_runtime  # noqa: E402
from repro.concurrency import RWLock  # noqa: E402
from repro.service import DeliveryDaemon, MUTATION_KINDS, MutationSpec, ServiceState  # noqa: E402
from repro.service.loadgen import ROLE_TO_USER  # noqa: E402
from repro.simulation.scenario import build_scenario  # noqa: E402

from perfbench import bench  # noqa: E402
from perfbench.layers import PER_LAYER_METRICS, LayerTracer  # noqa: E402
from perfbench.schedule import WORKLOADS, Workload, build_schedule  # noqa: E402
from perfbench.stats import (  # noqa: E402
    MIN_BEYOND,
    UnsupportedPercentile,
    log2_histogram,
    percentile,
    samples_beyond,
)


@pytest.fixture(scope="module")
def reports():
    return build_scenario().workload


# -- schedules ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_schedule(reports, name):
    workload = WORKLOADS[name]
    first = build_schedule(reports, workload, 7, 2).to_bytes()
    assert build_schedule(reports, workload, 7, 2).to_bytes() == first
    assert build_schedule(reports, workload, 8, 2).to_bytes() != first


def test_schedule_size_depends_only_on_workload_and_length(reports):
    refresh = WORKLOADS["refresh_mix"]
    for seed in (1, 2, 3):
        schedule = build_schedule(reports, refresh, seed, 3)
        assert len(schedule.reads) == refresh.reads_per_second * 3
        assert len(schedule.mutations) == (len(schedule.reads) - 1) // refresh.reads_per_mutation
        assert [m.kind for m in schedule.mutations[:3]] == list(MUTATION_KINDS)
    assert build_schedule(reports, WORKLOADS["read_warm"], 1, 1).mutations == ()


def test_reads_send_every_report_once_per_round(reports):
    schedule = build_schedule(reports, WORKLOADS["read_warm"], 3, 1)
    names = sorted(r.name for r in reports)
    n = len(names)
    for start in range(0, len(schedule.reads) - n + 1, n):
        assert sorted(r.report for r in schedule.reads[start:start + n]) == names


# -- percentiles -------------------------------------------------------------


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 401)]
    assert percentile(values, 50) == 200.0
    assert percentile(values, 95) == 380.0
    assert percentile(values, 95.1) == 381.0  # rank = ceil(400 * 0.951)
    assert percentile([1.0] * 20, 50) == 1.0
    with pytest.raises(ValueError):
        percentile(values, 0)
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(200, 95) == MIN_BEYOND
    assert percentile([float(v) for v in range(200)], 95) == 189.0
    assert samples_beyond(199, 95) == MIN_BEYOND - 1
    with pytest.raises(UnsupportedPercentile):
        percentile([float(v) for v in range(199)], 95)
    with pytest.raises(UnsupportedPercentile):
        percentile([], 50)


def test_log2_histogram_buckets_by_microseconds():
    assert log2_histogram([0.0015, 0.003, 0.0031, float("inf")]) == {-1: 1, 0: 1, 1: 2}


# -- layer tracer ------------------------------------------------------------


def _patched_attributes():
    from repro.anonymize.pseudonym import Pseudonymizer
    from repro.audit.log import AuditLog
    from repro.core.compliance import ComplianceChecker
    from repro.core.metareport import MetaReportSet
    from repro.resilience.runtime import DeliveryResilience

    return {
        (DeliveryDaemon, "_submit"), (DeliveryDaemon, "_execute"),
        (RWLock, "acquire_read"), (RWLock, "acquire_write"),
        (ServiceState, "apply_mutation"), (ComplianceChecker, "check_report"),
        (MetaReportSet, "find_covering"), (translation, "execute"),
        (columnar, "execute_columnar"), (columnar, "try_vector_core"),
        (translation.ReportLevelEnforcer, "generate"), (Pseudonymizer, "apply"),
        (AuditLog, "record_instance"), (DeliveryResilience, "check_source"),
        (resilience_runtime, "call_with_retry"),
    }


def _snapshot():
    return {(owner, attr): owner.__dict__[attr] for owner, attr in _patched_attributes()}


def test_tracer_wraps_then_restores_even_on_error():
    import gc

    originals = _snapshot()
    tracer = LayerTracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(
                owner.__dict__[attr] is not fn for (owner, attr), fn in originals.items()
            )
            assert tracer._on_gc in gc.callbacks
            raise RuntimeError("boom")
    assert _snapshot() == originals
    assert tracer._on_gc not in gc.callbacks


def test_tracer_records_a_mutation_and_a_delivery():
    scenario = build_scenario()
    report = scenario.workload[0]
    user = ROLE_TO_USER[sorted(report.audience)[0]]
    tracer = LayerTracer()
    with DeliveryDaemon(ServiceState(scenario), workers=2) as daemon:
        with tracer.installed():
            daemon.mutate(MutationSpec("insert_rows", seed=0))
            daemon.deliver(report.name, user=user, purpose=report.purpose)
    names = {span[3] for span in tracer.spans}
    assert {"daemon", "rwlock.write", "mutate", "rwlock.read", "compliance"} <= names
    requests = {span[2] for span in tracer.spans}
    assert requests == {1, 2}
    assert len(tracer.queue_waits) == 2


def test_traced_run_prints_every_layer_metric_and_restores_wrappers():
    originals = _snapshot()
    tiny = replace(WORKLOADS["read_warm"], reads_per_second=400, reads_per_window=100)
    result = bench.run(tiny, 1, 1, trace=True)
    assert _snapshot() == originals
    assert result.correct and result.failed == 0
    assert result.attempted == 400
    assert set(result.metrics) == set(PER_LAYER_METRICS)
    metrics = {name: value for name, (value, _) in result.metrics.items()}
    # Warm read traffic executes nothing and re-proves nothing.
    assert metrics["engine.calls"] == 0
    assert metrics["containment.calls"] == 0
    assert metrics["rwlock.write.calls"] == 0
    assert metrics["resilience.calls"] == 0
    assert metrics["daemon.calls"] == 400


def test_untraced_run_reports_end_to_end_metrics():
    tiny = Workload("tiny", reads_per_second=400, reads_per_window=100, windows_per_segment=4)
    result = bench.run(tiny, 2, 1)
    assert result.correct
    assert set(result.metrics) == set(bench.END_TO_END_METRICS)
    assert result.metrics["success_share"][0] == 1.0
    assert all(value > 0 for value, _ in result.metrics.values())
