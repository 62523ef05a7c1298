"""What the cheap enabled paths of repro.obs and repro.resilience must keep.

Spans are slotted objects with integer IDs, metric label keys are cached,
and a probe of a closed breaker takes no lock it does not need.
None of that may change what is recorded: the span tree of a guarded
delivery, the span and drop counts seen from another thread, distinct
label samples, the injector's call counts, and the breaker's threshold.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

import pytest

from repro import obs
from repro.audit import AuditLog
from repro.cli import ROLE_TO_USER
from repro.errors import TransientSourceError
from repro.obs import instrument
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.reports.delivery import DeliveryService
from repro.resilience import (
    BreakerConfig,
    BreakerRegistry,
    BreakerState,
    CircuitBreaker,
    DeliveryResilience,
    FaultInjector,
    ResiliencePolicy,
    named_plan,
)
from repro.service import DeliveryDaemon, ServiceState

REPORT = "rpt_001"


@pytest.fixture()
def clean_obs():
    """Disabled, empty global obs state; restored afterwards."""
    previous = obs.enabled()
    previous_cap = obs.TRACER.max_finished
    obs.disable()
    obs.reset()
    yield
    obs.TRACER.enabled = previous
    obs.TRACER.set_max_finished(previous_cap)
    obs.reset()


def _fault_free() -> DeliveryResilience:
    return DeliveryResilience(
        policy=ResiliencePolicy(
            injector=FaultInjector(named_plan("none")), breakers=BreakerRegistry()
        ),
        mode="refuse",
    )


def _guarded_service(scenario) -> DeliveryService:
    return DeliveryService(
        reports=scenario.report_catalog,
        checker=scenario.checker,
        enforcer=scenario.enforcer,
        subjects=scenario.subjects,
        audit_log=AuditLog(),
        resilience=_fault_free(),
    )


def _deliver(service: DeliveryService, scenario, report: str = REPORT):
    definition = scenario.report_catalog.current(report)
    role = sorted(definition.audience)[0]
    return service.deliver(report, user=ROLE_TO_USER[role], purpose=definition.purpose)


class TestGuardedSpanTree:
    """(a) A guarded delivery's span tree: names, deterministic IDs, links."""

    #: ``(name, trace_id, span_id, parent_id)`` in end order, for one warm
    #: guarded delivery of rpt_001 after ``obs.reset()``.
    EXPECTED = [
        ("compliance.check", "t000000000001", "s00000002", "s00000001"),
        ("query.execute", "t000000000001", "s00000004", "s00000003"),
        ("report.enforce", "t000000000001", "s00000003", "s00000001"),
        ("resilience.attempt", "t000000000001", "s00000005", "s00000001"),
        ("resilience.attempt", "t000000000001", "s00000006", "s00000001"),
        ("resilience.attempt", "t000000000001", "s00000007", "s00000001"),
        ("resilience.attempt", "t000000000001", "s00000008", "s00000001"),
        ("report.deliver", "t000000000001", "s00000001", None),
    ]

    def test_guarded_delivery_span_tree(self, scenario, clean_obs):
        service = _guarded_service(scenario)
        _deliver(service, scenario)  # warm caches, untraced
        obs.enable()
        obs.reset()
        instance = _deliver(service, scenario)
        obs.disable()
        spans = list(obs.TRACER.finished)
        assert [
            (s.name, s.trace_id, s.span_id, s.parent_id) for s in spans
        ] == self.EXPECTED
        attempts = [s for s in spans if s.name == "resilience.attempt"]
        assert [s.tags["target"] for s in attempts] == sorted(
            instance.table.footprint()
        )
        assert all(s.tags["attempt"] == 1 for s in attempts)
        assert all(s.wall_s > 0 and s.cpu_s >= 0 for s in spans)
        record = service.audit_log.last()
        assert record.trace_id == spans[-1].trace_id == "t000000000001"
        assert service.audit_log.verify_chain()

    def test_start_time_reads_the_wall_clock(self, clean_obs):
        obs.enable()
        before = time.time()
        with obs.TRACER.span("op") as span:
            pass
        assert before <= span.start_time <= time.time()

    def test_probe_still_ticks_first_try(self, scenario, clean_obs):
        service = _guarded_service(scenario)
        obs.enable()
        instance = _deliver(service, scenario)
        obs.disable()
        probes = len(instance.table.footprint())
        assert instrument.RETRIES.value(("first_try",)) == probes


class TestSpanCountsAcrossThreads:
    """(b) Spans ended on daemon workers are all accounted for."""

    def test_finished_plus_dropped_equals_spans_ended(self, clean_obs):
        from repro.simulation import build_scenario

        ended = itertools.count()
        hook = obs.TRACER.on_finish

        def counting_hook(span):
            next(ended)
            hook(span)

        state = ServiceState(build_scenario())
        daemon = DeliveryDaemon(state, workers=2, queue_size=64).start()
        obs.TRACER.on_finish = counting_hook
        try:
            daemon.set_resilience(_fault_free())
            obs.TRACER.set_max_finished(7)
            obs.enable()
            for definition in state.scenario.workload:
                role = sorted(definition.audience)[0]
                daemon.deliver(
                    definition.name,
                    user=ROLE_TO_USER[role],
                    purpose=definition.purpose,
                    timeout=30,
                )
        finally:
            obs.disable()
            obs.TRACER.on_finish = hook
            daemon.stop()
        total = next(ended)
        assert total > 7 * 10  # far past the cap, on two worker threads
        finished, dropped = len(obs.TRACER.finished), obs.TRACER.dropped
        assert finished == 7
        assert finished + dropped == total
        assert instrument.SPANS_DROPPED.value() == dropped

    def test_spans_of_an_exited_thread_are_retained(self, clean_obs):
        obs.enable()

        def work():
            for _ in range(5):
                with obs.TRACER.span("worker.op"):
                    pass

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert [s.name for s in obs.TRACER.finished] == ["worker.op"] * 5

    def test_thread_per_request_retention_stays_bounded(self, clean_obs):
        """Each thread's spans are evicted and counted as they end."""
        obs.enable()
        obs.TRACER.set_max_finished(10)

        def request():
            for _ in range(3):
                with obs.TRACER.span("request"):
                    pass

        for _ in range(50):
            thread = threading.Thread(target=request)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert instrument.SPANS_DROPPED.value() == 50 * 3 - 10
        assert len(obs.TRACER.finished) == 10
        assert obs.TRACER.dropped == 50 * 3 - 10

    def test_retention_keeps_end_order_across_threads(self, clean_obs):
        obs.enable()
        first_done = threading.Event()

        def work():
            with obs.TRACER.span("other.thread"):
                pass
            first_done.set()

        with obs.TRACER.span("main.before"):
            pass
        thread = threading.Thread(target=work)
        thread.start()
        assert first_done.wait(timeout=10)
        thread.join(timeout=10)
        with obs.TRACER.span("main.after"):
            pass
        names = [s.name for s in obs.TRACER.drain()]
        assert names == ["main.before", "other.thread", "main.after"]

    def test_concurrent_spans_lose_nothing(self, clean_obs):
        obs.enable()
        workers, per_worker = 6, 400
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work():
                for _ in range(per_worker):
                    with obs.TRACER.span("stress"):
                        pass

            threads = [threading.Thread(target=work) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        spans = obs.TRACER.drain()
        assert len(spans) == workers * per_worker
        assert len({s.span_id for s in spans}) == workers * per_worker


class TestLabelKeys:
    """(c) Label values that hash equal keep separate samples."""

    def test_bool_int_float_labels_are_distinct(self):
        counter = Counter("c_total", labelnames=("flag",))
        counter.inc(1, (True,))
        counter.inc(1, (1,))
        counter.inc(1, (1.0,))
        counter.inc(1, ("1",))
        assert counter.samples() == [
            (("1",), 2.0),
            (("1.0",), 1.0),
            (("True",), 1.0),
        ]

    def test_gauge_and_histogram_share_the_rule(self):
        gauge = Gauge("g", labelnames=("k",))
        gauge.set(3, (1,))
        gauge.set(5, (True,))
        assert gauge.value(("1",)) == 3 and gauge.value(("True",)) == 5
        hist = Histogram("h", labelnames=("k",), buckets=(1.0,))
        hist.observe(0.5, ("True",))
        hist.observe(0.5, (True,))
        hist.observe(0.5, (1,))
        assert hist.value(("True",))["count"] == 2
        assert hist.value(("1",))["count"] == 1

    def test_cached_key_still_checks_cardinality(self):
        from repro.obs.metrics import MetricError

        counter = Counter("c_total", labelnames=("a", "b"))
        counter.inc(1, ("x", "y"))
        counter.inc(1, ("x", "y"))
        with pytest.raises(MetricError):
            counter.inc(1, ("x",))
        assert counter.value(("x", "y")) == 2

    def test_key_cache_is_bounded(self):
        from repro.obs.metrics import MAX_CACHED_KEYS

        counter = Counter("c_total", labelnames=("k",))
        for i in range(MAX_CACHED_KEYS + 50):
            counter.inc(1, (f"v{i}",))
        assert len(counter._keys) == MAX_CACHED_KEYS
        assert len(counter.samples()) == MAX_CACHED_KEYS + 50


class TestEmptyPlanInjector:
    """(d) An empty plan injects nothing and still counts every call."""

    def test_counts_every_call(self):
        injector = FaultInjector(named_plan("none"))
        for _ in range(3):
            injector.guard("a/x")
        injector.guard("b/y")
        assert injector.calls("a/x") == 3
        assert injector.calls("b/y") == 1
        assert injector.total_calls() == 4
        assert injector.stats() == {}
        injector.reset()
        assert injector.total_calls() == 0

    def test_counts_concurrent_calls_exactly(self):
        injector = FaultInjector(named_plan("none"))
        workers, per_worker = 6, 2000
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: [injector.guard("a/x") for _ in range(per_worker)]
                )
                for _ in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert injector.calls("a/x") == workers * per_worker
        assert injector.total_calls() == workers * per_worker

    def test_policy_probe_counts_each_attempt(self):
        injector = FaultInjector(named_plan("none"))
        policy = ResiliencePolicy(
            injector=injector, breakers=BreakerRegistry(), sleep=lambda _s: None
        )
        failures = iter([TransientSourceError("blip"), None])

        def flaky(source: str) -> str:
            exc = next(failures)
            if exc is not None:
                raise exc
            return source

        assert policy.call("a/x", flaky, "a/x") == "a/x"
        assert injector.calls("a/x") == 2  # one guard per attempt


class TestClosedBreaker:
    """(e) The lock-free closed path still opens at the threshold."""

    def test_opens_at_failure_threshold(self):
        breaker = CircuitBreaker("s", BreakerConfig(failure_threshold=3))
        for _ in range(10):
            assert breaker.allow()
            breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_success()  # resets the count: failures must be consecutive
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_registry_returns_one_breaker_per_source(self):
        registry = BreakerRegistry()
        seen: list[CircuitBreaker] = []
        threads = [
            threading.Thread(target=lambda: seen.append(registry.get("a/x")))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(seen) == 8 and len({id(b) for b in seen}) == 1
        assert len(registry) == 1
