"""The concurrent delivery daemon: locking, linearizability, faults, HTTP.

The heart of this file is serial-equivalence: N concurrent deliveries
interleaved with catalog/PLA/report mutations must produce payloads, audit
hash chains, and enforcement decisions byte-identical to *some* serial
order — the daemon's commit log names that order, and
:func:`repro.service.check_linearizable` replays it on a fresh deployment
to verify. A hypothesis property drives 200+ randomized concurrent
schedules through a small deployment; a heavyweight test drives 32
consumers against the full scenario.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.concurrency import RWLock
from repro.errors import (
    ServiceError,
    ServiceOverloadedError,
    ServiceStoppedError,
)
from repro.resilience import (
    BreakerConfig,
    BreakerRegistry,
    BreakerState,
    DeliveryResilience,
    FaultInjector,
    ResiliencePolicy,
    RetryPolicy,
    named_plan,
)
from repro.service import (
    LOAD_MIXES,
    DeliveryDaemon,
    LoadSpec,
    MUTATION_KINDS,
    MutationSpec,
    ServiceState,
    apply_mutation_to,
    build_schedule,
    check_linearizable,
    payload_hash,
    percentile,
    run_load,
    start_http_server,
)
from repro.service.loadgen import ROLE_TO_USER
from repro.simulation.scenario import ScenarioConfig, build_scenario
from repro.workloads.healthcare import HealthcareConfig

# A deliberately small deployment: builds in ~20ms, so the hypothesis
# property can afford a fresh one (plus its serial replay twin) per example.
SMALL_CONFIG = ScenarioConfig(
    healthcare=HealthcareConfig(n_patients=30, n_prescriptions=60),
    n_reports=8,
)


def small_scenario():
    return build_scenario(SMALL_CONFIG)


@pytest.fixture(scope="module")
def full_scenario_factory():
    return build_scenario


def _fault_free(state):
    """Strip any process-default resilience (a REPRO_FAULTS environment
    installs one on every service) — these tests assert exact outcomes
    and serial equivalence, so the live run must be fault-free. Fault
    behaviour is exercised explicitly in TestDegradedService.
    """
    state.service.resilience = None
    return state


@pytest.fixture
def small_state():
    return _fault_free(ServiceState(small_scenario(), factory=small_scenario))


def _compliant_args(definition):
    role = sorted(definition.audience)[0]
    return {"user": ROLE_TO_USER[role], "purpose": definition.purpose}


def _no_sleep(_s: float) -> None:
    pass


def _fault_resilience(plan_name: str, *, breakers: BreakerRegistry | None = None):
    return DeliveryResilience(
        policy=ResiliencePolicy(
            injector=FaultInjector(named_plan(plan_name), sleep=_no_sleep),
            retry=RetryPolicy(max_attempts=2),
            breakers=breakers,
            sleep=_no_sleep,
        ),
        mode="degrade",
    )


# ---------------------------------------------------------------------------
# RWLock
# ---------------------------------------------------------------------------


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        entered = threading.Barrier(3, timeout=5.0)

        def reader():
            with lock.read_locked():
                entered.wait()  # all three inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        log: list[str] = []
        lock.acquire_write()

        def reader():
            with lock.read_locked():
                log.append("read")

        def writer():
            with lock.write_locked():
                log.append("write")

        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        assert log == []  # both blocked behind the held write lock
        lock.release_write()
        for t in threads:
            t.join(timeout=5.0)
        assert sorted(log) == ["read", "write"]

    def test_write_preference_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        writer_started = threading.Event()
        writer_done = threading.Event()
        late_reader_ran = threading.Event()

        def writer():
            writer_started.set()
            with lock.write_locked():
                writer_done.set()

        def late_reader():
            writer_started.wait(timeout=5.0)
            time.sleep(0.05)  # let the writer queue up first
            with lock.read_locked():
                # The waiting writer must have gone first.
                assert writer_done.is_set()
                late_reader_ran.set()

        w = threading.Thread(target=writer)
        r = threading.Thread(target=late_reader)
        w.start()
        r.start()
        time.sleep(0.1)
        assert not writer_done.is_set()  # still blocked on the held read lock
        lock.release_read()
        w.join(timeout=5.0)
        r.join(timeout=5.0)
        assert writer_done.is_set() and late_reader_ran.is_set()

    def test_acquire_timeouts(self):
        lock = RWLock()
        lock.acquire_write()
        assert lock.acquire_read(timeout=0.05) is False
        assert lock.acquire_write(timeout=0.05) is False
        lock.release_write()
        assert lock.acquire_read(timeout=0.05) is True
        assert lock.acquire_write(timeout=0.05) is False  # reader held
        lock.release_read()

    def test_snapshot_counts(self):
        lock = RWLock()
        with lock.read_locked():
            assert lock.snapshot()["active_readers"] == 1
        idle = lock.snapshot()
        assert idle["active_readers"] == 0
        assert idle["writer_active"] is False
        assert idle["writers_waiting"] == 0


# ---------------------------------------------------------------------------
# Daemon basics
# ---------------------------------------------------------------------------


class TestDaemonBasics:
    def test_rejects_bad_configuration(self, small_state):
        with pytest.raises(ServiceError):
            DeliveryDaemon(small_state, workers=0)
        with pytest.raises(ServiceError):
            DeliveryDaemon(small_state, queue_size=0)

    def test_submit_to_stopped_daemon_is_typed(self, small_state):
        daemon = DeliveryDaemon(small_state)
        with pytest.raises(ServiceStoppedError):
            daemon.submit_delivery("rpt_000", user="ann", purpose="care/quality")

    def test_full_queue_sheds_with_typed_error(self, small_state):
        # One worker, tiny queue, and the worker is parked on a slow job.
        daemon = DeliveryDaemon(small_state, workers=1, queue_size=2)
        gate = threading.Event()
        original = small_state.service.deliver

        def slow_deliver(*args, **kwargs):
            gate.wait(timeout=10.0)
            return original(*args, **kwargs)

        small_state.service.deliver = slow_deliver
        definition = small_state.scenario.workload[0]
        args = _compliant_args(definition)
        with daemon:
            futures = [
                daemon.submit_delivery(definition.name, wait=False, **args)
            ]
            # Fill the queue while the worker holds job 1.
            deadline = time.monotonic() + 5.0
            with pytest.raises(ServiceOverloadedError):
                while time.monotonic() < deadline:
                    futures.append(
                        daemon.submit_delivery(definition.name, wait=False, **args)
                    )
            gate.set()
            for f in futures:
                f.result(timeout=10.0)
        assert daemon.counts().get("deliver:shed", 0) >= 1

    def test_sessions_track_consumers(self, small_state):
        with DeliveryDaemon(small_state, workers=2) as daemon:
            definition = small_state.scenario.workload[0]
            compliant_user = _compliant_args(definition)["user"]
            other = next(
                u for u in sorted(ROLE_TO_USER.values()) if u != compliant_user
            )
            for _ in range(3):
                daemon.deliver(definition.name, **_compliant_args(definition))
            daemon.deliver(definition.name, user=other, purpose="care/quality")
            sessions = {s.consumer: s.as_dict() for s in daemon.sessions()}
        assert sessions[compliant_user]["submitted"] == 3
        assert sessions[compliant_user]["delivered"] + sessions[compliant_user][
            "refused"
        ] == 3
        assert sessions[other]["submitted"] == 1

    def test_stats_shape(self, small_state):
        with DeliveryDaemon(small_state) as daemon:
            definition = small_state.scenario.workload[0]
            daemon.deliver(definition.name, **_compliant_args(definition))
            daemon.mutate(MutationSpec("insert_rows", seed=1))
            stats = daemon.stats()
        for key in (
            "running", "workers", "queue_depth", "queue_size", "epoch",
            "commits", "refusals", "audit_records", "outcomes", "sessions",
            "lock",
        ):
            assert key in stats
        assert stats["epoch"] == 1
        assert stats["outcomes"].get("mutate:applied") == 1

    def test_stop_drains_accepted_jobs(self, small_state):
        daemon = DeliveryDaemon(small_state, workers=2).start()
        definition = small_state.scenario.workload[0]
        args = _compliant_args(definition)
        futures = [
            daemon.submit_delivery(definition.name, **args) for _ in range(8)
        ]
        daemon.stop()
        assert all(f.done() for f in futures)
        assert not daemon.running


# ---------------------------------------------------------------------------
# Deterministic mutations
# ---------------------------------------------------------------------------


class TestMutations:
    def test_unknown_kind_is_typed(self):
        with pytest.raises(ServiceError):
            MutationSpec("drop_everything")

    @pytest.mark.parametrize("kind", MUTATION_KINDS)
    def test_each_kind_is_deterministic(self, kind):
        specs = [MutationSpec(kind, seed=s) for s in (0, 3, 7)]
        hashes = []
        for _ in range(2):
            scenario = small_scenario()
            service = scenario.delivery_service()
            service.resilience = None  # determinism needs a fault-free run
            for spec in specs:
                apply_mutation_to(scenario, spec)
            definition = scenario.workload[0]
            try:
                instance = service.deliver(
                    definition.name, **_compliant_args(definition)
                )
                hashes.append(payload_hash(instance))
            except Exception as exc:  # refusals must also be deterministic
                hashes.append(f"refused:{exc}")
        assert hashes[0] == hashes[1]

    def test_insert_rows_bumps_data_version(self):
        scenario = small_scenario()
        fact = scenario.bi_catalog.table(scenario.star.fact.name)
        before_rows, before_version = len(fact.rows), fact.data_version
        apply_mutation_to(scenario, MutationSpec("insert_rows", seed=5))
        assert len(fact.rows) == before_rows + 1
        assert fact.data_version > before_version

    def test_revise_pla_bumps_version_and_reattaches(self):
        scenario = small_scenario()
        meta = list(scenario.metareports)[0]
        before = meta.pla.version
        apply_mutation_to(scenario, MutationSpec("revise_pla", seed=0))
        assert list(scenario.metareports)[0].pla.version > before

    def test_redefine_report_bumps_report_version(self):
        scenario = small_scenario()
        name = scenario.report_catalog.all_current()[0].name
        before = scenario.report_catalog.current(name).version
        apply_mutation_to(scenario, MutationSpec("redefine_report", seed=0))
        assert scenario.report_catalog.current(name).version == before + 1

    def test_epoch_advances_and_is_logged(self, small_state):
        with small_state.lock.write_locked():
            entry = small_state.apply_mutation(MutationSpec("insert_rows", seed=2))
        assert small_state.epoch == 1 and entry.epoch == 1
        commits, _refusals = small_state.logs_snapshot()
        assert commits[-1].kind == "mutate"
        assert commits[-1].mutation == MutationSpec("insert_rows", seed=2)


# ---------------------------------------------------------------------------
# Linearizability
# ---------------------------------------------------------------------------


def _run_concurrent(state, ops, *, workers=4):
    """Submit every op concurrently from its own thread; wait for all."""
    daemon = DeliveryDaemon(state, workers=workers, queue_size=max(64, len(ops)))
    results = []
    with daemon:
        futures = []
        for op in ops:
            if op[0] == "mutate":
                futures.append(daemon.submit_mutation(op[1]))
            else:
                _, report, user, purpose = op
                futures.append(
                    daemon.submit_delivery(report, user=user, purpose=purpose)
                )
        results = [f.result(timeout=60.0) for f in futures]
    return results


def _ops_strategy(n_reports=8):
    deliver = st.tuples(
        st.just("deliver"),
        st.integers(min_value=0, max_value=n_reports - 1),
        st.sampled_from(sorted(ROLE_TO_USER.values())),
        st.sampled_from(
            ["care/quality", "admin/reimbursement", "research/epidemiology"]
        ),
    )
    mutate = st.tuples(
        st.just("mutate"),
        st.sampled_from(MUTATION_KINDS),
        st.integers(min_value=0, max_value=9999),
    )
    return st.lists(
        st.one_of(deliver, deliver, deliver, mutate), min_size=4, max_size=12
    )


class TestPayloadHash:
    """The commit log's payload digest: equal iff observably identical."""

    @pytest.fixture(scope="class")
    def delivered(self):
        scenario = small_scenario()
        service = scenario.delivery_service()
        service.resilience = None
        for definition in scenario.workload:
            try:
                instance = service.deliver(
                    definition.name, **_compliant_args(definition)
                )
            except Exception:
                continue
            if len(instance.table) and len(instance.table.schema.names) > 1:
                return instance
        pytest.fail("no compliant multi-column report in the small deployment")

    @staticmethod
    def _with_rows(instance, rows):
        from dataclasses import replace as dc_replace

        from repro.relational.table import Table

        table = instance.table
        return dc_replace(
            instance,
            table=Table.derived(
                table.name, table.schema, rows, table.provenance, provider=table.provider
            ),
        )

    def test_identical_instances_hash_equal(self, delivered):
        copy = self._with_rows(delivered, list(delivered.table.rows))
        assert copy is not delivered
        assert payload_hash(copy) == payload_hash(delivered)

    def test_one_cell_changes_the_hash(self, delivered):
        rows = list(delivered.table.rows)
        first = rows[0]
        rows[0] = (f"{first[0]}x",) + tuple(first[1:])
        assert payload_hash(self._with_rows(delivered, rows)) != payload_hash(
            delivered
        )

    def test_int_and_float_cells_hash_differently(self, delivered):
        rows = list(delivered.table.rows)
        as_int = self._with_rows(delivered, [(1,) + tuple(rows[0][1:])] + rows[1:])
        as_float = self._with_rows(
            delivered, [(1.0,) + tuple(rows[0][1:])] + rows[1:]
        )
        assert payload_hash(as_int) != payload_hash(as_float)

    def test_degraded_sources_alone_change_the_hash(self, delivered):
        from dataclasses import replace as dc_replace

        one = dc_replace(delivered, degraded=True, degraded_sources=("a/x",))
        other = dc_replace(delivered, degraded=True, degraded_sources=("a/y",))
        assert payload_hash(one) != payload_hash(other)
        assert payload_hash(one) != payload_hash(delivered)

    def test_a_cell_cannot_pose_as_a_part_boundary(self, delivered):
        # Moving text between the last cell and the next part must show.
        from dataclasses import replace as dc_replace

        one = dc_replace(delivered, fault_cause="b", obligations_applied=("a",))
        other = dc_replace(delivered, fault_cause="", obligations_applied=("a", "b"))
        assert payload_hash(one) != payload_hash(other)


class TestLinearizability:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(ops=_ops_strategy(), workers=st.integers(min_value=2, max_value=6))
    def test_concurrent_runs_equal_some_serial_order(self, ops, workers):
        """200+ randomized concurrent schedules all replay byte-identically."""
        scenario = small_scenario()
        state = _fault_free(ServiceState(scenario, factory=small_scenario))
        names = [d.name for d in scenario.workload]
        resolved = []
        for op in ops:
            if op[0] == "mutate":
                resolved.append(("mutate", MutationSpec(op[1], seed=op[2])))
            else:
                resolved.append(("deliver", names[op[1]], op[2], op[3]))
        _run_concurrent(state, resolved, workers=workers)
        commit_log, refusal_log = state.logs_snapshot()
        report = check_linearizable(small_scenario, commit_log, refusal_log)
        assert report.ok, report.violations
        # Everything that produced an audit record was re-checked.
        deliver_commits = [e for e in commit_log if e.kind == "deliver"]
        assert report.deliveries_checked == len(deliver_commits)
        assert state.service.audit_log.verify_chain()

    def test_32_consumers_with_interleaved_mutations_full_scenario(
        self, full_scenario_factory
    ):
        """The acceptance-criteria run: 32 concurrent consumers, live writers."""
        scenario = full_scenario_factory()
        state = _fault_free(
            ServiceState(scenario, factory=full_scenario_factory)
        )
        daemon = DeliveryDaemon(state, workers=8, queue_size=128)
        spec = LoadSpec(
            consumers=32, requests_per_consumer=4, mix="mutation_heavy", seed=7
        )
        with daemon:
            result = run_load(daemon, scenario, spec)
        assert result.requests == 128
        assert result.epoch > 0, "the mix must actually mutate mid-run"
        commit_log, refusal_log = state.logs_snapshot()
        report = check_linearizable(
            full_scenario_factory, commit_log, refusal_log
        )
        assert report.ok, report.violations
        assert report.mutations_checked == result.epoch
        assert state.service.audit_log.verify_chain()
        # Latency percentiles are monotone and populated.
        assert 0 < result.p50_ms <= result.p95_ms <= result.p99_ms

    def test_commit_log_is_audit_chain_order(self, small_state):
        definition = small_state.scenario.workload[0]
        args = _compliant_args(definition)
        ops = [("deliver", definition.name, args["user"], args["purpose"])] * 6
        _run_concurrent(small_state, ops)
        commits, _ = small_state.logs_snapshot()
        sequences = [e.sequence for e in commits if e.kind == "deliver"]
        assert sequences == sorted(sequences)
        records = small_state.service.audit_log.records
        assert [r.sequence for r in records] == sequences

    def test_commit_digest_survives_obs_toggles(self, small_state):
        """Untraced deliveries reuse the audit chain hash as their digest
        only while the two chains agree: after a traced record (obs on)
        they diverge, and untraced deliveries must hash again."""
        from repro import obs
        from repro.service.linearize import GENESIS, chain_digest

        ops = [
            ("deliver", d.name, _compliant_args(d)["user"], d.purpose)
            for d in small_state.scenario.workload
        ]
        previous = obs.enabled()
        try:
            for traced in (False, True, False):
                (obs.enable if traced else obs.disable)()
                _run_concurrent(small_state, ops, workers=2)
        finally:
            (obs.enable if previous else obs.disable)()
        records = small_state.service.audit_log.records
        assert any(r.trace_id for r in records) and not records[-1].trace_id
        expected, chain = [], GENESIS
        for record in records:
            chain = chain_digest(chain, record)
            expected.append(chain)
        commits, refusals = small_state.logs_snapshot()
        assert [e.chain_hash for e in commits if e.kind == "deliver"] == expected
        report = check_linearizable(small_scenario, commits, refusals)
        assert report.ok, report.violations

    def test_detects_a_tampered_commit_log(self, small_state):
        from dataclasses import replace as dc_replace

        ops = [
            ("deliver", d.name, _compliant_args(d)["user"], d.purpose)
            for d in small_state.scenario.workload
        ]
        _run_concurrent(small_state, ops)
        commits, refusals = small_state.logs_snapshot()
        delivered = [e for e in commits if e.kind == "deliver"]
        assert delivered, "at least one compliant report must deliver"
        tampered = tuple(
            dc_replace(e, payload_hash="0" * 64) if e is delivered[0] else e
            for e in commits
        )
        report = check_linearizable(small_scenario, tampered, refusals)
        assert not report.ok
        assert any("payload hash diverged" in v for v in report.violations)


# ---------------------------------------------------------------------------
# Faults against a running daemon
# ---------------------------------------------------------------------------


class TestDegradedService:
    def _deliver_all(self, daemon, scenario):
        futures = [
            daemon.submit_delivery(d.name, **_compliant_args(d))
            for d in scenario.workload
        ]
        return [f.result(timeout=60.0) for f in futures]

    def test_fault_plan_injected_into_running_daemon(self):
        scenario = small_scenario()
        state = _fault_free(ServiceState(scenario, factory=small_scenario))
        with DeliveryDaemon(state, workers=4) as daemon:
            healthy = self._deliver_all(daemon, scenario)
            assert all(r.outcome in ("delivered", "refused") for r in healthy)
            baseline = {
                r.instance.definition.name: Counter(r.instance.table.rows)
                for r in healthy
                if r.instance is not None
            }

            # Swap the resilience policy while the daemon is live.
            daemon.set_resilience(_fault_resilience("blackout"))
            faulted = self._deliver_all(daemon, scenario)

            degraded = [r for r in faulted if r.outcome == "degraded"]
            assert degraded, "blackout must degrade hospital-fed reports"
            for r in degraded:
                instance = r.instance
                assert instance.degraded
                assert "hospital/prescriptions" in instance.degraded_sources
                assert instance.fault_cause
                # Strictly subtractive: no row a healthy delivery lacked.
                name = instance.definition.name
                assert not Counter(instance.table.rows) - baseline[name]

            # Recovery: uninstall and the daemon serves healthy again.
            daemon.set_resilience(None)
            recovered = self._deliver_all(daemon, scenario)
            assert not any(r.outcome == "degraded" for r in recovered)
        assert state.service.audit_log.verify_chain()

    def test_breakers_open_per_source_under_blackout(self):
        scenario = small_scenario()
        state = ServiceState(scenario, factory=small_scenario)
        breakers = BreakerRegistry(
            BreakerConfig(failure_threshold=2, cooldown_s=1000.0)
        )
        with DeliveryDaemon(state, workers=4) as daemon:
            daemon.set_resilience(
                _fault_resilience("blackout", breakers=breakers)
            )
            for _ in range(3):
                self._deliver_all(daemon, scenario)
        assert breakers.get("hospital/prescriptions").state is BreakerState.OPEN
        # Only the blacked-out source trips; healthy sources stay closed.
        for breaker in breakers:
            if breaker.name != "hospital/prescriptions":
                assert breaker.state is BreakerState.CLOSED

    def test_smoke_and_flaky_plans_keep_outcomes_typed(self):
        for plan in ("smoke", "flaky"):
            scenario = small_scenario()
            state = ServiceState(scenario, factory=small_scenario)
            with DeliveryDaemon(state, workers=4) as daemon:
                daemon.set_resilience(_fault_resilience(plan))
                results = self._deliver_all(daemon, scenario)
                results += self._deliver_all(daemon, scenario)
            allowed = {"delivered", "degraded", "refused", "unavailable"}
            assert {r.outcome for r in results} <= allowed
            # Refusal log entries carry the typed kind and an epoch.
            _, refusals = state.logs_snapshot()
            assert all(r.kind in ("refused", "unavailable") for r in refusals)
            assert state.service.audit_log.verify_chain()


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------


class TestLoadgen:
    def test_schedule_is_deterministic(self):
        scenario = small_scenario()
        spec = LoadSpec(consumers=6, requests_per_consumer=9, seed=42)
        assert build_schedule(scenario, spec) == build_schedule(scenario, spec)

    def test_schedule_changes_with_seed(self):
        scenario = small_scenario()
        a = build_schedule(scenario, LoadSpec(consumers=4, seed=1))
        b = build_schedule(scenario, LoadSpec(consumers=4, seed=2))
        assert a != b

    def test_mix_controls_mutation_rate(self):
        scenario = small_scenario()
        spec = LoadSpec(
            consumers=8, requests_per_consumer=50, mix="mutation_heavy", seed=3
        )
        ops = [op for sched in build_schedule(scenario, spec) for op in sched]
        rate = sum(1 for op in ops if op[0] == "mutate") / len(ops)
        assert 0.2 < rate < 0.4  # ~30%

    def test_unknown_mix_is_typed(self):
        with pytest.raises(ServiceError):
            LoadSpec(mix="write_only")

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 95) == 4.0
        assert percentile(values, 99) == 4.0
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0

    def test_run_load_counts_every_request(self, small_state):
        spec = LoadSpec(consumers=4, requests_per_consumer=5, seed=9)
        daemon = DeliveryDaemon(small_state, workers=4)
        with daemon:
            result = run_load(daemon, small_state.scenario, spec)
        assert result.requests == 20
        assert sum(result.outcomes.values()) == 20
        assert result.throughput_rps > 0
        assert set(LOAD_MIXES) == {"read_heavy", "mutation_heavy"}


# ---------------------------------------------------------------------------
# HTTP face
# ---------------------------------------------------------------------------


class TestHttpd:
    @pytest.fixture
    def served(self, small_state):
        daemon = DeliveryDaemon(small_state, workers=2).start()
        server = start_http_server(daemon)
        port = server.server_address[1]
        yield daemon, f"http://127.0.0.1:{port}"
        server.shutdown()
        daemon.stop()

    def test_healthz_and_stats(self, served):
        daemon, base = served
        health = json.load(urllib.request.urlopen(f"{base}/healthz"))
        assert health["ok"] is True and health["epoch"] == 0
        daemon.mutate(MutationSpec("insert_rows", seed=1))
        stats = json.load(urllib.request.urlopen(f"{base}/stats"))
        assert stats["epoch"] == 1 and stats["running"] is True

    def test_metrics_scrape_has_service_families(self, served):
        daemon, base = served
        definition = daemon.state.scenario.workload[0]
        daemon.deliver(definition.name, **_compliant_args(definition))
        body = urllib.request.urlopen(f"{base}/metrics").read().decode()
        assert "repro_service_requests_total" in body
        assert "repro_service_epoch" in body

    def test_post_deliver_round_trip(self, served):
        daemon, base = served
        definition = daemon.state.scenario.workload[0]
        args = _compliant_args(definition)
        payload = json.dumps(
            {"report": definition.name, "user": args["user"],
             "purpose": args["purpose"]}
        ).encode()
        request = urllib.request.Request(f"{base}/deliver", data=payload)
        out = json.load(urllib.request.urlopen(request))
        assert out["outcome"] in ("delivered", "refused")
        assert out["epoch"] == 0

    def test_post_deliver_bad_body_is_400(self, served):
        _daemon, base = served
        request = urllib.request.Request(f"{base}/deliver", data=b"not json")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400

    def test_unknown_path_is_404(self, served):
        _daemon, base = served
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base}/nope")
        assert err.value.code == 404
