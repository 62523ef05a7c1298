"""The shared deployment one daemon serves, and its concurrency contract.

:class:`ServiceState` wraps one :class:`~repro.simulation.scenario.Scenario`
plus its :class:`~repro.reports.delivery.DeliveryService` behind a
write-preferring :class:`~repro.concurrency.RWLock`:

* a **delivery** holds the read lock across compliance check → enforcement
  → audit append, so every record it writes was computed against one
  consistent catalog/PLA/report state — the state of one *epoch*;
* a **mutation** holds the write lock, applies one
  :class:`MutationSpec`, and bumps the epoch. The mutations themselves bump
  the version counters (table ``data_version``, catalog ``ddl_version``,
  PLA/report versions) that the plan/containment/verdict cache keys embed,
  so post-mutation deliveries can never hit pre-mutation cache entries.

The **commit log** is the serial order the concurrent run is equivalent
to. Delivery entries are appended by the audit log's ``on_record`` hook —
under the audit lock, atomically with the hash-chain append — so commit
order and chain order cannot diverge. Mutation entries are appended under
the write lock, which the RWLock orders against every reader. Refused
deliveries (which write no audit record) land in a separate epoch-tagged
refusal log; a refusal is a pure function of the epoch's state, so replay
checks them per epoch.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.audit.log import AuditLog
from repro.concurrency import RWLock
from repro.core.annotations import AggregationThreshold
from repro.errors import ServiceError
from repro.obs import instrument

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.audit.log import DisclosureRecord
    from repro.reports.definition import ReportInstance
    from repro.simulation.scenario import Scenario

__all__ = [
    "MUTATION_KINDS",
    "MutationSpec",
    "CommitEntry",
    "RefusalEntry",
    "ServiceState",
    "apply_mutation_to",
]

#: The catalog mutations a writer can apply to a live deployment.
MUTATION_KINDS = ("insert_rows", "revise_pla", "redefine_report")


@dataclass(frozen=True)
class MutationSpec:
    """One deterministic mutation of the shared deployment.

    ``seed`` selects *which* fact row / meta-report / report is touched and
    how — as a pure function of the seed and the deployment state at apply
    time, so replaying the same mutation sequence from a fresh scenario
    reproduces the same state evolution bit for bit.
    """

    kind: str  # one of MUTATION_KINDS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MUTATION_KINDS:
            raise ServiceError(
                f"unknown mutation kind {self.kind!r}; expected one of "
                f"{MUTATION_KINDS}"
            )


def payload_hash(instance: "ReportInstance") -> str:
    """A sha256 digest of everything a consumer can observe in a delivery.

    Covers the definition identity (name + version), the consumer, the full
    table (schema names and every row), and the enforcement outcome
    (suppressed rows, obligations, degradation state) — two deliveries hash
    equal iff they are observably identical. The parts are hashed as one
    ``repr`` of a tuple: every part is built from strings, numbers, dates,
    booleans and ``None``, whose ``repr`` is unambiguous (strings are quoted
    and escaped, ``1`` and ``1.0`` differ), and the tuple's delimiters keep
    the parts apart. The rows' part is the table's ``rows_repr``, which a
    kept :class:`~repro.relational.table.ReadOnlyTable` computes once,
    spliced between the other parts' ``repr`` s.
    """
    table = instance.table
    head = (
        instance.definition.name,
        instance.definition.version,
        instance.consumer,
        table.schema.names,
    )
    tail = (
        instance.suppressed_rows,
        instance.obligations_applied,
        instance.degraded,
        instance.degraded_sources,
        instance.fault_cause,
    )
    # repr(head + (rows,) + tail), without formatting the rows again.
    text = f"{repr(head)[:-1]}, {table.rows_repr}, {repr(tail)[1:]}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def chain_digest(previous: str, record: "DisclosureRecord") -> str:
    """Trace-independent audit chain: the trace-free payload over ``previous``.

    The record's payload is hashed without its trace ID. Trace IDs are
    execution-local observability metadata — a live run and its serial
    replay can never share them, so the raw audit chain is only
    byte-comparable across runs with tracing off. This digest is what the
    linearizability check compares instead; with observability disabled it
    is bit-identical to the audit log's own chain.
    """
    return hashlib.sha256(
        (previous + record.payload(trace=False)).encode()
    ).hexdigest()


@dataclass(frozen=True)
class CommitEntry:
    """One event in the serial order: a delivery or a mutation."""

    kind: str  # "deliver" | "mutate"
    epoch: int  # deployment epoch the event observed (mutations: created)
    # delivery fields
    report: str = ""
    user: str = ""
    purpose: str = ""
    outcome: str = ""  # "delivered" | "degraded"
    payload_hash: str = ""
    #: Trace-independent audit chain digest (``linearize.chain_digest``);
    #: equals the audit log's own chain hash when observability is off.
    chain_hash: str = ""
    sequence: int = -1
    # mutation field
    mutation: MutationSpec | None = None


@dataclass(frozen=True)
class RefusalEntry:
    """A delivery refused at some epoch (no audit record was written)."""

    epoch: int
    report: str
    user: str
    purpose: str
    kind: str  # "refused" (compliance) | "unavailable" (source down)


class ServiceState:
    """One deployment + RWLock + epoch + commit/refusal logs."""

    def __init__(
        self,
        scenario: "Scenario",
        *,
        factory: Callable[[], "Scenario"] | None = None,
    ) -> None:
        self.scenario = scenario
        #: Rebuilds an identical fresh deployment — what the serial replay
        #: of :mod:`repro.service.linearize` starts from.
        self.factory = factory
        self.service = scenario.delivery_service()
        self.lock = RWLock()
        self.epoch = 0
        self.commit_log: list[CommitEntry] = []
        self.refusal_log: list[RefusalEntry] = []
        # Guards the two logs. Delivery commits already serialize on the
        # audit lock and mutation commits on the write lock; this lock makes
        # the append itself safe against cross-log readers (stats, replay).
        self._log_lock = threading.Lock()
        # Running trace-independent chain over audit records; advanced in
        # the audit hook (under the audit lock, so strictly in chain order).
        self._norm_chain = AuditLog.GENESIS
        self.service.audit_log.on_record = self._on_audit_record
        instrument.SERVICE_EPOCH.set(0)

    # -- commit-log hooks -----------------------------------------------------

    def _on_audit_record(
        self, record: "DisclosureRecord", instance: "ReportInstance"
    ) -> None:
        """Audit-append hook: runs under the audit lock, in chain order.

        While the record has no trace ID and the running digest still equals
        the audit chain's previous hash, the trace-independent digest is the
        audit chain hash itself, so it is reused instead of hashed again.
        Once a traced record has made the chains diverge, every later digest
        is computed.
        """
        # The hook runs right after the append: records[-1] is ``record``.
        records = self.service.audit_log.records
        previous = records[-2].chain_hash if len(records) > 1 else AuditLog.GENESIS
        if not record.trace_id and self._norm_chain == previous:
            self._norm_chain = record.chain_hash
        else:
            self._norm_chain = chain_digest(self._norm_chain, record)
        entry = CommitEntry(
            kind="deliver",
            epoch=self.epoch,
            report=record.report,
            user=record.consumer,
            purpose=record.purpose,
            outcome="degraded" if record.degraded else "delivered",
            payload_hash=payload_hash(instance),
            chain_hash=self._norm_chain,
            sequence=record.sequence,
        )
        with self._log_lock:
            self.commit_log.append(entry)

    def record_refusal(
        self, report: str, user: str, purpose: str, kind: str
    ) -> RefusalEntry:
        """Log a refused delivery (caller holds the read lock)."""
        entry = RefusalEntry(
            epoch=self.epoch, report=report, user=user, purpose=purpose, kind=kind
        )
        with self._log_lock:
            self.refusal_log.append(entry)
        return entry

    # -- mutations ------------------------------------------------------------

    def apply_mutation(self, spec: MutationSpec) -> CommitEntry:
        """Apply ``spec`` and advance the epoch (caller holds the write lock)."""
        apply_mutation_to(self.scenario, spec)
        self.epoch += 1
        entry = CommitEntry(kind="mutate", epoch=self.epoch, mutation=spec)
        with self._log_lock:
            self.commit_log.append(entry)
        instrument.SERVICE_EPOCH.set(self.epoch)
        return entry

    # -- snapshots ------------------------------------------------------------

    def logs_snapshot(self) -> tuple[tuple[CommitEntry, ...], tuple[RefusalEntry, ...]]:
        """Consistent copies of the commit and refusal logs."""
        with self._log_lock:
            return tuple(self.commit_log), tuple(self.refusal_log)


def apply_mutation_to(scenario: "Scenario", spec: MutationSpec) -> str:
    """Apply one mutation to ``scenario``; returns a short description.

    Used both by the live daemon (under the write lock) and by the serial
    replay (single-threaded, same order) — determinism of this function is
    what makes the replay reproduce the concurrent run's state evolution.
    """
    if spec.kind == "insert_rows":
        return _insert_rows(scenario, spec.seed)
    if spec.kind == "revise_pla":
        return _revise_pla(scenario, spec.seed)
    if spec.kind == "redefine_report":
        return _redefine_report(scenario, spec.seed)
    raise ServiceError(f"unknown mutation kind {spec.kind!r}")


def _insert_rows(scenario: "Scenario", seed: int) -> str:
    """Duplicate one fact row with a nudged cost — a data-refresh insert.

    Bumps the fact table's ``data_version`` and row count, so every plan
    cache state token over the wide view changes.
    """
    fact = scenario.bi_catalog.table(scenario.star.fact.name)
    if not fact.rows:
        raise ServiceError(f"fact table {fact.name!r} is empty; nothing to clone")
    row = fact.rows[seed % len(fact.rows)]
    cost_idx = fact.schema.index_of("cost")
    values = list(row)
    base = values[cost_idx] or 0.0
    values[cost_idx] = round(float(base) + 1.0 + (seed % 7), 2)
    fact.insert(tuple(values))
    return f"insert_rows: cloned fact row {seed % len(fact.rows)} into {fact.name}"


def _revise_pla(scenario: "Scenario", seed: int) -> str:
    """Re-elicit one meta-report's PLA with a shifted aggregation floor.

    Revise → approve → attach: the meta-report now holds another PLA
    object, which moves the checker's meta-report set generation, so every
    cached compliance verdict keys out.
    """
    metas = list(scenario.metareports)
    meta = metas[seed % len(metas)]
    if meta.pla is None:
        raise ServiceError(f"meta-report {meta.name!r} has no PLA to revise")
    new_floor = 2 + (seed % 5)
    annotations = []
    changed = False
    for annotation in meta.pla.annotations:
        if isinstance(annotation, AggregationThreshold):
            if annotation.min_group_size == new_floor:
                new_floor += 1
            annotations.append(replace(annotation, min_group_size=new_floor))
            changed = True
        else:
            annotations.append(annotation)
    if not changed:
        annotations.append(
            AggregationThreshold(min_group_size=new_floor, scope="patient")
        )
    scenario.pla_registry.revise(meta.pla.name, annotations)
    approved = scenario.pla_registry.approve(meta.pla.name)
    meta.attach_pla(approved)
    return (
        f"revise_pla: {approved.name} v{approved.version} "
        f"(aggregation floor → {new_floor})"
    )


def _redefine_report(scenario: "Scenario", seed: int) -> str:
    """Evolve one report definition (new LIMIT ⇒ new version).

    ``with_query`` bumps the report version, which is part of the verdict
    cache key and is stamped into every audit record — redefinitions are
    visible in the chain.
    """
    definitions = scenario.report_catalog.all_current()
    if not definitions:
        raise ServiceError("report catalog is empty; nothing to redefine")
    definition = definitions[seed % len(definitions)]
    new_limit = 5 + (seed % 13)
    if definition.query.limit_n == new_limit:
        new_limit += 1
    revised = definition.with_query(replace(definition.query, limit_n=new_limit))
    scenario.report_catalog.update(revised)
    return (
        f"redefine_report: {revised.name} v{revised.version} "
        f"(LIMIT → {new_limit})"
    )
