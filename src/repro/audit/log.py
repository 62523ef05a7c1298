"""Append-only, hash-chained disclosure log.

Every delivered report instance is recorded with what auditing needs:
who received which columns, under which purpose, with how many contributors
per cell, descending from which source relations. The chain hash makes the
log tamper-evident — the property a third-party auditing agency (§2) relies
on when the BI provider is the party under audit.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReproError
from repro.obs.trace import TRACER
from repro.policy.subjects import AccessContext
from repro.reports.definition import ReportInstance

__all__ = ["DisclosureRecord", "AuditLog"]


@dataclass(frozen=True)
class DisclosureRecord:
    """One delivered report instance, as the audit trail sees it."""

    sequence: int
    report: str
    version: int
    consumer: str
    roles: tuple[str, ...]
    purpose: str
    columns: tuple[str, ...]
    row_count: int
    min_contributors: int  # smallest lineage set over delivered rows
    source_footprint: tuple[str, ...]  # provider/table identities
    obligations_applied: tuple[str, ...]
    suppressed_rows: int
    trace_id: str = ""  # repro.obs trace of the delivery ("" when obs off)
    degraded: bool = False  # delivered in fail-closed degraded form
    fault_cause: str = ""  # which source(s) were down, and how
    chain_hash: str = ""

    def payload(self, *, trace: bool = True) -> str:
        """Canonical serialization (hashed into the chain).

        The trace ID and degradation marker are appended only when present,
        so logs written with observability disabled against healthy sources
        are byte-identical (fields *and* chain hashes) to the
        pre-observability format. ``trace=False`` leaves the trace ID out:
        the payload the same record would have had with observability off.
        """
        fields = [
            str(self.sequence),
            self.report,
            str(self.version),
            self.consumer,
            ",".join(self.roles),
            self.purpose,
            ",".join(self.columns),
            str(self.row_count),
            str(self.min_contributors),
            ",".join(self.source_footprint),
            ",".join(self.obligations_applied),
            str(self.suppressed_rows),
        ]
        if trace and self.trace_id:
            fields.append(self.trace_id)
        if self.degraded:
            fields.append(f"DEGRADED:{self.fault_cause}")
        return "|".join(fields)


@dataclass
class AuditLog:
    """The tamper-evident ledger of all disclosures.

    Appends are serialized on an internal lock: the sequence number, the
    previous chain hash, and the append itself form one atomic step, so
    concurrent delivery workers can never fork the chain or duplicate a
    sequence number. The commit order of concurrent deliveries *is* the
    chain order — which is what the service layer's linearizability replay
    keys on, via the :attr:`on_record` hook (called under the same lock,
    atomically with the append).
    """

    records: list[DisclosureRecord] = field(default_factory=list)
    #: Called as ``on_record(record, instance)`` immediately after each
    #: append, still under the append lock — a subscriber observing commit
    #: order sees exactly the chain order.
    on_record: Callable[[DisclosureRecord, ReportInstance], None] | None = field(
        default=None, repr=False, compare=False
    )
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    GENESIS = "0" * 64

    def record_instance(
        self, instance: ReportInstance, context: AccessContext
    ) -> DisclosureRecord:
        """Append one delivered instance to the log.

        The table facts are read through its properties, which a kept
        :class:`~repro.relational.table.ReadOnlyTable` computes once.
        """
        table = instance.table
        min_contributors = table.min_contributors
        footprint = table.source_footprint
        trace_id = TRACER.current_trace_id() or "" if TRACER.active() else ""
        with self._lock:
            record = DisclosureRecord(
                sequence=len(self.records),
                report=instance.definition.name,
                version=instance.definition.version,
                consumer=context.user.name,
                roles=tuple(sorted(r.name for r in context.user.roles)),
                purpose=context.purpose.name,
                columns=table.schema.names,
                row_count=len(table),
                min_contributors=min_contributors,
                source_footprint=footprint,
                obligations_applied=instance.obligations_applied,
                suppressed_rows=instance.suppressed_rows,
                trace_id=trace_id,
                degraded=instance.degraded,
                fault_cause=instance.fault_cause,
            )
            # The record is not published yet, so its chain hash is set in
            # place rather than by building a second frozen copy.
            object.__setattr__(record, "chain_hash", self._hash(record))
            self.records.append(record)
            if self.on_record is not None:
                self.on_record(record, instance)
        return record

    def _hash(self, record: DisclosureRecord) -> str:
        previous = self.records[-1].chain_hash if self.records else self.GENESIS
        return hashlib.sha256(
            (previous + record.payload()).encode()
        ).hexdigest()

    def verify_chain(self) -> bool:
        """Recompute the chain; False means the log was tampered with."""
        with self._lock:
            snapshot = tuple(self.records)
        previous = self.GENESIS
        for record in snapshot:
            expected = hashlib.sha256(
                (previous + record.payload()).encode()
            ).hexdigest()
            if record.chain_hash != expected:
                return False
            previous = record.chain_hash
        return True

    def for_report(self, report: str) -> tuple[DisclosureRecord, ...]:
        return tuple(r for r in self.records if r.report == report)

    def for_consumer(self, consumer: str) -> tuple[DisclosureRecord, ...]:
        return tuple(r for r in self.records if r.consumer == consumer)

    def __len__(self) -> int:
        return len(self.records)

    def last(self) -> DisclosureRecord:
        if not self.records:
            raise ReproError("audit log is empty")
        return self.records[-1]

    def as_table(self, *, name: str = "audit_log") -> "Table":
        """The log as a relational table — auditors query it with the engine.

        Multi-valued fields (roles, columns, footprint) are joined with
        commas; the chain hash is included so SQL-level integrity spot
        checks are possible.
        """
        from repro.relational.schema import Column, Schema
        from repro.relational.table import Table
        from repro.relational.types import ColumnType

        schema = Schema(
            [
                Column("sequence", ColumnType.INT, nullable=False),
                Column("report", ColumnType.STRING, nullable=False),
                Column("version", ColumnType.INT, nullable=False),
                Column("consumer", ColumnType.STRING, nullable=False),
                Column("roles", ColumnType.STRING, nullable=False),
                Column("purpose", ColumnType.STRING, nullable=False),
                Column("columns", ColumnType.STRING, nullable=False),
                Column("row_count", ColumnType.INT, nullable=False),
                Column("min_contributors", ColumnType.INT, nullable=False),
                Column("suppressed_rows", ColumnType.INT, nullable=False),
                Column("source_footprint", ColumnType.STRING, nullable=False),
                Column("trace_id", ColumnType.STRING, nullable=True),
                Column("degraded", ColumnType.INT, nullable=False),
                Column("fault_cause", ColumnType.STRING, nullable=True),
                Column("chain_hash", ColumnType.STRING, nullable=False),
            ]
        )
        table = Table(name, schema, provider="auditor")
        for r in self.records:
            table.insert(
                (
                    r.sequence,
                    r.report,
                    r.version,
                    r.consumer,
                    ",".join(r.roles),
                    r.purpose,
                    ",".join(r.columns),
                    r.row_count,
                    r.min_contributors,
                    r.suppressed_rows,
                    ",".join(r.source_footprint),
                    r.trace_id or None,
                    int(r.degraded),
                    r.fault_cause or None,
                    r.chain_hash,
                )
            )
        return table
