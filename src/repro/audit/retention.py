"""Retention enforcement: consents bound how long the BI provider may hold data.

"Policies on usage and retention of patient data may also be regulated by
local and national laws" (§2, citing the Italian Data Protection Code and
Directive 95/46/EC). A :class:`ConsentAgreement` may carry
``retention_days``; this module finds and purges rows the provider is no
longer allowed to store, and reports what an audit would flag.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from repro.errors import PolicyError
from repro.relational.table import Table
from repro.sources.consent import ConsentRegistry

__all__ = ["RetentionFinding", "retention_violations", "purge_expired"]


@dataclass(frozen=True)
class RetentionFinding:
    """One row held past its subject's retention limit."""

    row_index: int
    subject: str
    recorded: datetime.date
    limit_days: int
    overdue_days: int

    def describe(self) -> str:
        return (
            f"row {self.row_index}: {self.subject!r} recorded {self.recorded} "
            f"exceeds {self.limit_days}-day retention by {self.overdue_days} day(s)"
        )


def _limit_for(
    consents: ConsentRegistry, subject: str, default_days: int | None
) -> int | None:
    consent = consents.for_patient(subject)
    if consent.retention_days is not None:
        return consent.retention_days
    return default_days


def retention_violations(
    table: Table,
    consents: ConsentRegistry,
    *,
    subject_column: str,
    date_column: str,
    as_of: datetime.date,
    default_days: int | None = None,
) -> list[RetentionFinding]:
    """Rows of ``table`` held longer than their subject's retention limit.

    ``default_days`` applies to subjects whose consent sets no limit
    (``None`` = unlimited by default). Rows with NULL subject or date are
    conservatively flagged when a default limit exists (unattributable data
    cannot prove it is still allowed).
    """
    subject_idx = table.schema.index_of(subject_column)
    date_idx = table.schema.index_of(date_column)
    findings: list[RetentionFinding] = []
    for i, row in enumerate(table.rows):
        subject = row[subject_idx]
        recorded = row[date_idx]
        if subject is None or recorded is None:
            if default_days is not None:
                findings.append(
                    RetentionFinding(
                        row_index=i,
                        subject=str(subject),
                        recorded=recorded or as_of,
                        limit_days=default_days,
                        overdue_days=0,
                    )
                )
            continue
        limit = _limit_for(consents, str(subject), default_days)
        if limit is None:
            continue
        age = (as_of - recorded).days
        if age > limit:
            findings.append(
                RetentionFinding(
                    row_index=i,
                    subject=str(subject),
                    recorded=recorded,
                    limit_days=limit,
                    overdue_days=age - limit,
                )
            )
    return findings


def purge_expired(
    table: Table,
    consents: ConsentRegistry,
    *,
    subject_column: str,
    date_column: str,
    as_of: datetime.date,
    default_days: int | None = None,
) -> tuple[Table, int]:
    """A copy of ``table`` without expired rows, plus the purge count."""
    if as_of is None:
        raise PolicyError("purge requires an explicit as_of date")
    expired = {
        f.row_index
        for f in retention_violations(
            table,
            consents,
            subject_column=subject_column,
            date_column=date_column,
            as_of=as_of,
            default_days=default_days,
        )
    }
    keep = [i for i in range(len(table)) if i not in expired]
    return table.take(keep), len(expired)
