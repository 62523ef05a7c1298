"""Report definitions and generated report instances.

A report is a named query over the warehouse (or over a meta-report view)
plus its *audience* (roles allowed to receive it) and declared purpose —
the unit on which §5's PLAs are elicited and checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ReproError
from repro.relational.query import Query
from repro.relational.table import Table

__all__ = ["ReportDefinition", "ReportInstance"]


@dataclass(frozen=True)
class ReportDefinition:
    """One report: query, audience, purpose, and version bookkeeping."""

    name: str
    title: str
    query: Query
    audience: frozenset[str]  # role names
    purpose: str
    description: str = ""
    version: int = 1
    #: Where this definition came from, for ingested reports: the suite
    #: file and 1-based line of the defining statement (``"reports.sql:12"``),
    #: empty for reports authored in-process. Diagnostics about ingested
    #: reports cite this so findings map back to the SQL the author owns.
    origin: str = ""
    #: The original SQL text of the defining statement, when ingested.
    #: Kept verbatim (pre-normalization) so audits can show exactly what
    #: was submitted, not our reconstruction of it.
    source_sql: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("report name must be non-empty")
        if not self.audience:
            raise ReproError(f"report {self.name!r} has an empty audience")

    def columns(self) -> tuple[str, ...] | None:
        """Output column names, if statically known."""
        return self.query.output_names()

    def with_query(self, query: Query) -> "ReportDefinition":
        """A new version of this report with a different query."""
        return replace(self, query=query, version=self.version + 1)

    def with_audience(self, audience: frozenset[str]) -> "ReportDefinition":
        """A new version with a different audience."""
        if not audience:
            raise ReproError(f"report {self.name!r} audience cannot become empty")
        return replace(self, audience=audience, version=self.version + 1)

    def describe(self) -> str:
        cols = self.columns()
        shown = ", ".join(cols) if cols else "*"
        return (
            f"{self.name} v{self.version} [{', '.join(sorted(self.audience))} / "
            f"{self.purpose}]: {shown}"
        )


@dataclass(frozen=True)
class ReportInstance:
    """A generated report: the definition that produced it plus its data.

    A *degraded* instance is the fail-closed answer to an unavailable
    source: the affected source's rows were dropped entirely (``degraded``
    set, the sources and fault cause recorded) — degradation only ever
    removes data, it never substitutes stale or unfiltered rows.
    """

    definition: ReportDefinition
    table: Table
    consumer: str  # user name of the information consumer
    suppressed_rows: int = 0  # removed after the query ran: thresholds, degradation
    obligations_applied: tuple[str, ...] = ()  # runtime enforcements discharged
    degraded: bool = False
    degraded_sources: tuple[str, ...] = ()  # provider/table identities dropped
    fault_cause: str = ""  # why delivery was degraded ("" when healthy)

    def __len__(self) -> int:
        return len(self.table)

    def summary(self) -> str:
        out = (
            f"{self.definition.name} v{self.definition.version} -> "
            f"{self.consumer}: {len(self.table)} rows"
            + (f" ({self.suppressed_rows} suppressed)" if self.suppressed_rows else "")
        )
        if self.degraded:
            out += f" DEGRADED[{', '.join(self.degraded_sources)}]"
        return out
