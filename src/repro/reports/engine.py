"""Report generation with pluggable enforcement hooks.

The engine itself is policy-free: it runs the report query and packages the
instance. Enforcement points plug in as:

* **pre-checks** — called before execution with ``(definition, context)``;
  raising :class:`ComplianceError` blocks generation (this is where
  report-level PLA compliance verdicts attach);
* **row filters** — called per output row with ``(definition, row_dict,
  contributor_count)``; returning False suppresses the row (aggregation
  thresholds, intensional cell conditions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ComplianceError
from repro.obs import instrument
from repro.obs.trace import TRACER
from repro.policy.subjects import AccessContext
from repro.relational.catalog import Catalog
from repro.relational.engine import execute
from repro.relational.execconfig import ExecutionConfig
from repro.relational.table import Table
from repro.reports.definition import ReportDefinition, ReportInstance

__all__ = ["ReportEngine"]

PreCheck = Callable[[ReportDefinition, AccessContext], None]
RowFilter = Callable[[ReportDefinition, dict[str, Any], int], bool]


@dataclass
class ReportEngine:
    """Generates report instances from definitions over a catalog."""

    catalog: Catalog
    pre_checks: list[PreCheck] = field(default_factory=list)
    row_filters: list[RowFilter] = field(default_factory=list)
    config: ExecutionConfig | None = None  # None = process default

    def add_pre_check(self, check: PreCheck) -> None:
        self.pre_checks.append(check)

    def add_row_filter(self, row_filter: RowFilter) -> None:
        self.row_filters.append(row_filter)

    def generate(
        self, definition: ReportDefinition, context: AccessContext
    ) -> ReportInstance:
        """Generate a report for ``context``; audience is always enforced.

        When observability is on, emits a ``report.generate`` span and
        counts rows suppressed by row filters as report-level decisions.
        """
        if not TRACER.active():
            return self._generate(definition, context)
        with TRACER.span(
            "report.generate",
            {"report": definition.name, "consumer": context.user.name},
        ) as span:
            try:
                instance = self._generate(definition, context)
            except ComplianceError:
                instrument.record_decision(
                    instrument.LEVEL_REPORT, "deny", "audience"
                )
                raise
            instrument.record_decision(
                instrument.LEVEL_REPORT,
                "suppress_row",
                "row_filter",
                count=instance.suppressed_rows,
            )
            span.set_tag("suppressed_rows", instance.suppressed_rows)
            return instance

    def _generate(
        self, definition: ReportDefinition, context: AccessContext
    ) -> ReportInstance:
        if not any(context.user.has_role(role) for role in definition.audience):
            raise ComplianceError(
                f"user {context.user.name!r} is not in the audience of "
                f"report {definition.name!r} ({sorted(definition.audience)})"
            )
        for check in self.pre_checks:
            check(definition, context)
        table = execute(
            definition.query, self.catalog, name=definition.name, config=self.config
        )
        table, suppressed = self._apply_row_filters(definition, table)
        return ReportInstance(
            definition=definition,
            table=table,
            consumer=context.user.name,
            suppressed_rows=suppressed,
        )

    def _apply_row_filters(
        self, definition: ReportDefinition, table: Table
    ) -> tuple[Table, int]:
        if not self.row_filters:
            return table, 0
        keep: list[int] = []
        for i in range(len(table)):
            row = table.row_dict(i)
            contributors = len(table.lineage_of(i))
            if all(f(definition, row, contributors) for f in self.row_filters):
                keep.append(i)
        suppressed = len(table) - len(keep)
        if not suppressed:
            return table, 0
        return table.take(keep), suppressed
