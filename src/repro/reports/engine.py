"""Policy-free report generation: the report query, run for a member of its
audience. Fig 1's unprotected "rogue" provider and the audit tests use it as
the baseline; :class:`~repro.core.translation.ReportLevelEnforcer`
discharges PLA obligations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ComplianceError
from repro.obs import instrument
from repro.obs.trace import TRACER
from repro.policy.subjects import AccessContext
from repro.relational.catalog import Catalog
from repro.relational.engine import execute
from repro.relational.execconfig import ExecutionConfig
from repro.reports.definition import ReportDefinition, ReportInstance

__all__ = ["ReportEngine"]


@dataclass
class ReportEngine:
    """Generates report instances from definitions over a catalog."""

    catalog: Catalog
    config: ExecutionConfig | None = None  # None = process default

    def generate(
        self, definition: ReportDefinition, context: AccessContext
    ) -> ReportInstance:
        """Generate a report for ``context``; audience is always enforced.

        When observability is on, emits a ``report.generate`` span and
        counts an audience refusal as a report-level decision.
        """
        if not TRACER.active():
            return self._generate(definition, context)
        with TRACER.span(
            "report.generate",
            {"report": definition.name, "consumer": context.user.name},
        ):
            try:
                return self._generate(definition, context)
            except ComplianceError:
                instrument.record_decision(
                    instrument.LEVEL_REPORT, "deny", "audience"
                )
                raise

    def _generate(
        self, definition: ReportDefinition, context: AccessContext
    ) -> ReportInstance:
        if not any(context.user.has_role(role) for role in definition.audience):
            raise ComplianceError(
                f"user {context.user.name!r} is not in the audience of "
                f"report {definition.name!r} ({sorted(definition.audience)})"
            )
        table = execute(
            definition.query, self.catalog, name=definition.name, config=self.config
        )
        return ReportInstance(
            definition=definition, table=table, consumer=context.user.name
        )
