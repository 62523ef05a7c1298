"""The four PLA-engineering levels and their measurable trade-offs (Fig 5).

"...there is a continuum from the PLAs defined on the sources, data
warehouse, meta-reports, and reports, going at increasing levels of
simplicity and volatility of the PLA definitions."

Each level adapter answers the three questions FIG5 quantifies:

* **What must the owner review?** (:meth:`artifacts` → elicitation effort:
  Σ comprehension-weight × element count; weights encode the paper's
  experience that source schemas are the hardest artifacts to discuss and
  concrete reports the easiest.)
* **Does a report-evolution event invalidate the approvals?**
  (:meth:`covers_event` → stability; the meta-report level answers with an
  actual derivability check, the report level must re-elicit on almost
  every change, the source level almost never.)
* **Which requirement kinds are directly testable here?**
  (:attr:`testability` → precision; e.g. a source-level PLA cannot test a
  report aggregation threshold because reports are invisible from the
  source.)
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from repro.core.metareport import MetaReportSet
from repro.core.pla import PlaLevel
from repro.relational.catalog import Catalog
from repro.reports.definition import ReportDefinition
from repro.reports.evolution import EvolutionEvent, EvolutionKind
from repro.sources.provider import DataProvider

__all__ = [
    "ElicitationArtifact",
    "COMPREHENSION_WEIGHTS",
    "TESTABILITY",
    "EngineeringLevel",
    "SourceLevel",
    "WarehouseLevel",
    "MetaReportLevel",
    "ReportLevel",
]


@dataclass(frozen=True)
class ElicitationArtifact:
    """One thing the source owner must understand and annotate."""

    kind: str  # key into COMPREHENSION_WEIGHTS
    name: str
    n_elements: int  # columns / operators the owner must consider

    def effort(self) -> float:
        return COMPREHENSION_WEIGHTS[self.kind] * self.n_elements


#: Relative owner effort per schema element, by artifact kind. The ordering
#: (source ≫ ETL > warehouse > meta-report > report) encodes §3–§5's
#: experience: "the schema may be too complex", "the data warehouse is the
#: result of significant data processing and it may be difficult to present
#: and explain", versus reports where owners "see exactly which information
#: is shown to which user". Units are arbitrary "interaction units"; FIG5's
#: claims rest on ordering and ratios, not absolute values.
COMPREHENSION_WEIGHTS: dict[str, float] = {
    "source_table": 4.0,
    "etl_flow": 3.0,
    "warehouse_table": 2.5,
    "metareport": 1.5,
    "report": 1.0,
}

#: Which PLA requirement kinds each level can state as a *directly testable*
#: check (1.0), an approximate/partial check (0.5), or not at all (0.0).
TESTABILITY: dict[PlaLevel, dict[str, float]] = {
    PlaLevel.SOURCE: {
        "attribute_access": 1.0,
        # Reports are invisible from the source; group sizes cannot be tested.
        "aggregation_threshold": 0.0,
        "anonymization": 1.0,
        # Only joins within the owner's own tables are visible; cross-source
        # combinations happen downstream.
        "join_permission": 0.5,
        "integration_permission": 0.5,
        "intensional_condition": 1.0,
    },
    PlaLevel.WAREHOUSE: {
        "attribute_access": 1.0,
        # Cube-level floors are testable, but per-report grouping is not.
        "aggregation_threshold": 0.5,
        "anonymization": 1.0,
        "join_permission": 1.0,  # ETL joins are exactly what is annotated
        "integration_permission": 1.0,
        "intensional_condition": 1.0,
    },
    PlaLevel.METAREPORT: {
        "attribute_access": 1.0,
        "aggregation_threshold": 1.0,
        "anonymization": 1.0,
        "join_permission": 1.0,  # via the source-identity lineage map
        "integration_permission": 1.0,  # projected into the ETL registry
        "intensional_condition": 1.0,
    },
    PlaLevel.REPORT: {
        "attribute_access": 1.0,
        "aggregation_threshold": 1.0,
        "anonymization": 1.0,
        "join_permission": 1.0,
        # "Defining privacy on the reports does not make us exempt from
        # defining PLAs also based on how data is used during transformation."
        "integration_permission": 0.5,
        "intensional_condition": 1.0,
    },
}


class EngineeringLevel(abc.ABC):
    """Common protocol of the four level adapters."""

    level: PlaLevel

    @abc.abstractmethod
    def artifacts(self) -> list[ElicitationArtifact]:
        """What the owner must review to approve PLAs at this level."""

    @abc.abstractmethod
    def covers_event(self, event: EvolutionEvent) -> bool:
        """True if existing approvals survive ``event`` (no re-elicitation)."""

    @abc.abstractmethod
    def note_event(self, event: EvolutionEvent) -> None:
        """Record that ``event`` happened (and was re-elicited if needed)."""

    def reelicitation_artifacts(
        self, event: EvolutionEvent
    ) -> list[ElicitationArtifact]:
        """What the owner must re-review when ``event`` is not covered.

        The default is the incremental artifact the event touches; levels
        override where the granularity differs.
        """
        return [ElicitationArtifact(self._artifact_kind(), event.report, 1)]

    def _artifact_kind(self) -> str:
        return {
            PlaLevel.SOURCE: "source_table",
            PlaLevel.WAREHOUSE: "warehouse_table",
            PlaLevel.METAREPORT: "metareport",
            PlaLevel.REPORT: "report",
        }[self.level]

    def elicitation_effort(self) -> float:
        return sum(artifact.effort() for artifact in self.artifacts())

    def testability(self, kind: str) -> float:
        return TESTABILITY[self.level].get(kind, 0.0)

    def mean_testability(self, kinds: Sequence[str]) -> float:
        if not kinds:
            return 1.0
        return sum(self.testability(k) for k in kinds) / len(kinds)


class SourceLevel(EngineeringLevel):
    """PLAs on the source schemas (§3): stable, but costly and over-broad."""

    level = PlaLevel.SOURCE

    def __init__(self, providers: Sequence[DataProvider], catalog: Catalog) -> None:
        self.providers = list(providers)
        self.catalog = catalog

    def artifacts(self) -> list[ElicitationArtifact]:
        out = []
        for provider in self.providers:
            for table_name in provider.table_names():
                table = provider.table(table_name)
                out.append(
                    ElicitationArtifact(
                        kind="source_table",
                        name=f"{provider.name}/{table_name}",
                        n_elements=len(table.schema),
                    )
                )
        return out

    def covers_event(self, event: EvolutionEvent) -> bool:
        # Source PLAs quantify over all the source's data; report churn
        # never touches them. (A new *source table* would, but report
        # evolution events cannot introduce one.)
        return True

    def note_event(self, event: EvolutionEvent) -> None:  # pragma: no cover
        return None

    def over_engineering_ratio(
        self,
        workload: Sequence[ReportDefinition],
        reached_relations: frozenset[str] | set[str],
    ) -> float:
        """Fraction of elicited source columns no report ever uses.

        ``reached_relations`` is the set of ``provider/table`` identities in
        the lineage of the report workload (from
        :meth:`~repro.core.compliance.ComplianceChecker.source_footprint`).
        A source column counts as used only if its table is reached *and*
        some report reads a column of that name — §3's over-engineering is
        everything else the owner was asked to annotate anyway.
        """
        used_columns: set[str] = set()
        for report in workload:
            used_columns.update(self.catalog.input_names(report.query))
        total = 0
        used = 0
        for provider in self.providers:
            for table_name in provider.table_names():
                table = provider.table(table_name)
                total += len(table.schema)
                if f"{provider.name}/{table_name}" not in reached_relations:
                    continue
                used += sum(1 for c in table.schema.names if c in used_columns)
        if total == 0:
            return 0.0
        return 1.0 - used / total


class WarehouseLevel(EngineeringLevel):
    """PLAs on DWH tables and ETL flows (§4)."""

    level = PlaLevel.WAREHOUSE

    def __init__(
        self,
        warehouse_tables: Sequence[tuple[str, int]],  # (name, n_columns)
        etl_flows: Sequence[tuple[str, int]],  # (name, n_operators)
        warehouse_columns: frozenset[str],
        catalog: Catalog,
    ) -> None:
        self.warehouse_tables = list(warehouse_tables)
        self.etl_flows = list(etl_flows)
        self.warehouse_columns = warehouse_columns
        self.catalog = catalog

    def artifacts(self) -> list[ElicitationArtifact]:
        out = [
            ElicitationArtifact("warehouse_table", name, n)
            for name, n in self.warehouse_tables
        ]
        out.extend(
            ElicitationArtifact("etl_flow", name, n) for name, n in self.etl_flows
        )
        return out

    def covers_event(self, event: EvolutionEvent) -> bool:
        # Warehouse PLAs survive any report change that stays inside the
        # loaded schema. Only a column outside the warehouse (a new feed)
        # forces re-elicitation.
        if event.kind in (EvolutionKind.ADD_COLUMN, EvolutionKind.CHANGE_GROUPING):
            return event.column in self.warehouse_columns
        if event.kind is EvolutionKind.ADD_REPORT and event.definition is not None:
            used = self.catalog.input_names(event.definition.query)
            return used <= self.warehouse_columns
        return True

    def note_event(self, event: EvolutionEvent) -> None:
        # Re-elicitation at this level means extending the warehouse schema
        # approval with the new column.
        if event.column is not None:
            self.warehouse_columns = self.warehouse_columns | {event.column}
        if event.kind is EvolutionKind.ADD_REPORT and event.definition is not None:
            self.warehouse_columns = self.warehouse_columns | self.catalog.input_names(
                event.definition.query
            )

    def over_engineering_ratio(self, workload: Sequence[ReportDefinition]) -> float:
        """Fraction of warehouse (wide-view) columns the workload never
        touches — smaller than at the source because "the source owner can
        clearly see which data is used and in which form" (§4), but
        "reduced, yet not eliminated"."""
        used_columns: set[str] = set()
        for report in workload:
            used_columns.update(self.catalog.input_names(report.query))
        if not self.warehouse_columns:
            return 0.0
        used = len(used_columns & self.warehouse_columns)
        return max(0.0, 1.0 - used / len(self.warehouse_columns))


class MetaReportLevel(EngineeringLevel):
    """PLAs on meta-reports (§5) — the paper's proposal.

    Coverage follows the §5 lifecycle: a new/changed report is covered when
    it is derivable from an approved meta-report. When it is not, the
    re-elicitation session *extends* the best-matching meta-report with the
    missing columns (the owner approves the wider view), so subsequent
    reports over the same column combination are covered without a new
    interaction — this is how the meta-report set converges toward
    "minimal yet exhaustive".
    """

    level = PlaLevel.METAREPORT

    def __init__(self, metareports: MetaReportSet, catalog: Catalog) -> None:
        self.metareports = metareports
        self.catalog = catalog
        self._known_reports: dict[str, ReportDefinition] = {}
        # Approved extensions per meta-report, granted during re-elicitation.
        self._extensions: dict[str, set[str]] = {
            m.name: set() for m in metareports
        }

    def artifacts(self) -> list[ElicitationArtifact]:
        return [
            ElicitationArtifact(
                "metareport",
                m.name,
                len(m.columns()) + len(self._extensions.get(m.name, ())),
            )
            for m in self.metareports
        ]

    def register_workload(self, workload: Sequence[ReportDefinition]) -> None:
        for report in workload:
            self._known_reports[report.name] = report

    def _extended_columns(self, metareport_name: str) -> set[str]:
        metareport = self.metareports.get(metareport_name)
        return set(metareport.columns()) | self._extensions.get(metareport_name, set())

    def _updated_definition(self, event: EvolutionEvent) -> ReportDefinition | None:
        from repro.reports.catalog import ReportCatalog
        from repro.reports.evolution import apply_event

        shadow = ReportCatalog()
        for definition in self._known_reports.values():
            shadow.add(definition)
        return apply_event(shadow, event)

    def _is_covered(self, report: ReportDefinition) -> bool:
        covering, _ = self.metareports.find_covering(report, self.catalog)
        if covering is not None:
            return True
        used = self.catalog.input_names(report.query)
        return any(
            used <= self._extended_columns(m.name) for m in self.metareports
        )

    def covers_event(self, event: EvolutionEvent) -> bool:
        """Apply the event to a shadow definition, then check derivability."""
        try:
            updated = self._updated_definition(event)
        except Exception:
            return False
        if updated is None:  # DROP_REPORT shrinks exposure; always covered
            return True
        return self._is_covered(updated)

    def note_event(self, event: EvolutionEvent) -> None:
        try:
            updated = self._updated_definition(event)
        except Exception:
            return
        if event.kind is EvolutionKind.DROP_REPORT:
            self._known_reports.pop(event.report, None)
            return
        if updated is None:
            return
        self._known_reports[updated.name] = updated
        if not self._is_covered(updated):
            # Re-elicitation outcome: extend the best-overlapping meta-report
            # with the missing columns; the owner approves the wider view.
            used = self.catalog.input_names(updated.query)
            best = max(
                self.metareports,
                key=lambda m: len(used & self._extended_columns(m.name)),
            )
            self._extensions.setdefault(best.name, set()).update(
                used - self._extended_columns(best.name)
            )

    def reelicitation_artifacts(
        self, event: EvolutionEvent
    ) -> list[ElicitationArtifact]:
        # Re-elicitation at this level extends (or adds) a meta-report; the
        # owner reviews one meta-report-sized artifact, not every report.
        if len(self.metareports):
            avg_columns = max(
                1, self.metareports.total_columns() // len(self.metareports)
            )
        else:
            avg_columns = 1
        return [ElicitationArtifact("metareport", f"extend:{event.report}", avg_columns)]

    def over_engineering_ratio(self, workload: Sequence[ReportDefinition]) -> float:
        """Meta-report columns no workload report uses (near zero by
        construction — they were generated from the workload)."""
        used_columns: set[str] = set()
        for report in workload:
            used_columns.update(self.catalog.input_names(report.query))
        total = self.metareports.total_columns()
        if total == 0:
            return 0.0
        used = sum(
            1
            for metareport in self.metareports
            for column in metareport.columns()
            if column in used_columns
        )
        return max(0.0, 1.0 - used / total)


class ReportLevel(EngineeringLevel):
    """PLAs on each concrete report (§5's starting point)."""

    level = PlaLevel.REPORT

    def __init__(self, workload: Sequence[ReportDefinition]) -> None:
        self._reports: dict[str, ReportDefinition] = {
            report.name: report for report in workload
        }

    def artifacts(self) -> list[ElicitationArtifact]:
        out = []
        for report in self._reports.values():
            columns = report.columns()
            out.append(
                ElicitationArtifact(
                    "report", report.name, len(columns) if columns else 1
                )
            )
        return out

    def covers_event(self, event: EvolutionEvent) -> bool:
        # "collected requirements are defined on each specific report, thus
        # losing their validity with the evolution of the report" — every
        # change except a retirement needs a fresh owner interaction.
        return event.kind is EvolutionKind.DROP_REPORT

    def note_event(self, event: EvolutionEvent) -> None:
        if event.kind is EvolutionKind.DROP_REPORT:
            self._reports.pop(event.report, None)
        elif event.kind is EvolutionKind.ADD_REPORT and event.definition is not None:
            self._reports[event.definition.name] = event.definition

    def reelicitation_artifacts(
        self, event: EvolutionEvent
    ) -> list[ElicitationArtifact]:
        # The whole (new version of the) report goes back to the owner.
        if event.definition is not None:
            columns = event.definition.columns()
            size = len(columns) if columns else 1
        else:
            existing = self._reports.get(event.report)
            columns = existing.columns() if existing else None
            size = len(columns) if columns else 3
        return [ElicitationArtifact("report", event.report, size)]

    def over_engineering_ratio(self) -> float:
        """Zero by construction: "only the PLAs that are actually needed
        are specified" (§5)."""
        return 0.0
