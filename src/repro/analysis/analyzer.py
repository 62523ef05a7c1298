"""The whole-catalog pass: sweep every artifact, aggregate diagnostics.

:class:`StaticAnalyzer` audits one deployment's complete state — relational
catalog, meta-report set with PLAs, report catalog, and ETL flows — without
executing a single query or operator. It stitches the other analysis
modules together:

* the dataflow pass classifies each meta-report/report column by the
  sensitivity of its base sources (taint lattice);
* the rule-set linter checks every approved PLA (PLA001–PLA004);
* the ETL linter checks flows and materialized lineage (ETL001, PLA005);
* the report sweep re-proves each catalog report as a view of an approved
  meta-report (RPT001) and flags identifier-copying detail reports
  (RPT002).

This is the paper's "testing before operation" made mechanical: the same
check CI runs on every catalog change, over everything at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.dataflow import column_flows, qualified
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.analysis.etl_lint import (
    lint_catalog_lineage,
    lint_flow,
    prohibited_pairs_of,
)
from repro.analysis.rules import lint_pla
from repro.analysis.taint import Sensitivity, SensitivityMap, healthcare_sensitivity
from repro.core.annotations import JoinPermission
from repro.core.metareport import MetaReportSet
from repro.errors import AnalysisError
from repro.etl.annotations import EtlPlaRegistry
from repro.etl.flow import EtlFlow
from repro.relational.catalog import Catalog
from repro.reports.catalog import ReportCatalog
from repro.reports.definition import ReportDefinition

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.scenario import Scenario

__all__ = ["AnalysisInput", "StaticAnalyzer", "analyze_scenario"]


@dataclass
class AnalysisInput:
    """Everything one analyzer run looks at. Only ``catalog`` is required."""

    catalog: Catalog
    metareports: MetaReportSet | None = None
    reports: ReportCatalog | None = None
    flows: tuple[EtlFlow, ...] = ()
    etl_registry: EtlPlaRegistry | None = None
    sensitivity: SensitivityMap = field(default_factory=healthcare_sensitivity)


class StaticAnalyzer:
    """Execution-free privacy analysis over one deployment's state."""

    def __init__(self, target: AnalysisInput) -> None:
        self.target = target

    @classmethod
    def for_scenario(cls, scenario: "Scenario") -> "StaticAnalyzer":
        """Analyzer over a built scenario, ETL registry projected from PLAs."""
        from repro.core.translation import to_etl_registry

        registry = to_etl_registry(
            [m.pla for m in scenario.metareports if m.pla is not None]
        )
        return cls(
            AnalysisInput(
                catalog=scenario.bi_catalog,
                metareports=scenario.metareports,
                reports=scenario.report_catalog,
                flows=(scenario.flow,),
                etl_registry=registry,
            )
        )

    # -- the sweep ----------------------------------------------------------

    def analyze(self) -> DiagnosticReport:
        report = DiagnosticReport()
        target = self.target
        prohibited = set(prohibited_pairs_of(target.etl_registry))
        prohibited |= set(self._pla_prohibited_pairs())
        pairs = tuple(sorted(prohibited, key=sorted))

        n_metareports = 0
        if target.metareports is not None:
            for metareport in target.metareports:
                n_metareports += 1
                report.extend(self._lint_metareport(metareport))

        n_reports = 0
        if target.reports is not None:
            for definition in target.reports.all_current():
                n_reports += 1
                report.extend(self._lint_report(definition))

        for flow in target.flows:
            report.extend(
                lint_flow(
                    flow,
                    registry=target.etl_registry,
                    catalog=target.catalog,
                    prohibited_pairs=pairs,
                )
            )
        report.extend(lint_catalog_lineage(target.catalog, pairs))

        report.coverage = {
            "metareports": n_metareports,
            "reports": n_reports,
            "flows": len(target.flows),
            "tables": len(target.catalog.table_names()),
        }
        return report

    # -- meta-report level ---------------------------------------------------

    def _pla_prohibited_pairs(self) -> tuple[frozenset[str], ...]:
        if self.target.metareports is None:
            return ()
        pairs = []
        for metareport in self.target.metareports:
            if metareport.pla is None:
                continue
            for annotation in metareport.pla.annotations:
                if isinstance(annotation, JoinPermission) and not annotation.allowed:
                    pairs.append(annotation.pair())
        return tuple(pairs)

    def _lint_metareport(self, metareport) -> list[Diagnostic]:
        location = f"metareport:{metareport.name}"
        if not metareport.approved:
            return [
                Diagnostic(
                    code="RPT001",
                    severity=Severity.WARNING,
                    location=location,
                    message=(
                        "meta-report has no approved PLA; it cannot serve as "
                        "a compliance baseline for any report"
                    ),
                    fix_hint="have the owner approve the PLA (or retire the view)",
                )
            ]
        assert metareport.pla is not None
        try:
            flow = column_flows(metareport.query, self.target.catalog)
        except AnalysisError as exc:
            return [
                Diagnostic(
                    code="PLA004",
                    severity=Severity.ERROR,
                    location=location,
                    message=f"meta-report query cannot be modeled: {exc}",
                    fix_hint="fix the meta-report definition against the catalog",
                )
            ]
        exposed = metareport.columns()
        sensitivity = {
            name: self.target.sensitivity.of_sources(
                qualified(flow.flow_of(name).sources)
            )
            for name in exposed
        }
        base_columns = self._base_columns_of(metareport.query.source)
        return lint_pla(
            metareport.pla,
            exposed_columns=exposed,
            column_sensitivity=sensitivity,
            base_columns=base_columns,
            location=location,
        )

    def _base_columns_of(self, relation: str) -> frozenset[str]:
        """Bare column names any relation under ``relation`` can supply."""
        catalog = self.target.catalog
        out: set[str] = set()
        if relation not in catalog:
            return frozenset()
        for base in catalog.base_relations(relation):
            out.update(catalog.table(base).schema.names)
        out.update(catalog.output_names(relation))
        return frozenset(out)

    # -- report level --------------------------------------------------------

    def _lint_report(self, definition: ReportDefinition) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        # Ingested reports carry their suite origin (file:line); citing it
        # maps findings back to the SQL statement the author owns.
        location = f"report:{definition.name}"
        if definition.origin:
            location += f"@{definition.origin}"
        if self.target.metareports is not None:
            covering, attempts = self.target.metareports.find_covering(
                definition, self.target.catalog
            )
            if covering is None:
                reasons = [r for a in attempts for r in a.reasons]
                closest = f" (closest: {reasons[0]})" if reasons else ""
                out.append(
                    Diagnostic(
                        code="RPT001",
                        severity=Severity.ERROR,
                        location=location,
                        message=(
                            "report is not derivable from any approved "
                            f"meta-report{closest}"
                        ),
                        fix_hint=(
                            "author the report over an approved meta-report "
                            "view, or run a new elicitation round"
                        ),
                    )
                )

        try:
            flow = column_flows(definition.query, self.target.catalog)
        except AnalysisError:
            # Underivable reports may reference unknown relations/columns;
            # RPT001 above already points at them.
            return out
        for column, column_flow in flow.columns:
            if column_flow.aggregated or not column_flow.copied:
                continue
            copied = qualified(column_flow.copied)
            if self.target.sensitivity.of_sources(copied) is Sensitivity.DIRECT:
                out.append(
                    Diagnostic(
                        code="RPT002",
                        severity=Severity.WARNING,
                        location=location,
                        message=(
                            f"detail report copies direct identifier "
                            f"{column!r} (from {copied}) into its output"
                        ),
                        fix_hint=(
                            "aggregate the report, or rely on an "
                            "anonymization annotation and verify it is "
                            "enforced at generation time"
                        ),
                    )
                )
        # RPT003 — filtering on a direct identifier discloses it even when
        # the column is projected away (membership in the result reveals the
        # identity tested for). condition_sources already excludes branches
        # the solver proved dead, so an unreachable identifier test does not
        # fire this.
        disclosed = {
            source
            for source in qualified(flow.condition_sources)
            if self.target.sensitivity.classify(source) is Sensitivity.DIRECT
        }
        exposed = qualified(
            source for _, column_flow in flow.columns
            if not column_flow.aggregated
            for source in column_flow.copied
        )
        for source in sorted(disclosed.difference(exposed)):
            out.append(
                Diagnostic(
                    code="RPT003",
                    severity=Severity.WARNING,
                    location=location,
                    message=(
                        f"report predicate filters on direct identifier "
                        f"{source!r}; row membership discloses it even "
                        "though it is projected away"
                    ),
                    fix_hint=(
                        "filter on a quasi-identifier or pseudonymized "
                        "column instead"
                    ),
                )
            )
        return out


def analyze_scenario(scenario: "Scenario") -> DiagnosticReport:
    """One-call sweep of a built scenario (the CLI's ``repro lint``)."""
    return StaticAnalyzer.for_scenario(scenario).analyze()
