"""Suite compiler: SQL files in → auditable catalog artifacts out.

:func:`ingest_suite` drives the whole front-end over a directory of
``.sql`` files: split → dialect-normalize → parse → resolve → static
lineage, producing an :class:`IngestResult` whose reports are ordinary
:class:`~repro.reports.definition.ReportDefinition`\\ s (each carrying its
``file:line`` origin and verbatim source SQL) and whose views — explicit
``CREATE VIEW``\\ s plus the synthetic views hoisted from CTEs and
FROM-subqueries — slot into the relational catalog like any hand-built
view.

Failure is per-statement and closed: a statement with any error-severity
ING diagnostic contributes *nothing* to the compiled outputs. There is no
"best effort" mode — an artifact that cannot be fully modeled cannot be
audited, so it must not silently enter the catalog.

:func:`emit_deployment` turns a clean ingest into a saved deployment
(``repro save`` layout) whose baseline is one synthesized universe
meta-report with an approved PLA, so ``repro lint --deployment`` and
``repro verify --deployment`` audit the ingested workload end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.dataflow import column_flows, qualified
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.errors import (
    AnalysisError,
    IngestError,
    ParseError,
    UnsupportedConstructError,
)
from repro.ingest.dialects import DIALECTS, Dialect, get_dialect
from repro.ingest.parser import (
    RawStatement,
    file_dialect,
    parse_one,
    split_statements,
)
from repro.ingest.resolve import resolve_query
from repro.relational.catalog import Catalog, View
from repro.relational.query import Query
from repro.reports.definition import ReportDefinition

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.scenario import Scenario

__all__ = ["IngestedStatement", "IngestResult", "ingest_suite", "emit_deployment"]

DEFAULT_AUDIENCE = ("analyst",)
DEFAULT_PURPOSE = "care/quality"


@dataclass
class IngestedStatement:
    """One suite statement and what became of it."""

    kind: str  # "view" | "report"
    name: str
    origin: str  # "file.sql:line"
    dialect: str
    ok: bool  # False = excluded by error-severity diagnostics
    source_sql: str = ""


@dataclass
class IngestResult:
    """Everything one suite ingestion produced."""

    reports: list[ReportDefinition] = field(default_factory=list)
    views: list[View] = field(default_factory=list)
    diagnostics: DiagnosticReport = field(default_factory=DiagnosticReport)
    #: Per-report static lineage: report name → output column → sorted
    #: base-column sources (the over-approximation ``repro verify``'s
    #: differential property checks against runtime where-provenance).
    lineage: dict[str, dict[str, list[str]]] = field(default_factory=dict)
    statements: list[IngestedStatement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no statement was excluded (no error diagnostics)."""
        return all(s.ok for s in self.statements)

    def summary(self) -> str:
        counts = self.diagnostics.counts()
        findings = (
            "clean"
            if self.diagnostics.clean
            else ", ".join(f"{n} {k}(s)" for k, n in counts.items() if n)
        )
        return (
            f"ingest[{len(self.statements)} statement(s)]: "
            f"{len(self.reports)} report(s), {len(self.views)} view(s); "
            f"{findings}"
        )

    def to_dict(self) -> dict:
        return {
            "summary": self.summary(),
            "statements": [
                {
                    "kind": s.kind,
                    "name": s.name,
                    "origin": s.origin,
                    "dialect": s.dialect,
                    "ok": s.ok,
                }
                for s in self.statements
            ],
            "reports": [r.name for r in self.reports],
            "views": [v.name for v in self.views],
            "lineage": self.lineage,
            "diagnostics": self.diagnostics.to_dict(order="source"),
        }


def _overlay_catalog(catalog: Catalog) -> Catalog:
    """A fresh catalog sharing the base tables and views of ``catalog``.

    Ingestion registers suite views here, leaving the caller's catalog
    untouched — a suite that fails halfway must not leak definitions into
    the deployment it was checked against.
    """
    overlay = Catalog()
    for name in catalog.table_names():
        overlay.add_table(catalog.table(name))
    for name in catalog.view_names():
        overlay.add_view(catalog.view(name))
    return overlay


def ingest_suite(
    directory: str | Path,
    *,
    catalog: Catalog,
    dialect: str | None = None,
) -> IngestResult:
    """Ingest every ``*.sql`` file under ``directory`` (sorted, non-recursive).

    ``dialect`` forces one dialect for the whole suite; otherwise each
    file's ``-- dialect:`` directive decides, defaulting to ``ansi``.
    """
    base = Path(directory)
    files = sorted(base.glob("*.sql"))
    if not files:
        raise IngestError(f"no .sql files under {base}")
    forced = get_dialect(dialect) if dialect is not None else None

    result = IngestResult()
    overlay = _overlay_catalog(catalog)
    taken_names: set[str] = set()
    baseline = _baseline_condition_sources(catalog)

    n_files = 0
    for path in files:
        n_files += 1
        text = path.read_text()
        file_diag = forced or _resolve_file_dialect(path, text, result)
        if file_diag is None:
            continue
        _ingest_file(path, text, file_diag, overlay, taken_names, baseline, result)

    result.diagnostics.coverage = {
        "files": n_files,
        "statements": len(result.statements),
        "reports": len(result.reports),
        "views": len(result.views),
    }
    return result


def _resolve_file_dialect(
    path: Path, text: str, result: IngestResult
) -> Dialect | None:
    name = file_dialect(text) or "ansi"
    if name not in DIALECTS:
        result.diagnostics.add(
            Diagnostic(
                code="ING005",
                severity=Severity.ERROR,
                location=f"suite:{path.name}",
                message=f"unknown dialect {name!r} in -- dialect: directive",
                fix_hint=f"expected one of {', '.join(sorted(DIALECTS))}",
            )
        )
        return None
    return DIALECTS[name]


def _baseline_condition_sources(catalog: Catalog) -> frozenset[tuple[str, str]]:
    """Base columns the deployment's own views already condition on.

    The star schema's wide views join fact to dimensions on surrogate keys;
    those keys show up as condition sources of *every* query over the
    warehouse. They are part of the approved structure, not something the
    ingested SQL chose to filter on, so ING007 subtracts them — the warning
    should name only predicates the suite introduced.
    """
    sources: set[tuple[str, str]] = set()
    for name in catalog.view_names():
        try:
            flow = column_flows(Query.from_(name), catalog)
        except AnalysisError:
            continue
        sources |= flow.condition_sources
    return frozenset(sources)


def _ingest_file(
    path: Path,
    text: str,
    dialect: Dialect,
    overlay: Catalog,
    taken_names: set[str],
    baseline: frozenset[tuple[str, str]],
    result: IngestResult,
) -> None:
    try:
        splits = split_statements(text, dialect)
    except ParseError as exc:
        line = exc.line or 1
        result.diagnostics.add(
            _parse_diagnostic(exc, f"suite:{path.name}:{line}")
        )
        return

    for index, split in enumerate(splits):
        line = 1 + text.count("\n", 0, split.start)
        location = f"suite:{path.name}:{line}"
        prefix = f"_{path.stem}_{index}"
        try:
            statement = parse_one(text, split, dialect, mangle_prefix=prefix)
        except ParseError as exc:
            result.diagnostics.add(_parse_diagnostic(exc, location))
            result.statements.append(
                IngestedStatement(
                    kind="report",
                    name="",
                    origin=f"{path.name}:{line}",
                    dialect=dialect.name,
                    ok=False,
                    source_sql=text[split.start : split.end].strip(),
                )
            )
            continue
        _compile_statement(
            statement, path, dialect, overlay, taken_names, baseline, result
        )


def _parse_diagnostic(exc: ParseError, location: str) -> Diagnostic:
    if isinstance(exc, UnsupportedConstructError):
        if exc.construct == "window function":
            return Diagnostic(
                code="ING010",
                severity=Severity.ERROR,
                location=location,
                message=str(exc),
                fix_hint="window functions are not modeled by static "
                "lineage yet; pre-compute the analytic column in a view "
                "the deployment approves",
            )
        return Diagnostic(
            code="ING004",
            severity=Severity.ERROR,
            location=location,
            message=str(exc),
            fix_hint="rewrite without the construct, or extend the "
            "ingestion grammar",
        )
    return Diagnostic(
        code="ING005",
        severity=Severity.ERROR,
        location=location,
        message=str(exc),
        fix_hint="fix the statement's syntax for the declared dialect",
    )


def _compile_statement(
    statement: RawStatement,
    path: Path,
    dialect: Dialect,
    overlay: Catalog,
    taken_names: set[str],
    baseline: frozenset[tuple[str, str]],
    result: IngestResult,
) -> None:
    origin = f"{path.name}:{statement.line}"
    location = f"suite:{origin}"
    name = statement.name or f"{path.stem}_{statement.line}"

    record = IngestedStatement(
        kind=statement.kind,
        name=name,
        origin=origin,
        dialect=dialect.name,
        ok=False,
        source_sql=statement.source_sql,
    )
    result.statements.append(record)

    for construct, detail in dict.fromkeys(
        (note.construct, note.detail) for note in statement.notes
    ):
        result.diagnostics.add(
            Diagnostic(
                code="ING006",
                severity=Severity.INFO,
                location=location,
                message=f"{construct}: {detail}",
            )
        )

    if name in taken_names or (statement.kind == "view" and name in overlay):
        result.diagnostics.add(
            Diagnostic(
                code="ING008",
                severity=Severity.ERROR,
                location=location,
                message=f"duplicate name {name!r}: already defined by this "
                "suite or the deployment catalog",
                fix_hint="rename the view/report",
            )
        )
        return

    # Resolve the hoisted synthetic views in definition order (inner before
    # outer), registering each in the overlay as we go so CTE chains see
    # each other, then the statement's main query.
    diagnostics: list[Diagnostic] = []
    added: list[View] = []
    for synth_name, synth_query in statement.synthetic_views:
        diagnostics.extend(resolve_query(synth_query, overlay, location=location))
        view = View(
            synth_name,
            synth_query,
            description=f"hoisted from {origin} ({dialect.name})",
        )
        overlay.add_view(view)
        added.append(view)
    diagnostics.extend(resolve_query(statement.query, overlay, location=location))

    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    result.diagnostics.extend(diagnostics)
    if errors:
        # Fail closed: withdraw the synthetic views; the statement
        # contributes nothing to the compiled catalog.
        for view in added:
            overlay.drop(view.name)
        return
    result.views.extend(added)

    # The lineage pass names columns as the engine does, so a view or
    # report it rejects would fail at execution.
    try:
        flow = column_flows(statement.query, overlay)
    except AnalysisError as exc:
        result.diagnostics.add(
            Diagnostic(
                code="ING002",
                severity=Severity.ERROR,
                location=location,
                message=f"lineage analysis rejected the statement: {exc}",
            )
        )
        return

    if statement.kind == "view":
        view = View(
            name,
            statement.query,
            description=f"ingested from {origin} ({dialect.name})",
        )
        overlay.add_view(view)
        result.views.append(view)
        taken_names.add(name)
        record.ok = True
        return

    output_sources: set[tuple[str, str]] = set()
    lineage: dict[str, list[str]] = {}
    for column, column_flow in flow.columns:
        lineage[column] = qualified(column_flow.sources)
        output_sources |= column_flow.sources
    widened = flow.condition_sources - output_sources - baseline
    if widened:
        result.diagnostics.add(
            Diagnostic(
                code="ING007",
                severity=Severity.WARNING,
                location=location,
                message="report's predicates disclose base columns its "
                f"outputs do not carry: {qualified(widened)}",
                fix_hint="row membership reveals these values; confirm the "
                "covering PLA permits filtering on them",
            )
        )

    audience = tuple(statement.directives.get("audience", "").split()) or (
        DEFAULT_AUDIENCE
    )
    definition = ReportDefinition(
        name=name,
        title=statement.directives.get("title", name),
        query=statement.query,
        audience=frozenset(audience),
        purpose=statement.directives.get("purpose", DEFAULT_PURPOSE),
        description=f"ingested from {origin} ({dialect.name} dialect)",
        origin=origin,
        source_sql=statement.source_sql,
    )
    result.reports.append(definition)
    result.lineage[name] = lineage
    taken_names.add(name)
    record.ok = True


def emit_deployment(
    result: IngestResult,
    out_dir: str | Path,
    *,
    scenario: "Scenario | None" = None,
) -> Path:
    """Save the ingested workload as a complete, auditable deployment.

    The deployment pairs the scenario's star schema with the suite's views
    and reports, baselined by one synthesized universe meta-report whose
    approved PLA carries the deployment's standing requirements (attribute
    access, pseudonymization, aggregation floors, join/integration
    permissions). Row-level intensional conditions are *not* synthesized —
    those belong to the source-level PLAs of the original owners, and
    inventing them here would claim approvals nobody gave.
    """
    from repro.core.annotations import (
        AnonymizationRequirement,
        AttributeAccess,
        IntensionalCondition,
    )
    from repro.core.metareport import MetaReport, MetaReportSet
    from repro.core.pla import PLA, PlaLevel, PlaRegistry
    from repro.persistence.store import save_deployment
    from repro.reports.catalog import ReportCatalog
    from repro.simulation.scenario import build_scenario, standard_annotations

    if scenario is None:
        scenario = build_scenario()

    catalog = _overlay_catalog(scenario.bi_catalog)
    for view in result.views:
        catalog.add_view(view, replace=True)

    universe = scenario.universe_name
    columns = tuple(scenario.wide_columns)
    metareport = MetaReport(
        name="mr_ingested_universe",
        query=Query.from_(universe).project(*columns),
        description="synthesized baseline for the ingested report suite",
    )
    kept = [
        a
        for a in standard_annotations(
            columns,
            aggregation_threshold=scenario.config.aggregation_threshold,
        )
        if not isinstance(a, IntensionalCondition)
    ]
    # Every exposed column needs an attribute-level annotation or lint's
    # PLA001 flags it as falling through the net. The suite's reports do
    # read these columns, so grant the BI roles access explicitly rather
    # than leaving the exposure implicit.
    covered = {
        a.attribute
        for a in kept
        if isinstance(a, (AttributeAccess, AnonymizationRequirement))
    }
    bi_roles = frozenset(
        {"analyst", "auditor", "health_director", "municipality_official"}
    )
    kept.extend(
        AttributeAccess(attribute=column, allowed_roles=bi_roles)
        for column in columns
        if column not in covered
    )
    annotations = tuple(kept)
    pla = PLA(
        name="pla_ingested_universe",
        owner="bi_provider",
        level=PlaLevel.METAREPORT,
        target=metareport.name,
        annotations=annotations,
    ).approved()
    registry = PlaRegistry()
    registry.add(pla)
    metareport.attach_pla(pla)
    metareports = MetaReportSet()
    metareports.add(metareport)
    metareports.register_views(catalog)

    reports = ReportCatalog()
    for definition in result.reports:
        reports.add(definition)

    return save_deployment(
        out_dir,
        catalog=catalog,
        metareports=metareports,
        plas=registry,
        reports=reports,
    )
