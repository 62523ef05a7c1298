"""Unit tests for report definitions, engine, catalog, and evolution."""

import pytest

from repro.errors import ComplianceError, ReproError
from repro.policy import SubjectRegistry
from repro.relational import Query, parse_expression, parse_query
from repro.relational.algebra import AggSpec
from repro.reports import (
    EvolutionEvent,
    EvolutionKind,
    ReportCatalog,
    ReportDefinition,
    ReportEngine,
    apply_event,
)


def drug_report(name="drug_consumption", version=1):
    return ReportDefinition(
        name=name,
        title="Drug consumption",
        query=parse_query(
            "SELECT drug, COUNT(*) AS consumption FROM prescriptions GROUP BY drug"
        ),
        audience=frozenset({"analyst"}),
        purpose="care/quality",
        version=version,
    )


@pytest.fixture
def subjects():
    reg = SubjectRegistry()
    reg.purposes.declare("care/quality")
    reg.add_role("analyst")
    reg.add_role("guest")
    reg.add_user("ann", "analyst")
    reg.add_user("gus", "guest")
    return reg


class TestDefinition:
    def test_columns(self):
        assert drug_report().columns() == ("drug", "consumption")

    def test_empty_audience_rejected(self):
        with pytest.raises(ReproError):
            ReportDefinition(
                name="r", title="t", query=Query.from_("x"),
                audience=frozenset(), purpose="p",
            )

    def test_with_query_bumps_version(self):
        report = drug_report()
        updated = report.with_query(report.query.limit(5))
        assert updated.version == 2 and report.version == 1

    def test_with_audience(self):
        updated = drug_report().with_audience(frozenset({"guest"}))
        assert updated.audience == frozenset({"guest"})
        with pytest.raises(ReproError):
            drug_report().with_audience(frozenset())


class TestEngine:
    def test_generates_for_audience_member(self, paper_catalog, subjects):
        engine = ReportEngine(paper_catalog)
        instance = engine.generate(
            drug_report(), subjects.context("ann", "care/quality")
        )
        assert len(instance) == 4
        assert instance.consumer == "ann"

    def test_rejects_non_audience(self, paper_catalog, subjects):
        engine = ReportEngine(paper_catalog)
        with pytest.raises(ComplianceError):
            engine.generate(drug_report(), subjects.context("gus", "care/quality"))


class TestCatalog:
    def test_add_update_history(self):
        catalog = ReportCatalog()
        catalog.add(drug_report())
        catalog.update(drug_report(version=2))
        assert catalog.current("drug_consumption").version == 2
        assert len(catalog.history("drug_consumption")) == 2
        assert catalog.total_versions() == 2

    def test_add_existing_rejected(self):
        catalog = ReportCatalog()
        catalog.add(drug_report())
        with pytest.raises(ReproError):
            catalog.add(drug_report())

    def test_update_requires_existing_and_newer_version(self):
        catalog = ReportCatalog()
        with pytest.raises(ReproError):
            catalog.update(drug_report(version=2))
        catalog.add(drug_report())
        with pytest.raises(ReproError):
            catalog.update(drug_report(version=1))

    def test_drop_keeps_history(self):
        catalog = ReportCatalog()
        catalog.add(drug_report())
        catalog.drop("drug_consumption")
        assert "drug_consumption" not in catalog
        assert len(catalog.history("drug_consumption")) == 1
        with pytest.raises(ReproError):
            catalog.current("drug_consumption")

    def test_readd_after_drop(self):
        catalog = ReportCatalog()
        catalog.add(drug_report())
        catalog.drop("drug_consumption")
        catalog.add(drug_report())
        assert "drug_consumption" in catalog

    def test_names_and_all_current(self):
        catalog = ReportCatalog()
        catalog.add(drug_report("b"))
        catalog.add(drug_report("a"))
        assert catalog.names() == ("a", "b")
        assert len(catalog.all_current()) == 2


class TestEvolution:
    def _catalog(self):
        catalog = ReportCatalog()
        catalog.add(drug_report())
        return catalog

    def test_add_report_event(self):
        catalog = self._catalog()
        event = EvolutionEvent(
            kind=EvolutionKind.ADD_REPORT,
            report="new",
            definition=drug_report("new"),
        )
        out = apply_event(catalog, event)
        assert out is not None and "new" in catalog

    def test_add_column_to_aggregate_groups_by_it(self):
        catalog = self._catalog()
        event = EvolutionEvent(
            kind=EvolutionKind.ADD_COLUMN, report="drug_consumption", column="disease"
        )
        out = apply_event(catalog, event)
        assert out is not None
        assert "disease" in out.query.group_by
        assert out.version == 2

    def test_remove_column(self):
        catalog = self._catalog()
        apply_event(
            catalog,
            EvolutionEvent(
                kind=EvolutionKind.ADD_COLUMN,
                report="drug_consumption",
                column="disease",
            ),
        )
        out = apply_event(
            catalog,
            EvolutionEvent(
                kind=EvolutionKind.REMOVE_COLUMN,
                report="drug_consumption",
                column="disease",
            ),
        )
        assert out is not None and "disease" not in out.query.group_by

    def test_change_filter_replaces_where(self):
        catalog = self._catalog()
        out = apply_event(
            catalog,
            EvolutionEvent(
                kind=EvolutionKind.CHANGE_FILTER,
                report="drug_consumption",
                predicate=parse_expression("disease != 'HIV'"),
            ),
        )
        assert out is not None and "HIV" in str(out.query.where)

    def test_change_grouping_requires_aggregate(self):
        catalog = ReportCatalog()
        catalog.add(
            ReportDefinition(
                name="detail",
                title="d",
                query=parse_query("SELECT patient FROM prescriptions"),
                audience=frozenset({"analyst"}),
                purpose="p",
            )
        )
        with pytest.raises(ReproError):
            apply_event(
                catalog,
                EvolutionEvent(
                    kind=EvolutionKind.CHANGE_GROUPING, report="detail", column="drug"
                ),
            )

    def test_change_audience(self):
        catalog = self._catalog()
        out = apply_event(
            catalog,
            EvolutionEvent(
                kind=EvolutionKind.CHANGE_AUDIENCE,
                report="drug_consumption",
                audience=frozenset({"guest"}),
            ),
        )
        assert out is not None and out.audience == frozenset({"guest"})

    def test_drop_event(self):
        catalog = self._catalog()
        out = apply_event(
            catalog,
            EvolutionEvent(kind=EvolutionKind.DROP_REPORT, report="drug_consumption"),
        )
        assert out is None and "drug_consumption" not in catalog

    def test_missing_payload_rejected(self):
        catalog = self._catalog()
        with pytest.raises(ReproError):
            apply_event(
                catalog,
                EvolutionEvent(kind=EvolutionKind.ADD_COLUMN, report="drug_consumption"),
            )

    def test_evolved_aggregate_still_executes(self, paper_catalog):
        catalog = self._catalog()
        out = apply_event(
            catalog,
            EvolutionEvent(
                kind=EvolutionKind.ADD_COLUMN,
                report="drug_consumption",
                column="disease",
            ),
        )
        from repro.relational import execute

        table = execute(out.query, paper_catalog)
        assert set(table.schema.names) == {"disease", "drug", "consumption"}
