"""Tests for PLA → enforcement translation (the runtime obligation machinery)."""

import pytest

from repro.errors import ComplianceError, EnforcementError
from repro.anonymize import Pseudonymizer, zip_hierarchy
from repro.core import (
    PLA,
    AggregationThreshold,
    AnonymizationRequirement,
    ComplianceChecker,
    IntegrationPermission,
    IntensionalCondition,
    JoinPermission,
    MetaReport,
    MetaReportSet,
    PlaLevel,
    PlaRegistry,
    ReportLevelEnforcer,
    to_etl_registry,
    to_vpd_policy,
)
from repro.policy import SubjectRegistry
from repro.relational import Catalog, Query, Table, View, make_schema, parse_expression, parse_query
from repro.relational.types import ColumnType
from repro.reports import ReportDefinition

WIDE = ("patient", "drug", "disease", "doctor", "cost")


@pytest.fixture
def setup():
    cat = Catalog()
    schema = make_schema(
        ("patient", ColumnType.STRING),
        ("drug", ColumnType.STRING),
        ("disease", ColumnType.STRING),
        ("doctor", ColumnType.STRING),
        ("cost", ColumnType.INT),
    )
    rows = [
        ("Alice", "DH", "HIV", "Luis", 60),
        ("Chris", "DV", "HIV", "Anne", 30),
        ("Bob", "DR", "asthma", "Anne", 10),
        ("Math", "DM", "diabetes", "Mark", 10),
        ("Alice", "DR", "asthma", "Luis", 10),
        ("Bob", "DR", "asthma", "Anne", 10),
    ]
    cat.add_table(Table.from_rows("base", schema, rows, provider="hospital"))
    cat.add_view(View("wide", Query.from_("base").project(*WIDE)))

    mrs = MetaReportSet()
    mr = MetaReport("mr_0", Query.from_("wide").project(*WIDE))
    registry = PlaRegistry()
    pla = PLA(
        "pla",
        "hospital",
        PlaLevel.METAREPORT,
        "mr_0",
        (
            AggregationThreshold(2),
            AnonymizationRequirement("patient", "pseudonymize"),
            IntensionalCondition(
                "disease", parse_expression("disease != 'HIV'"), "suppress_row"
            ),
        ),
    )
    registry.add(pla)
    mr.attach_pla(registry.approve("pla"))
    mrs.add(mr)
    mrs.register_views(cat)

    checker = ComplianceChecker(catalog=cat, metareports=mrs)
    enforcer = ReportLevelEnforcer(
        catalog=cat,
        pseudonymizer=Pseudonymizer(salt="s"),
        hierarchies={"zip": zip_hierarchy()},
    )
    subjects = SubjectRegistry()
    subjects.purposes.declare("care")
    subjects.add_role("analyst")
    subjects.add_user("ann", "analyst")
    return cat, checker, enforcer, subjects


def rpt(sql, name="r", audience=frozenset({"analyst"})):
    return ReportDefinition(
        name=name, title=name, query=parse_query(sql),
        audience=audience, purpose="care",
    )


class TestEnforcer:
    def test_threshold_suppression_via_lineage(self, setup):
        cat, checker, enforcer, subjects = setup
        report = rpt("SELECT drug, COUNT(*) AS n FROM wide GROUP BY drug")
        verdict = checker.check_report(report)
        assert verdict.compliant
        instance = enforcer.generate(report, subjects.context("ann", "care"), verdict)
        # HIV rows dropped pre-aggregation (intensional suppress_row),
        # then groups with <2 contributors suppressed: DR=3 survives, DM=1 no.
        assert dict(instance.table.rows) == {"DR": 3}
        assert instance.suppressed_rows == 1

    def test_anonymization_applied(self, setup):
        cat, checker, enforcer, subjects = setup
        report = rpt(
            "SELECT patient, COUNT(*) AS n FROM wide GROUP BY patient"
        )
        verdict = checker.check_report(report)
        if not verdict.compliant:  # audience may be blocked by access rules
            pytest.skip("scenario PLA forbids this audience")
        instance = enforcer.generate(report, subjects.context("ann", "care"), verdict)
        assert all(
            str(v).startswith("anon-") for v in instance.table.column_values("patient")
        )

    def test_non_compliant_verdict_raises(self, setup):
        cat, checker, enforcer, subjects = setup
        report = rpt("SELECT patient, drug FROM wide")  # record-level
        verdict = checker.check_report(report)
        assert not verdict.compliant
        with pytest.raises(ComplianceError):
            enforcer.generate(report, subjects.context("ann", "care"), verdict)

    def test_verdict_version_mismatch_rejected(self, setup):
        cat, checker, enforcer, subjects = setup
        report = rpt("SELECT drug, COUNT(*) AS n FROM wide GROUP BY drug")
        verdict = checker.check_report(report)
        evolved = report.with_query(report.query)
        with pytest.raises(ComplianceError):
            enforcer.generate(evolved, subjects.context("ann", "care"), verdict)

    def test_audience_enforced_at_generation(self, setup):
        cat, checker, enforcer, subjects = setup
        subjects.add_role("guest")
        subjects.add_user("gus", "guest")
        report = rpt("SELECT drug, COUNT(*) AS n FROM wide GROUP BY drug")
        verdict = checker.check_report(report)
        with pytest.raises(ComplianceError):
            enforcer.generate(report, subjects.context("gus", "care"), verdict)

    def test_obligations_recorded_on_instance(self, setup):
        cat, checker, enforcer, subjects = setup
        report = rpt("SELECT drug, COUNT(*) AS n FROM wide GROUP BY drug")
        verdict = checker.check_report(report)
        instance = enforcer.generate(report, subjects.context("ann", "care"), verdict)
        assert len(instance.obligations_applied) == len(verdict.obligations)


class TestHiddenColumns:
    def test_cell_blanking_with_hidden_condition_column(self):
        """The paper's §5 example: exam results blanked for HIV patients,
        with HIV status carried as a hidden column."""
        cat = Catalog()
        schema = make_schema(
            ("patient", ColumnType.STRING),
            ("result", ColumnType.STRING),
            ("disease", ColumnType.STRING),
        )
        rows = [
            ("Alice", "positive", "HIV"),
            ("Bob", "normal", "asthma"),
        ]
        cat.add_table(Table.from_rows("exams", schema, rows, provider="lab"))
        cat.add_view(
            View("wide", Query.from_("exams").project("patient", "result", "disease"))
        )
        mrs = MetaReportSet()
        mr = MetaReport("mr", Query.from_("wide").project("patient", "result", "disease"))
        registry = PlaRegistry()
        pla = PLA(
            "p", "lab", PlaLevel.METAREPORT, "mr",
            (
                IntensionalCondition(
                    "result", parse_expression("disease != 'HIV'"), "suppress_cell"
                ),
            ),
        )
        registry.add(pla)
        mr.attach_pla(registry.approve("p"))
        mrs.add(mr)
        mrs.register_views(cat)
        checker = ComplianceChecker(catalog=cat, metareports=mrs)
        enforcer = ReportLevelEnforcer(catalog=cat)
        subjects = SubjectRegistry()
        subjects.purposes.declare("care")
        subjects.add_role("analyst")
        subjects.add_user("ann", "analyst")

        # The report shows patient+result but NOT disease.
        report = ReportDefinition(
            name="exam_report", title="t",
            query=parse_query("SELECT patient, result FROM wide"),
            audience=frozenset({"analyst"}), purpose="care",
        )
        verdict = checker.check_report(report)
        assert verdict.compliant
        instance = enforcer.generate(report, subjects.context("ann", "care"), verdict)
        # the hidden condition column is never delivered
        assert instance.table.schema.names == ("patient", "result")
        by_patient = {r["patient"]: r["result"] for r in instance.table.iter_dicts()}
        assert by_patient == {"Alice": None, "Bob": "normal"}

    def test_hidden_condition_column_behind_a_join_view(self):
        """``disease`` lives in ``patients``, joined into ``jv``, and
        ``result`` in ``exams``. ``jv`` hides ``disease``, so the condition
        cannot be traced from ``mr``; it would read another base table than
        the attribute anyway. The delivery is refused with a typed error
        naming the clause."""
        cat = Catalog()
        exams = make_schema(("k", ColumnType.INT), ("result", ColumnType.STRING))
        patients = make_schema(("k2", ColumnType.INT), ("disease", ColumnType.STRING))
        cat.add_table(
            Table.from_rows(
                "exams", exams, [(1, "positive"), (2, "normal")], provider="lab"
            )
        )
        cat.add_table(
            Table.from_rows(
                "patients", patients, [(1, "HIV"), (2, "asthma")], provider="hosp"
            )
        )
        jv = parse_query("SELECT k, result FROM exams JOIN patients ON k = k2")
        cat.add_view(View("jv", jv))
        registry = PlaRegistry()
        registry.add(
            PLA(
                "p", "lab", PlaLevel.METAREPORT, "mr",
                (
                    IntensionalCondition(
                        "result", parse_expression("disease != 'HIV'"), "suppress_cell"
                    ),
                ),
            )
        )
        mr = MetaReport("mr", parse_query("SELECT k, result FROM jv"))
        mr.attach_pla(registry.approve("p"))
        mrs = MetaReportSet()
        mrs.add(mr)
        mrs.register_views(cat)
        subjects = SubjectRegistry()
        subjects.purposes.declare("care")
        subjects.add_role("analyst")
        subjects.add_user("ann", "analyst")
        report = ReportDefinition(
            name="jv_report", title="t",
            query=parse_query("SELECT k, result FROM jv"),
            audience=frozenset({"analyst"}), purpose="care",
        )
        verdict = ComplianceChecker(catalog=cat, metareports=mrs).check_report(report)
        assert verdict.compliant and verdict.covering_metareport == "mr"
        with pytest.raises(EnforcementError, match="unknown column 'disease'") as refused:
            ReportLevelEnforcer(catalog=cat).generate(
                report, subjects.context("ann", "care"), verdict
            )
        assert "[attribute 'result' shown only where" in str(refused.value)


class TestCrossLayerProjection:
    def _plas(self):
        return [
            PLA(
                "p1", "municipality", PlaLevel.METAREPORT, "mr",
                (
                    JoinPermission("municipality/residents", "lab/exams", False),
                    IntegrationPermission("municipality", False),
                    JoinPermission("a/x", "b/y", True),  # allowed: no constraint
                ),
            )
        ]

    def test_to_etl_registry(self):
        registry = to_etl_registry(self._plas())
        names = [c.name for c in registry.constraints]
        assert len(names) == 2  # prohibition + integration; allowed join skipped

    def test_to_vpd_policy(self):
        plas = [
            PLA(
                "p2", "hospital", PlaLevel.SOURCE, "prescriptions",
                (
                    IntensionalCondition(
                        "disease", parse_expression("disease != 'HIV'"), "suppress_row"
                    ),
                    AnonymizationRequirement("doctor", "suppress"),
                ),
            )
        ]
        policy = to_vpd_policy(plas)
        rule = policy.rules["prescriptions"]
        assert rule.predicate is not None
        assert [m.column for m in rule.masks] == ["doctor"]

    def test_missing_pseudonymizer_raises(self):
        cat = Catalog()
        schema = make_schema(("patient", ColumnType.STRING))
        cat.add_table(Table.from_rows("t", schema, [("A",)], provider="p"))
        enforcer = ReportLevelEnforcer(catalog=cat)  # no pseudonymizer
        table = cat.table("t")
        with pytest.raises(EnforcementError):
            enforcer._apply_anonymization(
                table, [AnonymizationRequirement("patient", "pseudonymize")]
            )


    def test_condition_on_joined_column_of_star_join_view(self):
        """A ``SELECT *`` view over a join exposes the joined table's
        columns, so a condition on one of them passes the compliance check;
        blanking ``exams.result`` by ``patients.disease`` is then refused
        with a typed error naming the clause."""
        cat = Catalog()
        cat.add_table(
            Table.from_rows(
                "exams",
                make_schema(("k", ColumnType.INT), ("result", ColumnType.STRING)),
                [(1, "positive"), (2, "normal")],
                provider="lab",
            )
        )
        cat.add_table(
            Table.from_rows(
                "patients",
                make_schema(("k2", ColumnType.INT), ("disease", ColumnType.STRING)),
                [(1, "HIV"), (2, "asthma")],
                provider="hospital",
            )
        )
        cat.add_view(View("jv", Query.from_("exams").join("patients", [("k", "k2")])))
        mrs = MetaReportSet()
        mr = MetaReport("mr", Query.from_("jv").project("k", "result", "disease"))
        registry = PlaRegistry()
        registry.add(
            PLA(
                "p", "lab", PlaLevel.METAREPORT, "mr",
                (
                    IntensionalCondition(
                        "result", parse_expression("disease != 'HIV'"), "suppress_cell"
                    ),
                ),
            )
        )
        mr.attach_pla(registry.approve("p"))
        mrs.add(mr)
        mrs.register_views(cat)
        checker = ComplianceChecker(catalog=cat, metareports=mrs)
        enforcer = ReportLevelEnforcer(catalog=cat)
        subjects = SubjectRegistry()
        subjects.purposes.declare("care")
        subjects.add_role("analyst")
        subjects.add_user("ann", "analyst")

        report = rpt("SELECT k, result FROM jv")
        verdict = checker.check_report(report)
        assert verdict.compliant
        with pytest.raises(EnforcementError, match="reads 2 base tables") as refused:
            enforcer.generate(report, subjects.context("ann", "care"), verdict)
        assert "[attribute 'result' shown only where" in str(refused.value)


class TestExtensionViewReuse:
    def test_repeat_deliveries_keep_the_catalog_and_its_caches_warm(self):
        """A report over a meta-report that hides its suppress_row column
        runs with the base table guarded, through no view of its own: a
        delivery performs no catalog DDL (it runs under the daemon's read
        lock, and DDL would evict every cached plan and re-key every verdict
        over the catalog), and repeat deliveries hit both caches."""
        from repro.relational.execconfig import get_default_config
        from repro.simulation import build_scenario

        scenario = build_scenario()
        scenario.report_catalog.add(
            ReportDefinition(
                name="drugs_over_mr_1",
                title="drugs over mr_1",
                query=parse_query(
                    "SELECT drug, COUNT(*) AS n FROM mr_1 GROUP BY drug"
                ),
                audience=frozenset({"analyst"}),
                purpose="care/quality",
            )
        )
        service = scenario.delivery_service()
        catalog = scenario.bi_catalog
        # The row reference (REPRO_ENGINE_MODE=row) executes uncached.
        plans = get_default_config().effective_plan_cache()

        ddl_version = catalog.ddl_version
        views = catalog.view_names()
        service.deliver("drugs_over_mr_1", user="ann", purpose="care/quality")
        assert catalog.view_names() == views  # mr_1 hides ``disease``
        service.deliver("rpt_010", user="ann", purpose="research/epidemiology")
        for _ in range(3):
            service.deliver("drugs_over_mr_1", user="ann", purpose="care/quality")
            plan_hits = plans.stats.hits if plans is not None else 0
            verdict_hits = scenario.checker.cache_stats()["hits"]
            service.deliver("rpt_010", user="ann", purpose="research/epidemiology")
            if plans is not None:
                assert plans.stats.hits == plan_hits + 1
            assert scenario.checker.cache_stats()["hits"] == verdict_hits + 1
        assert catalog.ddl_version == ddl_version
