"""Unit tests for predicate implication, derivability, and CQ containment."""

import pytest

from repro.core import (
    NotConjunctive,
    canonicalize,
    check_derivability,
    is_contained,
    predicate_implies,
    source_columns_used,
)
from repro.relational import (
    Catalog,
    Query,
    Table,
    View,
    make_schema,
    parse_expression,
    parse_query,
)
from repro.relational.algebra import AggSpec
from repro.relational.types import ColumnType


def P(text):
    return parse_expression(text)


class TestPredicateImplies:
    def test_none_is_true(self):
        assert predicate_implies(P("a > 1"), None)
        assert not predicate_implies(None, P("a > 1"))

    def test_interval_reasoning(self):
        assert predicate_implies(P("a > 10"), P("a > 5"))
        assert predicate_implies(P("a >= 10"), P("a > 5"))
        assert not predicate_implies(P("a > 5"), P("a > 10"))
        assert predicate_implies(P("a > 10"), P("a >= 10"))
        assert not predicate_implies(P("a >= 10"), P("a > 10"))
        assert predicate_implies(P("a < 3"), P("a <= 3"))

    def test_equality(self):
        assert predicate_implies(P("a = 5"), P("a > 1"))
        assert predicate_implies(P("a = 5"), P("a != 6"))
        assert predicate_implies(P("a = 5"), P("a = 5"))
        assert not predicate_implies(P("a > 1"), P("a = 5"))

    def test_in_sets(self):
        assert predicate_implies(P("a IN (1, 2)"), P("a IN (1, 2, 3)"))
        assert not predicate_implies(P("a IN (1, 4)"), P("a IN (1, 2, 3)"))
        assert predicate_implies(P("a = 2"), P("a IN (1, 2)"))
        assert predicate_implies(P("a IN (5, 6)"), P("a > 4"))

    def test_not_equal(self):
        assert predicate_implies(P("a = 'x'"), P("a != 'y'"))
        assert predicate_implies(P("a != 'y' AND a > 0"), P("a != 'y'"))
        assert not predicate_implies(P("a > 0"), P("a != 5"))
        assert predicate_implies(P("a > 10"), P("a != 5"))
        assert predicate_implies(P("a < 3"), P("a != 5"))

    def test_multi_column(self):
        assert predicate_implies(
            P("a > 10 AND b = 'x'"), P("a > 5 AND b != 'y'")
        )
        assert not predicate_implies(P("a > 10"), P("a > 5 AND b = 'x'"))

    def test_not_null(self):
        assert predicate_implies(P("a IS NOT NULL"), P("a IS NOT NULL"))
        assert predicate_implies(P("a > 1"), P("a IS NOT NULL"))
        assert not predicate_implies(None, P("a IS NOT NULL"))

    def test_non_conjunctive_falls_back_to_syntactic(self):
        disj = P("a > 1 OR b > 2")
        assert predicate_implies(disj, disj)  # verbatim conjunct match
        assert not predicate_implies(disj, P("a > 1"))
        assert predicate_implies(P("(a > 1 OR b > 2) AND c = 3"), disj)


@pytest.fixture
def cq_catalog():
    cat = Catalog()
    presc = make_schema(
        ("patient", ColumnType.STRING),
        ("drug", ColumnType.STRING),
        ("disease", ColumnType.STRING),
        ("cost", ColumnType.INT),
    )
    cost = make_schema(("drug", ColumnType.STRING), ("price", ColumnType.INT))
    cat.add_table(Table.from_rows("presc", presc, [], provider="h"))
    cat.add_table(Table.from_rows("dcost", cost, [], provider="a"))
    return cat


class TestCanonicalize:
    def test_atoms_and_head(self, cq_catalog):
        q = parse_query("SELECT patient FROM presc WHERE drug = 'DH'")
        c = canonicalize(q, cq_catalog)
        assert len(c.atoms) == 1 and c.atoms[0].relation == "presc"
        assert set(c.head) == {"patient"}
        assert len(c.where.columns()) == 1

    def test_join_merges_variables(self, cq_catalog):
        q = parse_query("SELECT patient FROM presc JOIN dcost ON drug = drug")
        c = canonicalize(q, cq_catalog)
        presc_drug = c.atoms[0].variables[1]
        dcost_drug = c.atoms[1].variables[0]
        assert presc_drug == dcost_drug

    def test_var_var_equality_in_where(self, cq_catalog):
        q = parse_query(
            "SELECT patient FROM presc JOIN dcost ON drug = drug WHERE cost = price"
        )
        c = canonicalize(q, cq_catalog)
        assert c.atoms[0].variables[3] == c.atoms[1].variables[1]

    def test_aggregates_rejected(self, cq_catalog):
        q = parse_query("SELECT drug, COUNT(*) AS n FROM presc GROUP BY drug")
        with pytest.raises(NotConjunctive):
            canonicalize(q, cq_catalog)

    def test_views_rejected(self, cq_catalog):
        cq_catalog.add_view(View("v", parse_query("SELECT patient FROM presc")))
        with pytest.raises(NotConjunctive):
            canonicalize(parse_query("SELECT patient FROM v"), cq_catalog)

    def test_disjunction_rejected(self, cq_catalog):
        q = parse_query("SELECT patient FROM presc WHERE drug = 'a' OR drug = 'b'")
        with pytest.raises(NotConjunctive):
            canonicalize(q, cq_catalog)


class TestIsContained:
    def test_stricter_filter_contained(self, cq_catalog):
        q1 = parse_query("SELECT patient FROM presc WHERE cost > 20")
        q2 = parse_query("SELECT patient FROM presc WHERE cost > 10")
        assert is_contained(q1, q2, cq_catalog)
        assert not is_contained(q2, q1, cq_catalog)

    def test_join_contained_in_projection(self, cq_catalog):
        q1 = parse_query("SELECT patient FROM presc JOIN dcost ON drug = drug")
        q2 = parse_query("SELECT patient FROM presc")
        assert is_contained(q1, q2, cq_catalog)
        assert not is_contained(q2, q1, cq_catalog)

    def test_equal_queries_both_ways(self, cq_catalog):
        q = parse_query("SELECT patient, drug FROM presc WHERE disease != 'HIV'")
        assert is_contained(q, q, cq_catalog)

    def test_different_heads_not_contained(self, cq_catalog):
        q1 = parse_query("SELECT patient FROM presc")
        q2 = parse_query("SELECT drug FROM presc")
        assert not is_contained(q1, q2, cq_catalog)

    def test_constant_in_head_position(self, cq_catalog):
        q1 = parse_query("SELECT patient FROM presc WHERE drug = 'DH'")
        q2 = parse_query("SELECT patient FROM presc WHERE drug != 'DR'")
        assert is_contained(q1, q2, cq_catalog)

    def test_self_join_folding(self, cq_catalog):
        # presc ⋈ presc on all of drug is contained in plain presc scan
        q1 = parse_query(
            "SELECT patient FROM presc JOIN dcost ON drug = drug WHERE price > 0"
        )
        q2 = parse_query("SELECT patient FROM presc JOIN dcost ON drug = drug")
        assert is_contained(q1, q2, cq_catalog)


class TestSourceColumnsUsed:
    def test_excludes_agg_aliases(self):
        q = (
            Query.from_("t")
            .group("g")
            .agg(AggSpec("sum", "m", "total"))
            .project("g", "total")
            .order_by("total")
        )
        assert source_columns_used(q) == frozenset({"g", "m"})

    def test_includes_filters_joins_order(self):
        q = (
            Query.from_("t")
            .join("u", [("a", "b")])
            .filter(parse_expression("c > 1"))
            .project("d")
            .order_by("e")
        )
        assert source_columns_used(q) == frozenset({"a", "b", "c", "d", "e"})


class TestDerivability:
    @pytest.fixture
    def catalog(self, cq_catalog):
        cq_catalog.add_view(
            View(
                "meta",
                parse_query(
                    "SELECT patient, drug, disease, cost FROM presc "
                    "WHERE disease != 'HIV'"
                ),
            )
        )
        return cq_catalog

    def test_narrowing_report_is_derivable(self, catalog):
        report = parse_query(
            "SELECT drug, COUNT(*) AS n FROM meta WHERE disease = 'asthma' GROUP BY drug"
        )
        meta = catalog.view("meta").query
        assert check_derivability(report, "meta", meta, catalog)

    def test_weaker_predicate_not_derivable(self, catalog):
        # Authored over the base table (bypassing the view), a weaker
        # predicate cannot be certified against the meta-report's filter.
        report = parse_query("SELECT drug FROM presc WHERE cost > 0")
        meta = catalog.view("meta").query
        result = check_derivability(report, "meta", meta, catalog)
        assert not result and any("predicate" in r for r in result.reasons)

    def test_weaker_predicate_over_view_is_fine(self, catalog):
        # The same report authored over the view inherits the HIV filter.
        report = parse_query("SELECT drug FROM meta WHERE cost > 0")
        meta = catalog.view("meta").query
        assert check_derivability(report, "meta", meta, catalog)

    def test_foreign_relation_not_derivable(self, catalog):
        report = parse_query(
            "SELECT patient FROM presc JOIN dcost ON drug = drug WHERE disease != 'HIV'"
        )
        meta = catalog.view("meta").query
        result = check_derivability(report, "meta", meta, catalog)
        assert not result and any("base relations" in r for r in result.reasons)

    def test_unexposed_column_not_derivable(self, catalog):
        catalog.add_view(
            View("meta2", parse_query("SELECT drug, cost FROM presc"))
        )
        report = parse_query("SELECT patient FROM meta2")
        result = check_derivability(
            report, "meta2", catalog.view("meta2").query, catalog
        )
        assert not result and any("does not expose" in r for r in result.reasons)

    def test_report_over_filtered_metareport_inherits_its_filter(self, catalog):
        """A report FROM the meta-report need not restate the view's WHERE —
        executing through the view applies it anyway."""
        report = parse_query("SELECT drug FROM meta")  # no WHERE at all
        meta = catalog.view("meta").query  # WHERE disease != 'HIV'
        assert check_derivability(report, "meta", meta, catalog)

    def test_warehouse_report_must_still_imply_filter(self, catalog):
        report = parse_query("SELECT drug FROM presc")  # bypasses the view
        meta = catalog.view("meta").query
        result = check_derivability(report, "meta", meta, catalog)
        assert not result
        assert any("predicate" in r for r in result.reasons)

    def test_join_smuggled_through_metareport_source_flagged(self, catalog):
        """Regression: FROM meta JOIN other must not bypass the base check."""
        from repro.relational import Table, make_schema
        from repro.relational.types import ColumnType

        catalog.add_table(
            Table.from_rows(
                "exams",
                make_schema(("patient", ColumnType.STRING), ("res", ColumnType.INT)),
                [],
                provider="lab",
            )
        )
        report = parse_query(
            "SELECT patient FROM meta JOIN exams ON patient = patient "
            "WHERE disease != 'HIV'"
        )
        meta = catalog.view("meta").query
        result = check_derivability(report, "meta", meta, catalog)
        assert not result
        assert any("outside the meta-report" in r for r in result.reasons)

    def test_aggregate_metareport_rejected(self, catalog):
        agg_meta = parse_query("SELECT drug, COUNT(*) AS n FROM presc GROUP BY drug")
        report = parse_query("SELECT drug FROM aggm")
        catalog.add_view(View("aggm", agg_meta))
        result = check_derivability(report, "aggm", agg_meta, catalog)
        assert not result
