"""Unit tests for predicate implication, derivability, and CQ containment."""

import pytest

from repro.core import (
    NotConjunctive,
    canonicalize,
    check_derivability,
    is_contained,
    predicate_implies,
)
from repro.relational import (
    Catalog,
    Col,
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

    def test_views_inlined(self, cq_catalog):
        cq_catalog.add_view(
            View("v", parse_query("SELECT patient, drug FROM presc WHERE cost > 5"))
        )
        cq_catalog.add_view(
            View("w", parse_query("SELECT patient AS who FROM v WHERE drug = 'DH'"))
        )
        c = canonicalize(parse_query("SELECT who FROM w"), cq_catalog)
        assert [a.relation for a in c.atoms] == ["presc"]
        assert c.head == {"who": Col(f"v{c.atoms[0].variables[0]}")}
        # The outer view's WHERE comes first, then the inner one's.
        assert str(c.where) == (
            f"(v{c.atoms[0].variables[1]} = 'DH' AND v{c.atoms[0].variables[3]} > 5)"
        )

    def test_views_rejected(self, cq_catalog):
        # Views the walk cannot inline fail closed, naming the shape.
        drugs = parse_query("SELECT drug FROM presc")
        shapes = {
            "agg": (
                parse_query("SELECT drug, COUNT(*) AS n FROM presc GROUP BY drug"),
                "aggregates",
            ),
            "lim": (drugs.limit(3), "LIMIT"),
            "uni": (drugs.union_with(parse_query("SELECT drug FROM dcost")), "UNION"),
            "lj": (
                Query.from_("presc").join("dcost", [("drug", "drug")], how="left"),
                "outer join",
            ),
        }
        for name, (query, shape) in shapes.items():
            cq_catalog.add_view(View(name, query))
            with pytest.raises(NotConjunctive, match=shape):
                canonicalize(Query.from_(name), cq_catalog)

    def test_disjunction_kept_in_residual(self, cq_catalog):
        q = parse_query("SELECT patient FROM presc WHERE drug = 'a' OR drug = 'b'")
        c = canonicalize(q, cq_catalog)
        drug = f"v{c.atoms[0].variables[1]}"
        assert str(c.where) == f"({drug} = 'a' OR {drug} = 'b')"

    def test_self_equality_stays_in_residual(self, cq_catalog):
        # ``cost = cost`` also says ``cost IS NOT NULL``, so it is not folded.
        q = parse_query("SELECT patient FROM presc WHERE cost = cost")
        c = canonicalize(q, cq_catalog)
        cost = f"v{c.atoms[0].variables[3]}"
        assert str(c.where) == f"{cost} = {cost}"

    def test_view_chain_deeper_than_the_limit_rejected(self, cq_catalog):
        from repro.relational.catalog import MAX_VIEW_DEPTH

        previous = "presc"
        for i in range(MAX_VIEW_DEPTH + 1):
            cq_catalog.add_view(View(f"d{i}", Query.from_(previous).project("patient")))
            previous = f"d{i}"
        canonicalize(Query.from_(f"d{MAX_VIEW_DEPTH - 1}"), cq_catalog)
        with pytest.raises(NotConjunctive, match="deeper than"):
            canonicalize(Query.from_(previous), cq_catalog)

    def test_engine_qualified_join_columns(self, cq_catalog):
        # presc and dcost share ``drug``: after the join the engine names
        # the two copies presc.drug and dcost.drug.
        q = parse_query(
            "SELECT patient FROM presc JOIN dcost ON drug = drug "
            "WHERE dcost.drug != 'DX'"
        )
        c = canonicalize(q, cq_catalog)
        assert str(c.where) == f"v{c.atoms[1].variables[0]} != 'DX'"
        with pytest.raises(NotConjunctive, match="unknown column"):
            canonicalize(
                parse_query(
                    "SELECT patient FROM presc JOIN dcost ON drug = drug "
                    "WHERE drug != 'DX'"
                ),
                cq_catalog,
            )


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

    def test_views_inlined_on_both_sides(self, cq_catalog):
        cq_catalog.add_view(
            View(
                "hiv_free",
                parse_query(
                    "SELECT patient, drug, cost FROM presc WHERE disease != 'HIV'"
                ),
            )
        )
        q1 = parse_query("SELECT patient FROM hiv_free WHERE cost > 20")
        q2 = parse_query("SELECT patient FROM presc WHERE disease != 'HIV'")
        assert is_contained(q1, q2, cq_catalog)
        assert not is_contained(
            parse_query("SELECT patient FROM presc"),
            parse_query("SELECT patient FROM hiv_free"),
            cq_catalog,
        )


class TestSourceColumnsUsed:
    """What a query reads (``Catalog.input_names``), as §5 and the PLA
    checks count it."""

    def test_excludes_agg_aliases(self):
        q = (
            Query.from_("t")
            .group("g")
            .agg(AggSpec("sum", "m", "total"))
            .project("g", "total")
            .order_by("total")
        )
        assert Catalog().input_names(q) == frozenset({"g", "m"})

    def test_includes_filters_joins_order(self):
        q = (
            Query.from_("t")
            .join("u", [("a", "b")])
            .filter(parse_expression("c > 1"))
            .project("d")
            .order_by("e")
        )
        assert Catalog().input_names(q) == frozenset({"a", "b", "c", "d", "e"})

    def test_bare_select_star_reads_its_whole_from_scope(self, cq_catalog):
        q = parse_query("SELECT * FROM presc JOIN dcost ON drug = drug")
        assert cq_catalog.input_names(q) == frozenset(
            {"patient", "presc.drug", "disease", "cost", "dcost.drug", "price", "drug"}
        )

    def test_union_reads_every_branch(self, cq_catalog):
        branch = parse_query("SELECT patient FROM presc WHERE cost > 1")
        q = parse_query("SELECT drug FROM presc").union_with(branch)
        assert cq_catalog.input_names(q) == frozenset({"drug", "patient", "cost"})


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

    def test_bare_select_star_reads_what_the_metareport_hides(self, catalog):
        """``SELECT *`` reads every column of its FROM: against a narrow
        meta-report it is refused like the explicit list it expands to."""
        catalog.add_view(View("narrow", parse_query("SELECT drug, cost FROM presc")))
        narrow = catalog.view("narrow").query
        for sql in ("SELECT * FROM presc", "SELECT patient, disease FROM presc"):
            result = check_derivability(parse_query(sql), "narrow", narrow, catalog)
            assert not result
            assert any("does not expose" in r for r in result.reasons)
        assert check_derivability(
            parse_query("SELECT * FROM narrow"), "narrow", narrow, catalog
        )

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

    def test_computed_columns_align_by_expression(self, catalog):
        catalog.add_view(
            View("mrc", parse_query("SELECT drug, cost * 2 AS dbl FROM presc"))
        )
        catalog.add_view(
            View("other", parse_query("SELECT drug, cost * 3 AS dbl FROM presc"))
        )
        meta = catalog.view("mrc").query
        assert check_derivability(
            parse_query("SELECT dbl FROM mrc WHERE drug = 'DA'"), "mrc", meta, catalog
        )
        result = check_derivability(
            parse_query("SELECT dbl FROM other"), "mrc", meta, catalog
        )
        assert not result and any("containment mapping" in r for r in result.reasons)

    def test_aggregate_metareport_rejected(self, catalog):
        agg_meta = parse_query("SELECT drug, COUNT(*) AS n FROM presc GROUP BY drug")
        report = parse_query("SELECT drug FROM aggm")
        catalog.add_view(View("aggm", agg_meta))
        result = check_derivability(report, "aggm", agg_meta, catalog)
        assert not result


class TestMetaReportJoinBoundsReport:
    """A meta-report's join restricts the rows a report derived from it may
    read: ``mv`` keeps only consented patients, so a report over ``fact``
    alone, which returns the unconsented row ``('C', 30.0)``, is refused."""

    @pytest.fixture
    def probe(self):
        cat = Catalog()
        fact = make_schema(
            ("pid", ColumnType.INT),
            ("drug", ColumnType.STRING),
            ("cost", ColumnType.FLOAT),
        )
        rows = [(1, "A", 10.0), (2, "B", 20.0), (3, "C", 30.0)]
        cat.add_table(Table.from_rows("fact", fact, rows, provider="h"))
        consent = make_schema(("pid2", ColumnType.INT))
        cat.add_table(Table.from_rows("consent", consent, [(1,), (2,)], provider="h"))
        meta = parse_query(
            "SELECT pid, drug, cost FROM fact JOIN consent ON pid = pid2"
        )
        cat.add_view(View("mv", meta))
        return cat, meta

    def test_report_bypassing_the_join_not_derivable(self, probe):
        from repro.relational import execute

        cat, meta = probe
        report = parse_query("SELECT drug, cost FROM fact")
        assert ("C", 30.0) in execute(report, cat).rows
        over_mv = execute(parse_query("SELECT drug, cost FROM mv"), cat)
        assert ("C", 30.0) not in over_mv.rows
        result = check_derivability(report, "mv", meta, cat)
        assert not result
        assert any("['consent']" in r for r in result.reasons)
        assert not is_contained(report, parse_query("SELECT drug, cost FROM mv"), cat)

    def test_report_over_the_view_is_derivable(self, probe):
        cat, meta = probe
        for sql in (
            "SELECT drug, cost FROM mv WHERE cost > 5",
            "SELECT drug, SUM(cost) AS total FROM mv GROUP BY drug",
        ):
            assert check_derivability(parse_query(sql), "mv", meta, cat), sql

    def test_report_joining_on_other_columns_not_derivable(self, probe):
        cat, meta = probe
        report = parse_query("SELECT drug FROM fact JOIN consent ON cost = pid2")
        result = check_derivability(report, "mv", meta, cat)
        assert not result and any("containment mapping" in r for r in result.reasons)

    def test_compliance_checker_refuses_the_probe(self, probe):
        from repro.core import (
            AttributeAccess,
            ComplianceChecker,
            MetaReport,
            MetaReportSet,
            PLA,
            PlaLevel,
            PlaRegistry,
        )
        from repro.reports.definition import ReportDefinition

        cat, meta = probe
        registry = PlaRegistry()
        grant = AttributeAccess("cost", frozenset({"analyst"}))
        registry.add(PLA("p", "h", PlaLevel.METAREPORT, "mv", (grant,)))
        metareport = MetaReport("mv", meta)
        metareport.attach_pla(registry.approve("p"))
        checker = ComplianceChecker(
            catalog=cat, metareports=MetaReportSet([metareport])
        )

        def verdict(sql):
            return checker.check_report(
                ReportDefinition(
                    name="r", title="t", query=parse_query(sql),
                    audience=frozenset({"analyst"}), purpose="care",
                )
            )

        refused = verdict("SELECT drug, cost FROM fact")
        assert not refused.compliant and refused.covering_metareport is None
        assert verdict("SELECT drug, cost FROM mv").covering_metareport == "mv"


class TestEffectiveRegion:
    """Regions read the canonical form, renamed into universe columns."""

    @pytest.fixture
    def catalog(self, cq_catalog):
        cq_catalog.add_view(
            View("u", parse_query("SELECT patient, drug, disease, cost FROM presc"))
        )
        cq_catalog.add_view(
            View(
                "v",
                parse_query(
                    "SELECT patient AS who, drug, cost FROM u WHERE disease != 'HIV'"
                ),
            )
        )
        return cq_catalog

    def test_view_chain_renamed_into_universe_columns(self, catalog):
        from repro.core.metareport import effective_region

        q = parse_query(
            "SELECT who, COUNT(*) AS n FROM v "
            "WHERE cost > 5 AND who != 'x' GROUP BY who"
        )
        region = effective_region(q, catalog, universe="u")
        assert str(region) == "((cost > 5 AND patient != 'x') AND disease != 'HIV')"

    def test_folded_equality_is_restated(self, catalog):
        from repro.core.metareport import effective_region

        q = parse_query("SELECT drug FROM u WHERE drug = disease AND cost > 1")
        region = effective_region(q, catalog, universe="u")
        assert str(region) == "(cost > 1 AND drug = disease)"

    def test_join_along_the_chain_fails_closed(self, catalog):
        from repro.core.metareport import effective_region

        q = parse_query("SELECT who FROM v JOIN dcost ON drug = drug")
        with pytest.raises(NotConjunctive, match="not one predicate"):
            effective_region(q, catalog, universe="u")
