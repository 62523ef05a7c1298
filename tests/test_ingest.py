"""Tests for the SQL suite ingestion front-end (:mod:`repro.ingest`).

Unit coverage for the dialect normalizer, the statement grammar (CTE and
FROM-subquery hoisting, UNION with trailing ORDER/LIMIT), and the name
resolver; integration coverage for the compile driver over the shipped
example corpus and the negative-fixture suite; and two properties:

* **round-trip** — for any query in the renderable fragment,
  ``parse(render(q))`` has the same fingerprint as ``q``, so the catalog's
  SQL rendering of an ingested artifact is provably not a paraphrase;
* **differential** — static lineage computed at ingest time
  over-approximates runtime where-provenance on executed data, including
  across UNION branches.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Severity, column_flows
from repro.errors import IngestError, ParseError, SchemaError
from repro.ingest import (
    DIALECTS,
    emit_deployment,
    ingest_suite,
    parse_suite_text,
    render_query,
    resolve_query,
)
from repro.ingest.dialects import get_dialect
from repro.ingest.parser import file_dialect, split_statements
from repro.relational import Catalog, View, execute
from repro.relational.algebra import AggSpec
from repro.relational.expressions import Col, Comparison, InList, IsNull, Lit
from repro.relational.query import Query
from repro.relational.table import Table, make_schema
from repro.relational.types import ColumnType

ANSI = DIALECTS["ansi"]
POSTGRES = DIALECTS["postgres"]
TSQL = DIALECTS["tsql"]

INT = ColumnType.INT
STRING = ColumnType.STRING


def parse_all(text: str, dialect=ANSI):
    return parse_suite_text(text, dialect, mangle_prefix="tst")


def parse_query(text: str, dialect=ANSI) -> Query:
    (statement,) = parse_all(text, dialect)
    return statement.query


def small_catalog() -> Catalog:
    t = Table.from_rows(
        "t",
        make_schema(("k", INT), ("x", INT), ("s", STRING)),
        [(i % 4, (i * 7) % 11 - 5, f"s{i % 3}") for i in range(12)],
        provider="alpha",
    )
    u = Table.from_rows(
        "u",
        make_schema(("k", INT), ("z", INT)),
        [(i % 5, (i * 3) % 7 - 3) for i in range(8)],
        provider="beta",
    )
    catalog = Catalog()
    catalog.add_table(t)
    catalog.add_table(u)
    return catalog


CATALOG = small_catalog()


# -- dialects -----------------------------------------------------------------


class TestDialects:
    def test_tsql_top_becomes_trailing_limit(self):
        query = parse_query(
            "SELECT TOP 5 drug FROM rx ORDER BY drug;", dialect=TSQL
        )
        assert query.limit_n == 5
        assert query.order == (("drug", False),)

    def test_top_rewrite_is_noted(self):
        (statement,) = parse_all("SELECT TOP 3 a FROM rx;", dialect=TSQL)
        assert any(n.construct == "TOP n" for n in statement.notes)

    def test_postgres_cast_dropped_and_noted(self):
        (statement,) = parse_all(
            "SELECT cost FROM rx WHERE cost::numeric > 0;", dialect=POSTGRES
        )
        assert statement.query.where is not None
        assert any(n.construct == "::cast" for n in statement.notes)

    def test_quoted_identifiers_are_noted(self):
        (statement,) = parse_all('SELECT "cost" FROM rx;', dialect=POSTGRES)
        assert statement.query.select == ("cost",)
        assert any(n.construct == "quoted identifier" for n in statement.notes)

    def test_brackets_only_parse_under_tsql(self):
        assert parse_query("SELECT [a] FROM [rx];", dialect=TSQL).select == ("a",)
        with pytest.raises(ParseError):
            parse_all("SELECT [a] FROM rx;", dialect=ANSI)

    def test_ansi_top_is_not_rewritten(self):
        with pytest.raises(ParseError):
            parse_all("SELECT TOP 5 a FROM rx;", dialect=ANSI)

    def test_unknown_dialect_rejected(self):
        with pytest.raises(IngestError):
            get_dialect("oracle")

    def test_tsql_top_in_subquery_limits_the_subquery(self):
        # The inner TOP must become the *subquery's* LIMIT — splicing it at
        # the statement tail would silently limit the outer query instead.
        (statement,) = parse_all(
            "SELECT a FROM (SELECT TOP 5 a FROM rx ORDER BY a) sub;",
            dialect=TSQL,
        )
        assert statement.query.limit_n is None
        ((_, subquery),) = statement.synthetic_views
        assert subquery.limit_n == 5

    def test_tsql_top_in_outer_and_subquery_stay_separate(self):
        (statement,) = parse_all(
            "SELECT TOP 2 a FROM (SELECT TOP 5 a FROM rx ORDER BY a) sub "
            "ORDER BY a;",
            dialect=TSQL,
        )
        assert statement.query.limit_n == 2
        ((_, subquery),) = statement.synthetic_views
        assert subquery.limit_n == 5

    def test_tsql_nested_brackets_parse(self):
        query = parse_query(
            "SELECT [a] FROM (SELECT [a] FROM [rx] WHERE [a] > 0) [sub];",
            dialect=TSQL,
        )
        assert query.select == ("a",)

    def test_postgres_cast_inside_case_arm(self):
        (statement,) = parse_all(
            "SELECT CASE WHEN cost::numeric > 0 THEN cost::int ELSE 0 END "
            "AS c FROM rx;",
            dialect=POSTGRES,
        )
        assert sum(n.construct == "::cast" for n in statement.notes) == 2
        alias, expr = statement.query.select[0]
        assert alias == "c"
        assert expr.columns() == frozenset({"cost"})

    def test_postgres_cast_inside_aggregate_argument(self):
        (statement,) = parse_all(
            "SELECT avg(cost::numeric) AS a FROM rx;", dialect=POSTGRES
        )
        assert any(n.construct == "::cast" for n in statement.notes)
        (spec,) = statement.query.aggregates
        assert (spec.func, spec.column, spec.alias) == ("avg", "cost", "a")


# -- statement grammar --------------------------------------------------------


class TestSuiteParser:
    def test_create_view(self):
        (statement,) = parse_all("CREATE VIEW v AS SELECT a FROM rx;")
        assert (statement.kind, statement.name) == ("view", "v")
        assert statement.query.select == ("a",)

    def test_cte_is_hoisted_to_synthetic_view(self):
        (statement,) = parse_all(
            "WITH recent AS (SELECT a FROM rx) SELECT a FROM recent;"
        )
        (synth_name, synth_query) = statement.synthetic_views[0]
        assert synth_name == "tst0__cte_recent"
        assert synth_query.select == ("a",)
        assert statement.query.source == synth_name

    def test_later_cte_sees_earlier_one(self):
        (statement,) = parse_all(
            "WITH a1 AS (SELECT a FROM rx), "
            "a2 AS (SELECT a FROM a1) SELECT a FROM a2;"
        )
        names = [name for name, _ in statement.synthetic_views]
        assert names == ["tst0__cte_a1", "tst0__cte_a2"]
        assert statement.synthetic_views[1][1].source == "tst0__cte_a1"

    def test_from_subquery_is_hoisted(self):
        (statement,) = parse_all(
            "SELECT a FROM (SELECT a FROM rx WHERE a > 1) AS inner1;"
        )
        (synth_name, synth_query) = statement.synthetic_views[0]
        assert synth_name == "tst0__sub1_inner1"
        assert statement.query.source == synth_name
        assert synth_query.where is not None

    def test_union_with_trailing_order_limit_lands_on_head(self):
        query = parse_query(
            "SELECT a FROM rx UNION ALL SELECT a FROM ry ORDER BY a LIMIT 3;"
        )
        assert [c.op for c in query.set_ops] == ["union_all"]
        assert query.set_ops[0].query.order == ()
        assert query.set_ops[0].query.limit_n is None
        assert query.order == (("a", False),)
        assert query.limit_n == 3

    def test_order_before_union_is_rejected(self):
        with pytest.raises(ParseError, match="last UNION branch"):
            parse_all("SELECT a FROM rx ORDER BY a UNION SELECT a FROM ry;")

    def test_semicolon_in_string_does_not_split(self):
        splits = split_statements("SELECT a FROM rx WHERE s = 'x;y';", ANSI)
        assert len(splits) == 1

    def test_directives_name_reports(self):
        (statement,) = parse_all(
            "-- report: weekly\n-- title: Weekly numbers\n"
            "SELECT a FROM rx;"
        )
        assert statement.name == "weekly"
        assert statement.directives["title"] == "Weekly numbers"

    def test_file_dialect_only_honors_the_header(self):
        assert file_dialect("-- dialect: tsql\nSELECT 1;") == "tsql"
        assert file_dialect("SELECT a FROM rx;\n-- dialect: tsql\n") is None


# -- name resolution ----------------------------------------------------------


class TestResolver:
    def test_clean_query_has_no_diagnostics(self):
        query = parse_query("SELECT k, x FROM t WHERE x > 0;")
        assert resolve_query(query, CATALOG, location="l") == []

    def test_unknown_relation_is_ing001(self):
        query = parse_query("SELECT k FROM ghost;")
        (diag,) = resolve_query(query, CATALOG, location="l")
        assert (diag.code, diag.severity) == ("ING001", Severity.ERROR)

    def test_unknown_column_is_ing002(self):
        query = parse_query("SELECT wrong FROM t;")
        (diag,) = resolve_query(query, CATALOG, location="l")
        assert diag.code == "ING002"

    def test_join_ambiguity_is_ing003(self):
        query = parse_query("SELECT k FROM t JOIN u ON x = z;")
        (diag,) = resolve_query(query, CATALOG, location="l")
        assert diag.code == "ING003"
        assert "t" in diag.message and "u" in diag.message

    def test_union_arity_mismatch_is_ing009(self):
        query = parse_query("SELECT k, x FROM t UNION SELECT k FROM u;")
        codes = [d.code for d in resolve_query(query, CATALOG, location="l")]
        assert "ING009" in codes

    def test_suite_views_resolve_recursively(self):
        catalog = small_catalog()
        catalog.add_view(View("v1", parse_query("SELECT k, x FROM t;")))
        query = parse_query("SELECT x FROM v1;")
        assert resolve_query(query, catalog, location="l") == []
        assert catalog.output_names("v1") == ("k", "x")


class TestEngineNaming:
    """Ingest names a join view's columns as the engine does: ``jv`` over
    ``t(k, x)`` and ``u(k2, x)`` outputs ``k, t.x, k2, u.x``."""

    @staticmethod
    def catalog() -> Catalog:
        catalog = Catalog()
        catalog.add_table(
            Table.from_rows("t", make_schema(("k", INT), ("x", INT)), [(1, 10)])
        )
        catalog.add_table(
            Table.from_rows("u", make_schema(("k2", INT), ("x", INT)), [(1, 20)])
        )
        catalog.add_view(View("jv", parse_query("SELECT * FROM t JOIN u ON k = k2;")))
        return catalog

    def test_qualified_join_column_is_unknown_unqualified(self):
        (diag,) = resolve_query(
            parse_query("SELECT x FROM jv;"), self.catalog(), location="l"
        )
        assert diag.code == "ING002"
        assert "unknown column 'x'" in diag.message

    def test_engine_name_resolves(self, tmp_path):
        catalog = self.catalog()
        query = parse_query("SELECT t.x FROM jv;")
        assert resolve_query(query, catalog, location="l") == []
        assert execute(query, catalog).rows == [(10,)]
        (tmp_path / "r.sql").write_text("-- report: tx\nSELECT t.x FROM jv;\n")
        result = ingest_suite(tmp_path, catalog=catalog)
        assert result.ok and [r.name for r in result.reports] == ["tx"]

    def test_a_view_the_engine_cannot_run_is_ing002(self, tmp_path):
        # The resolver accepts ``t.x`` for a column no join qualified; the
        # engine and the lineage pass name it ``x``.
        catalog = self.catalog()
        with pytest.raises(SchemaError, match="unknown column 't.x'"):
            execute(parse_query("SELECT t.x FROM t;"), catalog)
        (tmp_path / "v.sql").write_text("CREATE VIEW vq AS SELECT t.x FROM t;\n")
        result = ingest_suite(tmp_path, catalog=catalog)
        assert not result.ok and result.views == []
        (diag,) = result.diagnostics.by_code("ING002")
        assert "unknown column 't.x'" in diag.message

    def test_hoisted_views_resolve_and_fail_per_statement(self, tmp_path):
        catalog = self.catalog()
        (tmp_path / "r.sql").write_text(
            "-- report: bad\n"
            "WITH c AS (SELECT k FROM t) SELECT wrong FROM c;\n"
            "-- report: good\n"
            "WITH c AS (SELECT k FROM t) SELECT k FROM c;\n"
        )
        result = ingest_suite(tmp_path, catalog=catalog)
        assert [r.name for r in result.reports] == ["good"]
        assert len(result.views) == 1
        assert result.diagnostics.by_code("ING002")


# -- the compile driver over the shipped corpora ------------------------------


class TestIngestCorpus:
    @pytest.fixture(scope="class")
    def result(self, scenario):
        return ingest_suite("examples/sql_suites", catalog=scenario.bi_catalog)

    def test_whole_corpus_compiles(self, result):
        assert result.ok
        assert not result.diagnostics.by_severity(Severity.ERROR)
        assert sorted(r.name for r in result.reports) == [
            "chronic_cost_by_drug",
            "costly_flu_regions",
            "elderly_cost_by_disease",
            "elderly_dense_regions",
            "high_cost_regions",
            "top_flu_drugs",
        ]

    def test_all_three_dialects_were_used(self, result):
        assert {s.dialect for s in result.statements} == {
            "ansi",
            "postgres",
            "tsql",
        }

    def test_reports_carry_origin_and_source(self, result):
        by_name = {r.name: r for r in result.reports}
        chronic = by_name["chronic_cost_by_drug"]
        assert chronic.origin.startswith("reports_ansi.sql:")
        assert "GROUP BY drug" in chronic.source_sql

    def test_lineage_is_column_level(self, result):
        lineage = result.lineage["chronic_cost_by_drug"]
        assert lineage["drug"] == ["dim_drug.drug"]
        assert lineage["total_cost"] == ["fact_prescriptions.cost"]
        assert lineage["prescriptions"] == []

    def test_normalizations_and_widening_are_surfaced(self, result):
        codes = set(result.diagnostics.codes())
        assert "ING006" in codes  # TOP/cast/quoting rewrites
        assert "ING007" in codes  # predicate-only disclosures

    def test_widening_names_only_suite_predicates(self, result):
        (diag,) = [
            d
            for d in result.diagnostics.by_code("ING007")
            if "reports_postgres.sql:14" in d.location
        ]
        assert "dim_patient.birth_year" in diag.message
        assert "patient_id" not in diag.message  # wide-view join keys elided

    def test_forcing_the_wrong_dialect_fails_closed(self, scenario):
        result = ingest_suite(
            "examples/sql_suites", catalog=scenario.bi_catalog, dialect="ansi"
        )
        assert not result.ok
        assert result.diagnostics.by_severity(Severity.ERROR)

    def test_missing_directory_is_an_ingest_error(self, scenario, tmp_path):
        with pytest.raises(IngestError):
            ingest_suite(tmp_path / "nope", catalog=scenario.bi_catalog)


class TestNegativeSuite:
    @pytest.fixture(scope="class")
    def result(self, scenario):
        return ingest_suite("tests/data/negative_suite", catalog=scenario.bi_catalog)

    def test_every_error_code_fires(self, result):
        errors = {
            d.code for d in result.diagnostics.by_severity(Severity.ERROR)
        }
        assert errors == {
            "ING001",
            "ING002",
            "ING003",
            "ING004",
            "ING005",
            "ING008",
            "ING009",
            "ING010",
        }

    def test_rejected_statements_contribute_nothing(self, result):
        assert not result.ok
        assert result.reports == []
        # The first dup_view definition is fine; everything else is rejected.
        assert [v.name for v in result.views] == ["dup_view"]

    def test_diagnostics_carry_file_and_line(self, result):
        (diag,) = result.diagnostics.by_code("ING001")
        assert diag.location == "suite:bad_names.sql:3"

    def test_parse_errors_include_caret_snippets(self, result):
        (diag,) = result.diagnostics.by_code("ING005")
        assert "^" in diag.message

    def test_clash_with_catalog_view_is_ing008(self, scenario, tmp_path):
        (tmp_path / "clash.sql").write_text(
            "CREATE VIEW wide_prescriptions AS SELECT drug FROM wide_prescriptions;"
        )
        result = ingest_suite(tmp_path, catalog=scenario.bi_catalog)
        assert [d.code for d in result.diagnostics.by_severity(Severity.ERROR)] == [
            "ING008"
        ]

    def test_window_function_is_ing010_with_location_and_caret(self, result):
        (diag,) = result.diagnostics.by_code("ING010")
        assert diag.location.startswith("suite:bad_constructs.sql:")
        assert "window function" in diag.message
        assert "^" in diag.message  # caret snippet, never a crash


class TestDiagnosticOrdering:
    """``repro ingest`` reports findings in source order, deterministically."""

    @pytest.fixture(scope="class")
    def result(self, scenario, tmp_path_factory):
        suite = tmp_path_factory.mktemp("ordering")
        # Errors on lines 2 and 10 of one file: a lexicographic location
        # sort would put line 10 first.
        (suite / "a.sql").write_text(
            "-- report: early\n"
            "SELECT drug FROM no_such_relation;\n"
            + "-- filler\n" * 7
            + "SELECT prescriber FROM wide_prescriptions;\n"
        )
        (suite / "b.sql").write_text(
            "-- report: late\nSELECT drug FROM also_missing;\n"
        )
        return ingest_suite(suite, catalog=scenario.bi_catalog)

    def test_text_order_is_file_then_numeric_line(self, result):
        locations = [
            d.location
            for d in result.diagnostics.source_sorted()
            if d.severity is Severity.ERROR
        ]
        assert locations == [
            "suite:a.sql:2",
            "suite:a.sql:10",
            "suite:b.sql:2",
        ]

    def test_json_diagnostics_use_source_order(self, result):
        payload = result.to_dict()
        codes = [
            (d["location"], d["code"])
            for d in payload["diagnostics"]["diagnostics"]
        ]
        assert codes == sorted(
            codes,
            key=lambda pair: (
                pair[0].rsplit(":", 1)[0],
                int(pair[0].rsplit(":", 1)[1]),
                pair[1],
            ),
        )
        assert codes[0][0] == "suite:a.sql:2"


# -- emitted deployments are auditable ---------------------------------------


class TestEmitDeployment:
    @pytest.fixture(scope="class")
    def deployment(self, scenario, tmp_path_factory):
        from repro.persistence import load_deployment

        result = ingest_suite("examples/sql_suites", catalog=scenario.bi_catalog)
        out = tmp_path_factory.mktemp("ingested") / "dep"
        emit_deployment(result, out, scenario=scenario)
        return load_deployment(out)

    def test_reload_preserves_reports_and_origins(self, deployment):
        definition = deployment.reports.current("top_flu_drugs")
        assert definition.origin.startswith("reports_tsql.sql:")
        assert "TOP 10" in definition.source_sql

    def test_lint_is_clean_over_the_ingested_catalog(self, deployment):
        from repro.analysis import AnalysisInput, StaticAnalyzer

        report = StaticAnalyzer(
            AnalysisInput(
                catalog=deployment.catalog,
                metareports=deployment.metareports,
                reports=deployment.reports,
            )
        ).analyze()
        assert report.clean, [str(d) for d in report.diagnostics]

    def test_verify_proves_the_ingested_catalog(self, deployment):
        from repro.verify import DeploymentVerifier, VerificationInput

        report = DeploymentVerifier(
            VerificationInput.from_deployment(deployment)
        ).verify()
        assert report.exit_code(Severity.WARNING) == 0

    def test_lint_locations_include_report_origin(self, deployment, scenario):
        from repro.analysis import AnalysisInput, StaticAnalyzer
        from repro.reports.catalog import ReportCatalog

        # Break one ingested report (expose the patient identifier) and
        # check the diagnostic points back into the original SQL file.
        reports = ReportCatalog()
        definition = deployment.reports.current("top_flu_drugs")
        broken = Query.from_(scenario.universe_name).project("patient", "drug")
        from dataclasses import replace

        reports.add(replace(definition, query=broken))
        report = StaticAnalyzer(
            AnalysisInput(
                catalog=deployment.catalog,
                metareports=deployment.metareports,
                reports=reports,
            )
        ).analyze()
        assert any(
            "@reports_tsql.sql:" in d.location for d in report.diagnostics
        )


class TestTpchCorpus:
    """The TPC-H-style corpus ingests end to end in all three dialects.

    Its reports stay derivable/verifiable (conjunctive view chains), while
    the staging views exercise the grown fragment: RIGHT/FULL JOIN, CASE
    in predicates, scalar subqueries, and TOP inside a subquery.
    """

    @pytest.fixture(scope="class")
    def result(self, scenario):
        return ingest_suite(
            "examples/sql_suites/tpch", catalog=scenario.bi_catalog
        )

    def test_zero_error_diagnostics(self, result):
        errors = [
            d
            for d in result.diagnostics.diagnostics
            if d.severity is Severity.ERROR
        ]
        assert result.ok and not errors, [str(d) for d in errors]

    def test_all_dialects_and_constructs_are_exercised(self, result):
        dialects = {s.dialect for s in result.statements}
        assert dialects == {"ansi", "postgres", "tsql"}
        assert len(result.reports) >= 8
        queries = [view.query for view in result.views] + [
            definition.query for definition in result.reports
        ]
        joined = {clause.how for q in queries for clause in q.joins}
        assert {"right", "full", "cross"} <= joined
        scalar_views = [v.name for v in result.views if "__scalar" in v.name]
        assert scalar_views, "scalar subquery should hoist a synthetic view"

    def test_emitted_deployment_passes_lint_and_verify_clean(
        self, result, scenario, tmp_path
    ):
        from repro.analysis import AnalysisInput, StaticAnalyzer
        from repro.persistence import load_deployment
        from repro.verify import DeploymentVerifier, VerificationInput

        out = tmp_path / "tpch-dep"
        emit_deployment(result, out, scenario=scenario)
        deployment = load_deployment(out)
        lint = StaticAnalyzer(
            AnalysisInput(
                catalog=deployment.catalog,
                metareports=deployment.metareports,
                reports=deployment.reports,
            )
        ).analyze()
        assert lint.clean, [str(d) for d in lint.diagnostics]
        verify = DeploymentVerifier(
            VerificationInput.from_deployment(deployment)
        ).verify()
        assert verify.exit_code(Severity.WARNING) == 0, verify.summary()
        assert verify.all_proved


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_ingest_corpus_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["ingest", "examples/sql_suites"]) == 0
        out = capsys.readouterr().out
        assert "6 report(s)" in out

    def test_json_output_is_machine_readable(self, capsys):
        from repro.cli import main

        assert main(["ingest", "examples/sql_suites", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["statements"]) == 10
        assert payload["lineage"]["top_flu_drugs"]["drug"] == ["dim_drug.drug"]

    def test_negative_suite_exits_nonzero(self, capsys):
        from repro.cli import main

        assert main(["ingest", "tests/data/negative_suite"]) == 1

    def test_emit_catalog_refused_for_broken_suites(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            [
                "ingest",
                "tests/data/negative_suite",
                "--emit-catalog",
                str(tmp_path / "dep"),
            ]
        )
        assert code == 1
        assert not (tmp_path / "dep").exists()

    def test_emit_catalog_then_lint_and_verify(self, capsys, tmp_path):
        from repro.cli import main

        dep = str(tmp_path / "dep")
        assert main(["ingest", "examples/sql_suites", "--emit-catalog", dep]) == 0
        assert main(["lint", "--deployment", dep]) == 0
        assert main(["verify", "--deployment", dep, "--no-replay"]) == 0


# -- property: render/parse round-trip ----------------------------------------

OPS = ("<", "<=", ">", ">=", "=", "!=")


@st.composite
def renderable_queries(draw) -> Query:
    """Random queries inside the fragment render_query targets."""
    query = Query.from_(draw(st.sampled_from(["t", "u"])))
    cols = ["k", "x", "s"] if query.source == "t" else ["k", "z"]
    numeric = [c for c in cols if c != "s"]

    if draw(st.booleans()):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            query = query.filter(
                Comparison(
                    draw(st.sampled_from(OPS)),
                    Col(draw(st.sampled_from(numeric))),
                    Lit(draw(st.integers(-5, 5))),
                )
            )
        elif kind == 1:
            query = query.filter(
                InList(Col(draw(st.sampled_from(cols))), ("a'b", "c"))
            )
        else:
            query = query.filter(
                IsNull(
                    Col(draw(st.sampled_from(cols))),
                    negated=draw(st.booleans()),
                )
            )

    if draw(st.booleans()):  # UNION: numeric-only so branch types conform
        width = draw(st.integers(1, 2))
        out = draw(st.permutations(numeric))[:width]
        query = query.project(*out)
        if draw(st.booleans()):
            query = query.distinct()
        branch_source = draw(st.sampled_from(["t", "u"]))
        branch_numeric = ["k", "x"] if branch_source == "t" else ["k", "z"]
        branch = Query.from_(branch_source)
        if draw(st.booleans()):
            branch = branch.filter(
                Comparison(
                    draw(st.sampled_from(OPS)),
                    Col(draw(st.sampled_from(branch_numeric))),
                    Lit(draw(st.integers(-5, 5))),
                )
            )
        branch = branch.project(*draw(st.permutations(branch_numeric))[:width])
        query = query.union_with(branch, all=draw(st.booleans()))
    elif draw(st.booleans()):  # aggregate with explicit projection
        group = draw(st.sampled_from(cols))
        aggs = [AggSpec("count", None, "n")]
        if draw(st.booleans()):
            aggs.append(
                AggSpec(
                    draw(st.sampled_from(["sum", "min", "max", "avg"])),
                    draw(st.sampled_from(numeric)),
                    "m",
                )
            )
        query = query.group(group).agg(*aggs)
        out = [group] + [a.alias for a in aggs]
        query = query.project(*out)
    else:
        out = draw(
            st.lists(st.sampled_from(cols), min_size=1, max_size=3, unique=True)
        )
        query = query.project(*out)
        if draw(st.booleans()):
            query = query.distinct()

    if draw(st.booleans()):
        query = query.order_by((draw(st.sampled_from(out)), draw(st.booleans())))
    if draw(st.booleans()):
        query = query.limit(draw(st.integers(0, 9)))
    return query


@given(query=renderable_queries())
@settings(max_examples=120, deadline=None)
def test_render_parse_round_trip_preserves_fingerprint(query):
    sql = render_query(query) + ";"
    (statement,) = parse_suite_text(sql, ANSI, mangle_prefix="rt")
    assert statement.query.fingerprint() == query.fingerprint(), sql


# -- property: static lineage over-approximates runtime provenance ------------


def runtime_refs(provenance, column) -> set[tuple[str, str]]:
    return {(ref.row.table, ref.column) for ref in provenance.where_of(column)}


@given(query=renderable_queries())
@settings(max_examples=120, deadline=None)
def test_ingested_lineage_covers_runtime_where_provenance(query):
    """The differential property behind ING007 and the lineage payload:
    every base cell the engine actually reads is inside the static
    ``copied | derived`` set of its output column — UNION branches
    included (a projection duplicate in one branch must not hide a
    differently-sourced column in another)."""
    static = column_flows(query, CATALOG)
    table = execute(query, CATALOG)
    assert list(static.names()) == list(table.schema.names)
    for name in table.schema.names:
        flow = static.flow_of(name)
        for provenance in table.provenance:
            refs = runtime_refs(provenance, name)
            assert refs <= flow.sources, (
                f"column {name!r}: runtime {refs} escapes static "
                f"{set(flow.sources)} for {query}"
            )


# -- property: the grown fragment (outer joins, CASE, scalar subqueries) ------
#
# Random SQL *text* in the fragment this PR grows the front-end by:
# RIGHT/FULL/CROSS joins, searched and simple CASE in projections and
# predicates, and scalar subqueries (which the parser hoists into
# name-mangled single-row aggregate views). Each tree is pushed through
# the real ingestion parser, executed on all three engines, and checked
# for (a) value and provenance parity and (b) static lineage covering
# runtime where-provenance.


@st.composite
def extended_fragment_sql(draw) -> str:
    """One statement of SQL text exercising the grown constructs.

    Joined shapes only reference the unambiguous columns (``x``/``s``
    from ``t``, ``z`` from ``u``) so the tree stays inside the resolvable
    fragment regardless of the join style drawn.
    """
    how = draw(
        st.sampled_from(
            [None, "JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN", "CROSS JOIN"]
        )
    )
    joined = how is not None
    plain = ["x", "s", "z"] if joined else ["k", "x", "s"]

    case_items = [
        "CASE WHEN x > 0 THEN s ELSE 'neg' END AS band",
        "CASE WHEN x > 2 THEN 'hi' WHEN x > 0 THEN 'mid' END AS tier",
        "CASE x WHEN 1 THEN 's' WHEN 2 THEN 'd' ELSE 'o' END AS tag",
    ]
    wheres = [
        None,
        "x > 1",
        "(CASE WHEN s = 's1' THEN x ELSE 0 END) >= 0",
        "(CASE x WHEN 1 THEN 1 ELSE 0 END) = 1",
        "x > (SELECT AVG(z) AS a FROM u)",
        "x <= (SELECT MAX(z) AS m FROM u WHERE z > -2)",
    ]
    if joined:
        wheres += ["z IS NOT NULL", "z < (SELECT SUM(x) AS s_x FROM t)"]

    if draw(st.booleans()):  # aggregate form
        group = draw(st.sampled_from(plain[:2]))
        select = [group, "COUNT(*) AS n"]
        if draw(st.booleans()):
            select.append(f"SUM({'z' if joined else 'x'}) AS m")
        tail = f" GROUP BY {group}"
    else:
        select = list(
            draw(st.permutations(plain))[: draw(st.integers(1, len(plain)))]
        )
        if draw(st.booleans()):
            select.append(draw(st.sampled_from(case_items)))
        tail = ""

    sql = "SELECT " + ", ".join(select) + " FROM t"
    if joined:
        on = "" if how == "CROSS JOIN" else " ON k = k"
        sql += f" {how} u{on}"
    where = draw(st.sampled_from(wheres))
    if where is not None:
        sql += f" WHERE {where}"
    return sql + tail + ";"


def _register_synthetics(statement) -> Catalog:
    """A fresh t/u catalog with the statement's hoisted views installed."""
    from repro.relational.catalog import View

    catalog = small_catalog()
    for name, view_query in statement.synthetic_views:
        catalog.add_view(View(name, view_query))
    return catalog


@given(sql=extended_fragment_sql())
@settings(max_examples=150, deadline=None)
def test_extended_fragment_engines_agree_and_lineage_covers(sql):
    """Differential property over the grown fragment: row == columnar
    (values *and* provenance) on the same trees, and static lineage
    over-approximates runtime where-provenance — scalar-subquery cross
    joins and outer-join null padding included."""
    from repro.relational import execute_columnar, execute_row

    (statement,) = parse_all(sql)
    catalog = _register_synthetics(statement)
    query = statement.query

    row = execute_row(query, catalog)
    columnar = execute_columnar(query, catalog)
    assert columnar.schema == row.schema, sql
    assert list(columnar.rows) == list(row.rows), sql
    assert list(columnar.provenance) == list(row.provenance), sql

    static = column_flows(query, catalog)
    assert list(static.names()) == list(row.schema.names), sql
    for name in row.schema.names:
        flow = static.flow_of(name)
        for provenance in row.provenance:
            refs = runtime_refs(provenance, name)
            assert refs <= flow.sources, (
                f"column {name!r}: runtime {refs} escapes static "
                f"{set(flow.sources)} for {sql}"
            )
