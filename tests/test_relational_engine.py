"""Integration tests for the query executor over the paper's tables."""

import pytest

from repro.errors import QueryError
from repro.relational import Engine, Query, View, execute, parse_query
from repro.relational.algebra import AggSpec
from repro.relational.expressions import col


class TestExecution:
    def test_fig4_drug_consumption(self, paper_catalog):
        """The Fig 4 report: consumption per drug over prescriptions."""
        q = parse_query(
            "SELECT drug, COUNT(*) AS consumption FROM prescriptions GROUP BY drug ORDER BY drug"
        )
        out = execute(q, paper_catalog)
        assert {tuple(r) for r in out.rows} == {
            ("DH", 1), ("DV", 1), ("DR", 2), ("DM", 1),
        }

    def test_where_filters(self, paper_catalog):
        q = parse_query("SELECT patient FROM prescriptions WHERE disease = 'HIV'")
        out = execute(q, paper_catalog)
        assert sorted(r[0] for r in out.rows) == ["Alice", "Chris"]

    def test_join_prescriptions_costs(self, paper_catalog):
        q = parse_query(
            "SELECT patient, cost FROM prescriptions JOIN drugcost ON drug = drug "
            "ORDER BY cost DESC LIMIT 1"
        )
        out = execute(q, paper_catalog)
        assert out.rows == [("Alice", 60)]

    def test_view_expansion_carries_provenance(self, paper_catalog):
        q = parse_query("SELECT patient FROM nohiv")
        out = execute(q, paper_catalog)
        base_tables = {r.table for r in out.all_lineage()}
        assert base_tables == {"prescriptions"}
        assert len(out) == 3  # Bob, Math, Alice(asthma)

    def test_having(self, paper_catalog):
        q = (
            Query.from_("prescriptions")
            .group("patient")
            .agg(AggSpec("count", None, "n"))
            .having_(col("n") > 1)
        )
        out = execute(q, paper_catalog)
        assert out.rows == [("Alice", 2)]

    def test_having_without_group_rejected(self, paper_catalog):
        q = Query.from_("prescriptions").having_(col("patient") == "Alice")
        with pytest.raises(QueryError):
            execute(q, paper_catalog)

    def test_distinct(self, paper_catalog):
        q = parse_query("SELECT DISTINCT patient FROM prescriptions")
        out = execute(q, paper_catalog)
        assert len(out) == 4

    def test_unknown_relation_raises(self, paper_catalog):
        with pytest.raises(QueryError):
            execute(Query.from_("missing"), paper_catalog)

    def test_named_result(self, paper_catalog):
        out = execute(Query.from_("prescriptions"), paper_catalog, name="copy")
        assert out.name == "copy"

    def test_select_projection_over_aggregate_must_use_outputs(self, paper_catalog):
        q = (
            Query.from_("prescriptions")
            .group("drug")
            .agg(AggSpec("count", None, "n"))
            .project("patient", "n")
        )
        with pytest.raises(QueryError):
            execute(q, paper_catalog)


class TestEngineWrapper:
    def test_sql_helper(self, paper_catalog):
        engine = Engine(paper_catalog)
        out = engine.sql("SELECT COUNT(*) AS n FROM prescriptions")
        assert out.rows == [(5,)]

    def test_default_catalog(self):
        engine = Engine()
        assert engine.catalog.table_names() == ()

    def test_nested_views(self, paper_catalog):
        paper_catalog.add_view(
            View("asthma_only", parse_query("SELECT patient, drug FROM nohiv WHERE disease != 'HIV'"))
        )
        # nohiv lacks "disease"? it projects it; ensure chain works
        out = execute(parse_query("SELECT patient FROM asthma_only"), paper_catalog)
        assert len(out) == 3


class TestSetOperations:
    """UNION execution: the base grammar rejects set ops, so these queries
    come in through the ingestion grammar (repro.ingest)."""

    @staticmethod
    def parse_union(sql: str) -> Query:
        from repro.ingest import parse_suite_text
        from repro.ingest.dialects import DIALECTS

        (statement,) = parse_suite_text(
            sql + ";", DIALECTS["ansi"], mangle_prefix="eng"
        )
        return statement.query

    def test_union_all_concatenates(self, paper_catalog):
        q = self.parse_union(
            "SELECT patient FROM prescriptions WHERE disease = 'HIV' "
            "UNION ALL SELECT patient FROM prescriptions WHERE disease = 'HIV'"
        )
        out = execute(q, paper_catalog)
        assert sorted(r[0] for r in out.rows) == [
            "Alice", "Alice", "Chris", "Chris",
        ]

    def test_union_deduplicates(self, paper_catalog):
        q = self.parse_union(
            "SELECT patient FROM prescriptions WHERE disease = 'HIV' "
            "UNION SELECT patient FROM prescriptions WHERE disease = 'HIV'"
        )
        out = execute(q, paper_catalog)
        assert sorted(r[0] for r in out.rows) == ["Alice", "Chris"]

    def test_branches_conform_positionally(self, paper_catalog):
        # Branch columns (drug, patient) swap into head names (patient, drug):
        # SQL aligns by position, never by name.
        q = self.parse_union(
            "SELECT patient, drug FROM prescriptions WHERE disease = 'HIV' "
            "UNION ALL SELECT drug, patient FROM prescriptions WHERE disease = 'diabetes'"
        )
        out = execute(q, paper_catalog)
        assert out.schema.names == ("patient", "drug")
        assert ("DM", "Math") in {tuple(r) for r in out.rows}

    def test_conformance_renames_where_provenance(self, paper_catalog):
        """Permuted overlapping names must re-key per-cell provenance too;
        the row and columnar engines must agree on it cell for cell."""
        from repro.relational.columnar import execute_columnar

        q = self.parse_union(
            "SELECT patient, drug FROM prescriptions "
            "UNION ALL SELECT drug, patient FROM prescriptions"
        )
        row = execute(q, paper_catalog)
        col = execute_columnar(q, paper_catalog)
        assert row.rows == col.rows
        n = len(row.rows) // 2
        for i, (pr, pc) in enumerate(zip(row.provenance, col.provenance)):
            source_col = "patient" if i < n else "drug"
            assert {r.column for r in pr.where_of("patient")} == {source_col}
            assert pr.where_of("patient") == pc.where_of("patient")
            assert pr.where_of("drug") == pc.where_of("drug")

    def test_arity_mismatch_is_rejected(self, paper_catalog):
        q = self.parse_union(
            "SELECT patient, drug FROM prescriptions UNION SELECT patient FROM prescriptions"
        )
        with pytest.raises(QueryError):
            execute(q, paper_catalog)


class TestEngineModeEnvironment:
    """``REPRO_ENGINE_MODE`` picks the process default at import."""

    @staticmethod
    def import_with(value):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "REPRO_ENGINE_MODE": value}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "from repro.relational import get_default_config; "
            "print(get_default_config().mode)"
        )
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )

    @pytest.mark.parametrize(
        "value,mode", [("row", "row"), (" COLUMNAR ", "columnar"), ("", "columnar")]
    )
    def test_valid_or_empty_values_select_a_mode(self, value, mode):
        done = self.import_with(value)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == mode

    def test_unknown_value_fails_closed(self):
        done = self.import_with("colunmar")
        assert done.returncode != 0
        assert "ValueError" in done.stderr
        assert "'colunmar'" in done.stderr
        assert "('columnar', 'row')" in done.stderr
