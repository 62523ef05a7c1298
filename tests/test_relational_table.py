"""Unit tests for Table, RowId, and provenance bookkeeping."""

import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.relational import Catalog, ExecutionConfig, execute, parse_query
from repro.relational.plancache import PlanCache
from repro.relational.table import CellRef, RowId, RowProvenance, Table, make_schema
from repro.relational.types import ColumnType


def people_schema():
    return make_schema(
        ("name", ColumnType.STRING, False), ("age", ColumnType.INT)
    )


class TestInsert:
    def test_insert_assigns_sequential_row_ids(self):
        table = Table("t", people_schema(), provider="p")
        first = table.insert(("Ada", 30))
        second = table.insert(("Bo", 40))
        assert first == RowId("p", "t", 0)
        assert second == RowId("p", "t", 1)

    def test_insert_mapping(self):
        table = Table("t", people_schema())
        table.insert({"age": 30, "name": "Ada"})
        assert table.row_dict(0) == {"name": "Ada", "age": 30}

    def test_insert_coerces(self):
        table = Table("t", people_schema())
        table.insert(("Ada", "30"))
        assert table.rows[0][1] == 30

    def test_wrong_arity_rejected(self):
        table = Table("t", people_schema())
        with pytest.raises(SchemaError):
            table.insert(("Ada", 30, "extra"))

    def test_null_in_non_nullable_rejected(self):
        table = Table("t", people_schema())
        with pytest.raises(TypeMismatchError):
            table.insert((None, 30))

    def test_insert_many_returns_ids(self):
        table = Table("t", people_schema())
        ids = table.insert_many([("A", 1), ("B", 2)])
        assert [r.ordinal for r in ids] == [0, 1]


class TestProvenance:
    def test_base_row_lineage_is_itself(self):
        table = Table("t", people_schema(), provider="p")
        row_id = table.insert(("Ada", 30))
        assert table.lineage_of(0) == frozenset([row_id])

    def test_base_row_where_is_per_cell(self):
        table = Table("t", people_schema(), provider="p")
        row_id = table.insert(("Ada", 30))
        prov = table.provenance[0]
        assert prov.where_of("name") == frozenset([CellRef(row_id, "name")])
        assert prov.where_of("age") == frozenset([CellRef(row_id, "age")])

    def test_merged_unions_lineage_and_where(self):
        r1 = RowId("p", "t", 0)
        r2 = RowId("p", "u", 0)
        a = RowProvenance(
            lineage=frozenset([r1]), where={"x": frozenset([CellRef(r1, "x")])}
        )
        b = RowProvenance(
            lineage=frozenset([r2]), where={"y": frozenset([CellRef(r2, "y")])}
        )
        merged = a.merged(b)
        assert merged.lineage == frozenset([r1, r2])
        assert merged.where_of("x") and merged.where_of("y")

    def test_projected_remaps_names(self):
        r1 = RowId("p", "t", 0)
        prov = RowProvenance(
            lineage=frozenset([r1]), where={"x": frozenset([CellRef(r1, "x")])}
        )
        projected = prov.projected({"renamed": "x"})
        assert projected.where_of("renamed") == frozenset([CellRef(r1, "x")])
        assert projected.where_of("x") == frozenset()

    def test_all_lineage(self):
        table = Table("t", people_schema(), provider="p")
        table.insert_many([("A", 1), ("B", 2)])
        assert table.all_lineage() == frozenset(
            [RowId("p", "t", 0), RowId("p", "t", 1)]
        )


class TestFootprintMemo:
    # Rows over the same relations share one footprint set, so sharing is
    # checked on the memo slot before any call could recompute it.
    def test_hits_subsets_and_projections_share_the_memo(self):
        catalog = Catalog()
        catalog.add_table(
            Table.from_rows("t", people_schema(), [("A", 1), ("B", 2)], provider="p")
        )
        config = ExecutionConfig(mode="columnar", plan_cache=PlanCache())
        query = parse_query("SELECT name, age FROM t WHERE age > 1")
        miss = execute(query, catalog, config=config)
        memo = miss.provenance[0].footprint()
        assert memo == frozenset({"p/t"})
        hit = execute(query, catalog, config=config)
        assert hit.provenance[0]._footprint is memo
        assert hit.take([0, 0]).provenance[1]._footprint is memo
        assert hit.provenance[0].projected({"who": "name"})._footprint is memo

    def test_merged_recomputes_the_memo(self):
        left = Table.from_rows("t", people_schema(), [("A", 1)], provider="p")
        right = Table.from_rows("u", people_schema(), [("B", 2)], provider="q")
        a, b = left.provenance[0], right.provenance[0]
        memos = (a.footprint(), b.footprint())
        merged = a.merged(b).footprint()
        assert merged == frozenset({"p/t", "q/u"})
        assert all(merged is not memo for memo in memos)


class TestAccess:
    def test_iter_dicts(self):
        table = Table.from_rows("t", people_schema(), [("A", 1), ("B", 2)])
        assert list(table.iter_dicts()) == [
            {"name": "A", "age": 1},
            {"name": "B", "age": 2},
        ]

    def test_column_values_and_distinct(self):
        table = Table.from_rows("t", people_schema(), [("A", 1), ("B", None), ("A", 1)])
        assert table.column_values("age") == [1, None, 1]
        assert table.distinct_values("age") == {1}

    def test_filter_rows_keeps_provenance(self):
        table = Table.from_rows("t", people_schema(), [("A", 1), ("B", 2)], provider="p")
        out = table.filter_rows(lambda row: row["age"] > 1)
        assert (len(out), out.name, out.provider) == (1, "t", "derived")
        assert out.lineage_of(0) == frozenset([RowId("p", "t", 1)])

    def test_take_gathers_in_order_with_source_name_and_provider(self):
        table = Table.from_rows(
            "t", people_schema(), [("A", 1), ("B", 2), ("C", 3)], provider="p"
        )
        out = table.take([2, 0, 2])
        assert (out.name, out.provider, out.schema) == ("t", "p", table.schema)
        assert out.rows == [("C", 3), ("A", 1), ("C", 3)]
        assert out.provenance == [table.provenance[i] for i in (2, 0, 2)]
        out.insert(("D", 4))
        assert len(table) == 3

    def test_take_with_explicit_name_and_provider(self):
        table = Table.from_rows("t", people_schema(), [("A", 1), ("B", 2)], provider="p")
        out = table.take([1], name="pub", provider="warehouse")
        assert (out.name, out.provider) == ("pub", "warehouse")
        assert out.lineage_of(0) == frozenset([RowId("p", "t", 1)])

    def test_take_of_no_indices_is_empty(self):
        table = Table.from_rows("t", people_schema(), [("A", 1)], provider="p")
        out = table.take([])
        assert (len(out), out.provenance, out.name, out.provider) == (0, [], "t", "p")
        assert out.footprint() == frozenset()

    def test_derived_requires_matching_lengths(self):
        with pytest.raises(SchemaError):
            Table.derived("t", people_schema(), [("A", 1)], [])

    def test_pretty_contains_header_and_null(self):
        table = Table.from_rows("t", people_schema(), [("A", None)])
        text = table.pretty()
        assert "name" in text and "NULL" in text

    def test_pretty_truncates(self):
        table = Table.from_rows("t", people_schema(), [("A", i) for i in range(20)])
        assert "more rows" in table.pretty(limit=3)
