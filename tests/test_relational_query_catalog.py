"""Unit tests for the Query builder and the Catalog."""

import pytest

from repro.errors import CatalogError, QueryError
from repro.relational import COLUMNAR, ROW, Catalog, Query, View, execute
from repro.relational.catalog import MAX_VIEW_DEPTH
from repro.relational.algebra import AggSpec
from repro.relational.expressions import col
from repro.relational.table import Table, make_schema
from repro.relational.types import ColumnType


class TestQueryBuilder:
    def test_from_requires_name(self):
        with pytest.raises(QueryError):
            Query.from_("")

    def test_builder_is_immutable(self):
        base = Query.from_("t")
        filtered = base.filter(col("a") > 1)
        assert base.where is None and filtered.where is not None

    def test_filter_ands_predicates(self):
        q = Query.from_("t").filter(col("a") > 1).filter(col("b") > 2)
        assert "AND" in str(q.where)

    def test_join_clause_validation(self):
        with pytest.raises(QueryError):
            Query.from_("t").join("u", [], how="inner")
        with pytest.raises(QueryError):
            Query.from_("t").join("u", [("a", "b")], how="cross")

    def test_referenced_relations(self):
        q = Query.from_("t").join("u", [("a", "b")]).join("v", [("c", "d")])
        assert q.referenced_relations() == ("t", "u", "v")

    def test_output_names_with_select(self):
        q = Query.from_("t").project("a", ("b2", col("b")))
        assert q.output_names() == ("a", "b2")

    def test_output_names_with_aggregate(self):
        q = Query.from_("t").group("g").agg(AggSpec("count", None, "n"))
        assert q.output_names() == ("g", "n")

    def test_output_names_select_star(self):
        assert Query.from_("t").output_names() is None

    def test_columns_used(self):
        q = (
            Query.from_("t")
            .join("u", [("a", "b")])
            .filter(col("c") > 1)
            .group("g")
            .agg(AggSpec("sum", "m", "s"))
            .order_by("g")
        )
        assert q.columns_used() == frozenset({"a", "b", "c", "g", "m"})

    def test_describe_is_sqlish(self):
        q = (
            Query.from_("t")
            .filter(col("a") > 1)
            .group("g")
            .agg(AggSpec("count", None, "n"))
            .order_by(("n", True))
            .limit(5)
        )
        text = q.describe()
        for fragment in ("SELECT", "FROM t", "WHERE", "GROUP BY g", "ORDER BY n DESC", "LIMIT 5"):
            assert fragment in text

    def test_limit_negative_rejected(self):
        with pytest.raises(QueryError):
            Query.from_("t").limit(-1)


class TestCatalog:
    def _table(self, name="t"):
        return Table.from_rows(
            name, make_schema(("a", ColumnType.INT)), [(1,)], provider="p"
        )

    def test_add_and_lookup(self):
        cat = Catalog()
        cat.add_table(self._table())
        assert cat.is_table("t") and "t" in cat
        assert cat.table("t").rows == [(1,)]

    def test_duplicate_name_rejected(self):
        cat = Catalog()
        cat.add_table(self._table())
        with pytest.raises(CatalogError):
            cat.add_table(self._table())

    def test_replace_allowed_when_requested(self):
        cat = Catalog()
        cat.add_table(self._table())
        cat.add_table(self._table(), replace=True)

    def test_view_registration_and_names(self):
        cat = Catalog()
        cat.add_table(self._table())
        cat.add_view(View("v", Query.from_("t")))
        assert cat.is_view("v")
        assert cat.view_names() == ("v",)
        assert cat.table_names() == ("t",)

    def test_missing_lookups_raise(self):
        cat = Catalog()
        with pytest.raises(CatalogError):
            cat.table("nope")
        with pytest.raises(CatalogError):
            cat.view("nope")
        with pytest.raises(CatalogError):
            cat.drop("nope")

    def test_drop(self):
        cat = Catalog()
        cat.add_table(self._table())
        cat.drop("t")
        assert "t" not in cat

    def test_self_referencing_view_rejected(self):
        cat = Catalog()
        with pytest.raises(CatalogError):
            cat.add_view(View("v", Query.from_("v")))

    def test_base_relations_through_views(self):
        cat = Catalog()
        cat.add_table(self._table("t"))
        cat.add_table(self._table("u"))
        cat.add_view(View("v1", Query.from_("t")))
        cat.add_view(View("v2", Query.from_("v1").join("u", [("a", "a")])))
        assert cat.base_relations("v2") == frozenset({"t", "u"})

    def test_base_relations_of_query(self):
        cat = Catalog()
        cat.add_table(self._table("t"))
        cat.add_view(View("v", Query.from_("t")))
        q = Query.from_("v")
        assert cat.base_relations_of_query(q) == frozenset({"t"})


class TestOutputNames:
    """``Catalog.output_names`` names what the engine's execution yields."""

    @pytest.fixture
    def cat(self):
        cat = Catalog()
        cat.add_table(
            Table.from_rows(
                "t",
                make_schema(("k", ColumnType.INT), ("x", ColumnType.INT)),
                [(1, 10), (2, 20)],
                provider="p",
            )
        )
        cat.add_table(
            Table.from_rows(
                "u",
                make_schema(("k", ColumnType.INT), ("y", ColumnType.INT)),
                [(1, 5), (3, 7)],
                provider="q",
            )
        )
        return cat

    @pytest.mark.parametrize("config", [ROW, COLUMNAR], ids=["row", "columnar"])
    @pytest.mark.parametrize(
        "views",
        [
            # A colliding join column is qualified by its relation's name.
            [("jv", Query.from_("t").join("u", [("k", "k")]))],
            # A set operation is named by its head alone.
            [("uv", Query.from_("t").union_with(Query.from_("u")))],
            # Each link of a chain answers for the next.
            [
                ("v1", Query.from_("t").project("k", ("x2", col("x")))),
                ("v2", Query.from_("v1").filter(col("x2") > 0)),
            ],
        ],
        ids=["join_collision", "union", "two_view_chain"],
    )
    def test_matches_execution(self, cat, views, config):
        for name, query in views:
            cat.add_view(View(name, query))
        last = views[-1][0]
        executed = execute(Query.from_(last), cat, config=config)
        assert cat.output_names(last) == executed.schema.names
        assert cat.output_names(Query.from_(last)) == executed.schema.names

    def test_explicit_select_list_is_answered_first(self, cat):
        q = Query.from_("missing").project("a", ("b", col("a")))
        assert cat.output_names(q) == ("a", "b")

    def test_view_chain_deeper_than_limit_is_refused(self, cat):
        previous = "t"
        for i in range(MAX_VIEW_DEPTH + 2):
            cat.add_view(View(f"d{i}", Query.from_(previous)))
            previous = f"d{i}"
        with pytest.raises(CatalogError):
            cat.output_names(previous)
