"""Unit tests for the Query builder and the Catalog."""

import pytest

from repro.errors import CatalogError, QueryError
from repro.relational import COLUMNAR, ROW, Catalog, Query, View, execute, parse_query
from repro.relational.catalog import MAX_VIEW_DEPTH, ColumnFlow
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


def two_tables() -> Catalog:
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


class TestOutputNames:
    """``Catalog.output_names`` names what the engine's execution yields."""

    @pytest.fixture
    def cat(self):
        return two_tables()

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


def flow(copied=(), derived=(), aggregated=False) -> ColumnFlow:
    """A flow over ``table.column`` names."""

    def pairs(names):
        return frozenset(tuple(name.split(".")) for name in names)

    return ColumnFlow(pairs(copied), pairs(derived), aggregated)


def flows(cat: Catalog, source) -> tuple[ColumnFlow, ...]:
    names = cat.output_names(source)
    assert tuple(name for name, _ in cat.sources(source)) == names
    return tuple(flow for _, flow in cat.sources(source))


class TestSources:
    """``Catalog.sources`` traces each output to base ``(table, column)``
    pairs: copies, derivations and aggregates, through views."""

    @pytest.fixture
    def cat(self):
        cat = two_tables()
        cat.add_view(View("renamed", parse_query("SELECT k AS key, x AS val FROM t")))
        cat.add_view(
            View("computed", parse_query("SELECT key, val, val + key AS total FROM renamed"))
        )
        cat.add_view(View("summary", parse_query(
            "SELECT key, COUNT(*) AS n, SUM(val) AS s, MIN(val) AS lo, "
            "MAX(total) AS hi FROM computed GROUP BY key"
        )))
        return cat

    def test_copy_derive_and_aggregate_through_views(self, cat):
        assert flows(cat, "renamed") == (flow(["t.k"]), flow(["t.x"]))
        assert flows(cat, "computed") == (
            flow(["t.k"]), flow(["t.x"]), flow(derived=["t.k", "t.x"]),
        )
        assert flows(cat, "summary") == (
            flow(["t.k"]),
            flow(aggregated=True),
            flow(derived=["t.x"], aggregated=True),
            # MIN and MAX hold one base value: a copy, or a derivation when
            # the aggregated column is computed.
            flow(["t.x"], aggregated=True),
            flow(derived=["t.k", "t.x"], aggregated=True),
        )
        assert flows(cat, Query.from_("summary").project(("low", col("lo")))) == (
            flow(["t.x"], aggregated=True),
        )

    def test_join_keys_are_resolved_on_their_own_side(self, cat):
        query = Query.from_("t").join("u", [("k", "k")]).project("y")
        assert cat.resolve(query).keys == (flow(["t.k"]), flow(["u.k"]))
        assert cat.input_sources(query) == {("t", "k"), ("u", "k"), ("u", "y")}
        # A later ON names the left side as the earlier join qualified it.
        chained = Query.from_("t").join("u", [("k", "k")]).join("renamed", [("u.k", "key")])
        assert cat.resolve(chained).keys[2:] == (flow(["u.k"]), flow(["t.k"]))

    @pytest.mark.parametrize(
        "query",
        [
            Query.from_("t").project("ghost"),
            Query.from_("t").project("k", "x").union_with(Query.from_("u").project("y")),
        ],
        ids=["unknown_column", "ragged_union"],
    )
    def test_what_the_engine_refuses_raises(self, cat, query):
        with pytest.raises(CatalogError):
            cat.sources(query)

    def test_view_flows_follow_a_redefinition(self, cat):
        assert flows(cat, "computed")[0] == flow(["t.k"])
        cat.add_view(
            View("renamed", parse_query("SELECT y AS key, k AS val FROM u")), replace=True
        )
        assert flows(cat, "computed") == (
            flow(["u.y"]), flow(["u.k"]), flow(derived=["u.k", "u.y"]),
        )

    def test_a_kept_view_walk_still_meets_the_nesting_limit(self, cat):
        chain(cat, MAX_VIEW_DEPTH + 2)
        # d{MAX - 1} is as deep as a walk may go (its base table is the last
        # level); walking it keeps every link's flows, at the depth each was
        # walked from.
        assert flows(cat, f"d{MAX_VIEW_DEPTH - 1}") == flows(cat, "t")
        for _ in range(2):
            with pytest.raises(CatalogError, match="nesting"):
                cat.sources(f"d{MAX_VIEW_DEPTH}")

    @pytest.mark.parametrize("config", [ROW, COLUMNAR], ids=["row", "columnar"])
    def test_the_nesting_limit_is_the_engines(self, cat, config):
        chain(cat, MAX_VIEW_DEPTH + 2)
        deepest, refused = f"d{MAX_VIEW_DEPTH - 1}", f"d{MAX_VIEW_DEPTH}"
        executed = execute(Query.from_(deepest), cat, config=config)
        assert flows(cat, deepest) == flows(cat, "t")
        assert cat.output_names(deepest) == executed.schema.names
        with pytest.raises(QueryError, match="nesting"):
            execute(Query.from_(refused), cat, config=config)
        for answer in (cat.sources, cat.output_names):
            with pytest.raises(CatalogError, match="nesting"):
                answer(refused)


def chain(cat: Catalog, length: int) -> None:
    """Views ``d0 → … → d{length - 1}``, each ``SELECT *`` of the one before,
    over table ``t``."""
    previous = "t"
    for i in range(length):
        cat.add_view(View(f"d{i}", Query.from_(previous)))
        previous = f"d{i}"
