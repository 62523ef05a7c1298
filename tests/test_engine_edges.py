"""Edge-case tests for engine internals: view depth, VPD expansion, misc."""

import pytest

from repro.errors import QueryError
from repro.policy import ColumnMask, SubjectRegistry, VPDPolicy, VPDRule
from repro.relational import (
    Catalog,
    Query,
    Table,
    View,
    execute,
    make_schema,
    parse_query,
)
from repro.relational.types import ColumnType


def one_column_table(name="t0"):
    return Table.from_rows(
        name, make_schema(("a", ColumnType.INT)), [(1,), (2,)], provider="p"
    )


class TestViewChains:
    def test_deep_view_chain_executes(self):
        cat = Catalog()
        cat.add_table(one_column_table())
        for i in range(1, 20):
            cat.add_view(View(f"t{i}", parse_query(f"SELECT a FROM t{i - 1}")))
        out = execute(parse_query("SELECT a FROM t19"), cat)
        assert len(out) == 2
        # lineage survives 19 levels of views
        assert {r.table for r in out.all_lineage()} == {"t0"}

    def test_view_depth_limit_enforced(self):
        cat = Catalog()
        cat.add_table(one_column_table())
        for i in range(1, 40):
            cat.add_view(View(f"t{i}", parse_query(f"SELECT a FROM t{i - 1}")))
        with pytest.raises(QueryError, match="nesting"):
            execute(parse_query("SELECT a FROM t39"), cat)

    def test_view_over_missing_relation_fails_at_execution(self):
        cat = Catalog()
        cat.add_view(View("v", parse_query("SELECT a FROM ghost")))
        with pytest.raises(QueryError):
            execute(parse_query("SELECT a FROM v"), cat)


class TestVpdExpansionEdges:
    def _world(self):
        cat = Catalog()
        cat.add_table(one_column_table("t"))
        subjects = SubjectRegistry()
        subjects.purposes.declare("care")
        subjects.add_role("analyst")
        subjects.add_user("ann", "analyst")
        return cat, subjects.context("ann", "care")

    def test_select_star_through_projected_view_masks(self):
        cat, ctx = self._world()
        cat.add_view(View("v", parse_query("SELECT a FROM t")))
        policy = VPDPolicy()
        policy.add_rule(VPDRule("t", masks=(ColumnMask("a", -1),)))
        out = policy.run(parse_query("SELECT * FROM v"), cat, ctx)
        assert all(r[0] == -1 for r in out.rows)

    def test_select_star_through_star_view_masks(self):
        cat, ctx = self._world()
        cat.add_view(View("v", Query.from_("t")))  # SELECT * view
        policy = VPDPolicy()
        policy.add_rule(VPDRule("t", masks=(ColumnMask("a"),)))
        out = policy.run(parse_query("SELECT * FROM v"), cat, ctx)
        assert out.schema.names == ("a",)
        assert all(r == (None,) for r in out.rows)

    @staticmethod
    def _visits(cat):
        S = ColumnType.STRING
        cat.add_table(Table.from_rows(
            "visits", make_schema(("patient", S), ("region", S)),
            [("Alice", "north"), ("Bob", "south")], provider="h",
        ))
        cat.add_table(Table.from_rows(
            "regions", make_schema(("rname", S), ("mayor", S)),
            [("north", "Mia"), ("south", "Sol")], provider="m",
        ))
        cat.add_table(Table.from_rows(
            "kin", make_schema(("patient", S), ("rname", S)),
            [("Carl", "north"), ("Dana", "south")], provider="m",
        ))

    def test_select_star_over_a_join_keeps_the_joined_columns(self):
        cat, ctx = self._world()
        self._visits(cat)
        policy = VPDPolicy()
        policy.add_rule(VPDRule("visits", masks=(ColumnMask("patient"),)))
        query = parse_query("SELECT * FROM visits JOIN regions ON region = rname")
        out = policy.run(query, cat, ctx)
        assert out.schema.names == execute(query, cat).schema.names
        assert sorted(out.rows) == [(None, "north", "north", "Mia"),
                                    (None, "south", "south", "Sol")]

    def test_mask_follows_its_relation_through_join_qualification(self):
        cat, ctx = self._world()
        self._visits(cat)
        policy = VPDPolicy()
        policy.add_rule(VPDRule("visits", masks=(ColumnMask("patient"),)))
        query = parse_query("SELECT * FROM visits JOIN kin ON region = rname")
        out = policy.run(query, cat, ctx)
        assert out.schema.names[0] == "visits.patient"
        assert set(out.column_values("visits.patient")) == {None}
        assert set(out.column_values("kin.patient")) == {"Carl", "Dana"}
        explicit = parse_query(
            "SELECT visits.patient, kin.patient FROM visits JOIN kin ON region = rname"
        )
        out = policy.run(explicit, cat, ctx)
        assert sorted(out.rows) == [(None, "Carl"), (None, "Dana")]

    def test_mask_follows_its_column_through_a_join_view(self):
        cat, ctx = self._world()
        self._visits(cat)
        cat.add_view(View("jv", parse_query(
            "SELECT * FROM visits JOIN kin ON region = rname"
        )))
        policy = VPDPolicy()
        policy.add_rule(VPDRule("visits", masks=(ColumnMask("patient"),)))
        for sql in ("SELECT * FROM jv", "SELECT visits.patient, kin.patient FROM jv"):
            out = policy.run(parse_query(sql), cat, ctx)
            assert set(out.column_values("visits.patient")) == {None}
            assert set(out.column_values("kin.patient")) == {"Carl", "Dana"}

    def test_mask_follows_its_column_through_a_renaming_view(self):
        cat, ctx = self._world()
        self._visits(cat)
        cat.add_view(View("who", parse_query(
            "SELECT patient AS name, region FROM visits"
        )))
        policy = VPDPolicy()
        policy.add_rule(VPDRule("visits", masks=(ColumnMask("patient"),)))
        for sql in ("SELECT * FROM who", "SELECT name FROM who"):
            out = policy.run(parse_query(sql), cat, ctx)
            assert set(out.column_values("name")) == {None}

    def test_union_branches_are_masked_by_their_own_relations(self):
        cat, ctx = self._world()
        self._visits(cat)
        policy = VPDPolicy()
        policy.add_rule(VPDRule("visits", masks=(ColumnMask("patient"),)))
        query = parse_query("SELECT patient FROM kin").union_with(
            parse_query("SELECT patient FROM visits")
        )
        out = policy.run(query, cat, ctx)
        assert sorted(out.rows, key=str) == [("Carl",), ("Dana",), (None,)]

    def test_computed_column_over_masked_rejected(self):
        cat, ctx = self._world()
        policy = VPDPolicy()
        policy.add_rule(VPDRule("t", masks=(ColumnMask("a"),)))
        with pytest.raises(QueryError, match="masked"):
            policy.run(parse_query("SELECT a + 1 AS b FROM t"), cat, ctx)


class TestParserEdges:
    def test_group_by_date_column(self):
        # "date" is both a keyword and the paper's column name.
        q = parse_query("SELECT date, COUNT(*) AS n FROM t GROUP BY date ORDER BY date")
        assert q.group_by == ("date",)
        assert q.order == (("date", False),)

    def test_limit_zero(self, paper_catalog):
        out = execute(parse_query("SELECT patient FROM prescriptions LIMIT 0"), paper_catalog)
        assert len(out) == 0

    def test_empty_in_list_rejected(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            parse_query("SELECT a FROM t WHERE a IN ()")

    def test_double_where_rejected(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            parse_query("SELECT a FROM t WHERE a = 1 WHERE b = 2")
