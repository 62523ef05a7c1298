"""Vector fast path: the fused kernels agree with the row reference.

The heavyweight value/lineage/where differential lives in
``test_engine_differential.py`` (which now exercises the vector path by
default). This module pins the vector layer's own contracts:

* ``MaskProvenance`` decodes to exactly the reference engine's provenance,
  aggregates' group rows included;
* the fast path actually engages on eligible plans (lazy provenance marker
  on the result);
* views in FROM position are inlined at plan time (recursively, within the
  resolver's nesting limit) and every other view shape declines to the row
  engine's operators;
* an inlined view's joined frame is reused while the catalog state its body
  reads is unchanged, and never narrowed, shared or trusted past it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import QueryError
from repro.relational import (
    COLUMNAR,
    ROW,
    Catalog,
    ExecutionConfig,
    PlanCache,
    Query,
    Table,
    View,
    execute,
    make_schema,
    parse_query,
)
from repro.relational import vector
from repro.relational.types import ColumnType
from repro.relational.vector import try_vector_core

UNCACHED = ExecutionConfig(mode="columnar", use_plan_cache=False)


# ---------------------------------------------------------------------------
# Engine parity and fast-path engagement
# ---------------------------------------------------------------------------


def _catalog() -> Catalog:
    cat = Catalog()
    schema = make_schema(
        ("k", ColumnType.INT),
        ("category", ColumnType.STRING),
        ("value", ColumnType.INT),
    )
    rows = [(i % 7, "abcde"[i % 5], (i * 37) % 100) for i in range(120)]
    cat.add_table(Table.from_rows("t", schema, rows, provider="p"))
    dim = make_schema(("k", ColumnType.INT), ("label", ColumnType.STRING))
    cat.add_table(
        Table.from_rows(
            "d", dim, [(i, f"label{i}") for i in range(7)], provider="q"
        )
    )
    return cat

QUERIES = [
    "SELECT category, value FROM t WHERE value > 40",
    "SELECT category, label FROM t JOIN d ON k = k WHERE value < 80",
    "SELECT category, COUNT(*) AS n, SUM(value) AS total FROM t GROUP BY category",
]


def _normalized(table: Table):
    return sorted(
        (row, prov.lineage, tuple(sorted(prov.where.items())))
        for row, prov in zip(table.rows, table.provenance)
    )


def test_vector_path_matches_row_reference_including_provenance():
    cat = _catalog()
    for sql in QUERIES:
        query = parse_query(sql)
        reference = execute(query, cat, config=ROW)
        fused = execute(query, cat, config=UNCACHED)
        assert _normalized(fused) == _normalized(reference), sql


def test_fast_path_engages_and_yields_lazy_provenance():
    cat = _catalog()
    for sql in QUERIES:
        query = parse_query(sql)
        assert try_vector_core(query, cat) is not None, sql
        out = execute(query, cat, config=UNCACHED)
        assert getattr(out.provenance, "lazy_provenance", False), sql


def test_ineligible_shapes_fall_back_cleanly():
    cat = _catalog()
    # LEFT joins decline to the row engine's operators.
    query = parse_query(
        "SELECT category, label FROM t LEFT JOIN d ON k = k"
    )
    assert try_vector_core(query, cat) is None
    assert _normalized(execute(query, cat, config=UNCACHED)) == _normalized(
        execute(query, cat, config=ROW)
    )


# ---------------------------------------------------------------------------
# Grouped provenance: each group's frame rows, read through a leaf's index
# ---------------------------------------------------------------------------


def _assert_same(fused: Table, reference: Table) -> None:
    """Schema, rows in order and decoded provenance equal the reference's."""
    assert fused.schema.names == reference.schema.names
    assert fused.rows == reference.rows
    assert list(fused.provenance) == list(reference.provenance)


def _assert_matches_reference(query: Query, cat: Catalog) -> None:
    reference = execute(query, cat, config=ROW)
    _assert_same(execute(query, cat, config=UNCACHED), reference)
    # The plan cache decodes on commit, and its hit shares the decoded rows.
    cached = ExecutionConfig(mode="columnar", plan_cache=PlanCache())
    _assert_same(execute(query, cat, config=cached), reference)
    _assert_same(execute(query, cat, config=cached), reference)


@pytest.mark.parametrize(
    "sql, group_rows",
    [
        # A byte-coded key over a base table: groups are 0/1 selectors.
        (
            "SELECT category, COUNT(*) AS n, SUM(value) AS total "
            "FROM t GROUP BY category",
            bytes,
        ),
        # A byte-coded key over a join whose rows both leaves gather.
        (
            "SELECT label, COUNT(*) AS n, SUM(value) AS total "
            "FROM d JOIN t ON k = k WHERE value > 20 GROUP BY label",
            bytes,
        ),
        # A multi-key group over a join: member lists, and each dimension
        # row feeds several members of its group.
        (
            "SELECT category, label, COUNT(*) AS n, MAX(value) AS peak "
            "FROM t JOIN d ON k = k GROUP BY category, label",
            list,
        ),
        # HAVING keeps 3 of 5 selector groups, then 3 of 7 member groups.
        (
            "SELECT category, SUM(value) AS total FROM t JOIN d ON k = k "
            "GROUP BY category HAVING total > 1150",
            bytes,
        ),
        (
            "SELECT k, SUM(value) AS total FROM t GROUP BY k HAVING total > 840",
            list,
        ),
    ],
)
def test_grouped_provenance_decodes_to_the_reference(sql, group_rows):
    cat = _catalog()
    query = parse_query(sql)
    fast = try_vector_core(query, cat)
    assert fast is not None
    contribs = fast.provenance.contribs
    assert {c.kind for c in contribs} == {"group"}
    assert all(isinstance(c.data[0], group_rows) for c in contribs)
    if query.having is not None:
        everything = execute(dataclasses.replace(query, having=None), cat)
        assert 0 < len(fast) < len(everything)
    _assert_matches_reference(query, cat)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT category, SUM(value) AS total FROM t JOIN d ON k = k "
        "GROUP BY category ORDER BY total DESC LIMIT 3",
        "SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k DESC",
        "SELECT category, label, COUNT(*) AS n FROM t JOIN d ON k = k "
        "GROUP BY category, label LIMIT 4",
    ],
)
def test_order_and_limit_after_an_aggregate_core(sql):
    _assert_matches_reference(parse_query(sql), _catalog())


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT category, COUNT(*) AS n FROM t WHERE value > 1000 GROUP BY category",
        "SELECT COUNT(*) AS n, SUM(value) AS total FROM t WHERE value > 1000",
        "SELECT category, COUNT(*) AS n FROM e GROUP BY category",
        "SELECT k, COUNT(*) AS n FROM e GROUP BY k",
        "SELECT COUNT(*) AS n FROM e JOIN d ON k = k",
    ],
)
def test_grouped_provenance_over_empty_input(sql):
    cat = _catalog()
    cat.add_table(Table("e", cat.table("t").schema, provider="p"))
    query = parse_query(sql)
    assert try_vector_core(query, cat) is not None
    _assert_matches_reference(query, cat)


# ---------------------------------------------------------------------------
# Views inlined at plan time
# ---------------------------------------------------------------------------


def _view_catalog() -> Catalog:
    cat = _catalog()
    cat.add_view(
        View(
            "v1",
            parse_query(
                "SELECT k, category AS cat, value FROM t WHERE value > 10"
            ),
        )
    )
    cat.add_view(View("v2", parse_query("SELECT k AS key, cat, value AS v FROM v1")))
    cat.add_view(
        View(
            "v3",
            parse_query(
                "SELECT t.k AS tk, d.k AS dk, label, value FROM t JOIN d ON k = k"
            ),
        )
    )
    return cat


def test_view_chains_inline_onto_base_leaves():
    cat = _view_catalog()
    for sql in (
        "SELECT cat, v FROM v2 WHERE v < 90",
        "SELECT cat, COUNT(*) AS n, SUM(v) AS total FROM v2 GROUP BY cat",
        "SELECT cat, label FROM v2 JOIN d ON key = k WHERE v < 80",
        "SELECT dk, label, SUM(value) AS total FROM v3 GROUP BY dk, label",
    ):
        query = parse_query(sql)
        fast = try_vector_core(query, cat)
        assert fast is not None, sql
        # The mask provenance points straight at base-table rows.
        assert all(
            any(leaf is cat.table(name).provenance for name in ("t", "d"))
            for leaf in fast.provenance.leaves
        ), sql
        assert _normalized(execute(query, cat, config=UNCACHED)) == _normalized(
            execute(query, cat, config=ROW)
        ), sql


def test_inlined_view_qualifies_join_collisions_by_view_name():
    cat = _catalog()
    cat.add_view(View("v", parse_query("SELECT k, value FROM t WHERE value > 50")))
    query = Query.from_("v").join("d", [("k", "k")]).project("v.k", "d.k", "label")
    fast = try_vector_core(query, cat)
    assert fast is not None
    assert fast.schema.names == ("v.k", "d.k", "label")
    assert _normalized(execute(query, cat, config=UNCACHED)) == _normalized(
        execute(query, cat, config=ROW)
    )


@pytest.mark.parametrize(
    "body",
    [
        "SELECT k, value + 1 AS value FROM t",  # computed column
        "SELECT DISTINCT k, value FROM t",
        "SELECT t.k AS k, value FROM t LEFT JOIN d ON k = k",
        "SELECT k, SUM(value) AS value FROM t GROUP BY k",
        "SELECT k, value FROM t ORDER BY value",
        "SELECT k, value FROM t LIMIT 5",
        Query.from_("t").project("k", "value").union_with(
            Query.from_("t").project("k", "value"), all=True
        ),
        "SELECT t.k AS k, value FROM t JOIN w ON k = k",  # a view on the right
    ],
)
def test_ineligible_view_bodies_decline(body):
    cat = _catalog()
    cat.add_view(View("w", parse_query("SELECT k AS k FROM d")))
    cat.add_view(View("v", parse_query(body) if isinstance(body, str) else body))
    query = parse_query("SELECT k, value FROM v WHERE value > 20")
    assert try_vector_core(query, cat) is None
    assert _normalized(execute(query, cat, config=UNCACHED)) == _normalized(
        execute(query, cat, config=ROW)
    )


def test_view_on_the_join_right_side_declines():
    cat = _view_catalog()
    query = parse_query("SELECT label, cat FROM d JOIN v2 ON k = key")
    assert try_vector_core(query, cat) is None


def test_inlined_chains_count_against_the_nesting_limit():
    cat = _catalog()
    cat.add_view(View("c0", parse_query("SELECT k, value FROM t")))
    for i in range(1, 34):
        cat.add_view(View(f"c{i}", parse_query(f"SELECT k, value FROM c{i - 1}")))
    assert try_vector_core(parse_query("SELECT k FROM c31"), cat) is not None
    # Nested under a caller already at depth 1, the same chain is too deep.
    with pytest.raises(QueryError, match="nesting"):
        try_vector_core(parse_query("SELECT k FROM c31"), cat, 1)
    with pytest.raises(QueryError, match="nesting"):
        execute(parse_query("SELECT k FROM c33"), cat, config=UNCACHED)


# ---------------------------------------------------------------------------
# One joined frame per view per catalog state
# ---------------------------------------------------------------------------

STAR = "SELECT t.k AS tk, category, value, label FROM t JOIN d ON k = k"


def _star_catalog() -> Catalog:
    cat = _catalog()
    cat.add_view(View("star", parse_query(STAR)))
    return cat


@pytest.fixture
def probes(monkeypatch):
    """Counts the hash joins the vector kernels run."""
    calls = []
    probe = vector._probe_inner

    def counting(left_keys, right_keys):
        calls.append(1)
        return probe(left_keys, right_keys)

    monkeypatch.setattr(vector, "_probe_inner", counting)
    return calls


def _joins(probes, query: Query, cat: Catalog) -> int:
    """How many hash joins one uncached execution of ``query`` ran; its
    result equals the row reference's."""
    before = len(probes)
    _assert_same(execute(query, cat, config=UNCACHED), execute(query, cat, config=ROW))
    return len(probes) - before


@pytest.mark.parametrize(
    "table, row", [("t", (3, "a", 55)), ("d", (3, "label3b"))]
)
def test_an_insert_joins_the_view_again(probes, table, row):
    cat = _star_catalog()
    report = parse_query("SELECT label, SUM(value) AS total FROM star GROUP BY label")
    assert _joins(probes, report, cat) == 1
    assert _joins(probes, report, cat) == 0
    cat.table(table).insert(row)
    assert _joins(probes, report, cat) == 1
    assert _joins(probes, report, cat) == 0


def test_replacing_the_view_joins_again(probes):
    cat = _star_catalog()
    report = parse_query("SELECT category, label FROM star")
    assert _joins(probes, report, cat) == 1
    cat.add_view(View("star", parse_query(STAR + " WHERE value > 50")), replace=True)
    assert _joins(probes, report, cat) == 1
    assert _joins(probes, report, cat) == 0


def test_an_outer_where_does_not_narrow_the_kept_frame(probes):
    cat = _star_catalog()
    assert _joins(probes, parse_query("SELECT label FROM star WHERE value > 90"), cat) == 1
    # The same frame, unnarrowed, then extended by a join of the caller's.
    assert _joins(probes, parse_query("SELECT label, value FROM star"), cat) == 0
    joined = parse_query("SELECT category, d.label AS dl FROM star JOIN d ON tk = k")
    assert _joins(probes, joined, cat) == 1
    assert _joins(probes, parse_query("SELECT tk, label FROM star"), cat) == 0


def test_catalogs_do_not_share_a_view_frame(probes):
    first = _star_catalog()
    second = _catalog()
    second.table("t").insert((1, "z", 999))
    second.add_view(View("star", parse_query(STAR + " WHERE value > 500")))
    report = parse_query("SELECT category, COUNT(*) AS n FROM star GROUP BY category")
    assert _joins(probes, report, first) == 1
    assert _joins(probes, report, second) == 1
    assert execute(report, second, config=UNCACHED).rows == [("z", 1)]


def test_a_kept_frame_raises_what_a_fresh_walk_raises():
    # The nesting limit: test_inlined_chains_count_against_the_nesting_limit
    # keeps the chain's frames at depth 0, then asks for them at depth 1.
    # Here a base table the kept frame joined goes away.
    cat = _star_catalog()
    query = parse_query("SELECT label FROM star")
    execute(query, cat, config=UNCACHED)
    cat.drop("d")
    for config in (UNCACHED, ROW):
        with pytest.raises(QueryError, match="unknown relation 'd'"):
            execute(query, cat, config=config)
