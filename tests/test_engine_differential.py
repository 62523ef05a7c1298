"""Differential tests: the production executor against the row-store
reference engine.

The row engine (:func:`repro.relational.execute_row`) is the semantics
oracle. For hypothesis-generated random tables (NULL-heavy) and random query
trees — FROM a base table or a view over it, joins (inner and left outer),
three-valued WHERE logic, grouping and aggregates, HAVING, computed
projections, DISTINCT, UNION, ORDER BY, LIMIT — the columnar path (fused vector
cores, declined cores on the row operators; plan caching disabled, so every
run actually executes) must produce:

* the same output schema,
* the same rows in the same order (which implies bag equality), and
* *identical provenance*: why-lineage and per-cell where-provenance,
  value-equal row by row — the property PLA auditing depends on;

and when the reference raises, the columnar path must raise the same
exception type with the same message. The vector planner must inline the
view bodies it can fold into its frame and decline every other one.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.relational import (
    AggSpec,
    Catalog,
    ExecutionConfig,
    Query,
    Table,
    View,
    execute,
    execute_row,
    make_schema,
    parse_query,
)
from repro.relational import algebra
from repro.relational.expressions import And, Arith, Col, Comparison, IsNull, Lit, Not, Or
from repro.relational.plancache import PlanCache
from repro.relational.types import ColumnType
from repro.relational.vector import try_vector_core

UNCACHED = ExecutionConfig(mode="columnar", use_plan_cache=False)

T_SCHEMA = make_schema(
    ("g", ColumnType.STRING),
    ("x", ColumnType.INT),
    ("y", ColumnType.INT),
)
D_SCHEMA = make_schema(("h", ColumnType.STRING), ("z", ColumnType.INT))

# ---------------------------------------------------------------------------
# The differential harness
# ---------------------------------------------------------------------------


def _run(engine, query, catalog):
    try:
        return engine(query, catalog), None
    except Exception as exc:  # noqa: BLE001 - parity includes error parity
        return None, exc


def assert_equivalent(query: Query, catalog: Catalog) -> None:
    """Both engines agree on result (rows, order, schema, provenance) or on
    the raised exception (type and message)."""
    ref, ref_exc = _run(execute_row, query, catalog)
    got, got_exc = _run(
        lambda q, c: execute(q, c, config=UNCACHED), query, catalog
    )
    if ref_exc is not None or got_exc is not None:
        assert got_exc is not None, f"columnar succeeded, reference raised {ref_exc!r}"
        assert ref_exc is not None, f"reference succeeded, columnar raised {got_exc!r}"
        assert type(got_exc) is type(ref_exc), (ref_exc, got_exc)
        assert str(got_exc) == str(ref_exc)
        return
    assert got.schema == ref.schema
    assert list(got.rows) == list(ref.rows)
    assert list(got.provenance) == list(ref.provenance)


def assert_footprint_and_take(table: Table, picks: list[int]) -> None:
    """``footprint()`` and ``take()`` agree with their row-by-row meaning.

    Each row's memoized footprint equals a walk of its lineage, also after
    ``take``, ``project`` and ``rename``, which carry the memo over.
    """
    idx = [p % len(table) for p in picks] if len(table) else []
    taken = table.take(idx)
    assert (
        table.footprint(),
        taken.rows,
        list(taken.provenance),
    ) == (
        {f"{r.provider}/{r.table}" for r in table.all_lineage()},
        [table.rows[i] for i in idx],
        [table.provenance[i] for i in idx],
    )
    names = table.schema.names
    for derived in (
        table,
        taken,
        algebra.project(table, names[::-1]),
        algebra.rename(table, {n: f"{n}_r" for n in names}),
    ):
        provs = list(derived.provenance)
        assert [p.footprint() for p in provs] == [
            {f"{r.provider}/{r.table}" for r in p.lineage} for p in provs
        ]


def build_catalog(t_rows, d_rows) -> Catalog:
    cat = Catalog()
    cat.add_table(Table.from_rows("t", T_SCHEMA, t_rows, provider="p"))
    cat.add_table(Table.from_rows("d", D_SCHEMA, d_rows, provider="q"))
    return cat


# ---------------------------------------------------------------------------
# Strategies: NULL-heavy tables, random query trees
# ---------------------------------------------------------------------------

_g = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
_i = st.one_of(st.none(), st.integers(min_value=-4, max_value=4))

t_rows_strategy = st.lists(st.tuples(_g, _i, _i), min_size=0, max_size=20)
d_rows_strategy = st.lists(st.tuples(_g, _i), min_size=0, max_size=10)

_OPS = ["=", "!=", "<", "<=", ">", ">="]


def _predicates(int_cols: list[str], str_cols: list[str]):
    int_leaf = st.builds(
        lambda c, op, v: Comparison(op, Col(c), Lit(v)),
        st.sampled_from(int_cols),
        st.sampled_from(_OPS),
        st.integers(min_value=-3, max_value=3),
    )
    str_leaf = st.builds(
        lambda c, op, v: Comparison(op, Col(c), Lit(v)),
        st.sampled_from(str_cols),
        st.sampled_from(["=", "!="]),
        st.sampled_from(["a", "b"]),
    )
    null_leaf = st.builds(IsNull, st.builds(Col, st.sampled_from(int_cols + str_cols)))
    col_col = st.builds(
        lambda l, op, r: Comparison(op, Col(l), Col(r)),
        st.sampled_from(int_cols),
        st.sampled_from(_OPS),
        st.sampled_from(int_cols),
    )
    leaf = st.one_of(int_leaf, str_leaf, null_leaf, col_col)
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Not, inner),
        ),
        max_leaves=5,
    )


_AGG_MENU = [
    AggSpec("count", None, "cnt"),
    AggSpec("sum", "x", "sx"),
    AggSpec("min", "y", "mny"),
    AggSpec("max", "x", "mxx"),
    AggSpec("count", "g", "cdg", distinct=True),
]


def _view(name: str, body: str | Query) -> View:
    return View(name, parse_query(body) if isinstance(body, str) else body)


@st.composite
def sources(draw) -> tuple[str, tuple[View, ...], bool]:
    """The FROM relation: ``t``, or a view exposing t's ``(g, x, y)``.

    Returns ``(name, views to register, inlinable)``; ``inlinable`` says
    whether the vector planner can fold the view chain into its frame.
    """
    kind = draw(
        st.sampled_from(
            [
                "table",
                # inlinable bodies
                "renamed",
                "where",
                "star_where",
                "inner_join",
                "chain",
                # bodies the planner must decline
                "computed",
                "distinct",
                "left_join",
                "aggregate",
            ]
        )
    )
    if kind == "table":
        return "t", (), True
    if kind == "chain":
        base = _view("v_base", "SELECT g AS k, x AS a, y AS b FROM t")
        top = Query.from_("v_base")
        if draw(st.booleans()):
            top = top.filter(draw(_predicates(["a", "b"], ["k"])))
        top = top.project(("g", Col("k")), ("x", Col("b")), ("y", Col("a")))
        return "v", (base, _view("v", top)), True
    if kind == "where":
        body = Query.from_("t").filter(draw(_predicates(["x", "y"], ["g"])))
        return "v", (_view("v", body.project("g", "x", "y")),), True
    if kind == "star_where":
        body = Query.from_("t").filter(draw(_predicates(["x", "y"], ["g"])))
        return "v", (_view("v", body),), True
    body = {
        "renamed": "SELECT g, y AS x, x AS y FROM t",
        "inner_join": "SELECT g, x, y FROM t JOIN d ON g = h",
        "computed": "SELECT g, x, x + y AS y FROM t",
        "distinct": "SELECT DISTINCT g, x, y FROM t",
        "left_join": "SELECT g, x, y FROM t LEFT JOIN d ON g = h",
        "aggregate": "SELECT g, x, COUNT(*) AS y FROM t GROUP BY g, x",
    }[kind]
    return "v", (_view("v", body),), kind in ("renamed", "inner_join")


@st.composite
def query_trees(draw) -> tuple[Query, tuple[View, ...], bool]:
    """A random query over :func:`sources`: ``(query, views, inlinable)``."""
    source, views, inlinable = draw(sources())
    q = Query.from_(source)
    str_cols, int_cols = ["g"], ["x", "y"]
    if draw(st.booleans()):
        how = draw(st.sampled_from(["inner", "left"]))
        on = draw(st.sampled_from([[("g", "h")], [("x", "z")], [("g", "h"), ("x", "z")]]))
        q = q.join("d", on, how=how)
        str_cols, int_cols = str_cols + ["h"], int_cols + ["z"]
    if draw(st.booleans()):
        q = q.filter(draw(_predicates(int_cols, str_cols)))

    if draw(st.booleans()):  # aggregate pipeline
        group = draw(st.sampled_from([(), ("g",), ("g", "x")]))
        aggs = draw(
            st.lists(st.sampled_from(_AGG_MENU), min_size=0 if group else 1, max_size=3)
        )
        if group:
            q = q.group(*group)
        q = q.agg(*aggs)
        out_ints = [a.alias for a in aggs] + [c for c in group if c != "g"]
        if out_ints and draw(st.booleans()):
            q = q.having_(
                Comparison(
                    draw(st.sampled_from(_OPS)),
                    Col(draw(st.sampled_from(out_ints))),
                    Lit(draw(st.integers(min_value=-2, max_value=4))),
                )
            )
        out_names = list(group) + [a.alias for a in aggs]
        if out_names and draw(st.booleans()):
            q = q.project(*draw(st.permutations(out_names)))
    else:  # plain pipeline
        out_names = str_cols + int_cols
        if draw(st.booleans()):
            items: list = list(draw(st.permutations(out_names))[:3])
            if draw(st.booleans()):
                items.append(
                    (
                        "calc",
                        Arith(
                            draw(st.sampled_from(["+", "-", "*"])),
                            Col(draw(st.sampled_from(int_cols))),
                            Col(draw(st.sampled_from(int_cols))),
                        ),
                    )
                )
            q = q.project(*items)
            out_names = [i if isinstance(i, str) else i[0] for i in items]

    if draw(st.booleans()):
        q = q.distinct()
    if draw(st.booleans()):  # a UNION branch: the same block under its own WHERE
        where = draw(st.none() | _predicates(int_cols, str_cols))
        q = q.union_with(replace(q, where=where), all=draw(st.booleans()))
    if out_names and draw(st.booleans()):
        keys = [
            (c, draw(st.booleans()))
            for c in draw(st.permutations(out_names))[:2]
        ]
        q = q.order_by(*keys)
    if draw(st.booleans()):
        q = q.limit(draw(st.integers(min_value=0, max_value=7)))
    return q, views, inlinable


# ---------------------------------------------------------------------------
# Property: random query trees over random NULL-heavy instances
# ---------------------------------------------------------------------------


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    t_rows=t_rows_strategy,
    d_rows=d_rows_strategy,
    tree=query_trees(),
    picks=st.lists(st.integers(min_value=0, max_value=40), max_size=6),
)
def test_columnar_matches_row_reference(t_rows, d_rows, tree, picks):
    query, views, inlinable = tree
    catalog = build_catalog(t_rows, d_rows)
    for view in views:
        catalog.add_view(view)
    assert_equivalent(query, catalog)

    # Table.footprint()/take() on each kind of result: row engine, a plan
    # cache hit, and uncached columnar (MaskProvenance when the core fuses).
    ref, ref_exc = _run(execute_row, query, catalog)
    if ref_exc is None:
        cached = ExecutionConfig(mode="columnar", plan_cache=PlanCache())
        execute(query, catalog, config=cached)
        for result in (
            ref,
            execute(query, catalog, config=cached),
            execute(query, catalog, config=UNCACHED),
        ):
            assert_footprint_and_take(result, picks)

    # The planner's decision: a declined core runs on the row operators.
    try:
        engaged = try_vector_core(query, catalog) is not None
    except Exception:  # noqa: BLE001 - error parity is checked above
        engaged = None
    if not inlinable:
        assert engaged is False
    elif all(c.how == "inner" for c in query.joins) and (
        query.select or query.is_aggregate
    ):
        assert engaged is not False


@settings(max_examples=60, deadline=None)
@given(t_rows=t_rows_strategy, sql_where=st.sampled_from([
    "x > 1",
    "x > 1 AND y < 2",
    "NOT (g = 'a')",
    "g = 'a' OR x <= 0",
    "x IS NULL",
    "x IS NOT NULL AND y IS NULL",
]))
def test_three_valued_where_parity(t_rows, sql_where):
    """UNKNOWN must exclude rows identically on both paths."""
    cat = build_catalog(t_rows, [])
    assert_equivalent(parse_query(f"SELECT g, x FROM t WHERE {sql_where}"), cat)


# ---------------------------------------------------------------------------
# Pinned regressions: the corners the property test found or must keep
# ---------------------------------------------------------------------------


def test_empty_tables_everywhere():
    cat = build_catalog([], [])
    for sql in (
        "SELECT g, x FROM t",
        "SELECT g, x FROM t WHERE x > 0",
        "SELECT g FROM t JOIN d ON g = h",
        "SELECT COUNT(*) AS n FROM t",
        "SELECT g, SUM(x) AS sx FROM t GROUP BY g",
    ):
        assert_equivalent(parse_query(sql), cat)


def test_scalar_aggregate_on_empty_input_emits_one_row():
    cat = build_catalog([], [])
    out = execute(parse_query("SELECT COUNT(*) AS n FROM t"), cat, config=UNCACHED)
    ref = execute_row(parse_query("SELECT COUNT(*) AS n FROM t"), cat)
    assert list(out.rows) == list(ref.rows) == [(0,)]


def test_left_join_miss_provenance_drops_right_keys():
    """Reference left-miss rows carry only left-side where keys; the
    columnar path must reproduce the *exact* dict, not an empty-ref one."""
    cat = build_catalog([("a", 1, 1), ("zzz", 2, 2)], [("a", 1)])
    q = Query.from_("t").join("d", [("g", "h")], how="left")
    assert_equivalent(q, cat)
    ref = execute_row(q, cat)
    miss = [p for r, p in zip(ref.rows, ref.provenance) if r[0] == "zzz"]
    assert miss and set(miss[0].where) == {"g", "x", "y"}


def test_chained_join_over_left_outer_partial_provenance():
    """A left-outer result (with partial where dicts) fed into a second
    join exercises the exact-rebuild path."""
    cat = build_catalog([("a", 1, 1), ("b", 2, 2)], [("a", 7)])
    q = (
        Query.from_("t")
        .join("d", [("g", "h")], how="left")
        .join("d", [("x", "z")], how="left")
    )
    assert_equivalent(q, cat)


def test_collision_join_qualifies_both_sides():
    cat = Catalog()
    cat.add_table(Table.from_rows("t", T_SCHEMA, [("a", 1, 2)], provider="p"))
    c_schema = make_schema(("g", ColumnType.STRING), ("x", ColumnType.INT))
    cat.add_table(Table.from_rows("c", c_schema, [("a", 9)], provider="q"))
    for q in (
        Query.from_("t").join("c", [("g", "g")]),
        Query.from_("t").join("c", [("g", "g")]).project("t.g", "c.x"),
        Query.from_("t").join("c", [("g", "g")]).filter(
            Comparison(">", Col("c.x"), Lit(0))
        ).project("t.x", "c.x"),
    ):
        assert_equivalent(q, cat)


def test_view_chain_parity():
    cat = build_catalog([("a", 1, 2), ("b", None, 3), ("a", 4, None)], [("a", 1)])
    cat.add_view(View("v1", parse_query("SELECT g, x FROM t WHERE x IS NOT NULL")))
    cat.add_view(View("v2", parse_query("SELECT g FROM v1 WHERE x > 0")))
    assert_equivalent(parse_query("SELECT g FROM v1"), cat)
    assert_equivalent(parse_query("SELECT COUNT(*) AS n FROM v1 GROUP BY g"), cat)
    # v2 is invalid (x was projected away) — both engines must agree on that too.
    assert_equivalent(parse_query("SELECT g FROM v2"), cat)


def test_distinct_merges_provenance_identically():
    cat = build_catalog([("a", 1, 1), ("a", 1, 2), ("a", 1, 3)], [])
    assert_equivalent(parse_query("SELECT DISTINCT g, x FROM t"), cat)


def test_order_by_nulls_last_both_directions():
    cat = build_catalog([("a", None, 1), ("b", 2, 1), ("c", 1, 1), ("d", None, 2)], [])
    assert_equivalent(parse_query("SELECT g, x FROM t ORDER BY x"), cat)
    assert_equivalent(parse_query("SELECT g, x FROM t ORDER BY x DESC, g"), cat)


def test_limit_zero_and_overshoot():
    cat = build_catalog([("a", 1, 1), ("b", 2, 2)], [])
    assert_equivalent(parse_query("SELECT g FROM t LIMIT 0"), cat)
    assert_equivalent(parse_query("SELECT g FROM t LIMIT 99"), cat)


def test_error_parity_on_bad_queries():
    cat = build_catalog([("a", 1, 1)], [("a", 1)])
    for sql_or_query in (
        parse_query("SELECT nope FROM t"),
        parse_query("SELECT g FROM t WHERE nope > 1"),
        parse_query("SELECT g FROM missing"),
        Query.from_("t").having_(Comparison(">", Col("x"), Lit(0))).project("g"),
        Query.from_("t")
        .filter(Comparison(">", Col("x"), Lit(0)))
        .having_(Comparison(">", Col("x"), Lit(0)))
        .project("g"),
    ):
        assert_equivalent(sql_or_query, cat)


def test_count_distinct_and_nan_free_dedup():
    cat = build_catalog(
        [("a", 1, 1), ("a", 1, 2), ("a", 2, 3), ("b", None, 4)], []
    )
    assert_equivalent(
        parse_query("SELECT g, COUNT(DISTINCT x) AS dx FROM t GROUP BY g"), cat
    )


def test_bare_select_star_returns_base_contents():
    cat = build_catalog([("a", 1, 1)], [])
    ref = execute_row(Query.from_("t"), cat)
    got = execute(Query.from_("t"), cat, config=UNCACHED)
    assert list(got.rows) == list(ref.rows)
    assert list(got.provenance) == list(ref.provenance)
    assert got.schema == ref.schema


@pytest.mark.parametrize(
    "run",
    [execute_row, lambda q, c, **kw: execute(q, c, config=UNCACHED, **kw)],
    ids=["row", "columnar"],
)
def test_bare_scan_result_is_a_copy_of_the_base_table(run):
    cat = build_catalog([("a", 1, 1), ("b", 2, 2)], [])
    base = cat.table("t")
    out = run(Query.from_("t"), cat, name="r")
    assert out is not base
    assert (base.name, out.name) == ("t", "r")
    assert out.provider == base.provider
    out.insert(("c", 3, 3))
    assert len(base.rows) == 2


def test_star_view_leaves_base_names_alone():
    """Running a ``SELECT *`` view leaves its base table's name alone: a
    later join's collision qualifiers are built from it."""
    schema = make_schema(("k", ColumnType.INT), ("v", ColumnType.INT))
    cat = Catalog()
    cat.add_table(Table.from_rows("t", schema, [(1, 10), (2, 20)], provider="p"))
    cat.add_table(Table.from_rows("d", schema, [(1, 5), (3, 7)], provider="q"))
    cat.add_view(View("star", parse_query("SELECT * FROM t")))
    join = parse_query("SELECT t.v AS tv, d.v AS dv FROM t JOIN d ON k = k")
    for _ in range(2):
        for query in (parse_query("SELECT * FROM star"), join):
            ref = execute_row(query, cat)
            got = execute(query, cat, config=UNCACHED)
            assert got.schema.names == ref.schema.names
            assert list(got.rows) == list(ref.rows)
            assert list(got.provenance) == list(ref.provenance)
    assert cat.table("t").name == "t"
    assert list(execute_row(join, cat).rows) == [(10, 5)]


@pytest.mark.parametrize(
    "t_rows",
    [
        [("a", 1, 1), ("b", 2, 2), ("a", 3, 3)],  # every row matches once
        [("a", 1, 1), (None, 2, 2), ("zzz", 3, 3)],  # NULL and missing keys
    ],
)
def test_unique_key_joins(t_rows):
    """Unique right keys (a dimension's surrogate key) take the one-map
    probe; a left side matching one row each keeps its row space."""
    cat = build_catalog(t_rows, [("a", 7), ("b", 8)])
    cat.add_view(View("v", parse_query("SELECT g, x, z FROM t JOIN d ON g = h")))
    for sql in (
        "SELECT g, x, z FROM t JOIN d ON g = h WHERE x > 1",
        "SELECT h, COUNT(*) AS n, SUM(y) AS sy FROM t JOIN d ON g = h GROUP BY h",
        "SELECT g, z FROM v WHERE x < 3",
        "SELECT g, d.z FROM v JOIN d ON g = h",
    ):
        assert_equivalent(parse_query(sql), cat)


@pytest.mark.parametrize("how", ["inner", "left"])
def test_null_join_keys_never_match(how):
    cat = build_catalog([(None, 1, 1), ("a", 2, 2)], [(None, 5), ("a", 6)])
    q = Query.from_("t").join("d", [("g", "h")], how=how)
    assert_equivalent(q, cat)
