"""Tests for the static column-level dataflow pass.

The manual cases pin each propagation rule of the catalog's walk
(:meth:`Catalog.sources`, which lint reads through :func:`column_flows`)
to its runtime counterpart in :mod:`repro.relational.algebra`; the
hypothesis property test then checks the soundness contract on randomly
generated query trees over base tables and over renaming, computing and
aggregating views: for every output cell, the runtime where-provenance
refs are a subset of the static ``copied | derived`` sources of that
column (and of ``copied`` alone for plain copy columns).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ColumnFlow, column_flows
from repro.analysis.dataflow import live_predicate_columns
from repro.errors import AnalysisError
from repro.relational import Catalog, View, execute, parse_query
from repro.relational.algebra import AggSpec
from repro.relational.expressions import (
    And,
    Arith,
    Col,
    Comparison,
    Lit,
    Or,
    conjuncts,
    disjuncts,
)
from repro.relational.query import Query
from repro.relational.table import Table, make_schema
from repro.relational.types import ColumnType

INT = ColumnType.INT
STRING = ColumnType.STRING

#: Views the generated queries may read: renaming, computing over the
#: renaming one, and aggregating over the computing one. Each keeps ``k``,
#: so joining ``u`` on it qualifies both keys.
VIEWS = {
    "vr": "SELECT k, x AS xv, s FROM t",
    "vc": "SELECT k, xv + k AS sx, s FROM vr",
    "va": "SELECT k, COUNT(*) AS vn, MAX(sx) AS mx, MIN(s) AS ms FROM vc GROUP BY k",
}


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
    for name, sql in VIEWS.items():
        catalog.add_view(View(name, parse_query(sql)))
    return catalog


CATALOG = small_catalog()


def copy(*pairs: str) -> ColumnFlow:
    return ColumnFlow(copied=frozenset(tuple(p.split(".")) for p in pairs))


class TestPropagationRules:
    def test_base_table_columns_are_self_copies(self):
        flow = column_flows(Query.from_("t"), CATALOG)
        assert flow.flow_of("x") == copy("t.x")
        assert flow.names() == ("k", "x", "s")

    def test_plain_projection_and_alias_keep_copies(self):
        query = Query.from_("t").project("x", ("xx", Col("x")))
        flow = column_flows(query, CATALOG)
        assert flow.flow_of("x") == flow.flow_of("xx") == copy("t.x")

    def test_computed_projection_derives_from_all_inputs(self):
        query = Query.from_("t").project(("sum", Arith("+", Col("x"), Col("k"))))
        got = column_flows(query, CATALOG).flow_of("sum")
        assert got == ColumnFlow(derived=frozenset({("t", "x"), ("t", "k")}))

    def test_where_discloses_predicate_columns(self):
        query = (
            Query.from_("t")
            .filter(Comparison(">", Col("x"), Lit(0)))
            .project("s")
        )
        flow = column_flows(query, CATALOG)
        assert flow.condition_sources == {("t", "x")}
        assert flow.flow_of("s") == copy("t.s")

    def test_join_qualifies_collisions_like_runtime(self):
        query = Query.from_("t").join("u", [("k", "k")])
        flow = column_flows(query, CATALOG)
        runtime = execute(query, CATALOG)
        assert flow.names() == runtime.schema.names
        assert flow.flow_of("t.k") == copy("t.k")
        assert flow.flow_of("u.k") == copy("u.k")
        # Each ON key is resolved on its own side, and disclosed.
        assert flow.condition_sources == {("t", "k"), ("u", "k")}

    def test_aggregation_marks_flows_and_demotes_to_derivation(self):
        query = (
            Query.from_("t")
            .group("s")
            .agg(AggSpec("count", None, "n"), AggSpec("sum", "x", "sx"))
        )
        flow = column_flows(query, CATALOG)
        assert flow.flow_of("s") == copy("t.s")
        assert flow.flow_of("n") == ColumnFlow(aggregated=True)
        assert flow.flow_of("sx") == ColumnFlow(
            derived=frozenset({("t", "x")}), aggregated=True
        )

    def test_min_and_max_copy_one_base_value(self):
        query = Query.from_("t").agg(
            AggSpec("min", "x", "lo"), AggSpec("max", "s", "hi"),
            AggSpec("avg", "x", "mean"),
        )
        flow = column_flows(query, CATALOG)
        assert flow.flow_of("lo") == ColumnFlow(
            copied=frozenset({("t", "x")}), aggregated=True
        )
        assert flow.flow_of("hi").copied == {("t", "s")}
        assert flow.flow_of("mean") == ColumnFlow(
            derived=frozenset({("t", "x")}), aggregated=True
        )

    def test_views_are_expanded_to_base_tables(self):
        flow = column_flows(Query.from_("va"), CATALOG)
        assert flow.flow_of("k") == copy("t.k")
        # MAX over a computed column keeps the derivation.
        assert flow.flow_of("mx") == ColumnFlow(
            derived=frozenset({("t", "x"), ("t", "k")}), aggregated=True
        )

    def test_unknown_relation_raises(self):
        with pytest_raises_analysis():
            column_flows(Query.from_("ghost"), CATALOG)

    def test_unknown_column_raises(self):
        with pytest_raises_analysis():
            column_flows(Query.from_("t").project("ghost"), CATALOG)


def pytest_raises_analysis():
    import pytest

    return pytest.raises(AnalysisError)


# -- property test: static flow over-approximates runtime where-provenance --

OPS = ("<", "<=", ">", ">=", "=", "!=")


#: Each relation the generator reads: its columns, and the numeric ones.
RELATIONS = {
    "t": (["k", "x", "s"], ["k", "x"]),
    "vr": (["k", "xv", "s"], ["k", "xv"]),
    "vc": (["k", "sx", "s"], ["k", "sx"]),
    "va": (["k", "vn", "mx", "ms"], ["k", "vn", "mx"]),
}


@st.composite
def queries(draw, relations=tuple(RELATIONS)) -> Query:
    """Random query trees the engine accepts, over the fixed catalog."""
    source = draw(st.sampled_from(relations))
    query = Query.from_(source)
    cols, numeric = RELATIONS[source]
    if draw(st.booleans()):  # join on colliding keys
        query = query.join("u", [("k", "k")])
        qualify = {"k": f"{source}.k"}
        cols = [qualify.get(c, c) for c in cols] + ["u.k", "z"]
        numeric = [qualify.get(c, c) for c in numeric] + ["u.k", "z"]

    if draw(st.booleans()):  # where
        query = query.filter(
            Comparison(
                draw(st.sampled_from(OPS)),
                Col(draw(st.sampled_from(numeric))),
                Lit(draw(st.integers(-5, 5))),
            )
        )

    if draw(st.booleans()):  # group/aggregate
        groups = draw(
            st.lists(st.sampled_from(cols), max_size=2, unique=True)
        )
        aggs = [AggSpec("count", None, "n")]
        if draw(st.booleans()):
            aggs.append(
                AggSpec(
                    draw(st.sampled_from(["sum", "min", "max"])),
                    draw(st.sampled_from(numeric)),
                    "m",
                )
            )
        query = query.group(*groups).agg(*aggs)
        out_names = list(groups) + [a.alias for a in aggs]
        numeric = [a.alias for a in aggs] + [g for g in groups if g in numeric]
    else:
        out_names = cols

    if draw(st.booleans()):  # projection (plain / alias / computed)
        chosen = draw(
            st.lists(
                st.sampled_from(out_names), min_size=1, max_size=4, unique=True
            )
        )
        items = []
        for name in chosen:
            style = draw(st.integers(0, 2))
            alias = f"c_{name.replace('.', '_')}"
            if style == 1:
                items.append((alias, Col(name)))
            elif style == 2 and name in numeric:
                items.append((alias, Arith("+", Col(name), Lit(1))))
            else:
                items.append(name)
        query = query.project(*items)
        out_names = [i if isinstance(i, str) else i[0] for i in items]

    if draw(st.booleans()):
        query = query.distinct()
    if draw(st.booleans()):
        query = query.order_by(draw(st.sampled_from(out_names)))
    if draw(st.booleans()):
        query = query.limit(draw(st.integers(0, 10)))
    return query


def runtime_refs(provenance, column) -> set[tuple[str, str]]:
    return {(ref.row.table, ref.column) for ref in provenance.where_of(column)}


@given(query=queries())
@settings(max_examples=150, deadline=None)
def test_static_flow_covers_runtime_where_provenance(query):
    static = column_flows(query, CATALOG)
    table = execute(query, CATALOG)

    # Static and runtime agree on the output schema.
    assert list(static.names()) == list(table.schema.names)

    for name in table.schema.names:
        flow = static.flow_of(name)
        for provenance in table.provenance:
            refs = runtime_refs(provenance, name)
            assert refs <= flow.sources, (
                f"column {name!r}: runtime where-prov {refs} escapes static "
                f"sources {set(flow.sources)} for {query}"
            )
            # Pure copy columns must be covered by the copy set alone.
            if flow.copied and not flow.derived and not flow.aggregated:
                assert refs <= flow.copied


@given(query=queries(relations=("t",)))
@settings(max_examples=150, deadline=None)
def test_input_sources_cover_condition_sources(query):
    """What the warehouse gate checks covers what lint says predicates
    disclose: every ON key, on its own side, and every WHERE column."""
    assert column_flows(query, CATALOG).condition_sources <= CATALOG.input_sources(query)


# -- dead-branch pruning: soundness (vs data) and precision ------------------


@st.composite
def cnf_predicates(draw):
    """Random conjunctions of small disjunctions over t's numeric columns."""

    def atom():
        return Comparison(
            draw(st.sampled_from(OPS)),
            Col(draw(st.sampled_from(["k", "x"]))),
            Lit(draw(st.integers(-5, 5))),
        )

    def disjunction():
        atoms = [atom() for _ in range(draw(st.integers(1, 3)))]
        pred = atoms[0]
        for extra in atoms[1:]:
            pred = Or(pred, extra)
        return pred

    pred = disjunction()
    for _ in range(draw(st.integers(0, 2))):
        pred = And(pred, disjunction())
    return pred


@given(predicate=cnf_predicates())
@settings(max_examples=150, deadline=None)
def test_pruned_branches_are_dead_on_real_data(predicate):
    """Soundness of the pruning: a pruned branch never admits a real row.

    ``live_predicate_columns`` drops an OR branch only when the solver
    proves it disjoint from the sibling conjuncts — which must mean no row
    of any instance satisfies branch ∧ rest. Check that against the actual
    table, and check the pruned set is exactly the columns of the provably
    dead branches (over-approximation: everything else stays live).
    """
    from repro.verify.solver import overlap

    live = live_predicate_columns(predicate)
    assert live <= predicate.columns()

    rows = [dict(zip(("k", "x", "s"), row)) for row in CATALOG.table("t").rows]
    parts = list(conjuncts(predicate))
    expected_live: set[str] = set()
    for i, conjunct in enumerate(parts):
        branches = list(disjuncts(conjunct))
        rest = [c for j, c in enumerate(parts) if j != i]
        if len(branches) == 1 or not rest:
            expected_live |= conjunct.columns()
            continue
        context = rest[0]
        for extra in rest[1:]:
            context = And(context, extra)
        for branch in branches:
            if overlap(branch, context).is_unsat():
                for row in rows:  # solver's UNSAT must hold on real data
                    assert And(branch, context).evaluate(row) is not True
            else:
                expected_live |= branch.columns()
    assert live == frozenset(expected_live)


def test_dead_branch_stops_tainting_condition_sources():
    """The precision case: a provably dead identifier test discloses nothing."""
    # (s='secret' AND x<-90) OR k>0, conjoined with x>0: the s-branch
    # requires x<-90 ∧ x>0, which is unsatisfiable, so only k and x are
    # genuinely consulted.
    dead_branch = And(
        Comparison("=", Col("s"), Lit("secret")),
        Comparison("<", Col("x"), Lit(-90)),
    )
    predicate = And(
        Or(dead_branch, Comparison(">", Col("k"), Lit(0))),
        Comparison(">", Col("x"), Lit(0)),
    )
    query = Query.from_("t").filter(predicate).project("k")
    flow = column_flows(query, CATALOG)
    assert flow.condition_sources == {("t", "k"), ("t", "x")}  # no t.s
    # Soundness half: without the contradicting conjunct the branch is
    # live again and s is disclosed.
    relaxed = Query.from_("t").filter(
        Or(dead_branch, Comparison(">", Col("k"), Lit(0)))
    ).project("k")
    assert ("t", "s") in column_flows(relaxed, CATALOG).condition_sources


@given(query=queries())
@settings(max_examples=60, deadline=None)
def test_static_flow_covers_runtime_through_views(query):
    """The same contract holds when the query tree hides behind a view."""
    catalog = small_catalog()
    catalog.add_view(View("v", query))
    outer = Query.from_("v")
    static = column_flows(outer, catalog)
    table = execute(outer, catalog)
    assert list(static.names()) == list(table.schema.names)
    for name in table.schema.names:
        flow = static.flow_of(name)
        for provenance in table.provenance:
            assert runtime_refs(provenance, name) <= flow.sources
