"""Property-based tests (hypothesis) on core invariants.

Covered invariants:

* algebra laws: selection cascades/commutes, projection narrows, join
  lineage is the union of its inputs, distinct is idempotent;
* lineage safety: every derived row's lineage points at existing base rows;
* k-anonymity post-conditions for arbitrary tables and k;
* pseudonym consistency (injective on observed values, deterministic);
* predicate-implication soundness: implication certified ⇒ no row of a
  brute-force grid (NULL and fractional values) is kept by the stronger
  predicate and not by the weaker, under keep-only-True evaluation;
* containment soundness: certified Q1 ⊆ Q2 ⇒ Q1's answers ⊆ Q2's answers
  on arbitrary generated instances.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.anonymize import (
    Pseudonymizer,
    QuasiIdentifier,
    is_k_anonymous,
    mondrian_anonymize,
)
from repro.core import is_contained, predicate_implies
from repro.relational import (
    Catalog,
    algebra,
    execute,
    parse_expression,
    parse_query,
)
from repro.relational.expressions import (
    And,
    Col,
    Comparison,
    InList,
    IsNull,
    Lit,
    Not,
    Or,
)
from repro.relational.table import Table, make_schema
from repro.relational.types import ColumnType
from repro.verify import truth

SCHEMA = make_schema(
    ("g", ColumnType.STRING),
    ("x", ColumnType.INT),
    ("y", ColumnType.INT),
)

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
    ),
    min_size=0,
    max_size=40,
)


def table_of(rows) -> Table:
    return Table.from_rows("t", SCHEMA, rows, provider="p")


predicate_strategy = st.builds(
    lambda column, op, value: Comparison(op, Col(column), Lit(value)),
    st.sampled_from(["x", "y"]),
    st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    st.integers(min_value=-30, max_value=30),
)


class TestAlgebraLaws:
    @given(rows=rows_strategy, p=predicate_strategy, q=predicate_strategy)
    def test_selection_cascade_commutes(self, rows, p, q):
        t = table_of(rows)
        ab = algebra.select(algebra.select(t, p), q)
        ba = algebra.select(algebra.select(t, q), p)
        both = algebra.select(t, And(p, q))
        assert ab.rows == both.rows
        assert sorted(ba.rows) == sorted(ab.rows)

    @given(rows=rows_strategy)
    def test_projection_narrows_schema_keeps_cardinality(self, rows):
        t = table_of(rows)
        out = algebra.project(t, ["g", "x"])
        assert len(out) == len(t)
        assert out.schema.names == ("g", "x")

    @given(rows=rows_strategy)
    def test_distinct_idempotent(self, rows):
        t = table_of(rows)
        once = algebra.distinct(t)
        twice = algebra.distinct(once)
        assert once.rows == twice.rows
        assert len({tuple(r) for r in t.rows}) == len(once)

    @given(rows=rows_strategy, other=rows_strategy)
    def test_join_lineage_is_union_of_sides(self, rows, other):
        left = table_of(rows)
        right = Table.from_rows(
            "u",
            make_schema(("g", ColumnType.STRING), ("z", ColumnType.INT)),
            [(g, x) for g, x, _ in other],
            provider="q",
        )
        out = algebra.join(left, right, [("g", "g")])
        for i in range(len(out)):
            lineage = out.lineage_of(i)
            assert any(r.provider == "p" for r in lineage)
            assert any(r.provider == "q" for r in lineage)

    @given(rows=rows_strategy)
    def test_aggregate_lineage_partitions_input(self, rows):
        t = table_of(rows)
        out = algebra.aggregate(
            t, ["g"], [algebra.AggSpec("count", None, "n")]
        )
        union = set()
        total = 0
        for i in range(len(out)):
            lineage = out.lineage_of(i)
            assert not (union & lineage)  # groups are disjoint
            union |= lineage
            total += out.rows[i][out.schema.index_of("n")]
        assert union == set(t.all_lineage())
        assert total == len(t)

    @given(rows=rows_strategy)
    def test_derived_lineage_points_to_base(self, rows):
        t = table_of(rows)
        out = algebra.select(t, Comparison(">", Col("x"), Lit(0)))
        valid = t.all_lineage()
        for i in range(len(out)):
            assert out.lineage_of(i) <= valid


class TestAnonymityProperties:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=30)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["381a", "381b", "382a", "382b"]),
                st.integers(min_value=1940, max_value=2000),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=10,
            max_size=60,
        ),
        k=st.integers(min_value=2, max_value=5),
    )
    def test_mondrian_always_k_anonymous(self, rows, k):
        schema = make_schema(
            ("zip", ColumnType.STRING),
            ("birth_year", ColumnType.INT),
            ("flag", ColumnType.INT),
        )
        t = Table.from_rows("t", schema, rows, provider="p")
        result = mondrian_anonymize(
            t, [QuasiIdentifier("zip"), QuasiIdentifier("birth_year")], k
        )
        assert is_k_anonymous(result.table, ["zip", "birth_year"], k)
        assert len(result.table) == len(t)
        assert result.table.all_lineage() == t.all_lineage()


class TestPseudonymProperties:
    @given(values=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=30))
    def test_deterministic_and_injective_on_sample(self, values):
        p = Pseudonymizer(salt="prop")
        tokens = {v: p.pseudonym(v) for v in values}
        # deterministic
        assert all(p.pseudonym(v) == t for v, t in tokens.items())
        # injective on the observed sample (collisions at 8 hex chars are
        # astronomically unlikely at this scale)
        assert len(set(tokens.values())) == len(set(values))
        # escrow inverts
        assert all(p.reidentify(t) == str(v) for v, t in tokens.items())


# Implication soundness is checked on richer predicates than the algebra
# laws: NULL and half-integer constants, IN lists, IS [NOT] NULL,
# column-column comparisons, OR and NOT.
_IMPLICATION_CONSTANTS = [None] + [
    k // 2 if k % 2 == 0 else k / 2 for k in range(-6, 7)
]
_OPS = ["=", "!=", "<", "<=", ">", ">="]
_implication_column = st.sampled_from(["x", "y"])


def _implication_predicates(constants):
    constant = st.sampled_from(constants)
    atom = st.one_of(
        st.builds(
            lambda c, op, v: Comparison(op, Col(c), Lit(v)),
            _implication_column,
            st.sampled_from(_OPS),
            constant,
        ),
        st.builds(
            lambda op: Comparison(op, Col("x"), Col("y")), st.sampled_from(_OPS)
        ),
        st.builds(
            lambda c, vs: InList(Col(c), tuple(vs)),
            _implication_column,
            st.lists(constant, min_size=1, max_size=3),
        ),
        st.builds(IsNull, st.builds(Col, _implication_column), st.booleans()),
    )
    return st.recursive(
        atom,
        lambda inner: st.one_of(
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Not, inner),
        ),
        max_leaves=5,
    )


def _grid(values):
    return [{"x": x, "y": y} for x in [None] + values for y in [None] + values]


implication_strategy = _implication_predicates(_IMPLICATION_CONSTANTS)
# Eighth steps put three grid values inside every gap between adjacent
# half-integer constants, so two columns can be ordered inside one gap; a
# reasoner that treats integer-only constants as an integer column fails.
_IMPLICATION_GRID = _grid([k / 8 for k in range(-32, 33)])

# Past 2**53 floats are sparser than integers (2.0**60 and its float
# neighbours are 256 apart), so float arithmetic rounds a point between two
# integer constants back onto one of them. Every integer near the constants
# is on the grid.
_BIG = 2**60
_BIG_CONSTANTS = [None, float(_BIG), float(_BIG) + 256] + [
    _BIG + k for k in range(-3, 4)
]
large_implication_strategy = _implication_predicates(_BIG_CONSTANTS)
_LARGE_GRID = _grid(
    [_BIG + k for k in range(-6, 7)] + [_BIG + 256 + k for k in range(-2, 3)]
)


def _certified_implies_on(grid, stronger, weaker):
    if not predicate_implies(stronger, weaker):
        return
    for row in grid:
        if truth(stronger.evaluate(row)) is True:
            assert truth(weaker.evaluate(row)) is True, (
                f"implication unsound: {stronger} => {weaker} on {row}"
            )


class TestImplicationSoundness:
    @settings(deadline=None, max_examples=200)
    @given(
        stronger=implication_strategy,
        other=implication_strategy,
        weaken=st.booleans(),
    )
    # Integer-only constants over a column that may hold fractions: a
    # reasoner reading such a column as integral certifies both.
    @example(
        stronger=Comparison(">", Col("x"), Lit(1)),
        other=Comparison(">=", Col("x"), Lit(2)),
        weaken=False,
    )
    @example(
        stronger=And(
            Comparison(">", Col("x"), Lit(0)), Comparison("<", Col("x"), Lit(1))
        ),
        other=Comparison("=", Col("y"), Lit(2)),
        weaken=False,
    )
    def test_no_witness_when_certified(self, stronger, other, weaken):
        # Half the conclusions are widened with the premise itself, so
        # certified implications are common, not a rare draw.
        weaker = Or(other, stronger) if weaken else other
        _certified_implies_on(_IMPLICATION_GRID, stronger, weaker)

    @settings(deadline=None, max_examples=200)
    @given(
        stronger=large_implication_strategy,
        other=large_implication_strategy,
        weaken=st.booleans(),
    )
    @example(
        stronger=And(
            Comparison(">", Col("x"), Lit(_BIG)),
            Comparison("<", Col("x"), Lit(_BIG + 2)),
        ),
        other=Comparison("=", Col("y"), Lit(_BIG)),
        weaken=False,
    )
    def test_no_witness_when_certified_past_float_precision(
        self, stronger, other, weaken
    ):
        weaker = Or(other, stronger) if weaken else other
        _certified_implies_on(_LARGE_GRID, stronger, weaker)

    @pytest.mark.parametrize(
        "stronger, weaker",
        [
            (
                Comparison(">", Col("x"), Lit(1e16)),
                Comparison("<", Col("x"), Lit(100)),
            ),
            (
                parse_expression(
                    "ts > 1700000000000000000 AND ts < 1700000000000000100"
                ),
                Comparison("=", Col("ts"), Lit(0)),
            ),
        ],
    )
    def test_large_constants_do_not_close_their_gaps(self, stronger, weaker):
        # 1e16 + 1 == 1e16, and a float midpoint between the two timestamps
        # rounds onto one of them; the rows x = 10**16 + 1 and
        # ts = 1700000000000000001 refute both implications.
        assert not predicate_implies(stronger, weaker)

    @pytest.mark.parametrize(
        "stronger, weaker",
        [
            ("x != 3", "x IS NOT NULL"),
            ("a = b", "b = a"),
            ("NOT (a > 1)", "a <= 1"),
        ],
    )
    def test_three_valued_and_column_implications_certified(self, stronger, weaker):
        # Beyond per-column intervals: the 3VL rule that a comparison is
        # never True on NULL, column-column symmetry, and NOT.
        assert predicate_implies(parse_expression(stronger), parse_expression(weaker))

    def test_unrelated_premise_conjuncts_are_not_searched(self):
        # Only the premise conjuncts linked to the conclusion reach the
        # solver; enumerating all three columns would exhaust its budget.
        values = lambda n: tuple(range(n))  # noqa: E731
        premise = And(
            InList(Col("a"), values(30)),
            And(InList(Col("b"), values(30)), InList(Col("c"), values(30))),
        )
        assert predicate_implies(premise, InList(Col("a"), values(40)))

    def test_independent_conclusion_columns_are_decided_apart(self):
        # Column-disjoint parts are separate solver queries: the cross
        # product of eight columns' candidates would exceed the budget.
        columns = "abcdefgh"
        stronger = parse_expression(" AND ".join(f"{c} > 2" for c in columns))
        weaker = parse_expression(" AND ".join(f"{c} > 1" for c in columns))
        assert predicate_implies(stronger, weaker)

    def test_contradictory_conclusion_is_not_certified(self):
        # Regression: _decompose keeps the last of repeated equalities, so
        # x = 1 => (x = 0 AND x = 1) used to be (unsoundly) certified.
        from repro.relational.expressions import And, Col, Comparison, Lit

        x_eq = lambda v: Comparison("=", Col("x"), Lit(v))  # noqa: E731
        assert not predicate_implies(x_eq(1), And(x_eq(0), x_eq(1)))
        # The vacuous direction stays certified: an empty premise implies
        # anything.
        assert predicate_implies(And(x_eq(0), x_eq(1)), x_eq(7))


class TestContainmentSoundness:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None, max_examples=40)
    @given(
        rows=rows_strategy,
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_certified_containment_holds_on_instances(self, rows, seed):
        rng = random.Random(seed)
        cat = Catalog()
        cat.add_table(table_of(rows))

        def random_query():
            ops = ["<", "<=", ">", ">=", "=", "!="]
            conjuncts = []
            for _ in range(rng.randint(0, 2)):
                conjuncts.append(
                    f"{rng.choice(['x', 'y'])} {rng.choice(ops)} {rng.randint(-20, 20)}"
                )
            where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
            return parse_query(f"SELECT g, x FROM t{where}")

        q1, q2 = random_query(), random_query()
        if not is_contained(q1, q2, cat):
            return
        out1 = {tuple(r) for r in execute(q1, cat).rows}
        out2 = {tuple(r) for r in execute(q2, cat).rows}
        assert out1 <= out2
