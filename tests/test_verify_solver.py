"""Property and unit tests for the three-valued predicate solver.

The solver's whole value is that its verdicts are *proofs*, so the tests
are differential: every SAT witness must actually evaluate to ``True``,
every UNSAT claim must survive brute-force enumeration over an independent
finite domain seeded with the same constants (including NULL, the 3VL edge
that breaks classical reasoning), and every synthesized implication
counterexample must reproduce when replayed through the real runtime
engine. The hypothesis properties run 200+ random predicate trees each.
"""

from __future__ import annotations

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.relational.catalog import Catalog
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
from repro.relational.query import Query
from repro.verify import (
    Sat,
    implication_counterexample,
    falsifiable,
    overlap,
    replay_escape,
    satisfiable,
    truth,
)

OPS = ("<", "<=", ">", ">=", "=", "!=")

#: Constants the strategies draw from — and the brute-force grid extends.
INT_CONSTS = (-2, 0, 1, 3)
STR_CONSTS = ("p", "q", "r")

#: Independent brute-force domains: every strategy constant, the integers
#: between/around them, and NULL. Adequate for the generated predicates
#: because every atom compares a column against these constants (or
#: another column over the same grid).
INT_DOMAIN = (-3, -2, -1, 0, 1, 2, 3, 4, None)
STR_DOMAIN = ("", "p", "q", "r", "s", None)

COLUMNS = ("a", "b", "c")  # a, c: int; b: string


def all_rows():
    for a, b, c in itertools.product(INT_DOMAIN, STR_DOMAIN, INT_DOMAIN):
        yield {"a": a, "b": b, "c": c}


def complete(witness):
    """Pad a solver witness to a full row (unconstrained columns stay NULL)."""
    row = {name: None for name in COLUMNS}
    row.update(witness)
    return row


@st.composite
def atoms(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return Comparison(
            draw(st.sampled_from(OPS)),
            Col(draw(st.sampled_from(("a", "c")))),
            Lit(draw(st.sampled_from(INT_CONSTS))),
        )
    if kind == 1:
        return Comparison(
            draw(st.sampled_from(("=", "!="))),
            Col("b"),
            Lit(draw(st.sampled_from(STR_CONSTS))),
        )
    if kind == 2:
        values = draw(
            st.lists(st.sampled_from(STR_CONSTS), min_size=1, max_size=3,
                     unique=True)
        )
        return InList(Col("b"), tuple(values))
    if kind == 3:
        return IsNull(
            Col(draw(st.sampled_from(COLUMNS))), negated=draw(st.booleans())
        )
    return Comparison(draw(st.sampled_from(OPS)), Col("a"), Col("c"))


predicates = st.recursive(
    atoms(),
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Not, kids),
    ),
    max_leaves=6,
)


# -- agreement with brute force ---------------------------------------------


@given(predicate=predicates)
@settings(max_examples=250, deadline=None)
def test_satisfiable_agrees_with_brute_force(predicate):
    result = satisfiable(predicate)
    if result.status is Sat.SAT:
        assert truth(predicate.evaluate(complete(result.witness))) is True
    elif result.status is Sat.UNSAT:
        for row in all_rows():
            assert truth(predicate.evaluate(row)) is not True, (
                f"solver said UNSAT but {row} satisfies {predicate}"
            )
    # UNKNOWN makes no claim — nothing to check.


@given(premise=predicates, conclusion=predicates)
@settings(max_examples=250, deadline=None)
def test_implication_agrees_with_brute_force(premise, conclusion):
    result = implication_counterexample(premise, conclusion)
    if result.status is Sat.SAT:
        row = complete(result.witness)
        assert truth(premise.evaluate(row)) is True
        assert truth(conclusion.evaluate(row)) is not True
    elif result.status is Sat.UNSAT:
        for row in all_rows():
            if truth(premise.evaluate(row)) is True:
                assert truth(conclusion.evaluate(row)) is True, (
                    f"solver proved {premise} ⇒ {conclusion} but {row} "
                    "is a counterexample"
                )


@given(predicate=predicates)
@settings(max_examples=200, deadline=None)
def test_falsifiable_agrees_with_brute_force(predicate):
    result = falsifiable(predicate)
    if result.status is Sat.SAT:
        assert truth(predicate.evaluate(complete(result.witness))) is not True
    elif result.status is Sat.UNSAT:  # proved tautology (3VL: True everywhere)
        for row in all_rows():
            assert truth(predicate.evaluate(row)) is True


@given(p=predicates, q=predicates)
@settings(max_examples=200, deadline=None)
def test_overlap_agrees_with_brute_force(p, q):
    result = overlap(p, q)
    if result.status is Sat.SAT:
        row = complete(result.witness)
        assert truth(p.evaluate(row)) is True
        assert truth(q.evaluate(row)) is True
    elif result.status is Sat.UNSAT:  # proved disjoint
        for row in all_rows():
            assert not (
                truth(p.evaluate(row)) is True and truth(q.evaluate(row)) is True
            )


# -- counterexamples must reproduce at runtime -------------------------------


@given(premise=predicates, conclusion=predicates)
@settings(max_examples=100, deadline=None)
def test_counterexamples_reproduce_through_the_engine(premise, conclusion):
    """Every synthesized counterexample violates at runtime when replayed."""
    result = implication_counterexample(premise, conclusion)
    assume(result.status is Sat.SAT)
    row = complete(result.witness)
    outcome = replay_escape(
        Catalog(), "wide", row, Query.from_("wide").filter(premise), [],
        conclusion,
    )
    assert outcome.confirmed, (
        f"counterexample {row} for {premise} ⇒ {conclusion} did not "
        f"reproduce: {outcome.describe()}"
    )
    assert outcome.delivered_rows == 1


# -- three-valued logic edge cases -------------------------------------------


class TestThreeValuedEdges:
    def test_null_breaks_classical_tautology(self):
        # x = 1 OR NOT(x = 1) is NOT a 3VL tautology: NULL makes it UNKNOWN.
        pred = Or(
            Comparison("=", Col("a"), Lit(1)),
            Not(Comparison("=", Col("a"), Lit(1))),
        )
        result = falsifiable(pred)
        assert result.status is Sat.SAT
        assert result.witness["a"] is None

    def test_null_safe_tautology_is_proved(self):
        pred = Or(IsNull(Col("a")), IsNull(Col("a"), negated=True))
        assert falsifiable(pred).status is Sat.UNSAT

    def test_self_equality_is_falsifiable_by_null(self):
        result = falsifiable(Comparison("=", Col("a"), Col("a")))
        assert result.status is Sat.SAT
        assert result.witness["a"] is None

    def test_negated_equality_forms_agree(self):
        # disease != 'HIV' and NOT(disease = 'HIV') are 3VL-equivalent:
        # both are UNKNOWN on NULL.
        ne = Comparison("!=", Col("b"), Lit("p"))
        not_eq = Not(Comparison("=", Col("b"), Lit("p")))
        assert implication_counterexample(ne, not_eq).status is Sat.UNSAT
        assert implication_counterexample(not_eq, ne).status is Sat.UNSAT

    def test_integer_gap_is_satisfiable_between_integers(self):
        # Numbers are dense even when every constant is an int: a FLOAT
        # column holds 5.5, so reading the gap as empty would be unsound.
        pred = And(
            Comparison(">", Col("a"), Lit(5)), Comparison("<", Col("a"), Lit(6))
        )
        result = satisfiable(pred)
        assert result.status is Sat.SAT
        assert 5 < result.witness["a"] < 6
        assert result.witness["a"] != int(result.witness["a"])

    def test_float_gap_is_satisfiable(self):
        pred = And(
            Comparison(">", Col("a"), Lit(5.0)),
            Comparison("<", Col("a"), Lit(6.0)),
        )
        result = satisfiable(pred)
        assert result.status is Sat.SAT
        assert 5.0 < result.witness["a"] < 6.0

    def test_five_column_chain_above_one_constant(self):
        # A comparison group needs as many distinct values per gap as it
        # has columns; four per gap made this chain "unsatisfiable".
        columns = [Col(f"x{i}") for i in range(5)]
        pred = Comparison(">", columns[0], Lit(0))
        for low, high in zip(columns, columns[1:]):
            pred = And(pred, Comparison("<", low, high))
        result = satisfiable(pred)
        assert result.status is Sat.SAT
        assert truth(pred.evaluate(result.witness)) is True

    def test_strings_ordered_below_the_smallest_constant(self):
        # "" and "\x00" both sort below 'a'; one candidate there is not enough.
        pred = And(
            Comparison("<", Col("b"), Col("d")), Comparison("<", Col("d"), Lit("a"))
        )
        result = satisfiable(pred)
        assert result.status is Sat.SAT
        assert truth(pred.evaluate(result.witness)) is True

    def test_datetimes_ordered_inside_a_sub_day_gap(self):
        import datetime

        start = datetime.datetime(2024, 1, 1, 9, 0)
        pred = And(
            And(
                Comparison(">", Col("t1"), Lit(start)),
                Comparison("<", Col("t2"), Lit(start + datetime.timedelta(hours=1))),
            ),
            Comparison("<", Col("t1"), Col("t2")),
        )
        result = satisfiable(pred)
        assert result.status is Sat.SAT
        assert truth(pred.evaluate(result.witness)) is True

    def test_gap_between_large_integers_keeps_an_integer_witness(self):
        # Past 2**53 a float midpoint rounds back onto a constant; the gap
        # still holds the integers 2**60 + 1 .. 2**60 + 3.
        low = 2**60
        pred = And(
            Comparison(">", Col("a"), Lit(low)), Comparison("<", Col("a"), Lit(low + 4))
        )
        result = satisfiable(pred)
        assert result.status is Sat.SAT
        assert type(result.witness["a"]) is int
        assert low < result.witness["a"] < low + 4

    def test_large_integer_gap_holding_fewer_values_than_columns(self):
        # Three ordered columns inside a gap that holds two integers and no
        # float cannot all differ, but two of them can.
        low = 2**60
        inside = And(
            Comparison(">", Col("a"), Lit(low)), Comparison("<", Col("c"), Lit(low + 3))
        )
        two = And(inside, Comparison("<", Col("a"), Col("c")))
        three = And(
            And(inside, Comparison("<", Col("a"), Col("b"))),
            Comparison("<", Col("b"), Col("c")),
        )
        assert satisfiable(two).status is Sat.SAT
        assert satisfiable(three).status is Sat.UNSAT

    def test_above_a_large_float_constant(self):
        # 1e16 + 1 == 1e16 in float arithmetic; the integer above is exact.
        result = satisfiable(Comparison(">", Col("a"), Lit(1e16)))
        assert result.status is Sat.SAT
        assert result.witness["a"] > 1e16
        below = satisfiable(Comparison("<", Col("a"), Lit(-1e16)))
        assert below.status is Sat.SAT
        assert below.witness["a"] < -1e16

    def test_datetimes_microseconds_apart(self):
        import datetime

        start = datetime.datetime(2024, 1, 1, 9, 0)
        tick = datetime.timedelta(microseconds=1)
        # A four-column group spreads four points over a 2 µs gap; each step
        # rounds to zero microseconds, and the one datetime inside remains.
        columns = [Col(f"t{i}") for i in range(4)]
        gap = And(
            Comparison(">", columns[0], Lit(start)),
            Comparison("<", columns[0], Lit(start + 2 * tick)),
        )
        for low, high in zip(columns, columns[1:]):
            gap = And(gap, Comparison("<", low, high))
        result = satisfiable(gap)
        assert result.status is Sat.SAT
        assert result.witness["t0"] == start + tick
        adjacent = And(
            Comparison(">", Col("t"), Lit(start)),
            Comparison("<", Col("t"), Lit(start + tick)),
        )
        assert satisfiable(adjacent).status is Sat.UNSAT

    def test_contradictory_range_is_unsatisfiable(self):
        pred = And(
            Comparison(">", Col("a"), Lit(100)),
            Comparison("<", Col("a"), Lit(10)),
        )
        result = satisfiable(pred)
        assert result.status is Sat.UNSAT

    def test_in_list_with_negation(self):
        pred = And(
            InList(Col("b"), ("p", "q")), Not(InList(Col("b"), ("p",)))
        )
        result = satisfiable(pred)
        assert result.status is Sat.SAT
        assert result.witness["b"] == "q"

    def test_disjoint_ranges(self):
        assert overlap(
            Comparison("<", Col("a"), Lit(5)),
            Comparison(">", Col("a"), Lit(10)),
        ).status is Sat.UNSAT

    def test_none_predicate_conventions(self):
        # None = unrestricted: trivially satisfiable, implies nothing new.
        assert satisfiable(None).status is Sat.SAT
        assert implication_counterexample(
            Comparison(">", Col("a"), Lit(0)), None
        ).status is Sat.UNSAT
        assert falsifiable(None).status is Sat.UNSAT
