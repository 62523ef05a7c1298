"""Solver-depth tests: linear arithmetic atoms, functional dependencies,
and the fail-closed hardening of the verify fragment boundary.

Three layers, mirroring the feature:

* **differential properties** — hypothesis trees now draw linear
  ``Arith`` atoms (``a*x + b ⋈ c`` and affine column-column edges), and a
  separate property checks FD-conditioned implications against brute
  force over FD-respecting universes, replaying every refutation through
  the production enforcement path;
* **pinned regressions** — mixed date/datetime pools answer UNKNOWN with
  a reason instead of crashing, datetime witnesses keep their time
  component through replay, and an evaluation error in one DNF branch can
  never be masked into UNSAT by pruning of its siblings;
* **integration** — FD-dependent VER002 claims prove with ``ASSUME``
  provenance in the trace, FD-violating witnesses are rejected at replay,
  ``fds_from_star`` derives only data-functional level pairs, a changed
  FD mapping invalidates the incremental verdict cache, and the static
  analyzer inherits arithmetic reasoning (PLA004, OR-branch pruning).
"""

from __future__ import annotations

import datetime
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.annotations import IntensionalCondition
from repro.core.metareport import MetaReport, MetaReportSet
from repro.core.pla import PLA, PlaLevel, PlaStatus
from repro.relational import Catalog, Query, Table, make_schema
from repro.relational.expressions import (
    And,
    Arith,
    Col,
    Comparison,
    InList,
    Lit,
    Not,
    Or,
)
from repro.relational.types import ColumnType
from repro.reports.definition import ReportDefinition
from repro.verify import (
    DeploymentVerifier,
    FunctionalDependency,
    IncrementalVerifier,
    Sat,
    SourcePolicy,
    Verdict,
    VerificationInput,
    fds_from_star,
    implication_counterexample,
    replay_escape,
    satisfiable,
    truth,
    violated_fd,
)
from repro.verify.domain import set_arithmetic_enabled
from repro.verify.fd import complete_row
from repro.warehouse.star import Dimension, StarSchema

INT = ColumnType.INT
STRING = ColumnType.STRING

OPS = ("<", "<=", ">", ">=", "=", "!=")
INT_CONSTS = (-2, 0, 1, 3)

#: Linear-atom building blocks. Coefficients stay small so boundaries
#: land near the brute-force grid; 2 and 3 both produce fractional
#: boundaries against odd constants, exercising the dense-typing rule.
COEFFS = (2, 3, -2)
SHIFTS = (-1, 1, 2)

#: Brute-force grid for the arithmetic property. Integers only — the
#: solver types a pool integer when all its members are integral, and a
#: dense grid would falsely "refute" integer-gap UNSAT proofs. Fractional
#: witnesses are checked directly by evaluating them, never via the grid.
INT_DOMAIN = tuple(range(-6, 8)) + (None,)

ARITH_COLUMNS = ("a", "c")


def arith_rows():
    for a, c in itertools.product(INT_DOMAIN, INT_DOMAIN):
        yield {"a": a, "c": c}


def complete(witness, columns):
    row = {name: None for name in columns}
    row.update(witness)
    return row


@st.composite
def arith_atoms(draw):
    """Atoms over int columns a, c — plain and linear-arithmetic shapes."""
    kind = draw(st.integers(0, 4))
    op = draw(st.sampled_from(OPS))
    col = draw(st.sampled_from(ARITH_COLUMNS))
    const = draw(st.sampled_from(INT_CONSTS))
    if kind == 0:  # plain column-vs-constant
        return Comparison(op, Col(col), Lit(const))
    if kind == 1:  # coeff * x ⋈ c
        return Comparison(
            op,
            Arith("*", Col(col), Lit(draw(st.sampled_from(COEFFS)))),
            Lit(const),
        )
    if kind == 2:  # x + b ⋈ c  /  x - b ⋈ c
        return Comparison(
            op,
            Arith(
                draw(st.sampled_from(("+", "-"))),
                Col(col),
                Lit(draw(st.sampled_from(SHIFTS))),
            ),
            Lit(const),
        )
    if kind == 3:  # affine edge: a ⋈ coeff * c (+ shift)
        rhs = Arith("*", Col("c"), Lit(draw(st.sampled_from(COEFFS))))
        if draw(st.booleans()):
            rhs = Arith("+", rhs, Lit(draw(st.sampled_from(SHIFTS))))
        return Comparison(op, Col("a"), rhs)
    return Comparison(op, Col("a"), Col("c"))  # plain edge, same group


arith_predicates = st.recursive(
    arith_atoms(),
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Not, kids),
    ),
    max_leaves=5,
)


@given(predicate=arith_predicates)
@settings(max_examples=150, deadline=None)
def test_arithmetic_satisfiable_agrees_with_brute_force(predicate):
    result = satisfiable(predicate)
    if result.status is Sat.SAT:
        row = complete(result.witness, ARITH_COLUMNS)
        assert truth(predicate.evaluate(row)) is True
    elif result.status is Sat.UNSAT:
        for row in arith_rows():
            assert truth(predicate.evaluate(row)) is not True, (
                f"solver said UNSAT but {row} satisfies {predicate}"
            )


@given(premise=arith_predicates, conclusion=arith_predicates)
@settings(max_examples=150, deadline=None)
def test_arithmetic_implication_agrees_with_brute_force(premise, conclusion):
    result = implication_counterexample(premise, conclusion)
    if result.status is Sat.SAT:
        row = complete(result.witness, ARITH_COLUMNS)
        assert truth(premise.evaluate(row)) is True
        assert truth(conclusion.evaluate(row)) is not True
    elif result.status is Sat.UNSAT:
        for row in arith_rows():
            if truth(premise.evaluate(row)) is True:
                assert truth(conclusion.evaluate(row)) is True, (
                    f"solver proved {premise} ⇒ {conclusion} but {row} "
                    "is a counterexample"
                )


# -- FD-conditioned implications vs brute force ------------------------------

FD = FunctionalDependency(
    name="dim_drug.drug->disease",
    determinant="drug",
    dependent="disease",
    mapping=(
        ("aspirin", "flu"),
        ("lamivudine", "HIV"),
        ("metformin", "diabetes"),
    ),
    source="dimension drug",
)

FD_COLUMNS = ("drug", "disease", "cost")
DRUGS = ("aspirin", "lamivudine", "metformin", "ibuprofen")
DISEASES = ("flu", "HIV", "diabetes", "asthma")
COST_DOMAIN = (-1, 0, 10, 50, 100, None)


def fd_rows():
    """Every universe row the FD admits (the dimension's combinations)."""
    for (drug, disease), cost in itertools.product(FD.mapping, COST_DOMAIN):
        yield {"drug": drug, "disease": disease, "cost": cost}


@st.composite
def fd_atoms(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Comparison(
            draw(st.sampled_from(("=", "!="))),
            Col("drug"),
            Lit(draw(st.sampled_from(DRUGS))),
        )
    if kind == 1:
        return Comparison(
            draw(st.sampled_from(("=", "!="))),
            Col("disease"),
            Lit(draw(st.sampled_from(DISEASES))),
        )
    if kind == 2:
        values = draw(
            st.lists(st.sampled_from(DRUGS), min_size=1, max_size=3,
                     unique=True)
        )
        return InList(Col("drug"), tuple(values))
    return Comparison(
        draw(st.sampled_from(OPS)),
        Col("cost"),
        Lit(draw(st.sampled_from((0, 10, 50)))),
    )


fd_predicates = st.recursive(
    fd_atoms(),
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Not, kids),
    ),
    max_leaves=4,
)


@given(premise=fd_predicates, conclusion=fd_predicates)
@settings(max_examples=120, deadline=None)
def test_fd_conditioned_implication_agrees_with_brute_force(
    premise, conclusion
):
    """FD-premised verdicts are exact over FD-respecting universes."""
    result = implication_counterexample(
        And(premise, FD.predicate()), conclusion
    )
    if result.status is Sat.SAT:
        row = complete(result.witness, FD_COLUMNS)
        row = complete_row(row, result.witness, (FD,))
        assert violated_fd(row, (FD,)) is None, (
            f"witness {row} violates the FD it was proved under"
        )
        assert truth(premise.evaluate(row)) is True
        assert truth(conclusion.evaluate(row)) is not True
    elif result.status is Sat.UNSAT:
        for row in fd_rows():
            if truth(premise.evaluate(row)) is True:
                assert truth(conclusion.evaluate(row)) is True, (
                    f"solver proved it under the FD but {row} (an "
                    "FD-respecting row) is a counterexample"
                )


@given(premise=fd_predicates, conclusion=fd_predicates)
@settings(max_examples=60, deadline=None)
def test_fd_refutations_replay_through_the_engine(premise, conclusion):
    """Every FD-respecting refutation reproduces through enforcement."""
    result = implication_counterexample(
        And(premise, FD.predicate()), conclusion
    )
    assume(result.status is Sat.SAT)
    row = complete(result.witness, FD_COLUMNS)
    row = complete_row(row, result.witness, (FD,))
    outcome = replay_escape(
        Catalog(),
        "wide",
        row,
        Query.from_("wide").filter(premise),
        [],
        conclusion,
        fds=(FD,),
    )
    assert outcome.confirmed, (
        f"counterexample {row} for {premise} ⇒ {conclusion} did not "
        f"reproduce: {outcome.describe()}"
    )
    assert outcome.delivered_rows == 1


# -- pinned: linear arithmetic acceptance ------------------------------------


class TestLinearArithmeticAtoms:
    def test_scaled_comparison_is_sat_with_witness(self):
        # The issue's acceptance shape: cost * 1.2 > 100 must decide.
        pred = Comparison(">", Arith("*", Col("cost"), Lit(1.2)), Lit(100))
        result = satisfiable(pred)
        assert result.status is Sat.SAT
        assert result.witness["cost"] * 1.2 > 100

    def test_scaled_conjunction_is_unsat(self):
        pred = And(
            Comparison(">", Arith("*", Col("cost"), Lit(1.2)), Lit(100)),
            Comparison("<", Col("cost"), Lit(80)),
        )
        assert satisfiable(pred).status is Sat.UNSAT

    def test_scaled_implication_proves_and_refutes(self):
        premise = Comparison(">", Arith("*", Col("cost"), Lit(1.2)), Lit(100))
        proved = implication_counterexample(
            premise, Comparison(">", Col("cost"), Lit(50))
        )
        assert proved.status is Sat.UNSAT
        refuted = implication_counterexample(
            premise, Comparison(">", Col("cost"), Lit(90))
        )
        assert refuted.status is Sat.SAT
        cost = refuted.witness["cost"]
        assert cost * 1.2 > 100 and not cost > 90

    def test_integral_boundaries_keep_numbers_dense(self):
        # 2a > 10 solves to the integral boundary 5. Numbers are dense, so
        # the (5, 6) gap still holds a witness, and it is not an integer.
        pred = And(
            Comparison(">", Arith("*", Col("a"), Lit(2)), Lit(10)),
            Comparison("<", Col("a"), Lit(6)),
        )
        result = satisfiable(pred)
        assert result.status is Sat.SAT
        assert 5 < result.witness["a"] < 6
        assert result.witness["a"] != int(result.witness["a"])

    def test_fractional_boundary_forces_dense_typing(self):
        # 2a > 11 has the fractional boundary 5.5 — the pool densifies and
        # the same gap now admits a witness.
        pred = And(
            Comparison(">", Arith("*", Col("a"), Lit(2)), Lit(11)),
            Comparison("<", Col("a"), Lit(6)),
        )
        result = satisfiable(pred)
        assert result.status is Sat.SAT
        assert 5.5 < result.witness["a"] < 6

    def test_affine_edge_crossing_found(self):
        # Feasible only where the two threshold lines have crossed (c > 5):
        # the crossing-point seeding must discover it from an empty pool.
        pred = And(
            Comparison(">", Col("a"), Arith("*", Col("c"), Lit(2))),
            Comparison(
                "<",
                Col("a"),
                Arith("-", Arith("*", Col("c"), Lit(3)), Lit(5)),
            ),
        )
        result = satisfiable(pred)
        assert result.status is Sat.SAT
        a, c = result.witness["a"], result.witness["c"]
        assert a > 2 * c and a < 3 * c - 5

    def test_nonlinear_stays_unknown(self):
        pred = Comparison(">", Arith("*", Col("a"), Col("c")), Lit(10))
        result = satisfiable(pred)
        assert result.status is Sat.UNKNOWN
        assert result.reason

    def test_division_by_zero_stays_unknown(self):
        pred = Comparison(">", Arith("/", Col("a"), Lit(0)), Lit(1))
        result = satisfiable(pred)
        assert result.status is Sat.UNKNOWN
        assert result.reason

    def test_ablation_toggle_restores_pre_extension_behaviour(self):
        pred = Comparison(">", Arith("*", Col("cost"), Lit(1.2)), Lit(100))
        previous = set_arithmetic_enabled(False)
        try:
            result = satisfiable(pred)
            assert result.status is Sat.UNKNOWN
            assert "disabled" in result.reason
        finally:
            set_arithmetic_enabled(previous)
        assert satisfiable(pred).status is Sat.SAT


# -- pinned: fail-closed fragment boundary -----------------------------------


class TestFailClosedBoundary:
    def test_mixed_date_datetime_pool_is_unknown_with_reason(self):
        # Regression: ordering a pool holding both a date and a datetime
        # used to crash candidate construction; it must answer UNKNOWN.
        pred = And(
            Comparison(">", Col("d"), Lit(datetime.date(2007, 2, 12))),
            Comparison(
                "<", Col("d"), Lit(datetime.datetime(2007, 2, 12, 9, 0))
            ),
        )
        result = satisfiable(pred)
        assert result.status is Sat.UNKNOWN
        assert "mixed-type constant pool" in result.reason
        assert "date" in result.reason and "datetime" in result.reason

    def test_branch_error_cannot_be_masked_into_unsat(self, monkeypatch):
        """An evaluation error in one DNF branch taints the whole search.

        The first branch's candidates raise on comparison ("x" > 2), the
        second branch is soundly pruned as inconsistent. Before the
        had_error audit the pruned branch let the search fall through to
        UNSAT — an unsound claim, since the erroring branch was never
        actually decided.
        """
        monkeypatch.setattr(
            "repro.verify.solver.build_domains",
            lambda exprs: {"a": ("x", None)},
        )
        pred = Or(
            And(
                Comparison(">", Col("a"), Lit(2)),
                Comparison("<", Col("a"), Lit(5)),
            ),
            And(
                Comparison(">", Col("a"), Lit(10)),
                Comparison("<", Col("a"), Lit(10)),
            ),
        )
        result = satisfiable(pred)
        assert result.status is Sat.UNKNOWN
        assert "evaluation raised" in result.reason


# -- pinned: datetime witness fidelity ---------------------------------------


class TestDatetimeWitnesses:
    def test_time_granular_witness_replays_with_time_component(self):
        # A date-granular witness (midnight) would wrongly satisfy the
        # conclusion here; only a row *inside* the morning window refutes.
        day = datetime.datetime(2007, 2, 12)
        premise = And(
            Comparison(">=", Col("ts"), Lit(day.replace(hour=8, minute=30))),
            Comparison("<=", Col("ts"), Lit(day.replace(hour=12))),
        )
        conclusion = Comparison(">=", Col("ts"), Lit(day.replace(hour=10)))
        result = implication_counterexample(premise, conclusion)
        assert result.status is Sat.SAT
        witness = result.witness["ts"]
        assert isinstance(witness, datetime.datetime)
        assert day.replace(hour=8, minute=30) <= witness < day.replace(hour=10)
        outcome = replay_escape(
            Catalog(),
            "wide",
            {"ts": witness},
            Query.from_("wide").filter(premise),
            [],
            conclusion,
        )
        assert outcome.confirmed
        assert outcome.delivered_rows == 1


# -- functional dependencies: crosslevel integration -------------------------

_HIV_DRUGS = ("lamivudine", "zidovudine")


def _crosslevel_fds() -> tuple[FunctionalDependency, ...]:
    mapping = tuple((d, "HIV") for d in _HIV_DRUGS) + (
        ("aspirin", "flu"),
        ("metformin", "diabetes"),
    )
    return (
        FunctionalDependency(
            name="dim_drug.drug->disease",
            determinant="drug",
            dependent="disease",
            mapping=mapping,
            source="dimension drug",
        ),
    )


def _fd_input(*, with_fds: bool = True) -> VerificationInput:
    """One meta-report that bans HIV *drugs*; the policy bans the disease."""
    cat = Catalog()
    schema = make_schema(
        ("drug", STRING, True), ("disease", STRING, True), ("cost", INT, True)
    )
    cat.add_table(Table.from_rows("universe", schema, [], provider="warehouse"))
    region = And(
        Comparison(">", Col("cost"), Lit(60)),
        Not(InList(Col("drug"), _HIV_DRUGS)),
    )
    query = Query.from_("universe").filter(region).project(
        "drug", "disease", "cost"
    )
    mr = MetaReport("mr_fd", query)
    pla = PLA(
        "pla_mr_fd",
        "owner",
        PlaLevel.METAREPORT,
        "mr_fd",
        (
            IntensionalCondition(
                "cost", Comparison(">", Col("cost"), Lit(0)), "suppress_row"
            ),
        ),
        status=PlaStatus.APPROVED,
    )
    mr.attach_pla(pla)
    metareports = MetaReportSet()
    metareports.add(mr)
    metareports.register_views(cat)
    report = ReportDefinition(
        "r_fd",
        "FD report",
        Query.from_("mr_fd")
        .filter(Comparison(">", Col("cost"), Lit(70)))
        .project("drug", "cost"),
        frozenset({"analyst"}),
        "care",
    )
    return VerificationInput(
        catalog=cat,
        metareports=metareports,
        reports=(report,),
        universe="universe",
        universe_columns=("drug", "disease", "cost"),
        source_policies=(
            SourcePolicy(
                "hiv-stays-home",
                "universe",
                Not(Comparison("=", Col("disease"), Lit("HIV"))),
            ),
        ),
        fds=_crosslevel_fds() if with_fds else (),
    )


class TestFdConditionedVerification:
    def test_fd_dependent_claim_proves_with_assume_provenance(self):
        # The region constrains only the drug; Not(disease = 'HIV') is
        # provable solely because the drug determines the disease. The
        # FD-free first pass refutes with an impossible row, and the FD
        # retry both proves the claim and records what it assumed.
        report = DeploymentVerifier(_fd_input()).verify()
        assert report.all_proved and report.unknown == ()
        checks = [
            r for r in report.by_code("VER002") if "hiv-stays-home" in r.claim
        ]
        assert len(checks) == 1
        trace = checks[0].trace
        assert trace is not None
        assumes = [s for s in trace.steps if s.startswith("ASSUME(")]
        assert len(assumes) == 1
        assert "drug -> disease" in assumes[0]
        assert "dimension drug" in assumes[0]

    def test_without_fds_the_same_claim_refutes_with_replay(self):
        report = DeploymentVerifier(_fd_input(with_fds=False)).verify()
        checks = [
            r for r in report.by_code("VER002") if "hiv-stays-home" in r.claim
        ]
        assert len(checks) == 1
        assert checks[0].verdict is Verdict.REFUTED
        ce = checks[0].counterexample
        assert ce is not None and ce.replay.confirmed
        # No static/runtime drift either way.
        assert report.by_code("VER006") == ()

    def test_replay_rejects_fd_violating_witness(self):
        (fd,) = _crosslevel_fds()
        row = {"drug": "aspirin", "disease": "HIV", "cost": 99}
        outcome = replay_escape(
            Catalog(),
            "universe",
            row,
            Query.from_("universe").filter(
                Comparison(">", Col("cost"), Lit(0))
            ),
            [],
            Not(Comparison("=", Col("disease"), Lit("HIV"))),
            fds=(fd,),
        )
        assert not outcome.confirmed
        assert "violates declared functional dependency" in outcome.detail
        assert "drug -> disease" in outcome.detail


class TestFdsFromStar:
    def _star(self, rows, *, levels=("drug", "disease")):
        table = Table.from_rows(
            "dim_drug",
            make_schema(
                ("drug_id", INT, False),
                ("drug", STRING, True),
                ("disease", STRING, True),
            ),
            rows,
        )
        dim = Dimension("drug", "drug_id", table, levels)
        fact = Table.from_rows(
            "fact", make_schema(("drug_id", INT, False), ("cost", INT, True)), []
        )
        return StarSchema("star", fact, [dim])

    def test_functional_level_pair_is_derived(self):
        star = self._star(
            [(1, "aspirin", "flu"), (2, "metformin", "diabetes"),
             (3, "lamivudine", "HIV")]
        )
        fds = fds_from_star(star)
        assert len(fds) == 1
        fd = fds[0]
        assert fd.determinant == "drug" and fd.dependent == "disease"
        assert fd.source == "dimension drug"
        assert dict(fd.mapping) == {
            "aspirin": "flu", "metformin": "diabetes", "lamivudine": "HIV"
        }
        assert fd.holds({"drug": "aspirin", "disease": "flu"})
        assert not fd.holds({"drug": "aspirin", "disease": "HIV"})

    def test_non_functional_data_yields_no_fd(self):
        star = self._star(
            [(1, "aspirin", "flu"), (2, "aspirin", "asthma")]
        )
        assert fds_from_star(star) == ()

    def test_oversized_mappings_are_skipped(self):
        rows = [(i, f"drug_{i}", f"disease_{i}") for i in range(5)]
        assert fds_from_star(self._star(rows), max_pairs=4) == ()
        assert len(fds_from_star(self._star(rows), max_pairs=5)) == 1

    def test_single_level_dimension_yields_no_fd(self):
        star = self._star([(1, "aspirin", "flu")], levels=("drug",))
        assert fds_from_star(star) == ()

    def test_seed_scenario_fds_flow_into_verification_input(self):
        from repro.simulation import ScenarioConfig, build_scenario

        scenario = build_scenario(ScenarioConfig(n_reports=3))
        target = VerificationInput.from_scenario(scenario)
        assert target.fds == fds_from_star(scenario.star)


class TestFdIncrementalInvalidation:
    def test_incremental_matches_full_with_fds(self):
        target = _fd_input()
        warm = IncrementalVerifier(target).verify()
        full = DeploymentVerifier(target).verify()
        assert [
            (r.code, r.location, r.verdict) for r in warm.results
        ] == [(r.code, r.location, r.verdict) for r in full.results]

    def test_changed_fd_mapping_invalidates_every_unit(self):
        verifier = IncrementalVerifier(_fd_input())
        verifier.verify()
        cache = verifier.cache

        cache.hits = cache.misses = 0
        IncrementalVerifier(_fd_input(), cache=cache).verify()
        assert cache.misses == 0 and cache.hits > 0  # unchanged: all reused

        changed = _fd_input()
        (fd,) = changed.fds
        changed.fds = (
            FunctionalDependency(
                name=fd.name,
                determinant=fd.determinant,
                dependent=fd.dependent,
                mapping=fd.mapping + (("ibuprofen", "flu"),),
                source=fd.source,
            ),
        )
        cache.hits = cache.misses = 0
        IncrementalVerifier(changed, cache=cache).verify()
        assert cache.hits == 0 and cache.misses > 0  # dimension drifted


# -- the analyzer inherits arithmetic depth ----------------------------------


class TestAnalysisInheritsArithmetic:
    def test_pla004_fires_on_arithmetic_contradiction(self):
        from repro.analysis import AnalysisInput, Severity, StaticAnalyzer

        cat = Catalog()
        cat.add_table(
            Table.from_rows(
                "dwh",
                make_schema(("drug", STRING, True), ("cost", INT, True)),
                [("aspirin", 10)],
                provider="bi",
            )
        )
        dead = And(
            Comparison(">", Arith("*", Col("cost"), Lit(1.2)), Lit(100)),
            Comparison("<", Arith("*", Col("cost"), Lit(1.2)), Lit(50)),
        )
        mr = MetaReport("mr", Query.from_("dwh").project("drug", "cost"))
        pla = PLA(
            "pla_mr",
            "healthcare",
            PlaLevel.METAREPORT,
            "mr",
            (IntensionalCondition("cost", dead, "suppress_row"),),
        ).approved()
        mr.attach_pla(pla)
        metareports = MetaReportSet()
        metareports.add(mr)
        metareports.register_views(cat)
        report = StaticAnalyzer(
            AnalysisInput(catalog=cat, metareports=metareports)
        ).analyze()
        found = [
            d for d in report.by_code("PLA004")
            if "unsatisfiable" in d.message
        ]
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR

    def test_dataflow_prunes_arithmetic_dead_branch(self):
        from repro.analysis.dataflow import live_predicate_columns

        predicate = And(
            Comparison(">", Arith("*", Col("cost"), Lit(2)), Lit(100)),
            Or(
                And(
                    Comparison("=", Col("zip"), Lit("38100")),
                    Comparison("<", Col("cost"), Lit(10)),
                ),
                Comparison("=", Col("gender"), Lit("f")),
            ),
        )
        live = live_predicate_columns(predicate)
        # The zip branch needs cost < 10, disjoint from 2·cost > 100 —
        # provable only with the arithmetic atom solved exactly.
        assert "zip" not in live
        assert {"cost", "gender"} <= live


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
