"""End-to-end tests for the cross-level PLA verifier (VER001–VER006).

The seed healthcare deployment must verify completely clean — every claim
PROVED, nothing UNKNOWN — in both enforcement postures. Each deliberately
broken fixture must produce a REFUTED verdict whose synthesized
counterexample *reproduces through the real runtime engine*, and for the
drifted-view fixture the escape is additionally demonstrated end-to-end
through the production delivery service.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import Severity
from repro.core.annotations import IntensionalCondition
from repro.core.pla import PLA, PlaLevel
from repro.relational.algebra import AggSpec
from repro.relational.expressions import (
    And,
    Col,
    Comparison,
    InList,
    Lit,
    Not,
)
from repro.relational.query import Query
from repro.reports.definition import ReportDefinition
from repro.simulation.scenario import ScenarioConfig, build_scenario
from repro.verify import (
    DeploymentVerifier,
    Verdict,
    VerificationInput,
    verify_scenario,
)


@pytest.fixture(scope="module")
def seed_scenario():
    return build_scenario(ScenarioConfig(n_reports=12))


def fresh_scenario(**kwargs):
    return build_scenario(ScenarioConfig(n_reports=12, **kwargs))


class TestSeedDeploymentProves:
    def test_seed_scenario_all_proved_no_unknown(self, seed_scenario):
        report = verify_scenario(seed_scenario)
        assert report.all_proved
        assert report.unknown == ()
        assert report.refuted == ()
        assert report.coverage["metareports"] == 4
        assert report.coverage["reports"] == 12
        # Every check family ran.
        for code in ("VER002", "VER003", "VER004", "VER005"):
            assert report.by_code(code), f"no {code} checks ran"
        assert any(r.code == "VER001" for r in report.results)

    def test_source_enforcing_posture_proves_source_policy(self):
        scenario = fresh_scenario(source_enforces=True)
        report = verify_scenario(scenario)
        assert report.all_proved and report.unknown == ()
        # The provider's deny-row consent rule became a real implication
        # proof against every meta-report region.
        policy_checks = [
            r for r in report.by_code("VER002") if "hiv-rows-stay-home" in r.claim
        ]
        assert len(policy_checks) == 4
        assert all(r.trace is not None for r in policy_checks)

    def test_exit_code_and_diagnostics_clean(self, seed_scenario):
        report = verify_scenario(seed_scenario)
        assert report.exit_code(Severity.WARNING) == 0
        assert not list(report.to_diagnostics().diagnostics)

    def test_json_rendering_round_trips(self, seed_scenario):
        report = verify_scenario(seed_scenario)
        payload = json.loads(report.to_json())
        assert payload["counts"]["refuted"] == 0
        assert payload["counts"]["unknown"] == 0
        assert len(payload["results"]) == len(report.results)


class TestVer001DriftedView:
    """Approved meta-report definition tampered; catalog view stays wide.

    Derivability compares the report, through the catalog's views, with
    the *approved* meta-report, so the compliance checker itself refuses a
    report that only the drifted view could serve. VER001 is the
    independent second check: with a checker planted to skip that
    comparison, it refutes the report with a counterexample that
    reproduces through the engine and the delivery service.
    """

    def broken(self, *, planted_checker: bool = True):
        scenario = fresh_scenario()
        # A report authored FROM the meta-report view; ``date`` is exposed
        # by mr_0 alone, so no other meta-report can cover it.
        scenario.report_catalog.add(
            ReportDefinition(
                "crafted_agg",
                "Crafted aggregate",
                Query.from_("mr_0").group("date").agg(AggSpec("count", None, "n")),
                frozenset({"analyst"}),
                "care/quality",
            )
        )
        # The owner's approved artifact narrows to an empty-ish region while
        # the registered catalog view silently keeps serving everything.
        mr0 = scenario.metareports.get("mr_0")
        mr0.query = mr0.query.filter(Comparison("<", Col("cost"), Lit(0)))
        if planted_checker:
            # A checker that takes a view-sourced report's own meta-report
            # as its cover without comparing their predicates.
            genuine = scenario.metareports.find_covering

            def find_covering(report, catalog):
                if report.name == "crafted_agg":
                    return mr0, ()
                return genuine(report, catalog)

            scenario.metareports.find_covering = find_covering
        return scenario

    def test_merged_check_refuses_the_drift(self):
        scenario = self.broken(planted_checker=False)
        verdict = scenario.checker.check_report(
            scenario.report_catalog.current("crafted_agg")
        )
        assert not verdict.compliant and verdict.covering_metareport is None
        (mr0_attempt,) = [
            a for a in verdict.derivability_attempts if a.metareport == "mr_0"
        ]
        assert any("predicate" in r for r in mr0_attempt.reasons)
        report = verify_scenario(scenario)
        assert report.refuted == () and report.unknown == ()
        assert not [r for r in report.results if "crafted_agg" in r.location]

    def test_refuted_with_confirmed_counterexample(self):
        report = verify_scenario(self.broken())
        assert report.unknown == ()
        refuted = report.by_code("VER001")
        refuted = [r for r in refuted if r.verdict is Verdict.REFUTED]
        assert len(refuted) == 1
        check = refuted[0]
        assert check.location == "report:crafted_agg"
        assert check.counterexample is not None
        assert check.counterexample.replay.confirmed
        assert check.counterexample.replay.delivered_rows >= 1
        # The witness row really lies outside the approved region.
        assert check.counterexample.row["cost"] >= 0
        # No static/runtime drift: the engine agreed with the solver.
        assert report.by_code("VER006") == ()

    def test_escape_reproduces_through_delivery_service(self):
        """The refuted claim is a real leak, not a verifier artifact: the
        production delivery path serves rows from outside the approved
        region."""
        scenario = self.broken()
        service = scenario.delivery_service()
        instance = service.deliver("crafted_agg", user="ann", purpose="care/quality")
        # The approved region (cost < 0) is empty in the seed data, yet the
        # drifted catalog view keeps feeding the report.
        assert len(instance.table) > 0
        fact = scenario.bi_catalog.table("fact_prescriptions")
        cost_at = fact.schema.names.index("cost")
        assert all(row[cost_at] >= 0 for row in fact.rows)

    def test_refutation_maps_to_error_diagnostic(self):
        report = verify_scenario(self.broken())
        diags = report.to_diagnostics()
        assert any(
            d.code == "VER001" and d.severity is Severity.ERROR
            for d in diags.diagnostics
        )
        assert report.exit_code(Severity.ERROR) == 1


class TestVer002SourcePolicyEscape:
    """A source PLA stricter than what the meta-reports enforce."""

    def broken(self):
        scenario = fresh_scenario()
        scenario.pla_registry.add(
            PLA(
                name="pla_src_prescriptions",
                owner="hospital",
                level=PlaLevel.SOURCE,
                target="prescriptions",
                annotations=(
                    IntensionalCondition(
                        attribute="disease",
                        condition=Not(InList(Col("disease"), ("HIV", "HCV"))),
                        action="suppress_row",
                    ),
                ),
            )
        )
        scenario.pla_registry.approve("pla_src_prescriptions")
        return scenario

    def test_every_metareport_refuted_with_replay(self):
        report = verify_scenario(self.broken())
        assert report.unknown == ()
        refuted = [
            r for r in report.by_code("VER002") if r.verdict is Verdict.REFUTED
        ]
        assert len(refuted) == 4  # every meta-report lets the row through
        for check in refuted:
            ce = check.counterexample
            assert ce is not None
            # The meta-report PLAs only suppress HIV, so HCV escapes.
            assert ce.row["disease"] == "HCV"
            assert ce.replay.confirmed
        assert report.by_code("VER006") == ()


def _results_target(result_type):
    """A ``result > 5`` meta-report checked against ``result >= 6`` at the source."""
    from repro.core.annotations import AttributeAccess
    from repro.core.metareport import MetaReport, MetaReportSet
    from repro.core.pla import PlaRegistry
    from repro.relational import Catalog, Table, View, make_schema
    from repro.relational.types import ColumnType
    from repro.verify import SourcePolicy

    catalog = Catalog()
    schema = make_schema(("patient", ColumnType.STRING), ("result", result_type))
    catalog.add_table(
        Table.from_rows("universe", schema, [("p1", 7)], provider="lab")
    )
    query = Query.from_("universe").filter(
        Comparison(">", Col("result"), Lit(5))
    ).project("patient", "result")
    catalog.add_view(View("mr_results", query))
    registry = PlaRegistry()
    registry.add(
        PLA(
            name="pla_mr_results",
            owner="lab",
            level=PlaLevel.METAREPORT,
            target="mr_results",
            annotations=(AttributeAccess("patient", frozenset({"analyst"})),),
        )
    )
    metareports = MetaReportSet()
    metareports.add(
        MetaReport(
            "mr_results", query, pla=registry.approve("pla_mr_results")
        )
    )
    return VerificationInput(
        catalog=catalog,
        metareports=metareports,
        reports=(),
        universe="universe",
        universe_columns=("patient", "result"),
        plas=registry,
        source_policies=(
            SourcePolicy(
                "results-from-six",
                "universe",
                Comparison(">=", Col("result"), Lit(6)),
            ),
        ),
    )


class TestVer002FloatColumn:
    """Integer constants over a FLOAT column: numbers must be read densely."""

    def test_fractional_escape_refuted_and_replayed(self):
        from repro.relational.types import ColumnType

        report = DeploymentVerifier(_results_target(ColumnType.FLOAT)).verify()
        (check,) = report.by_code("VER002")
        assert check.verdict is Verdict.REFUTED
        ce = check.counterexample
        assert ce is not None
        assert ce.row["result"] == 5.5
        assert ce.replay.confirmed
        assert report.by_code("VER006") == ()


class TestVer002IntColumn:
    """The same claim over an INT column: the fractional witness cannot replay."""

    def test_fractional_witness_fails_replay_and_raises_drift(self):
        from repro.relational.types import ColumnType

        report = DeploymentVerifier(_results_target(ColumnType.INT)).verify()
        (check,) = report.by_code("VER002")
        # The solver does not know column types, so it still refutes with
        # 5.5; the replay types ``result`` as the deployment does and
        # cannot store that row, so the refutation is flagged, not trusted.
        assert check.verdict is Verdict.REFUTED
        ce = check.counterexample
        assert ce is not None
        assert ce.row["result"] == 5.5
        assert not ce.replay.confirmed
        assert "INT column 'result'" in ce.replay.detail
        (drift,) = report.by_code("VER006")
        assert "INT column 'result'" in drift.message

    def test_replay_catalog_keeps_the_deployment_types(self):
        from repro.errors import TypeMismatchError
        from repro.relational.types import ColumnType
        from repro.verify import build_replay_catalog

        catalog = _results_target(ColumnType.INT).catalog
        replay = build_replay_catalog(
            catalog, "universe", {"patient": "p1", "result": 6.0}
        )
        result = replay.table("universe").schema.column("result")
        assert result.ctype is ColumnType.INT
        assert replay.table("universe").rows == [("p1", 6)]
        with pytest.raises(TypeMismatchError):
            build_replay_catalog(
                catalog, "universe", {"patient": "p1", "result": 5.5}
            )


class TestVer003Ver005DegeneratePla:
    """An unsatisfiable PLA condition suppresses the whole view."""

    def broken(self):
        scenario = fresh_scenario()
        mr0 = scenario.metareports.get("mr_0")
        assert mr0.pla is not None
        impossible = And(
            Comparison(">", Col("cost"), Lit(100)),
            Comparison("<", Col("cost"), Lit(10)),
        )
        draft = scenario.pla_registry.revise(
            mr0.pla.name,
            mr0.pla.annotations
            + (IntensionalCondition("cost", impossible, "suppress_row"),),
        )
        mr0.pla = scenario.pla_registry.approve(draft.name)
        return scenario

    def test_condition_and_region_refuted(self):
        report = verify_scenario(self.broken())
        assert report.unknown == ()
        ver3 = [r for r in report.by_code("VER003") if r.verdict is Verdict.REFUTED]
        assert len(ver3) == 1 and ver3[0].location == "metareport:mr_0"
        # The empty condition empties the whole runtime region too.
        ver5 = [r for r in report.by_code("VER005") if r.verdict is Verdict.REFUTED]
        assert len(ver5) == 1 and ver5[0].location == "metareport:mr_0"


class TestVer004Tautology:
    def test_null_safe_tautology_refuted(self):
        from repro.relational.expressions import IsNull, Or

        scenario = fresh_scenario()
        mr0 = scenario.metareports.get("mr_0")
        assert mr0.pla is not None
        vacuous = Or(IsNull(Col("cost")), IsNull(Col("cost"), negated=True))
        draft = scenario.pla_registry.revise(
            mr0.pla.name,
            mr0.pla.annotations
            + (IntensionalCondition("cost", vacuous, "suppress_row"),),
        )
        mr0.pla = scenario.pla_registry.approve(draft.name)
        report = verify_scenario(scenario)
        ver4 = [r for r in report.by_code("VER004") if r.verdict is Verdict.REFUTED]
        assert len(ver4) == 1
        assert "tautology" in ver4[0].message


class TestVerifierInputs:
    def test_from_deployment_round_trip(self, tmp_path, seed_scenario):
        from repro.persistence import load_deployment, save_deployment

        root = save_deployment(
            tmp_path / "dep",
            catalog=seed_scenario.bi_catalog,
            metareports=seed_scenario.metareports,
            plas=seed_scenario.pla_registry,
            reports=seed_scenario.report_catalog,
        )
        target = VerificationInput.from_deployment(load_deployment(root))
        report = DeploymentVerifier(target).verify()
        assert report.all_proved and report.unknown == ()

    def test_replay_disabled_still_refutes(self):
        scenario = TestVer001DriftedView().broken()
        target = VerificationInput.from_scenario(scenario)
        report = DeploymentVerifier(target, replay=False).verify()
        refuted = [
            r for r in report.by_code("VER001") if r.verdict is Verdict.REFUTED
        ]
        assert len(refuted) == 1
        ce = refuted[0].counterexample
        assert ce is not None and not ce.replay.confirmed
        assert "replay disabled" in ce.replay.detail
        # Unconfirmed-because-disabled must not masquerade as drift.
        assert report.by_code("VER006") == ()
