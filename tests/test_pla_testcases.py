"""Tests for §5's 'meta-reports as test cases' harness."""

import pytest

from repro.errors import PolicyError
from repro.core import (
    PLA,
    AggregationThreshold,
    AnonymizationRequirement,
    AttributeAccess,
    IntensionalCondition,
    MetaReport,
    PlaLevel,
    PlaRegistry,
    PlaTestHarness,
)
from repro.relational import Query, parse_expression


def approved_metareport(annotations) -> MetaReport:
    metareport = MetaReport(
        "mr", Query.from_("wide").project("patient", "drug", "disease")
    )
    registry = PlaRegistry()
    pla = PLA("p", "hospital", PlaLevel.METAREPORT, "mr", tuple(annotations))
    registry.add(pla)
    metareport.attach_pla(registry.approve("p"))
    return metareport


FULL_PLA = (
    AggregationThreshold(3),
    IntensionalCondition(
        "disease", parse_expression("disease != 'HIV'"), "suppress_row"
    ),
    AttributeAccess("patient", frozenset({"health_director"})),
    AnonymizationRequirement("patient", "pseudonymize"),
)


class TestFixtureSynthesis:
    def test_fixture_contains_edge_rows(self):
        metareport = approved_metareport(FULL_PLA)
        harness = PlaTestHarness()
        catalog, schema = harness.build_fixture(metareport, group_column="drug")
        base = catalog.table("fixture_base")
        diseases = set(base.column_values("disease"))
        assert "HIV" in diseases  # the violating side of the condition
        assert any(d != "HIV" for d in diseases)
        groups = base.column_values("drug")
        assert groups.count("drug_big") >= harness.fixture_group_size
        assert groups.count("drug_solo") == 1

    def test_fixture_registers_metareport_view(self):
        metareport = approved_metareport(FULL_PLA)
        catalog, _ = PlaTestHarness().build_fixture(metareport)
        assert "mr" in catalog and "wide" in catalog

    def test_pla_required(self):
        bare = MetaReport("mr", Query.from_("wide").project("a"))
        with pytest.raises(PolicyError):
            PlaTestHarness().build_fixture(bare)


class TestHarnessRun:
    def test_full_pla_all_cases_pass(self):
        harness = PlaTestHarness()
        results = harness.run(approved_metareport(FULL_PLA))
        assert len(results) == 4
        assert all(r.passed for r in results), [str(r) for r in results]
        assert "4/4" in harness.summary()

    def test_threshold_only(self):
        harness = PlaTestHarness()
        results = harness.run(approved_metareport((AggregationThreshold(2),)))
        assert [r.case for r in results] == ["threshold/undersized-group-suppressed"]
        assert results[0].passed

    def test_cell_level_intensional_case(self):
        harness = PlaTestHarness()
        results = harness.run(
            approved_metareport(
                (
                    IntensionalCondition(
                        "drug",
                        parse_expression("disease != 'HIV'"),
                        "suppress_cell",
                    ),
                )
            )
        )
        assert results and all(r.passed for r in results)

    @pytest.mark.parametrize(
        "threshold", [(), (AggregationThreshold(3),)], ids=["rows", "aggregate"]
    )
    def test_cell_case_fails_when_the_enforcer_drops_the_rule(self, monkeypatch, threshold):
        from repro.core import ReportLevelEnforcer
        from repro.relational.catalog import Guards

        rule = IntensionalCondition(
            "drug", parse_expression("disease != 'HIV'"), "suppress_cell"
        )
        metareport = approved_metareport((*threshold, rule))

        def cell_case():
            results = PlaTestHarness().run(metareport)
            return next(r for r in results if r.case == "intensional/edge-rows")

        assert cell_case().passed
        monkeypatch.setattr(ReportLevelEnforcer, "_guards_for", lambda *_: Guards({}))
        result = cell_case()
        assert not result.passed
        assert result.detail == "0 of 7 cell(s) blanked, 1 fail the condition"

    def test_fully_restricted_pla_rejected(self):
        annotations = tuple(
            AttributeAccess(column, frozenset())
            for column in ("patient", "drug", "disease")
        )
        with pytest.raises(PolicyError):
            PlaTestHarness().run(approved_metareport(annotations))

    def test_scenario_metareports_pass_their_own_tests(self, scenario):
        """The deployed PLAs must survive their own pre-operation tests."""
        harness = PlaTestHarness(
            roles=("analyst", "auditor", "health_director", "municipality_official")
        )
        for metareport in scenario.metareports:
            results = harness.run(metareport)
            assert results, metareport.name
            failed = [str(r) for r in results if not r.passed]
            assert not failed, f"{metareport.name}: {failed}"
