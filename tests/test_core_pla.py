"""Unit tests for annotations and the PLA model/registry."""

import pytest

from repro.errors import PolicyError
from repro.core import (
    PLA,
    AggregationThreshold,
    AnonymizationRequirement,
    AttributeAccess,
    IntegrationPermission,
    IntensionalCondition,
    JoinPermission,
    PlaLevel,
    PlaRegistry,
    PlaStatus,
)
from repro.relational import parse_expression


class TestAnnotations:
    def test_attribute_access_permits_subset_only(self):
        ann = AttributeAccess("patient", frozenset({"director", "analyst"}))
        assert ann.permits({"analyst"})
        assert ann.permits({"analyst", "director"})
        assert not ann.permits({"analyst", "guest"})

    def test_aggregation_threshold(self):
        ann = AggregationThreshold(5)
        assert ann.satisfied_by(5) and not ann.satisfied_by(4)
        with pytest.raises(PolicyError):
            AggregationThreshold(0)

    def test_anonymization_methods_validated(self):
        AnonymizationRequirement("patient", "pseudonymize")
        with pytest.raises(PolicyError):
            AnonymizationRequirement("patient", "encrypt")

    def test_join_permission_pair(self):
        ann = JoinPermission("a/x", "b/y", allowed=False)
        assert ann.pair() == frozenset({"a/x", "b/y"})
        assert "must NOT" in ann.describe()

    def test_integration_permission_describe(self):
        assert "may" in IntegrationPermission("muni", True).describe()

    def test_intensional_action_validated(self):
        with pytest.raises(PolicyError):
            IntensionalCondition("x", parse_expression("a > 0"), action="explode")

    def test_all_have_describe_and_kind(self):
        annotations = [
            AttributeAccess("a", frozenset({"r"})),
            AggregationThreshold(3),
            AnonymizationRequirement("a", "suppress"),
            JoinPermission("x", "y", True),
            IntegrationPermission("o", False),
            IntensionalCondition("a", parse_expression("a > 0")),
        ]
        kinds = {a.requirement_kind for a in annotations}
        assert len(kinds) == 6
        assert all(a.describe() for a in annotations)


def make_pla(name="pla1", version=1):
    return PLA(
        name=name,
        owner="hospital",
        level=PlaLevel.METAREPORT,
        target="mr_0",
        annotations=(AggregationThreshold(5),),
        version=version,
    )


class TestPla:
    def test_requires_annotations(self):
        with pytest.raises(PolicyError):
            PLA("p", "o", PlaLevel.REPORT, "t", ())

    def test_lifecycle(self):
        pla = make_pla()
        assert pla.status is PlaStatus.DRAFT
        approved = pla.approved()
        assert approved.status is PlaStatus.APPROVED
        superseded = approved.superseded()
        assert superseded.status is PlaStatus.SUPERSEDED

    def test_revised_bumps_version_and_resets_status(self):
        pla = make_pla().approved()
        revised = pla.revised([AggregationThreshold(10)])
        assert revised.version == 2 and revised.status is PlaStatus.DRAFT

    def test_annotations_of_kind(self):
        pla = make_pla()
        assert len(pla.annotations_of_kind("aggregation_threshold")) == 1
        assert pla.annotations_of_kind("anonymization") == ()

    def test_describe(self):
        text = make_pla().describe()
        assert "hospital" in text and "metareport:mr_0" in text


class TestPlaRegistry:
    def test_add_approve_supersede(self):
        registry = PlaRegistry()
        registry.add(make_pla())
        approved = registry.approve("pla1")
        assert approved.status is PlaStatus.APPROVED
        registry.revise("pla1", [AggregationThreshold(10)])
        registry.approve("pla1")
        versions = [p for p in registry.plas if p.name == "pla1"]
        statuses = sorted(p.status.value for p in versions)
        assert statuses == ["approved", "superseded"]

    def test_duplicate_version_rejected(self):
        registry = PlaRegistry()
        registry.add(make_pla())
        with pytest.raises(PolicyError):
            registry.add(make_pla())

    def test_approve_unknown_rejected(self):
        with pytest.raises(PolicyError):
            PlaRegistry().approve("ghost")

    def test_queries(self):
        registry = PlaRegistry()
        registry.add(make_pla())
        registry.approve("pla1")
        assert len(registry.approved_for_target(PlaLevel.METAREPORT, "mr_0")) == 1
        assert len(registry.approved_at_level(PlaLevel.METAREPORT)) == 1
        assert len(registry.by_owner("hospital")) == 1
        assert registry.annotation_count() == 1
        assert registry.requirement_kind_histogram() == {"aggregation_threshold": 1}

    def test_drafts_not_counted(self):
        registry = PlaRegistry()
        registry.add(make_pla())
        assert registry.annotation_count() == 0
        assert registry.describe() == "(no approved PLAs)"
