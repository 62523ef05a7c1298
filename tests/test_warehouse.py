"""Unit tests for star schemas, cubes, authorization, and DWH metadata."""

import pytest

from repro.errors import PolicyError, WarehouseError
from repro.policy import IntensionalAssociation, SubjectRegistry
from repro.relational import Catalog, execute, parse_expression
from repro.relational.algebra import AggSpec
from repro.relational.expressions import col
from repro.relational.table import Table, make_schema
from repro.relational.types import ColumnType
from repro.warehouse import (
    ColumnAnnotation,
    Cube,
    CubeAuthorizationRule,
    CubeAuthorizer,
    PrivacyMetadataRegistry,
    StarSchema,
    TableAnnotation,
    build_dimension,
    build_fact,
)


@pytest.fixture
def wide():
    schema = make_schema(
        ("patient", ColumnType.STRING),
        ("drug", ColumnType.STRING),
        ("disease", ColumnType.STRING),
        ("cost", ColumnType.INT),
    )
    rows = [
        ("Alice", "DH", "HIV", 60),
        ("Alice", "DR", "asthma", 10),
        ("Bob", "DR", "asthma", 10),
        ("Math", "DM", "diabetes", 10),
        ("Chris", "DV", "HIV", 30),
        ("Bob", "DR", "asthma", 10),
    ]
    return Table.from_rows("wide", schema, rows, provider="hospital")


@pytest.fixture
def star(wide):
    dim_drug = build_dimension("drug", wide, ["drug", "disease"], levels=["drug", "disease"])
    dim_patient = build_dimension("patient", wide, ["patient"])
    fact = build_fact(
        "rx",
        wide,
        [
            (dim_drug, {"drug": "drug", "disease": "disease"}),
            (dim_patient, {"patient": "patient"}),
        ],
        measures=["cost"],
    )
    return StarSchema("rx", fact, [dim_drug, dim_patient])


class TestStar:
    def test_dimension_has_dense_surrogates(self, wide):
        dim = build_dimension("drug", wide, ["drug"])
        keys = dim.table.column_values("drug_id")
        assert keys == list(range(len(dim.table)))

    def test_dimension_has_empty_lineage_but_where(self, wide):
        # Dimension members are reference data: no lineage, but the where-
        # provenance unions every base cell that exhibited the member.
        dim = build_dimension("drug", wide, ["drug"])
        dr = [i for i in range(len(dim.table)) if dim.table.rows[i][1] == "DR"][0]
        assert dim.table.lineage_of(dr) == frozenset()
        assert len(dim.table.provenance[dr].where_of("drug")) == 3

    def test_fact_preserves_row_count_and_lineage(self, star, wide):
        assert len(star.fact) == len(wide)
        assert star.fact.all_lineage() == wide.all_lineage()

    def test_fact_rejects_missing_member(self, wide):
        dim = build_dimension("drug", wide, ["drug"])
        other = Table.from_rows(
            "w2", wide.schema, [("X", "ZZ", "flu", 1)], provider="hospital"
        )
        with pytest.raises(WarehouseError):
            build_fact("bad", other, [(dim, {"drug": "drug"})], ["cost"])

    def test_wide_view_roundtrip(self, star, wide):
        cat = Catalog()
        star.register(cat)
        out = execute(cat.view(star.wide_view_name()).query, cat)
        assert len(out) == len(wide)
        assert set(out.schema.names) == {"drug", "disease", "patient", "cost"}

    def test_attribute_dimension_lookup(self, star):
        assert star.attribute_dimension("disease").name == "drug"
        with pytest.raises(WarehouseError):
            star.attribute_dimension("unknown")

    def test_level_of(self, star):
        dim = star.dimension("drug")
        assert dim.level_of("drug") == 0 and dim.level_of("disease") == 1


class TestCube:
    @pytest.fixture
    def cube(self, star):
        return Cube(star, Catalog())

    def test_aggregate_by_drug(self, cube):
        cq = cube.base_query(["drug"], [AggSpec("count", None, "n")])
        out = cube.evaluate(cq)
        counts = dict(out.rows)
        assert counts == {"DH": 1, "DR": 3, "DM": 1, "DV": 1}

    def test_rollup_drug_to_disease(self, cube):
        cq = cube.base_query(["drug"], [AggSpec("sum", "cost", "total")])
        rolled = cube.rollup(cq, "drug")
        assert rolled.group_by == ("disease",)
        out = cube.evaluate(rolled)
        totals = dict(out.rows)
        assert totals == {"HIV": 90, "asthma": 30, "diabetes": 10}

    def test_rollup_at_top_drops_attribute(self, cube):
        cq = cube.base_query(["disease"], [AggSpec("count", None, "n")])
        rolled = cube.rollup(cq, "disease")
        assert rolled.group_by == ()
        out = cube.evaluate(rolled)
        assert out.rows == [(6,)]

    def test_drilldown(self, cube):
        cq = cube.base_query(["disease"], [AggSpec("count", None, "n")])
        drilled = cube.drilldown(cq, "disease")
        assert drilled.group_by == ("drug",)

    def test_drilldown_at_bottom_rejected(self, cube):
        cq = cube.base_query(["drug"], [AggSpec("count", None, "n")])
        with pytest.raises(WarehouseError):
            cube.drilldown(cq, "drug")

    def test_slice(self, cube):
        cq = cube.base_query(["drug"], [AggSpec("count", None, "n")])
        sliced = cube.slice(cq, col("disease") == "asthma")
        out = cube.evaluate(sliced)
        assert dict(out.rows) == {"DR": 3}

    def test_dice_subset_only(self, cube):
        cq = cube.base_query(["drug", "patient"], [AggSpec("count", None, "n")])
        diced = cube.dice(cq, "drug")
        assert diced.group_by == ("drug",)
        with pytest.raises(WarehouseError):
            cube.dice(cq, "disease")

    def test_unknown_attribute_rejected(self, cube):
        with pytest.raises(WarehouseError):
            cube.evaluate(cube.base_query(["nope"], [AggSpec("count", None, "n")]))


class TestCubeAuthorization:
    @pytest.fixture
    def setup(self, star):
        cube = Cube(star, Catalog())
        subjects = SubjectRegistry()
        subjects.purposes.declare("care")
        subjects.add_role("analyst")
        subjects.add_user("ann", "analyst")
        authorizer = CubeAuthorizer(cube)
        authorizer.add_rule(
            CubeAuthorizationRule(
                role="analyst",
                max_detail={"drug": "drug"},  # patient dimension not allowed
                min_cell_contributors=2,
                denied_slices=(col("disease") == "HIV",),
            )
        )
        return cube, subjects, authorizer

    def test_allows_within_detail(self, setup):
        cube, subjects, auth = setup
        ctx = subjects.context("ann", "care")
        cq = cube.base_query(["drug"], [AggSpec("count", None, "n")])
        published, suppressed = auth.evaluate(ctx, cq)
        # HIV rows (DH, DV) are filtered out before aggregation, so those
        # cells never exist; DM's single contributor is below the floor.
        assert dict(published.rows) == {"DR": 3}
        assert suppressed == 1

    def test_denies_unlisted_dimension(self, setup):
        cube, subjects, auth = setup
        ctx = subjects.context("ann", "care")
        cq = cube.base_query(["patient"], [AggSpec("count", None, "n")])
        with pytest.raises(PolicyError):
            auth.evaluate(ctx, cq)

    def test_denies_finer_than_allowed(self, star):
        cube = Cube(star, Catalog())
        subjects = SubjectRegistry()
        subjects.purposes.declare("care")
        subjects.add_role("analyst")
        subjects.add_user("ann", "analyst")
        auth = CubeAuthorizer(cube)
        auth.add_rule(
            CubeAuthorizationRule(role="analyst", max_detail={"drug": "disease"})
        )
        ctx = subjects.context("ann", "care")
        decision = auth.check(ctx, cube.base_query(["drug"], [AggSpec("count", None, "n")]))
        assert not decision
        decision2 = auth.check(
            ctx, cube.base_query(["disease"], [AggSpec("count", None, "n")])
        )
        assert decision2

    def test_no_rule_denied(self, setup):
        cube, subjects, auth = setup
        subjects.add_role("guest")
        subjects.add_user("gus", "guest")
        ctx = subjects.context("gus", "care")
        decision = auth.check(ctx, cube.base_query(["drug"], [AggSpec("count", None, "n")]))
        assert not decision

    def test_duplicate_rule_rejected(self, setup):
        _, _, auth = setup
        with pytest.raises(PolicyError):
            auth.add_rule(CubeAuthorizationRule(role="analyst", max_detail={}))


class TestPrivacyMetadataRegistry:
    def test_column_annotations(self):
        reg = PrivacyMetadataRegistry()
        reg.annotate_column(
            ColumnAnnotation("dwh", "patient", sensitivity="identifying")
        )
        reg.annotate_column(
            ColumnAnnotation(
                "dwh", "disease", sensitivity="sensitive",
                allowed_roles=frozenset({"director"}),
            )
        )
        assert reg.sensitive_columns("dwh") == ("disease", "patient")
        ann = reg.column_annotation("dwh", "disease")
        assert ann is not None and not ann.permits_role("analyst")
        with pytest.raises(PolicyError):
            reg.annotate_column(ColumnAnnotation("dwh", "patient"))

    def test_table_annotations_and_join_rules(self):
        reg = PrivacyMetadataRegistry()
        reg.annotate_table(
            TableAnnotation("residents", joinable_with=frozenset({"prescriptions"}))
        )
        assert reg.join_permitted("residents", "prescriptions")
        assert not reg.join_permitted("residents", "exams")
        assert reg.join_permitted("other", "exams")  # unannotated = permitted

    def test_min_aggregation_composes(self):
        reg = PrivacyMetadataRegistry()
        reg.annotate_table(TableAnnotation("a", min_aggregation=5))
        reg.annotate_table(TableAnnotation("b", min_aggregation=10))
        assert reg.min_aggregation_for({"a", "b"}) == 10
        assert reg.min_aggregation_for({"c"}) == 1

    def test_purpose_restrictions(self):
        reg = PrivacyMetadataRegistry()
        reg.annotate_table(
            TableAnnotation("a", allowed_purposes=frozenset({"care"}))
        )
        ann = reg.table_annotation("a")
        assert ann is not None
        assert ann.permits_purpose("care/quality")
        assert not ann.permits_purpose("research")

    def test_row_rules(self):
        reg = PrivacyMetadataRegistry()
        reg.add_row_rule(
            IntensionalAssociation(
                "hiv", "dwh", parse_expression("disease = 'HIV'"), {"mask": True}
            )
        )
        (rule,) = reg.row_rules
        assert rule.covers({"disease": "HIV"}) and not rule.covers({"disease": "flu"})
        assert reg.annotation_count() == 1
