"""Tests for the warehouse-level enforcement point (§4)."""

import pytest

from repro.errors import ComplianceError
from repro.policy import IntensionalAssociation, SubjectRegistry
from repro.relational import Catalog, Query, Table, View, make_schema, parse_expression, parse_query
from repro.relational.types import ColumnType
from repro.warehouse import (
    ColumnAnnotation,
    PrivacyMetadataRegistry,
    TableAnnotation,
    WarehouseEnforcer,
)


@pytest.fixture
def world():
    catalog = Catalog()
    presc = make_schema(
        ("patient", ColumnType.STRING),
        ("drug", ColumnType.STRING),
        ("disease", ColumnType.STRING),
        ("cost", ColumnType.INT),
    )
    rows = [
        ("Alice", "DH", "HIV", 60),
        ("Bob", "DR", "asthma", 10),
        ("Dana", "DR", "asthma", 10),
        ("Math", "DM", "diabetes", 10),
    ]
    catalog.add_table(Table.from_rows("dwh_presc", presc, rows, provider="warehouse"))
    exams = make_schema(("patient", ColumnType.STRING), ("result", ColumnType.FLOAT))
    catalog.add_table(
        Table.from_rows("dwh_exams", exams, [("Alice", 1.0)], provider="warehouse")
    )
    catalog.add_view(
        View("joined", Query.from_("dwh_presc").join("dwh_exams", [("patient", "patient")]))
    )

    metadata = PrivacyMetadataRegistry()
    metadata.annotate_column(
        ColumnAnnotation(
            "dwh_presc", "patient",
            sensitivity="identifying",
            allowed_roles=frozenset({"health_director"}),
        )
    )
    metadata.annotate_table(
        TableAnnotation(
            "dwh_presc",
            min_aggregation=2,
            joinable_with=frozenset(),  # joins with nothing
            allowed_purposes=frozenset({"care"}),
        )
    )
    metadata.add_row_rule(
        IntensionalAssociation(
            "hiv", "dwh_presc", parse_expression("disease = 'HIV'"),
            {"deny_row": True},
        )
    )

    subjects = SubjectRegistry()
    subjects.purposes.declare("care/quality")
    subjects.purposes.declare("marketing")
    subjects.add_role("analyst")
    subjects.add_role("health_director")
    subjects.add_user("ann", "analyst")
    subjects.add_user("dora", "health_director")
    return WarehouseEnforcer(catalog=catalog, metadata=metadata), subjects


class TestStaticGate:
    def test_purpose_restriction(self, world):
        enforcer, subjects = world
        query = parse_query("SELECT drug, COUNT(*) AS n FROM dwh_presc GROUP BY drug")
        ok = enforcer.check(query, subjects.context("ann", "care/quality"))
        assert ok == []
        bad = enforcer.check(query, subjects.context("ann", "marketing"))
        assert any("purpose" in r for r in bad)

    def test_column_role_restriction(self, world):
        enforcer, subjects = world
        query = parse_query(
            "SELECT patient, COUNT(*) AS n FROM dwh_presc GROUP BY patient"
        )
        denied = enforcer.check(query, subjects.context("ann", "care/quality"))
        assert any("restricted to roles" in r for r in denied)
        allowed = enforcer.check(query, subjects.context("dora", "care/quality"))
        assert allowed == []

    def test_join_permission(self, world):
        enforcer, subjects = world
        query = parse_query("SELECT drug FROM joined")
        reasons = enforcer.check(query, subjects.context("ann", "care/quality"))
        assert any("joining" in r for r in reasons)

    def test_record_level_sensitive_exposure_blocked(self, world):
        enforcer, subjects = world
        query = parse_query("SELECT patient, drug FROM dwh_presc")
        reasons = enforcer.check(query, subjects.context("dora", "care/quality"))
        assert any("aggregation" in r for r in reasons)

    def test_record_level_non_sensitive_allowed(self, world):
        enforcer, subjects = world
        query = parse_query("SELECT drug, cost FROM dwh_presc")
        assert enforcer.check(query, subjects.context("ann", "care/quality")) == []


class TestGuardedExecution:
    def test_row_rules_and_floor_applied(self, world):
        enforcer, subjects = world
        query = parse_query("SELECT drug, COUNT(*) AS n FROM dwh_presc GROUP BY drug")
        table, suppressed = enforcer.run(
            query, subjects.context("ann", "care/quality")
        )
        # The deny rule guards dwh_presc itself, so Alice's HIV row never
        # reaches the grouping and DH forms no group; the floor (2) removes
        # DM, the one row the suppressed count counts.
        assert dict(table.rows) == {"DR": 2}
        assert suppressed == 1

    def test_row_rules_on_detail_output(self, world):
        enforcer, subjects = world
        query = parse_query("SELECT drug, disease, cost FROM dwh_presc")
        table, suppressed = enforcer.run(
            query, subjects.context("ann", "care/quality")
        )
        assert "HIV" not in table.column_values("disease")
        assert len(table) == 3
        # Rows the rule kept away from the engine are not counted.
        assert suppressed == 0

    def test_rejection_raises(self, world):
        enforcer, subjects = world
        query = parse_query("SELECT drug FROM joined")
        with pytest.raises(ComplianceError):
            enforcer.run(query, subjects.context("ann", "care/quality"))
