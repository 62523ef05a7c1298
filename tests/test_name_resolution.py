"""Every privacy decision reads a query's columns from the catalog.

A bare ``SELECT *`` shows and reads its whole FROM scope, and a UNION reads
and shows what each of its branches does, so neither may slip past the §5
derivability check, a meta-report PLA or the warehouse gate that the
explicit column list it stands for would meet.
"""

from __future__ import annotations

import pytest

from repro.core import (
    PLA,
    AnonymizationRequirement,
    AttributeAccess,
    ComplianceChecker,
    IntensionalCondition,
    MetaReport,
    MetaReportSet,
    PlaLevel,
    PlaRegistry,
    ReportLevelEnforcer,
    check_derivability,
)
from repro.errors import ComplianceError
from repro.policy import SubjectRegistry
from repro.relational import (
    Catalog,
    Table,
    View,
    make_schema,
    parse_expression,
    parse_query,
)
from repro.relational.types import ColumnType
from repro.reports import DeliveryService, ReportCatalog, ReportDefinition
from repro.warehouse import (
    ColumnAnnotation,
    PrivacyMetadataRegistry,
    TableAnnotation,
    WarehouseEnforcer,
)

VISITS = [
    ("Alice", "north", "HIV", 20),
    ("Bob", "south", "flu", 10),
    ("Carl", "east", "asthma", 30),
    ("Dana", "west", "HIV", 5),
]
EXPLICIT = "SELECT patient, region, disease, cost FROM mr"
UNION_SQL = "SELECT region FROM mr UNION SELECT patient FROM mr"


def visits_catalog() -> Catalog:
    catalog = Catalog()
    schema = make_schema(
        ("patient", ColumnType.STRING),
        ("region", ColumnType.STRING),
        ("disease", ColumnType.STRING),
        ("cost", ColumnType.INT),
    )
    catalog.add_table(Table.from_rows("visits", schema, VISITS, provider="clinic"))
    return catalog


def query(sql: str):
    """``parse_query`` plus UNION, which the relational parser leaves out."""
    head, *branches = sql.split(" UNION ")
    out = parse_query(head)
    for branch in branches:
        out = out.union_with(parse_query(branch))
    return out


def report(sql: str, audience: str, name: str = "r") -> ReportDefinition:
    return ReportDefinition(
        name=name, title=name, query=query(sql),
        audience=frozenset({audience}), purpose="care",
    )


def deployment(*metareports: tuple[str, str, tuple]):
    """A catalog over ``visits`` with the given approved meta-reports."""
    catalog = visits_catalog()
    mrs = MetaReportSet()
    registry = PlaRegistry()
    for name, sql, annotations in metareports:
        metareport = MetaReport(name, parse_query(sql))
        registry.add(PLA(f"pla_{name}", "clinic", PlaLevel.METAREPORT, name, annotations))
        metareport.attach_pla(registry.approve(f"pla_{name}"))
        mrs.add(metareport)
    mrs.register_views(catalog)
    return catalog, ComplianceChecker(catalog=catalog, metareports=mrs)


def delivery(catalog, checker, *reports: ReportDefinition) -> DeliveryService:
    subjects = SubjectRegistry()
    subjects.purposes.declare("care")
    for role, user in (("analyst", "ann"), ("health_director", "dora")):
        subjects.add_role(role)
        subjects.add_user(user, role)
    catalog_of_reports = ReportCatalog()
    for definition in reports:
        catalog_of_reports.add(definition)
    return DeliveryService(
        reports=catalog_of_reports,
        checker=checker,
        enforcer=ReportLevelEnforcer(catalog=catalog),
        subjects=subjects,
        resilience=None,
    )


EVERYONE = (AttributeAccess("region", frozenset({"analyst", "health_director"})),)
MR_PLA = (
    AttributeAccess("patient", frozenset({"health_director"})),
    IntensionalCondition("disease", parse_expression("disease != 'HIV'"), "suppress_cell"),
    AnonymizationRequirement("region", "suppress"),
)


@pytest.fixture
def mr():
    return deployment(("mr", "SELECT patient, region, disease, cost FROM visits", MR_PLA))


class TestBareSelectStar:
    def test_refused_against_a_narrower_metareport(self):
        catalog, checker = deployment(
            ("mr_narrow", "SELECT region, cost FROM visits", EVERYONE)
        )
        narrow = catalog.view("mr_narrow").query
        for sql in ("SELECT * FROM visits", "SELECT patient, disease FROM visits"):
            result = check_derivability(query(sql), "mr_narrow", narrow, catalog)
            assert not result
            assert any("does not expose" in r for r in result.reasons)
            assert not checker.check_report(report(sql, "analyst")).compliant

    @pytest.mark.parametrize("audience", ["analyst", "health_director"])
    def test_same_verdict_as_the_explicit_column_list(self, mr, audience):
        _, checker = mr
        star = checker.check_report(report("SELECT * FROM mr", audience))
        explicit = checker.check_report(report(EXPLICIT, audience))
        assert star.compliant == explicit.compliant
        assert star.violations == explicit.violations
        assert star.obligations == explicit.obligations
        assert star.compliant == (audience == "health_director")
        assert {o.kind for o in star.obligations} == {"intensional", "anonymize"}

    def test_delivery_keeps_patient_and_blanks_the_diagnosis(self, mr):
        catalog, checker = mr
        service = delivery(
            catalog, checker,
            report("SELECT * FROM mr", "analyst", "star_ann"),
            report("SELECT * FROM mr", "health_director", "star_dora"),
        )
        with pytest.raises(ComplianceError, match="may not see 'patient'"):
            service.deliver("star_ann", user="ann", purpose="care")
        table = service.deliver("star_dora", user="dora", purpose="care").table
        assert table.schema.names == ("patient", "region", "disease", "cost")
        assert "HIV" not in table.column_values("disease")
        assert set(table.column_values("region")) == {None}


class TestUnionBranches:
    def test_union_moving_patient_under_region_is_refused(self, mr):
        catalog, checker = mr
        verdict = checker.check_report(report(UNION_SQL, "analyst"))
        assert not verdict.compliant
        assert any("may not see 'patient'" in str(v) for v in verdict.violations)
        service = delivery(catalog, checker, report(UNION_SQL, "analyst", "u"))
        with pytest.raises(ComplianceError):
            service.deliver("u", user="ann", purpose="care")

    def test_cell_condition_on_an_attribute_a_union_reads_is_a_violation(self, mr):
        _, checker = mr
        sql = "SELECT cost FROM mr UNION SELECT disease FROM mr"
        verdict = checker.check_report(report(sql, "health_director"))
        assert not verdict.compliant
        assert any("UNION" in str(v) for v in verdict.violations)

    def test_anonymization_on_an_attribute_a_union_reads_is_a_violation(self, mr):
        # The director may see patient, but ``region`` must be suppressed;
        # the second branch would deliver it under the ``patient`` column.
        catalog, checker = mr
        sql = "SELECT patient FROM mr UNION SELECT region FROM mr"
        verdict = checker.check_report(report(sql, "health_director"))
        assert not verdict.compliant
        assert any("anonymization" in str(v) for v in verdict.violations)
        service = delivery(catalog, checker, report(sql, "health_director", "u"))
        with pytest.raises(ComplianceError, match="anonymization"):
            service.deliver("u", user="dora", purpose="care")

    @pytest.mark.parametrize("columns", ["patient, region, disease, cost", "region, cost"])
    def test_hidden_row_condition_filters_every_branch(self, columns):
        # With ``disease`` projected out of mr, each branch reaches it
        # through the enforcer's extended view.
        catalog, checker = deployment((
            "mr",
            f"SELECT {columns} FROM visits",
            (IntensionalCondition(
                "disease", parse_expression("disease != 'HIV'"), "suppress_row"
            ),),
        ))
        sql = "SELECT region FROM mr UNION SELECT region FROM mr WHERE cost > 15"
        service = delivery(catalog, checker, report(sql, "analyst", "u"))
        table = service.deliver("u", user="ann", purpose="care").table
        assert sorted(table.column_values("region")) == ["east", "south"]


class TestAliases:
    """The enforcer blanks and anonymizes columns by name, so a report that
    shows the attribute under another name is refused before delivery."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT disease AS d, cost FROM mr",
            "SELECT disease, disease AS d FROM mr",
            "SELECT CASE WHEN disease = 'HIV' THEN 1 ELSE 0 END AS hiv, cost FROM mr",
        ],
    )
    def test_cell_condition_on_a_renamed_attribute_is_a_violation(self, mr, sql):
        catalog, checker = mr
        verdict = checker.check_report(report(sql, "health_director"))
        assert not verdict.compliant
        assert any(
            "cell-level intensional condition" in str(v) for v in verdict.violations
        )
        service = delivery(catalog, checker, report(sql, "health_director", "a"))
        with pytest.raises(ComplianceError, match="shows the attribute as"):
            service.deliver("a", user="dora", purpose="care")

    def test_anonymization_of_a_renamed_attribute_is_a_violation(self, mr):
        catalog, checker = mr
        sql = "SELECT patient, region AS r FROM mr"
        verdict = checker.check_report(report(sql, "health_director"))
        assert not verdict.compliant
        assert any("anonymization" in str(v) for v in verdict.violations)
        service = delivery(catalog, checker, report(sql, "health_director", "a"))
        with pytest.raises(ComplianceError, match="anonymization"):
            service.deliver("a", user="dora", purpose="care")

    @pytest.mark.parametrize(
        "sql, refusal",
        [
            (
                "SELECT disease AS d, COUNT(*) AS n FROM mr GROUP BY disease",
                "cell-level intensional condition cannot be applied to a report "
                "that shows the attribute as ['d']",
            ),
            (
                "SELECT region AS r, COUNT(*) AS n FROM mr GROUP BY region",
                "anonymization cannot be applied to a report that shows the "
                "attribute as ['r']",
            ),
            (
                "SELECT MAX(region) AS r, COUNT(*) AS n FROM mr",
                "anonymization cannot be applied to a report that shows the "
                "attribute as ['r']",
            ),
        ],
    )
    def test_a_renamed_group_key_or_min_max_is_a_violation(self, mr, sql, refusal):
        catalog, checker = mr
        verdict = checker.check_report(report(sql, "health_director"))
        assert not verdict.compliant
        assert any(refusal in str(v) for v in verdict.violations)
        service = delivery(catalog, checker, report(sql, "health_director", "a"))
        with pytest.raises(ComplianceError, match="shows the attribute as"):
            service.deliver("a", user="dora", purpose="care")

    def test_a_sum_beside_the_attribute_shows_none_of_its_values(self, mr):
        catalog, checker = mr
        sql = "SELECT region, SUM(cost) AS c FROM mr GROUP BY region"
        service = delivery(catalog, checker, report(sql, "health_director", "a"))
        table = service.deliver("a", user="dora", purpose="care").table
        assert set(table.column_values("region")) == {None}
        assert sorted(table.column_values("c")) == [5, 10, 20, 30]

    def test_the_attribute_under_its_own_name_is_still_enforced(self, mr):
        catalog, checker = mr
        sql = "SELECT patient, region, disease AS disease, cost AS price FROM mr"
        service = delivery(catalog, checker, report(sql, "health_director", "a"))
        table = service.deliver("a", user="dora", purpose="care").table
        assert "HIV" not in table.column_values("disease")
        assert set(table.column_values("region")) == {None}


class TestWarehouseGate:
    @staticmethod
    def gate(*annotations):
        catalog = visits_catalog()
        catalog.add_table(Table.from_rows(
            "kin",
            make_schema(("patient", ColumnType.STRING), ("rname", ColumnType.STRING)),
            [("Eve", "north")],
            provider="registry",
        ))
        catalog.add_view(View("dx", parse_query("SELECT disease AS dx, region FROM visits")))
        catalog.add_view(View("who", parse_query("SELECT patient AS name, region FROM visits")))
        metadata = PrivacyMetadataRegistry()
        metadata.annotate_column(ColumnAnnotation(
            "visits", "patient", allowed_roles=frozenset({"health_director"}),
        ))
        for annotation in annotations:
            if isinstance(annotation, ColumnAnnotation):
                metadata.annotate_column(annotation)
            else:
                metadata.annotate_table(annotation)
        subjects = SubjectRegistry()
        subjects.purposes.declare("care")
        subjects.add_role("analyst")
        subjects.add_user("ann", "analyst")
        enforcer = WarehouseEnforcer(catalog=catalog, metadata=metadata)
        context = subjects.context("ann", "care")
        return lambda sql: enforcer.check(query(sql), context), enforcer, context

    def test_star_and_union_meet_the_column_role_limit(self):
        check, enforcer, context = self.gate()
        explicit = check("SELECT patient, region FROM visits")
        assert explicit == ["column visits.patient is restricted to roles ['health_director']"]
        for sql in (
            "SELECT * FROM visits",
            "SELECT region FROM visits UNION SELECT patient FROM visits",
        ):
            assert check(sql) == explicit
            with pytest.raises(ComplianceError):
                enforcer.run(query(sql), context)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT region FROM visits JOIN kin ON patient = patient",
            "SELECT rname FROM visits JOIN kin ON patient = patient WHERE rname = 'north'",
        ],
    )
    def test_join_keys_meet_the_column_role_limit(self, sql):
        # The join qualifies both ON columns; each is traced on its own side.
        check, enforcer, context = self.gate()
        assert check(sql) == [
            "column visits.patient is restricted to roles ['health_director']"
        ]
        with pytest.raises(ComplianceError):
            enforcer.run(query(sql), context)

    def test_union_branches_and_join_qualified_names_are_checked(self):
        check, _, _ = self.gate(
            ColumnAnnotation("visits", "disease", sensitivity="sensitive"),
            TableAnnotation("visits", min_aggregation=2),
        )
        record_level = (
            "record-level access requires aggregation over ≥ 2 records for these tables"
        )
        assert check("SELECT region, disease FROM visits") == [record_level]
        assert check("SELECT region FROM visits UNION SELECT disease FROM visits") == [
            record_level
        ]
        # The join qualifies both patients (visits.patient, kin.patient).
        reasons = check("SELECT * FROM visits JOIN kin ON region = rname")
        assert "column visits.patient is restricted to roles ['health_director']" in reasons
        assert record_level in reasons

    def test_renaming_views_are_traced_to_their_base_columns(self):
        check, _, _ = self.gate(
            ColumnAnnotation("visits", "disease", sensitivity="sensitive"),
            TableAnnotation("visits", min_aggregation=2),
        )
        record_level = (
            "record-level access requires aggregation over ≥ 2 records for these tables"
        )
        restricted = "column visits.patient is restricted to roles ['health_director']"
        assert check("SELECT * FROM dx") == [record_level]
        assert check("SELECT dx FROM dx") == [record_level]
        assert check("SELECT * FROM who") == [restricted]
        # kin.patient is kin's column, not visits'.
        assert check("SELECT kin.patient, rname FROM visits JOIN kin ON region = rname") == []
