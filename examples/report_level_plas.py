#!/usr/bin/env python
"""All five §5 annotation kinds, enforced one by one (Fig 4 in depth).

Demonstrates: (i) attribute access, (ii) aggregation thresholds,
(iii) anonymization, (iv) join prohibitions, (v) integration permissions,
plus the hidden-column intensional condition ("exam results shown only for
patients that are not HIV positive").

Run: python examples/report_level_plas.py
"""

from repro.anonymize import Pseudonymizer
from repro.core import (
    PLA,
    AggregationThreshold,
    AnonymizationRequirement,
    AttributeAccess,
    ComplianceChecker,
    IntegrationPermission,
    IntensionalCondition,
    JoinPermission,
    MetaReport,
    MetaReportSet,
    PlaLevel,
    PlaRegistry,
    ReportLevelEnforcer,
    to_etl_registry,
)
from repro.policy import SubjectRegistry
from repro.relational import Catalog, Query, Table, View, make_schema, parse_expression, parse_query
from repro.relational.types import ColumnType
from repro.reports import ReportDefinition

COLUMNS = ("patient", "drug", "disease", "result", "cost")


def build_world() -> Catalog:
    catalog = Catalog()
    schema = make_schema(
        ("patient", ColumnType.STRING),
        ("drug", ColumnType.STRING),
        ("disease", ColumnType.STRING),
        ("result", ColumnType.STRING),
        ("cost", ColumnType.INT),
    )
    rows = [
        ("Alice", "DH", "HIV", "cd4: low", 60),
        ("Chris", "DV", "HIV", "cd4: ok", 30),
        ("Bob", "DR", "asthma", "spiro: 82%", 10),
        ("Dana", "DR", "asthma", "spiro: 91%", 10),
        ("Math", "DM", "diabetes", "hba1c: 7.1", 10),
        ("Elio", "DR", "asthma", "spiro: 77%", 10),
    ]
    catalog.add_table(Table.from_rows("base", schema, rows, provider="hospital"))
    catalog.add_view(View("wide", Query.from_("base").project(*COLUMNS)))
    return catalog


def main() -> None:
    catalog = build_world()

    metareports = MetaReportSet()
    metareport = MetaReport("mr", Query.from_("wide").project(*COLUMNS))
    registry = PlaRegistry()
    pla = PLA(
        name="pla_mr",
        owner="hospital",
        level=PlaLevel.METAREPORT,
        target="mr",
        annotations=(
            # (i) who can access an attribute
            AttributeAccess("patient", frozenset({"health_director", "analyst"})),
            # (ii) aggregation requirement
            AggregationThreshold(min_group_size=2, scope="patient"),
            # (iii) anonymization requirement
            AnonymizationRequirement("patient", "pseudonymize"),
            # (iv) join prohibition (source vocabulary)
            JoinPermission("municipality/residents", "laboratory/exams", False),
            # (v) integration permission
            IntegrationPermission(owner="municipality", allowed=True),
            # intensional, instance-specific condition with a hidden column
            IntensionalCondition(
                attribute="result",
                condition=parse_expression("disease != 'HIV'"),
                action="suppress_cell",
            ),
        ),
    )
    registry.add(pla)
    metareport.attach_pla(registry.approve("pla_mr"))
    metareports.add(metareport)
    metareports.register_views(catalog)

    print("The owner's PLA on the meta-report:")
    print(metareport.pla.describe())

    subjects = SubjectRegistry()
    subjects.purposes.declare("care/quality")
    for role in ("analyst", "municipality_official"):
        subjects.add_role(role)
    subjects.add_user("ann", "analyst")
    checker = ComplianceChecker(catalog=catalog, metareports=metareports)
    enforcer = ReportLevelEnforcer(
        catalog=catalog, pseudonymizer=Pseudonymizer(salt="demo")
    )

    # -- the paper's §5 example: exam results, HIV column hidden -------------
    exam_report = ReportDefinition(
        name="exam_results",
        title="Examination results",
        query=parse_query("SELECT patient, result FROM wide"),
        audience=frozenset({"analyst"}),
        purpose="care/quality",
    )
    verdict = checker.check_report(exam_report)
    print(f"\n{verdict.summary()}")
    if not verdict.compliant:
        # record-level exposure violates (ii); narrow the audience/report:
        print("  -> record-level report blocked by the aggregation threshold;")
        print("     demonstrating the aggregate path instead.")

    agg_report = ReportDefinition(
        name="cost_by_disease",
        title="Cost by disease",
        query=parse_query(
            "SELECT disease, SUM(cost) AS total FROM wide GROUP BY disease"
        ),
        audience=frozenset({"analyst"}),
        purpose="care/quality",
    )
    verdict = checker.check_report(agg_report)
    print(f"\n{verdict.summary()}")
    instance = enforcer.generate(
        agg_report, subjects.context("ann", "care/quality"), verdict
    )
    print(instance.table.pretty())
    print(f"(suppressed {instance.suppressed_rows} undersized group(s) of "
          "fewer than 2 records)")

    # -- the hidden-column device: HIV patients' results are blanked in the
    # base table, so the grouping puts them into one NULL group -------------
    result_report = ReportDefinition(
        name="results",
        title="Exam results",
        query=parse_query("SELECT result, COUNT(*) AS n FROM wide GROUP BY result"),
        audience=frozenset({"analyst"}),
        purpose="care/quality",
    )
    verdict = checker.check_report(result_report)
    print(f"\n{verdict.summary()}")
    instance = enforcer.generate(
        result_report, subjects.context("ann", "care/quality"), verdict
    )
    print(instance.table.pretty())
    print(f"(HIV patients' results blanked before grouping; suppressed "
          f"{instance.suppressed_rows} undersized group(s))")

    # -- audience violation: wrong role asks for patient data ---------------
    blocked = ReportDefinition(
        name="patients_for_muni",
        title="Patient list",
        query=parse_query("SELECT patient, COUNT(*) AS n FROM wide GROUP BY patient"),
        audience=frozenset({"municipality_official"}),
        purpose="care/quality",
    )
    print(f"\n{checker.check_report(blocked).summary()}")

    # -- (iv)+(v) projected into the ETL layer -------------------------------
    etl_registry = to_etl_registry([metareport.pla])
    print("\nETL constraints derived from the PLA:")
    print(etl_registry.describe())


if __name__ == "__main__":
    main()
