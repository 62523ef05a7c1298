"""Tests for the disclosure log and the third-party auditor."""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.audit import AuditLog, Auditor, Severity
from repro.core import (
    PLA,
    AggregationThreshold,
    AttributeAccess,
    ComplianceChecker,
    MetaReport,
    MetaReportSet,
    PlaLevel,
    PlaRegistry,
    ReportLevelEnforcer,
)
from repro.anonymize import Pseudonymizer
from repro.errors import ComplianceError
from repro.policy import SubjectRegistry
from repro.relational import Catalog, Query, Table, View, make_schema, parse_query
from repro.relational.types import ColumnType
from repro.reports import ReportCatalog, ReportDefinition, ReportEngine
from repro.service.loadgen import ROLE_TO_USER
from repro.simulation.scenario import build_scenario

GOLDEN_LOG = Path(__file__).resolve().parent / "golden" / "disclosure_log.json"

WIDE = ("patient", "drug", "disease", "cost")


@pytest.fixture
def world():
    cat = Catalog()
    schema = make_schema(
        ("patient", ColumnType.STRING),
        ("drug", ColumnType.STRING),
        ("disease", ColumnType.STRING),
        ("cost", ColumnType.INT),
    )
    rows = [
        ("Alice", "DR", "asthma", 10),
        ("Bob", "DR", "asthma", 10),
        ("Chris", "DR", "asthma", 10),
        ("Math", "DM", "diabetes", 10),
    ]
    cat.add_table(Table.from_rows("base", schema, rows, provider="hospital"))
    cat.add_view(View("wide", Query.from_("base").project(*WIDE)))
    mrs = MetaReportSet()
    mr = MetaReport("mr", Query.from_("wide").project(*WIDE))
    registry = PlaRegistry()
    pla = PLA(
        "p", "hospital", PlaLevel.METAREPORT, "mr",
        (
            AggregationThreshold(2),
            AttributeAccess("patient", frozenset({"director"})),
        ),
    )
    registry.add(pla)
    mr.attach_pla(registry.approve("p"))
    mrs.add(mr)
    mrs.register_views(cat)
    checker = ComplianceChecker(catalog=cat, metareports=mrs)
    enforcer = ReportLevelEnforcer(catalog=cat, pseudonymizer=Pseudonymizer(salt="s"))
    subjects = SubjectRegistry()
    subjects.purposes.declare("care")
    subjects.add_role("analyst")
    subjects.add_role("director")
    subjects.add_user("ann", "analyst")
    subjects.add_user("dora", "director")
    reports = ReportCatalog()
    return cat, checker, enforcer, subjects, reports


def drug_report():
    return ReportDefinition(
        name="by_drug", title="t",
        query=parse_query("SELECT drug, COUNT(*) AS n FROM wide GROUP BY drug"),
        audience=frozenset({"analyst"}), purpose="care",
    )


class TestAuditLog:
    def test_chain_verifies_and_detects_tampering(self, world):
        cat, checker, enforcer, subjects, reports = world
        report = drug_report()
        reports.add(report)
        verdict = checker.check_report(report)
        ctx = subjects.context("ann", "care")
        instance = enforcer.generate(report, ctx, verdict)
        log = AuditLog()
        log.record_instance(instance, ctx)
        log.record_instance(instance, ctx)
        assert log.verify_chain()
        # Tamper with the first record:
        from dataclasses import replace

        log.records[0] = replace(log.records[0], row_count=999)
        assert not log.verify_chain()

    def test_record_contents(self, world):
        cat, checker, enforcer, subjects, reports = world
        report = drug_report()
        verdict = checker.check_report(report)
        ctx = subjects.context("ann", "care")
        instance = enforcer.generate(report, ctx, verdict)
        log = AuditLog()
        record = log.record_instance(instance, ctx)
        assert record.report == "by_drug"
        assert record.consumer == "ann"
        assert record.purpose == "care"
        assert record.min_contributors >= 2  # threshold was enforced
        assert record.source_footprint == ("hospital/base",)
        assert len(log) == 1 and log.last() is log.records[0]

    def test_as_table_enables_meta_audit(self, world):
        """Auditors can analyze the log with the engine itself."""
        cat, checker, enforcer, subjects, reports = world
        report = drug_report()
        verdict = checker.check_report(report)
        ctx = subjects.context("ann", "care")
        log = AuditLog()
        log.record_instance(enforcer.generate(report, ctx, verdict), ctx)
        log.record_instance(enforcer.generate(report, ctx, verdict), ctx)

        from repro.relational import Catalog, execute, parse_query

        audit_catalog = Catalog()
        audit_catalog.add_table(log.as_table())
        out = execute(
            parse_query(
                "SELECT consumer, COUNT(*) AS n, MIN(min_contributors) AS floor "
                "FROM audit_log GROUP BY consumer"
            ),
            audit_catalog,
        )
        # Two deliveries by ann; every published cell met the k=2 floor.
        assert out.rows == [("ann", 2, 3)]
        assert out.rows[0][2] >= 2

    def test_query_helpers(self, world):
        cat, checker, enforcer, subjects, reports = world
        report = drug_report()
        verdict = checker.check_report(report)
        ctx = subjects.context("ann", "care")
        log = AuditLog()
        log.record_instance(enforcer.generate(report, ctx, verdict), ctx)
        assert len(log.for_report("by_drug")) == 1
        assert len(log.for_consumer("ann")) == 1
        assert log.for_consumer("nobody") == ()


class TestAuditor:
    def test_clean_deployment_audits_clean(self, world):
        cat, checker, enforcer, subjects, reports = world
        report = drug_report()
        reports.add(report)
        verdict = checker.check_report(report)
        ctx = subjects.context("ann", "care")
        log = AuditLog()
        log.record_instance(enforcer.generate(report, ctx, verdict), ctx)
        audit = Auditor(checker=checker, reports=reports).audit(log)
        assert audit.clean, audit.summary()
        assert audit.disclosures_checked == 1

    def test_unenforced_threshold_detected(self, world):
        """A rogue path that skips enforcement must be caught by the audit."""
        cat, checker, enforcer, subjects, reports = world
        report = drug_report()
        reports.add(report)
        ctx = subjects.context("ann", "care")
        rogue_engine = ReportEngine(cat)  # no PLA hooks at all
        instance = rogue_engine.generate(report, ctx)
        log = AuditLog()
        log.record_instance(instance, ctx)
        audit = Auditor(checker=checker, reports=reports).audit(log)
        assert not audit.clean
        kinds = {v.kind for v in audit.violations}
        assert "aggregation_threshold" in kinds  # DM cell had 1 contributor
        assert any(v.severity is Severity.CRITICAL for v in audit.violations)

    def test_audience_violation_detected(self, world):
        cat, checker, enforcer, subjects, reports = world
        report = drug_report()
        reports.add(report)
        verdict = checker.check_report(report)
        ctx_analyst = subjects.context("ann", "care")
        instance = enforcer.generate(report, ctx_analyst, verdict)
        log = AuditLog()
        # Log claims dora-the-director received an analyst-audience report:
        # simulate mis-delivery by recording under the wrong context.
        ctx_director = subjects.context("dora", "care")
        log.record_instance(instance, ctx_director)
        audit = Auditor(checker=checker, reports=reports).audit(log)
        assert any(v.kind == "audience" for v in audit.violations)

    def test_disclosed_attribute_violation_detected(self, world):
        cat, checker, enforcer, subjects, reports = world
        # A patient-level report delivered to an analyst: patient attribute
        # is restricted to directors.
        report = ReportDefinition(
            name="patients", title="t",
            query=parse_query(
                "SELECT patient, COUNT(*) AS n FROM wide GROUP BY patient"
            ),
            audience=frozenset({"analyst"}), purpose="care",
        )
        reports.add(report)
        ctx = subjects.context("ann", "care")
        rogue = ReportEngine(cat)
        log = AuditLog()
        log.record_instance(rogue.generate(report, ctx), ctx)
        audit = Auditor(checker=checker, reports=reports).audit(log)
        assert any(
            v.kind in ("static_compliance", "attribute_access")
            for v in audit.violations
        )

    def test_unknown_report_flagged(self, world):
        cat, checker, enforcer, subjects, reports = world
        report = drug_report()
        verdict = checker.check_report(report)
        ctx = subjects.context("ann", "care")
        log = AuditLog()
        log.record_instance(enforcer.generate(report, ctx, verdict), ctx)
        # reports catalog was never told about the report
        audit = Auditor(checker=checker, reports=reports).audit(log)
        assert any(v.kind == "unknown_report" for v in audit.violations)

    def test_missing_obligation_warning(self, world):
        cat, checker, enforcer, subjects, reports = world
        report = drug_report()
        reports.add(report)
        ctx = subjects.context("ann", "care")
        # Generate compliantly but strip the obligation bookkeeping:
        verdict = checker.check_report(report)
        instance = enforcer.generate(report, ctx, verdict)
        from dataclasses import replace

        stripped = replace(instance, obligations_applied=())
        log = AuditLog()
        log.record_instance(stripped, ctx)
        audit = Auditor(checker=checker, reports=reports).audit(log)
        assert any(v.kind == "missing_obligation" for v in audit.violations)
        assert all(
            v.severity is Severity.WARNING
            for v in audit.violations
            if v.kind == "missing_obligation"
        )


def test_scenario_disclosure_log_matches_golden():
    """Every record of a full delivery sweep, byte for byte, and its chain.

    Each workload report goes to each load-generator role's user with the
    report's own purpose. Observability and source probing are off, so no
    trace ID or degradation marker enters a payload; the golden pins the
    footprints, contributor counts and obligations the audit trail records.
    """
    golden = json.loads(GOLDEN_LOG.read_text())
    previous = obs.enabled()
    obs.disable()
    try:
        scenario = build_scenario()
        service = scenario.delivery_service()
        service.resilience = None
        for definition in scenario.workload:
            for role in sorted(ROLE_TO_USER):
                try:
                    service.deliver(
                        definition.name,
                        user=ROLE_TO_USER[role],
                        purpose=definition.purpose,
                    )
                except ComplianceError:
                    pass
    finally:
        if previous:
            obs.enable()
    log = scenario.audit_log
    assert log.verify_chain()
    assert len(service.refusals) == golden["refusals"]
    assert [
        {"payload": r.payload(), "chain_hash": r.chain_hash} for r in log.records
    ] == golden["records"]
