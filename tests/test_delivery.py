"""Tests for the delivery service (check → enforce → deliver → log)."""

import pytest

from repro.audit import AuditLog, Auditor
from repro.errors import ComplianceError

ROLE_TO_USER = {
    "analyst": "ann",
    "auditor": "aldo",
    "health_director": "dora",
    "municipality_official": "mara",
}


@pytest.fixture
def service(scenario):
    # The session-scoped scenario's audit log collects deliveries from other
    # test modules; each test here starts from its own empty log.
    svc = scenario.delivery_service()
    svc.audit_log = AuditLog()
    return svc


class TestDeliver:
    def _compliant_report(self, scenario):
        verdicts = scenario.checker.check_catalog(
            scenario.report_catalog.all_current()
        )
        return next(
            scenario.report_catalog.current(name)
            for name, verdict in sorted(verdicts.items())
            if verdict.compliant
        )

    def test_successful_delivery_is_logged(self, scenario, service):
        report = self._compliant_report(scenario)
        role = sorted(report.audience)[0]
        instance = service.deliver(
            report.name, user=ROLE_TO_USER[role], purpose=report.purpose
        )
        assert instance.definition.name == report.name
        assert len(service.audit_log) == 1
        assert service.audit_log.last().report == report.name
        assert service.refusals == []

    def test_unknown_report_refused_and_recorded(self, scenario, service):
        with pytest.raises(ComplianceError):
            service.deliver("rpt_999", user="ann", purpose="care/quality")
        assert service.refusals[-1].report == "rpt_999"
        assert len(service.audit_log) == 0

    def test_non_compliant_report_refused(self, scenario, service):
        verdicts = scenario.checker.check_catalog(
            scenario.report_catalog.all_current()
        )
        bad = next(
            name for name, verdict in sorted(verdicts.items()) if not verdict.compliant
        )
        report = scenario.report_catalog.current(bad)
        role = sorted(report.audience)[0]
        with pytest.raises(ComplianceError):
            service.deliver(bad, user=ROLE_TO_USER[role], purpose=report.purpose)
        assert service.refusals[-1].report == bad
        assert len(service.audit_log) == 0  # nothing disclosed

    def test_wrong_audience_refused(self, scenario, service):
        report = self._compliant_report(scenario)
        outsider = next(
            user
            for role, user in ROLE_TO_USER.items()
            if role not in report.audience
        )
        with pytest.raises(ComplianceError):
            service.deliver(report.name, user=outsider, purpose=report.purpose)
        assert service.refusals[-1].consumer == outsider

    def test_wrong_purpose_refused(self, scenario, service):
        report = self._compliant_report(scenario)
        role = sorted(report.audience)[0]
        wrong = next(
            p
            for p in ("care/quality", "admin/reimbursement", "research/epidemiology")
            if p != report.purpose
        )
        with pytest.raises(ComplianceError):
            service.deliver(report.name, user=ROLE_TO_USER[role], purpose=wrong)

    def test_deliver_all_compliant_audits_clean(self, scenario, service):
        delivered, refusals = service.deliver_all_compliant(ROLE_TO_USER)
        assert len(delivered) >= 10
        assert len(delivered) + len(refusals) >= len(
            scenario.report_catalog.all_current()
        ) - len(refusals)
        audit = Auditor(
            checker=scenario.checker, reports=scenario.report_catalog
        ).audit(service.audit_log)
        assert audit.clean, audit.summary()
