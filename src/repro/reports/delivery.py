"""The BI provider's serving layer: check → enforce → deliver → log.

One object ties the lifecycle together so applications (and the CLI) cannot
accidentally skip a step: every delivery re-checks compliance against the
current meta-report PLAs, runs the enforcer, and appends to the audit log.
Rejected requests are logged too (as refusals) — §2's monitoring
requirement covers attempts, not just successes.

With a :class:`~repro.resilience.DeliveryResilience` attached (explicitly,
or via the ``REPRO_FAULTS`` process default), every source in the
delivered data's lineage footprint is probed through the
injector→retry→breaker path before release. An unavailable source **fails
closed**: the delivery is either refused with a typed
:class:`~repro.errors.SourceUnavailableError` or — in ``degrade`` mode —
released with that source's rows dropped entirely, the instance explicitly
marked degraded, and the fault cause written into the audit record. Stale
or unfiltered data that skipped source-level PLA filtering is never
substituted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import (
    ComplianceError,
    EnforcementError,
    ReportNotFoundError,
    SourceUnavailableError,
)
from repro.core.compliance import ComplianceChecker
from repro.core.translation import ReportLevelEnforcer
from repro.obs import instrument
from repro.obs.trace import TRACER
from repro.policy.subjects import AccessContext, SubjectRegistry
from repro.reports.catalog import ReportCatalog
from repro.reports.definition import ReportInstance
from repro.resilience.runtime import (
    DeliveryResilience,
    default_delivery_resilience,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (audit → reports)
    from repro.audit.log import AuditLog


def _new_audit_log() -> "AuditLog":
    from repro.audit.log import AuditLog

    return AuditLog()

__all__ = ["RefusalRecord", "DeliveryService"]


@dataclass(frozen=True)
class RefusalRecord:
    """A delivery request that was refused, and why."""

    report: str
    consumer: str
    purpose: str
    reason: str


@dataclass
class DeliveryService:
    """Checked, enforced, audited report delivery."""

    reports: ReportCatalog
    checker: ComplianceChecker
    enforcer: ReportLevelEnforcer
    subjects: SubjectRegistry
    audit_log: "AuditLog" = field(default_factory=_new_audit_log)
    refusals: list[RefusalRecord] = field(default_factory=list)
    resilience: DeliveryResilience | None = field(
        default_factory=default_delivery_resilience
    )

    def deliver(
        self, report_name: str, *, user: str, purpose: str
    ) -> ReportInstance:
        """Deliver the current version of ``report_name`` to ``user``.

        Raises :class:`ComplianceError` on any refusal and
        :class:`SourceUnavailableError` when a source is down and the
        resilience mode is ``refuse``; the refusal is recorded either way.
        When observability is on, the whole delivery runs under a
        ``report.deliver`` root span — the compliance check, enforcement,
        and query execution it causes become child spans, and the audit
        record written at the end carries this trace's ID.
        """
        if not TRACER.active():
            return self._deliver(report_name, user=user, purpose=purpose)
        with TRACER.span(
            "report.deliver",
            {"report": report_name, "user": user, "purpose": purpose},
        ) as span:
            try:
                instance = self._deliver(report_name, user=user, purpose=purpose)
            except SourceUnavailableError:
                instrument.DELIVERIES.inc(1, ("unavailable",))
                span.set_tag("outcome", "unavailable")
                raise
            except ComplianceError:
                instrument.DELIVERIES.inc(1, ("refused",))
                span.set_tag("outcome", "refused")
                raise
            outcome = "degraded" if instance.degraded else "delivered"
            instrument.DELIVERIES.inc(1, (outcome,))
            span.set_tag("outcome", outcome)
            return instance

    def _deliver(
        self, report_name: str, *, user: str, purpose: str
    ) -> ReportInstance:
        context = self.subjects.context(user, purpose)
        try:
            definition = self.reports.current(report_name)
        except ReportNotFoundError as exc:
            self._refuse(report_name, context, f"unknown report: {exc}")
            raise ComplianceError(f"unknown report {report_name!r}") from exc
        verdict = self.checker.check_report(definition)
        if not verdict.compliant:
            reason = "; ".join(str(v) for v in verdict.violations)
            self._refuse(report_name, context, reason)
            raise ComplianceError(
                f"report {report_name!r} is not compliant: {reason}"
            )
        try:
            instance = self.enforcer.generate(definition, context, verdict)
        except (ComplianceError, EnforcementError) as exc:
            self._refuse(report_name, context, str(exc))
            if isinstance(exc, ComplianceError):
                raise
            raise ComplianceError(f"report {report_name!r} refused: {exc}") from exc
        if self.resilience is not None:
            instance = self._apply_resilience(report_name, instance, context)
        self.audit_log.record_instance(instance, context)
        return instance

    # -- degraded delivery ---------------------------------------------------

    def _apply_resilience(
        self,
        report_name: str,
        instance: ReportInstance,
        context: AccessContext,
    ) -> ReportInstance:
        """Probe every source feeding this instance; fail closed on outages."""
        res = self.resilience
        assert res is not None
        deadline = res.new_deadline()
        down: dict[str, Exception] = {}
        for source in sorted(instance.table.footprint()):
            try:
                res.check_source(source, deadline=deadline)
            except SourceUnavailableError as exc:
                down[source] = exc
        if not down:
            return instance
        cause = "; ".join(f"{s}: {e}" for s, e in sorted(down.items()))
        if res.mode == "refuse":
            self._refuse(report_name, context, f"source unavailable: {cause}")
            raise SourceUnavailableError(
                f"report {report_name!r} refused, source(s) unavailable: {cause}"
            ) from next(iter(down.values()))
        degraded = self._drop_sources(instance, frozenset(down), cause)
        if TRACER.active():
            for exc in down.values():
                instrument.DEGRADED_DELIVERIES.inc(1, (type(exc).__name__,))
        return degraded

    @staticmethod
    def _drop_sources(
        instance: ReportInstance, down: frozenset[str], cause: str
    ) -> ReportInstance:
        """The fail-closed degradation: remove every row a down source fed.

        Degradation is strictly subtractive — the surviving rows are a
        subset of the healthy delivery, each one untouched, so every PLA
        filter already applied to them still holds.
        """
        table = instance.table
        keep = [
            i
            for i, prov in enumerate(table.provenance)
            if prov.footprint().isdisjoint(down)
        ]
        dropped = len(table) - len(keep)
        return replace(
            instance,
            table=table.take(keep),
            suppressed_rows=instance.suppressed_rows + dropped,
            degraded=True,
            degraded_sources=tuple(sorted(down)),
            fault_cause=cause,
        )

    def deliver_all_compliant(
        self, role_to_user: dict[str, str]
    ) -> tuple[list[ReportInstance], list[RefusalRecord]]:
        """Deliver every live report to its audience's first role's user.

        Returns delivered instances and the refusals accumulated during the
        sweep (non-compliant reports and unavailable sources do not raise
        here).
        """
        delivered: list[ReportInstance] = []
        before = len(self.refusals)
        for definition in self.reports.all_current():
            role = sorted(definition.audience)[0]
            user = role_to_user.get(role)
            if user is None:
                self.refusals.append(
                    RefusalRecord(
                        report=definition.name,
                        consumer=f"<no user for role {role}>",
                        purpose=definition.purpose,
                        reason="no deliverable consumer for the audience",
                    )
                )
                continue
            try:
                delivered.append(
                    self.deliver(definition.name, user=user, purpose=definition.purpose)
                )
            except (ComplianceError, SourceUnavailableError):
                continue  # refusal already recorded
        return delivered, self.refusals[before:]

    def _refuse(self, report: str, context: AccessContext, reason: str) -> None:
        self.refusals.append(
            RefusalRecord(
                report=report,
                consumer=context.user.name,
                purpose=context.purpose.name,
                reason=reason,
            )
        )
