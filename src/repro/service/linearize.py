"""Serial-equivalence checking for the concurrent delivery daemon.

The claim being verified: a concurrent run of N deliveries interleaved
with catalog/PLA/report mutations is **linearizable** — equivalent to
*some* serial order of the same operations. The daemon's design makes that
order observable instead of hypothetical:

* every delivery holds the deployment's read lock across compute → audit
  append, so its audit record commits within the epoch it observed;
* every mutation holds the write lock, so its commit-log entry sits after
  all deliveries of the epoch it closes and before all deliveries of the
  epoch it opens;
* delivery commit entries are appended by the audit log's ``on_record``
  hook — under the audit lock, atomically with the hash-chain append — so
  commit-log order *is* audit-chain order.

:func:`check_linearizable` therefore replays the commit log, in order, on
a **fresh single-threaded deployment** built by the same factory, and
demands byte-equivalence: payload hashes, audit chain hashes, and record
sequences must all match, and every refusal must refuse again at the same
epoch. Any divergence is a reported violation.

Scope: replay assumes a fault-free run — injected faults are
order-dependent inputs that legitimately perturb record contents (degraded
runs are exercised by the fault tests instead), so the replay deployment
runs with ``resilience`` disabled. Tracing is fine: the chain compared is
:func:`chain_digest`, which strips the execution-local trace ID from each
record before hashing, so the check is observability-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.audit.log import AuditLog
from repro.errors import ComplianceError, ServiceError
from repro.service.state import (
    CommitEntry,
    RefusalEntry,
    apply_mutation_to,
    chain_digest,
    payload_hash,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.scenario import Scenario

__all__ = [
    "GENESIS",
    "payload_hash",
    "chain_digest",
    "LinearizabilityReport",
    "check_linearizable",
]

#: Seed of the trace-independent chain: the audit log's own.
GENESIS = AuditLog.GENESIS


@dataclass
class LinearizabilityReport:
    """Outcome of one commit-log replay."""

    deliveries_checked: int = 0
    mutations_checked: int = 0
    refusals_checked: int = 0
    #: "unavailable" refusals — fault-dependent, not replayable serially.
    skipped: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "deliveries_checked": self.deliveries_checked,
            "mutations_checked": self.mutations_checked,
            "refusals_checked": self.refusals_checked,
            "skipped": self.skipped,
            "violations": list(self.violations),
        }


def check_linearizable(
    factory: Callable[[], "Scenario"],
    commit_log: Iterable[CommitEntry],
    refusal_log: Iterable[RefusalEntry] = (),
) -> LinearizabilityReport:
    """Replay ``commit_log`` serially on a fresh deployment and compare.

    ``factory`` must rebuild a deployment identical to the one the
    concurrent run started from (same config, same seeds). The replay:

    1. walks the commit log in order, delivering / mutating exactly as
       logged on a single thread;
    2. for each delivery, compares the payload hash, the trace-independent
       audit chain digest, and the record's sequence number against the
       logged values;
    3. just before each mutation closes an epoch (and once more at the
       end), re-attempts every delivery *refused* in that epoch and demands
       it refuse again — a refusal that now succeeds means the concurrent
       run denied something the serial order would have delivered.
    """
    report = LinearizabilityReport()
    scenario = factory()
    service = scenario.delivery_service()
    # Fault machinery is order-dependent; the serial oracle runs bare.
    service.resilience = None

    refusals_by_epoch: dict[int, list[RefusalEntry]] = {}
    for refusal in refusal_log:
        if refusal.kind == "unavailable":
            report.skipped += 1
            continue
        refusals_by_epoch.setdefault(refusal.epoch, []).append(refusal)

    epoch = 0
    chain = GENESIS
    for entry in commit_log:
        if entry.kind == "mutate":
            _replay_refusals(service, refusals_by_epoch.pop(epoch, []), report)
            if entry.mutation is None:
                report.violations.append(
                    f"mutate entry at epoch {entry.epoch} carries no MutationSpec"
                )
                continue
            apply_mutation_to(scenario, entry.mutation)
            epoch += 1
            report.mutations_checked += 1
            if entry.epoch != epoch:
                report.violations.append(
                    f"mutation {entry.mutation.kind}(seed={entry.mutation.seed}) "
                    f"logged at epoch {entry.epoch}, replay reached epoch {epoch}"
                )
        elif entry.kind == "deliver":
            chain = _replay_delivery(service, entry, epoch, chain, report)
        else:
            raise ServiceError(f"unknown commit-log entry kind {entry.kind!r}")
    _replay_refusals(service, refusals_by_epoch.pop(epoch, []), report)

    # Refusals logged at an epoch the commit log never reached.
    for orphan_epoch, entries in sorted(refusals_by_epoch.items()):
        for refusal in entries:
            report.violations.append(
                f"refusal of {refusal.report} for {refusal.user} logged at "
                f"epoch {orphan_epoch}, which the commit log never reached"
            )
    return report


def _replay_delivery(
    service,
    entry: CommitEntry,
    epoch: int,
    chain: str,
    report: LinearizabilityReport,
) -> str:
    """Replay one delivery; returns the advanced trace-independent chain."""
    where = f"{entry.report} -> {entry.user} (seq {entry.sequence})"
    if entry.epoch != epoch:
        report.violations.append(
            f"{where}: committed at epoch {entry.epoch}, replay is at {epoch}"
        )
    try:
        instance = service.deliver(
            entry.report, user=entry.user, purpose=entry.purpose
        )
    except ComplianceError as exc:
        report.violations.append(
            f"{where}: delivered concurrently but refused serially ({exc})"
        )
        return chain
    report.deliveries_checked += 1
    replay_hash = payload_hash(instance)
    if replay_hash != entry.payload_hash:
        report.violations.append(
            f"{where}: payload hash diverged "
            f"(concurrent {entry.payload_hash[:12]}…, serial {replay_hash[:12]}…)"
        )
    record = service.audit_log.records[-1]
    if record.sequence != entry.sequence:
        report.violations.append(
            f"{where}: audit sequence diverged "
            f"(concurrent {entry.sequence}, serial {record.sequence})"
        )
    chain = chain_digest(chain, record)
    if chain != entry.chain_hash:
        report.violations.append(
            f"{where}: audit chain hash diverged at sequence {entry.sequence} "
            f"(concurrent {entry.chain_hash[:12]}…, serial {chain[:12]}…)"
        )
    return chain


def _replay_refusals(
    service, refusals: list[RefusalEntry], report: LinearizabilityReport
) -> None:
    for refusal in refusals:
        try:
            service.deliver(
                refusal.report, user=refusal.user, purpose=refusal.purpose
            )
        except ComplianceError:
            report.refusals_checked += 1
        else:
            report.violations.append(
                f"{refusal.report} -> {refusal.user} ({refusal.purpose}): "
                f"refused concurrently at epoch {refusal.epoch} but delivered "
                f"serially"
            )
