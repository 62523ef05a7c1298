"""Report compliance checking against approved meta-report PLAs (§5).

The checker answers, for each new or modified report: (a) is it derivable
from an approved meta-report at all, and (b) does it satisfy every PLA
annotation of that meta-report — either statically (audience checks, join
prohibitions) or by emitting a *runtime obligation* the enforcement
translator installs (aggregation thresholds, intensional conditions,
anonymization)?

Static verdicts are what make the paper's PLAs "testable": owners, auditors,
and the BI provider can all run the checker against the report catalog
before anything is deployed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.cache import LRUCache
from repro.core.annotations import (
    AggregationThreshold,
    Annotation,
    AnonymizationRequirement,
    AttributeAccess,
    IntegrationPermission,
    IntensionalCondition,
    JoinPermission,
)
from repro.core.containment import DerivabilityResult
from repro.core.metareport import MetaReportSet
from repro.obs import instrument
from repro.obs.trace import TRACER
from repro.relational.catalog import Catalog
from repro.relational.query import Query
from repro.reports.definition import ReportDefinition

__all__ = [
    "ComplianceViolation",
    "RuntimeObligation",
    "ComplianceVerdict",
    "ComplianceChecker",
]


@dataclass(frozen=True)
class ComplianceViolation:
    """A static PLA violation: the report may not be deployed as-is."""

    annotation: str  # annotation description
    reason: str

    def __str__(self) -> str:
        return f"{self.reason} [{self.annotation}]"


@dataclass(frozen=True)
class RuntimeObligation:
    """An enforcement the report engine must apply at generation time."""

    kind: str  # "aggregation_threshold" | "intensional" | "anonymize"
    annotation: Annotation

    def __str__(self) -> str:
        return f"{self.kind}: {self.annotation.describe()}"


@dataclass(frozen=True)
class ComplianceVerdict:
    """The outcome of checking one report definition."""

    report: str
    version: int
    compliant: bool
    covering_metareport: str | None
    violations: tuple[ComplianceViolation, ...] = ()
    obligations: tuple[RuntimeObligation, ...] = ()
    derivability_attempts: tuple[DerivabilityResult, ...] = ()

    def summary(self) -> str:
        status = "COMPLIANT" if self.compliant else "NON-COMPLIANT"
        via = f" via {self.covering_metareport}" if self.covering_metareport else ""
        extra = ""
        if self.violations:
            extra = "; " + "; ".join(str(v) for v in self.violations)
        if self.obligations:
            extra += f" ({len(self.obligations)} runtime obligation(s))"
        return f"{self.report} v{self.version}: {status}{via}{extra}"


@dataclass
class ComplianceChecker:
    """Checks report definitions against a meta-report set's PLAs.

    ``source_identity`` maps each warehouse base table to the
    ``provider/table`` identities in its lineage; it is computed from the
    loaded warehouse once, which is how join-permission annotations written
    in source vocabulary become checkable on warehouse-level queries.
    """

    catalog: Catalog
    metareports: MetaReportSet
    source_identity: dict[str, frozenset[str]] = field(default_factory=dict)
    _verdicts: LRUCache = field(
        default_factory=lambda: LRUCache(maxsize=512), repr=False, compare=False
    )
    # (the meta-report set's objects, generation); see "verdict caching".
    _metaset_memo: tuple = field(default=((), 0), init=False, repr=False, compare=False)
    _metaset_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.source_identity:
            self.source_identity = self._compute_source_identity()

    def _compute_source_identity(self) -> dict[str, frozenset[str]]:
        return {
            name: self.catalog.table(name).footprint()
            for name in self.catalog.table_names()
        }

    def source_footprint(self, report: ReportDefinition) -> frozenset[str]:
        """``provider/table`` identities a report's data descends from."""
        out: set[str] = set()
        for base in self.catalog.base_relations_of_query(report.query):
            out.update(self.source_identity.get(base, frozenset()))
        return frozenset(out)

    # -- verdict caching -----------------------------------------------------
    #
    # A verdict is a pure function of (report definition, meta-report set
    # incl. the PLA attached to each, catalog DDL). The key holds the
    # report's fingerprint, a generation number of the meta-report set and
    # the catalog's uid and DDL version, so *any* mutation — a PLA revision
    # or approval, a report evolution step (``with_query``/``with_audience``
    # bump the version), a meta-report extension, or catalog DDL — changes
    # the key and the stale verdict becomes unreachable.
    #
    # The generation moves when a meta-report is added or removed, or when
    # one's name, query or PLA is replaced. A PLA, its annotations and a
    # query are frozen, so comparing each meta-report's objects by identity
    # with the ones the generation was taken from is sound: the memo keeps
    # references to them, so no other object can take their ids. A warm
    # check walks no PLA. ``invalidate_cache`` additionally drops entries
    # eagerly.

    def _report_fingerprint(self, report: ReportDefinition) -> tuple:
        return (
            report.name,
            report.version,
            report.query.fingerprint(),
            tuple(sorted(report.audience)),
            report.purpose,
        )

    def _metaset_generation(self) -> int:
        seen, generation = self._metaset_memo
        if self._metaset_is(seen):
            return generation
        # Moved under the lock, so each generation names one set of objects
        # even when two workers see a change at once.
        with self._metaset_lock:
            seen, generation = self._metaset_memo
            if not self._metaset_is(seen):
                generation += 1
                refs = tuple((m, m.name, m.query, m.pla) for m in self.metareports)
                self._metaset_memo = (refs, generation)
            return generation

    def _metaset_is(self, seen: tuple) -> bool:
        """Whether the meta-report set holds exactly the objects in ``seen``."""
        return len(seen) == len(self.metareports) and all(
            m is kept and m.name is name and m.query is query and m.pla is pla
            for m, (kept, name, query, pla) in zip(self.metareports, seen)
        )

    def cache_stats(self) -> dict[str, Any]:
        """Hit/miss counters of the verdict cache."""
        return self._verdicts.stats.as_dict()

    def invalidate_cache(self) -> int:
        """Drop every cached verdict; returns how many were removed."""
        return self._verdicts.clear()

    # -- the main entry point ------------------------------------------------

    def check_report(self, report: ReportDefinition) -> ComplianceVerdict:
        """Full compliance verdict for one report definition (memoized; see
        the verdict caching notes above).

        When observability is on, checking emits a ``compliance.check`` span
        and counts the outcome as a meta-report-level enforcement decision
        (``repro_enforcement_decisions_total{level="meta-report",...}``).
        """
        if not TRACER.active():
            return self._check_report_memoized(report)
        with TRACER.span(
            "compliance.check",
            {"report": report.name, "version": report.version},
        ) as span:
            verdict = self._check_report_memoized(report)
            span.set_tag("compliant", verdict.compliant)
            if verdict.covering_metareport:
                span.set_tag("metareport", verdict.covering_metareport)
        self._record_verdict_metrics(verdict)
        return verdict

    @staticmethod
    def _record_verdict_metrics(verdict: ComplianceVerdict) -> None:
        level = instrument.LEVEL_METAREPORT
        if verdict.compliant:
            instrument.record_decision(
                level, "allow", verdict.covering_metareport or "-"
            )
        elif verdict.covering_metareport is None:
            instrument.record_decision(level, "deny", "derivability")
        else:
            instrument.record_decision(
                level, "deny", "pla_violation", count=len(verdict.violations)
            )
        for obligation in verdict.obligations:
            instrument.record_decision(level, "obligation", obligation.kind)

    def _check_report_memoized(self, report: ReportDefinition) -> ComplianceVerdict:
        # catalog.uid, not id(): uids are never recycled, so a checker
        # rebound to a new catalog can't collide with a dead one's entries.
        key = (
            self._report_fingerprint(report),
            self._metaset_generation(),
            self.catalog.uid,
            self.catalog.ddl_version,
        )
        # Token before compute: an invalidate_cache() racing the check drops
        # the late fill instead of resurrecting a pre-invalidation verdict.
        token = self._verdicts.fill_token()
        cached = self._verdicts.get(key)
        if TRACER.active():
            instrument.cache_lookup("verdict", cached is not None)
        if cached is not None:
            return cached
        verdict = self._check_report_uncached(report)
        self._verdicts.put_if(key, verdict, token)
        return verdict

    def _check_report_uncached(self, report: ReportDefinition) -> ComplianceVerdict:
        covering, attempts = self.metareports.find_covering(report, self.catalog)
        if covering is None:
            return ComplianceVerdict(
                report=report.name,
                version=report.version,
                compliant=False,
                covering_metareport=None,
                violations=(
                    ComplianceViolation(
                        annotation="derivability",
                        reason=(
                            "report is not derivable from any approved "
                            "meta-report; a new elicitation round is required"
                        ),
                    ),
                ),
                derivability_attempts=attempts,
            )
        violations: list[ComplianceViolation] = []
        obligations: list[RuntimeObligation] = []
        assert covering.pla is not None  # approved implies a PLA
        # What the report shows (every UNION branch's outputs) and reads,
        # both named as the engine names them.
        outputs = {
            name
            for block in report.query.blocks()
            for name in self.catalog.output_names(block)
        }
        used = self.catalog.input_names(report.query)
        # The base columns it reads, walked only for a PLA with a cell rule.
        read = (
            self.catalog.input_sources(report.query)
            if any(a.blanks_cells for a in covering.pla.annotations)
            else frozenset()
        )
        for annotation in covering.pla.annotations:
            self._check_annotation(
                report, covering.query, outputs, used, read, annotation,
                violations, obligations,
            )
        return ComplianceVerdict(
            report=report.name,
            version=report.version,
            compliant=not violations,
            covering_metareport=covering.name,
            violations=tuple(violations),
            obligations=tuple(obligations),
            derivability_attempts=attempts,
        )

    # -- per-annotation logic ------------------------------------------------

    def _renamed(
        self, report: ReportDefinition, metareport: Query, attribute: str
    ) -> list[str]:
        """The output names, other than ``attribute``, under which a block of
        the report shows the meta-report attribute's values, traced to base
        columns by :meth:`Catalog.sources`: an output that is not aggregated
        and meets the attribute's sources (a rename, or an expression over
        it), or whose copies meet them (a ``MIN`` or ``MAX``). ``COUNT``,
        ``SUM`` and ``AVG`` show no value of the attribute."""
        meta = dict(self.catalog.sources(metareport))
        if attribute not in meta:
            return []
        base = meta[attribute].sources
        return sorted(
            {
                name
                for block in report.query.blocks()
                for name, flow in self.catalog.sources(block)
                if name != attribute
                and (flow.copied if flow.aggregated else flow.sources) & base
            }
        )

    def _reads(self, metareport: Query, attribute: str, read: frozenset) -> bool:
        """Whether ``read`` meets the base columns that the meta-report's
        ``attribute`` flows from."""
        flow = dict(self.catalog.sources(metareport)).get(attribute)
        return flow is not None and bool(flow.sources & read)

    def _check_annotation(
        self,
        report: ReportDefinition,
        metareport: Query,
        outputs: set[str],
        used: frozenset[str],
        read: frozenset,
        annotation: Annotation,
        violations: list[ComplianceViolation],
        obligations: list[RuntimeObligation],
    ) -> None:
        if isinstance(annotation, AttributeAccess):
            # Displaying the attribute is access; so is *filtering or
            # grouping* on it — "drugs of the patient named X" discloses
            # X's data even when the name column itself is projected away.
            touches = annotation.attribute in outputs or annotation.attribute in used
            if touches and not annotation.permits(report.audience):
                bad = sorted(set(report.audience) - annotation.allowed_roles)
                how = "see" if annotation.attribute in outputs else "query by"
                violations.append(
                    ComplianceViolation(
                        annotation=annotation.describe(),
                        reason=(
                            f"audience roles {bad} may not {how} "
                            f"{annotation.attribute!r}"
                        ),
                    )
                )
        elif isinstance(annotation, AggregationThreshold):
            if report.query.is_aggregate:
                obligations.append(RuntimeObligation("aggregation_threshold", annotation))
            elif annotation.min_group_size > 1:
                violations.append(
                    ComplianceViolation(
                        annotation=annotation.describe(),
                        reason=(
                            "report exposes record-level rows but the PLA "
                            f"requires aggregation over ≥ "
                            f"{annotation.min_group_size} records"
                        ),
                    )
                )
        elif isinstance(annotation, AnonymizationRequirement):
            if annotation.blanks_cells:
                # Blanked in the base table, so whatever reads it reads NULL.
                if self._reads(metareport, annotation.attribute, read):
                    obligations.append(RuntimeObligation("anonymize", annotation))
            elif annotation.attribute in outputs or annotation.attribute in used:
                if report.query.set_ops:
                    # A UNION can move the attribute under another branch's
                    # column name, where the enforcer cannot find it by name
                    # to anonymize it.
                    violations.append(
                        ComplianceViolation(
                            annotation=annotation.describe(),
                            reason=(
                                "anonymization cannot be applied to a UNION "
                                "report that reads the attribute; drop the "
                                "attribute"
                            ),
                        )
                    )
                elif renamed := self._renamed(report, metareport, annotation.attribute):
                    # The enforcer anonymizes the column by name, so a copy
                    # under another name would be delivered as it is.
                    violations.append(
                        ComplianceViolation(
                            annotation=annotation.describe(),
                            reason=(
                                "anonymization cannot be applied to a report "
                                f"that shows the attribute as {renamed}; show "
                                "it under its own name or drop it"
                            ),
                        )
                    )
                else:
                    obligations.append(RuntimeObligation("anonymize", annotation))
        elif isinstance(annotation, JoinPermission):
            if not annotation.allowed:
                footprint = self.source_footprint(report)
                if annotation.left in footprint and annotation.right in footprint:
                    violations.append(
                        ComplianceViolation(
                            annotation=annotation.describe(),
                            reason=(
                                "report combines data from "
                                f"{annotation.left} and {annotation.right}"
                            ),
                        )
                    )
        elif isinstance(annotation, IntegrationPermission):
            # Integration is an ETL-time property; at the report level we can
            # only verify the agreed direction and hand the constraint to the
            # ETL registry (see translation.to_etl_registry).
            if not annotation.allowed:
                obligations.append(RuntimeObligation("etl_integration", annotation))
        elif isinstance(annotation, IntensionalCondition):
            # A suppress_cell rule is blanked in the base table: it binds a
            # report that reads the attribute's base column in any way.
            if not annotation.blanks_cells or self._reads(
                metareport, annotation.attribute, read
            ):
                obligations.append(RuntimeObligation("intensional", annotation))

    def check_catalog(
        self, reports: tuple[ReportDefinition, ...]
    ) -> dict[str, ComplianceVerdict]:
        """Verdicts for a whole report catalog (testing-before-operation)."""
        return {report.name: self.check_report(report) for report in reports}
