"""Translating PLAs into enforceable structures (§6's closing challenge).

"...methods for translating PLAs into internal data structures that can be
used for automated privacy management support at design time or runtime."

Three translations live here:

* :class:`ReportLevelEnforcer` — runs a report under its compliance verdict,
  discharging runtime obligations. Row conditions, cell conditions (hidden
  columns included) and ``suppress`` anonymization guard the base tables
  the report reads, so the query never sees a dropped row or a blanked
  cell's value; lineage-counted thresholds, pseudonymization and
  generalization run over the result. A result that came out of the plan
  cache has its enforced outcome kept in the cache entry's slot, so a warm
  delivery runs no obligation pass.
* :func:`to_etl_registry` — projects join/integration annotations into an
  :class:`~repro.etl.annotations.EtlPlaRegistry` so ETL flows enforce them.
* :func:`to_vpd_policy` — projects source-level PLAs into VPD rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.cache import LRUCache
from repro.errors import CatalogError, ComplianceError, EnforcementError
from repro.anonymize.generalization import Hierarchy
from repro.anonymize.pseudonym import Pseudonymizer
from repro.core.annotations import (
    AnonymizationRequirement,
    AttributeAccess,
    IntegrationPermission,
    JoinPermission,
)
from repro.core.compliance import ComplianceVerdict
from repro.core.pla import PLA
from repro.etl.annotations import (
    EtlPlaRegistry,
    IntegrationProhibition,
    JoinProhibition,
)
from repro.obs import instrument
from repro.obs.trace import TRACER
from repro.policy.subjects import AccessContext
from repro.policy.vpd import ColumnMask, VPDPolicy, VPDRule
from repro.relational.catalog import Catalog, Guards
from repro.relational.engine import execute
from repro.relational.expressions import Case, Col, Lit
from repro.relational.table import ReadOnlyTable, Table
from repro.reports.definition import ReportDefinition, ReportInstance

__all__ = ["ReportLevelEnforcer", "to_etl_registry", "to_vpd_policy"]


class _Outcome(NamedTuple):
    """One report's enforced result and the objects it was built from.

    Kept in a plan-cache slot, it holds while the verdict's obligations,
    the pseudonymizer and each hierarchy it read are those same objects.
    They are compared by identity; the references kept here stop their ids
    from being reused.
    """

    obligations: tuple
    pseudonymizer: Pseudonymizer | None
    hierarchies: tuple[tuple[str, Hierarchy | None], ...]
    table: Table
    suppressed: int
    applied: tuple[str, ...]

    def holds(self, obligations: tuple, enforcer: "ReportLevelEnforcer") -> bool:
        if self.obligations is not obligations:
            return False
        if self.pseudonymizer is not enforcer.pseudonymizer:
            return False
        for attribute, hierarchy in self.hierarchies:
            if enforcer.hierarchies.get(attribute) is not hierarchy:
                return False
        return True


@dataclass
class ReportLevelEnforcer:
    """Generates reports with their runtime obligations discharged."""

    catalog: Catalog
    pseudonymizer: Pseudonymizer | None = None
    hierarchies: dict[str, Hierarchy] = field(default_factory=dict)
    _guard_sets: LRUCache = field(
        default_factory=lambda: LRUCache(maxsize=256),
        init=False, repr=False, compare=False,
    )
    #: Names this enforcer's outcomes in plan-cache slots.
    _slot_key: object = field(
        default_factory=object, init=False, repr=False, compare=False
    )

    def generate(
        self,
        report: ReportDefinition,
        context: AccessContext,
        verdict: ComplianceVerdict,
    ) -> ReportInstance:
        """Run ``report`` under ``verdict``; non-compliant verdicts raise.

        When observability is on the run emits a ``report.enforce`` span and
        counts report-level enforcement decisions: allow/deny, groups
        suppressed by aggregation thresholds, cells anonymized.
        """
        if not TRACER.active():
            return self._generate(report, context, verdict)
        with TRACER.span(
            "report.enforce",
            {"report": report.name, "consumer": context.user.name},
        ) as span:
            level = instrument.LEVEL_REPORT
            try:
                instance = self._generate(report, context, verdict)
            except (ComplianceError, EnforcementError) as exc:
                instrument.record_decision(level, "deny", type(exc).__name__)
                raise
            instrument.record_decision(
                level, "allow", verdict.covering_metareport or "-"
            )
            instrument.record_decision(
                level,
                "suppress_row",
                "aggregation_threshold",
                count=instance.suppressed_rows,
            )
            for obligation in verdict.obligations:
                if obligation.kind == "anonymize":
                    instrument.record_decision(
                        level,
                        "anonymize",
                        f"anonymize.{obligation.annotation.method}",
                    )
            span.set_tag("suppressed_rows", instance.suppressed_rows)
            return instance

    def _generate(
        self,
        report: ReportDefinition,
        context: AccessContext,
        verdict: ComplianceVerdict,
    ) -> ReportInstance:
        if not verdict.compliant:
            raise ComplianceError(
                f"report {report.name!r} is not compliant: "
                + "; ".join(str(v) for v in verdict.violations)
            )
        if verdict.report != report.name or verdict.version != report.version:
            raise ComplianceError(
                f"verdict is for {verdict.report} v{verdict.version}, "
                f"not {report.name} v{report.version}"
            )
        if not any(context.user.has_role(role) for role in report.audience):
            raise ComplianceError(
                f"user {context.user.name!r} is not in the audience of "
                f"{report.name!r}"
            )
        # Purpose limitation: the consumer's declared purpose must fall under
        # the purpose the report was agreed for.
        if not (
            context.purpose.name == report.purpose
            or context.purpose.name.startswith(report.purpose + "/")
        ):
            raise ComplianceError(
                f"purpose {context.purpose.name!r} is not covered by the "
                f"agreed purpose {report.purpose!r} of {report.name!r}"
            )

        guards = self._guards_for(report, verdict)
        table = execute(report.query, self.catalog.guarded(guards), name=report.name)
        # One kept outcome per report name and enforcer in the entry's slot;
        # a stale one is replaced, never added beside.
        slot = table.cache_slot
        key = (self._slot_key, report.name)
        outcome = slot.get(key) if slot is not None else None
        if outcome is None or not outcome.holds(verdict.obligations, self):
            outcome = self._enforce(table, verdict.obligations)
            if slot is not None:
                slot[key] = outcome
        return ReportInstance(
            definition=report,
            table=outcome.table,
            consumer=context.user.name,
            suppressed_rows=outcome.suppressed,
            obligations_applied=outcome.applied,
        )

    def _enforce(self, table: Table, obligations: tuple) -> _Outcome:
        """The obligation passes over an executed result. A result from the
        plan cache ends as a :class:`ReadOnlyTable`, to be kept in its slot."""
        floor = max(
            (
                o.annotation.min_group_size
                for o in obligations
                if o.kind == "aggregation_threshold"
            ),
            default=1,
        )
        anonymize = [
            o.annotation
            for o in obligations
            if o.kind == "anonymize" and not o.annotation.blanks_cells
        ]
        enforced, suppressed = table.drop_undersized(floor)
        enforced = self._apply_anonymization(enforced, anonymize)
        return _Outcome(
            obligations=obligations,
            pseudonymizer=self.pseudonymizer,
            hierarchies=tuple(
                (r.attribute, self.hierarchies.get(r.attribute))
                for r in anonymize
                if r.method == "generalize"
            ),
            table=enforced if table.cache_slot is None else ReadOnlyTable(enforced),
            suppressed=suppressed,
            applied=tuple(str(o) for o in obligations),
        )

    # -- obligation mechanics ------------------------------------------------

    def _guards_for(
        self, report: ReportDefinition, verdict: ComplianceVerdict
    ) -> Guards:
        """The guard set the report runs under: its verdict's row and cell
        rules.

        Kept per report query, rules, covering meta-report and catalog DDL
        generation, so repeated deliveries run under one guard set. The key
        holds the query's and rules' ids; the entry keeps references to
        them, so no other object can take those ids while it lives.
        """
        rules = [
            o.annotation
            for o in verdict.obligations
            if o.kind == "intensional" or o.annotation.blanks_cells
        ]
        metareport = verdict.covering_metareport
        key = (
            id(report.query),
            tuple(map(id, rules)),
            metareport,
            self.catalog.uid,
            self.catalog.ddl_version,
        )
        kept = self._guard_sets.get(key)
        if kept is None:
            kept = (report.query, tuple(rules), self._guards(report, rules, metareport))
            self._guard_sets.put(key, kept)
        return kept[2]

    def _guards(
        self, report: ReportDefinition, rules: list, metareport: str | None
    ) -> Guards:
        # Rules are over the covering meta-report's columns (the report's
        # when none covers it). suppress_row keeps a base row where its
        # condition holds, suppress_cell shows the attribute's base cell
        # where it holds, and a suppress anonymization never shows it.
        covered = metareport is not None and self.catalog.is_view(metareport)
        over = self.catalog.view(metareport).query if covered else report.query
        rows, cells = [], []
        for rule in rules:
            anonymized = isinstance(rule, AnonymizationRequirement)
            try:
                if anonymized:
                    table, column = self.catalog.restate(Col(rule.attribute), over)
                    cells.append((table, column.name, Lit(None)))
                elif rule.action == "suppress_row":
                    rows.append(self.catalog.restate(rule.condition, over))
                else:
                    shown = Case((rule.condition,), (Col(rule.attribute),))
                    table, shown = self.catalog.restate(shown, over)
                    cells.append((table, shown.thens[0].name, shown))
            except CatalogError as exc:
                kind = "suppress" if anonymized else rule.action
                raise EnforcementError(
                    f"cannot enforce {kind} [{rule.describe()}] on report "
                    f"{report.name!r}: {exc}"
                ) from None
        try:
            return self.catalog.guards(report.query, rows, cells)
        except CatalogError as exc:
            raise EnforcementError(
                f"cannot enforce the row and cell rules on report "
                f"{report.name!r}: {exc}"
            ) from None

    def _apply_anonymization(self, table: Table, requirements: list) -> Table:
        for requirement in requirements:
            assert isinstance(requirement, AnonymizationRequirement)
            if requirement.attribute not in table.schema:
                continue
            if requirement.method == "pseudonymize":
                if self.pseudonymizer is None:
                    raise EnforcementError(
                        f"PLA requires pseudonymizing {requirement.attribute!r} "
                        "but no Pseudonymizer is configured"
                    )
                table = self.pseudonymizer.apply(
                    table, [requirement.attribute], name=table.name
                )
            else:  # generalize
                hierarchy = self.hierarchies.get(requirement.attribute)
                if hierarchy is None:
                    raise EnforcementError(
                        f"PLA requires generalizing {requirement.attribute!r} "
                        "but no hierarchy is configured"
                    )
                table = self._generalize_column(
                    table, requirement.attribute, hierarchy,
                    requirement.generalization_level,
                )
        return table

    @staticmethod
    def _generalize_column(
        table: Table, column: str, hierarchy: Hierarchy, level: int
    ) -> Table:
        from repro.relational.schema import Column, Schema
        from repro.relational.types import ColumnType

        idx = table.schema.index_of(column)
        schema = Schema(
            Column(c.name, ColumnType.STRING, True) if c.name == column else c
            for c in table.schema
        )
        rows = [
            tuple(
                hierarchy.generalize(v, level) if j == idx else v
                for j, v in enumerate(row)
            )
            for row in table.rows
        ]
        return Table.derived(
            table.name, schema, rows, list(table.provenance), provider=table.provider
        )


# ---------------------------------------------------------------------------
# Cross-layer projections
# ---------------------------------------------------------------------------


def to_etl_registry(plas: Iterable[PLA]) -> EtlPlaRegistry:
    """Project join/integration annotations of PLAs into ETL constraints."""
    registry = EtlPlaRegistry()
    n = 0
    for pla in plas:
        for annotation in pla.annotations:
            if isinstance(annotation, JoinPermission) and not annotation.allowed:
                registry.add(
                    JoinProhibition(
                        name=f"{pla.name}_join_{n}",
                        owner=pla.owner,
                        left=annotation.left,
                        right=annotation.right,
                        reason=f"from PLA {pla.name!r}",
                    )
                )
                n += 1
            elif isinstance(annotation, IntegrationPermission) and not annotation.allowed:
                registry.add(
                    IntegrationProhibition(
                        name=f"{pla.name}_integration_{n}",
                        owner=annotation.owner,
                        reason=f"from PLA {pla.name!r}",
                    )
                )
                n += 1
    return registry


def to_vpd_policy(plas: Iterable[PLA]) -> VPDPolicy:
    """Project source-level PLAs into VPD rules (row predicates + masks).

    Supported at this layer: intensional suppress_row conditions become row
    predicates; attribute-access annotations with an empty role set and
    anonymization ``suppress`` requirements become column masks. Other kinds
    need report- or ETL-side enforcement and are ignored here.
    """
    policy = VPDPolicy()
    by_table: dict[str, dict] = {}
    for pla in plas:
        entry = by_table.setdefault(
            pla.target, {"predicate": None, "masks": []}
        )
        restriction = pla.row_restriction()
        if restriction is not None:
            entry["predicate"] = (
                restriction
                if entry["predicate"] is None
                else entry["predicate"] & restriction
            )
        for annotation in pla.annotations:
            if isinstance(annotation, AnonymizationRequirement) and (
                annotation.method == "suppress"
            ):
                entry["masks"].append(ColumnMask(annotation.attribute))
            elif isinstance(annotation, AttributeAccess) and (
                not annotation.allowed_roles
            ):
                entry["masks"].append(ColumnMask(annotation.attribute))
    for table, entry in by_table.items():
        policy.add_rule(
            VPDRule(
                relation=table,
                predicate=entry["predicate"],
                masks=tuple(entry["masks"]),
            )
        )
    return policy
