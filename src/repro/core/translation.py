"""Translating PLAs into enforceable structures (§6's closing challenge).

"...methods for translating PLAs into internal data structures that can be
used for automated privacy management support at design time or runtime."

Three translations live here:

* :class:`ReportLevelEnforcer` — runs a report under its compliance verdict,
  discharging runtime obligations: row conditions as base-table guards, cell
  conditions (hidden-column support), lineage-counted thresholds, anonymization.
  A result that came out of the plan cache has its enforced outcome kept in
  the cache entry's slot, so a warm delivery runs no obligation pass.
* :func:`to_etl_registry` — projects join/integration annotations into an
  :class:`~repro.etl.annotations.EtlPlaRegistry` so ETL flows enforce them.
* :func:`to_vpd_policy` — projects source-level PLAs into VPD rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

from repro.cache import LRUCache
from repro.errors import CatalogError, ComplianceError, EnforcementError
from repro.anonymize.generalization import Hierarchy
from repro.anonymize.pseudonym import Pseudonymizer
from repro.core.annotations import (
    AnonymizationRequirement,
    AttributeAccess,
    IntegrationPermission,
    IntensionalCondition,
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
from repro.relational.catalog import Catalog
from repro.relational.engine import execute
from repro.relational.table import ReadOnlyTable, Table
from repro.reports.definition import ReportDefinition, ReportInstance

__all__ = ["ReportLevelEnforcer", "to_etl_registry", "to_vpd_policy"]


class _Outcome(NamedTuple):
    """One report's enforced result and the objects it was built from.

    Kept in a plan-cache slot, it holds while the verdict's obligations,
    the hidden columns, the pseudonymizer and each hierarchy it read are
    those same objects. They are compared by identity; the references kept
    here stop their ids from being reused.
    """

    obligations: tuple
    hidden: tuple[str, ...]
    pseudonymizer: Pseudonymizer | None
    hierarchies: tuple[tuple[str, Hierarchy | None], ...]
    table: Table
    suppressed: int
    applied: tuple[str, ...]

    def holds(
        self, obligations: tuple, hidden: tuple, enforcer: "ReportLevelEnforcer"
    ) -> bool:
        if self.obligations is not obligations or self.hidden is not hidden:
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
    _rewrites: LRUCache = field(
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

        intensional = [
            o.annotation
            for o in verdict.obligations
            if o.kind == "intensional"
        ]
        query, hidden, guards = self._rewrite_for_intensional(
            report, intensional, verdict.covering_metareport
        )
        table = execute(query, self.catalog.guarded(guards), name=report.name)
        # One kept outcome per report name and enforcer in the entry's slot;
        # a stale one is replaced, never added beside.
        slot = table.cache_slot
        key = (self._slot_key, report.name)
        outcome = slot.get(key) if slot is not None else None
        if outcome is None or not outcome.holds(verdict.obligations, hidden, self):
            outcome = self._enforce(table, verdict.obligations, hidden, intensional)
            if slot is not None:
                slot[key] = outcome
        return ReportInstance(
            definition=report,
            table=outcome.table,
            consumer=context.user.name,
            suppressed_rows=outcome.suppressed,
            obligations_applied=outcome.applied,
        )

    def _enforce(
        self,
        table: Table,
        obligations: tuple,
        hidden: tuple[str, ...],
        intensional: list,
    ) -> _Outcome:
        """The obligation passes over an executed result. A result from the
        plan cache ends as a :class:`ReadOnlyTable`, to be kept in its slot."""
        thresholds = [
            o.annotation for o in obligations if o.kind == "aggregation_threshold"
        ]
        anonymize = [o.annotation for o in obligations if o.kind == "anonymize"]
        enforced = self._blank_cells(table, intensional)
        enforced, suppressed = self._apply_thresholds(enforced, thresholds)
        enforced = self._apply_anonymization(enforced, anonymize)
        if hidden:
            enforced = self._project_away(enforced, hidden)
        return _Outcome(
            obligations=obligations,
            hidden=hidden,
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

    def _ensure_columns_available(self, query, columns: set[str]):
        """Make suppress_cell condition columns reachable from the source.

        A report may be authored over a meta-report view that projects the
        condition column away (it exists only "for purposes of defining
        PLAs"). In that case the enforcer extends the view one level — its
        FROM, joins included, still carries the column — and points the
        query at the extended view. Raises when the column is genuinely
        absent. A query that joins is returned as it is.
        """
        from repro.relational.catalog import View

        if query.joins:
            return query
        source = query.source
        available = self.catalog.output_names(source)
        missing = {c for c in columns if c not in available}
        if not missing:
            return query
        if not self.catalog.is_view(source):
            raise EnforcementError(
                f"intensional condition references {sorted(missing)}, absent "
                f"from base table {source!r}"
            )
        view_query = self.catalog.view(source).query
        upstream = self.catalog.output_names(replace(view_query, select=()))
        if not view_query.select or not missing <= set(upstream):
            raise EnforcementError(
                f"cannot reach hidden column(s) {sorted(missing)} through "
                f"view {source!r}"
            )
        extended_name = f"{source}__plaext"
        extended = view_query.project(*view_query.select, *sorted(missing))
        # Re-registering is catalog DDL: it bumps ddl_version, evicting every
        # cached plan and re-keying every verdict over this catalog. Deliveries
        # run under the daemon's read lock, so reuse an identical definition.
        if not (
            self.catalog.is_view(extended_name)
            and self.catalog.view(extended_name).query == extended
        ):
            self.catalog.add_view(View(extended_name, extended), replace=True)
        return replace(query, source=extended_name)

    def _rewrite_for_intensional(
        self,
        report: ReportDefinition,
        conditions: list,
        metareport: str | None,
    ) -> tuple:
        """The query to run, the hidden columns to project away after, and
        the row guards to run it under.

        Kept per report query, conditions, covering meta-report and catalog
        DDL generation, so repeated deliveries run one query object under
        one guard set. The key holds the query's and conditions' ids; the
        entry keeps references to them, so no other object can take those
        ids while it lives. The DDL version is read before the rewrite,
        which may register a view itself.
        """
        key = (
            id(report.query),
            tuple(map(id, conditions)),
            metareport,
            self.catalog.uid,
            self.catalog.ddl_version,
        )
        kept = self._rewrites.get(key)
        if kept is None:
            rewrite = self._rewrite(report, conditions, metareport)
            kept = (report.query, tuple(conditions), rewrite)
            self._rewrites.put(key, kept)
        return kept[2]

    def _rewrite(
        self, report: ReportDefinition, conditions: list, metareport: str | None
    ) -> tuple:
        # suppress_row conditions are over the covering meta-report's columns
        # (the report's when none covers it) and guard the base tables.
        covered = metareport is not None and self.catalog.is_view(metareport)
        over = self.catalog.view(metareport).query if covered else report.query
        rows = [(c.condition, over) for c in conditions if c.action == "suppress_row"]
        try:
            guards = self.catalog.row_guards(rows, report.query)
        except CatalogError as exc:
            raise EnforcementError(
                f"cannot enforce suppress_row on report {report.name!r}: {exc}"
            ) from None
        cells = [c for c in conditions if c.action == "suppress_cell"]
        query = report.query
        outputs = set(self.catalog.output_names(query))
        hidden: list[str] = []
        # Every refusal comes before the column reach, which may run DDL.
        for condition in cells:
            assert isinstance(condition, IntensionalCondition)
            for column in sorted(condition.hidden_columns(outputs)):
                if column in hidden:
                    continue
                if query.is_aggregate or query.set_ops:
                    raise EnforcementError(
                        f"[{condition.describe()}] with hidden columns cannot "
                        "attach to an aggregate or UNION report"
                    )
                if not query.select:
                    raise EnforcementError(
                        f"[{condition.describe()}]: report {report.name!r} must "
                        "have an explicit SELECT list for hidden-column enforcement"
                    )
                hidden.append(column)
        needed = {column for c in cells for column in c.condition.columns()}
        if needed:
            query = self._ensure_columns_available(query, needed)
        if hidden:
            query = query.project(*query.select, *hidden)
        return query, tuple(hidden), guards

    def _blank_cells(self, table: Table, conditions: list) -> Table:
        """Blank cells failing suppress_cell conditions."""
        cell_conditions = [
            c
            for c in conditions
            if c.action == "suppress_cell"
            and c.attribute in table.schema
            and c.condition.columns() <= set(table.schema.names)
        ]
        if not cell_conditions:
            return table
        from repro.relational.schema import Column, Schema

        blanked_columns = {c.attribute for c in cell_conditions}
        schema = Schema(
            Column(col.name, col.ctype, True)
            if col.name in blanked_columns
            else col
            for col in table.schema
        )
        rows = []
        for i in range(len(table)):
            row_dict = table.row_dict(i)
            mutated = list(table.rows[i])
            for condition in cell_conditions:
                if not condition.condition.evaluate(row_dict):
                    mutated[table.schema.index_of(condition.attribute)] = None
            rows.append(tuple(mutated))
        return Table.derived(
            table.name, schema, rows, list(table.provenance), provider=table.provider
        )

    def _apply_thresholds(self, table: Table, thresholds: list) -> tuple[Table, int]:
        """Suppress aggregate rows with too few base contributors."""
        if not thresholds:
            return table, 0
        required = max(t.min_group_size for t in thresholds)
        keep = [i for i in range(len(table)) if len(table.lineage_of(i)) >= required]
        dropped = len(table) - len(keep)
        return table.take(keep), dropped

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
            elif requirement.method == "suppress":
                table = self._suppress_column(table, requirement.attribute)
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
    def _suppress_column(table: Table, column: str) -> Table:
        from repro.relational.schema import Column, Schema

        idx = table.schema.index_of(column)
        schema = Schema(
            Column(c.name, c.ctype, True) if c.name == column else c
            for c in table.schema
        )
        rows = [
            tuple(None if j == idx else v for j, v in enumerate(row))
            for row in table.rows
        ]
        return Table.derived(
            table.name, schema, rows, list(table.provenance), provider=table.provider
        )

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

    @staticmethod
    def _project_away(table: Table, hidden: tuple[str, ...]) -> Table:
        from repro.relational import algebra

        keep = [c for c in table.schema.names if c not in hidden]
        return algebra.project(table, keep, name=table.name)


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
