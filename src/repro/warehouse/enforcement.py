"""Warehouse-level enforcement: executing queries under DWH privacy metadata.

§4's mechanism, made operational: the annotations of a
:class:`~repro.warehouse.metadata.PrivacyMetadataRegistry` (field
sensitivity/role limits, table purpose limits, join permissions, aggregation
floors, intensional row rules) gate and shape every query a consumer runs
against the warehouse. This is the enforcement point a deployment gets when
PLAs are engineered at the warehouse level instead of on reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CatalogError, ComplianceError
from repro.obs import instrument
from repro.obs.trace import TRACER
from repro.policy.subjects import AccessContext
from repro.relational.catalog import Catalog
from repro.relational.engine import execute
from repro.relational.execconfig import ExecutionConfig
from repro.relational.query import Query
from repro.relational.table import Table
from repro.warehouse.metadata import PrivacyMetadataRegistry

__all__ = ["WarehouseEnforcer"]


@dataclass
class WarehouseEnforcer:
    """Gates warehouse queries against the DWH privacy metadata."""

    catalog: Catalog
    metadata: PrivacyMetadataRegistry
    config: ExecutionConfig | None = None  # None = process default

    # -- static gate ---------------------------------------------------------

    def check(self, query: Query, context: AccessContext) -> list[str]:
        """Reasons the query is not allowed (empty = admissible)."""
        reasons: list[str] = []
        relations = query.referenced_relations()
        base_tables: set[str] = set()
        for relation in relations:
            base_tables |= set(self.catalog.base_relations(relation))

        # Table-level purpose restrictions.
        for table in sorted(base_tables):
            annotation = self.metadata.table_annotation(table)
            if annotation is not None and not annotation.permits_purpose(
                context.purpose.name
            ):
                reasons.append(
                    f"table {table!r} may not be used for purpose "
                    f"{context.purpose.name!r}"
                )

        # Join permissions between every referenced base-table pair.
        tables = sorted(base_tables)
        for i, left in enumerate(tables):
            for right in tables[i + 1 :]:
                if not self.metadata.join_permitted(left, right):
                    reasons.append(
                        f"joining {left!r} with {right!r} is not permitted"
                    )

        # Column-level role limits on every base column the query reads,
        # traced through joins, views and renames.
        roles = {role.name for role in context.user.roles}
        for table, column in sorted(self.catalog.input_sources(query)):
            annotation = self.metadata.column_annotation(table, column)
            if annotation is None:
                continue
            if not any(annotation.permits_role(role) for role in roles):
                reasons.append(
                    f"column {table}.{column} is restricted to roles "
                    f"{sorted(annotation.allowed_roles)}"
                )

        # Record-level exposure of sensitive columns requires aggregation:
        # the base columns any non-aggregate block (a UNION branch too) shows.
        floor = self.metadata.min_aggregation_for(base_tables)
        shown = {
            pair
            for block in query.blocks()
            if not block.is_aggregate
            for _, flow in self.catalog.sources(block)
            for pair in flow.sources
        }
        if floor > 1 and any(
            column in self.metadata.sensitive_columns(table) for table, column in shown
        ):
            reasons.append(
                f"record-level access requires aggregation over ≥ {floor} "
                "records for these tables"
            )
        return reasons

    # -- guarded execution ------------------------------------------------------

    def run(
        self, query: Query, context: AccessContext, *, name: str = "dwh_result"
    ) -> tuple[Table, int]:
        """Check, execute with each ``deny_row`` rule keeping the rows where
        its condition is FALSE, apply aggregation floors.

        Returns ``(table, groups the floor removed)``. Raises
        :class:`ComplianceError` when the gate rejects the query or a rule
        cannot guard it. When observability is on, emits a
        ``warehouse.enforce`` span and counts warehouse-level decisions.
        """
        if not TRACER.active():
            return self._run(query, context, name=name)
        with TRACER.span(
            "warehouse.enforce",
            {"user": context.user.name, "purpose": context.purpose.name},
        ) as span:
            level = instrument.LEVEL_WAREHOUSE
            try:
                table, suppressed = self._run(query, context, name=name)
            except ComplianceError:
                instrument.record_decision(level, "deny", "metadata_gate")
                raise
            instrument.record_decision(level, "allow")
            instrument.record_decision(
                level, "suppress_row", "aggregation_floor", count=suppressed
            )
            span.set_tag("suppressed_rows", suppressed)
            return table, suppressed

    def _run(
        self, query: Query, context: AccessContext, *, name: str
    ) -> tuple[Table, int]:
        reasons = self.check(query, context)
        if reasons:
            raise ComplianceError(
                "warehouse metadata rejects the query: " + "; ".join(reasons)
            )
        base_tables = self.catalog.base_relations_of_query(query)
        rules = [
            (~rule.condition, Query.from_(rule.table))
            for rule in self.metadata.row_rules
            if rule.metadata.get("deny_row")
            and rule.table in self.catalog
            and self.catalog.base_relations(rule.table) & base_tables
        ]
        try:
            guarded = self.catalog.guarded(self.catalog.row_guards(rules, query))
        except CatalogError as exc:
            raise ComplianceError(f"a row rule cannot guard the query: {exc}") from None
        result = execute(query, guarded, name=name, config=self.config)
        if not query.is_aggregate:
            return result, 0
        floor = self.metadata.min_aggregation_for(base_tables)
        keep = [i for i in range(len(result)) if len(result.lineage_of(i)) >= floor]
        suppressed = len(result) - len(keep)
        if not suppressed:
            return result, 0
        return result.take(keep, name=name, provider="warehouse"), suppressed
