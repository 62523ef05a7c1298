"""Virtual-Private-Database-style automatic query rewriting.

The paper's §3 lists "automatic query rewriting techniques, such as those
found in commercial databases like Oracle Virtual Private Database (VPD) or
in the Hippocratic Database" as source-level enforcement mechanisms. This
module implements that mechanism over our engine: per-relation row-level
predicates (possibly context-dependent) guard the relation wherever it is
read, and column masks are injected into every query before execution.

Masks follow the engine's naming (:meth:`Catalog.scope`): a bare ``SELECT *``
is expanded to its whole FROM scope, joined relations included, and a mask
on base table R's column c covers every name in that scope whose values
come from R.c (:meth:`Catalog.sources`): ``c`` itself, ``R.c`` where a join
qualified it, and a view's column copied or computed from it, however the
view names it; never another relation's ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import CatalogError, PolicyError, QueryError
from repro.policy.subjects import AccessContext
from repro.relational.catalog import Catalog
from repro.relational.engine import execute
from repro.relational.expressions import Expr, Lit
from repro.relational.query import Query
from repro.relational.table import Table

__all__ = ["ColumnMask", "VPDRule", "VPDPolicy"]

PredicateFactory = Callable[[AccessContext], Expr | None]


@dataclass(frozen=True)
class ColumnMask:
    """Replace a column's values with a constant (default NULL) on read."""

    column: str
    replacement: object = None


@dataclass
class VPDRule:
    """Row predicate and column masks applied to one relation.

    ``predicate`` may be a fixed expression or a factory called with the
    access context (Oracle VPD's policy function); returning ``None`` means
    "no row restriction for this context".
    """

    relation: str
    predicate: Expr | PredicateFactory | None = None
    masks: tuple[ColumnMask, ...] = ()
    exempt_roles: frozenset[str] = frozenset()

    def predicate_for(self, context: AccessContext) -> Expr | None:
        if any(context.user.has_role(role) for role in self.exempt_roles):
            return None
        if self.predicate is None:
            return None
        if isinstance(self.predicate, Expr):
            return self.predicate
        return self.predicate(context)

    def masks_for(self, context: AccessContext) -> tuple[ColumnMask, ...]:
        if any(context.user.has_role(role) for role in self.exempt_roles):
            return ()
        return self.masks


@dataclass
class VPDPolicy:
    """A set of VPD rules plus the rewrite/execute entry points."""

    rules: dict[str, VPDRule] = field(default_factory=dict)

    def add_rule(self, rule: VPDRule) -> VPDRule:
        if rule.relation in self.rules:
            raise PolicyError(f"VPD rule for {rule.relation!r} already exists")
        self.rules[rule.relation] = rule
        return rule

    def rewrite(self, query: Query, catalog: Catalog, context: AccessContext) -> Query:
        """Inject the column masks of every *base* relation the query
        touches; a UNION is rewritten block by block. Row predicates guard
        the relation itself (:meth:`run`)."""
        if query.set_ops:
            return replace(
                self.rewrite(query.blocks()[0], catalog, context),
                set_ops=tuple(
                    replace(c, query=self.rewrite(c.query, catalog, context))
                    for c in query.set_ops
                ),
            )
        rewritten = query
        for relation in query.referenced_relations():
            for base in sorted(catalog.base_relations(relation)):
                rule = self.rules.get(base)
                if rule is not None:
                    rewritten = self._apply_masks(
                        rewritten, rule.masks_for(context), catalog, relation, base
                    )
        return rewritten

    def _apply_masks(
        self,
        query: Query,
        masks: tuple[ColumnMask, ...],
        catalog: Catalog,
        relation: str,
        base: str,
    ) -> Query:
        if not masks:
            return query
        by_column = {m.column: m for m in masks}
        traced = dict(catalog.sources(relation))
        masked = {
            name: by_column[source]
            for name, origin, column in catalog.scope(query)
            if origin == relation
            for table, source in sorted(traced[column].sources)
            if table == base and source in by_column
        }
        if not masked:
            return query
        if query.is_aggregate:
            # Masked columns must not feed aggregates or grouping at all.
            used = set(query.group_by) | {
                a.column for a in query.aggregates if a.column is not None
            }
            blocked = used & masked.keys()
            if blocked:
                raise QueryError(
                    f"query aggregates over masked column(s) {sorted(blocked)}"
                )
            return query
        # A bare SELECT * expands to the whole FROM scope before masking.
        items = query.select or catalog.output_names(query)
        new_items: list[str | tuple[str, Expr]] = []
        for item in items:
            if isinstance(item, str) and item in masked:
                new_items.append((item, Lit(masked[item].replacement)))
            elif not isinstance(item, str) and (item[1].columns() & masked.keys()):
                raise QueryError(f"computed column {item[0]!r} reads masked column(s)")
            else:
                new_items.append(item)
        return query.project(*new_items)

    def run(
        self,
        query: Query,
        catalog: Catalog,
        context: AccessContext,
        *,
        name: str | None = None,
    ) -> Table:
        """Mask, then execute with each rule's predicate guarding its base
        relation wherever the query reads it — the VPD enforcement point. A
        predicate over an unknown column, or a guarded relation read on the
        null-extended side of an outer join, raises :class:`QueryError`."""
        conditions = []
        for base in sorted(catalog.base_relations_of_query(query)):
            rule = self.rules.get(base)
            predicate = rule.predicate_for(context) if rule is not None else None
            if predicate is not None:
                conditions.append((predicate, Query.from_(base)))
        try:
            guarded = catalog.guarded(catalog.row_guards(conditions, query))
        except CatalogError as exc:
            raise QueryError(f"VPD rule cannot be enforced: {exc}") from None
        return execute(self.rewrite(query, catalog, context), guarded, name=name)
