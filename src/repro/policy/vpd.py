"""Virtual-Private-Database-style automatic query rewriting.

The paper's §3 lists "automatic query rewriting techniques, such as those
found in commercial databases like Oracle Virtual Private Database (VPD) or
in the Hippocratic Database" as source-level enforcement mechanisms. This
module implements that mechanism over our engine: per-relation row-level
predicates (possibly context-dependent) and column masks are injected into
every query before execution.

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

from repro.errors import PolicyError, QueryError
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
        """Inject predicates/masks for every *base* relation the query touches.

        Predicates attach at the outer WHERE (sound for inner joins and for
        non-null-extended relations; rules over any null-extended side of an
        outer join — the right side of LEFT, the accumulated left side of
        RIGHT, both sides of FULL — are rejected rather than silently
        weakened). A UNION is rewritten block by block, each under the
        rules of the relations it reads.
        """
        if query.set_ops:
            return replace(
                self.rewrite(query.blocks()[0], catalog, context),
                set_ops=tuple(
                    replace(c, query=self.rewrite(c.query, catalog, context))
                    for c in query.set_ops
                ),
            )
        rewritten = query
        for position, relation in enumerate(query.referenced_relations()):
            bases = catalog.base_relations(relation)
            for base in sorted(bases):
                rule = self.rules.get(base)
                if rule is None:
                    continue
                null_extended = (
                    position > 0 and query.joins[position - 1].how in ("left", "full")
                ) or any(
                    clause.how in ("right", "full") for clause in query.joins[position:]
                )
                if null_extended:
                    raise QueryError(
                        f"VPD rule on {base!r} cannot be enforced on the "
                        "null-extended side of an outer join; rewrite the query"
                    )
                predicate = rule.predicate_for(context)
                if predicate is not None:
                    rewritten = rewritten.filter(predicate)
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
        """Rewrite then execute — the VPD enforcement point."""
        return execute(self.rewrite(query, catalog, context), catalog, name=name)
