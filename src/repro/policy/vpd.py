"""Virtual-Private-Database-style automatic query rewriting.

The paper's §3 lists "automatic query rewriting techniques, such as those
found in commercial databases like Oracle Virtual Private Database (VPD) or
in the Hippocratic Database" as source-level enforcement mechanisms. This
module implements that mechanism over our engine: each rule guards its base
relation wherever a query reads it (:meth:`Catalog.guarded`). Its row
predicate (possibly context-dependent) keeps the rows it is true on, and
each column mask replaces that column's value in every row before the query
reads it. So whatever a query calls a masked column (``c``, ``R.c`` where a
join qualified it, a view's copy or computation) and wherever it reads it
(SELECT, WHERE, JOIN ON, GROUP BY, an aggregate), it reads the mask's
constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Replace a base column's values with a constant (default NULL).

    The guarded base table holds the constant, so every clause of a query
    reads it (:meth:`VPDPolicy.run`)."""

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
    """A set of VPD rules plus the execute entry point."""

    rules: dict[str, VPDRule] = field(default_factory=dict)

    def add_rule(self, rule: VPDRule) -> VPDRule:
        if rule.relation in self.rules:
            raise PolicyError(f"VPD rule for {rule.relation!r} already exists")
        self.rules[rule.relation] = rule
        return rule

    def run(
        self,
        query: Query,
        catalog: Catalog,
        context: AccessContext,
        *,
        name: str | None = None,
    ) -> Table:
        """Execute with each rule guarding its base relation wherever the
        query reads it — the VPD enforcement point. A predicate over an
        unknown column, or a guarded relation read on the null-extended side
        of an outer join, raises :class:`QueryError`."""
        bases = sorted(catalog.base_relations_of_query(query))
        rows, cells = [], []
        try:
            for base in bases:
                rule = self.rules.get(base)
                if rule is None:
                    continue
                predicate = rule.predicate_for(context)
                if predicate is not None:
                    rows.append(catalog.restate(predicate, Query.from_(base)))
                masks = rule.masks_for(context)
                cells += [(base, m.column, Lit(m.replacement)) for m in masks]
            guarded = catalog.guarded(catalog.guards(query, rows, cells))
        except CatalogError as exc:
            raise QueryError(f"VPD rule cannot be enforced: {exc}") from None
        return execute(query, guarded, name=name)
