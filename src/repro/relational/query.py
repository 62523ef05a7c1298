"""Logical query AST with a fluent builder.

A :class:`Query` is a declarative SELECT-FROM-JOIN-WHERE-GROUP BY-HAVING-
ORDER BY-LIMIT block over named tables/views in a catalog. Queries are
immutable; builder methods return modified copies, so a base query can be
specialized safely (this is how VPD rewriting and meta-report derivation
work).

Evaluation order (matching SQL): FROM/JOIN → WHERE → GROUP BY/aggregates →
HAVING → SELECT projection → DISTINCT → ORDER BY → LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Union

from repro.errors import QueryError
from repro.relational.algebra import AggSpec
from repro.relational.expressions import And, Expr, conjuncts

__all__ = ["Query", "JoinClause", "SetOpClause", "SelectItem"]

SelectItem = Union[str, tuple[str, Expr]]


@dataclass(frozen=True)
class JoinClause:
    """One JOIN step: join the named table/view on equality pairs.

    ``how="cross"`` takes no equality pairs (Cartesian product); every
    other join type requires at least one. The ingestion front-end uses
    1-row cross joins to splice hoisted scalar subqueries into predicates.
    """

    table: str
    on: tuple[tuple[str, str], ...]
    how: str = "inner"

    def __post_init__(self) -> None:
        if self.how not in ("inner", "left", "right", "full", "cross"):
            raise QueryError(f"unsupported join type {self.how!r}")
        if self.how == "cross":
            if self.on:
                raise QueryError("CROSS JOIN takes no ON equality pairs")
        elif not self.on:
            raise QueryError("join clause requires at least one equality pair")

    def __str__(self) -> str:
        kind = {
            "inner": "JOIN",
            "left": "LEFT JOIN",
            "right": "RIGHT JOIN",
            "full": "FULL JOIN",
            "cross": "CROSS JOIN",
        }[self.how]
        if self.how == "cross":
            return f"{kind} {self.table}"
        conds = " AND ".join(f"{l} = {r}" for l, r in self.on)
        return f"{kind} {self.table} ON {conds}"


@dataclass(frozen=True)
class SetOpClause:
    """One set-operation step: combine with another full SELECT block.

    ``op`` is ``"union"`` (duplicate-eliminating, applied after the
    concatenation like SQL's left-associative UNION) or ``"union_all"``.
    The branch query must not carry ORDER BY/LIMIT — in SQL those belong
    to the combined result and live on the head query.
    """

    op: str  # "union" | "union_all"
    query: "Query"

    def __post_init__(self) -> None:
        if self.op not in ("union", "union_all"):
            raise QueryError(f"unsupported set operation {self.op!r}")
        if self.query.order or self.query.limit_n is not None:
            raise QueryError(
                "a set-operation branch cannot carry ORDER BY/LIMIT; "
                "they apply to the combined result (put them on the head)"
            )

    def __str__(self) -> str:
        kind = "UNION" if self.op == "union" else "UNION ALL"
        return f"{kind} {self.query.describe()}"


@dataclass(frozen=True)
class Query:
    """Immutable logical query over catalog names."""

    source: str
    joins: tuple[JoinClause, ...] = ()
    where: Expr | None = None
    group_by: tuple[str, ...] = ()
    aggregates: tuple[AggSpec, ...] = ()
    having: Expr | None = None
    select: tuple[SelectItem, ...] = ()
    select_distinct: bool = False
    order: tuple[tuple[str, bool], ...] = ()
    limit_n: int | None = None
    #: Set-operation tail: the head block's result is combined with each
    #: branch in order (FROM…DISTINCT of the head, then the branches, then
    #: the head's ORDER BY/LIMIT on the combined rows).
    set_ops: tuple[SetOpClause, ...] = ()

    # -- builder ----------------------------------------------------------

    @classmethod
    def from_(cls, source: str) -> "Query":
        """Start a query over the named table or view."""
        if not source:
            raise QueryError("query source must be a non-empty name")
        return cls(source=source)

    def join(
        self,
        table: str,
        on: Sequence[tuple[str, str]],
        *,
        how: str = "inner",
    ) -> "Query":
        """Add a join against ``table`` on ``(left_col, right_col)`` pairs."""
        clause = JoinClause(table, tuple((l, r) for l, r in on), how)
        return replace(self, joins=self.joins + (clause,))

    def filter(self, predicate: Expr) -> "Query":
        """AND a predicate into the WHERE clause.

        On a set-operation query the predicate is pushed into *every*
        branch as well as the head: selection distributes over union
        (``σp(A ∪ B) = σp(A) ∪ σp(B)``), so ``filter`` narrows the whole
        result, never just the first branch.
        """
        combined = predicate if self.where is None else And(self.where, predicate)
        set_ops = tuple(
            SetOpClause(clause.op, clause.query.filter(predicate))
            for clause in self.set_ops
        )
        return replace(self, where=combined, set_ops=set_ops)

    def group(self, *columns: str) -> "Query":
        """Set GROUP BY columns."""
        return replace(self, group_by=tuple(columns))

    def agg(self, *specs: AggSpec) -> "Query":
        """Add aggregate outputs (requires or implies grouping)."""
        return replace(self, aggregates=self.aggregates + tuple(specs))

    def having_(self, predicate: Expr) -> "Query":
        """AND a predicate on the aggregate output (HAVING)."""
        combined = predicate if self.having is None else And(self.having, predicate)
        return replace(self, having=combined)

    def project(self, *items: SelectItem) -> "Query":
        """Set the SELECT list (plain names and/or ``(alias, expr)`` pairs)."""
        return replace(self, select=tuple(items))

    def distinct(self) -> "Query":
        """Request duplicate elimination on the final output."""
        return replace(self, select_distinct=True)

    def order_by(self, *keys: str | tuple[str, bool]) -> "Query":
        """Set ORDER BY keys; a bare name sorts ascending."""
        normalized = tuple(
            (k, False) if isinstance(k, str) else (k[0], bool(k[1])) for k in keys
        )
        return replace(self, order=normalized)

    def limit(self, n: int) -> "Query":
        """Keep only the first ``n`` rows."""
        if n < 0:
            raise QueryError("limit must be non-negative")
        return replace(self, limit_n=n)

    def union_with(self, other: "Query", *, all: bool = False) -> "Query":
        """Combine with ``other`` by UNION (default) or UNION ALL.

        Branches combine positionally, like SQL: arity and types must
        agree at execution, and the result carries the head's column
        names. ``other``'s own set-operation tail is flattened into this
        query's (left-associative, matching ``a UNION b UNION c``); its
        ORDER BY/LIMIT, if any, are rejected by :class:`SetOpClause`.
        The head's ORDER BY/LIMIT apply to the combined result.
        """
        op = "union_all" if all else "union"
        tail = other.set_ops
        branch = replace(other, set_ops=())
        return replace(
            self, set_ops=self.set_ops + (SetOpClause(op, branch),) + tail
        )

    # -- introspection ------------------------------------------------------

    @property
    def is_aggregate(self) -> bool:
        """True if this query groups or aggregates."""
        return bool(self.group_by or self.aggregates)

    def referenced_relations(self) -> tuple[str, ...]:
        """Names of every table/view the query reads: FROM, JOINs, and —
        so caching, cycle checks, and state tokens see the whole tree —
        every set-operation branch's relations, in order."""
        out = (self.source,) + tuple(j.table for j in self.joins)
        for clause in self.set_ops:
            out += clause.query.referenced_relations()
        return out

    def blocks(self) -> tuple["Query", ...]:
        """The SELECT blocks a set operation combines: the head without its
        tail, then each branch. A plain query is its own one block."""
        if not self.set_ops:
            return (self,)
        return (replace(self, set_ops=()),) + tuple(c.query for c in self.set_ops)

    def output_names(self) -> tuple[str, ...] | None:
        """Output column names if statically determinable, else ``None``.

        The result is ``None`` only for a bare ``SELECT *`` (no projection,
        no aggregation), whose width depends on the catalog; privacy
        decisions ask :meth:`~repro.relational.catalog.Catalog.output_names`.
        """
        if self.select:
            return tuple(
                item if isinstance(item, str) else item[0] for item in self.select
            )
        if self.is_aggregate:
            return self.group_by + tuple(a.alias for a in self.aggregates)
        return None

    def columns_used(self) -> frozenset[str]:
        """Every column name mentioned anywhere in the query."""
        used: set[str] = set()
        for clause in self.joins:
            for l, r in clause.on:
                used.add(l)
                used.add(r)
        if self.where is not None:
            used.update(self.where.columns())
        used.update(self.group_by)
        for spec in self.aggregates:
            if spec.column is not None:
                used.add(spec.column)
        if self.having is not None:
            used.update(self.having.columns())
        for item in self.select:
            if isinstance(item, str):
                used.add(item)
            else:
                used.update(item[1].columns())
        for colname, _ in self.order:
            used.add(colname)
        for clause in self.set_ops:
            used.update(clause.query.columns_used())
        return frozenset(used)

    def fingerprint(self) -> str:
        """Stable identity of the *normalized* query tree, for plan caching.

        Differs from :meth:`describe` in that top-level WHERE/HAVING
        conjuncts are sorted — ``filter(a).filter(b)`` and
        ``filter(b).filter(a)`` are the same plan (AND is commutative under
        three-valued logic), so they share one cache entry. Everything else
        is rendered positionally; literal values render via ``repr`` so
        ``1``/``1.0``/``True`` stay distinct.

        Memoized per instance: the query tree is frozen, so the fingerprint
        is computed once and stashed on the instance (``dataclasses.replace``
        builds fresh instances, which recompute it).
        """
        cached = self.__dict__.get("_fingerprint_memo")
        if cached is not None:
            return cached

        def norm(predicate: Expr | None) -> str:
            if predicate is None:
                return ""
            return "&".join(sorted(str(c) for c in conjuncts(predicate)))

        parts = [
            "F=" + self.source,
            "J=" + ";".join(
                f"{j.how}:{j.table}:{sorted(j.on)}" for j in self.joins
            ),
            "W=" + norm(self.where),
            "G=" + ",".join(self.group_by),
            "A=" + ";".join(str(a) for a in self.aggregates),
            "H=" + norm(self.having),
            "S=" + ";".join(
                item if isinstance(item, str) else f"{item[0]}<-{item[1]}"
                for item in self.select
            ),
            "D=" + str(int(self.select_distinct)),
            "O=" + ";".join(f"{c}:{int(d)}" for c, d in self.order),
            "L=" + ("" if self.limit_n is None else str(self.limit_n)),
        ]
        if self.set_ops:
            parts.append(
                "U=" + ";".join(
                    f"{clause.op}({clause.query.fingerprint()})"
                    for clause in self.set_ops
                )
            )
        fp = "|".join(parts)
        object.__setattr__(self, "_fingerprint_memo", fp)
        return fp

    def describe(self) -> str:
        """Compact SQL-like rendering for logs and elicitation displays."""
        parts = []
        if self.select:
            sel = ", ".join(
                item if isinstance(item, str) else f"{item[1]} AS {item[0]}"
                for item in self.select
            )
        elif self.is_aggregate:
            sel = ", ".join(
                list(self.group_by) + [str(a) for a in self.aggregates]
            )
        else:
            sel = "*"
        distinct = "DISTINCT " if self.select_distinct else ""
        parts.append(f"SELECT {distinct}{sel}")
        parts.append(f"FROM {self.source}")
        parts.extend(str(j) for j in self.joins)
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append(f"GROUP BY {', '.join(self.group_by)}")
        if self.having is not None:
            parts.append(f"HAVING {self.having}")
        parts.extend(str(clause) for clause in self.set_ops)
        if self.order:
            keys = ", ".join(f"{c}{' DESC' if d else ''}" for c, d in self.order)
            parts.append(f"ORDER BY {keys}")
        if self.limit_n is not None:
            parts.append(f"LIMIT {self.limit_n}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.describe()


def _ensure_select_consistency(query: Query) -> None:
    """Validate that a projection over an aggregate uses only its outputs."""
    if not (query.select and query.is_aggregate):
        return
    available = set(query.group_by) | {a.alias for a in query.aggregates}
    for item in query.select:
        cols = {item} if isinstance(item, str) else set(item[1].columns())
        unknown = cols - available
        if unknown:
            raise QueryError(
                f"SELECT references {sorted(unknown)} which are neither "
                "GROUP BY columns nor aggregate aliases"
            )
