"""Static dataflow of a query for lint and ingest: the catalog's column
flows, plus the base columns the query's predicates disclose.

Each output's :class:`ColumnFlow` is :meth:`Catalog.sources
<repro.relational.catalog.Catalog.sources>`, the one static
where-provenance walk every privacy decision reads: the base columns its
values may be copied or computed from, and whether an aggregate summarized
them (``MIN``/``MAX`` copy, ``COUNT``/``SUM``/``AVG`` derive).

Only lint and ingest need what this module adds. Selection, HAVING and
join keys never change a column's flow, but they disclose the columns they
test, collected in :attr:`QueryFlow.condition_sources` over the query and
every view it reads (filtering on a value reveals it even when it is
projected away): each ON column, and the WHERE and HAVING columns of the
branches the solver cannot prove dead (:func:`live_predicate_columns`).

Soundness contract (checked by the property tests): for every output cell
the runtime where-provenance set is a subset of the static
``copied | derived`` of its column: the static pass over-approximates,
never misses, a flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import AnalysisError, CatalogError
from repro.relational.catalog import Catalog, ColumnFlow
from repro.relational.expressions import And, Expr, conjuncts, disjuncts
from repro.relational.query import Query

__all__ = [
    "ColumnFlow", "QueryFlow", "column_flows", "live_predicate_columns", "qualified"
]


@dataclass(frozen=True)
class QueryFlow:
    """The dataflow summary of one query: per-column flows + disclosures."""

    columns: tuple[tuple[str, ColumnFlow], ...]
    condition_sources: frozenset[tuple[str, str]]  # base cols predicates touch

    def flow_of(self, column: str) -> ColumnFlow:
        for name, flow in self.columns:
            if name == column:
                return flow
        raise AnalysisError(
            f"dataflow: unknown column {column!r} (have {list(self.names())})"
        )

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)


def column_flows(query: Query, catalog: Catalog) -> QueryFlow:
    """Static dataflow of ``query`` against ``catalog`` (views expanded).

    A query the catalog cannot resolve raises :class:`AnalysisError`.
    """
    try:
        columns = catalog.sources(query)
        conditions: set[tuple[str, str]] = set()
        pending, seen = [query], set()
        while pending:
            for block in pending.pop().blocks():
                scope = catalog.resolve(block)
                for flow in scope.keys:
                    conditions |= flow.sources
                for predicate, within in (
                    (block.where, scope.joined),
                    (block.having, scope.grouped),
                ):
                    if predicate is not None:
                        for column in live_predicate_columns(predicate):
                            conditions |= within[column].sources
                for relation in (block.source, *(c.table for c in block.joins)):
                    if catalog.is_view(relation) and relation not in seen:
                        seen.add(relation)
                        pending.append(catalog.view(relation).query)
    except CatalogError as exc:
        raise AnalysisError(f"dataflow: {exc}") from exc
    return QueryFlow(columns, frozenset(conditions))


def qualified(pairs: Iterable[tuple[str, str]]) -> list[str]:
    """Base ``(table, column)`` pairs as sorted ``table.column`` names, the
    form :class:`~repro.analysis.taint.SensitivityMap` and ingest's lineage
    read."""
    return sorted(f"{table}.{column}" for table, column in pairs)


#: Solver budget for dead-branch pruning: predicates are small and the
#: dataflow pass runs per report, so give up (= keep the branch) early.
_PRUNE_SOLVER_BUDGET = 20_000


def live_predicate_columns(predicate: Expr) -> frozenset[str]:
    """Columns ``predicate`` can actually consult, dead OR branches pruned.

    A disjunctive branch of one top-level conjunct is *dead* when it can
    never hold together with the remaining conjuncts (solver-proved
    disjointness under three-valued logic). A row the filter keeps then
    owes its membership to a sibling branch — ``True OR x`` is ``True``
    regardless of ``x`` — so the dead branch's columns disclose nothing
    about kept rows. An undecided solver call keeps the branch: the result
    only shrinks on proof, preserving the over-approximation contract
    (every genuinely consulted column is always reported).
    """
    from repro.verify.solver import overlap

    parts = list(conjuncts(predicate))
    live: set[str] = set()
    for i, conjunct in enumerate(parts):
        branches = list(disjuncts(conjunct))
        rest = [c for j, c in enumerate(parts) if j != i]
        if len(branches) == 1 or not rest:
            live |= conjunct.columns()
            continue
        context: Expr = rest[0]
        for extra in rest[1:]:
            context = And(context, extra)
        for branch in branches:
            result = overlap(branch, context, budget=_PRUNE_SOLVER_BUDGET)
            if not result.is_unsat():
                live |= branch.columns()
    return frozenset(live)

