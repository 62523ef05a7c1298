"""Column-level dataflow IR: static where-provenance for query trees.

For every output column of a :class:`~repro.relational.query.Query` this
pass computes, *without executing anything*, the set of base-table columns
the value may be copied from (:attr:`ColumnFlow.copied`) and the set it may
be computed from (:attr:`ColumnFlow.derived`) — the static analogue of the
runtime where-provenance the algebra operators propagate. The propagation
rules deliberately mirror :mod:`repro.relational.algebra` operator by
operator:

* plain projection / ``Col`` aliasing keeps a flow intact (a copy stays a
  copy);
* computed expressions *derive from* the union of their inputs' sources;
* joins qualify colliding names exactly like ``Schema.concat`` does;
* aggregation turns the aggregated column's sources into a derivation and
  marks the flow ``aggregated`` (the declassification boundary threshold
  PLAs reason about);
* selection/HAVING/join keys never change a column's flow but do disclose
  the predicate columns, collected in :attr:`QueryFlow.condition_sources`
  (filtering on a value reveals it even when it is projected away).

Soundness contract (checked by the property tests): for every output cell
the runtime where-provenance set is a subset of the static
``copied | derived`` of its column — the static pass over-approximates,
never misses, a flow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import AnalysisError
from repro.relational.catalog import MAX_VIEW_DEPTH, Catalog, joined_names
from repro.relational.expressions import And, Col, Expr, conjuncts, disjuncts
from repro.relational.query import Query

__all__ = ["ColumnFlow", "QueryFlow", "column_flows", "live_predicate_columns"]

EMPTY: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ColumnFlow:
    """Where one output column's values may come from, statically.

    ``copied``/``derived`` hold qualified ``base_table.column`` names.
    ``aggregated`` marks flows that passed through an aggregate function —
    their values summarize many base cells rather than exposing one.
    """

    copied: frozenset[str] = EMPTY
    derived: frozenset[str] = EMPTY
    aggregated: bool = False

    @property
    def sources(self) -> frozenset[str]:
        """Every base column this flow may disclose."""
        return self.copied | self.derived

    def as_derivation(self) -> "ColumnFlow":
        """The same sources, demoted from copies to derivations."""
        return ColumnFlow(
            copied=EMPTY, derived=self.sources, aggregated=self.aggregated
        )

    def merged(self, other: "ColumnFlow") -> "ColumnFlow":
        return ColumnFlow(
            copied=self.copied | other.copied,
            derived=self.derived | other.derived,
            aggregated=self.aggregated or other.aggregated,
        )


@dataclass(frozen=True)
class QueryFlow:
    """The dataflow summary of one query: per-column flows + disclosures."""

    relation: str  # name the intermediate result carries (for qualification)
    columns: tuple[tuple[str, ColumnFlow], ...]
    condition_sources: frozenset[str] = EMPTY  # base cols predicates touch

    def flow_of(self, column: str) -> ColumnFlow:
        for name, flow in self.columns:
            if name == column:
                return flow
        raise AnalysisError(
            f"dataflow: unknown column {column!r} in {self.relation!r} "
            f"(have {[n for n, _ in self.columns]})"
        )

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    def as_dict(self) -> dict[str, ColumnFlow]:
        return dict(self.columns)

    def all_sources(self) -> frozenset[str]:
        """Every base column the query may disclose, outputs and predicates."""
        out: set[str] = set(self.condition_sources)
        for _, flow in self.columns:
            out |= flow.sources
        return frozenset(out)


def column_flows(query: Query, catalog: Catalog) -> QueryFlow:
    """Static dataflow of ``query`` against ``catalog`` (views expanded)."""
    return _flows(query, catalog, depth=0, name=None)


def _resolve(name: str, catalog: Catalog, depth: int) -> QueryFlow:
    if depth > MAX_VIEW_DEPTH:
        raise AnalysisError(f"view nesting deeper than {MAX_VIEW_DEPTH}; cycle?")
    if catalog.is_table(name):
        schema = catalog.table(name).schema
        return QueryFlow(
            relation=name,
            columns=tuple(
                (c, ColumnFlow(copied=frozenset([f"{name}.{c}"])))
                for c in schema.names
            ),
        )
    if catalog.is_view(name):
        view = catalog.view(name)
        return _flows(view.query, catalog, depth=depth + 1, name=name)
    raise AnalysisError(f"dataflow: unknown relation {name!r}")


def _flows(
    query: Query, catalog: Catalog, *, depth: int, name: str | None
) -> QueryFlow:
    current = _resolve(query.source, catalog, depth)
    condition_sources = set(current.condition_sources)

    # FROM/JOIN — mirror algebra.join's Schema.concat qualification.
    for clause in query.joins:
        right = _resolve(clause.table, catalog, depth)
        condition_sources |= right.condition_sources
        left_cols = current.as_dict()
        right_cols = right.as_dict()
        for lcol, rcol in clause.on:
            condition_sources |= _lookup(left_cols, lcol, current.relation).sources
            condition_sources |= _lookup(right_cols, rcol, right.relation).sources
        names = joined_names(
            current.names(), current.relation, right.names(), right.relation
        )
        flows = [flow for _, flow in current.columns + right.columns]
        current = QueryFlow(
            relation=f"{current.relation}_{right.relation}",
            columns=tuple(zip(names, flows)),
        )

    columns = current.as_dict()

    # WHERE — discloses predicate columns, flows unchanged. Branches the
    # solver proves dead against the sibling conjuncts disclose nothing.
    if query.where is not None:
        for col in live_predicate_columns(query.where):
            condition_sources |= _lookup(columns, col, current.relation).sources

    # GROUP BY / aggregates — mirror algebra.aggregate.
    if query.is_aggregate:
        out: list[tuple[str, ColumnFlow]] = []
        for g in query.group_by:
            out.append((g, _lookup(columns, g, current.relation)))
        for spec in query.aggregates:
            if spec.column is None:
                flow = ColumnFlow(aggregated=True)
            else:
                inner = _lookup(columns, spec.column, current.relation)
                flow = replace(inner.as_derivation(), aggregated=True)
            out.append((spec.alias, flow))
        columns = dict(out)
        if query.having is not None:
            for col in live_predicate_columns(query.having):
                condition_sources |= _lookup(columns, col, current.relation).sources

    # SELECT projection — mirror algebra.project's copy/derive split.
    if query.select:
        out = []
        for item in query.select:
            if isinstance(item, str):
                out.append((item, _lookup(columns, item, current.relation)))
            else:
                alias, expr = item
                if isinstance(expr, Col):
                    out.append((alias, _lookup(columns, expr.name, current.relation)))
                else:
                    flow = ColumnFlow()
                    for col in expr.columns():
                        flow = flow.merged(
                            _lookup(columns, col, current.relation).as_derivation()
                        )
                    out.append((alias, flow))
        columns = dict(out)

    # Set operations — a value in output column i may come from any branch's
    # column i (positional, like the executor's _conform), so each flow is
    # the union of the head's and every branch's. Copies stay copies: a
    # value copied verbatim from either side's base column is still a copy.
    if query.set_ops:
        merged_cols = list(columns.items())
        for clause in query.set_ops:
            branch = _flows(clause.query, catalog, depth=depth, name=None)
            if len(branch.columns) != len(merged_cols):
                raise AnalysisError(
                    "dataflow: set operation arity mismatch: head has "
                    f"{len(merged_cols)} column(s), branch over "
                    f"{clause.query.source!r} has {len(branch.columns)}"
                )
            condition_sources |= branch.condition_sources
            merged_cols = [
                (col, flow.merged(bflow))
                for (col, flow), (_, bflow) in zip(merged_cols, branch.columns)
            ]
        columns = dict(merged_cols)

    # DISTINCT/ORDER BY/LIMIT keep flows intact (distinct unions provenance
    # of duplicate rows, which the static per-column union already covers).
    return QueryFlow(
        relation=name or current.relation,
        columns=tuple(columns.items()),
        condition_sources=frozenset(condition_sources),
    )


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


def _lookup(columns: dict[str, ColumnFlow], name: str, relation: str) -> ColumnFlow:
    try:
        return columns[name]
    except KeyError:
        raise AnalysisError(
            f"dataflow: unknown column {name!r} in {relation!r} "
            f"(have {sorted(columns)})"
        ) from None
