"""Relational algebra operators with provenance propagation.

Each operator is a pure function ``Table → Table`` (or ``Table × Table →
Table``). Lineage (why-provenance) and where-provenance flow through every
operator per the rules of Cui–Widom lineage tracing:

* ``select``/``limit``/``order``/``distinct`` keep each surviving row's
  provenance (distinct unions the provenance of merged duplicates);
* ``project`` keeps lineage, remaps where-provenance through column aliases
  (computed expressions copy nothing, so their where set is the union of the
  inputs' where sets — they *derive from* but are not *copied from*);
* ``join`` merges the two sides' provenance per output row;
* ``aggregate`` gives each group the union of its members' lineage — the
  contributor set whose size an aggregation-threshold PLA constrains.

These are the row reference engine's operators. The production executor
runs them too: for every SELECT core the vector planner declines, and for
DISTINCT, set operations, ORDER BY and LIMIT on top of every core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import QueryError, SchemaError
from repro.relational.expressions import Col, Expr
from repro.relational.schema import Column, Schema
from repro.relational.table import RowProvenance, Table
from repro.relational.types import ColumnType

__all__ = [
    "select",
    "project",
    "extend",
    "join",
    "union",
    "distinct",
    "aggregate",
    "order_by",
    "limit",
    "rename",
    "AggSpec",
    "AGGREGATE_FUNCTIONS",
    "project_plan",
    "aggregate_output_schema",
    "join_frame",
]


def select(table: Table, predicate: Expr, *, name: str | None = None) -> Table:
    """Rows of ``table`` satisfying ``predicate``."""
    missing = predicate.columns() - set(table.schema.names)
    if missing:
        raise QueryError(f"predicate references unknown columns {sorted(missing)}")
    rows: list[tuple[Any, ...]] = []
    provs: list[RowProvenance] = []
    names = table.schema.names
    for row, prov in zip(table.rows, table.provenance):
        if predicate.evaluate(dict(zip(names, row))):
            rows.append(row)
            provs.append(prov)
    return Table.derived(name or table.name, table.schema, rows, provs)


def project_plan(
    in_schema: Schema, columns: Sequence[str | tuple[str, Expr]]
) -> tuple[Schema, list[tuple[str, Expr, bool]]]:
    """Resolve a projection list against ``in_schema``.

    Returns the output schema and ``(alias, expr, is_copy)`` extractors.
    Shared by the row operators and the fused vector kernels so both
    validate and type-infer identically.
    """
    out_cols: list[Column] = []
    extractors: list[tuple[str, Expr, bool]] = []  # (alias, expr, is_copy)
    for spec in columns:
        if isinstance(spec, str):
            out_cols.append(in_schema.column(spec))
            extractors.append((spec, Col(spec), True))
        else:
            alias, expr = spec
            if isinstance(expr, Col):
                src = in_schema.column(expr.name)
                out_cols.append(Column(alias, src.ctype, src.nullable))
                extractors.append((alias, expr, True))
            else:
                out_cols.append(Column(alias, _infer_type(expr, in_schema)))
                extractors.append((alias, expr, False))
    return Schema(out_cols), extractors


def project(
    table: Table,
    columns: Sequence[str | tuple[str, Expr]],
    *,
    name: str | None = None,
) -> Table:
    """Project to plain columns and/or computed ``(alias, expr)`` columns."""
    schema, extractors = project_plan(table.schema, columns)
    rows: list[tuple[Any, ...]] = []
    provs: list[RowProvenance] = []
    names = table.schema.names
    for row, prov in zip(table.rows, table.provenance):
        row_dict = dict(zip(names, row))
        values = []
        where: dict[str, Any] = {}
        for alias, expr, is_copy in extractors:
            values.append(expr.evaluate(row_dict))
            if is_copy:
                assert isinstance(expr, Col)
                where[alias] = prov.where_of(expr.name)
            else:
                derived: set = set()
                for src_col in expr.columns():
                    derived.update(prov.where_of(src_col))
                where[alias] = frozenset(derived)
        rows.append(tuple(values))
        provs.append(RowProvenance(lineage=prov.lineage, where=where))
    return Table.derived(name or table.name, schema, rows, provs)


def extend(
    table: Table,
    additions: Sequence[tuple[str, Expr]],
    *,
    name: str | None = None,
) -> Table:
    """Append computed columns while keeping every existing column."""
    specs: list[str | tuple[str, Expr]] = list(table.schema.names)
    specs.extend(additions)
    return project(table, specs, name=name)


def rename(table: Table, mapping: dict[str, str], *, name: str | None = None) -> Table:
    """Rename columns per ``mapping`` (old→new)."""
    schema = table.schema.rename(mapping)
    provs = []
    new_to_old = {mapping.get(c, c): c for c in table.schema.names}
    for prov in table.provenance:
        provs.append(prov.projected(new_to_old))
    return Table.derived(name or table.name, schema, list(table.rows), provs)


def join_frame(
    left_schema: Schema,
    right_schema: Schema,
    left_name: str,
    right_name: str,
    on: Sequence[tuple[str, str]],
    how: str,
) -> tuple[Schema, set[str], list[int], list[int]]:
    """Validate a join and compute its output frame.

    Returns ``(schema, collisions, left_key_idx, right_key_idx)``. Shared by
    the row operators and the fused vector kernels.
    """
    if how not in ("inner", "left", "right", "full", "cross"):
        raise QueryError(f"unsupported join type {how!r}")
    if how == "cross":
        if on:
            raise QueryError("CROSS JOIN takes no ON equality pairs")
    elif not on:
        raise QueryError("join requires at least one equality pair")
    for lcol, rcol in on:
        left_schema.column(lcol)
        right_schema.column(rcol)

    schema = left_schema.concat(right_schema, disambiguate=(left_name, right_name))
    n_left = len(left_schema)
    if how in ("left", "right", "full"):
        # Columns on the padded side(s) of an outer join become nullable:
        # the right side for LEFT, the left side for RIGHT, both for FULL.
        left_cols = list(schema.columns[:n_left])
        right_cols = list(schema.columns[n_left:])
        if how in ("left", "full"):
            right_cols = [c.as_nullable() for c in right_cols]
        if how in ("right", "full"):
            left_cols = [c.as_nullable() for c in left_cols]
        schema = Schema(left_cols + right_cols)
    collisions = set(left_schema.names) & set(right_schema.names)
    left_key_idx = [left_schema.index_of(lcol) for lcol, _ in on]
    right_key_idx = [right_schema.index_of(rcol) for _, rcol in on]
    return schema, collisions, left_key_idx, right_key_idx


def join(
    left: Table,
    right: Table,
    on: Sequence[tuple[str, str]],
    *,
    how: str = "inner",
    name: str | None = None,
) -> Table:
    """Hash equi-join of ``left`` and ``right`` on ``(left_col, right_col)`` pairs.

    ``how`` is ``"inner"``, ``"left"``, ``"right"``, or ``"full"``. Name
    collisions between the two sides are qualified as ``<table>.<column>``.

    Output order (mirrored exactly by the vector kernels): matched pairs
    in left-major order (left row order, then right insertion order per
    key), then — for LEFT/FULL — each unmatched left row in left order at
    its probe position, then — for RIGHT/FULL — the unmatched right rows in
    right order, padded with NULLs on the left.
    """
    schema, collisions, left_key_idx, right_key_idx = join_frame(
        left.schema, right.schema, left.name, right.name, on, how
    )
    buckets: dict[tuple[Any, ...], list[int]] = {}
    for i, row in enumerate(right.rows):
        key = tuple(row[k] for k in right_key_idx)
        if any(v is None for v in key):
            continue
        buckets.setdefault(key, []).append(i)

    null_left = (None,) * len(left.schema)
    null_right = (None,) * len(right.schema)
    rows: list[tuple[Any, ...]] = []
    provs: list[RowProvenance] = []

    def requalify(prov: RowProvenance, side: Table) -> RowProvenance:
        if not collisions:
            return prov
        where = {
            (f"{side.name}.{c}" if c in collisions else c): refs
            for c, refs in prov.where.items()
        }
        return RowProvenance(lineage=prov.lineage, where=where)

    matched_right: set[int] = set()
    for i, lrow in enumerate(left.rows):
        key = tuple(lrow[k] for k in left_key_idx)
        matches = [] if any(v is None for v in key) else buckets.get(key, [])
        lprov = requalify(left.provenance[i], left)
        if matches:
            matched_right.update(matches)
            for j in matches:
                rows.append(lrow + right.rows[j])
                provs.append(lprov.merged(requalify(right.provenance[j], right)))
        elif how in ("left", "full"):
            rows.append(lrow + null_right)
            provs.append(lprov)
    if how in ("right", "full"):
        for j, rrow in enumerate(right.rows):
            if j not in matched_right:
                rows.append(null_left + rrow)
                provs.append(requalify(right.provenance[j], right))
    return Table.derived(name or f"{left.name}_{right.name}", schema, rows, provs)


def union(first: Table, second: Table, *, name: str | None = None) -> Table:
    """Bag union; schemas must agree on names and types (order included)."""
    if first.schema.names != second.schema.names:
        raise SchemaError(
            f"union schema mismatch: {first.schema.names} vs {second.schema.names}"
        )
    for a, b in zip(first.schema, second.schema):
        if a.ctype is not b.ctype:
            raise SchemaError(f"union type mismatch on column {a.name!r}")
    return Table.derived(
        name or first.name,
        first.schema,
        list(first.rows) + list(second.rows),
        list(first.provenance) + list(second.provenance),
    )


def distinct(table: Table, *, name: str | None = None) -> Table:
    """Duplicate elimination; merged duplicates union their provenance."""
    seen: dict[tuple[Any, ...], int] = {}
    rows: list[tuple[Any, ...]] = []
    provs: list[RowProvenance] = []
    for row, prov in zip(table.rows, table.provenance):
        if row in seen:
            i = seen[row]
            provs[i] = RowProvenance(
                lineage=provs[i].lineage | prov.lineage,
                where={
                    c: provs[i].where_of(c) | prov.where_of(c)
                    for c in table.schema.names
                },
            )
        else:
            seen[row] = len(rows)
            rows.append(row)
            provs.append(prov)
    return Table.derived(name or table.name, table.schema, rows, provs)


# -- aggregation ------------------------------------------------------------


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output: ``func(column) AS alias``.

    ``column`` is ``None`` for ``COUNT(*)``. ``distinct`` applies the
    aggregate over distinct values (``COUNT(DISTINCT col)``).
    """

    func: str
    column: str | None
    alias: str
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise QueryError(f"unknown aggregate function {self.func!r}")
        if self.column is None and self.func != "count":
            raise QueryError(f"{self.func}(*) is not defined; only count(*)")

    def __str__(self) -> str:
        inner = "*" if self.column is None else self.column
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.func.upper()}({inner}) AS {self.alias}"


def _agg_count(values: list[Any]) -> int:
    return len(values)


def _agg_sum(values: list[Any]) -> Any:
    vals = [v for v in values if v is not None]
    return sum(vals) if vals else None


def _agg_avg(values: list[Any]) -> Any:
    vals = [v for v in values if v is not None]
    return sum(vals) / len(vals) if vals else None


def _agg_min(values: list[Any]) -> Any:
    vals = [v for v in values if v is not None]
    return min(vals) if vals else None


def _agg_max(values: list[Any]) -> Any:
    vals = [v for v in values if v is not None]
    return max(vals) if vals else None


AGGREGATE_FUNCTIONS: dict[str, Callable[[list[Any]], Any]] = {
    "count": _agg_count,
    "sum": _agg_sum,
    "avg": _agg_avg,
    "min": _agg_min,
    "max": _agg_max,
}

_AGG_RESULT_TYPE = {
    "count": ColumnType.INT,
    "avg": ColumnType.FLOAT,
}


def aggregate_output_schema(
    in_schema: Schema, group_by: Sequence[str], aggs: Sequence[AggSpec]
) -> Schema:
    """Validate a GROUP BY block and compute its output schema.

    Shared by the row operators and the fused vector kernels.
    """
    for g in group_by:
        in_schema.column(g)
    for spec in aggs:
        if spec.column is not None:
            in_schema.column(spec.column)
    out_cols = [in_schema.column(g) for g in group_by]
    for spec in aggs:
        if spec.func in _AGG_RESULT_TYPE:
            ctype = _AGG_RESULT_TYPE[spec.func]
        elif spec.column is not None:
            ctype = in_schema.column(spec.column).ctype
        else:
            ctype = ColumnType.INT
        out_cols.append(Column(spec.alias, ctype))
    return Schema(out_cols)


def aggregate(
    table: Table,
    group_by: Sequence[str],
    aggs: Sequence[AggSpec],
    *,
    name: str | None = None,
) -> Table:
    """GROUP BY with lineage: each output row's lineage is the union over its group.

    With an empty ``group_by`` the whole input forms one group (even when the
    input is empty, matching SQL's scalar-aggregate semantics).
    """
    schema = aggregate_output_schema(table.schema, group_by, aggs)
    group_idx = [table.schema.index_of(g) for g in group_by]
    groups: dict[tuple[Any, ...], list[int]] = {}
    order: list[tuple[Any, ...]] = []
    for i, row in enumerate(table.rows):
        key = tuple(row[k] for k in group_idx)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(i)
    if not group_by and not groups:
        groups[()] = []
        order.append(())

    rows: list[tuple[Any, ...]] = []
    provs: list[RowProvenance] = []
    for key in order:
        members = groups[key]
        values = list(key)
        lineage: set = set()
        where: dict[str, frozenset] = {}
        for g in group_by:
            refs: set = set()
            for i in members:
                refs.update(table.provenance[i].where_of(g))
            where[g] = frozenset(refs)
        for i in members:
            lineage.update(table.provenance[i].lineage)
        for spec in aggs:
            if spec.column is None:
                col_values: list[Any] = [1] * len(members)
                agg_where: frozenset = frozenset()
            else:
                idx = table.schema.index_of(spec.column)
                col_values = [table.rows[i][idx] for i in members]
                refs = set()
                for i in members:
                    refs.update(table.provenance[i].where_of(spec.column))
                agg_where = frozenset(refs)
            if spec.distinct:
                seen_vals: list[Any] = []
                for v in col_values:
                    if v not in seen_vals:
                        seen_vals.append(v)
                col_values = seen_vals
            values.append(AGGREGATE_FUNCTIONS[spec.func](col_values))
            where[spec.alias] = agg_where
        rows.append(tuple(values))
        provs.append(RowProvenance(lineage=frozenset(lineage), where=where))
    return Table.derived(name or table.name, schema, rows, provs)


def order_by(
    table: Table,
    keys: Sequence[tuple[str, bool]],
    *,
    name: str | None = None,
) -> Table:
    """Stable sort by ``(column, descending)`` keys; NULLs sort last."""
    indices = list(range(len(table.rows)))
    for colname, descending in reversed(keys):
        idx = table.schema.index_of(colname)

        def sort_key(i: int, idx: int = idx) -> tuple[int, Any]:
            v = table.rows[i][idx]
            return (1, None) if v is None else (0, v)

        # NULLs must sort last in both directions, so sort non-NULLs only.
        nones = [i for i in indices if table.rows[i][idx] is None]
        rest = [i for i in indices if table.rows[i][idx] is not None]
        rest.sort(key=sort_key, reverse=descending)
        indices = rest + nones
    return Table.derived(
        name or table.name,
        table.schema,
        [table.rows[i] for i in indices],
        [table.provenance[i] for i in indices],
    )


def limit(table: Table, n: int, *, name: str | None = None) -> Table:
    """First ``n`` rows."""
    if n < 0:
        raise QueryError("limit must be non-negative")
    return Table.derived(
        name or table.name, table.schema, table.rows[:n], table.provenance[:n]
    )


def _infer_type(expr: Expr, schema: Schema) -> ColumnType:
    """Best-effort result type for a computed expression."""
    from repro.relational.expressions import (
        And,
        Arith,
        Case,
        Comparison,
        InList,
        IsNull,
        Lit,
        Not,
        Or,
    )

    if isinstance(expr, Col):
        return schema.column(expr.name).ctype
    if isinstance(expr, Lit):
        if isinstance(expr.value, bool):
            return ColumnType.BOOL
        if isinstance(expr.value, int):
            return ColumnType.INT
        if isinstance(expr.value, float):
            return ColumnType.FLOAT
        return ColumnType.STRING
    if isinstance(expr, (Comparison, And, Or, Not, InList, IsNull)):
        return ColumnType.BOOL
    if isinstance(expr, Arith):
        if expr.op == "/":
            return ColumnType.FLOAT
        left = _infer_type(expr.left, schema)
        right = _infer_type(expr.right, schema)
        if ColumnType.FLOAT in (left, right):
            return ColumnType.FLOAT
        return ColumnType.INT
    if isinstance(expr, Case):
        # Unify the result types of every THEN arm (and ELSE when present;
        # a missing ELSE contributes NULL, which constrains nothing).
        results = list(expr.thens)
        if expr.else_ is not None:
            results.append(expr.else_)
        branch_types = {
            _infer_type(e, schema)
            for e in results
            if not (isinstance(e, Lit) and e.value is None)
        }
        if len(branch_types) == 1:
            return branch_types.pop()
        if branch_types <= {ColumnType.INT, ColumnType.FLOAT}:
            return ColumnType.FLOAT
        return ColumnType.STRING
    return ColumnType.STRING
