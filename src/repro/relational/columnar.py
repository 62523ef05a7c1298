"""Columnar (batch-at-a-time) execution path with full provenance parity.

The row-store executor in :mod:`repro.relational.engine` is the *reference
implementation*: simple, row-at-a-time, and the semantics oracle for PLA
auditing. This module is the production path: tables are decomposed into
per-column vectors, predicates and computed projections are evaluated with
the batch kernels of :mod:`repro.relational.expressions`, joins probe hash
buckets built from key vectors, and select→project (and join→filter→project)
pipelines are fused so row provenance is materialized exactly once.

Two invariants the differential suite (``tests/test_engine_differential.py``)
enforces:

* **bag and order equality** — every operator emits rows in exactly the
  order the reference engine does, so results are comparable list-wise;
* **provenance equality** — why-lineage and per-cell where-provenance are
  value-identical to the reference engine's, which is what keeps PLA
  threshold checks and audits independent of the execution path.

Provenance is the part that stays row-shaped: :class:`RowProvenance` values
are per-row objects, so operators that must *rebuild* them (project, join,
aggregate) pay a per-row cost even on the columnar path. The speedup comes
from (a) replacing per-row dict construction and recursive expression
interpretation with C-level batch primitives (``zip``, ``compress``,
``map``, ``frozenset.union``, ``dict(zip(...))``) and (b) *fusion*: a
``JOIN … WHERE … SELECT`` pipeline builds one provenance object per output
row instead of one per operator per row.
"""

from __future__ import annotations

import weakref
from itertools import compress
from typing import Any, Callable, Sequence

from repro.errors import QueryError, SchemaError
from repro.relational.algebra import (
    AGGREGATE_FUNCTIONS,
    AggSpec,
    aggregate_output_schema,
    join_frame,
    project_plan,
)
from repro.relational.catalog import MAX_VIEW_DEPTH, Catalog
from repro.relational.expressions import Col, Expr
from repro.relational.query import Query, _ensure_select_consistency
from repro.relational.schema import Column, Schema
from repro.relational.table import RowProvenance, Table
from repro.relational.vector import try_vector_core

__all__ = ["ColumnarTable", "execute_columnar"]

_EMPTY_REFS: frozenset = frozenset()
_union = frozenset().union

# Base tables are transposed once per (identity, data_version) and reused
# across executions — the columnar analogue of keeping a column store warm.
_transposed: "weakref.WeakKeyDictionary[Table, tuple[int, int, ColumnarTable]]"
_transposed = weakref.WeakKeyDictionary()


class ColumnarTable:
    """A table decomposed into per-column value vectors.

    ``columns[i]`` holds the values of schema column ``i`` across all rows;
    ``provenance[j]`` is row ``j``'s provenance. Column vectors are never
    mutated after construction, so operators may alias them freely (a
    projection that copies a column shares the input vector).
    """

    __slots__ = ("name", "schema", "provider", "columns", "provenance", "_pcache")

    def __init__(
        self,
        name: str,
        schema: Schema,
        columns: list[list[Any]],
        provenance: Sequence[RowProvenance],
        *,
        provider: str = "derived",
    ) -> None:
        self.name = name
        self.schema = schema
        self.provider = provider
        self.columns = columns
        self.provenance = provenance
        # Lazily extracted provenance columns (lineage vector, per-column
        # where-ref vectors). Provenance is immutable, so wrappers sharing
        # ``provenance`` share this cache too (see ``_resolve``).
        self._pcache: dict[Any, list] = {}

    @property
    def n_rows(self) -> int:
        return len(self.provenance)

    def env(self) -> dict[str, list[Any]]:
        """Column name → vector mapping for batch expression evaluation."""
        return dict(zip(self.schema.names, self.columns))

    def lineage_vector(self) -> list[frozenset]:
        """Per-row why-lineage, extracted once and cached."""
        vec = self._pcache.get("lineage")
        if vec is None:
            vec = self._pcache["lineage"] = [p.lineage for p in self.provenance]
        return vec

    def where_vector(self, column: str) -> list[frozenset]:
        """Per-row where-refs of ``column``, extracted once and cached.

        Provenance is the columnar table's hidden extra columns; extracting
        them into vectors makes projection/join/aggregate provenance a pure
        gather instead of 100k dict probes per execution.
        """
        key = ("w", column)
        vec = self._pcache.get(key)
        if vec is None:
            vec = self._pcache[key] = _build_where_vector(self.provenance, column)
        return vec

    @classmethod
    def from_table(cls, table: Table) -> "ColumnarTable":
        """Transpose a row-store table; cached per (table, data_version)."""
        cached = _transposed.get(table)
        token = (table.data_version, len(table.rows))
        if cached is not None and cached[:2] == token:
            return cached[2]
        if table.rows:
            columns = [list(col) for col in zip(*table.rows)]
        else:
            columns = [[] for _ in table.schema]
        ct = cls(
            table.name,
            table.schema,
            columns,
            table.provenance,
            provider=table.provider,
        )
        try:
            _transposed[table] = (*token, ct)
        except TypeError:  # pragma: no cover - non-weakrefable Table subclass
            pass
        return ct

    @classmethod
    def from_rows(
        cls,
        name: str,
        schema: Schema,
        rows: Sequence[tuple[Any, ...]],
        provenance: Sequence[RowProvenance],
        *,
        provider: str = "derived",
    ) -> "ColumnarTable":
        if rows:
            columns = [list(col) for col in zip(*rows)]
        else:
            columns = [[] for _ in schema]
        return cls(name, schema, columns, provenance, provider=provider)

    def to_table(self, name: str | None = None) -> Table:
        """Materialize back into a row-store :class:`Table`."""
        if self.columns and self.columns[0]:
            rows = list(zip(*self.columns))
        else:
            rows = [() for _ in self.provenance] if not self.columns else []
        provenance = self.provenance
        if not getattr(provenance, "lazy_provenance", False):
            provenance = list(provenance)
        return Table.derived(
            name or self.name,
            self.schema,
            rows,
            provenance,
            provider=self.provider,
        )

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnarTable({self.name!r}, {self.n_rows} rows, "
            f"schema={self.schema.describe()})"
        )


# ---------------------------------------------------------------------------
# Provenance vector kernels
# ---------------------------------------------------------------------------


def _build_where_vector(
    provenance: Sequence[RowProvenance], column: str
) -> list[frozenset]:
    """Per-row where-refs of one column, extracted in a single pass."""
    try:
        return [p.where[column] for p in provenance]
    except KeyError:
        E = _EMPTY_REFS
        return [p.where.get(column, E) for p in provenance]


def _assemble(
    aliases: tuple[str, ...],
    vectors: list[list[frozenset]],
    lineages: Sequence[frozenset],
) -> list[RowProvenance]:
    """Zip per-alias where vectors into per-row provenance objects.

    This is the single place output provenance gets materialized, and the
    hard floor of provenance-preserving execution: one dict and one
    :class:`RowProvenance` per output row. Narrow projections get unrolled
    dict displays (measurably faster than ``dict(zip(...))``); everything
    else stays in C via ``zip``/``map``.
    """
    make = RowProvenance.make
    if len(vectors) == 1:
        (a1,) = aliases
        return [make(l, {a1: x}) for l, x in zip(lineages, vectors[0])]
    if len(vectors) == 2:
        a1, a2 = aliases
        return [
            make(l, {a1: x, a2: y}) for l, x, y in zip(lineages, *vectors)
        ]
    if len(vectors) == 3:
        a1, a2, a3 = aliases
        return [
            make(l, {a1: x, a2: y, a3: z})
            for l, x, y, z in zip(lineages, *vectors)
        ]
    if not vectors:
        return [make(l, {}) for l in lineages]
    wheres = [dict(zip(aliases, vals)) for vals in zip(*vectors)]
    return list(map(make, lineages, wheres))


def _proj_vectors(
    get_vec: Callable[[str], list[frozenset]],
    extractors: Sequence[tuple[str, Expr, bool]],
    n: int,
) -> list[list[frozenset]]:
    """Per-alias where vectors for a projection, mirroring ``algebra.project``:
    copied columns keep their refs; computed columns union their inputs'."""
    vectors: list[list[frozenset]] = []
    for alias, expr, is_copy in extractors:
        if is_copy:
            assert isinstance(expr, Col)
            vectors.append(get_vec(expr.name))
        else:
            cols = tuple(expr.columns())
            if not cols:
                vectors.append([_EMPTY_REFS] * n)
            elif len(cols) == 1:
                vectors.append(get_vec(cols[0]))
            else:
                per_col = [get_vec(c) for c in cols]
                vectors.append([_union(*refs) for refs in zip(*per_col)])
    return vectors


# ---------------------------------------------------------------------------
# Operators (each mirrors its algebra.py counterpart exactly)
# ---------------------------------------------------------------------------


def _truth_flags(
    predicate: Expr, schema: Schema, env: dict[str, list[Any]], n: int
) -> list[bool]:
    missing = predicate.columns() - set(schema.names)
    if missing:
        raise QueryError(f"predicate references unknown columns {sorted(missing)}")
    mask = predicate.evaluate_batch(env, n)
    # Same polarity as the row engine's ``if predicate.evaluate(...)``:
    # UNKNOWN (None) and falsy values exclude the row.
    return list(map(bool, mask))


def select_c(
    table: ColumnarTable, predicate: Expr, *, name: str | None = None
) -> ColumnarTable:
    """Batch filter; keeps rows whose predicate is definitely true."""
    flags = _truth_flags(predicate, table.schema, table.env(), table.n_rows)
    columns = [list(compress(col, flags)) for col in table.columns]
    provs = list(compress(table.provenance, flags))
    return ColumnarTable(name or table.name, table.schema, columns, provs)


def project_c(
    table: ColumnarTable,
    columns: Sequence[str | tuple[str, Expr]],
    *,
    name: str | None = None,
) -> ColumnarTable:
    """Batch projection with where-provenance remapping."""
    schema, extractors = project_plan(table.schema, columns)
    env = table.env()
    n = table.n_rows
    out_columns: list[list[Any]] = []
    for alias, expr, is_copy in extractors:
        if is_copy:
            assert isinstance(expr, Col)
            out_columns.append(env[expr.name])
        else:
            out_columns.append(expr.evaluate_batch(env, n))
    aliases = tuple(alias for alias, _, _ in extractors)
    vectors = _proj_vectors(table.where_vector, extractors, n)
    provs = _assemble(aliases, vectors, table.lineage_vector())
    return ColumnarTable(name or table.name, schema, out_columns, provs)


def select_project_c(
    table: ColumnarTable,
    predicate: Expr,
    columns: Sequence[str | tuple[str, Expr]],
    *,
    name: str | None = None,
) -> ColumnarTable:
    """Fused σπ: filter and project in one pass without materializing the
    intermediate relation — only columns the projection needs are gathered."""
    flags = _truth_flags(predicate, table.schema, table.env(), table.n_rows)
    schema, extractors = project_plan(table.schema, columns)
    needed: set[str] = set()
    for _, expr, _ in extractors:
        needed.update(expr.columns())
    env = table.env()
    filtered_env = {c: list(compress(env[c], flags)) for c in needed if c in env}
    n = sum(flags)
    out_columns: list[list[Any]] = []
    for alias, expr, is_copy in extractors:
        if is_copy:
            assert isinstance(expr, Col)
            out_columns.append(filtered_env[expr.name])
        else:
            out_columns.append(expr.evaluate_batch(filtered_env, n))
    aliases = tuple(alias for alias, _, _ in extractors)
    vectors = _proj_vectors(
        lambda c: list(compress(table.where_vector(c), flags)), extractors, n
    )
    provs = _assemble(
        aliases, vectors, list(compress(table.lineage_vector(), flags))
    )
    return ColumnarTable(name or table.name, schema, out_columns, provs)


def _probe(
    left: ColumnarTable,
    right: ColumnarTable,
    left_key_idx: list[int],
    right_key_idx: list[int],
    how: str,
) -> tuple[list[int], list[int], bool, bool]:
    """Hash-probe phase: output row index pairs ``(left_i, right_j)``.

    ``right_j == -1`` marks an unmatched left row (LEFT/FULL);
    ``left_i == -1`` marks an unmatched right row (RIGHT/FULL). Output
    order matches the reference engine: matched pairs in left order with
    bucket (right insertion) order per key, unmatched left rows inline at
    their probe position, then unmatched right rows in right order.
    Returns ``(out_li, out_rj, has_lmiss, has_rmiss)`` where the flags say
    whether a ``-1`` occurs in ``out_li`` / ``out_rj`` respectively.
    """
    if how == "cross":
        # Cartesian product in left-major order; zip(*()) would yield no
        # keys at all, so the empty-key case is handled explicitly here.
        nl, nr = left.n_rows, right.n_rows
        cross_li = [i for i in range(nl) for _ in range(nr)]
        cross_rj = list(range(nr)) * nl
        return cross_li, cross_rj, False, False

    buckets: dict[tuple[Any, ...], list[int]] = {}
    right_keys = zip(*(right.columns[k] for k in right_key_idx))
    for j, key in enumerate(right_keys):
        if None in key:
            continue
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [j]
        else:
            bucket.append(j)

    out_li: list[int] = []
    out_rj: list[int] = []
    has_lmiss = False
    has_rmiss = False
    bucket_get = buckets.get
    left_keys = zip(*(left.columns[k] for k in left_key_idx))
    if how == "inner":
        for i, key in enumerate(left_keys):
            if None in key:
                continue
            matches = bucket_get(key)
            if matches:
                out_li.extend([i] * len(matches))
                out_rj.extend(matches)
    elif how == "left":
        for i, key in enumerate(left_keys):
            matches = None if None in key else bucket_get(key)
            if matches:
                out_li.extend([i] * len(matches))
                out_rj.extend(matches)
            else:
                out_li.append(i)
                out_rj.append(-1)
                has_rmiss = True
    else:  # right / full outer
        matched_right: set[int] = set()
        for i, key in enumerate(left_keys):
            matches = None if None in key else bucket_get(key)
            if matches:
                matched_right.update(matches)
                out_li.extend([i] * len(matches))
                out_rj.extend(matches)
            elif how == "full":
                out_li.append(i)
                out_rj.append(-1)
                has_rmiss = True
        for j in range(right.n_rows):
            if j not in matched_right:
                out_li.append(-1)
                out_rj.append(j)
                has_lmiss = True
    return out_li, out_rj, has_lmiss, has_rmiss


def _joined_lineages(
    left: ColumnarTable,
    right: ColumnarTable,
    out_li: list[int],
    out_rj: list[int],
    has_lmiss: bool,
    has_rmiss: bool,
) -> list[frozenset]:
    ll = left.lineage_vector()
    rl = right.lineage_vector()
    if has_lmiss or has_rmiss:
        return [
            rl[j]
            if i < 0
            else (ll[i] if j < 0 else ll[i] | rl[j])
            for i, j in zip(out_li, out_rj)
        ]
    return [ll[i] | rl[j] for i, j in zip(out_li, out_rj)]


def join_c(
    left: ColumnarTable,
    right: ColumnarTable,
    on: Sequence[tuple[str, str]],
    *,
    how: str = "inner",
    name: str | None = None,
) -> ColumnarTable:
    """Hash equi-join over key vectors (inner, left, right, or full outer)."""
    schema, collisions, left_key_idx, right_key_idx = join_frame(
        left.schema, right.schema, left.name, right.name, on, how
    )
    out_li, out_rj, has_lmiss, has_rmiss = _probe(
        left, right, left_key_idx, right_key_idx, how
    )

    columns: list[list[Any]] = []
    if has_lmiss:
        columns.extend(
            [col[i] if i >= 0 else None for i in out_li] for col in left.columns
        )
    else:
        columns.extend([col[i] for i in out_li] for col in left.columns)
    if has_rmiss:
        columns.extend(
            [col[j] if j >= 0 else None for j in out_rj] for col in right.columns
        )
    else:
        columns.extend([col[j] for j in out_rj] for col in right.columns)

    # Output where-provenance: per output column, gather the source side's
    # refs (collision-qualified names key the same refs the row engine's
    # per-row requalification would produce).
    aliases: list[str] = []
    vectors: list[list[frozenset]] = []
    E = _EMPTY_REFS
    for c in left.schema.names:
        aliases.append(f"{left.name}.{c}" if c in collisions else c)
        lvec = left.where_vector(c)
        if has_lmiss:
            vectors.append([lvec[i] if i >= 0 else E for i in out_li])
        else:
            vectors.append([lvec[i] for i in out_li])
    for c in right.schema.names:
        aliases.append(f"{right.name}.{c}" if c in collisions else c)
        rvec = right.where_vector(c)
        if has_rmiss:
            vectors.append([rvec[j] if j >= 0 else E for j in out_rj])
        else:
            vectors.append([rvec[j] for j in out_rj])
    lineages = _joined_lineages(left, right, out_li, out_rj, has_lmiss, has_rmiss)
    provs = _assemble(tuple(aliases), vectors, lineages)

    # The vector path assumes every input where dict keys all of its side's
    # schema columns, which holds for everything the engine produces except
    # outer-join miss rows (the reference keeps only the present side's
    # keys). Rebuild exactly those rows — and any row sourced from a partial
    # input dict — the way the reference does: requalify items, then merge.
    n_lcols = len(left.schema.names)
    n_rcols = len(right.schema.names)
    lpartial = {
        i for i, p in enumerate(left.provenance) if len(p.where) != n_lcols
    }
    rpartial = {
        j for j, p in enumerate(right.provenance) if len(p.where) != n_rcols
    }

    def requalified(where: dict, side_name: str) -> dict:
        if not collisions:
            return dict(where)
        return {
            (f"{side_name}.{c}" if c in collisions else c): refs
            for c, refs in where.items()
        }

    if has_lmiss or has_rmiss or lpartial or rpartial:
        make = RowProvenance.make
        for idx, (i, j) in enumerate(zip(out_li, out_rj)):
            if i < 0 or j < 0 or i in lpartial or j in rpartial:
                w = (
                    requalified(left.provenance[i].where, left.name)
                    if i >= 0
                    else {}
                )
                if j >= 0:
                    w.update(requalified(right.provenance[j].where, right.name))
                provs[idx] = make(provs[idx].lineage, w)
    return ColumnarTable(name or f"{left.name}_{right.name}", schema, columns, provs)


def join_filter_project_c(
    left: ColumnarTable,
    right: ColumnarTable,
    on: Sequence[tuple[str, str]],
    how: str,
    predicate: Expr | None,
    columns: Sequence[str | tuple[str, Expr]],
) -> ColumnarTable:
    """Fused join → (filter) → project.

    The join's merged provenance is never materialized: after probing, only
    the columns the predicate and projection actually read are gathered, and
    exactly one provenance object per surviving output row is built, with
    where-refs pulled straight from the source sides.
    """
    schema, collisions, left_key_idx, right_key_idx = join_frame(
        left.schema, right.schema, left.name, right.name, on, how
    )
    out_li, out_rj, has_lmiss, has_rmiss = _probe(
        left, right, left_key_idx, right_key_idx, how
    )
    n = len(out_li)

    # Output column name → (side table, source column index/name, is_left).
    side_of: dict[str, tuple[ColumnarTable, int, str, bool]] = {}
    for idx, c in enumerate(left.schema.names):
        out = f"{left.name}.{c}" if c in collisions else c
        side_of[out] = (left, idx, c, True)
    for idx, c in enumerate(right.schema.names):
        out = f"{right.name}.{c}" if c in collisions else c
        side_of[out] = (right, idx, c, False)

    def gather(output_name: str) -> list[Any]:
        side, idx, _, is_left = side_of[output_name]
        col = side.columns[idx]
        if is_left:
            if has_lmiss:
                return [col[i] if i >= 0 else None for i in out_li]
            return [col[i] for i in out_li]
        if has_rmiss:
            return [col[j] if j >= 0 else None for j in out_rj]
        return [col[j] for j in out_rj]

    # The reference engine filters the joined relation before projecting, so
    # predicate errors (validation and evaluation alike) must surface before
    # any projection-list validation.
    if predicate is not None:
        missing = predicate.columns() - set(schema.names)
        if missing:
            raise QueryError(
                f"predicate references unknown columns {sorted(missing)}"
            )
        pred_env = {c: gather(c) for c in predicate.columns()}
        flags = list(map(bool, predicate.evaluate_batch(pred_env, n)))
        out_li = list(compress(out_li, flags))
        out_rj = list(compress(out_rj, flags))
        has_lmiss = has_lmiss and -1 in out_li
        has_rmiss = has_rmiss and -1 in out_rj
        n = len(out_li)

    sp_schema, extractors = project_plan(schema, columns)
    needed: set[str] = set()
    for _, expr, _ in extractors:
        needed |= expr.columns()
    env = {c: gather(c) for c in needed if c in side_of}

    out_columns: list[list[Any]] = []
    for alias, expr, is_copy in extractors:
        if is_copy:
            assert isinstance(expr, Col)
            out_columns.append(env[expr.name])
        else:
            out_columns.append(expr.evaluate_batch(env, n))

    # Provenance: one where vector per projected alias, gathered per side.
    E = _EMPTY_REFS

    def where_vec(output_name: str) -> list[frozenset]:
        side, _, orig, is_left = side_of[output_name]
        svec = side.where_vector(orig)
        if is_left:
            if has_lmiss:
                return [svec[i] if i >= 0 else E for i in out_li]
            return [svec[i] for i in out_li]
        if has_rmiss:
            return [svec[j] if j >= 0 else E for j in out_rj]
        return [svec[j] for j in out_rj]

    aliases = tuple(alias for alias, _, _ in extractors)
    vectors: list[list[frozenset]] = []
    for alias, expr, is_copy in extractors:
        if is_copy:
            assert isinstance(expr, Col)
            vectors.append(where_vec(expr.name))
        else:
            cols = tuple(expr.columns())
            if not cols:
                vectors.append([E] * n)
            elif len(cols) == 1:
                vectors.append(where_vec(cols[0]))
            else:
                per_col = [where_vec(c) for c in cols]
                vectors.append([_union(*refs) for refs in zip(*per_col)])
    lineages = _joined_lineages(
        left, right, out_li, out_rj, has_lmiss, has_rmiss
    )
    provs = _assemble(aliases, vectors, lineages)
    return ColumnarTable(
        f"{left.name}_{right.name}", sp_schema, out_columns, provs
    )


def aggregate_c(
    table: ColumnarTable,
    group_by: Sequence[str],
    aggs: Sequence[AggSpec],
    *,
    name: str | None = None,
) -> ColumnarTable:
    """GROUP BY over key vectors; per-group unions via C-level bulk calls."""
    schema = aggregate_output_schema(table.schema, group_by, aggs)
    group_idx = [table.schema.index_of(g) for g in group_by]
    n = table.n_rows

    # Group members in first-occurrence order (same as the reference).
    groups: dict[Any, list[int]] = {}
    order: list[Any] = []
    scalar_keys = len(group_idx) == 1
    if scalar_keys:
        for i, v in enumerate(table.columns[group_idx[0]]):
            members = groups.get(v)
            if members is None:
                groups[v] = [i]
                order.append(v)
            else:
                members.append(i)
    elif group_idx:
        keys = zip(*(table.columns[k] for k in group_idx))
        for i, key in enumerate(keys):
            members = groups.get(key)
            if members is None:
                groups[key] = [i]
                order.append(key)
            else:
                members.append(i)
    else:
        groups[()] = list(range(n))
        order.append(())

    lineage_vec = table.lineage_vector()
    group_where = {g: table.where_vector(g) for g in group_by}
    agg_where = {
        spec.column: table.where_vector(spec.column)
        for spec in aggs
        if spec.column is not None
    }
    agg_cols = {
        spec.column: table.columns[table.schema.index_of(spec.column)]
        for spec in aggs
        if spec.column is not None
    }

    out_rows: list[tuple[Any, ...]] = []
    provs: list[RowProvenance] = []
    make = RowProvenance.make
    for key in order:
        members = groups[key]
        values = [key] if scalar_keys else list(key)
        where: dict[str, frozenset] = {}
        for g in group_by:
            vec = group_where[g]
            where[g] = _union(*map(vec.__getitem__, members))
        lineage = _union(*map(lineage_vec.__getitem__, members))
        for spec in aggs:
            if spec.column is None:
                col_values: list[Any] = [1] * len(members)
                refs: frozenset = _EMPTY_REFS
            else:
                col_values = list(map(agg_cols[spec.column].__getitem__, members))
                refs = _union(*map(agg_where[spec.column].__getitem__, members))
            if spec.distinct:
                col_values = _distinct_values(col_values)
            values.append(AGGREGATE_FUNCTIONS[spec.func](col_values))
            where[spec.alias] = refs
        out_rows.append(tuple(values))
        provs.append(make(lineage, where))
    return ColumnarTable.from_rows(name or table.name, schema, out_rows, provs)


def _distinct_values(values: list[Any]) -> list[Any]:
    """First-occurrence dedup, value-equal to the reference list scan."""
    try:
        return list(dict.fromkeys(values))
    except TypeError:  # unhashable values: the reference O(n²) scan
        seen: list[Any] = []
        for v in values:
            if v not in seen:
                seen.append(v)
        return seen


def distinct_c(table: ColumnarTable, *, name: str | None = None) -> ColumnarTable:
    """Duplicate elimination; merged duplicates union their provenance."""
    if table.columns and table.columns[0]:
        rows: list[tuple[Any, ...]] = list(zip(*table.columns))
    else:
        rows = [() for _ in table.provenance] if not table.columns else []
    names = table.schema.names
    seen: dict[tuple[Any, ...], int] = {}
    out_rows: list[tuple[Any, ...]] = []
    provs: list[RowProvenance] = []
    for row, prov in zip(rows, table.provenance):
        if row in seen:
            i = seen[row]
            provs[i] = RowProvenance.make(
                provs[i].lineage | prov.lineage,
                {c: provs[i].where_of(c) | prov.where_of(c) for c in names},
            )
        else:
            seen[row] = len(out_rows)
            out_rows.append(row)
            provs.append(prov)
    return ColumnarTable.from_rows(name or table.name, table.schema, out_rows, provs)


def order_by_c(
    table: ColumnarTable,
    keys: Sequence[tuple[str, bool]],
    *,
    name: str | None = None,
) -> ColumnarTable:
    """Stable multi-key sort over column vectors; NULLs last."""
    indices = list(range(table.n_rows))
    for colname, descending in reversed(keys):
        col = table.columns[table.schema.index_of(colname)]
        nones = [i for i in indices if col[i] is None]
        rest = [i for i in indices if col[i] is not None]
        rest.sort(key=col.__getitem__, reverse=descending)
        indices = rest + nones
    columns = [[col[i] for i in indices] for col in table.columns]
    provs = [table.provenance[i] for i in indices]
    return ColumnarTable(name or table.name, table.schema, columns, provs)


def limit_c(table: ColumnarTable, n: int, *, name: str | None = None) -> ColumnarTable:
    """First ``n`` rows."""
    if n < 0:
        raise QueryError("limit must be non-negative")
    columns = [col[:n] for col in table.columns]
    return ColumnarTable(
        name or table.name, table.schema, columns, list(table.provenance[:n])
    )


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


def _resolve(name: str, catalog: Catalog, depth: int) -> ColumnarTable:
    if depth > MAX_VIEW_DEPTH:
        raise QueryError(f"view nesting deeper than {MAX_VIEW_DEPTH}; cycle?")
    if catalog.is_table(name):
        # Shallow wrapper around the cached transpose: vectors are shared
        # (never mutated), but the wrapper's ``name`` is ours to reassign
        # when a view renames its result.
        ct = ColumnarTable.from_table(catalog.table(name))
        wrapper = ColumnarTable(
            ct.name, ct.schema, ct.columns, ct.provenance, provider=ct.provider
        )
        wrapper._pcache = ct._pcache  # provenance is shared and immutable
        return wrapper
    if catalog.is_view(name):
        view = catalog.view(name)
        ct = _run(view.query, catalog, depth=depth + 1)
        ct.name = name  # views are named like the row engine names them
        return ct
    raise QueryError(f"unknown relation {name!r}")


def union_c(
    first: ColumnarTable, second: ColumnarTable, *, name: str | None = None
) -> ColumnarTable:
    """Bag union of column vectors; schemas must agree (names and types)."""
    if first.schema.names != second.schema.names:
        raise SchemaError(
            f"union schema mismatch: {first.schema.names} vs "
            f"{second.schema.names}"
        )
    for a, b in zip(first.schema, second.schema):
        if a.ctype is not b.ctype:
            raise SchemaError(f"union type mismatch on column {a.name!r}")
    columns = [
        list(left) + list(right)
        for left, right in zip(first.columns, second.columns)
    ]
    provenance = list(first.provenance) + list(second.provenance)
    return ColumnarTable(name or first.name, first.schema, columns, provenance)


def _conform_c(branch: ColumnarTable, head: ColumnarTable) -> ColumnarTable:
    """Rename ``branch`` columns positionally to ``head``'s (SQL set-op rule)."""
    if branch.schema.names == head.schema.names:
        return branch
    if len(branch.schema.names) != len(head.schema.names):
        raise QueryError(
            f"set operation arity mismatch: head has {len(head.schema.names)} "
            f"column(s) {head.schema.names}, branch has "
            f"{len(branch.schema.names)} {branch.schema.names}"
        )
    schema = Schema(
        Column(new.name, old.ctype, old.nullable)
        for old, new in zip(branch.schema, head.schema)
    )
    # Provenance `where` maps are keyed by column *name*, so they must be
    # re-keyed along with the schema — critical when the rename permutes
    # overlapping names (branch (z, k) → head (k, x) must not leave the
    # old `k` refs answering for the new `k`).
    new_to_old = dict(zip(head.schema.names, branch.schema.names))
    provenance = [p.projected(new_to_old) for p in branch.provenance]
    return ColumnarTable(
        branch.name, schema, branch.columns, provenance,
        provider=branch.provider,
    )


def _run(query: Query, catalog: Catalog, *, depth: int) -> ColumnarTable:
    current = _run_core(query, catalog, depth=depth)
    for clause in query.set_ops:
        branch = _run_core(clause.query, catalog, depth=depth)
        current = union_c(current, _conform_c(branch, current))
        if clause.op == "union":
            current = distinct_c(current)

    if query.order:
        current = order_by_c(current, list(query.order))

    if query.limit_n is not None:
        current = limit_c(current, query.limit_n)
    return current


def _run_core(query: Query, catalog: Catalog, *, depth: int) -> ColumnarTable:
    _ensure_select_consistency(query)

    # Vector fast path: fused typed-array kernels with bitset provenance
    # masks (see repro.relational.vector). When eligible it executes the
    # whole core in single passes and returns lazily-decoded provenance;
    # otherwise fall through to the object-columnar operators below.
    fast = try_vector_core(query, catalog, depth)
    if fast is not None:
        current = ColumnarTable(
            fast.name, fast.schema, list(fast.columns), fast.provenance
        )
        if query.select_distinct:
            current = distinct_c(current)
        return current

    current = _resolve(query.source, catalog, depth)

    # Fused path: the final join of a non-aggregate query flows straight
    # into WHERE + SELECT without materializing intermediate provenance.
    fuse_last_join = bool(
        query.joins
        and not query.is_aggregate
        and query.select
        and query.having is None
    )
    joins = query.joins[:-1] if fuse_last_join else query.joins
    for clause in joins:
        right = _resolve(clause.table, catalog, depth)
        current = join_c(current, right, clause.on, how=clause.how)

    if fuse_last_join:
        clause = query.joins[-1]
        right = _resolve(clause.table, catalog, depth)
        current = join_filter_project_c(
            current, right, clause.on, clause.how, query.where, list(query.select)
        )
    elif query.is_aggregate:
        if query.where is not None:
            current = select_c(current, query.where)
        current = aggregate_c(current, query.group_by, query.aggregates)
        if query.having is not None:
            current = select_c(current, query.having)
        if query.select:
            current = project_c(current, list(query.select))
    else:
        if query.where is not None:
            if query.select and query.having is None:
                current = select_project_c(
                    current, query.where, list(query.select)
                )
            else:
                current = select_c(current, query.where)
                if query.having is not None:
                    raise QueryError("HAVING requires GROUP BY or aggregates")
                if query.select:
                    current = project_c(current, list(query.select))
        else:
            if query.having is not None:
                raise QueryError("HAVING requires GROUP BY or aggregates")
            if query.select:
                current = project_c(current, list(query.select))

    if query.select_distinct:
        current = distinct_c(current)

    return current


def execute_columnar(
    query: Query, catalog: Catalog, *, name: str | None = None
) -> Table:
    """Run ``query`` on the columnar path; result equals the row engine's."""
    result = _run(query, catalog, depth=0)
    return result.to_table(name)
