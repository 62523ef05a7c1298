"""Typed column vectors and fused single-pass kernels (the vector fast path).

The production executor (:mod:`repro.relational.columnar`) hands every
SELECT core to this module first:

* **row** (:mod:`repro.relational.engine`) — the semantics oracle, and the
  operators a declined core runs on;
* **vector** (this module) — typed ``array`` column vectors with
  dictionary-encoded strings, selector ``bytes``, and **bitset provenance
  masks** (:mod:`repro.provenance.masks`) instead of per-row objects.

The fast path is a *planner*, not a separate engine: ``try_vector_core``
inspects one SELECT core and either executes it end to end — scan→filter→
project and join→filter→project→group-aggregate fused into single passes —
or returns ``None``, in which case the core runs on the row engine's
operators. Eligibility is conservative:

* every join is INNER and its right-hand side is a base table;
* the FROM relation is a base table or a view *inlined at plan time*: a
  view whose body is itself one eligible core (inner joins over base
  tables, an optional WHERE, a SELECT list of plain column references,
  renames allowed; no DISTINCT, aggregate, ORDER BY, LIMIT or UNION) runs
  its joins and WHERE on the caller's frame, and its SELECT list only
  re-keys the frame's column map — recursively through view chains, so
  the caller's clauses resolve straight to base-table leaves;
* the core ends in a projection or an aggregation (so the output
  where-provenance key set is the alias list, which the mask decoder
  rebuilds exactly);
* no HAVING without GROUP BY (the reference raises mid-pipeline there).

Everything observable — values, row order, schema, why-lineage, per-cell
where-provenance, and the exception type/message on malformed queries — is
identical to the reference engine; the differential suite enforces it.

Error-surfacing order mirrors ``engine._execute_core``: an inlined view's
body surfaces its errors first (as the resolver would while resolving the
FROM relation, view-nesting limit included), then join frames validate in
join order, then the WHERE predicate (unknown-column check before
evaluation), then the aggregate schema, then HAVING, then the projection
list. Probe/gather phases cannot raise, so pre-validating all join frames
before probing surfaces the same exception the interleaved reference would.
"""

from __future__ import annotations

import weakref
from array import array
from itertools import compress
from typing import Any, Sequence

from repro.errors import QueryError
from repro.provenance.masks import (
    LeafContribution,
    MaskProvenance,
    mask_from_selector,
)
from repro.relational.algebra import (
    AGGREGATE_FUNCTIONS,
    aggregate_output_schema,
    join_frame,
    project_plan,
)
from repro.relational.catalog import MAX_VIEW_DEPTH, Catalog
from repro.relational.expressions import Col, Expr
from repro.relational.query import Query
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import ColumnType

__all__ = ["VectorTable", "try_vector_core", "vector_table"]

#: Always on; read only by ``perfbench/bench.py``, which prints it per run.
_ENABLED = True

#: Dictionary-encoded columns with at most this many distinct values get a
#: one-byte code vector (code+1; NULL=0), unlocking the ``bytes.translate``
#: group-by kernel. 254 keeps code 255 free and 0 reserved for NULL.
MAX_BYTE_VOCAB = 254


# ---------------------------------------------------------------------------
# Typed column storage
# ---------------------------------------------------------------------------


class VectorTable:
    """A base table re-encoded as typed column vectors.

    Storage per column type:

    * INT → ``array('q')`` (falls back to an object list on NULLs or
      >64-bit values);
    * FLOAT → ``array('d')`` (object list on NULLs);
    * STRING → dictionary encoding: ``array('i')`` codes (−1 = NULL) plus a
      vocabulary list, and — for vocabularies of ≤ :data:`MAX_BYTE_VOCAB` —
      a cached one-byte code ``bytes`` used by the translate-based GROUP BY;
    * BOOL/DATE → object list (small domains, rarely hot).

    ``values(i)`` returns a sequence of *decoded* Python values, cached per
    column: kernels gather, probe, and evaluate predicates over it, while
    the typed vectors remain the canonical compact storage.
    """

    __slots__ = ("n", "schema", "kinds", "vectors", "_values", "_codes")

    def __init__(self, table: Table) -> None:
        self.n = len(table.rows)
        self.schema = table.schema
        if table.rows:
            cols: list[tuple[Any, ...]] = list(zip(*table.rows))
        else:
            cols = [() for _ in table.schema]
        self.kinds: list[str] = []
        self.vectors: list[Any] = []
        for col, spec in zip(cols, table.schema):
            kind, vec = _build_vector(col, spec.ctype)
            self.kinds.append(kind)
            self.vectors.append(vec)
        self._values: dict[int, Sequence[Any]] = {}
        self._codes: dict[int, tuple[bytes, list[str]] | None] = {}

    def values(self, i: int) -> Sequence[Any]:
        """Column ``i`` as a sequence of Python values (decoded, cached)."""
        v = self._values.get(i)
        if v is not None:
            return v
        kind = self.kinds[i]
        vec = self.vectors[i]
        if kind == "dict":
            codes, vocab = vec
            # codes use -1 for NULL; `vocab + [None]` makes -1 index None.
            lut = vocab + [None]
            v = list(map(lut.__getitem__, codes))
        else:  # "i64" / "f64" arrays and object lists are value sequences.
            v = vec
        self._values[i] = v
        return v

    def codes_bytes(self, i: int) -> tuple[bytes, list[str]] | None:
        """One-byte codes (code+1, NULL=0) + vocab, or None if inapplicable."""
        out = self._codes.get(i, _MISSING)
        if out is not _MISSING:
            return out
        if self.kinds[i] != "dict":
            self._codes[i] = None
            return None
        codes, vocab = self.vectors[i]
        if len(vocab) > MAX_BYTE_VOCAB:
            self._codes[i] = None
            return None
        cb = bytes(map((1).__add__, codes))
        self._codes[i] = result = (cb, vocab)
        return result


_MISSING: Any = object()


def _build_vector(col: Sequence[Any], ctype: ColumnType) -> tuple[str, Any]:
    if ctype is ColumnType.INT:
        try:
            return "i64", array("q", col)
        except (TypeError, OverflowError):
            return "obj", list(col)
    if ctype is ColumnType.FLOAT:
        try:
            return "f64", array("d", col)
        except TypeError:
            return "obj", list(col)
    if ctype is ColumnType.STRING:
        codes = array("i")
        append = codes.append
        vocab: list[str] = []
        lut: dict[str, int] = {}
        for v in col:
            if v is None:
                append(-1)
            else:
                c = lut.get(v)
                if c is None:
                    c = lut[v] = len(vocab)
                    vocab.append(v)
                append(c)
        return "dict", (codes, vocab)
    return "obj", list(col)


# Vectorized base tables are cached per (identity, data_version) and reused
# across executions; values are token-checked so a mutated table re-encodes.
_vectorized: "weakref.WeakKeyDictionary[Table, tuple[int, int, VectorTable]]"
_vectorized = weakref.WeakKeyDictionary()


def vector_table(table: Table) -> VectorTable:
    """The cached :class:`VectorTable` encoding of a base table."""
    cached = _vectorized.get(table)
    token = (table.data_version, len(table.rows))
    if cached is not None and cached[:2] == token:
        return cached[2]
    vt = VectorTable(table)
    try:
        _vectorized[table] = (*token, vt)
    except TypeError:  # pragma: no cover - non-weakrefable Table subclass
        pass
    return vt


# ---------------------------------------------------------------------------
# Bit/byte helpers
# ---------------------------------------------------------------------------

_ONE_HOT: list[bytes | None] = [None] * 256


def _one_hot(code: int) -> bytes:
    """Translate table mapping byte ``code`` → 1 and every other byte → 0."""
    t = _ONE_HOT[code]
    if t is None:
        t = _ONE_HOT[code] = bytes(1 if b == code else 0 for b in range(256))
    return t


def _pack_ordinals(ordinals: Any, size: int) -> int:
    """Bitset of ``ordinals`` (each < ``size``), built bytewise."""
    ba = bytearray((size >> 3) + 1)
    for o in ordinals:
        ba[o >> 3] |= 1 << (o & 7)
    return int.from_bytes(ba, "little")


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


# ---------------------------------------------------------------------------
# Execution frame
# ---------------------------------------------------------------------------


class _Frame:
    """Mutable state of one fused execution: which leaf rows are live.

    The relation is never materialized. It is represented as:

    * ``leaf_idx[i]`` — per leaf base table, either ``None`` (output row r
      IS leaf row r) or an ``array('q')`` mapping output row → leaf ordinal;
    * ``colmap`` — output column name → ``(leaf_index, source_column)``,
      collision-qualified the way :func:`join_frame` qualifies the schema;
    * a per-stage cache of gathered value vectors.
    """

    __slots__ = ("tables", "vts", "schema", "name", "n", "leaf_idx", "colmap", "_vcache")

    def __init__(self, table: Table) -> None:
        self.tables = [table]
        self.vts = [vector_table(table)]
        self.schema = table.schema
        self.name = table.name
        self.n = len(table.rows)
        self.leaf_idx: list[Any] = [None]
        self.colmap: dict[str, tuple[int, str]] = {
            c: (0, c) for c in table.schema.names
        }
        self._vcache: dict[str, Sequence[Any]] = {}

    # -- value access -------------------------------------------------------

    def values(self, out_name: str) -> Sequence[Any]:
        v = self._vcache.get(out_name)
        if v is None:
            leaf_i, src = self.colmap[out_name]
            vt = self.vts[leaf_i]
            base = vt.values(vt.schema.index_of(src))
            idx = self.leaf_idx[leaf_i]
            v = base if idx is None else list(map(base.__getitem__, idx))
            self._vcache[out_name] = v
        return v

    def group_bytes(self, out_name: str) -> tuple[bytes, list[str]] | None:
        """One-byte group codes of a column in current row space, if dict-
        encoded with a small vocabulary."""
        leaf_i, src = self.colmap[out_name]
        vt = self.vts[leaf_i]
        cb = vt.codes_bytes(vt.schema.index_of(src))
        if cb is None:
            return None
        codes, vocab = cb
        idx = self.leaf_idx[leaf_i]
        if idx is not None:
            codes = bytes(map(codes.__getitem__, idx))
        return codes, vocab

    # -- space transitions ----------------------------------------------------

    def apply_selector(self, selector: bytes) -> None:
        """Keep rows whose selector byte is 1 (a fused WHERE)."""
        n = self.n
        kept = selector.count(1)
        if kept == n:
            return
        for i, idx in enumerate(self.leaf_idx):
            if idx is None:
                self.leaf_idx[i] = array("q", compress(range(n), selector))
            else:
                self.leaf_idx[i] = array("q", compress(idx, selector))
        self._vcache = {
            k: list(compress(v, selector)) for k, v in self._vcache.items()
        }
        self.n = kept

    def apply_join(
        self,
        right: Table,
        out_li: list[int] | None,
        out_rj: list[int],
        schema: Schema,
        collisions: set[str],
    ) -> None:
        """Adopt the probe result: gather left leaves, admit the right leaf.

        ``out_li`` of ``None`` keeps the left row space as is (see
        :func:`_probe_inner`), with its gathered value vectors.
        """
        if out_li is not None:
            for i, idx in enumerate(self.leaf_idx):
                if idx is None:
                    self.leaf_idx[i] = array("q", out_li)
                else:
                    self.leaf_idx[i] = array("q", map(idx.__getitem__, out_li))
        r = len(self.tables)
        self.tables.append(right)
        self.vts.append(vector_table(right))
        self.leaf_idx.append(array("q", out_rj))

        renamed: dict[str, str] = {}
        new_colmap: dict[str, tuple[int, str]] = {}
        for c in self.schema.names:
            out = renamed[c] = f"{self.name}.{c}" if c in collisions else c
            new_colmap[out] = self.colmap[c]
        for c in right.schema.names:
            out = f"{right.name}.{c}" if c in collisions else c
            new_colmap[out] = (r, c)
        self.colmap = new_colmap
        self.schema = schema
        self.name = f"{self.name}_{right.name}"
        self.n = len(out_rj)
        if out_li is None:
            self._vcache = {renamed[c]: v for c, v in self._vcache.items()}
        else:
            self._vcache = {}

    def adopt_view(self, name: str, select: list[Any]) -> None:
        """Become view ``name``'s output: its plain-column SELECT list only
        re-keys the column map, so outer clauses resolve to base leaves."""
        if select:
            schema, extractors = project_plan(self.schema, select)
            sources = [(alias, expr.name) for alias, expr, _ in extractors]
            self.colmap = {alias: self.colmap[src] for alias, src in sources}
            self._vcache = {
                alias: self._vcache[src]
                for alias, src in sources
                if src in self._vcache
            }
            self.schema = schema
        self.name = name

    # -- provenance -----------------------------------------------------------

    def contributions(self) -> tuple[LeafContribution, ...]:
        return tuple(
            LeafContribution.identity()
            if idx is None
            else LeafContribution.from_indices(idx)
            for idx in self.leaf_idx
        )

    def leaves(self) -> tuple[Sequence[Any], ...]:
        return tuple(t.provenance for t in self.tables)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _probe_inner(
    left_keys: list[Sequence[Any]], right_keys: list[Sequence[Any]]
) -> tuple[list[int] | None, list[int]]:
    """Hash-probe for an INNER join; same output order as ``algebra.join``
    (left order, right-insertion order per key; NULL keys never match).

    ``out_li`` is ``None`` when every left row matches exactly one right row
    (output row i is left row i), which the frame keeps without a gather.
    """
    out_li: list[int] = []
    out_rj: list[int] = []
    if len(right_keys) == 1:
        rkeys = right_keys[0]
        lookup = dict(zip(rkeys, range(len(rkeys))))
        if len(lookup) == len(rkeys) and None not in lookup:
            # Unique non-NULL right keys (a dimension's surrogate key): the
            # probe is one C-level map, and NULL left keys find nothing.
            matched = list(map(lookup.get, left_keys[0]))
            if None not in matched:
                return None, matched
            out_li = [i for i, j in enumerate(matched) if j is not None]
            return out_li, [j for j in matched if j is not None]
        buckets: dict[Any, list[int]] = {}
        for j, key in enumerate(right_keys[0]):
            if key is None:
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [j]
            else:
                bucket.append(j)
        bucket_get = buckets.get
        for i, key in enumerate(left_keys[0]):
            if key is None:
                continue
            matches = bucket_get(key)
            if matches:
                out_li.extend([i] * len(matches))
                out_rj.extend(matches)
        return out_li, out_rj

    tbuckets: dict[tuple[Any, ...], list[int]] = {}
    for j, tkey in enumerate(zip(*right_keys)):
        if None in tkey:
            continue
        bucket = tbuckets.get(tkey)
        if bucket is None:
            tbuckets[tkey] = [j]
        else:
            bucket.append(j)
    tbucket_get = tbuckets.get
    for i, tkey in enumerate(zip(*left_keys)):
        if None in tkey:
            continue
        matches = tbucket_get(tkey)
        if matches:
            out_li.extend([i] * len(matches))
            out_rj.extend(matches)
    return out_li, out_rj


# Folds every nonzero byte to 1 so a packed flag vector becomes a strict
# 0/1 selector (nonzero ⟺ truthy holds for ints 0..255 and bools).
_SELECTOR_FOLD = bytes([0]) + bytes([1]) * 255


def _where_selector(frame: _Frame, predicate: Expr) -> bytes:
    """Validate + evaluate WHERE into a 0/1 selector (reference polarity:
    UNKNOWN and falsy exclude). Error messages match ``algebra.select``."""
    missing = predicate.columns() - set(frame.schema.names)
    if missing:
        raise QueryError(
            f"predicate references unknown columns {sorted(missing)}"
        )
    env = {c: frame.values(c) for c in predicate.columns()}
    flags = predicate.evaluate_batch(env, frame.n)
    try:
        # bool is an int subclass, so an all-bool flag vector packs through
        # bytes() in a single C pass; translate folds any truthy small int
        # to 1 so the selector stays strictly 0/1. None (UNKNOWN) or values
        # outside a byte raise and take the per-element path.
        return bytes(flags).translate(_SELECTOR_FOLD)
    except (TypeError, ValueError):
        return bytes(map(bool, flags))


def _result(
    name: str,
    schema: Schema,
    columns: list[Sequence[Any]],
    provenance: MaskProvenance,
) -> Table:
    """The derived table of a fused core, carrying its lazy provenance."""
    rows = list(zip(*columns)) if columns else [()] * len(provenance)
    return Table.derived(name, schema, rows, provenance)


def _project_vec(frame: _Frame, select: list[Any]) -> Table:
    """Fused terminal projection over the current frame."""
    schema, extractors = project_plan(frame.schema, select)
    needed: set[str] = set()
    for _, expr, _ in extractors:
        needed |= expr.columns()
    env = {c: frame.values(c) for c in needed if c in frame.colmap}

    out_columns: list[Sequence[Any]] = []
    origins: list[tuple[str, tuple[tuple[int, str], ...]]] = []
    for alias, expr, is_copy in extractors:
        if is_copy:
            assert isinstance(expr, Col)
            out_columns.append(env[expr.name])
            origins.append((alias, (frame.colmap[expr.name],)))
        else:
            out_columns.append(expr.evaluate_batch(env, frame.n))
            pairs = dict.fromkeys(
                frame.colmap[c] for c in expr.columns()
            )
            origins.append((alias, tuple(pairs)))

    provenance = MaskProvenance(
        frame.n, frame.leaves(), frame.contributions(), tuple(origins)
    )
    return _result(frame.name, schema, out_columns, provenance)


def _aggregate_vec(frame: _Frame, query: Query) -> Table:
    """Fused GROUP BY / aggregation (plus HAVING and SELECT-over-aggregate).

    Group membership is computed once; per-leaf contributing rows become
    bitset masks instead of per-group provenance dicts. Single dict-encoded
    group columns with small vocabularies take the byte kernel: group
    selectors via ``bytes.translate``, counts via ``bytes.count``, masks via
    ``mask_from_selector`` — all C-level single passes.
    """
    group_by = list(query.group_by)
    aggs = list(query.aggregates)
    schema_out = aggregate_output_schema(frame.schema, group_by, aggs)
    n = frame.n
    scalar_keys = len(group_by) == 1
    leaf_sizes = [vt.n for vt in frame.vts]

    # -- group discovery: (key, members | selector) in first-occurrence order
    group_keys: list[Any] = []
    group_members: list[list[int]] | None = None
    group_selectors: list[bytes] | None = None
    group_counts: list[int] = []

    byte_groups = frame.group_bytes(group_by[0]) if scalar_keys else None
    if byte_groups is not None:
        codes_b, vocab = byte_groups
        group_selectors = []
        for code in sorted(set(codes_b), key=codes_b.find):
            group_keys.append(None if code == 0 else vocab[code - 1])
            group_selectors.append(codes_b.translate(_one_hot(code)))
            group_counts.append(codes_b.count(code))
    else:
        groups: dict[Any, list[int]] = {}
        group_members = []
        if scalar_keys:
            for i, v in enumerate(frame.values(group_by[0])):
                members = groups.get(v)
                if members is None:
                    groups[v] = members = [i]
                    group_keys.append(v)
                    group_members.append(members)
                else:
                    members.append(i)
        elif group_by:
            key_vecs = [frame.values(g) for g in group_by]
            for i, key in enumerate(zip(*key_vecs)):
                members = groups.get(key)
                if members is None:
                    groups[key] = members = [i]
                    group_keys.append(key)
                    group_members.append(members)
                else:
                    members.append(i)
        else:
            group_keys.append(())
            group_members.append(list(range(n)))
        group_counts = [len(m) for m in group_members]

    n_groups = len(group_keys)

    # -- aggregate values (same AGGREGATE_FUNCTIONS as the reference)
    agg_vecs = {
        spec.column: frame.values(spec.column)
        for spec in aggs
        if spec.column is not None
    }
    out_rows: list[tuple[Any, ...]] = []
    for g in range(n_groups):
        key = group_keys[g]
        values = [key] if scalar_keys else list(key)
        if group_selectors is not None:
            sel = group_selectors[g]
            member_values = {
                col: list(compress(vec, sel)) for col, vec in agg_vecs.items()
            }
        else:
            members = group_members[g]  # type: ignore[index]
            member_values = {
                col: list(map(vec.__getitem__, members))
                for col, vec in agg_vecs.items()
            }
        for spec in aggs:
            if spec.column is None:
                col_values: list[Any] = [1] * group_counts[g]
            else:
                col_values = member_values[spec.column]
            if spec.distinct:
                col_values = _distinct_values(col_values)
            values.append(AGGREGATE_FUNCTIONS[spec.func](col_values))
        out_rows.append(tuple(values))

    # -- per-leaf contribution masks
    leaf_masks: list[list[int]] = [[] for _ in frame.vts]
    for g in range(n_groups):
        for li, idx in enumerate(frame.leaf_idx):
            if group_selectors is not None:
                sel = group_selectors[g]
                if idx is None:
                    mask = mask_from_selector(sel)
                else:
                    mask = _pack_ordinals(compress(idx, sel), leaf_sizes[li])
            else:
                members = group_members[g]  # type: ignore[index]
                if idx is None:
                    mask = _pack_ordinals(members, n or 1)
                else:
                    mask = _pack_ordinals(
                        map(idx.__getitem__, members), leaf_sizes[li]
                    )
            leaf_masks[li].append(mask)

    # Output alias → contributing (leaf, source column) pairs.
    agg_origins: dict[str, tuple[tuple[int, str], ...]] = {}
    for g_col in group_by:
        agg_origins[g_col] = (frame.colmap[g_col],)
    for spec in aggs:
        agg_origins[spec.alias] = (
            (frame.colmap[spec.column],) if spec.column is not None else ()
        )

    # -- HAVING over the (small) aggregate output
    if query.having is not None:
        missing = query.having.columns() - set(schema_out.names)
        if missing:
            raise QueryError(
                f"predicate references unknown columns {sorted(missing)}"
            )
        if out_rows:
            have_cols = list(zip(*out_rows))
        else:
            have_cols = [() for _ in schema_out.names]
        have_env = dict(zip(schema_out.names, have_cols))
        flags = list(
            map(bool, query.having.evaluate_batch(have_env, len(out_rows)))
        )
        out_rows = list(compress(out_rows, flags))
        leaf_masks = [list(compress(masks, flags)) for masks in leaf_masks]
        n_groups = len(out_rows)

    contribs = tuple(
        LeafContribution.from_masks(masks) for masks in leaf_masks
    )
    if not query.select:
        origins = [(a, agg_origins[a]) for a in schema_out.names]
        provenance = MaskProvenance(
            n_groups, frame.leaves(), contribs, tuple(origins)
        )
        return Table.derived(frame.name, schema_out, out_rows, provenance)

    # -- SELECT over the aggregate output
    sp_schema, extractors = project_plan(schema_out, list(query.select))
    if out_rows:
        cur_cols = list(zip(*out_rows))
    else:
        cur_cols = [() for _ in schema_out.names]
    env = dict(zip(schema_out.names, cur_cols))
    out_columns: list[Sequence[Any]] = []
    origins = []
    for alias, expr, is_copy in extractors:
        if is_copy:
            assert isinstance(expr, Col)
            out_columns.append(env[expr.name])
            origins.append((alias, agg_origins[expr.name]))
        else:
            out_columns.append(expr.evaluate_batch(env, n_groups))
            pairs = dict.fromkeys(
                pair
                for c in expr.columns()
                for pair in agg_origins[c]
            )
            origins.append((alias, tuple(pairs)))
    provenance = MaskProvenance(
        n_groups, frame.leaves(), contribs, tuple(origins)
    )
    return _result(frame.name, sp_schema, out_columns, provenance)


# ---------------------------------------------------------------------------
# Planner / entry point
# ---------------------------------------------------------------------------


def try_vector_core(
    query: Query, catalog: Catalog, depth: int = 0
) -> Table | None:
    """Execute one SELECT core on the vector fast path, or return ``None``.

    Returns a derived table whose provenance is a lazy
    :class:`MaskProvenance`. Called by the production executor
    (:mod:`repro.relational.columnar`) after select-consistency validation;
    set operations, ORDER BY, LIMIT, and DISTINCT stay with the caller.
    ``depth`` is the caller's view-nesting depth, so inlined view chains
    hit the resolver's nesting limit at the same level.
    """
    # -- shape eligibility (cheap, no side effects)
    if query.having is not None and not query.is_aggregate:
        return None  # the reference raises mid-pipeline; let it.
    if not query.select and not query.is_aggregate:
        return None  # bare scans pass input where-dicts through unchanged.
    frame = _core_frame(query, catalog, depth)
    if frame is None:
        return None
    if query.is_aggregate:
        return _aggregate_vec(frame, query)
    return _project_vec(frame, list(query.select))


def _inlinable(body: Query) -> bool:
    """Whether a view body can fold into its caller's frame: one SELECT core
    whose SELECT list holds plain column references only (joins are checked
    by :func:`_core_frame`)."""
    if (
        body.set_ops
        or body.order
        or body.limit_n is not None
        or body.select_distinct
        or body.is_aggregate
        or body.having is not None
    ):
        return False
    return all(
        isinstance(item, str) or isinstance(item[1], Col) for item in body.select
    )


def _source_frame(name: str, catalog: Catalog, depth: int) -> _Frame | None:
    """The frame of a FROM relation resolved at ``depth``: a base table, or an
    inlinable view's body run on the frame; ``None`` declines."""
    if depth > MAX_VIEW_DEPTH:
        raise QueryError(f"view nesting deeper than {MAX_VIEW_DEPTH}; cycle?")
    if catalog.is_table(name):
        return _Frame(catalog.table(name))
    if not catalog.is_view(name):
        return None  # unknown relation: the resolver raises it.
    body = catalog.view(name).query
    if not _inlinable(body):
        return None
    frame = _core_frame(body, catalog, depth + 1)
    if frame is not None:
        frame.adopt_view(name, list(body.select))
    return frame


def _core_frame(query: Query, catalog: Catalog, depth: int) -> _Frame | None:
    """FROM, inner joins and WHERE of one core, run on a frame; ``None``
    declines."""
    for clause in query.joins:
        if clause.how != "inner" or not catalog.is_table(clause.table):
            return None  # outer joins; views/unknowns on the right.
    frame = _source_frame(query.source, catalog, depth)
    if frame is None:
        return None
    rights = [catalog.table(clause.table) for clause in query.joins]

    # -- join frame pre-pass: validation errors here are exactly the errors
    # the reference raises (probes can't raise), and residual duplicate
    # names (self-joins) disqualify the fast path before any probing work.
    frames = []
    cur_schema, cur_name = frame.schema, frame.name
    for clause, right in zip(query.joins, rights):
        schema, collisions, lk, rk = join_frame(
            cur_schema, right.schema, cur_name, right.name, clause.on, clause.how
        )
        frames.append((schema, collisions, lk, rk))
        if len(set(schema.names)) != len(schema.names):
            return None
        cur_schema, cur_name = schema, f"{cur_name}_{right.name}"

    for (schema, collisions, lk, rk), right in zip(frames, rights):
        left_key_names = [frame.schema.names[k] for k in lk]
        right_vt = vector_table(right)
        left_keys = [frame.values(c) for c in left_key_names]
        right_keys = [right_vt.values(k) for k in rk]
        out_li, out_rj = _probe_inner(left_keys, right_keys)
        frame.apply_join(right, out_li, out_rj, schema, collisions)

    if query.where is not None:
        frame.apply_selector(_where_selector(frame, query.where))
    return frame
