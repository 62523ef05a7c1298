"""Leaf contributions: compact lineage/where encoding for vector kernels.

The row engine carries one :class:`RowProvenance` object per
output row — a dict of frozensets of :class:`CellRef`. That is exact but
expensive: the object graph dominates both the memory and the wall time of
large scans. The vector fast path (:mod:`repro.relational.vector`) instead
records, per output row and per *leaf* base table, only **which leaf rows
contributed**, in one of two encodings:

* an **index vector** (``array('q')``) when at most one leaf row contributes
  per output row (scan/filter/project, hash joins) — ordinal ``-1`` means
  "no contribution";
* a **group** of frame rows when a whole set of rows collapses into one
  output row (GROUP BY / aggregation): the 0/1 selector or member list the
  aggregate kernel already built, read through the leaf's index vector
  when the row is decoded.

Because every engine-produced output column is copied (or computed) from
statically known leaf columns, the per-cell where-provenance of an output
row is fully determined by ``(contributing leaf rows, column origins)``:

    where[alias] = ⋃ {leaf.provenance[i].where_of(src)
                      | (leaf, src) ∈ origins(alias), i ∈ contributing(leaf)}

:class:`MaskProvenance` is the decode boundary: a lazy, immutable
``Sequence[RowProvenance]`` that reconstructs the exact object provenance on
access. ``Table`` recognizes it via the ``lazy_provenance`` marker and never
forces a full decode, so uncached execution (and the benchmarks) measure
query execution, not provenance materialization. The plan-cached executor
decodes a result once before caching it, so the caller and every later hit
share the decoded rows. The differential suite compares decoded provenance
value-for-value against the row engine.
"""

from __future__ import annotations

from array import array
from collections.abc import Collection, Sequence
from itertools import compress
from typing import Any, Iterator

from repro.relational.table import RowProvenance

__all__ = ["LeafContribution", "MaskProvenance"]

_EMPTY_REFS: frozenset = frozenset()
_union = frozenset().union


def _merge(parts: list[frozenset]) -> frozenset:
    """Union of ``parts``; a single part is shared rather than copied (the
    sets are immutable, and the reference engine shares them the same way)."""
    return parts[0] if len(parts) == 1 else _union(*parts)


class LeafContribution:
    """Which rows of one leaf base table contribute to each output row.

    ``kind`` is ``"identity"`` (output row ``i`` ⇐ leaf row ``i``), ``"idx"``
    (``data[i]`` is the single contributing ordinal, ``-1`` for none) or
    ``"group"`` (``data[i]`` is output row ``i``'s group of frame rows: a
    0/1 selector over the frame, or the frame-row numbers of its members).
    A group reads frame row ``r`` as leaf row ``index[r]``, or as leaf row
    ``r`` when ``index`` is ``None``; every leaf of one aggregate shares its
    groups and reads them through its own index.
    """

    __slots__ = ("kind", "data", "index")

    def __init__(self, kind: str, data: Any = None, index: Any = None) -> None:
        if kind not in ("identity", "idx", "group"):  # pragma: no cover
            raise ValueError(f"unknown contribution kind {kind!r}")
        self.kind = kind
        self.data = data
        self.index = index

    @classmethod
    def identity(cls) -> "LeafContribution":
        return cls("identity")

    @classmethod
    def from_indices(cls, indices: "array") -> "LeafContribution":
        return cls("idx", indices)

    @classmethod
    def from_groups(
        cls, groups: Sequence[bytes | Sequence[int]], index: "array | None"
    ) -> "LeafContribution":
        return cls("group", groups, index)

    def ordinals(self, i: int) -> Collection[int]:
        """Contributing leaf ordinals of output row ``i``, each once."""
        if self.kind == "identity":
            return (i,)
        if self.kind == "idx":
            o = self.data[i]
            return (o,) if o >= 0 else ()
        rows = self.data[i]
        index = self.index
        # Through an index, one leaf row can feed several members of a
        # group (a dimension row joined to many facts): it counts once.
        if isinstance(rows, bytes):
            if index is None:
                return list(compress(range(len(rows)), rows))
            return set(compress(index, rows))
        return rows if index is None else set(map(index.__getitem__, rows))


class MaskProvenance(Sequence):
    """Lazy per-row provenance decoded from per-leaf contributions.

    Immutable and shareable: operators and caches may alias it freely.
    Decoding row ``i`` reproduces the exact :class:`RowProvenance` the
    reference engine would have built (same lineage frozenset, same where
    dict with the same key set).
    """

    #: Marker consumed by ``Table.derived`` so lazy sequences are stored
    #: as-is instead of being materialized.
    lazy_provenance = True

    __slots__ = ("n", "leaves", "contribs", "origins")

    def __init__(
        self,
        n: int,
        leaves: tuple[Sequence[RowProvenance], ...],
        contribs: tuple[LeafContribution, ...],
        origins: tuple[tuple[str, tuple[tuple[int, str], ...]], ...],
    ) -> None:
        if len(leaves) != len(contribs):  # pragma: no cover - internal
            raise ValueError("one contribution per leaf required")
        self.n = n
        self.leaves = leaves
        self.contribs = contribs
        #: per output alias: ((leaf_index, source_column), ...)
        self.origins = origins

    # -- decoding -----------------------------------------------------------

    def _decode(self, i: int) -> RowProvenance:
        per_leaf = [
            [leaf[o] for o in contrib.ordinals(i)]
            for leaf, contrib in zip(self.leaves, self.contribs)
        ]
        lineage = _merge([p.lineage for provs in per_leaf for p in provs])
        where = {
            alias: _merge(
                [
                    p.where.get(src, _EMPTY_REFS)
                    for leaf_i, src in pairs
                    for p in per_leaf[leaf_i]
                ]
            )
            for alias, pairs in self.origins
        }
        return RowProvenance.make(lineage, where)

    # -- Sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):  # type: ignore[override]
        if isinstance(i, slice):
            return [self._decode(j) for j in range(*i.indices(self.n))]
        if i < 0:
            i += self.n
        if not 0 <= i < self.n:
            raise IndexError("provenance index out of range")
        return self._decode(i)

    def __iter__(self) -> Iterator[RowProvenance]:
        return (self._decode(i) for i in range(self.n))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence):
            return len(other) == self.n and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("MaskProvenance is not hashable")

    def materialize(self) -> list[RowProvenance]:
        """Decode every row (the object-provenance boundary for consumers)."""
        return [self._decode(i) for i in range(self.n)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ",".join(c.kind for c in self.contribs)
        return f"MaskProvenance({self.n} rows, {len(self.leaves)} leaves [{kinds}])"
