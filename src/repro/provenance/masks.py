"""Bitset provenance masks: compact lineage/where encoding for vector kernels.

The row engine carries one :class:`RowProvenance` object per
output row — a dict of frozensets of :class:`CellRef`. That is exact but
expensive: the object graph dominates both the memory and the wall time of
large scans. The vector fast path (:mod:`repro.relational.vector`) instead
records, per output row and per *leaf* base table, only **which leaf rows
contributed**, in one of two encodings:

* an **index vector** (``array('q')``) when at most one leaf row contributes
  per output row (scan/filter/project, hash joins) — ordinal ``-1`` means
  "no contribution";
* a **bitset mask** (a Python ``int``; bit *i* set ⇔ leaf row *i*
  contributed) when a whole set of rows collapses into one output row
  (GROUP BY / aggregation).

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
from collections.abc import Sequence
from typing import Any, Iterable, Iterator

from repro.relational.table import RowProvenance

__all__ = [
    "pack_rows",
    "unpack_rows",
    "mask_from_selector",
    "LeafContribution",
    "MaskProvenance",
]

_EMPTY_REFS: frozenset = frozenset()
_union = frozenset().union

# byte value -> bit offsets set within that byte (little-endian bit order).
_BYTE_BITS: tuple[tuple[int, ...], ...] = tuple(
    tuple(b for b in range(8) if v >> b & 1) for v in range(256)
)

# selector byte (0/1) -> ASCII '0'/'1', for the int(s, 2) packing trick.
_SEL_TO_ASCII = bytes(
    (ord("1") if v == 1 else ord("0")) for v in range(256)
)


def pack_rows(ordinals: Iterable[int]) -> int:
    """Pack a set of row ordinals into a bitset mask (bit ``i`` ⇔ row ``i``)."""
    mask = 0
    for i in ordinals:
        mask |= 1 << i
    return mask


def unpack_rows(mask: int) -> list[int]:
    """Unpack a bitset mask back into its sorted row ordinals.

    Scans the mask bytewise (a 1M-row mask is a 125 KB int) instead of
    shifting the whole integer per set bit, so decoding stays linear.
    """
    if mask == 0:
        return []
    out: list[int] = []
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    extend = out.extend
    for byte_i, value in enumerate(data):
        if value:
            base = byte_i << 3
            extend(base + b for b in _BYTE_BITS[value])
    return out


def mask_from_selector(selector: bytes) -> int:
    """Bitset mask from a 0/1 selector byte string (``selector[i]`` ⇔ row i).

    Uses C-level ``translate`` + binary ``int(..., 2)`` (power-of-two bases
    are exempt from the int/str conversion limit), so packing a million-row
    selector costs milliseconds rather than a Python-level loop.
    """
    if not selector:
        return 0
    return int(selector.translate(_SEL_TO_ASCII)[::-1], 2)


def _merge(parts: list[frozenset]) -> frozenset:
    """Union of ``parts``; a single part is shared rather than copied (the
    sets are immutable, and the reference engine shares them the same way)."""
    return parts[0] if len(parts) == 1 else _union(*parts)


class LeafContribution:
    """Which rows of one leaf base table contribute to each output row.

    ``kind`` is ``"identity"`` (output row ``i`` ⇐ leaf row ``i``), ``"idx"``
    (``data[i]`` is the single contributing ordinal, ``-1`` for none) or
    ``"mask"`` (``data[i]`` is a bitset of contributing ordinals).
    """

    __slots__ = ("kind", "data")

    def __init__(self, kind: str, data: Any = None) -> None:
        if kind not in ("identity", "idx", "mask"):  # pragma: no cover
            raise ValueError(f"unknown contribution kind {kind!r}")
        self.kind = kind
        self.data = data

    @classmethod
    def identity(cls) -> "LeafContribution":
        return cls("identity")

    @classmethod
    def from_indices(cls, indices: "array") -> "LeafContribution":
        return cls("idx", indices)

    @classmethod
    def from_masks(cls, masks: list[int]) -> "LeafContribution":
        return cls("mask", masks)

    def ordinals(self, i: int) -> list[int]:
        """Contributing leaf ordinals of output row ``i``."""
        if self.kind == "identity":
            return [i]
        if self.kind == "idx":
            o = self.data[i]
            return [o] if o >= 0 else []
        return unpack_rows(self.data[i])

    def gathered(self, indices: Sequence[int]) -> "LeafContribution":
        """This contribution re-indexed by an output-row gather."""
        if self.kind == "identity":
            return LeafContribution("idx", array("q", indices))
        if self.kind == "idx":
            data = self.data
            return LeafContribution("idx", array("q", [data[i] for i in indices]))
        data = self.data
        return LeafContribution("mask", [data[i] for i in indices])


class MaskProvenance(Sequence):
    """Lazy per-row provenance decoded from per-leaf contribution masks.

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
