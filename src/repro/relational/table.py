"""In-memory tables with per-row why-provenance and per-cell where-provenance.

Every base-table row carries a stable :class:`RowId` naming its owner
(provider), table, and ordinal. Relational operators propagate:

* **why-provenance** (*lineage*): the set of base ``RowId`` s a derived row
  depends on — exactly what aggregation-threshold PLAs and third-party
  auditing need (Cui & Widom style lineage);
* **where-provenance**: for each output cell, the set of base cells it was
  *copied* from (Buneman/Tan style), which powers the elicitation tool's
  "where does this report value come from" display.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError, TypeMismatchError
from repro.relational.schema import Column, Schema
from repro.relational.types import ColumnType, coerce_value

__all__ = [
    "RowId",
    "CellRef",
    "RowProvenance",
    "Table",
    "ReadOnlyList",
    "ReadOnlyTable",
    "EMPTY_LINEAGE",
    "relation_identity",
]


def relation_identity(provider: str, table: str) -> str:
    """The ``provider/table`` string naming one base relation.

    Audit footprints, source probing and ETL-level PLA constraints all
    address relations by this string.
    """
    return f"{provider}/{table}"


@lru_cache(maxsize=1024)
def _footprint_of(relations: frozenset[tuple[str, str]]) -> frozenset[str]:
    """The identities of a set of ``(provider, table)`` pairs.

    Lineage holds one ``RowId`` per contributing base row but names a
    handful of relations, so rows drawing on the same relations share one
    set and a memoized row footprint keeps no set of its own.
    """
    return frozenset(relation_identity(p, t) for p, t in relations)


@dataclass(frozen=True, order=True)
class RowId:
    """Globally unique identity of a base-table row."""

    provider: str
    table: str
    ordinal: int

    def __str__(self) -> str:
        return f"{self.provider}/{self.table}#{self.ordinal}"


@dataclass(frozen=True, order=True)
class CellRef:
    """A single base cell: a row identity plus a column name."""

    row: RowId
    column: str

    def __str__(self) -> str:
        return f"{self.row}.{self.column}"


EMPTY_LINEAGE: frozenset[RowId] = frozenset()
_EMPTY_WHERE: Mapping[str, frozenset[CellRef]] = {}


@dataclass(frozen=True)
class RowProvenance:
    """Provenance carried by one (derived) row.

    The row's :meth:`footprint` is computed on first call and kept on the
    object. Plan-cache hits and :meth:`Table.take` / :meth:`Table.derived`
    subsets share provenance objects, so a cached result's lineage is
    walked once, not once per delivery.
    """

    lineage: frozenset[RowId] = EMPTY_LINEAGE
    where: Mapping[str, frozenset[CellRef]] = None  # type: ignore[assignment]
    #: Memo of :meth:`footprint`, set on the instance by its first call.
    #: Not a field, so equality, hashing and repr ignore it.
    _footprint = None

    def __post_init__(self) -> None:
        if self.where is None:
            object.__setattr__(self, "where", _EMPTY_WHERE)

    @classmethod
    def for_base_row(cls, row_id: RowId, schema: Schema) -> "RowProvenance":
        """Provenance of a freshly inserted base row: itself, cell by cell."""
        where = {
            col.name: frozenset([CellRef(row_id, col.name)]) for col in schema
        }
        return cls(lineage=frozenset([row_id]), where=where)

    @classmethod
    def make(
        cls,
        lineage: frozenset[RowId],
        where: Mapping[str, frozenset[CellRef]],
    ) -> "RowProvenance":
        """Fast-path constructor for hot loops (vector provenance decoding).

        Skips the frozen-dataclass ``__init__``/``__post_init__`` machinery;
        ``where`` must already be a concrete mapping (never ``None``). The
        result is value-equal to ``RowProvenance(lineage=..., where=...)``.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "lineage", lineage)
        object.__setattr__(self, "where", where)
        return self

    def where_of(self, column: str) -> frozenset[CellRef]:
        """Base cells the value in ``column`` was copied from (may be empty)."""
        return self.where.get(column, frozenset())

    def footprint(self) -> frozenset[str]:
        """The :func:`relation_identity` of each base relation in the lineage.

        The memo is stored with ``object.__setattr__`` and read as a plain
        attribute: on CPython 3.11, touching an instance's ``__dict__``
        materializes it and slows every later attribute read on that
        object. Concurrent first calls compute the same set, so either
        store is right.
        """
        footprint = self._footprint
        if footprint is None:
            footprint = _footprint_of(
                frozenset([(rid.provider, rid.table) for rid in self.lineage])
            )
            object.__setattr__(self, "_footprint", footprint)
        return footprint

    def with_where(self, where: Mapping[str, frozenset[CellRef]]) -> "RowProvenance":
        """The same lineage with new where-provenance.

        The lineage frozenset is shared, so a memoized :meth:`footprint`
        carries over.
        """
        out = RowProvenance.make(self.lineage, where)
        if self._footprint is not None:
            object.__setattr__(out, "_footprint", self._footprint)
        return out

    def merged(self, other: "RowProvenance") -> "RowProvenance":
        """Combine provenance of two rows joined into one output row."""
        where = dict(self.where)
        where.update(other.where)
        return RowProvenance(lineage=self.lineage | other.lineage, where=where)

    def projected(self, mapping: Mapping[str, str]) -> "RowProvenance":
        """Provenance after projecting/renaming: ``mapping`` is new→old name."""
        return self.with_where(
            {new: self.where[old] for new, old in mapping.items() if old in self.where}
        )


class Table:
    """A schema-typed bag of rows with parallel provenance.

    Rows are stored as tuples in schema order. ``provenance[i]`` is the
    :class:`RowProvenance` of ``rows[i]``. Tables are mutable only through
    :meth:`insert`; relational operators construct new tables.
    """

    #: The slot of the plan-cache entry this result was fetched from or
    #: filled into (see :mod:`repro.relational.plancache`); ``None`` for a
    #: table that did not come out of the plan cache.
    cache_slot: dict | None = None

    def __init__(
        self,
        name: str,
        schema: Schema,
        *,
        provider: str = "local",
    ) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.schema = schema
        self.provider = provider
        self.rows: list[tuple[Any, ...]] = []
        self.provenance: list[RowProvenance] = []
        # Bumped on every insert; cache keys pair it with the row count so
        # result/vector caches never serve data from a mutated table.
        self.data_version = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence[Any] | Mapping[str, Any]],
        *,
        provider: str = "local",
    ) -> "Table":
        """Build a base table, assigning fresh :class:`RowId` s to every row."""
        table = cls(name, schema, provider=provider)
        for row in rows:
            table.insert(row)
        return table

    @classmethod
    def derived(
        cls,
        name: str,
        schema: Schema,
        rows: Sequence[tuple[Any, ...]],
        provenance: Sequence[RowProvenance],
        *,
        provider: str = "derived",
    ) -> "Table":
        """Build a derived table from pre-computed rows and provenance.

        Lazily-decoded provenance sequences (anything exposing a truthy
        ``lazy_provenance`` marker, e.g. the vector path's bitset-mask
        provenance) are adopted as-is instead of being materialized, so a
        fused execution stays free of per-row provenance objects until a
        consumer actually indexes into them.
        """
        if len(rows) != len(provenance):
            raise SchemaError("rows and provenance lists must have equal length")
        table = cls(name, schema, provider=provider)
        table.rows = list(rows)
        if getattr(provenance, "lazy_provenance", False):
            table.provenance = provenance  # type: ignore[assignment]
        else:
            table.provenance = list(provenance)
        return table

    def insert(self, row: Sequence[Any] | Mapping[str, Any]) -> RowId:
        """Insert one row (sequence in schema order, or a name→value mapping).

        Values are coerced to the column types; a fresh :class:`RowId` is
        assigned and returned.
        """
        if isinstance(row, Mapping):
            values = [row.get(col.name) for col in self.schema]
        else:
            if len(row) != len(self.schema):
                raise SchemaError(
                    f"row has {len(row)} values, schema has {len(self.schema)}"
                )
            values = list(row)
        coerced = []
        for value, col in zip(values, self.schema):
            coerced_value = coerce_value(value, col.ctype)
            if coerced_value is None and not col.nullable:
                raise TypeMismatchError(
                    f"NULL in non-nullable column {col.name!r} of {self.name!r}"
                )
            coerced.append(coerced_value)
        row_id = RowId(self.provider, self.name, len(self.rows))
        self.rows.append(tuple(coerced))
        if not isinstance(self.provenance, list):
            # Derived tables may carry an immutable lazy provenance sequence;
            # the first insert materializes it so appends are possible.
            self.provenance = list(self.provenance)
        self.provenance.append(RowProvenance.for_base_row(row_id, self.schema))
        self.data_version += 1
        return row_id

    def insert_many(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> list[RowId]:
        """Insert several rows; returns their :class:`RowId` s."""
        return [self.insert(row) for row in rows]

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def row_dict(self, i: int) -> dict[str, Any]:
        """Row ``i`` as a column-name→value dict."""
        return dict(zip(self.schema.names, self.rows[i]))

    def iter_dicts(self) -> Iterator[dict[str, Any]]:
        """Iterate rows as dicts (handy for tests and report rendering)."""
        names = self.schema.names
        for row in self.rows:
            yield dict(zip(names, row))

    def column_values(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        idx = self.schema.index_of(name)
        return [row[idx] for row in self.rows]

    def lineage_of(self, i: int) -> frozenset[RowId]:
        """Why-provenance (contributing base rows) of row ``i``."""
        return self.provenance[i].lineage

    def all_lineage(self) -> frozenset[RowId]:
        """Union of the lineage of every row (every contributing base row)."""
        out: set[RowId] = set()
        for prov in self.provenance:
            out.update(prov.lineage)
        return frozenset(out)

    def footprint(self) -> frozenset[str]:
        """The :func:`relation_identity` of every base relation in the lineage:
        the union of the rows' memoized :meth:`RowProvenance.footprint`,
        which rows over the same relations share."""
        return frozenset().union(*{prov.footprint() for prov in self.provenance})

    # -- what the audit record and the commit log read ------------------------

    @property
    def min_contributors(self) -> int:
        """The fewest base rows any row's lineage holds (0 when empty)."""
        return min([len(prov.lineage) for prov in self.provenance], default=0)

    @property
    def source_footprint(self) -> tuple[str, ...]:
        """:meth:`footprint`, sorted."""
        return tuple(sorted(self.footprint()))

    @property
    def rows_repr(self) -> str:
        """``repr`` of the row list."""
        return repr(self.rows)

    def distinct_values(self, name: str) -> set[Any]:
        """Set of distinct non-NULL values in ``name``."""
        return {v for v in self.column_values(name) if v is not None}

    # -- convenience ---------------------------------------------------------

    def take(
        self,
        indices: Iterable[int],
        *,
        name: str | None = None,
        provider: str | None = None,
    ) -> "Table":
        """The rows at ``indices``, in that order, with their provenance.

        Indices may repeat or be empty. The name and provider default to
        this table's.
        """
        indices = list(indices)
        rows, provs = self.rows, self.provenance
        out = Table(name or self.name, self.schema, provider=provider or self.provider)
        out.rows = [rows[i] for i in indices]
        out.provenance = [provs[i] for i in indices]
        return out

    def filter_rows(self, keep: Callable[[dict[str, Any]], bool], *, name: str | None = None) -> "Table":
        """A derived table keeping rows where ``keep(row_dict)`` is true."""
        names = self.schema.names
        return self.take(
            (i for i, row in enumerate(self.rows) if keep(dict(zip(names, row)))),
            name=name,
            provider="derived",
        )

    def head(self, n: int = 5) -> list[dict[str, Any]]:
        """First ``n`` rows as dicts, for display."""
        return [self.row_dict(i) for i in range(min(n, len(self.rows)))]

    def pretty(self, limit: int = 10) -> str:
        """ASCII rendering of up to ``limit`` rows (for examples and docs)."""
        names = self.schema.names
        shown = [tuple(str(v) if v is not None else "NULL" for v in row) for row in self.rows[:limit]]
        widths = [
            max(len(names[i]), *(len(row[i]) for row in shown)) if shown else len(names[i])
            for i in range(len(names))
        ]
        header = " | ".join(name.ljust(w) for name, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        lines = [header, sep]
        lines.extend(
            " | ".join(val.ljust(w) for val, w in zip(row, widths)) for row in shown
        )
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, {len(self.rows)} rows, schema={self.schema.describe()})"


def _read_only(self, *args: Any, **kwargs: Any) -> Any:
    raise TypeError(f"{type(self).__name__} refuses in-place change")


class ReadOnlyList(list):
    """A list that refuses in-place change; it compares, indexes, iterates
    and ``repr`` s as the list it was built from."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only


class _Kept:
    """A :class:`Table` property that a :class:`ReadOnlyTable` computes on
    first read and keeps in its instance dict, which later reads find first.
    Two racing first reads compute the same value, so there is no lock."""

    def __init__(self, prop: property) -> None:
        self.fget = prop.fget
        self.name = prop.fget.__name__

    def __get__(self, table: "ReadOnlyTable | None", owner: type | None = None) -> Any:
        if table is None:
            return self
        value = vars(table)[self.name] = self.fget(table)
        return value


class ReadOnlyTable(Table):
    """A copy of a table that refuses change, shared by many readers.

    Rows and provenance are :class:`ReadOnlyList` s, and setting or deleting
    an attribute raises ``TypeError``. Since nothing can change, the facts
    read from the table alone are computed on first read and kept.
    """

    def __init__(self, table: Table) -> None:
        # Straight into the instance dict, past ``__setattr__``.
        vars(self).update(
            name=table.name,
            schema=table.schema,
            provider=table.provider,
            rows=ReadOnlyList(table.rows),
            provenance=ReadOnlyList(table.provenance),
            data_version=table.data_version,
        )

    def __setattr__(self, name: str, value: Any) -> None:
        _read_only(self)

    def __delattr__(self, name: str) -> None:
        _read_only(self)

    min_contributors = _Kept(Table.min_contributors)
    source_footprint = _Kept(Table.source_footprint)
    rows_repr = _Kept(Table.rows_repr)


def make_schema(*specs: tuple[str, ColumnType] | tuple[str, ColumnType, bool]) -> Schema:
    """Shorthand schema constructor: ``make_schema(("a", INT), ("b", STRING, False))``."""
    cols = []
    for spec in specs:
        if len(spec) == 2:
            name, ctype = spec  # type: ignore[misc]
            cols.append(Column(name, ctype))
        else:
            name, ctype, nullable = spec  # type: ignore[misc]
            cols.append(Column(name, ctype, nullable))
    return Schema(cols)
