"""Relational schemas: ordered, uniquely named, typed columns.

Schemas are immutable value objects. All structural operations (project,
rename, concatenation for joins) return new schemas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.relational.types import ColumnType

__all__ = ["Column", "Schema"]


@dataclass(frozen=True)
class Column:
    """One column: a name, a scalar type, and a nullability flag."""

    name: str
    ctype: ColumnType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"invalid column name {self.name!r}")

    def renamed(self, name: str) -> "Column":
        """A copy of this column under a new name."""
        return Column(name, self.ctype, self.nullable)

    def as_nullable(self) -> "Column":
        """A copy of this column that accepts NULLs (for outer joins)."""
        return self if self.nullable else Column(self.name, self.ctype, True)


@dataclass(frozen=True)
class Schema:
    """An ordered sequence of uniquely named columns."""

    columns: tuple[Column, ...]
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False, hash=False)
    _names: tuple[str, ...] = field(init=False, repr=False, compare=False, hash=False)

    def __init__(self, columns: Iterable[Column]) -> None:
        cols = tuple(columns)
        index: dict[str, int] = {}
        for i, col in enumerate(cols):
            if col.name in index:
                raise SchemaError(f"duplicate column name {col.name!r}")
            index[col.name] = i
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_names", tuple(col.name for col in cols))

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    @property
    def names(self) -> tuple[str, ...]:
        """Column names in schema order."""
        return self._names

    def column(self, name: str) -> Column:
        """The column named ``name``; raises :class:`SchemaError` if absent."""
        try:
            return self.columns[self._index[name]]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; schema has {list(self.names)}"
            ) from None

    def index_of(self, name: str) -> int:
        """Positional index of column ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; schema has {list(self.names)}"
            ) from None

    def has_all(self, names: Iterable[str]) -> bool:
        """True if every name in ``names`` is a column of this schema."""
        return all(name in self._index for name in names)

    # -- structural operations --------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema restricted (and reordered) to ``names``."""
        return Schema(self.column(name) for name in names)

    def rename(self, mapping: Mapping[str, str]) -> "Schema":
        """Schema with columns renamed per ``mapping`` (others unchanged)."""
        for old in mapping:
            if old not in self._index:
                raise SchemaError(f"cannot rename unknown column {old!r}")
        return Schema(
            col.renamed(mapping.get(col.name, col.name)) for col in self.columns
        )

    def concat(self, other: "Schema", *, disambiguate: tuple[str, str] | None = None) -> "Schema":
        """Concatenate two schemas, as produced by a join.

        On a name collision, if ``disambiguate`` provides a ``(left, right)``
        prefix pair the colliding columns are qualified as ``prefix.name``;
        otherwise a :class:`SchemaError` is raised.
        """
        collisions = set(self.names) & set(other.names)
        if collisions and disambiguate is None:
            raise SchemaError(
                f"join would duplicate columns {sorted(collisions)}; "
                "provide qualifiers or project first"
            )
        left_cols = [
            col.renamed(f"{disambiguate[0]}.{col.name}")
            if disambiguate and col.name in collisions
            else col
            for col in self.columns
        ]
        right_cols = [
            col.renamed(f"{disambiguate[1]}.{col.name}")
            if disambiguate and col.name in collisions
            else col
            for col in other.columns
        ]
        return Schema(left_cols + right_cols)

    def describe(self) -> str:
        """Human-readable one-line description, for elicitation displays."""
        parts = ", ".join(
            f"{col.name}: {col.ctype}{'' if col.nullable else ' NOT NULL'}"
            for col in self.columns
        )
        return f"({parts})"
