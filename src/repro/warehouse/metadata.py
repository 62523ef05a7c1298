"""Privacy metadata on warehouse tables, columns, and rows (§4).

"Metadata can also be used here to allow the specification of privacy
restrictions over tables, rows, or fields, joins or aggregations." This
registry holds those annotations at the DWH level; the warehouse-level
enforcement adapter (:mod:`repro.core.levels`) translates them into checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PolicyError
from repro.policy.intensional import IntensionalAssociation

__all__ = ["ColumnAnnotation", "TableAnnotation", "PrivacyMetadataRegistry"]


@dataclass(frozen=True)
class ColumnAnnotation:
    """Field-level privacy metadata."""

    table: str
    column: str
    sensitivity: str = "normal"  # "normal" | "quasi" | "sensitive" | "identifying"
    allowed_roles: frozenset[str] = frozenset()  # empty = unrestricted
    requires_anonymization: bool = False
    note: str = ""

    def permits_role(self, role: str) -> bool:
        return not self.allowed_roles or role in self.allowed_roles


@dataclass(frozen=True)
class TableAnnotation:
    """Table-level privacy metadata."""

    table: str
    min_aggregation: int = 1  # group-size floor for aggregates over this table
    joinable_with: frozenset[str] | None = None  # None = any; empty = none
    allowed_purposes: frozenset[str] = frozenset()  # empty = any
    note: str = ""

    def permits_join(self, other: str) -> bool:
        return self.joinable_with is None or other in self.joinable_with

    def permits_purpose(self, purpose: str) -> bool:
        if not self.allowed_purposes:
            return True
        return any(
            purpose == p or purpose.startswith(p + "/") for p in self.allowed_purposes
        )


@dataclass
class PrivacyMetadataRegistry:
    """All DWH-level privacy annotations of one warehouse."""

    columns: dict[tuple[str, str], ColumnAnnotation] = field(default_factory=dict)
    tables: dict[str, TableAnnotation] = field(default_factory=dict)
    row_rules: list[IntensionalAssociation] = field(default_factory=list)

    # -- registration -------------------------------------------------------

    def annotate_column(self, annotation: ColumnAnnotation) -> ColumnAnnotation:
        key = (annotation.table, annotation.column)
        if key in self.columns:
            raise PolicyError(f"column {key} already annotated")
        self.columns[key] = annotation
        return annotation

    def annotate_table(self, annotation: TableAnnotation) -> TableAnnotation:
        if annotation.table in self.tables:
            raise PolicyError(f"table {annotation.table!r} already annotated")
        self.tables[annotation.table] = annotation
        return annotation

    def add_row_rule(self, rule: IntensionalAssociation) -> IntensionalAssociation:
        self.row_rules.append(rule)
        return rule

    # -- queries ------------------------------------------------------------

    def column_annotation(self, table: str, column: str) -> ColumnAnnotation | None:
        return self.columns.get((table, column))

    def table_annotation(self, table: str) -> TableAnnotation | None:
        return self.tables.get(table)

    def sensitive_columns(self, table: str) -> tuple[str, ...]:
        """Columns of ``table`` tagged sensitive or identifying."""
        return tuple(
            sorted(
                column
                for (t, column), ann in self.columns.items()
                if t == table and ann.sensitivity in ("sensitive", "identifying")
            )
        )

    def min_aggregation_for(self, tables: frozenset[str] | set[str]) -> int:
        """Strictest group-size floor over a set of tables (joins compose)."""
        return max(
            (self.tables[t].min_aggregation for t in tables if t in self.tables),
            default=1,
        )

    def join_permitted(self, left: str, right: str) -> bool:
        """Both sides' annotations must permit the pairing."""
        left_ann = self.tables.get(left)
        right_ann = self.tables.get(right)
        if left_ann is not None and not left_ann.permits_join(right):
            return False
        if right_ann is not None and not right_ann.permits_join(left):
            return False
        return True

    def annotation_count(self) -> int:
        """Total annotations — the elicitation cost driver at this level."""
        return len(self.columns) + len(self.tables) + len(self.row_rules)
