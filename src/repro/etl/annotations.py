"""PLA annotations on ETL flows (Fig 3b): restricting operations on sources.

Constraints are *provenance-based*: instead of inspecting operator wiring
only, checks look at the base footprint (why-provenance) of each operator's
inputs, so a prohibited combination is caught no matter how many
intermediate steps launder it — exactly the compliance-through-provenance
role §4 assigns to lineage techniques.

Relations are addressed as ``"provider/table"`` strings (the identity of a
base table as carried in every :class:`~repro.relational.table.RowId`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.errors import PolicyError
from repro.etl.operators import EtlOperator, IntegrateOp
from repro.relational.catalog import Catalog
from repro.relational.table import Table

__all__ = [
    "EtlViolation",
    "EtlConstraint",
    "JoinProhibition",
    "OperationRestriction",
    "IntegrationProhibition",
    "EtlPlaRegistry",
]


@dataclass(frozen=True)
class EtlViolation:
    """One detected violation of an ETL-level PLA constraint."""

    operator: str
    constraint: str
    message: str

    def __str__(self) -> str:
        return f"[{self.constraint}] {self.operator}: {self.message}"


class EtlConstraint(abc.ABC):
    """Base class for ETL-level PLA constraints."""

    def __init__(self, name: str, owner: str, reason: str = "") -> None:
        if not name:
            raise PolicyError("constraint name must be non-empty")
        self.name = name
        self.owner = owner
        self.reason = reason

    @abc.abstractmethod
    def check(
        self, op: EtlOperator, inputs: list[Table], catalog: Catalog
    ) -> EtlViolation | None:
        """Return a violation if running ``op`` on ``inputs`` breaks this PLA."""

    def describe(self) -> str:
        suffix = f" ({self.reason})" if self.reason else ""
        return f"{self.name} by {self.owner}{suffix}"


class JoinProhibition(EtlConstraint):
    """Data from ``left`` must never be combined with data from ``right``.

    Triggered by any operator that merges the two footprints into one output
    (joins and integrations), regardless of intermediate laundering.
    """

    _COMBINING_KINDS = frozenset({"join", "integrate"})

    def __init__(
        self, name: str, owner: str, left: str, right: str, reason: str = ""
    ) -> None:
        super().__init__(name, owner, reason)
        self.left = left
        self.right = right

    def check(
        self, op: EtlOperator, inputs: list[Table], catalog: Catalog
    ) -> EtlViolation | None:
        if op.kind not in self._COMBINING_KINDS or len(inputs) < 2:
            return None
        footprints = [t.footprint() for t in inputs]
        pair = {self.left, self.right}
        for i, fp_a in enumerate(footprints):
            for fp_b in footprints[i + 1 :]:
                if (self.left in fp_a and self.right in fp_b) or (
                    self.right in fp_a and self.left in fp_b
                ):
                    return EtlViolation(
                        operator=op.name,
                        constraint=self.name,
                        message=(
                            f"would combine {sorted(pair)} "
                            f"(prohibited by {self.owner})"
                        ),
                    )
        return None


class OperationRestriction(EtlConstraint):
    """Certain operator kinds are forbidden on data descending from a relation."""

    def __init__(
        self,
        name: str,
        owner: str,
        relation: str,
        forbidden_kinds: frozenset[str] | set[str],
        reason: str = "",
    ) -> None:
        super().__init__(name, owner, reason)
        if not forbidden_kinds:
            raise PolicyError(f"restriction {name!r} forbids nothing")
        self.relation = relation
        self.forbidden_kinds = frozenset(forbidden_kinds)

    def check(
        self, op: EtlOperator, inputs: list[Table], catalog: Catalog
    ) -> EtlViolation | None:
        if op.kind not in self.forbidden_kinds:
            return None
        if any(self.relation in t.footprint() for t in inputs):
            return EtlViolation(
                operator=op.name,
                constraint=self.name,
                message=(
                    f"{op.kind} is forbidden on data from {self.relation} "
                    f"(restricted by {self.owner})"
                ),
            )
        return None


class IntegrationProhibition(EtlConstraint):
    """An owner's data may not be used to clean/resolve other owners' data.

    This is §5 annotation kind (v) stated negatively: the *reference* side of
    an :class:`IntegrateOp` must not descend from the protected owner while
    the target belongs to someone else.
    """

    def __init__(self, name: str, owner: str, reason: str = "") -> None:
        super().__init__(name, owner, reason)

    def check(
        self, op: EtlOperator, inputs: list[Table], catalog: Catalog
    ) -> EtlViolation | None:
        if not isinstance(op, IntegrateOp) or len(inputs) < 2:
            return None
        target, reference = inputs[0], inputs[1]
        ref_owners = {fp.partition("/")[0] for fp in reference.footprint()}
        target_owners = {fp.partition("/")[0] for fp in target.footprint()}
        if self.owner in ref_owners and (target_owners - {self.owner}):
            return EtlViolation(
                operator=op.name,
                constraint=self.name,
                message=(
                    f"{self.owner}'s data would be used to clean data of "
                    f"{sorted(target_owners - {self.owner})}"
                ),
            )
        return None


@dataclass
class EtlPlaRegistry:
    """All ETL-level PLA constraints agreed with the source owners."""

    constraints: list[EtlConstraint] = field(default_factory=list)

    def add(self, constraint: EtlConstraint) -> EtlConstraint:
        if any(c.name == constraint.name for c in self.constraints):
            raise PolicyError(f"constraint {constraint.name!r} already registered")
        self.constraints.append(constraint)
        return constraint

    def check_op(
        self, op: EtlOperator, inputs: list[Table], catalog: Catalog
    ) -> list[EtlViolation]:
        """Check one operator against every constraint."""
        violations = []
        for constraint in self.constraints:
            violation = constraint.check(op, inputs, catalog)
            if violation is not None:
                violations.append(violation)
        return violations

    def describe(self) -> str:
        if not self.constraints:
            return "(no ETL PLA constraints)"
        return "\n".join(c.describe() for c in self.constraints)
