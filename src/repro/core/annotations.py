"""PLA annotations: the report/meta-report annotation vocabulary of §5.

"In general, annotations can include i) who can access a certain attribute,
ii) what are the aggregation requirements on a table (how many base elements
should be present before the aggregation), iii) anonymization requirements
on an attribute, iv) join permissions/prohibitions ... and v) integration
permission". Intensional, instance-specific conditions ("medical
examination results can be shown only for patients that are not HIV
positive") are the sixth, cross-cutting kind.

Every annotation knows its ``requirement_kind`` — the vocabulary shared with
:meth:`repro.policy.rbac.PRBACPolicy.can_express`, which is how the ABL-PBAC
benchmark measures the expressiveness gap.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import PolicyError
from repro.relational.expressions import Expr

__all__ = [
    "Annotation",
    "AttributeAccess",
    "AggregationThreshold",
    "AnonymizationRequirement",
    "JoinPermission",
    "IntegrationPermission",
    "IntensionalCondition",
    "ANNOTATION_KINDS",
]

ANNOTATION_KINDS = (
    "attribute_access",
    "aggregation_threshold",
    "anonymization",
    "join_permission",
    "integration_permission",
    "intensional_condition",
)


class Annotation(abc.ABC):
    """Base class: every annotation names its kind and can describe itself."""

    requirement_kind: str = "abstract"
    #: Whether enforcing it blanks cells in the base table (see
    #: :class:`~repro.core.translation.ReportLevelEnforcer`).
    blanks_cells: bool = False

    @abc.abstractmethod
    def describe(self) -> str:
        """Owner-readable statement of the requirement."""

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class AttributeAccess(Annotation):
    """(i) Who can access a certain attribute."""

    attribute: str
    allowed_roles: frozenset[str]

    requirement_kind = "attribute_access"

    def __post_init__(self) -> None:
        if not self.attribute:
            raise PolicyError("attribute name must be non-empty")

    def permits(self, roles: frozenset[str] | set[str]) -> bool:
        """True if *every* holder of ``roles`` may see the attribute.

        An audience is acceptable only if each of its roles is allowed —
        one unauthorized role in the audience is a disclosure.
        """
        return set(roles) <= self.allowed_roles

    def describe(self) -> str:
        return (
            f"attribute {self.attribute!r} visible only to roles "
            f"{sorted(self.allowed_roles)}"
        )


@dataclass(frozen=True)
class AggregationThreshold(Annotation):
    """(ii) Minimum contributor count before a group may be published."""

    min_group_size: int
    scope: str = ""  # optional attribute the threshold protects, for docs

    requirement_kind = "aggregation_threshold"

    def __post_init__(self) -> None:
        if self.min_group_size < 1:
            raise PolicyError("min_group_size must be at least 1")

    def satisfied_by(self, contributor_count: int) -> bool:
        return contributor_count >= self.min_group_size

    def describe(self) -> str:
        about = f" (protecting {self.scope})" if self.scope else ""
        return (
            f"aggregates must combine at least {self.min_group_size} "
            f"base records{about}"
        )


@dataclass(frozen=True)
class AnonymizationRequirement(Annotation):
    """(iii) An attribute must be anonymized before display."""

    attribute: str
    method: str  # "pseudonymize" | "suppress" | "generalize"
    generalization_level: int = 0  # for method == "generalize"

    requirement_kind = "anonymization"

    _METHODS = ("pseudonymize", "suppress", "generalize")

    def __post_init__(self) -> None:
        if self.method not in self._METHODS:
            raise PolicyError(
                f"unknown anonymization method {self.method!r}; "
                f"expected one of {self._METHODS}"
            )

    @property
    def blanks_cells(self) -> bool:
        return self.method == "suppress"

    def describe(self) -> str:
        extra = (
            f" to level {self.generalization_level}"
            if self.method == "generalize"
            else ""
        )
        return f"attribute {self.attribute!r} must be {self.method}d{extra}"


@dataclass(frozen=True)
class JoinPermission(Annotation):
    """(iv) Permission or prohibition to combine two sources' data.

    Relations are ``provider/table`` identities, matching
    :mod:`repro.etl.annotations`.
    """

    left: str
    right: str
    allowed: bool

    requirement_kind = "join_permission"

    def pair(self) -> frozenset[str]:
        return frozenset((self.left, self.right))

    def describe(self) -> str:
        verb = "may" if self.allowed else "must NOT"
        return f"data from {self.left} {verb} be combined with {self.right}"


@dataclass(frozen=True)
class IntegrationPermission(Annotation):
    """(v) Permission to use this owner's data to clean/resolve others' data."""

    owner: str
    allowed: bool

    requirement_kind = "integration_permission"

    def describe(self) -> str:
        verb = "may" if self.allowed else "must NOT"
        return f"{self.owner}'s data {verb} be used to clean/resolve other owners' data"


@dataclass(frozen=True)
class IntensionalCondition(Annotation):
    """Instance-specific condition: show ``attribute`` only where ``condition``.

    ``condition`` may reference columns that are *not* displayed — "HIV can
    be a separate column in the same report that is used only for purposes
    of defining PLAs, even if it is not made visible to users". The
    enforcement translator traces the condition, and for ``suppress_cell``
    the attribute, to the one base table they are copied from, and guards
    that table wherever a query reads it: ``suppress_row`` keeps the rows
    the condition is true on, and ``suppress_cell`` replaces the attribute's
    base cell with ``CASE WHEN condition THEN attribute END``. Every WHERE,
    grouping, DISTINCT, UNION branch and rename then reads the blanked cell.

    ``action`` is ``"suppress_cell"`` (blank the attribute) or
    ``"suppress_row"`` (drop the row).
    """

    attribute: str
    condition: Expr
    action: str = "suppress_cell"

    requirement_kind = "intensional_condition"

    _ACTIONS = ("suppress_cell", "suppress_row")

    def __post_init__(self) -> None:
        if self.action not in self._ACTIONS:
            raise PolicyError(
                f"unknown action {self.action!r}; expected one of {self._ACTIONS}"
            )

    @property
    def blanks_cells(self) -> bool:
        return self.action == "suppress_cell"

    def describe(self) -> str:
        effect = "blanked" if self.blanks_cells else "dropped with its row"
        return (
            f"attribute {self.attribute!r} shown only where ({self.condition}); "
            f"otherwise {effect}"
        )
