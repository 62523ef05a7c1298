"""l-diversity on top of k-anonymous releases (Machanavajjhala et al. [9]).

k-anonymity bounds re-identification but not attribute disclosure: if every
record in an equivalence class shares the same disease, the class size is
irrelevant. Distinct l-diversity requires every class to contain at least
``l`` distinct sensitive values; entropy l-diversity strengthens this to an
entropy bound.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.errors import AnonymizationError
from repro.anonymize.kanonymity import AnonymizationResult, equivalence_classes
from repro.relational.table import Table

__all__ = [
    "is_l_diverse",
    "entropy_l_diversity",
    "enforce_l_diversity",
    "DiversityReport",
]


@dataclass(frozen=True)
class DiversityReport:
    """Per-release diversity diagnostics."""

    l_required: int
    classes_total: int
    classes_failing: int
    min_distinct: int

    @property
    def satisfied(self) -> bool:
        return self.classes_failing == 0


def _class_sensitive_values(
    table: Table, qi_columns: Sequence[str], sensitive: str
) -> list[Counter]:
    sens_idx = table.schema.index_of(sensitive)
    return [
        Counter(table.rows[i][sens_idx] for i in members)
        for members in equivalence_classes(table, qi_columns).values()
    ]


def is_l_diverse(
    table: Table, qi_columns: Sequence[str], sensitive: str, l: int
) -> DiversityReport:
    """Distinct l-diversity check; returns a full report, truthiness via
    ``report.satisfied``."""
    if l < 1:
        raise AnonymizationError("l must be at least 1")
    counters = _class_sensitive_values(table, qi_columns, sensitive)
    failing = sum(1 for c in counters if len(c) < l)
    min_distinct = min((len(c) for c in counters), default=0)
    return DiversityReport(
        l_required=l,
        classes_total=len(counters),
        classes_failing=failing,
        min_distinct=min_distinct,
    )


def entropy_l_diversity(
    table: Table, qi_columns: Sequence[str], sensitive: str, l: int
) -> bool:
    """Entropy l-diversity: every class's entropy ≥ log(l)."""
    if l < 1:
        raise AnonymizationError("l must be at least 1")
    threshold = math.log(l)
    for counter in _class_sensitive_values(table, qi_columns, sensitive):
        total = sum(counter.values())
        entropy = -sum(
            (count / total) * math.log(count / total)
            for count in counter.values()
        )
        if entropy < threshold - 1e-12:
            return False
    return True


def enforce_l_diversity(
    result: AnonymizationResult, sensitive: str, l: int
) -> AnonymizationResult:
    """Suppress every equivalence class that fails distinct l-diversity.

    Applied after k-anonymization: the release keeps its k guarantee (only
    whole classes are removed) and gains distinct l-diversity.
    """
    if l < 1:
        raise AnonymizationError("l must be at least 1")
    table = result.table
    sens_idx = table.schema.index_of(sensitive)
    keep: list[int] = []
    kept_classes = 0
    for members in equivalence_classes(table, result.quasi_identifiers).values():
        distinct = {table.rows[i][sens_idx] for i in members}
        if len(distinct) >= l:
            keep.extend(members)
            kept_classes += 1
    keep.sort()
    return AnonymizationResult(
        table=table.take(keep),
        k=result.k,
        quasi_identifiers=result.quasi_identifiers,
        suppressed_rows=result.suppressed_rows + (len(table) - len(keep)),
        partitions=kept_classes,
        levels_used=dict(result.levels_used),
    )
