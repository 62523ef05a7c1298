"""Meta-reports: the paper's proposed PLA-elicitation artifact (§5).

"Meta-reports represent tables or views over the data warehouse that contain
data that can be used to define reports ... an intermediate step between the
complexity and stability of the data warehouse, and the simplicity and
volatility of the final reports."

This module provides the meta-report object, the covering check used by the
compliance engine, and :func:`generate_metareports` — an answer to the
paper's open design challenge of finding "a minimal yet exhaustive set of
meta-reports". The generator clusters the report workload by
column-footprint similarity and emits one wide view per cluster; the
``max_metareports`` knob sweeps the granularity continuum of Fig 5 (1 =
whole-warehouse universe, len(workload) = per-report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

from repro.errors import PolicyError
from repro.core.containment import (
    DerivabilityResult,
    NotConjunctive,
    canonicalize,
    check_derivability,
    spj_core,
)
from repro.core.pla import PLA, PlaStatus
from repro.relational.catalog import Catalog, View
from repro.relational.expressions import And, Col, Comparison, Expr, Or
from repro.relational.query import Query
from repro.reports.definition import ReportDefinition

__all__ = [
    "MetaReport",
    "MetaReportSet",
    "generate_metareports",
    "effective_region",
]

@dataclass
class MetaReport:
    """A wide view over the warehouse carrying an elicited PLA."""

    name: str
    query: Query
    description: str = ""
    pla: PLA | None = None

    @property
    def approved(self) -> bool:
        """Approved meta-reports are the only valid compliance baselines."""
        return self.pla is not None and self.pla.status is PlaStatus.APPROVED

    def columns(self) -> tuple[str, ...]:
        names = self.query.output_names()
        if names is None:
            raise PolicyError(
                f"meta-report {self.name!r} must have an explicit column list"
            )
        return names

    def attach_pla(self, pla: PLA) -> None:
        if pla.target != self.name:
            raise PolicyError(
                f"PLA targets {pla.target!r}, not meta-report {self.name!r}"
            )
        self.pla = pla

    def as_view(self) -> View:
        return View(self.name, self.query, description=self.description)

    def describe(self) -> str:
        status = "approved" if self.approved else "draft"
        return f"meta-report {self.name!r} ({status}): {', '.join(self.columns())}"


@dataclass
class MetaReportSet:
    """The agreed meta-report collection of one BI deployment."""

    metareports: list[MetaReport] = field(default_factory=list)

    def add(self, metareport: MetaReport) -> MetaReport:
        if any(m.name == metareport.name for m in self.metareports):
            raise PolicyError(f"meta-report {metareport.name!r} already exists")
        self.metareports.append(metareport)
        return metareport

    def get(self, name: str) -> MetaReport:
        for metareport in self.metareports:
            if metareport.name == name:
                return metareport
        raise PolicyError(f"no meta-report named {name!r}")

    def __len__(self) -> int:
        return len(self.metareports)

    def __iter__(self):
        return iter(self.metareports)

    def register_views(self, catalog: Catalog) -> None:
        """Make every meta-report queryable (reports may be authored over them)."""
        for metareport in self.metareports:
            catalog.add_view(metareport.as_view(), replace=True)

    def find_covering(
        self, report: ReportDefinition, catalog: Catalog
    ) -> tuple[MetaReport | None, tuple[DerivabilityResult, ...]]:
        """The first approved meta-report the report is derivable from.

        Returns ``(metareport, attempts)``; ``metareport`` is None when no
        approved meta-report covers the report — the §5 trigger for a fresh
        elicitation round.
        """
        attempts = []
        for metareport in self.metareports:
            if not metareport.approved:
                continue
            result = check_derivability(
                report.query, metareport.name, metareport.query, catalog
            )
            attempts.append(result)
            if result:
                return metareport, tuple(attempts)
        return None, tuple(attempts)

    def total_columns(self) -> int:
        """Total column count across meta-reports — an elicitation-size metric."""
        return sum(len(m.columns()) for m in self.metareports)

    def extend(
        self,
        name: str,
        new_columns: Sequence[str],
        *,
        universe_columns: Sequence[str],
        catalog: Catalog,
        registry: "PlaRegistryLike | None" = None,
    ) -> MetaReport:
        """Extend a meta-report with additional universe columns (§5 lifecycle).

        This is the re-elicitation outcome: when a new report is not
        derivable from any approved meta-report, the owner reviews a wider
        view. The extended meta-report keeps universe column order, its view
        is re-registered, and — if a PLA registry is given — its PLA is
        revised to a new *draft* version awaiting approval (the extension is
        not usable for compliance until the owner approves it again).
        """
        metareport = self.get(name)
        universe_set = set(universe_columns)
        unknown = [c for c in new_columns if c not in universe_set]
        if unknown:
            raise PolicyError(
                f"cannot extend {name!r} with columns outside the universe: {unknown}"
            )
        merged = set(metareport.columns()) | set(new_columns)
        order = {c: i for i, c in enumerate(universe_columns)}
        columns = sorted(merged, key=order.__getitem__)
        metareport.query = Query.from_(metareport.query.source).project(*columns)
        catalog.add_view(metareport.as_view(), replace=True)
        if registry is not None and metareport.pla is not None:
            revised = registry.revise(
                metareport.pla.name, metareport.pla.annotations
            )
            metareport.pla = revised  # draft until the owner re-approves
        return metareport


class PlaRegistryLike:
    """Structural protocol: anything with ``revise(name, annotations)``."""

    def revise(self, name: str, annotations) -> PLA:  # pragma: no cover
        raise NotImplementedError


def effective_region(
    query: Query, catalog: Catalog, *, universe: str
) -> Expr | None:
    """The universe-level row region ``query`` can draw rows from.

    The residual of the query's select-project-join core in canonical form,
    views inlined down to ``universe``, renamed into the universe's column
    names (``None`` = unrestricted). This is the *runtime* region: it reads
    the views registered in the catalog, so a drifted view definition
    shows up here, not in the approved artifacts.

    The region over-approximates on purpose: GROUP BY/HAVING/LIMIT only
    narrow which of the reachable rows surface, so every contributing row
    still satisfies the returned predicate — the sound polarity for the
    verifier's premises. Raises :class:`NotConjunctive` when the form is
    not one universe atom or cannot be built.
    """
    # A UNION draws rows from every branch, so its region is the OR of the
    # branch regions; one unrestricted branch makes the whole query
    # unrestricted. Each branch resolves its own view chain independently.
    if query.set_ops:
        regions = [
            effective_region(b, catalog, universe=universe) for b in query.blocks()
        ]
        if any(region is None for region in regions):
            return None
        return reduce(Or, regions)  # type: ignore[arg-type]

    form = canonicalize(spj_core(query), catalog, universe=universe)
    relations = [atom.relation for atom in form.atoms]
    if relations != [universe]:
        raise NotConjunctive(
            f"region over {relations} is not one predicate over universe {universe!r}"
        )
    # Universe columns equated along the chain share a variable: name the
    # variable after the first and restate the equality for the others.
    names: dict[str, str] = {}
    equalities: list[Expr] = []
    for column, variable in zip(
        catalog.output_names(universe), form.atoms[0].variables
    ):
        first = names.setdefault(f"v{variable}", column)
        if first != column:
            equalities.append(Comparison("=", Col(first), Col(column)))
    parts = [] if form.where is None else [form.where.substitute(names)]
    parts += equalities
    return reduce(And, parts) if parts else None


def generate_metareports(
    workload: Sequence[ReportDefinition],
    universe_name: str,
    catalog: Catalog,
    *,
    max_metareports: int,
    name_prefix: str = "mr",
) -> MetaReportSet:
    """Cluster a report workload into at most ``max_metareports`` meta-reports.

    Each report contributes the columns it reads (``catalog.input_names``),
    restricted to the universe's columns (``catalog.output_names``).
    Footprints are clustered by greedy highest-Jaccard merging; each final
    cluster becomes one meta-report: an unfiltered projection of the
    universe onto the union of its footprints, in universe column order
    (unfiltered and maximally wide = maximally stable).
    """
    if max_metareports < 1:
        raise PolicyError("max_metareports must be at least 1")
    if not workload:
        raise PolicyError("cannot generate meta-reports from an empty workload")
    universe_columns = catalog.output_names(universe_name)

    footprints: list[frozenset[str]] = []
    for report in workload:
        used = catalog.input_names(report.query).intersection(universe_columns)
        if not used:
            raise PolicyError(
                f"report {report.name!r} uses no column of universe "
                f"{universe_name!r}; is it defined over a different star?"
            )
        footprints.append(used)

    clusters: list[set[str]] = []
    for footprint in footprints:
        # Identical/subsumed footprints collapse immediately.
        for cluster in clusters:
            if footprint <= cluster:
                break
        else:
            clusters.append(set(footprint))

    def jaccard(a: set[str], b: set[str]) -> float:
        return len(a & b) / len(a | b)

    while len(clusters) > max_metareports:
        best: tuple[float, int, int] = (-1.0, 0, 1)
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                score = jaccard(clusters[i], clusters[j])
                if score > best[0]:
                    best = (score, i, j)
        _, i, j = best
        clusters[i] |= clusters[j]
        del clusters[j]

    order = {c: k for k, c in enumerate(universe_columns)}
    result = MetaReportSet()
    for n, cluster in enumerate(
        sorted(clusters, key=lambda c: sorted(order[x] for x in c))
    ):
        columns = sorted(cluster, key=order.__getitem__)
        query = Query.from_(universe_name).project(*columns)
        result.add(
            MetaReport(
                name=f"{name_prefix}_{n}",
                query=query,
                description=(
                    f"meta-report covering {len(columns)} columns of "
                    f"{universe_name}"
                ),
            )
        )
    return result
