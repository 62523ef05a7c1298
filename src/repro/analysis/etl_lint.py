"""Static lint of ETL flows (codes ETL001 and PLA005), execution-free.

Works entirely on :meth:`repro.etl.flow.EtlFlow.static_footprints` — the
design-time ``provider/table`` footprint of every operator output — so no
operator runs and no data moves. Two families of findings:

* **ETL001**: an operator merges data of two or more owners but no
  constraint in the ETL PLA registry speaks about any of the relations or
  owners involved — the combination is legal by *omission*, not by
  agreement, which §5 treats as an elicitation gap.
* **PLA005**: a prohibited relation pair is *reachable*: some operator
  output (or an already-materialized catalog table) carries both sides of a
  join prohibition in one lineage footprint, no matter how many
  intermediate steps laundered the merge.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.etl.annotations import (
    EtlConstraint,
    EtlPlaRegistry,
    IntegrationProhibition,
    JoinProhibition,
    OperationRestriction,
)
from repro.etl.flow import EtlFlow
from repro.relational.catalog import Catalog

__all__ = ["lint_flow", "lint_catalog_lineage", "prohibited_pairs_of"]

_COMBINING_KINDS = frozenset({"join", "integrate"})


def prohibited_pairs_of(registry: EtlPlaRegistry | None) -> tuple[frozenset[str], ...]:
    """The relation pairs the registry's join prohibitions forbid."""
    if registry is None:
        return ()
    pairs = []
    for constraint in registry.constraints:
        if isinstance(constraint, JoinProhibition):
            pairs.append(frozenset((constraint.left, constraint.right)))
    return tuple(pairs)


def _constraint_covers(
    constraint: EtlConstraint, footprint: frozenset[str], owners: frozenset[str]
) -> bool:
    """Does this constraint say anything about the data being combined?"""
    if isinstance(constraint, JoinProhibition):
        return constraint.left in footprint or constraint.right in footprint
    if isinstance(constraint, OperationRestriction):
        return constraint.relation in footprint
    if isinstance(constraint, IntegrationProhibition):
        return constraint.owner in owners
    return False


def lint_flow(
    flow: EtlFlow,
    *,
    registry: EtlPlaRegistry | None,
    catalog: Catalog | None = None,
    prohibited_pairs: tuple[frozenset[str], ...] = (),
) -> list[Diagnostic]:
    """Static findings for one flow; nothing is executed."""
    footprints = flow.static_footprints(catalog)
    constraints = registry.constraints if registry is not None else []
    out: list[Diagnostic] = []
    for op in flow.operators:
        location = f"flow:{flow.name}/{op.name}"
        in_footprint: set[str] = set()
        for name in op.inputs:
            in_footprint |= footprints.get(name, frozenset())
        # Extract operators' inputs name provider tables outside the flow
        # namespace; their own output footprint is the authoritative one.
        in_footprint |= footprints.get(op.output, frozenset())
        owners = frozenset(identity.partition("/")[0] for identity in in_footprint)

        for pair in prohibited_pairs:
            if pair <= footprints.get(op.output, frozenset()):
                out.append(
                    Diagnostic(
                        code="PLA005",
                        severity=Severity.ERROR,
                        location=location,
                        message=(
                            f"operator output {op.output!r} would carry data "
                            f"from both {sorted(pair)}, which a PLA prohibits "
                            "combining"
                        ),
                        fix_hint=(
                            "remove one side from the flow, or renegotiate "
                            "the join prohibition with the owner"
                        ),
                    )
                )

        if op.kind in _COMBINING_KINDS and len(owners) >= 2:
            if not any(
                _constraint_covers(c, frozenset(in_footprint), owners)
                for c in constraints
            ):
                out.append(
                    Diagnostic(
                        code="ETL001",
                        severity=Severity.WARNING,
                        location=location,
                        message=(
                            f"{op.kind} operator combines data of owners "
                            f"{sorted(owners)} but no ETL-level PLA "
                            "constraint covers any relation involved"
                        ),
                        fix_hint=(
                            "elicit a join/integration permission from the "
                            "owners and register it in the ETL PLA registry"
                        ),
                    )
                )
    return out


def lint_catalog_lineage(
    catalog: Catalog,
    prohibited_pairs: tuple[frozenset[str], ...],
) -> list[Diagnostic]:
    """PLA005 over already-materialized tables: lineage that merged both
    sides of a prohibition (the after-the-fact audit of the same rule)."""
    out: list[Diagnostic] = []
    if not prohibited_pairs:
        return out
    for name in catalog.table_names():
        footprint = catalog.table(name).footprint()
        for pair in prohibited_pairs:
            if pair <= footprint:
                out.append(
                    Diagnostic(
                        code="PLA005",
                        severity=Severity.ERROR,
                        location=f"table:{name}",
                        message=(
                            f"table lineage already combines {sorted(pair)}, "
                            "which a PLA prohibits"
                        ),
                        fix_hint="rebuild the table without the prohibited side",
                    )
                )
    return out
