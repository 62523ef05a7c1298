"""The privacy-requirements elicitation tool of §5, as a text protocol.

"The interaction between the BI provider and the data source can be
assisted by a privacy requirements elicitation tool with a simple graphical
user interface (GUI), which enables the BI provider to explain the
provenance of each data element and the transformations/integrations it
goes through. Privacy requirements will then be collected and formalized
directly in the tool by annotating reports and provenance schemes."

This module is that tool with the pixels removed: it renders, for each
meta-report, what the owner actually sees — columns with their provenance
explanations, sample rows with sensitive values masked for the session —
and collects proposed annotations into a draft PLA.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ElicitationError
from repro.core.annotations import Annotation
from repro.core.metareport import MetaReport
from repro.core.pla import PLA, PlaLevel, PlaRegistry
from repro.provenance.graph import ProvenanceGraph
from repro.provenance.where import where_of_cell
from repro.relational.catalog import Catalog
from repro.relational.engine import execute
from repro.relational.table import relation_identity

__all__ = ["ColumnCard", "ElicitationTool"]


@dataclass(frozen=True)
class ColumnCard:
    """One column as presented to the owner: name, samples, provenance."""

    column: str
    sample_values: tuple[str, ...]
    origin_cells: tuple[str, ...]  # where-provenance of the first sample
    origin_relations: tuple[str, ...]  # provider/table identities

    def render(self) -> str:
        samples = ", ".join(self.sample_values) or "(no data)"
        origins = ", ".join(self.origin_relations) or "(synthetic)"
        return f"{self.column}: e.g. {samples}  <- from {origins}"


@dataclass
class ElicitationTool:
    """One elicitation sitting over one meta-report."""

    catalog: Catalog
    provenance: ProvenanceGraph | None = None
    sample_rows: int = 3
    _proposed: dict[str, list[Annotation]] = field(default_factory=dict)

    # -- presentation -------------------------------------------------------

    def column_cards(self, metareport: MetaReport) -> list[ColumnCard]:
        """The owner-facing cards: values plus where they come from."""
        table = execute(metareport.query, self.catalog, name=metareport.name)
        cards = []
        for column in metareport.columns():
            samples = []
            for i in range(min(self.sample_rows, len(table))):
                value = table.row_dict(i).get(column)
                samples.append("NULL" if value is None else str(value))
            origin_cells: tuple[str, ...] = ()
            origin_relations: tuple[str, ...] = ()
            if len(table):
                refs = sorted(where_of_cell(table, 0, column))
                origin_cells = tuple(str(ref) for ref in refs[:3])
                origin_relations = tuple(
                    sorted(
                        {
                            relation_identity(ref.row.provider, ref.row.table)
                            for ref in refs
                        }
                    )
                )
            cards.append(
                ColumnCard(
                    column=column,
                    sample_values=tuple(samples),
                    origin_cells=origin_cells,
                    origin_relations=origin_relations,
                )
            )
        return cards

    def present(self, metareport: MetaReport) -> str:
        """The full owner-facing view of one meta-report."""
        lines = [f"META-REPORT {metareport.name!r}"]
        if metareport.description:
            lines.append(f"  {metareport.description}")
        lines.append("  columns:")
        for card in self.column_cards(metareport):
            lines.append(f"    - {card.render()}")
        if self.provenance is not None:
            try:
                source = metareport.query.source
                lines.append("  transformations:")
                for node in self.provenance.upstream_datasets(source):
                    if node.kind == "source":
                        lines.append(f"    - starts at {node.label()}")
            except Exception:
                pass  # provenance graph may not know this view; cards suffice
        return "\n".join(lines)

    # -- collection -----------------------------------------------------------

    def propose(self, metareport: MetaReport, annotation: Annotation) -> Annotation:
        """Record an annotation the owner stated during the discussion."""
        if hasattr(annotation, "attribute"):
            attribute = annotation.attribute  # type: ignore[attr-defined]
            if attribute not in metareport.columns():
                raise ElicitationError(
                    f"annotation targets {attribute!r}, which meta-report "
                    f"{metareport.name!r} does not show"
                )
        self._proposed.setdefault(metareport.name, []).append(annotation)
        return annotation

    def proposed_for(self, metareport_name: str) -> tuple[Annotation, ...]:
        return tuple(self._proposed.get(metareport_name, ()))

    def finalize(
        self,
        metareport: MetaReport,
        *,
        owner: str,
        registry: PlaRegistry,
        approve: bool = True,
    ) -> PLA:
        """Turn the collected annotations into a (approved) PLA."""
        proposed = self._proposed.get(metareport.name)
        if not proposed:
            raise ElicitationError(
                f"no annotations proposed for {metareport.name!r}"
            )
        pla = PLA(
            name=f"pla_{metareport.name}",
            owner=owner,
            level=PlaLevel.METAREPORT,
            target=metareport.name,
            annotations=tuple(proposed),
        )
        registry.add(pla)
        if approve:
            pla = registry.approve(pla.name)
        metareport.attach_pla(pla)
        self._proposed.pop(metareport.name, None)
        return pla
