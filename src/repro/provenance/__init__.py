"""Provenance: why-lineage, where-provenance, and dataset-level DAGs."""

from repro.provenance.graph import DatasetNode, ProvenanceGraph, TransformNode
from repro.provenance.masks import LeafContribution, MaskProvenance
from repro.provenance.lineage import (
    LineageTrace,
    base_footprint,
    rows_influenced_by,
    trace_row,
)
from repro.provenance.where import (
    CellOrigin,
    CellProvenance,
    classify_cell,
    where_of_cell,
)

__all__ = [
    "CellOrigin",
    "CellProvenance",
    "DatasetNode",
    "LeafContribution",
    "LineageTrace",
    "MaskProvenance",
    "ProvenanceGraph",
    "TransformNode",
    "base_footprint",
    "classify_cell",
    "rows_influenced_by",
    "trace_row",
    "where_of_cell",
]
