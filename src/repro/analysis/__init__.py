"""Static privacy-flow analysis and PLA lint over the whole BI catalog.

The paper's central claim (§5) is that meta-report PLAs make compliance
*statically checkable*: every report should be provable as a view of an
approved meta-report before anything runs. This package is that claim as a
compiler-style analysis layer — the catalog's column-level lineage plus the
columns predicates disclose, a quasi-identifier taint lattice, a rule-set
linter over PLA annotation sets, an execution-free ETL flow check, and a
whole-catalog pass emitting typed :class:`Diagnostic` findings with stable
codes (``PLA001``…``RPT002``), runnable in CI via ``repro lint``.
"""

from repro.analysis.analyzer import AnalysisInput, StaticAnalyzer, analyze_scenario
from repro.analysis.dataflow import ColumnFlow, QueryFlow, column_flows
from repro.analysis.diagnostics import CODES, Diagnostic, DiagnosticReport, Severity
from repro.analysis.etl_lint import (
    lint_catalog_lineage,
    lint_flow,
    prohibited_pairs_of,
)
from repro.analysis.render import render_json, render_text
from repro.analysis.rules import lint_pla
from repro.analysis.taint import (
    Sensitivity,
    SensitivityMap,
    healthcare_sensitivity,
    join_sensitivity,
)

__all__ = [
    "AnalysisInput",
    "StaticAnalyzer",
    "analyze_scenario",
    "ColumnFlow",
    "QueryFlow",
    "column_flows",
    "CODES",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "lint_catalog_lineage",
    "lint_flow",
    "prohibited_pairs_of",
    "lint_pla",
    "render_json",
    "render_text",
    "Sensitivity",
    "SensitivityMap",
    "healthcare_sensitivity",
    "join_sensitivity",
]
