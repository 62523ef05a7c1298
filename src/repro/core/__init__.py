"""Core contribution: PLA engineering across source/warehouse/meta-report/report.

This package implements the paper's primary proposal — eliciting and
modeling privacy requirements on reports and meta-reports, checking every
new/changed report for compliance by derivability from an approved
meta-report, and translating PLA annotations into runtime and ETL
enforcement.
"""

from repro.core.annotations import (
    ANNOTATION_KINDS,
    AggregationThreshold,
    Annotation,
    AnonymizationRequirement,
    AttributeAccess,
    IntegrationPermission,
    IntensionalCondition,
    JoinPermission,
)
from repro.core.compliance import (
    ComplianceChecker,
    ComplianceVerdict,
    ComplianceViolation,
    RuntimeObligation,
)
from repro.core.containment import (
    CanonicalQuery,
    DerivabilityResult,
    NotConjunctive,
    canonicalize,
    check_derivability,
    clear_proof_caches,
    is_contained,
    predicate_implies,
    proof_cache_stats,
)
from repro.core.elicitation import (
    ElicitationLedger,
    ElicitationSession,
    OwnerModel,
    SessionRecord,
)
from repro.core.gap import CoverageGap, CoverageReport, analyze_coverage
from repro.core.integration import IntegrationResult, PlaConflict, integrate_plas
from repro.core.levels import (
    COMPREHENSION_WEIGHTS,
    TESTABILITY,
    ElicitationArtifact,
    EngineeringLevel,
    MetaReportLevel,
    ReportLevel,
    SourceLevel,
    WarehouseLevel,
)
from repro.core.metareport import MetaReport, MetaReportSet, generate_metareports
from repro.core.pla import PLA, PlaLevel, PlaRegistry, PlaStatus
from repro.core.testcases import PlaTestHarness, PlaTestResult
from repro.core.tool import ColumnCard, ElicitationTool
from repro.core.translation import ReportLevelEnforcer, to_etl_registry, to_vpd_policy

__all__ = [
    "ANNOTATION_KINDS",
    "AggregationThreshold",
    "Annotation",
    "AnonymizationRequirement",
    "AttributeAccess",
    "COMPREHENSION_WEIGHTS",
    "CanonicalQuery",
    "ColumnCard",
    "ComplianceChecker",
    "ComplianceVerdict",
    "ComplianceViolation",
    "CoverageGap",
    "CoverageReport",
    "ElicitationTool",
    "analyze_coverage",
    "DerivabilityResult",
    "ElicitationArtifact",
    "ElicitationLedger",
    "ElicitationSession",
    "EngineeringLevel",
    "IntegrationPermission",
    "IntegrationResult",
    "IntensionalCondition",
    "JoinPermission",
    "PlaConflict",
    "integrate_plas",
    "MetaReport",
    "MetaReportLevel",
    "MetaReportSet",
    "NotConjunctive",
    "OwnerModel",
    "PLA",
    "PlaLevel",
    "PlaRegistry",
    "PlaStatus",
    "PlaTestHarness",
    "PlaTestResult",
    "ReportLevel",
    "ReportLevelEnforcer",
    "RuntimeObligation",
    "SessionRecord",
    "SourceLevel",
    "TESTABILITY",
    "WarehouseLevel",
    "canonicalize",
    "check_derivability",
    "clear_proof_caches",
    "generate_metareports",
    "is_contained",
    "predicate_implies",
    "proof_cache_stats",
    "to_etl_registry",
    "to_vpd_policy",
]
