"""The end-to-end Fig-1 scenario: providers → ETL → warehouse → reports.

:func:`build_scenario` assembles the whole outsourced-BI deployment the
paper describes: four data providers with consents and gateways, a staging
area, an annotated ETL flow with entity integration, a star-schema
warehouse with its wide view, a generated report workload, generated
meta-reports with attached PLAs, the compliance checker, the report-level
enforcer, and the audit log. Every benchmark and example builds on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.anonymize.generalization import year_hierarchy, zip_hierarchy
from repro.anonymize.pseudonym import Pseudonymizer
from repro.audit.log import AuditLog
from repro.core.annotations import (
    AggregationThreshold,
    Annotation,
    AnonymizationRequirement,
    AttributeAccess,
    IntegrationPermission,
    IntensionalCondition,
    JoinPermission,
)
from repro.core.compliance import ComplianceChecker
from repro.core.metareport import MetaReportSet, generate_metareports
from repro.core.pla import PLA, PlaLevel, PlaRegistry
from repro.core.translation import ReportLevelEnforcer
from repro.etl.flow import EtlFlow, FlowResult
from repro.etl.operators import ExtractOp, IntegrateOp, JoinOp, LoadOp
from repro.etl.staging import StagingArea
from repro.policy.subjects import SubjectRegistry
from repro.provenance.graph import ProvenanceGraph
from repro.relational.catalog import Catalog
from repro.relational.expressions import Col, Comparison, Lit
from repro.reports.catalog import ReportCatalog
from repro.reports.definition import ReportDefinition
from repro.sources.consent import ConsentRegistry
from repro.sources.provider import DataProvider, ProviderKind, TrustPosture
from repro.warehouse.star import StarSchema, build_dimension, build_fact
from repro.workloads import healthcare
from repro.workloads.reports_workload import (
    WorkloadSpec,
    generate_report_workload,
)

__all__ = ["ScenarioConfig", "Scenario", "build_scenario", "standard_annotations"]

ROLES = ("analyst", "auditor", "health_director", "municipality_official")
PURPOSES = (
    "care/quality",
    "admin/reimbursement",
    "research/epidemiology",
)

AUDIENCES = (
    frozenset({"analyst"}),
    frozenset({"analyst", "auditor"}),
    frozenset({"health_director"}),
    frozenset({"municipality_official"}),
    frozenset({"analyst", "health_director"}),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the end-to-end scenario.

    ``source_enforces`` switches the hospital to the §3 SOURCE_ENFORCES
    posture: its exports pass through a Fig 2 gateway (consent-driven
    pseudonymization/suppression and the intensional HIV-rows-stay-home
    rule) *before* the BI provider sees them.
    """

    healthcare: healthcare.HealthcareConfig = healthcare.HealthcareConfig()
    n_reports: int = 30
    max_metareports: int = 4
    aggregation_threshold: int = 5
    seed: int = 11
    source_enforces: bool = False


@dataclass
class Scenario:
    """Everything one deployment consists of."""

    config: ScenarioConfig
    data: healthcare.HealthcareData
    providers: dict[str, DataProvider]
    bi_catalog: Catalog
    staging: StagingArea
    flow: EtlFlow
    flow_result: FlowResult
    star: StarSchema
    wide_columns: tuple[str, ...]
    subjects: SubjectRegistry
    workload: list[ReportDefinition]
    report_catalog: ReportCatalog
    metareports: MetaReportSet
    pla_registry: PlaRegistry
    checker: ComplianceChecker
    enforcer: ReportLevelEnforcer
    audit_log: AuditLog = field(default_factory=AuditLog)
    provenance: ProvenanceGraph = field(default_factory=ProvenanceGraph)

    @property
    def universe_name(self) -> str:
        return self.star.wide_view_name()

    def workload_spec(self) -> WorkloadSpec:
        """The spec the workload (and its evolution) was generated from."""
        return _workload_spec(self.universe_name, self.config)

    def delivery_service(self) -> "DeliveryService":
        """The serving layer wired to this scenario's audit log."""
        from repro.reports.delivery import DeliveryService

        return DeliveryService(
            reports=self.report_catalog,
            checker=self.checker,
            enforcer=self.enforcer,
            subjects=self.subjects,
            audit_log=self.audit_log,
        )


def _workload_spec(universe: str, config: ScenarioConfig) -> WorkloadSpec:
    # birth_year is loaded into the warehouse but no report uses it — the
    # §4 "reduced, yet not eliminated" residue of over-engineering.
    return WorkloadSpec(
        universe=universe,
        categorical=("drug", "disease", "doctor", "zip", "gender"),
        measures=("cost",),
        detail_columns=("patient", "drug", "disease", "doctor", "date", "cost", "zip"),
        new_feed_columns=("exam_type", "result"),
        audiences=AUDIENCES,
        purposes=PURPOSES,
        filter_values={
            "disease": ("asthma", "diabetes", "flu", "hypertension"),
            "drug": ("DR", "DM", "DB", "DA"),
            "gender": ("F", "M"),
        },
        n_reports=config.n_reports,
        seed=config.seed,
    )


def standard_annotations(
    wide_columns: tuple[str, ...],
    *,
    aggregation_threshold: int,
) -> list[Annotation]:
    """The scenario's privacy requirements, in PLA-annotation form.

    These are the healthcare-project requirements §2 motivates: patient
    identity pseudonymized and restricted, HIV rows never delivered, doctors
    visible only to officials, group-size floors on aggregates, and the
    municipality's "do not cross my registry with lab data" rule. The list
    is exactly what :func:`build_scenario` attaches per meta-report (scoped
    to the columns each meta-report exposes).
    """
    return _annotations_for(wide_columns, aggregation_threshold)


def build_scenario(config: ScenarioConfig | None = None) -> Scenario:
    """Assemble the full deployment deterministically."""
    cfg = config if config is not None else ScenarioConfig()
    data = healthcare.generate(cfg.healthcare)

    # -- providers (Fig 1) -------------------------------------------------
    hospital = DataProvider(
        "hospital", ProviderKind.HOSPITAL, posture=TrustPosture.BI_ENFORCES
    )
    hospital.add_table(data.prescriptions)
    if data.admissions is not None:
        hospital.add_table(data.admissions)
    if data.billing is not None:
        hospital.add_table(data.billing)
    if data.staff is not None:
        hospital.add_table(data.staff)
    hospital.consents = ConsentRegistry.from_policies_table(data.policies)
    municipality = DataProvider(
        "municipality", ProviderKind.MUNICIPALITY, posture=TrustPosture.BI_ENFORCES
    )
    municipality.add_table(data.familydoctor)
    municipality.add_table(data.residents)
    laboratory = DataProvider(
        "laboratory", ProviderKind.LABORATORY, posture=TrustPosture.BI_ENFORCES
    )
    laboratory.add_table(data.exams)
    if data.equipment is not None:
        laboratory.add_table(data.equipment)
    agency = DataProvider(
        "health_agency", ProviderKind.HEALTH_AGENCY, posture=TrustPosture.BI_ENFORCES
    )
    agency.add_table(data.drugcost)
    providers = {
        p.name: p for p in (hospital, municipality, laboratory, agency)
    }

    # -- source posture --------------------------------------------------------
    prescriptions_feed = data.prescriptions
    gateway_report = None
    if cfg.source_enforces:
        from repro.policy.intensional import IntensionalAssociation
        from repro.sources.filters import CellPolicy, SourceGateway

        hospital.posture = TrustPosture.SOURCE_ENFORCES
        hospital.metadata.add(
            IntensionalAssociation(
                "hiv-rows-stay-home",
                "prescriptions",
                Comparison("=", Col("disease"), Lit("HIV")),
                {"deny_row": True},
            )
        )
        gateway = SourceGateway(
            hospital, pseudonymizer=Pseudonymizer(salt="hospital-gateway")
        )
        gateway.add_cell_policy(CellPolicy("patient", "show_name", "pseudonymize"))
        export_subjects = SubjectRegistry()
        export_subjects.purposes.declare("care/quality")
        export_subjects.add_role("bi_provider")
        export_subjects.add_user("bi", "bi_provider")
        prescriptions_feed, gateway_report = gateway.export_table(
            "prescriptions", export_subjects.context("bi", "care/quality")
        )

    # -- staging + ETL -------------------------------------------------------
    bi_catalog = Catalog()
    staging = StagingArea(bi_catalog)
    provenance = ProvenanceGraph()
    if gateway_report is not None:
        staging.stage(prescriptions_feed, gateway_report=gateway_report)
    flow = EtlFlow("healthcare_load")
    flow.add(ExtractOp("x_presc", prescriptions_feed, "stg_prescriptions"))
    flow.add(ExtractOp("x_fd", data.familydoctor, "stg_familydoctor"))
    flow.add(ExtractOp("x_cost", data.drugcost, "stg_drugcost"))
    flow.add(ExtractOp("x_res", data.residents, "stg_residents"))
    flow.add(ExtractOp("x_exams", data.exams, "stg_exams"))
    flow.add(
        IntegrateOp(
            "fill_doctor",
            "stg_prescriptions",
            "stg_familydoctor",
            "presc_filled",
            key=("patient", "patient"),
            fill_column="doctor",
            reference_column="doctor",
        )
    )
    flow.add(
        JoinOp(
            "join_cost",
            "presc_filled",
            "stg_drugcost",
            [("drug", "drug")],
            "presc_cost",
        )
    )
    # Left join: with SOURCE_ENFORCES, pseudonymized patients cannot match
    # the municipality registry; the facts survive with NULL demographics —
    # the measurable §3 cost of source-side anonymization to integration.
    flow.add(
        JoinOp(
            "join_residents",
            "presc_cost",
            "stg_residents",
            [("patient", "patient")],
            "presc_wide",
            how="left",
        )
    )
    flow.add(LoadOp("load_wide", "presc_wide", "dwh_prescriptions"))
    flow_result = flow.run(bi_catalog, graph=provenance)

    # -- star schema ---------------------------------------------------------
    wide = bi_catalog.table("dwh_prescriptions")
    dim_drug = build_dimension("drug", wide, ["drug"])
    dim_disease = build_dimension("disease", wide, ["disease"])
    dim_doctor = build_dimension("doctor", wide, ["doctor"])
    dim_patient = build_dimension(
        "patient", wide, ["patient", "zip", "birth_year", "gender"],
        levels=["patient", "zip", "birth_year", "gender"],
    )
    fact = build_fact(
        "prescriptions",
        wide,
        [
            (dim_drug, {"drug": "drug"}),
            (dim_disease, {"disease": "disease"}),
            (dim_doctor, {"doctor": "doctor"}),
            (
                dim_patient,
                {
                    "patient": "patient",
                    "zip": "zip",
                    "birth_year": "birth_year",
                    "gender": "gender",
                },
            ),
        ],
        measures=["cost"],
        degenerate=["date"],
    )
    star = StarSchema(
        "prescriptions", fact, [dim_drug, dim_disease, dim_doctor, dim_patient]
    )
    star.register(bi_catalog)
    wide_columns = star.wide_view().query.output_names()
    assert wide_columns is not None

    # -- subjects --------------------------------------------------------------
    subjects = SubjectRegistry()
    for purpose in PURPOSES:
        subjects.purposes.declare(purpose)
    for role in ROLES:
        subjects.add_role(role)
    subjects.add_user("ann", "analyst")
    subjects.add_user("aldo", "auditor")
    subjects.add_user("dora", "health_director")
    subjects.add_user("mara", "municipality_official")

    # -- report workload + meta-reports -----------------------------------------
    spec = _workload_spec(star.wide_view_name(), cfg)
    workload = generate_report_workload(spec)
    report_catalog = ReportCatalog()
    for definition in workload:
        report_catalog.add(definition)

    metareports = generate_metareports(
        workload,
        star.wide_view_name(),
        bi_catalog,
        max_metareports=cfg.max_metareports,
    )
    metareports.register_views(bi_catalog)

    pla_registry = PlaRegistry()
    for metareport in metareports:
        annotations = _annotations_for(
            metareport.columns(), cfg.aggregation_threshold
        )
        pla = PLA(
            name=f"pla_{metareport.name}",
            owner="hospital",
            level=PlaLevel.METAREPORT,
            target=metareport.name,
            annotations=tuple(annotations),
        )
        pla_registry.add(pla)
        metareport.attach_pla(pla_registry.approve(pla.name))

    checker = ComplianceChecker(catalog=bi_catalog, metareports=metareports)
    enforcer = ReportLevelEnforcer(
        catalog=bi_catalog,
        pseudonymizer=Pseudonymizer(salt="trentino-bi"),
        hierarchies={"zip": zip_hierarchy(), "birth_year": year_hierarchy()},
    )
    return Scenario(
        config=cfg,
        data=data,
        providers=providers,
        bi_catalog=bi_catalog,
        staging=staging,
        flow=flow,
        flow_result=flow_result,
        star=star,
        wide_columns=wide_columns,
        subjects=subjects,
        workload=workload,
        report_catalog=report_catalog,
        metareports=metareports,
        pla_registry=pla_registry,
        checker=checker,
        enforcer=enforcer,
        provenance=provenance,
    )


def extend_with_exams_mart(scenario: Scenario) -> dict[str, object]:
    """Add the laboratory exams mart — and watch the PLAs bite.

    The municipality's PLA prohibits combining its residents registry with
    laboratory exams. This extension builds exactly that flow twice:

    * an ETL attempt ``exams ⋈ residents`` with the PLA projected into the
      ETL registry — blocked *before* materialization (Fig 3 path);
    * a legitimate exams-only warehouse table plus a report; any report
      whose lineage would span both sources is caught by the compliance
      checker's source-footprint check (report-level path).

    Returns a summary dict used by tests and the extended example.
    """
    from repro.core.translation import to_etl_registry
    from repro.etl.operators import JoinOp, LoadOp

    data = scenario.data
    etl_registry = to_etl_registry(
        [m.pla for m in scenario.metareports if m.pla is not None]
    )

    # -- the prohibited flow: exams enriched with residents ------------------
    prohibited = EtlFlow("exams_with_residents")
    prohibited.add(ExtractOp("x_exams2", data.exams, "stg2_exams"))
    prohibited.add(ExtractOp("x_res2", data.residents, "stg2_residents"))
    prohibited.add(
        JoinOp(
            "join_res",
            "stg2_exams",
            "stg2_residents",
            [("patient", "patient")],
            "exams_res",
        )
    )
    prohibited.add(LoadOp("load_bad", "exams_res", "dwh_exams_res"))
    prohibited_result = prohibited.run(
        Catalog(), pla=etl_registry, graph=scenario.provenance
    )

    # -- the legitimate exams mart -------------------------------------------
    legit = EtlFlow("exams_mart")
    legit.add(ExtractOp("x_exams3", data.exams, "stg_lab_exams"))
    legit.add(LoadOp("load_exams", "stg_lab_exams", "dwh_exams"))
    legit_result = legit.run(
        scenario.bi_catalog, pla=etl_registry, graph=scenario.provenance
    )

    exams = scenario.bi_catalog.table("dwh_exams")
    from repro.warehouse.star import build_dimension, build_fact

    dim_exam = build_dimension("exam_type", exams, ["exam_type"])
    fact = build_fact(
        "exams",
        exams,
        [(dim_exam, {"exam_type": "exam_type"})],
        measures=["result"],
        degenerate=["patient", "date"],
    )
    star = StarSchema("exams", fact, [dim_exam])
    star.register(scenario.bi_catalog)
    return {
        "prohibited_result": prohibited_result,
        "legit_result": legit_result,
        "exams_star": star,
        "etl_registry": etl_registry,
    }


def _annotations_for(
    columns: tuple[str, ...], aggregation_threshold: int
) -> list[Annotation]:
    """Scenario annotations applicable to one meta-report's column set."""
    out: list[Annotation] = [
        AggregationThreshold(min_group_size=aggregation_threshold, scope="patient"),
        JoinPermission(
            left="municipality/residents",
            right="laboratory/exams",
            allowed=False,
        ),
        IntegrationPermission(owner="municipality", allowed=True),
        # The HIV rule binds every meta-report over prescription data, not
        # just those displaying the disease column — it is evaluated as a
        # *hidden* column where necessary (§5's hidden-HIV-column device).
        IntensionalCondition(
            attribute="disease",
            condition=Comparison("!=", Col("disease"), Lit("HIV")),
            action="suppress_row",
        ),
    ]
    if "patient" in columns:
        out.append(AnonymizationRequirement(attribute="patient", method="pseudonymize"))
        out.append(
            AttributeAccess(
                attribute="patient",
                allowed_roles=frozenset({"health_director", "analyst"}),
            )
        )
    if "doctor" in columns:
        out.append(
            AttributeAccess(
                attribute="doctor",
                allowed_roles=frozenset(
                    {"health_director", "municipality_official", "analyst", "auditor"}
                ),
            )
        )
    return out
