"""Pinned covering decisions on the three reference deployments.

``MetaReportSet.find_covering`` takes the first approved meta-report a
report is derivable from, and that choice decides which PLA's obligations
a delivery applies. These values were recorded before derivability became
containment over the view-inlining canonical form, so a change to the §5
check that moves any report to another meta-report, or uncovers it,
fails here. The verify counts, every lint diagnostic and the ingested
reports' lineage maps of the same deployments are pinned beside them,
recorded before the catalog's lineage walk replaced the analyzer's own.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import AnalysisInput, StaticAnalyzer
from repro.ingest import emit_deployment, ingest_suite
from repro.persistence import load_deployment
from repro.simulation import build_scenario
from repro.verify import DeploymentVerifier, VerificationInput

SUITES = Path(__file__).resolve().parents[1] / "examples" / "sql_suites"

COVERING = {
    'seed': {
        'rpt_000': 'mr_1',
        'rpt_001': 'mr_0',
        'rpt_002': 'mr_0',
        'rpt_003': 'mr_0',
        'rpt_004': 'mr_0',
        'rpt_005': 'mr_0',
        'rpt_006': 'mr_0',
        'rpt_007': 'mr_0',
        'rpt_008': 'mr_0',
        'rpt_009': 'mr_0',
        'rpt_010': 'mr_0',
        'rpt_011': 'mr_3',
        'rpt_012': 'mr_0',
        'rpt_013': 'mr_0',
        'rpt_014': 'mr_0',
        'rpt_015': 'mr_0',
        'rpt_016': 'mr_0',
        'rpt_017': 'mr_0',
        'rpt_018': 'mr_0',
        'rpt_019': 'mr_1',
        'rpt_020': 'mr_0',
        'rpt_021': 'mr_0',
        'rpt_022': 'mr_0',
        'rpt_023': 'mr_0',
        'rpt_024': 'mr_0',
        'rpt_025': 'mr_0',
        'rpt_026': 'mr_0',
        'rpt_027': 'mr_2',
        'rpt_028': 'mr_0',
        'rpt_029': 'mr_0',
    },
    'tpch': {
        'discount_revenue': 'mr_ingested_universe',
        'gender_case_mix': 'mr_ingested_universe',
        'price_band_catalog': 'mr_ingested_universe',
        'pricing_summary': 'mr_ingested_universe',
        'promo_cost_share': 'mr_ingested_universe',
        'regional_cohort_spend': 'mr_ingested_universe',
        'seasonal_cost_profile': 'mr_ingested_universe',
        'top_spend_drugs': 'mr_ingested_universe',
    },
    'suite': {
        'chronic_cost_by_drug': 'mr_ingested_universe',
        'costly_flu_regions': 'mr_ingested_universe',
        'elderly_cost_by_disease': 'mr_ingested_universe',
        'elderly_dense_regions': 'mr_ingested_universe',
        'high_cost_regions': 'mr_ingested_universe',
        'top_flu_drugs': 'mr_ingested_universe',
    },
}

VERIFY_COUNTS = {
    "seed": {"proved": 46, "refuted": 0, "unknown": 0},
    "tpch": {"proved": 10, "refuted": 0, "unknown": 0},
    "suite": {"proved": 8, "refuted": 0, "unknown": 0},
}

LINT_DIAGNOSTICS = {'seed': [('PLA001',
           'metareport:mr_0',
           "quasi column 'gender' is exposed but no attribute-level annotation of the "
           'PLA covers it'),
          ('PLA001',
           'metareport:mr_2',
           "quasi column 'zip' is exposed but no attribute-level annotation of the PLA "
           'covers it'),
          ('PLA001',
           'metareport:mr_2',
           "quasi column 'gender' is exposed but no attribute-level annotation of the "
           'PLA covers it'),
          ('PLA001',
           'metareport:mr_3',
           "quasi column 'zip' is exposed but no attribute-level annotation of the PLA "
           'covers it'),
          ('RPT002',
           'report:rpt_000',
           "detail report copies direct identifier 'patient' (from "
           "['dim_patient.patient']) into its output"),
          ('RPT002',
           'report:rpt_002',
           "detail report copies direct identifier 'patient' (from "
           "['dim_patient.patient']) into its output"),
          ('RPT002',
           'report:rpt_013',
           "detail report copies direct identifier 'patient' (from "
           "['dim_patient.patient']) into its output"),
          ('RPT002',
           'report:rpt_016',
           "detail report copies direct identifier 'patient' (from "
           "['dim_patient.patient']) into its output"),
          ('RPT002',
           'report:rpt_026',
           "detail report copies direct identifier 'patient' (from "
           "['dim_patient.patient']) into its output"),
          ('ETL001',
           'flow:healthcare_load/fill_doctor',
           "integrate operator combines data of owners ['hospital', 'municipality'] "
           'but no ETL-level PLA constraint covers any relation involved'),
          ('ETL001',
           'flow:healthcare_load/join_cost',
           "join operator combines data of owners ['health_agency', 'hospital', "
           "'municipality'] but no ETL-level PLA constraint covers any relation "
           'involved')],
 'suite': [],
 'tpch': []}

LINEAGE = {'suite': {'chronic_cost_by_drug': {'drug': ['dim_drug.drug'],
                                    'prescriptions': [],
                                    'total_cost': ['fact_prescriptions.cost']},
           'costly_flu_regions': {'total_cost': ['fact_prescriptions.cost'],
                                  'zip': ['dim_patient.zip']},
           'elderly_cost_by_disease': {'avg_cost': ['fact_prescriptions.cost'],
                                       'disease': ['dim_disease.disease'],
                                       'prescriptions': []},
           'elderly_dense_regions': {'prescriptions': [], 'zip': ['dim_patient.zip']},
           'high_cost_regions': {'cost': ['fact_prescriptions.cost'],
                                 'zip': ['dim_patient.zip']},
           'top_flu_drugs': {'drug': ['dim_drug.drug'], 'prescriptions': []}},
 'tpch': {'discount_revenue': {'revenue': ['fact_prescriptions.cost']},
          'gender_case_mix': {'disease': ['dim_disease.disease'], 'prescriptions': []},
          'price_band_catalog': {'disease': ['dim_disease.disease'],
                                 'drug': ['dim_drug.drug'],
                                 'price_band': ['fact_prescriptions.cost']},
          'pricing_summary': {'avg_cost': ['fact_prescriptions.cost'],
                              'drug': ['dim_drug.drug'],
                              'max_cost': ['fact_prescriptions.cost'],
                              'min_cost': ['fact_prescriptions.cost'],
                              'prescriptions': [],
                              'total_cost': ['fact_prescriptions.cost']},
          'promo_cost_share': {'drug': ['dim_drug.drug'],
                               'promo_cost': ['fact_prescriptions.cost']},
          'regional_cohort_spend': {'prescriptions': [],
                                    'total_cost': ['fact_prescriptions.cost'],
                                    'zip': ['dim_patient.zip']},
          'seasonal_cost_profile': {'avg_cost': ['fact_prescriptions.cost'],
                                    'disease': ['dim_disease.disease']},
          'top_spend_drugs': {'drug': ['dim_drug.drug'],
                              'total_cost': ['fact_prescriptions.cost']}}}

LINT_SUMMARIES = {
    "seed": "lint[1 flows, 4 metareports, 30 reports, 14 tables]: 11 warning(s)",
    "tpch": "lint[0 flows, 1 metareports, 8 reports, 14 tables]: clean",
    "suite": "lint[0 flows, 1 metareports, 6 reports, 14 tables]: clean",
}


@pytest.fixture(scope="module")
def deployments(tmp_path_factory):
    """(catalog, meta-reports, reports, verification input, ingested
    lineage) per deployment."""
    scenario = build_scenario()
    out = {
        "seed": (
            scenario.bi_catalog,
            scenario.metareports,
            scenario.report_catalog,
            VerificationInput.from_scenario(scenario),
            None,
        )
    }
    for name, suite in (("tpch", SUITES / "tpch"), ("suite", SUITES)):
        # As ``repro ingest --emit-catalog`` builds it.
        host = build_scenario()
        root = tmp_path_factory.mktemp(name) / "dep"
        result = ingest_suite(suite, catalog=host.bi_catalog)
        emit_deployment(result, root, scenario=host)
        deployment = load_deployment(root)
        out[name] = (
            deployment.catalog,
            deployment.metareports,
            deployment.reports,
            VerificationInput.from_deployment(load_deployment(root)),
            result.lineage,
        )
    return out


@pytest.mark.parametrize("name", sorted(COVERING))
def test_covering_metareport_per_report(deployments, name):
    catalog, metareports, reports, *_ = deployments[name]
    covering = {}
    for report in reports.all_current():
        metareport, _attempts = metareports.find_covering(report, catalog)
        covering[report.name] = None if metareport is None else metareport.name
    assert covering == COVERING[name]


@pytest.mark.parametrize("name", sorted(VERIFY_COUNTS))
def test_verify_counts(deployments, name):
    report = DeploymentVerifier(deployments[name][3]).verify()
    assert report.counts() == VERIFY_COUNTS[name]


def lint(deployments, name):
    catalog, metareports, reports, *_ = deployments[name]
    if name == "seed":
        analyzer = StaticAnalyzer.for_scenario(build_scenario())
    else:
        analyzer = StaticAnalyzer(
            AnalysisInput(catalog=catalog, metareports=metareports, reports=reports)
        )
    return analyzer.analyze()


@pytest.mark.parametrize("name", sorted(LINT_SUMMARIES))
def test_lint_summary(deployments, name):
    assert lint(deployments, name).summary() == LINT_SUMMARIES[name]


@pytest.mark.parametrize("name", sorted(LINT_DIAGNOSTICS))
def test_lint_diagnostics(deployments, name):
    report = lint(deployments, name)
    got = [(d.code, d.location, d.message) for d in report.diagnostics]
    assert got == LINT_DIAGNOSTICS[name]


@pytest.mark.parametrize("name", sorted(LINEAGE))
def test_ingested_lineage(deployments, name):
    assert deployments[name][4] == LINEAGE[name]
