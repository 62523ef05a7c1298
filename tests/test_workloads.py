"""Tests for the synthetic workload generators."""

import pytest

from repro.errors import WorkloadError
from repro.relational import Catalog
from repro.reports import EvolutionKind, ReportCatalog, apply_event
from repro.workloads import (
    HealthcareConfig,
    WorkloadSpec,
    generate,
    generate_evolution_stream,
    generate_report_workload,
    generate_requirements,
    paper_drugcost,
    paper_policies,
    paper_prescriptions,
)
from repro.workloads.distributions import partition_sizes, sample_date, zipf_choice
import random


class TestDistributions:
    def test_zipf_skews_to_front(self):
        rng = random.Random(1)
        items = list(range(10))
        draws = [zipf_choice(rng, items) for _ in range(2000)]
        assert draws.count(0) > draws.count(9)

    def test_zipf_empty_rejected(self):
        with pytest.raises(WorkloadError):
            zipf_choice(random.Random(1), [])

    def test_sample_date_valid(self):
        rng = random.Random(1)
        for _ in range(50):
            text = sample_date(rng, 2007, 2008)
            year = int(text[:4])
            assert 2007 <= year <= 2008

    def test_partition_sizes_sums(self):
        rng = random.Random(1)
        sizes = partition_sizes(103, 4, rng)
        assert sum(sizes) == 103 and len(sizes) == 4


class TestHealthcare:
    def test_deterministic(self):
        a = generate(HealthcareConfig(seed=3, n_patients=30, n_prescriptions=100))
        b = generate(HealthcareConfig(seed=3, n_patients=30, n_prescriptions=100))
        assert a.prescriptions.rows == b.prescriptions.rows
        assert a.policies.rows == b.policies.rows

    def test_sizes_match_config(self):
        data = generate(HealthcareConfig(n_patients=25, n_prescriptions=80, n_exams=40))
        assert len(data.prescriptions) == 80
        assert len(data.policies) == 25
        assert len(data.familydoctor) == 25
        assert len(data.residents) == 25
        assert len(data.exams) == 40

    def test_drug_disease_consistency(self):
        from repro.workloads import DRUG_DISEASES

        data = generate(HealthcareConfig(n_patients=30, n_prescriptions=200))
        for row in data.prescriptions.iter_dicts():
            assert DRUG_DISEASES[row["drug"]] == row["disease"]

    def test_sensitive_patients_never_consent_to_disease(self):
        data = generate(HealthcareConfig(n_patients=100, n_prescriptions=400))
        diseases = {
            row["patient"]: row["disease"]
            for row in data.prescriptions.iter_dicts()
        }
        for row in data.policies.iter_dicts():
            if diseases.get(row["patient"]) == "HIV":
                assert not row["show_disease"]

    def test_unexported_tables_exist(self):
        data = generate(HealthcareConfig(n_patients=20, n_prescriptions=10))
        names = set(data.unexported_tables())
        assert names == {"admissions", "billing", "staff", "equipment"}

    def test_invalid_config_rejected(self):
        with pytest.raises(WorkloadError):
            HealthcareConfig(n_patients=0)

    def test_paper_tables_match_figures(self):
        presc = paper_prescriptions()
        assert len(presc) == 5
        assert presc.row_dict(1)["patient"] == "Chris"
        assert presc.row_dict(1)["doctor"] is None  # the blank cell in Fig 2
        policies = paper_policies()
        assert policies.row_dict(0) == {
            "patient": "Alice", "show_name": True, "show_disease": False,
        }
        costs = {r["drug"]: r["cost"] for r in paper_drugcost().iter_dicts()}
        assert costs == {"DD": 50, "DM": 10, "DH": 60, "DV": 30, "DR": 10}


SPEC = WorkloadSpec(
    universe="wide",
    categorical=("drug", "disease", "doctor"),
    measures=("cost",),
    detail_columns=("patient", "drug", "cost"),
    audiences=(frozenset({"analyst"}), frozenset({"director"})),
    purposes=("care", "admin"),
    filter_values={"disease": ("asthma", "flu")},
    n_reports=20,
    seed=5,
    new_feed_columns=("exam_type",),
)


class TestReportWorkload:
    def test_deterministic(self):
        a = generate_report_workload(SPEC)
        b = generate_report_workload(SPEC)
        assert [r.query.describe() for r in a] == [r.query.describe() for r in b]

    def test_count_and_naming(self):
        reports = generate_report_workload(SPEC)
        assert len(reports) == 20
        assert reports[0].name == "rpt_000"

    def test_mix_of_aggregate_and_detail(self):
        reports = generate_report_workload(SPEC)
        aggregate = sum(1 for r in reports if r.query.is_aggregate)
        assert 0 < aggregate < len(reports)

    def test_columns_within_universe(self):
        universe = set(SPEC.categorical) | set(SPEC.measures) | set(SPEC.detail_columns)
        for report in generate_report_workload(SPEC):
            # Explicit select lists: reading them needs no relation.
            assert Catalog().input_names(report.query) <= universe


class TestEvolutionStream:
    def test_deterministic(self):
        base = generate_report_workload(SPEC)
        a = generate_evolution_stream(SPEC, base, n_events=30, seed=2)
        b = generate_evolution_stream(SPEC, base, n_events=30, seed=2)
        assert [e.describe() for e in a] == [e.describe() for e in b]

    def test_replayable_against_catalog(self):
        base = generate_report_workload(SPEC)
        events = generate_evolution_stream(SPEC, base, n_events=50, seed=4)
        catalog = ReportCatalog()
        for report in base:
            catalog.add(report)
        for event in events:
            apply_event(catalog, event)  # must never raise
        assert catalog.total_versions() >= len(base)

    def test_event_kind_mix(self):
        base = generate_report_workload(SPEC)
        events = generate_evolution_stream(SPEC, base, n_events=120, seed=4)
        kinds = {e.kind for e in events}
        assert EvolutionKind.ADD_REPORT in kinds
        assert EvolutionKind.DROP_REPORT in kinds
        assert len(kinds) >= 4

    def test_new_feed_reports_reference_feed_columns(self):
        base = generate_report_workload(SPEC)
        events = generate_evolution_stream(
            SPEC, base, n_events=60, seed=4, new_feed_rate=1.0
        )
        adds = [e for e in events if e.kind is EvolutionKind.ADD_REPORT]
        assert adds
        assert all(
            "exam_type" in Catalog().input_names(e.definition.query) for e in adds
        )


class TestRequirementWorkload:
    def test_deterministic_and_sized(self):
        a = generate_requirements(50, seed=9)
        b = generate_requirements(50, seed=9)
        assert len(a) == 50
        assert [x.requirement_kind for x in a] == [x.requirement_kind for x in b]

    def test_mix_contains_report_specific_kinds(self):
        kinds = {r.requirement_kind for r in generate_requirements(200, seed=9)}
        assert {"aggregation_threshold", "intensional_condition"} <= kinds
