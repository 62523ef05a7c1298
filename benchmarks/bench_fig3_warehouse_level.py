"""FIG3 — PLAs at the DWH/ETL level (paper Fig 3).

Regenerates Fig 3's mechanism: annotations on ETL procedures restrict the
operations allowed on source tables. The flow attempts the paper's
FamilyDoctor ⋈ Prescriptions ⋈ DrugCost combination; with the
municipality's join prohibition in force, the prohibited operator (and
everything downstream of it) never materializes, and a *laundered* variant
(routing the data through an integrate step first) is caught through
lineage, not wiring.

Expected shape: prohibited ops blocked = exactly the annotated ones;
permitted pipeline unchanged; laundering detected; zero prohibited
combinations in any produced table.

Run standalone:  python benchmarks/bench_fig3_warehouse_level.py
"""

from __future__ import annotations

from repro.bench import print_table
from repro.etl import (
    EtlFlow,
    EtlPlaRegistry,
    ExtractOp,
    IntegrateOp,
    IntegrationProhibition,
    JoinOp,
    JoinProhibition,
    LoadOp,
)
from repro.relational import Catalog
from repro.workloads import HealthcareConfig, generate


def build_flow(data) -> EtlFlow:
    flow = EtlFlow("fig3")
    flow.add(ExtractOp("x_presc", data.prescriptions, "p"))
    flow.add(ExtractOp("x_fd", data.familydoctor, "fd"))
    flow.add(ExtractOp("x_cost", data.drugcost, "c"))
    # The "laundering" route: familydoctor data flows into the
    # prescriptions table through an integration step...
    flow.add(
        IntegrateOp(
            "fill_doctor", "p", "fd", "filled",
            key=("patient", "patient"),
            fill_column="doctor",
            reference_column="doctor",
        )
    )
    # ...and only *then* is joined with drug costs.
    flow.add(JoinOp("join_cost", "filled", "c", [("drug", "drug")], "joined"))
    flow.add(LoadOp("load", "joined", "dwh_presc"))
    return flow


PROHIBITION = JoinProhibition(
    "muni-fd-no-costs",
    "municipality",
    "municipality/familydoctor",
    "health_agency/drugcost",
    reason="family-doctor assignments must not be crossed with drug spending",
)


def run_fig3(data) -> dict:
    catalog_free = Catalog()
    free = build_flow(data).run(catalog_free)

    catalog_pla = Catalog()
    pla = EtlPlaRegistry()
    pla.add(PROHIBITION)
    pla.add(IntegrationProhibition("lab-never-cleans", "laboratory"))
    restricted = build_flow(data).run(catalog_pla, pla=pla)

    # Check no produced table combines the prohibited pair.
    def combines_pair(catalog: Catalog) -> int:
        count = 0
        for name in catalog.table_names():
            footprint = catalog.table(name).footprint()
            if PROHIBITION.left in footprint and PROHIBITION.right in footprint:
                count += 1
        return count

    return {
        "free": free,
        "restricted": restricted,
        "free_combined_tables": combines_pair(catalog_free),
        "restricted_combined_tables": combines_pair(catalog_pla),
    }


def main(data=None) -> None:
    if data is None:
        data = generate(HealthcareConfig(n_patients=100, n_prescriptions=2_000, n_exams=0))
    outcome = run_fig3(data)
    rows = [
        {
            "variant": "no ETL annotations",
            "executed": len(outcome["free"].executed),
            "skipped": len(outcome["free"].skipped),
            "violations": len(outcome["free"].violations),
            "tables_combining_pair": outcome["free_combined_tables"],
        },
        {
            "variant": "Fig 3 annotations",
            "executed": len(outcome["restricted"].executed),
            "skipped": len(outcome["restricted"].skipped),
            "violations": len(outcome["restricted"].violations),
            "tables_combining_pair": outcome["restricted_combined_tables"],
        },
    ]
    print_table(rows, title="FIG3: ETL-level PLA enforcement")
    print("\nviolation detail:")
    for violation in outcome["restricted"].violations:
        print(f"  {violation}")


# -- pytest-benchmark targets -------------------------------------------------


def test_fig3_prohibition_blocks_laundered_join(benchmark):
    data = generate(HealthcareConfig(n_patients=100, n_prescriptions=2_000, n_exams=0))
    outcome = benchmark.pedantic(lambda: run_fig3(data), rounds=1, iterations=1)
    # Unrestricted flow does combine the pair (that is the leak):
    assert outcome["free_combined_tables"] > 0
    # With the annotation, nothing combining the pair ever materializes:
    assert outcome["restricted_combined_tables"] == 0
    assert [v.constraint for v in outcome["restricted"].violations] == [
        "muni-fd-no-costs"
    ]
    # Blocked op cascades: join and load are both skipped.
    assert {"join_cost", "load"} <= set(outcome["restricted"].skipped)
    main(data)


def test_fig3_flow_throughput(benchmark):
    data = generate(HealthcareConfig(n_patients=200, n_prescriptions=5_000, n_exams=0))

    def run():
        return build_flow(data).run(Catalog())

    result = benchmark(run)
    assert result.clean


if __name__ == "__main__":
    main()
