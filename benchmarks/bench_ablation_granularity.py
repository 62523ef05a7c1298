"""ABL-MR — meta-report granularity sweep (§5's open design challenge).

"The design challenge here is how many meta-reports to define and how close
they should be to the complexity of the data warehouse or the simplicity of
the reports." We sweep ``max_metareports`` from 1 (the whole warehouse as a
single universe) to per-report granularity and measure initial elicitation
effort, re-elicitation under an evolution stream, and the combined cost.

Expected shape: the combined cost is minimized at an intermediate
granularity — both extremes lose (the universe is costly to explain and
over-broad; per-report meta-reports churn like reports do).

Run standalone:  python benchmarks/bench_ablation_granularity.py
"""

from __future__ import annotations

from repro.bench import print_table
from repro.core import MetaReportLevel, generate_metareports
from repro.core.elicitation import ElicitationSession
from repro.simulation import OwnerAgent, ScenarioConfig, build_scenario
from repro.workloads import generate_evolution_stream


def sweep(scenario, granularities=(1, 2, 4, 8, 16, 30), n_events: int = 60):
    events = generate_evolution_stream(
        scenario.workload_spec(),
        scenario.workload,
        n_events=n_events,
        seed=19,
        new_feed_rate=0.1,
    )
    rows = []
    for g in granularities:
        metareports = generate_metareports(
            scenario.workload,
            scenario.universe_name,
            scenario.bi_catalog,
            max_metareports=g,
            name_prefix=f"g{g}_mr",
        )
        # Approve each with a dummy PLA so covering checks run.
        from repro.core import PLA, AggregationThreshold, PlaLevel, PlaRegistry

        registry = PlaRegistry()
        for metareport in metareports:
            pla = PLA(
                f"pla_{metareport.name}", "hospital", PlaLevel.METAREPORT,
                metareport.name, (AggregationThreshold(5),),
            )
            registry.add(pla)
            metareport.attach_pla(registry.approve(pla.name))
        metareports.register_views(scenario.bi_catalog)

        level = MetaReportLevel(metareports, scenario.bi_catalog)
        level.register_workload(scenario.workload)
        owner = OwnerAgent("dpo", expertise=0.4, seed=7)
        initial = ElicitationSession(owner, level).run()
        reelicitations = 0
        reelicitation_cost = 0.0
        for event in events:
            if not level.covers_event(event):
                reelicitations += 1
                record = ElicitationSession(
                    owner, level, trigger=f"re:{event.describe()}"
                ).run(level.reelicitation_artifacts(event))
                reelicitation_cost += record.cost
            level.note_event(event)
        rows.append(
            {
                "max_metareports": g,
                "actual": len(metareports),
                "columns_total": metareports.total_columns(),
                "initial_effort": initial.cost,
                "reelicitations": reelicitations,
                "combined_cost": initial.cost + reelicitation_cost,
            }
        )
    return rows


def main(scenario=None) -> None:
    if scenario is None:
        scenario = build_scenario(ScenarioConfig())
    rows = sweep(scenario)
    print_table(rows, title="ABL-MR: meta-report granularity vs lifecycle cost")
    best = min(rows, key=lambda r: r["combined_cost"])
    print(f"\nbest granularity: max_metareports={best['max_metareports']}")


# -- pytest-benchmark targets -------------------------------------------------


def test_granularity_sweep(benchmark, scenario):
    rows = benchmark.pedantic(lambda: sweep(scenario), rounds=1, iterations=1)
    costs = {r["max_metareports"]: r["combined_cost"] for r in rows}
    granularities = sorted(costs)
    best = min(costs, key=costs.__getitem__)
    # The sweet spot is interior: both extremes lose to the best point.
    assert costs[best] < costs[granularities[0]] or best == granularities[0]
    assert costs[best] <= costs[granularities[-1]]
    # Per-report granularity must not beat every coarser configuration
    # (that would contradict the paper's stability argument).
    assert costs[granularities[-1]] >= costs[best]
    main(scenario)


if __name__ == "__main__":
    main()
