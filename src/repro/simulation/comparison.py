"""Replaying report evolution against the four PLA-engineering levels.

This is the quantitative engine behind Fig 5: for each level it measures
initial elicitation effort, re-elicitation under an evolution stream
(stability), over-engineering, and requirement testability — then combines
them so the continuum and the meta-report sweet spot become visible as
numbers instead of a sketch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.elicitation import ElicitationSession
from repro.core.levels import (
    EngineeringLevel,
    MetaReportLevel,
    ReportLevel,
    SourceLevel,
    WarehouseLevel,
)
from repro.reports.evolution import EvolutionEvent
from repro.simulation.owner import OwnerAgent
from repro.simulation.scenario import Scenario

__all__ = ["LevelMetrics", "build_levels", "compare_levels"]


@dataclass(frozen=True)
class LevelMetrics:
    """FIG5's series: one row per engineering level."""

    level: str
    artifacts: int
    initial_effort: float
    events: int
    reelicitations: int
    reelicitation_effort: float
    over_engineering: float
    testability: float

    @property
    def stability(self) -> float:
        """Fraction of evolution events absorbed without re-elicitation."""
        if self.events == 0:
            return 1.0
        return 1.0 - self.reelicitations / self.events

    @property
    def total_effort(self) -> float:
        return self.initial_effort + self.reelicitation_effort

    @property
    def effort_per_artifact(self) -> float:
        """Fig 5's "ease of elicitation" axis, inverted: interaction units
        per artifact the owner must understand. Lower = easier."""
        if self.artifacts == 0:
            return 0.0
        return self.initial_effort / self.artifacts

    def row(self) -> dict[str, object]:
        return {
            "level": self.level,
            "artifacts": self.artifacts,
            "effort_per_artifact": round(self.effort_per_artifact, 1),
            "initial_effort": round(self.initial_effort, 1),
            "reelicitations": self.reelicitations,
            "stability": round(self.stability, 3),
            "total_effort": round(self.total_effort, 1),
            "over_engineering": round(self.over_engineering, 3),
            "testability": round(self.testability, 2),
        }


def build_levels(scenario: Scenario) -> list[EngineeringLevel]:
    """The four level adapters over one scenario, source → report order."""
    source = SourceLevel(list(scenario.providers.values()), scenario.bi_catalog)
    warehouse_tables = [
        (name, len(scenario.bi_catalog.table(name).schema))
        for name in scenario.bi_catalog.table_names()
        if name.startswith(("fact_", "dim_", "dwh_"))
    ]
    warehouse = WarehouseLevel(
        warehouse_tables=warehouse_tables,
        etl_flows=[(scenario.flow.name, len(scenario.flow.operators))],
        warehouse_columns=frozenset(scenario.wide_columns),
        catalog=scenario.bi_catalog,
    )
    metareport = MetaReportLevel(scenario.metareports, scenario.bi_catalog)
    metareport.register_workload(scenario.workload)
    report = ReportLevel(scenario.workload)
    return [source, warehouse, metareport, report]


def compare_levels(
    scenario: Scenario,
    events: list[EvolutionEvent],
    *,
    owner: OwnerAgent | None = None,
    requirement_kinds: tuple[str, ...] = (
        "attribute_access",
        "aggregation_threshold",
        "anonymization",
        "join_permission",
        "integration_permission",
        "intensional_condition",
    ),
) -> list[LevelMetrics]:
    """Run the FIG5 comparison: initial elicitation, then the event stream."""
    agent = owner if owner is not None else OwnerAgent("hospital_dpo", expertise=0.4)
    results: list[LevelMetrics] = []
    for level in build_levels(scenario):
        # Fresh owner per level so confusion draws are identical across levels.
        level_owner = OwnerAgent(
            agent.name,
            expertise=agent.expertise,
            seed=agent.seed,
            confusion_scale=agent.confusion_scale,
        )
        initial = ElicitationSession(level_owner, level, trigger="initial").run()
        reelicitations = 0
        reelicitation_effort = 0.0
        for event in events:
            if not level.covers_event(event):
                reelicitations += 1
                session = ElicitationSession(
                    level_owner, level, trigger=f"re-elicitation:{event.describe()}"
                )
                record = session.run(level.reelicitation_artifacts(event))
                reelicitation_effort += record.cost
            level.note_event(event)
        over_engineering = _over_engineering(level, scenario)
        results.append(
            LevelMetrics(
                level=level.level.value,
                artifacts=len(level.artifacts()),
                initial_effort=initial.cost,
                events=len(events),
                reelicitations=reelicitations,
                reelicitation_effort=reelicitation_effort,
                over_engineering=over_engineering,
                testability=level.mean_testability(requirement_kinds),
            )
        )
    return results


def _over_engineering(level: EngineeringLevel, scenario: Scenario) -> float:
    if isinstance(level, SourceLevel):
        reached: set[str] = set()
        for report in scenario.workload:
            reached.update(scenario.checker.source_footprint(report))
        return level.over_engineering_ratio(scenario.workload, frozenset(reached))
    if isinstance(level, WarehouseLevel):
        return level.over_engineering_ratio(scenario.workload)
    if isinstance(level, MetaReportLevel):
        return level.over_engineering_ratio(scenario.workload)
    assert isinstance(level, ReportLevel)
    return level.over_engineering_ratio()
