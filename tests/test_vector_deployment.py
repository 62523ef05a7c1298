"""The standard deployment runs on the vector tier end to end.

All 30 reports of ``build_scenario()`` read the wide star view, a 4-way
join. The vector planner inlines it (and the meta-report views and the
enforcer's ``<view>__plaext`` extensions over it), so every query a
delivery runs must execute fused with zero declines, with values and
provenance equal to the row reference, before and after each mutation
kind the delivery daemon applies. On the plan-cached path the result's
provenance is decoded once, before it is cached, and every hit shares it.
"""

from __future__ import annotations

import pytest

import repro.relational.columnar as columnar
from repro.provenance import MaskProvenance
from repro.relational import ExecutionConfig, PlanCache, execute, execute_row
from repro.service.state import MUTATION_KINDS, MutationSpec, apply_mutation_to
from repro.simulation import build_scenario

UNCACHED = ExecutionConfig(mode="columnar", use_plan_cache=False)


@pytest.fixture
def declines(monkeypatch):
    """Queries ``try_vector_core`` declined, counted at the columnar seam."""
    declined: list = []
    planner = columnar.try_vector_core

    def counting(query, catalog, depth=0):
        result = planner(query, catalog, depth)
        if result is None:
            declined.append(query)
        return result

    monkeypatch.setattr(columnar, "try_vector_core", counting)
    return declined


def _delivery_queries(scenario) -> list:
    """Each report, the query its enforcer runs, and each meta-report view."""
    queries = []
    for definition in scenario.report_catalog.all_current():
        verdict = scenario.checker.check_report(definition)
        conditions = [
            o.annotation for o in verdict.obligations if o.kind == "intensional"
        ]
        rewritten, _ = scenario.enforcer._rewrite_for_intensional(
            definition, conditions
        )
        queries += [definition.query, rewritten]
    for metareport in scenario.metareports:
        queries.append(scenario.bi_catalog.view(metareport.name).query)
    return list(dict.fromkeys(queries))


def test_deployment_queries_run_fused_and_match_the_row_reference(
    vector_on, declines
):
    scenario = build_scenario()
    catalog = scenario.bi_catalog
    checked = set()  # (query, state token): equal pairs give equal results
    for epoch, kind in enumerate((None, *MUTATION_KINDS)):
        if kind is not None:
            apply_mutation_to(scenario, MutationSpec(kind, seed=epoch))
        queries = _delivery_queries(scenario)
        assert len(queries) > len(scenario.metareports)
        if kind == "redefine_report":
            assert any(q.limit_n is not None for q in queries)
        for query in queries:
            got = execute(query, catalog, config=UNCACHED)
            state = (query, catalog.state_token(query))
            if state in checked:
                continue
            checked.add(state)
            ref = execute_row(query, catalog)
            assert got.schema == ref.schema, query.describe()
            assert list(got.rows) == list(ref.rows), query.describe()
            assert list(got.provenance) == list(ref.provenance), query.describe()
        assert declines == [], (kind, [q.describe() for q in declines])


def test_cached_vector_results_are_decoded_once_and_shared(vector_on):
    scenario = build_scenario()
    catalog = scenario.bi_catalog
    config = ExecutionConfig(mode="columnar", plan_cache=PlanCache())
    for definition in scenario.report_catalog.all_current()[:3]:
        query = definition.query
        # Uncached execution keeps the lazy masks...
        lazy = execute(query, catalog, config=UNCACHED).provenance
        assert isinstance(lazy, MaskProvenance)
        # ...the cached path decodes them before the snapshot.
        cold = execute(query, catalog, config=config)
        warm = execute(query, catalog, config=config)
        assert isinstance(cold.provenance, list)
        assert isinstance(warm.provenance, list)
        assert all(a is b for a, b in zip(cold.provenance, warm.provenance))
        assert warm.provenance == list(execute_row(query, catalog).provenance)
    assert config.plan_cache.stats.hits == 3
