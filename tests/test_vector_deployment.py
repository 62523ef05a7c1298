"""The standard deployment runs on the vector tier end to end.

All 30 reports of ``build_scenario()`` read the wide star view, a 4-way
join. The vector planner inlines it (and the meta-report views and the
enforcer's ``<view>__plaext`` extensions over it), so every query a
delivery runs must execute fused with zero declines, with values and
provenance equal to the row reference, before and after each mutation
kind the delivery daemon applies. On the plan-cached path the result's
provenance is decoded once, before it is cached, and every hit shares it.
A core the planner declines runs on the row operators, but the views it
reads still resolve through the planner and run fused.
"""

from __future__ import annotations

import pytest

import repro.relational.columnar as columnar
from repro.provenance import MaskProvenance
from repro.relational import (
    Catalog,
    ExecutionConfig,
    PlanCache,
    Table,
    View,
    execute,
    execute_row,
    make_schema,
    parse_query,
)
from repro.relational.types import ColumnType
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


@pytest.fixture
def planner_calls(monkeypatch):
    """Every ``try_vector_core`` call at the columnar seam: (query, engaged)."""
    calls: list = []
    planner = columnar.try_vector_core

    def counting(query, catalog, depth=0):
        result = planner(query, catalog, depth)
        calls.append((query, result is not None))
        return result

    monkeypatch.setattr(columnar, "try_vector_core", counting)
    return calls


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


def test_deployment_queries_run_fused_and_match_the_row_reference(declines):
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


def test_cached_vector_results_are_decoded_once_and_shared():
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


def test_declined_core_still_runs_its_view_body_fused(planner_calls):
    """A LEFT JOIN core declines to the row operators; the inlinable view in
    its FROM position resolves through the planner and runs fused."""
    catalog = Catalog()
    fact = make_schema(("k", ColumnType.INT), ("value", ColumnType.INT))
    dim = make_schema(("k", ColumnType.INT), ("label", ColumnType.STRING))
    rows = [(i % 7, (i * 37) % 100) for i in range(40)]
    catalog.add_table(Table.from_rows("t", fact, rows, provider="p"))
    labels = [(i, f"label{i}") for i in range(4)]  # keys 4..6 miss
    catalog.add_table(Table.from_rows("d", dim, labels, provider="q"))
    catalog.add_view(View("v", parse_query("SELECT k, value FROM t WHERE value > 20")))
    query = parse_query(
        "SELECT v.k AS k, value, label FROM v LEFT JOIN d ON k = k"
    )

    got = execute(query, catalog, config=UNCACHED)

    assert planner_calls == [(query, False), (catalog.view("v").query, True)]
    ref = execute_row(query, catalog)
    assert any(label is None for _, _, label in ref.rows)
    assert got.schema == ref.schema
    assert list(got.rows) == list(ref.rows)
    assert list(got.provenance) == list(ref.provenance)
