"""Production executor: fused vector kernels for each SELECT core, the row
engine's operators for everything else.

Each SELECT core goes to :func:`~repro.relational.vector.try_vector_core`.
A core the planner declines (outer joins, views on a join's right-hand
side, bare ``SELECT *`` scans, ...) runs on the row engine's operators,
and any view it reads resolves through this module again, so an eligible
view body still runs fused. DISTINCT, set operations, ORDER BY and LIMIT
run in :mod:`repro.relational.engine`'s executor loop on the same
:mod:`~repro.relational.algebra` operators the reference uses. Results equal
the row reference's in values, row order, schema, provenance and raised
errors; ``tests/test_engine_differential.py`` enforces it.
"""

from __future__ import annotations

from repro.relational import algebra, engine
from repro.relational.catalog import Catalog
from repro.relational.query import Query, _ensure_select_consistency
from repro.relational.table import Table
from repro.relational.vector import try_vector_core

__all__ = ["execute_columnar"]


def _core(query: Query, catalog: Catalog, depth: int) -> Table:
    """One SELECT core: fused when the vector planner takes it."""
    _ensure_select_consistency(query)
    fast = try_vector_core(query, catalog, depth)
    if fast is None:
        return engine._execute_core(query, catalog, depth, _core)
    return algebra.distinct(fast) if query.select_distinct else fast


def execute_columnar(
    query: Query, catalog: Catalog, *, name: str | None = None
) -> Table:
    """Run ``query`` on the production path; result equals the row engine's."""
    return engine._execute(query, catalog, depth=0, name=name, core=_core)
