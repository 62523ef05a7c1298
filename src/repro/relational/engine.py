"""Query executor: evaluates a :class:`~repro.relational.query.Query` against
a :class:`~repro.relational.catalog.Catalog`, with full provenance flow.

Views are expanded by recursive execution (no materialization), so the
provenance of a view's output reaches all the way down to base rows — which
is what report-level PLA auditing needs.

:func:`execute` dispatches between two configurations chosen by an
:class:`~repro.relational.execconfig.ExecutionConfig`:

* the **row-store reference path** in this module — row-at-a-time, simple,
  and never cached; the semantics oracle for differential testing;
* the **production path** in :mod:`repro.relational.columnar`, fronted by
  the normalized-plan result cache of :mod:`repro.relational.plancache`:
  each SELECT core runs on the fused vector kernels of
  :mod:`repro.relational.vector`, and a core the planner declines runs on
  this module's row operators.

Both share this module's executor loop: a ``core`` callable runs each
SELECT block (and each view body resolved inside one), while set
operations, ORDER BY and LIMIT use the same :mod:`~repro.relational.algebra`
operators either way. Both produce value-identical tables, provenance
included.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import QueryError
from repro.obs import instrument
from repro.obs.trace import TRACER
from repro.relational import algebra
from repro.relational.catalog import MAX_VIEW_DEPTH, Catalog
from repro.relational.execconfig import ExecutionConfig, get_default_config
from repro.relational.query import Query, _ensure_select_consistency
from repro.relational.table import Table

__all__ = ["execute", "execute_row", "Engine"]

#: Runs one SELECT core: ``core(query, catalog, depth) -> Table``.
Core = Callable[[Query, Catalog, int], Table]


def execute(
    query: Query,
    catalog: Catalog,
    *,
    name: str | None = None,
    config: ExecutionConfig | None = None,
) -> Table:
    """Run ``query`` against ``catalog`` and return a derived table.

    ``config`` selects the execution path (and plan caching); ``None`` uses
    the process default (columnar, cached). When observability is on (see
    :mod:`repro.obs`) each execution emits a ``query.execute`` span and a
    ``repro_queries_total`` tick; the disabled path skips both for free.
    """
    cfg = config if config is not None else get_default_config()
    if not cfg.observing():
        return _dispatch(query, catalog, name, cfg)
    with TRACER.span(
        "query.execute", {"mode": cfg.mode, "relation": query.source}, force=True
    ):
        result = _dispatch(query, catalog, name, cfg)
    instrument.QUERIES.inc(1, (cfg.mode,))
    return result


def _dispatch(
    query: Query, catalog: Catalog, name: str | None, cfg: ExecutionConfig
) -> Table:
    if cfg.mode == "row":
        return _execute(query, catalog, depth=0, name=name)

    from repro.relational.columnar import execute_columnar

    cache = cfg.effective_plan_cache()
    if cache is None:
        return execute_columnar(query, catalog, name=name)
    # Reservation protocol: the key and invalidation token are captured
    # *before* execution, so a catalog mutation landing mid-execution makes
    # the commit a no-op instead of storing a stale result under a fresh key.
    reservation = cache.begin(query, catalog, cfg.mode)
    if reservation is None:
        return execute_columnar(query, catalog, name=name)
    cached = cache.fetch(reservation, name=name)
    if cached is not None:
        return cached
    result = execute_columnar(query, catalog, name=name)
    # Decode lazy provenance once, here: the caller and every later hit
    # share the decoded rows instead of each decoding the masks again.
    if getattr(result.provenance, "lazy_provenance", False):
        result.provenance = result.provenance.materialize()
    cache.commit(reservation, result)
    return result


def execute_row(query: Query, catalog: Catalog, *, name: str | None = None) -> Table:
    """Run ``query`` on the row-store reference path, bypassing dispatch."""
    return _execute(query, catalog, depth=0, name=name)


def _resolve(name: str, catalog: Catalog, depth: int, core: Core | None) -> Table:
    if depth > MAX_VIEW_DEPTH:
        raise QueryError(f"view nesting deeper than {MAX_VIEW_DEPTH}; cycle?")
    if catalog.is_table(name):
        return catalog.table(name)
    if catalog.is_view(name):
        view = catalog.view(name)
        return _execute(view.query, catalog, depth=depth + 1, name=name, core=core)
    raise QueryError(f"unknown relation {name!r}")


def _execute(
    query: Query,
    catalog: Catalog,
    *,
    depth: int,
    name: str | None,
    core: Core | None = None,
) -> Table:
    """Run ``query``; ``core`` runs each SELECT core (``None``: the row one)."""
    run_core = core if core is not None else _execute_core
    current = run_core(query, catalog, depth)

    # Set operations: combine positionally (branch columns are renamed to
    # the head's names, like SQL), dedup after each UNION (left-assoc).
    for clause in query.set_ops:
        branch = run_core(clause.query, catalog, depth)
        current = algebra.union(current, _conform(branch, current))
        if clause.op == "union":
            current = algebra.distinct(current)

    # ORDER BY/LIMIT of the head apply to the combined result.
    if query.order:
        current = algebra.order_by(current, list(query.order))

    if query.limit_n is not None:
        current = algebra.limit(current, query.limit_n)

    if catalog.is_table(query.source) and current is catalog.table(query.source):
        # A bare ``SELECT * FROM t``: hand out a copy, so naming (or
        # inserting into) the result never touches the catalog's table.
        current = Table.derived(
            current.name,
            current.schema,
            current.rows,
            current.provenance,
            provider=current.provider,
        )
    if name is not None:
        current.name = name
    return current


def _execute_core(
    query: Query, catalog: Catalog, depth: int, core: Core | None = None
) -> Table:
    """One SELECT block, FROM through DISTINCT (no set ops/ORDER/LIMIT), on
    the row operators; views it reads run their cores on ``core``."""
    _ensure_select_consistency(query)
    current = _resolve(query.source, catalog, depth, core)

    for clause in query.joins:
        right = _resolve(clause.table, catalog, depth, core)
        current = algebra.join(current, right, clause.on, how=clause.how)

    if query.where is not None:
        current = algebra.select(current, query.where)

    if query.is_aggregate:
        current = algebra.aggregate(current, query.group_by, query.aggregates)
        if query.having is not None:
            current = algebra.select(current, query.having)
    elif query.having is not None:
        raise QueryError("HAVING requires GROUP BY or aggregates")

    if query.select:
        current = algebra.project(current, list(query.select))

    if query.select_distinct:
        current = algebra.distinct(current)

    return current


def _conform(branch: Table, head: Table) -> Table:
    """Rename ``branch`` columns positionally to ``head``'s (SQL set-op rule)."""
    if branch.schema.names == head.schema.names:
        return branch
    if len(branch.schema.names) != len(head.schema.names):
        raise QueryError(
            f"set operation arity mismatch: head has {len(head.schema.names)} "
            f"column(s) {head.schema.names}, branch has "
            f"{len(branch.schema.names)} {branch.schema.names}"
        )
    mapping = dict(zip(branch.schema.names, head.schema.names))
    return algebra.rename(branch, mapping)


class Engine:
    """Thin convenience wrapper pairing a catalog with the executor.

    Enforcement layers (VPD, source gateways) subclass or wrap this to
    intercept queries before execution.
    """

    def __init__(
        self,
        catalog: Catalog | None = None,
        *,
        config: ExecutionConfig | None = None,
    ) -> None:
        self.catalog = catalog if catalog is not None else Catalog()
        self.config = config

    def run(self, query: Query, *, name: str | None = None) -> Table:
        """Execute ``query`` against this engine's catalog."""
        return execute(query, self.catalog, name=name, config=self.config)

    def sql(self, text: str, *, name: str | None = None) -> Table:
        """Parse and execute a SQL-subset string."""
        from repro.relational.sqlparser import parse_query

        return self.run(parse_query(text), name=name)
