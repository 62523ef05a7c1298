"""Catalog: the namespace of base tables and views a query runs against.

The catalog also answers, without executing anything, what a query shows,
what it reads and where each of its columns comes from. The last is static
where-provenance (:meth:`Catalog.sources`): a :class:`ColumnFlow` for each
output, over base ``(table, column)`` pairs, under the rules the
:mod:`~repro.relational.algebra` operators propagate where-provenance by:

* a plain or ``Col``-aliased item keeps a copy;
* an expression derives from its inputs;
* an aggregate marks its flow ``aggregated``; ``MIN``/``MAX`` are copies,
  since their value is one base value, while ``COUNT``/``SUM``/``AVG``
  derive;
* UNION branches merge position by position;
* each JOIN ON column is resolved on the side that provides it, and joins
  qualify colliding names as ``Schema.concat`` does.

An unknown column or a ragged UNION raises :class:`CatalogError`, as the
engine would refuse the query. Every privacy decision and ``repro lint``
read these flows; the static flows over-approximate the runtime
where-provenance of every output cell (checked by property tests).

An obligation at any level is a rewrite of one base table, applied to every
read of it (:meth:`Catalog.guards`, :meth:`Catalog.guarded`): a row
obligation is a predicate over its columns, a cell obligation an expression
that replaces one column's value.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from repro.cache import LRUCache
from repro.errors import CatalogError
from repro.relational.expressions import Case, Col, Expr, Lit
from repro.relational.query import Query
from repro.relational.schema import Schema
from repro.relational.table import Table

__all__ = [
    "View", "Catalog", "ColumnFlow", "BlockScope", "Guard", "Guards", "MAX_VIEW_DEPTH",
    "joined_names",
]

#: Deepest view nesting the executors and the static flows resolve; a
#: deeper chain is refused as a probable cycle.
MAX_VIEW_DEPTH = 32

Pair = tuple[str, str]

#: Most queries whose base tables one DDL generation keeps (state_token).
_MAX_KEPT_QUERIES = 1024


@dataclass(frozen=True)
class ColumnFlow:
    """Where one output column's values come from, statically.

    ``copied`` holds the base ``(table, column)`` pairs whose values the
    column may hold verbatim, ``derived`` those it may be computed from.
    ``aggregated`` marks a flow that passed through an aggregate function:
    its values summarize many base cells.
    """

    copied: frozenset[Pair] = frozenset()
    derived: frozenset[Pair] = frozenset()
    aggregated: bool = False

    @property
    def sources(self) -> frozenset[Pair]:
        """Every base column this flow may disclose."""
        return self.copied | self.derived

    def as_derivation(self) -> "ColumnFlow":
        """The same sources, demoted from copies to derivations."""
        return ColumnFlow(derived=self.sources, aggregated=self.aggregated)

    def merged(self, other: "ColumnFlow") -> "ColumnFlow":
        return ColumnFlow(
            self.copied | other.copied,
            self.derived | other.derived,
            self.aggregated or other.aggregated,
        )


class Scope(dict):
    """Column name → :class:`ColumnFlow`; an unknown name raises
    :class:`CatalogError`."""

    def __missing__(self, name: str) -> ColumnFlow:
        raise CatalogError(f"unknown column {name!r}; scope has {list(self)}")


@dataclass(frozen=True)
class BlockScope:
    """One SELECT block resolved against the catalog, under the names the
    engine gives its columns."""

    keys: tuple[ColumnFlow, ...]  # each JOIN ON column, on its own side
    joined: Mapping[str, ColumnFlow]  # what FROM and JOINs yield; WHERE reads it
    grouped: Mapping[str, ColumnFlow]  # group keys, then aggregates; HAVING reads it
    outputs: tuple[tuple[str, ColumnFlow], ...]  # what the block shows


class Guard(NamedTuple):
    """How a guarded base table is read: only the rows ``rows`` is true on
    (every row when ``None``), with each ``(column, replacement)`` of
    ``cells`` replacing that column's value. Both read the stored row."""

    rows: Expr | None = None
    cells: tuple[tuple[str, Expr], ...] = ()

    def apply(self, base: Table) -> Table:
        """``base`` read under this guard, column-wise; each row keeps its
        :class:`RowId` and provenance."""
        rows, provenance, schema = base.rows, base.provenance, base.schema
        if self.rows is not None:
            env = {c: base.column_values(c) for c in self.rows.columns()}
            flags = self.rows.evaluate_batch(env, len(rows))
            keep = list(itertools.compress(range(len(flags)), flags))
            rows, provenance = [rows[i] for i in keep], [provenance[i] for i in keep]
        if self.cells:
            env = dict(zip(schema.names, list(zip(*rows)) or [()] * len(schema)))
            replaced = {c: e.evaluate_batch(env, len(rows)) for c, e in self.cells}
            rows = list(zip(*(replaced.get(c, v) for c, v in env.items())))
            schema = Schema(
                c.as_nullable() if c.name in replaced else c for c in schema
            )
        return Table.derived(
            base.name, schema, rows, provenance, provider=base.provider
        )


class Guards(Mapping[str, Guard]):
    """A read-only ``{base table: Guard}`` guard set, as :meth:`Catalog.guards`
    builds it. It carries the key :meth:`Catalog.guarded` keeps its catalog
    under, formatted once from every predicate and replacement, so two sets
    that differ in one cell never share a guarded catalog."""

    __slots__ = ("_guards", "key")

    def __init__(self, guards: Mapping[str, Guard]) -> None:
        self._guards = dict(guards)
        self.key = tuple(sorted(
            (table, str(g.rows), tuple((c, str(e)) for c, e in g.cells))
            for table, g in self._guards.items()
        ))

    def __getitem__(self, table: str) -> Guard:
        return self._guards[table]

    def __iter__(self) -> Iterator[str]:
        return iter(self._guards)

    def __len__(self) -> int:
        return len(self._guards)

    def items(self):
        return self._guards.items()

    def __repr__(self) -> str:
        return f"Guards({self._guards!r})"


def joined_names(
    left: tuple[str, ...], left_name: str, right: tuple[str, ...], right_name: str
) -> tuple[str, ...]:
    """Column names of ``left_name JOIN right_name``, colliding names
    qualified ``<relation>.<column>`` as :func:`~repro.relational.algebra.join`
    qualifies them."""
    clash = set(left) & set(right)
    return tuple(f"{left_name}.{n}" if n in clash else n for n in left) + tuple(
        f"{right_name}.{n}" if n in clash else n for n in right
    )


class View:
    """A named, stored query definition.

    Views are the paper's §3 source-level access-control mechanism ("disallow
    access to the base tables but define views on top of them") and the
    representation of meta-reports over the warehouse.
    """

    def __init__(self, name: str, query: Query, *, description: str = "") -> None:
        if not name:
            raise CatalogError("view name must be non-empty")
        self.name = name
        self.query = query
        self.description = description

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"View({self.name!r}, {self.query.describe()!r})"


class Catalog:
    """A flat namespace of base tables and views.

    Tables and views share the namespace (a query's FROM may name either).
    The catalog detects view-definition cycles at registration time.
    """

    # Process-unique identity for cache keys. ``id(self)`` is unusable here:
    # CPython recycles addresses, so a catalog allocated after another died
    # can collide with the dead one's cache entries (same address, same
    # ddl_version, same table versions — but different view definitions).
    _serial = itertools.count(1)

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, View] = {}
        self.ddl_version = 0
        self.uid = next(Catalog._serial)
        self._mutation_hooks: list[Callable[["Catalog", str], None]] = []
        # (view, nesting depth, ddl_version) → the view's named flows.
        self._view_flows: dict[tuple[str, int, int], tuple] = {}
        # Query fingerprint → the sorted base tables it reads, for this DDL
        # generation; read and filled under the lock (see state_token).
        self._query_bases: dict[str, tuple[str, ...]] = {}
        # Guard set → its guarded catalog, for this DDL generation (guarded).
        self._guarded = LRUCache(maxsize=64)
        # Serializes DDL mutations and hook registration against each other.
        # Reentrant because mutation hooks may re-enter the catalog (e.g. to
        # recompute state tokens while invalidating). Concurrent *readers*
        # during a mutation are the serving layer's problem — the delivery
        # daemon wraps deliveries/mutations in an RWLock; this lock only
        # guarantees the catalog itself never corrupts its namespace or
        # skips a hook when two writers collide.
        self._lock = threading.RLock()

    # -- mutation notification ----------------------------------------------

    def add_mutation_hook(self, hook: Callable[["Catalog", str], None]) -> None:
        """Call ``hook(catalog, name)`` after every add/replace/drop.

        This is the cache-invalidation seam: the plan cache and containment
        proof cache subscribe so catalog DDL immediately evicts entries
        derived from the old definitions (version-stamped keys make stale
        hits impossible regardless; the hook reclaims the memory eagerly).
        """
        with self._lock:
            if hook not in self._mutation_hooks:
                self._mutation_hooks.append(hook)

    def _mutated(self, name: str) -> None:
        # Caller holds self._lock; hooks run under it so a concurrent writer
        # cannot interleave between the version bump and the invalidations.
        self.ddl_version += 1
        self._view_flows.clear()
        self._query_bases.clear()
        self._guarded.clear()
        for hook in tuple(self._mutation_hooks):
            hook(self, name)

    # -- registration -------------------------------------------------------

    def add_table(self, table: Table, *, replace: bool = False) -> Table:
        """Register a base table under its own name."""
        with self._lock:
            self._check_name_free(table.name, replace=replace)
            self._views.pop(table.name, None)
            self._tables[table.name] = table
            self._mutated(table.name)
            return table

    def add_view(self, view: View, *, replace: bool = False) -> View:
        """Register a view; rejects definitions that would cycle."""
        with self._lock:
            self._check_name_free(view.name, replace=replace)
            self._check_acyclic(view)
            self._tables.pop(view.name, None)
            self._views[view.name] = view
            self._mutated(view.name)
            return view

    def drop(self, name: str) -> None:
        """Remove a table or view; missing names raise :class:`CatalogError`."""
        with self._lock:
            if name in self._tables:
                del self._tables[name]
            elif name in self._views:
                del self._views[name]
            else:
                raise CatalogError(f"no table or view named {name!r}")
            self._mutated(name)

    def _check_name_free(self, name: str, *, replace: bool) -> None:
        if not replace and (name in self._tables or name in self._views):
            raise CatalogError(f"name {name!r} already registered")

    def _check_acyclic(self, view: View) -> None:
        seen = {view.name}
        frontier = list(view.query.referenced_relations())
        while frontier:
            name = frontier.pop()
            if name in seen and name == view.name:
                raise CatalogError(f"view {view.name!r} would reference itself")
            if name in seen:
                continue
            seen.add(name)
            nested = self._views.get(name)
            if nested is not None:
                frontier.extend(nested.query.referenced_relations())

    # -- lookup -------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._tables or name in self._views

    def table(self, name: str) -> Table:
        """The base table named ``name``."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no base table named {name!r}") from None

    def view(self, name: str) -> View:
        """The view named ``name``."""
        try:
            return self._views[name]
        except KeyError:
            raise CatalogError(f"no view named {name!r}") from None

    def is_view(self, name: str) -> bool:
        return name in self._views

    def is_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._tables))

    def view_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._views))

    def tables(self) -> Iterable[Table]:
        return self._tables.values()

    # -- analysis -------------------------------------------------------------

    def base_relations(self, name: str) -> frozenset[str]:
        """Transitive closure of base tables a table/view name resolves to."""
        if name in self._tables:
            return frozenset([name])
        if name not in self._views:
            raise CatalogError(f"no table or view named {name!r}")
        out: set[str] = set()
        frontier = [name]
        visited: set[str] = set()
        while frontier:
            current = frontier.pop()
            if current in visited:
                continue
            visited.add(current)
            if current in self._tables:
                out.add(current)
            elif current in self._views:
                frontier.extend(self._views[current].query.referenced_relations())
            else:
                raise CatalogError(
                    f"view chain references unknown relation {current!r}"
                )
        return frozenset(out)

    def output_names(self, source: str | Query) -> tuple[str, ...]:
        """Column names that executing ``source`` (a relation or query) yields.

        Answers the way the engine does: an explicit SELECT list, or GROUP
        BY plus aggregates, names the outputs; a bare ``SELECT *`` yields
        its FROM relation's columns, then each joined relation's, with
        names that collide qualified as ``<relation>.<column>`` the way
        :func:`~repro.relational.algebra.join` qualifies them; a set
        operation is named by its head alone. View chains deeper than
        :data:`MAX_VIEW_DEPTH` raise :class:`CatalogError`.
        """
        return self._output_names(source, 0)

    def scope(self, query: Query) -> tuple[tuple[str, str, str], ...]:
        """What ``query``'s FROM and JOINs yield, one ``(name, relation,
        column)`` per column in order: the name the engine gives it (bare
        ``SELECT *`` shows these names), the FROM/JOIN relation that
        provides it, and that relation's own name for it."""
        return self._scope(query, 0)

    def input_names(self, query: Query) -> frozenset[str]:
        """Column names ``query`` reads from the relations it ranges over.

        JOIN ON and WHERE columns, GROUP BY columns and aggregate inputs,
        and in a non-aggregate block its SELECT list and ORDER BY; a bare
        ``SELECT *`` reads every column of its FROM scope, under the names
        :meth:`output_names` gives them. Aggregate aliases and HAVING name
        outputs, not inputs. A UNION reads what each of its branches reads,
        which covers what each branch shows.
        """
        used: set[str] = set()
        for block in query.blocks():
            used.update(c for clause in block.joins for pair in clause.on for c in pair)
            if block.where is not None:
                used.update(block.where.columns())
            used.update(block.group_by)
            used.update(a.column for a in block.aggregates if a.column is not None)
            if not block.is_aggregate:
                for item in block.select or self.output_names(block):
                    used.update((item,) if isinstance(item, str) else item[1].columns())
                used.update(column for column, _ in block.order)
        return frozenset(used)

    def sources(self, source: str | Query) -> tuple[tuple[str, ColumnFlow], ...]:
        """Each of :meth:`output_names`' columns, in order, with where it
        comes from through views, joins, aggregates and every UNION branch
        (an output column holds each branch's column at its position)."""
        if isinstance(source, str):
            return self._relation(source, 0)
        return self._flows(source, 0)

    def resolve(self, block: Query) -> BlockScope:
        """``block`` (one of :meth:`Query.blocks`) with every name it can
        read traced to base columns."""
        return self._block(block, 0)

    def input_sources(self, query: Query) -> frozenset[Pair]:
        """The base ``(table, column)`` pairs behind :meth:`input_names`:
        each JOIN ON column on the side that provides it, WHERE, GROUP BY
        and aggregate inputs, and what a non-aggregate block shows."""
        flows: list[ColumnFlow] = []
        for block in query.blocks():
            scope = self._block(block, 0)
            read = set(block.group_by)
            read.update(a.column for a in block.aggregates if a.column is not None)
            if block.where is not None:
                read.update(block.where.columns())
            flows += scope.keys
            flows += (scope.joined[name] for name in read)
            if not block.is_aggregate:
                flows += (flow for _, flow in scope.outputs)
        return frozenset(pair for flow in flows for pair in flow.sources)

    def _output_names(self, source: str | Query, depth: int) -> tuple[str, ...]:
        if isinstance(source, str):
            if depth > MAX_VIEW_DEPTH:
                raise CatalogError(f"view nesting deeper than {MAX_VIEW_DEPTH}; cycle?")
            if source in self._tables:
                return self._tables[source].schema.names
            return self._output_names(self.view(source).query, depth + 1)
        names = source.output_names()
        if names is not None:
            return names
        return tuple(name for name, _, _ in self._scope(source, depth))

    def _scope(self, query: Query, depth: int) -> tuple[tuple[str, str, str], ...]:
        columns, _ = self._joined(
            query,
            lambda relation: [
                (c, (relation, c)) for c in self._output_names(relation, depth)
            ],
        )
        return tuple((name, relation, c) for name, (relation, c) in columns)

    def _joined(self, block: Query, columns_of: Callable[[str], Iterable]):
        """``block``'s FROM scope as ``(name, item)`` pairs under the engine's
        names, ``columns_of(relation)`` giving each relation's own pairs;
        and the left and right sides' pairs of each JOIN."""
        columns = list(columns_of(block.source))
        left = block.source
        sides = []
        for clause in block.joins:
            right = list(columns_of(clause.table))
            sides.append((columns, right))
            names = joined_names(
                tuple(n for n, _ in columns), left,
                tuple(n for n, _ in right), clause.table,
            )
            columns = list(zip(names, (item for _, item in columns + right)))
            left = f"{left}_{clause.table}"
        return columns, sides

    def _relation(self, name: str, depth: int) -> tuple[tuple[str, ColumnFlow], ...]:
        # Before the lookup, as the engine checks it: a base table resolved
        # below the deepest view is refused too.
        if depth > MAX_VIEW_DEPTH:
            raise CatalogError(f"view nesting deeper than {MAX_VIEW_DEPTH}; cycle?")
        if name in self._tables:
            return tuple(
                (c, ColumnFlow(copied=frozenset([(name, c)])))
                for c in self._tables[name].schema.names
            )
        # Keyed by depth, so a hit stands for a walk that kept within the
        # nesting limit from here; by DDL generation, so a walk that a
        # mutation overtook fills an entry no later lookup reads.
        key = (name, depth, self.ddl_version)
        flows = self._view_flows.get(key)
        if flows is None:
            flows = self._flows(self.view(name).query, depth + 1)
            self._view_flows[key] = flows
        return flows

    def _flows(self, query: Query, depth: int) -> tuple[tuple[str, ColumnFlow], ...]:
        head, *branches = query.blocks()
        outputs = self._block(head, depth).outputs
        for branch in branches:
            other = self._block(branch, depth).outputs
            if len(other) != len(outputs):
                raise CatalogError(
                    f"set operation arity mismatch: head has {len(outputs)} "
                    f"column(s), branch over {branch.source!r} has {len(other)}"
                )
            outputs = tuple(
                (name, flow.merged(theirs))
                for (name, flow), (_, theirs) in zip(outputs, other)
            )
        return outputs

    def _block(self, block: Query, depth: int) -> BlockScope:
        columns, sides = self._joined(block, lambda r: self._relation(r, depth))
        keys = []
        for (left, right), clause in zip(sides, block.joins):
            left_scope, right_scope = Scope(left), Scope(right)
            for lcol, rcol in clause.on:
                keys += (left_scope[lcol], right_scope[rcol])
        joined = grouped = Scope(columns)
        if block.is_aggregate:
            grouped = Scope((g, joined[g]) for g in block.group_by)
            for spec in block.aggregates:
                flow = ColumnFlow() if spec.column is None else joined[spec.column]
                if spec.func not in ("min", "max"):
                    flow = flow.as_derivation()
                grouped[spec.alias] = replace(flow, aggregated=True)
        outputs = tuple(
            (item, grouped[item])
            if isinstance(item, str)
            else (item[0], _computed(item[1], grouped))
            for item in block.select
        ) or tuple(grouped.items())
        return BlockScope(tuple(keys), joined, grouped, outputs)

    def base_relations_of_query(self, query: Query) -> frozenset[str]:
        """Transitive base tables referenced anywhere in ``query``."""
        out: set[str] = set()
        for name in query.referenced_relations():
            out.update(self.base_relations(name))
        return frozenset(out)

    def state_token(self, query: Query) -> tuple:
        """Hashable snapshot of everything ``query``'s result depends on.

        Combines the DDL generation (table/view definitions) with the data
        version and row count of every base table the query transitively
        reads. Two executions with equal tokens are guaranteed to see the
        same catalog state, which is what makes result caching sound.

        Taken under the catalog lock so a token is never computed halfway
        through another thread's DDL mutation. Which base tables a query
        reads is DDL alone: it is kept per query fingerprint until the next
        DDL mutation, so a repeated query reads only each table's versions.
        """
        with self._lock:
            fingerprint = query.fingerprint()
            bases = self._query_bases.get(fingerprint)
            if bases is None:
                bases = tuple(sorted(self.base_relations_of_query(query)))
                if len(self._query_bases) >= _MAX_KEPT_QUERIES:
                    self._query_bases.clear()
                self._query_bases[fingerprint] = bases
            parts = tuple(
                (name, self._tables[name].data_version, len(self._tables[name].rows))
                for name in bases
            )
            return (self.uid, self.ddl_version, parts)


    # -- guards ---------------------------------------------------------------

    def restate(self, condition: Expr, over: Query) -> tuple[str, Expr]:
        """``condition``, over the columns ``over`` shows or the FROM-scope
        columns it hides (§5's hidden-column device), as an expression over
        the one base table they are copied from; anything else raises
        :class:`CatalogError`."""
        shown = dict(self._flows(over, 0))
        scopes = [self._block(block, 0).joined for block in over.blocks()]
        copies: dict[str, Pair] = {}
        for name in condition.columns():
            flow = shown.get(name)
            if flow is None:
                flow = reduce(ColumnFlow.merged, [scope[name] for scope in scopes])
            if flow.derived or flow.aggregated or len(flow.copied) != 1:
                raise CatalogError(f"({condition}): {name!r} is not a base column copy")
            (copies[name],) = flow.copied
        tables = {table for table, _ in copies.values()}
        if len(tables) != 1:
            raise CatalogError(f"({condition}) reads {len(tables)} base tables")
        renames = {name: column for name, (_, column) in copies.items()}
        return tables.pop(), condition.substitute(renames)

    def guards(
        self,
        query: Query,
        rows: Iterable[tuple[str, Expr]] = (),
        cells: Iterable[tuple[str, str, Expr]] = (),
    ) -> Guards:
        """The guard set :meth:`guarded` runs ``query`` under: each ``(table,
        predicate)`` of ``rows``, AND-ed per base table, and each ``(table,
        column, replacement)`` of ``cells``, both over base columns as
        :meth:`restate` gives them. A guarded table read on the null-extended
        side of an outer join anywhere below ``query`` raises
        :class:`CatalogError`: its filtered rows, like its blanked join keys,
        would show as NULLs."""
        predicates: dict[str, Expr] = {}
        for table, predicate in rows:
            if table in predicates:
                predicate = predicates[table] & predicate
            predicates[table] = predicate
        replacements: dict[str, dict[str, Expr]] = {}
        for table, column, replacement in cells:
            columns = replacements.setdefault(table, {})
            if column in columns:
                replacement = _both(columns[column], replacement)
            columns[column] = replacement
        guards = Guards({
            table: Guard(
                predicates.get(table),
                tuple(sorted(replacements.get(table, {}).items())),
            )
            for table in predicates.keys() | replacements.keys()
        })
        seen: set[str] = set()
        frontier = [query]
        while frontier:
            for block in frontier.pop().blocks():
                joins = block.joins
                for i, name in enumerate((block.source, *(c.table for c in joins))):
                    outer = (i > 0 and joins[i - 1].how in ("left", "full")) or any(
                        c.how in ("right", "full") for c in joins[i:]
                    )
                    hit = sorted(self.base_relations(name) & guards.keys())
                    if outer and hit:
                        raise CatalogError(
                            f"{hit[0]!r} is guarded and read on the null-extended "
                            "side of an outer join"
                        )
                    if name in self._views and name not in seen:
                        seen.add(name)
                        frontier.append(self._views[name].query)
        return guards

    def guarded(self, guards: Guards) -> "Catalog":
        """This catalog, except that each base table in ``guards`` is read
        under its :class:`Guard`: only the rows its predicate is true on
        (UNKNOWN drops a row, as WHERE does), with the listed columns
        replaced, each row keeping its :class:`RowId`. Every query over it,
        on either engine, reads the guarded rows and cells in each WHERE,
        JOIN, grouping, DISTINCT, UNION branch, ORDER BY and LIMIT. Kept per
        guard set until DDL runs; a guarded table whose data changed is
        guarded again in place, so the guarded catalog keeps its uid and
        plan-cache hook."""
        if not guards:
            return self
        with self._lock:
            kept = self._guarded.get(guards.key)
            if kept is None:
                kept = Catalog()
                kept._tables, kept._views = dict(self._tables), dict(self._views)
                self._guarded.put(guards.key, kept)
            for name, guard in guards.items():
                base, held = self._tables[name], kept._tables[name]
                if held is base or held.data_version != base.data_version:
                    held = guard.apply(base)
                    held.data_version = base.data_version
                    kept._tables[name] = held
            return kept


def _both(first: Expr, second: Expr) -> Expr:
    """One replacement for two on a column: a constant wins (the later of
    two), and two ``CASE WHEN condition THEN column END`` show the value
    only where both conditions hold."""
    if isinstance(first, Case) and isinstance(second, Case):
        return Case((first.whens[0] & second.whens[0],), first.thens)
    return second if isinstance(second, Lit) else first


def _computed(expr: Expr, scope: Mapping[str, ColumnFlow]) -> ColumnFlow:
    if isinstance(expr, Col):
        return scope[expr.name]
    flow = ColumnFlow()
    for name in expr.columns():
        flow = flow.merged(scope[name].as_derivation())
    return flow
