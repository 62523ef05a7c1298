"""Catalog: the namespace of base tables and views a query runs against."""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterable

from repro.errors import CatalogError
from repro.relational.query import Query
from repro.relational.table import Table

__all__ = ["View", "Catalog", "MAX_VIEW_DEPTH", "joined_names"]

#: Deepest view nesting the executors and the static dataflow resolve; a
#: deeper chain is refused as a probable cycle.
MAX_VIEW_DEPTH = 32


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

    def sources(self, source: str | Query) -> tuple[frozenset[tuple[str, str]], ...]:
        """Where each of :meth:`output_names`' columns comes from, in order:
        the base ``(table, column)`` pairs its values are copied or computed
        from, through views, joins, aggregates and every UNION branch (an
        output column holds each branch's column at its position)."""
        return self._sources(source, 0)

    def input_sources(self, query: Query) -> frozenset[tuple[str, str]]:
        """The base ``(table, column)`` pairs behind :meth:`input_names`."""
        out: set[tuple[str, str]] = set()
        for block in query.blocks():
            scope = dict(self._scope_sources(block, 0))
            for name in self.input_names(block):
                out.update(scope.get(name, ()))
        return frozenset(out)

    def _output_names(self, source: str | Query, depth: int) -> tuple[str, ...]:
        if isinstance(source, str):
            if source in self._tables:
                return self._tables[source].schema.names
            if depth > MAX_VIEW_DEPTH:
                raise CatalogError(f"view nesting deeper than {MAX_VIEW_DEPTH}; cycle?")
            return self._output_names(self.view(source).query, depth + 1)
        names = source.output_names()
        if names is not None:
            return names
        return tuple(name for name, _, _ in self._scope(source, depth))

    def _scope(self, query: Query, depth: int) -> tuple[tuple[str, str, str], ...]:
        columns = [(c, query.source, c) for c in self._output_names(query.source, depth)]
        left = query.source
        for clause in query.joins:
            right = [
                (c, clause.table, c) for c in self._output_names(clause.table, depth)
            ]
            names = joined_names(
                tuple(n for n, _, _ in columns), left,
                tuple(n for n, _, _ in right), clause.table,
            )
            columns = [(n, r, c) for n, (_, r, c) in zip(names, columns + right)]
            left = f"{left}_{clause.table}"
        return tuple(columns)

    def _sources(
        self, source: str | Query, depth: int
    ) -> tuple[frozenset[tuple[str, str]], ...]:
        if isinstance(source, str):
            if source in self._tables:
                names = self._tables[source].schema.names
                return tuple(frozenset([(source, c)]) for c in names)
            if depth > MAX_VIEW_DEPTH:
                raise CatalogError(f"view nesting deeper than {MAX_VIEW_DEPTH}; cycle?")
            return self._sources(self.view(source).query, depth + 1)
        merged: list[frozenset[tuple[str, str]]] | None = None
        for block in source.blocks():
            scope = self._scope_sources(block, depth)
            if block.is_aggregate:
                found = dict(scope)
                scope = [(g, found.get(g, frozenset())) for g in block.group_by] + [
                    (a.alias, found.get(a.column, frozenset())) for a in block.aggregates
                ]
            found = dict(scope)
            outputs = [
                found.get(item, frozenset())
                if isinstance(item, str)
                else frozenset().union(*(found.get(c, ()) for c in item[1].columns()))
                for item in block.select
            ] or [traced for _, traced in scope]
            merged = outputs if merged is None else [a | b for a, b in zip(merged, outputs)]
        return tuple(merged or ())

    def _scope_sources(
        self, block: Query, depth: int
    ) -> list[tuple[str, frozenset[tuple[str, str]]]]:
        """Each name ``block``'s FROM scope shows, with its :meth:`sources`."""
        relations = (block.source,) + tuple(clause.table for clause in block.joins)
        traced = [s for relation in relations for s in self._sources(relation, depth)]
        return [(name, s) for (name, _, _), s in zip(self._scope(block, depth), traced)]

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
        through another thread's DDL mutation.
        """
        with self._lock:
            parts = tuple(
                (name, self._tables[name].data_version, len(self._tables[name].rows))
                for name in sorted(self.base_relations_of_query(query))
            )
            return (self.uid, self.ddl_version, parts)
