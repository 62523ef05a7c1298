"""Normalized-plan result cache for the executor.

Entries are keyed by ``(Query.fingerprint(), Catalog.state_token(query),
mode)``. The fingerprint normalizes commutative WHERE/HAVING conjunct order,
so syntactically different but plan-equivalent queries share an entry; the
state token folds in the catalog identity, its DDL generation, and the
``(data_version, row_count)`` of every base table the query transitively
reads — any insert or DDL change makes old keys unreachable, so a hit is
*always* sound. Catalog mutation hooks additionally evict eagerly so dead
generations don't linger until LRU pressure.

Cached values are immutable snapshots ``(name, schema, rows, provenance,
provider)`` plus a **slot**: a dict that lives and dies with its entry (LRU
eviction, :meth:`PlanCache.invalidate_catalog`, :meth:`PlanCache.clear`).
Every hit rebuilds a fresh :class:`Table`, so callers can never corrupt the
cache by mutating a result, and the table a hit or a landed fill returns
carries the slot as ``Table.cache_slot``. A layer above keeps what it
derives from this one result there:
:class:`~repro.core.translation.ReportLevelEnforcer` keeps each report's
enforced outcome, a read-only :class:`~repro.relational.table.ReadOnlyTable`
that memoizes the facts the audit record and the commit log read from it.
A result that did not come through the cache (row mode, no cache, an
unkeyable query, a dropped fill) carries no slot.

Concurrency: the executor uses the **reservation** protocol
(:meth:`PlanCache.begin` → :meth:`PlanCache.fetch` →
:meth:`PlanCache.commit`) rather than lookup-then-store. A reservation
captures the cache key *and* the invalidation generation before execution
starts; committing re-checks the generation, so a result computed against
pre-mutation state can never be stored under a post-mutation key.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cache import CacheStats, LRUCache
from repro.errors import CatalogError
from repro.obs import instrument
from repro.obs.trace import TRACER
from repro.relational.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.relational.catalog import Catalog
    from repro.relational.query import Query

__all__ = ["PlanCache", "PlanReservation", "default_plan_cache"]


@dataclass(frozen=True)
class PlanReservation:
    """Key + invalidation token captured before an execution begins.

    Holding one pins the catalog state the upcoming result will be computed
    against: the key embeds the state token observed at ``begin`` time and
    ``token`` is the cache generation at that instant. :meth:`PlanCache.commit`
    refuses the fill if any invalidation ran in between.
    """

    key: tuple
    token: int
    catalog: "Catalog"


class PlanCache:
    """LRU cache of executed query results, versioned by catalog state."""

    def __init__(self, maxsize: int = 256) -> None:
        self._cache = LRUCache(maxsize=maxsize)
        self._hooked_catalogs: set[int] = set()
        self._hook_lock = threading.Lock()

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    # -- keying -------------------------------------------------------------

    def _key(self, query: "Query", catalog: "Catalog", mode: str) -> tuple:
        return (query.fingerprint(), catalog.state_token(query), mode)

    def _ensure_hook(self, catalog: "Catalog") -> None:
        with self._hook_lock:
            if catalog.uid in self._hooked_catalogs:
                return
            self._hooked_catalogs.add(catalog.uid)
        catalog.add_mutation_hook(self._on_catalog_mutation)

    def _on_catalog_mutation(self, catalog: "Catalog", name: str) -> None:
        self.invalidate_catalog(catalog)

    # -- reservation protocol -------------------------------------------------

    def begin(
        self, query: "Query", catalog: "Catalog", mode: str
    ) -> PlanReservation | None:
        """Capture key + invalidation token for an execution starting *now*.

        Returns ``None`` when the query is not keyable (unresolvable relation
        chain); the executor then runs uncached and reports the error with
        query-level context.
        """
        # Hook before token capture: a mutation landing after this line must
        # bump the generation, or the eventual commit would fill stale.
        self._ensure_hook(catalog)
        token = self._cache.fill_token()
        try:
            key = self._key(query, catalog, mode)
        except CatalogError:
            return None
        return PlanReservation(key=key, token=token, catalog=catalog)

    def fetch(
        self, reservation: PlanReservation, *, name: str | None = None
    ) -> Table | None:
        """A fresh :class:`Table` rebuilt from the reserved key, carrying
        the entry's slot, or ``None``."""
        snap = self._cache.get(reservation.key)
        if TRACER.active():
            instrument.cache_lookup("plan", snap is not None)
        if snap is None:
            return None
        snap_name, schema, rows, provs, provider, slot = snap
        table = Table.derived(
            name if name is not None else snap_name,
            schema,
            rows,
            provs,
            provider=provider,
        )
        table.cache_slot = slot
        return table

    def commit(self, reservation: PlanReservation, result: Table) -> bool:
        """Fill the reserved key, unless an invalidation intervened.

        Returns True when the fill landed. A False return means a catalog
        mutation (or explicit clear) ran between ``begin`` and now; the
        result was computed against superseded state and is discarded
        (counted in ``stats.dropped_fills``). A landed fill gives ``result``
        the new entry's slot.
        """
        self._ensure_hook(reservation.catalog)
        slot: dict = {}
        snap = (
            result.name,
            result.schema,
            tuple(result.rows),
            tuple(result.provenance),
            result.provider,
            slot,
        )
        landed = self._cache.put_if(reservation.key, snap, reservation.token)
        if landed:
            result.cache_slot = slot
        return landed

    # -- invalidation -------------------------------------------------------

    def invalidate_catalog(self, catalog: "Catalog") -> int:
        """Evict every entry derived from ``catalog``; returns the count."""
        cat_uid = catalog.uid
        return self._cache.invalidate_where(lambda k: k[1][0] == cat_uid)

    def clear(self) -> int:
        return self._cache.clear()


_DEFAULT = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide plan cache used when a config names none."""
    return _DEFAULT
