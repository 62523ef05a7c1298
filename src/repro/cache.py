"""Small shared caching primitives used by the execution and proof layers.

Two consumers:

* :mod:`repro.relational.plancache` — the normalized-plan/result cache of the
  production (columnar-mode) executor;
* :mod:`repro.core.containment` — memoized derivability/containment proofs
  (meta-report compliance is re-proved on every report-evolution step, and
  the proof inputs rarely change between steps).

Both are keyed by *fingerprints plus version counters*, so mutating the
underlying catalog/PLA state changes the key rather than leaving a stale
entry reachable; the LRU bound plus explicit invalidation hooks keep the
dead generations from accumulating.

Thread safety: every operation is guarded by an internal lock, and
get-or-compute call sites can make their fills **atomic with respect to
invalidation** via the generation token (:meth:`LRUCache.fill_token` /
:meth:`LRUCache.put_if`). The race this closes: reader misses, starts
computing; a writer mutates the state and invalidates; the reader's
``put`` then re-inserts a value computed against the pre-mutation state.
With a token captured at miss time the late fill is simply dropped —
a missed caching opportunity, never a stale entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

__all__ = ["CacheStats", "LRUCache"]

_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    dropped_fills: int = 0  # fills discarded because an invalidation intervened

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in [0, 1]; 0.0 before the first lookup."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.invalidations = 0
        self.dropped_fills = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "dropped_fills": self.dropped_fills,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class LRUCache:
    """A bounded mapping with LRU eviction and observable statistics.

    Thread-safe: lookups, fills, and invalidations serialize on an internal
    lock (compute work belongs *outside* — see :meth:`get_or_compute`).
    ``maxsize <= 0`` disables storage entirely, turning every lookup into a
    miss — handy for cold-path measurements without branching at every call
    site.
    """

    maxsize: int = 1024
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: OrderedDict[Hashable, Any] = field(default_factory=OrderedDict)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    #: Bumped by every invalidation; fills guarded by :meth:`put_if` compare
    #: against the generation captured when the miss was observed.
    _generation: int = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, counting a hit or miss."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``; evicts the least-recently-used overflow."""
        with self._lock:
            self._put_locked(key, value)

    def _put_locked(self, key: Hashable, value: Any) -> None:
        if self.maxsize <= 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # -- invalidation-atomic fills -------------------------------------------

    def fill_token(self) -> int:
        """The current invalidation generation; capture it *at miss time*."""
        with self._lock:
            return self._generation

    def put_if(self, key: Hashable, value: Any, token: int) -> bool:
        """Store only if no invalidation ran since ``token`` was captured.

        Returns True when the fill landed. A False return means a writer
        invalidated concurrently with the caller's compute; the stale value
        is discarded (counted in ``stats.dropped_fills``) rather than
        resurrected into the post-invalidation cache.
        """
        with self._lock:
            if self._generation != token:
                self.stats.dropped_fills += 1
                return False
            self._put_locked(key, value)
            return True

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Cached value of ``compute()`` under ``key``.

        ``compute`` runs *outside* the lock (it may be slow or re-enter the
        cache); the resulting fill is generation-guarded, so an invalidation
        that lands mid-compute wins and the computed value is returned to
        the caller without being stored.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return value
            self.stats.misses += 1
            token = self._generation
        value = compute()
        self.put_if(key, value, token)
        return value

    def invalidate_where(self, match: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``match``; returns the count."""
        with self._lock:
            doomed = [k for k in self._entries if match(k)]
            for k in doomed:
                del self._entries[k]
            self.stats.invalidations += len(doomed)
            self._generation += 1
            return len(doomed)

    def clear(self) -> int:
        """Drop everything; returns how many entries were removed."""
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += n
            self._generation += 1
            return n
