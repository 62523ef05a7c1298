"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

A deliberately small, zero-dependency subset of the Prometheus data model:

* metrics are registered once in a :class:`MetricsRegistry` under a unique
  name with a fixed tuple of label *names*;
* each observation supplies label *values* positionally (a tuple matching
  the label names), which keeps the hot path to a dict lookup plus an add —
  no kwargs, no string formatting;
* counters are monotonic (negative increments raise), histograms have fixed
  bucket upper bounds with Prometheus ``le`` (inclusive) semantics.

:meth:`MetricsRegistry.reset` zeroes every value but keeps registrations,
so module-level metric handles stay valid across test boundaries.
Rendering to the Prometheus text exposition format lives in
:mod:`repro.obs.export`.

Thread safety: every observation is a read-modify-write against a shared
dict, so each metric carries its own lock — increments from concurrent
delivery workers never lose counts, and snapshot methods (``value``,
``samples``) see consistent states. The lock is per-metric (not
per-registry) to keep unrelated hot counters from contending.

Label keys: a label tuple is validated and converted with ``str`` the
first time a metric sees it, and the converted key is reused after that,
so a repeated observation costs one dict lookup before its locked update.
Only tuples of plain ``str`` values are remembered (at most
:data:`MAX_CACHED_KEYS` per metric): their key is the tuple itself, and no
other builtin value compares equal to a string. ``(True,)``, ``(1,)`` and
``(1.0,)`` hash and compare equal, so such tuples are converted on every
call and keep separate samples (``"True"``, ``"1"``, ``"1.0"``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterator

from repro.errors import ReproError

__all__ = [
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "MAX_CACHED_KEYS",
    "get_registry",
]

#: Default latency buckets (seconds): 100µs .. 10s, roughly logarithmic.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


#: Label tuples each metric remembers as already validated and converted.
MAX_CACHED_KEYS = 1024


class MetricError(ReproError):
    """Misuse of the metrics API (name/kind/label mismatches, bad values)."""


class _Metric:
    """Shared naming/labeling machinery for all metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]) -> None:
        if not name:
            raise MetricError("metric name must be non-empty")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        #: Validated all-``str`` label tuples (each is its own key).
        self._keys: dict[tuple, tuple] = {}

    def _key(self, labels: tuple) -> tuple:
        """Validate ``labels`` and convert them to a sample key.

        Hot paths try ``self._keys.get(labels)`` first and call this only
        on a miss.
        """
        if len(labels) != len(self.labelnames):
            raise MetricError(
                f"{self.name}: expected {len(self.labelnames)} label value(s) "
                f"for {self.labelnames}, got {labels!r}"
            )
        if all(type(v) is str for v in labels):
            if len(self._keys) < MAX_CACHED_KEYS:
                self._keys[labels] = labels
            return labels
        return tuple(str(v) for v in labels)


class Counter(_Metric):
    """A monotonically increasing count, optionally labeled."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, labels: tuple = ()) -> None:
        if amount < 0:
            raise MetricError(
                f"{self.name}: counters are monotonic; cannot add {amount}"
            )
        key = self._keys.get(labels)
        if key is None:
            key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, labels: tuple = ()) -> float:
        with self._lock:
            return self._values.get(tuple(str(v) for v in labels), 0.0)

    def samples(self) -> list[tuple[tuple, float]]:
        """``(labelvalues, value)`` pairs, sorted for deterministic output."""
        with self._lock:
            return sorted(self._values.items())

    def reset_values(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(_Metric):
    """A value that can go up and down (sizes, levels, last-seen)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, labels: tuple = ()) -> None:
        key = self._keys.get(labels)
        if key is None:
            key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, labels: tuple = ()) -> None:
        key = self._keys.get(labels)
        if key is None:
            key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, labels: tuple = ()) -> None:
        self.inc(-amount, labels)

    def value(self, labels: tuple = ()) -> float:
        with self._lock:
            return self._values.get(tuple(str(v) for v in labels), 0.0)

    def samples(self) -> list[tuple[tuple, float]]:
        with self._lock:
            return sorted(self._values.items())

    def reset_values(self) -> None:
        with self._lock:
            self._values.clear()


class Histogram(_Metric):
    """Observations bucketed by fixed upper bounds (``le`` — inclusive).

    An observation lands in the first bucket whose bound is >= the value;
    values above the last bound land in the implicit ``+Inf`` bucket. Sum
    and count are tracked per label set, Prometheus-style.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise MetricError(
                f"{self.name}: buckets must be non-empty and strictly increasing"
            )
        self.buckets = bounds
        # per label set: [bucket counts..., +Inf count, sum], updated in place
        self._data: dict[tuple, list] = {}

    def observe(self, value: float, labels: tuple = ()) -> None:
        key = self._keys.get(labels)
        if key is None:
            key = self._key(labels)
        slot = bisect_left(self.buckets, value)
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                entry = self._data[key] = [0] * (len(self.buckets) + 1) + [0.0]
            entry[slot] += 1
            entry[-1] += value

    def _value_locked(self, key: tuple) -> dict[str, Any]:
        entry = self._data.get(key)
        if entry is None:
            counts, total = [0] * (len(self.buckets) + 1), 0.0
        else:
            counts, total = entry[:-1], entry[-1]
        return {
            "buckets": tuple(zip(self.buckets, counts[:-1])),
            "inf": counts[-1],
            "sum": total,
            "count": sum(counts),
        }

    def value(self, labels: tuple = ()) -> dict[str, Any]:
        """Snapshot: per-bucket counts, +Inf count, sum, total count."""
        key = tuple(str(v) for v in labels)
        with self._lock:
            return self._value_locked(key)

    def samples(self) -> list[tuple[tuple, dict[str, Any]]]:
        with self._lock:
            return sorted((k, self._value_locked(k)) for k in self._data)

    def reset_values(self) -> None:
        with self._lock:
            self._data.clear()


class MetricsRegistry:
    """Get-or-create metric registry with consistency checks.

    Re-requesting a name returns the existing instance — or raises if the
    kind, label names, or buckets differ, which catches two call sites
    silently disagreeing about a metric's shape.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, cls, name: str, help: str, labelnames: tuple, **kwargs):
        with self._lock:
            return self._register_locked(cls, name, help, labelnames, **kwargs)

    def _register_locked(self, cls, name: str, help: str, labelnames: tuple, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"{name} is already registered as a {existing.kind}"
                )
            if existing.labelnames != tuple(labelnames):
                raise MetricError(
                    f"{name} is already registered with labels "
                    f"{existing.labelnames}, not {tuple(labelnames)}"
                )
            buckets = kwargs.get("buckets")
            if buckets is not None and existing.buckets != tuple(
                float(b) for b in buckets
            ):
                raise MetricError(f"{name} is already registered with other buckets")
            return existing
        metric = cls(name, help, tuple(labelnames), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[_Metric]:
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Zero every value; registrations (and handles to them) survive."""
        for metric in self._metrics.values():
            metric.reset_values()

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly snapshot of every metric and sample."""
        out: dict[str, Any] = {}
        for metric in self:
            out[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "samples": [
                    {"labels": list(labels), "value": value}
                    for labels, value in metric.samples()
                ],
            }
        return out


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry all built-in instrumentation records into."""
    return _REGISTRY
