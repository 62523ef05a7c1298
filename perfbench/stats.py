"""Percentiles and latency histograms for the benchmark's reports."""

from __future__ import annotations

import math
from typing import Sequence

from repro.service.loadgen import percentile as nearest_rank

__all__ = [
    "MIN_BEYOND",
    "UnsupportedPercentile",
    "samples_beyond",
    "percentile",
    "log2_histogram",
    "render_histogram",
]

#: A percentile is reported only when at least this many samples lie beyond
#: it; with fewer, one slow sample moves the figure between runs.
MIN_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """The sample is too small for the requested percentile."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly after the nearest-rank ``q``-th."""
    return n - max(1, math.ceil(n * q / 100))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of an ascending
    sample, refusing one the sample cannot support."""
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    beyond = samples_beyond(len(sorted_values), q)
    if beyond < MIN_BEYOND:
        raise UnsupportedPercentile(
            f"p{q:g} of {len(sorted_values)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return nearest_rank(sorted_values, q)


def log2_histogram(values_ms: Sequence[float]) -> dict[int, int]:
    """Counts per power-of-two microsecond bucket ``[2**k, 2**(k+1))``.

    Infinite latencies (failed requests) land in bucket ``-1``.
    """
    buckets: dict[int, int] = {}
    for value in values_ms:
        if math.isinf(value):
            key = -1
        else:
            key = max(0, math.floor(math.log2(max(value * 1000.0, 1.0))))
        buckets[key] = buckets.get(key, 0) + 1
    return dict(sorted(buckets.items()))


def _bucket_label(key: int) -> str:
    if key < 0:
        return "failed"
    lo, hi = 2**key, 2 ** (key + 1)
    if lo >= 1000:
        return f"[{lo / 1000:g},{hi / 1000:g})ms"
    return f"[{lo},{hi})us"


def render_histogram(
    outcome: str, values_ms: Sequence[float], marks: dict[str, float]
) -> list[str]:
    """Text lines for one outcome's histogram; ``marks`` names percentiles
    (e.g. ``{"p50": 0.71}``) whose bucket gets tagged, so a reader can see
    that each reported percentile sits inside one mode."""
    buckets = log2_histogram(values_ms)
    marked: dict[int, list[str]] = {}
    for label, value in marks.items():
        (key,) = log2_histogram([value])
        marked.setdefault(key, []).append(label)
    total = len(values_ms)
    lines = [f"histogram {outcome} (n={total}, log2 buckets)"]
    for key, count in buckets.items():
        bar = "#" * max(1, round(40 * count / total)) if count else ""
        tag = f"  <- {','.join(marked[key])}" if key in marked else ""
        lines.append(f"  {_bucket_label(key):>18} {count:>7} {bar}{tag}")
    return lines
