"""Interleaved overhead measurement shared by the obs and resilience benches.

Both benches compare one workload run two ways — instrumentation off and
on, or bare and wrapped — and gate the relative cost. Each repeat times
three batches back to back, base / treated / base, so slow machine drift
(frequency scaling, cache state, a neighbour's load) hits both sides of
the same repeat alike. A row's verdict is the **median over repeats** of
the per-repeat ratio treated / mean(base legs), not a ratio of best-of
legs: one lucky or unlucky batch moves a best-of figure, while the median
needs most repeats to move.

How finely the median resolves a gate depends on the repeat count and on
the batch length. Short batches keep a repeat's three legs close in time,
so drift moves them alike; many repeats then narrow the median. On a
2-vCPU VM, 270 repeats of the resilience bench's ETL flow gave a median
overhead of 0.2% with one call per batch, and a bootstrap median of 90
such repeats exceeded 3% in none of 2,000 draws; with three calls per
batch the same draw exceeded 3% in 0.1% of them, and a median of 15
repeats in 12%.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Callable

__all__ = ["measure_interleaved", "summarize", "gate_list"]

Legs = list[tuple[float, float, float]]


def measure_interleaved(
    base: Callable[[], Any],
    treated: Callable[[], Any],
    *,
    repeats: int,
    inner: int,
    enter_base: Callable[[], Any] | None = None,
    enter_treated: Callable[[], Any] | None = None,
) -> Legs:
    """Per-repeat ``(base1, treated, base2)`` batch times, in seconds.

    A batch calls its function ``inner`` times; ``enter_base`` and
    ``enter_treated`` run (untimed) before each batch of their side, for
    benches that switch a mode rather than call another function. The
    collector is off while timing.
    """

    def batch(fn: Callable[[], Any], enter: Callable[[], Any] | None) -> float:
        if enter is not None:
            enter()
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        return time.perf_counter() - start

    legs: Legs = []
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            legs.append(
                (
                    batch(base, enter_base),
                    batch(treated, enter_treated),
                    batch(base, enter_base),
                )
            )
    finally:
        if was_enabled:
            gc.enable()
    return legs


def summarize(legs: Legs, gate_pct: float) -> dict[str, Any]:
    """One row's figures and verdict from its per-repeat legs.

    * ``overhead_pct`` — median of ``treated / mean(base1, base2)``, minus 1;
    * ``noise_pct`` — median of ``|base1 - base2| / mean(base1, base2)``,
      how much one batch jitters on this machine. It is reported to judge
      a run, not used in the verdict: the median of many ratios resolves
      far less than one batch's jitter;
    * ``extra_s`` — median of ``treated - mean(base1, base2)``, the
      absolute added cost of one batch;
    * ``passed`` — the overhead is inside ``gate_pct``.
    """
    ratios, drifts, extras = [], [], []
    for base1, treated, base2 in legs:
        base = (base1 + base2) / 2.0
        ratios.append(treated / base)
        drifts.append(abs(base1 - base2) / base)
        extras.append(treated - base)
    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0
    noise_pct = statistics.median(drifts) * 100.0
    return {
        "base1_s": statistics.median(leg[0] for leg in legs),
        "treated_s": statistics.median(leg[1] for leg in legs),
        "base2_s": statistics.median(leg[2] for leg in legs),
        "overhead_pct": overhead_pct,
        "noise_pct": noise_pct,
        "extra_s": statistics.median(extras),
        "gate_pct": gate_pct,
        "passed": overhead_pct <= gate_pct,
    }


def gate_list(rows: list[dict[str, Any]], value_key: str) -> list[dict[str, Any]]:
    """One ``run_all.py`` summary gate per row: its overhead against its gate."""
    return [
        {
            "name": f"{r['workload']} overhead %",
            "value": r[value_key],
            "threshold": r["gate_pct"],
            "passed": r["passed"],
        }
        for r in rows
    ]
