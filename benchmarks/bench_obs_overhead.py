"""Observability overhead benchmark: the disabled path must be free.

The repro.obs design promise is that instrumentation is near-free when off
(call sites guard on ``TRACER.active()`` and allocate nothing) and cheap
when on (<5% on realistic query workloads). This benchmark holds that line:

* **disabled** — run the workload with observability off, before and after
  the enabled leg (the off1/on/off2 interleave separates real overhead from
  machine drift; the two off legs bound the noise floor);
* **enabled** — same workload with tracing + metrics fully on.

Each row's overhead is the median, over repeats, of the per-repeat ratio
on / mean(off1, off2) (:mod:`benchmarks.overhead`). ``main`` (via ``python
benchmarks/run_all.py obs`` or ``repro bench obs``) prints the table,
optionally writes ``BENCH_obs.json``, and returns a non-zero exit code when
any row exceeds its gate — so CI fails loudly instead of letting
instrumentation costs creep in.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro import obs
from repro.relational import ExecutionConfig, PlanCache, execute, parse_query

from benchmarks.bench_engine_scaling import QUERIES, build_catalog
from benchmarks.overhead import gate_list, measure_interleaved, summarize

#: Enabled-path overhead gates on the query workloads, percent. The smoke
#: rows are tiny (fixed per-query costs dominate), so the smoke gate is
#: looser than the full one.
FULL_GATE_PCT = 5.0
SMOKE_GATE_PCT = 20.0

#: Gates on ``warm_plan_cache_mix``, percent. A plan-cache hit only
#: rebuilds a cached table, so the fixed cost of its span and counters is a
#: large fraction of it. Set above the highest of ten consecutive runs on a
#: 2-vCPU VM: 16.4% at full size, 52% in smoke mode (see
#: ``docs/OBSERVABILITY.md``, "Overhead budget").
WARM_MIX_FULL_GATE_PCT = 20.0
WARM_MIX_SMOKE_GATE_PCT = 60.0

FULL_SIZE = 20_000
SMOKE_SIZE = 2_000

JSON_PATH = "BENCH_obs.json"

WARM_MIX = "warm_plan_cache_mix"


def _workloads(size: int) -> dict[str, Callable[[], Any]]:
    """Named closures over one catalog.

    The ``bench_engine_scaling`` query workloads are real query executions,
    where the <5% bound must hold. ``warm_plan_cache_mix`` runs the same
    queries as plan-cache hits, which isolates the per-query fixed cost of
    instrumentation; it has its own gate and also yields ``span_cost_us``.
    """
    cat = build_catalog(size)
    uncached = ExecutionConfig(mode="columnar", use_plan_cache=False)
    parsed = {name: parse_query(sql) for name, sql in QUERIES.items()}

    workloads: dict[str, Callable[[], Any]] = {}
    for name, query in parsed.items():
        workloads[name] = (
            lambda q=query: execute(q, cat, config=uncached)
        )

    cache = PlanCache()
    cached = ExecutionConfig(mode="columnar", plan_cache=cache)
    for query in parsed.values():
        execute(query, cat, config=cached)  # populate

    def warm_mix() -> None:
        for query in parsed.values():
            execute(query, cat, config=cached)

    workloads[WARM_MIX] = warm_mix
    return workloads


def span_cost_us(extra_s: float, *, inner: int) -> float:
    """Fixed cost of one traced query, from the warm mix's added batch time.

    A timed batch runs the mix ``inner`` times and each mix runs
    ``len(QUERIES)`` queries, each under one span plus its counters.
    """
    return max(0.0, extra_s / (len(QUERIES) * inner) * 1e6)


def run_obs_overhead_bench(
    *, smoke: bool = False, repeats: int = 15, inner: int = 3
) -> dict[str, Any]:
    size = SMOKE_SIZE if smoke else FULL_SIZE
    gate_pct = SMOKE_GATE_PCT if smoke else FULL_GATE_PCT
    mix_gate_pct = WARM_MIX_SMOKE_GATE_PCT if smoke else WARM_MIX_FULL_GATE_PCT
    workloads = _workloads(size)

    previous = obs.enabled()
    obs.disable()
    obs.reset()
    rows: list[dict[str, Any]] = []
    try:
        for name, fn in workloads.items():
            legs = measure_interleaved(
                fn,
                fn,
                repeats=repeats,
                inner=inner,
                enter_base=obs.disable,
                enter_treated=obs.enable,
            )
            stats = summarize(legs, mix_gate_pct if name == WARM_MIX else gate_pct)
            rows.append(
                {
                    "workload": name,
                    "off1_s": stats["base1_s"],
                    "on_s": stats["treated_s"],
                    "off2_s": stats["base2_s"],
                    "extra_s": stats["extra_s"],
                    "enabled_pct": stats["overhead_pct"],
                    "noise_pct": stats["noise_pct"],
                    "gate_pct": stats["gate_pct"],
                    "passed": stats["passed"],
                }
            )
    finally:
        obs.TRACER.enabled = previous
        obs.reset()

    queries = [r for r in rows if r["workload"] != WARM_MIX]
    worst = max(queries, key=lambda r: r["enabled_pct"])
    mix = next(r for r in rows if r["workload"] == WARM_MIX)
    failed = [r["workload"] for r in rows if not r["passed"]]
    return {
        "smoke": smoke,
        "size": size,
        "repeats": repeats,
        "inner": inner,
        "gate_pct": gate_pct,
        "rows": rows,
        "gates": gate_list(rows, "enabled_pct"),
        "span_cost_us": span_cost_us(mix["extra_s"], inner=inner),
        "worst": {"workload": worst["workload"], "enabled_pct": worst["enabled_pct"]},
        "failed": failed,
        "passed": not failed,
    }


def _print_report(results: dict[str, Any]) -> None:
    print(
        f"Observability overhead (n={results['size']}, median of "
        f"{results['repeats']} interleaved off/on/off repeats x{results['inner']})"
    )
    print(
        f"{'workload':<22} {'off s':>9} {'on s':>9} {'overhead':>9} "
        f"{'noise':>8} {'gate':>6}"
    )
    for r in results["rows"]:
        t_off = (r["off1_s"] + r["off2_s"]) / 2.0
        marker = "" if r["passed"] else "  FAIL"
        print(
            f"{r['workload']:<22} {t_off:>9.4f} {r['on_s']:>9.4f} "
            f"{r['enabled_pct']:>8.1f}% {r['noise_pct']:>7.1f}% "
            f"{r['gate_pct']:>5.0f}%{marker}"
        )
    w = results["worst"]
    verdict = "PASS" if results["passed"] else "FAIL"
    print(
        f"\n{verdict}: worst query overhead {w['enabled_pct']:.1f}% "
        f"({w['workload']}), gate {results['gate_pct']:.0f}%."
    )
    if results["failed"]:
        print("over gate: " + ", ".join(results["failed"]))
    print(
        f"Fixed cost per traced query: {results['span_cost_us']:.1f}us "
        "(span + counters, from the warm-cache mix)."
    )
    print(
        "Disabled-path cost is the off1/off2 spread above — instrumentation "
        "off is indistinguishable from never-instrumented."
    )


def main(*, smoke: bool = False, json_path: str | None = None) -> int:
    results = run_obs_overhead_bench(smoke=smoke)
    _print_report(results)
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        print(f"\nwrote {json_path}")
    return 0 if results["passed"] else 1


# ---------------------------------------------------------------------------
# pytest smoke: keep the harness itself from rotting. Loose gate — CI noise
# on shared runners must not fail the tier-1 suite; the calibrated run via
# run_all.py applies the real one.
# ---------------------------------------------------------------------------


def test_obs_overhead_smoke():
    results = run_obs_overhead_bench(smoke=True, repeats=3, inner=2)
    assert results["rows"], "no workloads measured"
    assert all(r["on_s"] > 0 for r in results["rows"])
    worst = results["worst"]["enabled_pct"]
    assert worst < 25.0, f"enabled observability overhead {worst:.1f}% >= 25%"


if __name__ == "__main__":
    raise SystemExit(main())
