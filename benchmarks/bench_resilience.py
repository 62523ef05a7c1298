"""Resilience wrapper overhead benchmark: the no-fault path must be cheap.

The injector→retry→breaker call path wraps every ETL operator and every
delivery-time source probe. Its promise: with no faults injected (an empty
plan), the wrapped pipeline stays within 3% of the bare one — the price of
robustness is paid only when something actually fails. This benchmark
holds that line with the same interleaved bare/wrapped/bare design as
``bench_obs_overhead`` (:mod:`benchmarks.overhead`: the verdict is the
median of per-repeat wrapped / mean(bare) ratios, and the two bare legs
bound the machine's own drift):

* **etl_flow** — the Fig 1 ETL flow, bare vs wrapped in a
  :class:`~repro.resilience.ResiliencePolicy` over a faultless plan; each
  wrapped unit is a real operator execution, gated at 3%;
* **delivery_sweep** — deliver-all-compliant over the report catalog, bare
  vs probing every source through the full resilience path. One warm
  delivery takes tens of microseconds, so the few-µs fixed cost of its
  four source probes is a large *fraction* of it; the row has its own
  gate, and it also yields ``probe_cost_us``, the absolute cost of one
  probe.

``main`` (via ``python benchmarks/run_all.py resilience`` or ``repro bench
resilience``) prints the table, optionally writes ``BENCH_resilience.json``,
and returns non-zero when any row exceeds its gate.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.audit.log import AuditLog
from repro.reports.delivery import DeliveryService
from repro.resilience import (
    BreakerConfig,
    BreakerRegistry,
    DeliveryResilience,
    FaultInjector,
    ResiliencePolicy,
    RetryPolicy,
    named_plan,
)
from repro.simulation import build_scenario

from benchmarks.overhead import gate_list, measure_interleaved, summarize

#: No-fault overhead gates on ``etl_flow``, percent. The smoke pass shares
#: CI runners with everything else, so its gate is looser; the calibrated
#: full run applies the real 3% bound.
FULL_GATE_PCT = 3.0
SMOKE_GATE_PCT = 12.0

#: Gates on ``delivery_sweep``, percent: the fixed cost of four probes per
#: warm delivery. Set above the highest of ten consecutive runs on a 2-vCPU
#: VM: 17.5% at full size, 27% in smoke mode (see
#: ``docs/OBSERVABILITY.md``, "Overhead budget").
SWEEP_FULL_GATE_PCT = 22.0
SWEEP_SMOKE_GATE_PCT = 35.0

JSON_PATH = "BENCH_resilience.json"

ROLE_TO_USER = {
    "analyst": "ann",
    "auditor": "aldo",
    "health_director": "dora",
    "municipality_official": "mara",
}


def _faultless_policy() -> ResiliencePolicy:
    return ResiliencePolicy(
        injector=FaultInjector(named_plan("none"), sleep=lambda _s: None),
        retry=RetryPolicy(),
        breakers=BreakerRegistry(BreakerConfig()),
        sleep=lambda _s: None,
    )


def _workloads() -> tuple[
    dict[str, tuple[Callable[[], Any], Callable[[], Any]]], int
]:
    """``{name: (bare_fn, wrapped_fn)}`` closures, plus probes per sweep."""
    scenario = build_scenario()
    policy = _faultless_policy()

    def flow_bare() -> None:
        scenario.flow.run()

    def flow_wrapped() -> None:
        scenario.flow.run(resilience=policy)

    def service(resilience: DeliveryResilience | None) -> DeliveryService:
        return DeliveryService(
            reports=scenario.report_catalog,
            checker=scenario.checker,
            enforcer=scenario.enforcer,
            subjects=scenario.subjects,
            audit_log=AuditLog(),
            resilience=resilience,
        )

    sweep_policy = _faultless_policy()
    bare_service = service(None)
    wrapped_service = service(
        DeliveryResilience(policy=sweep_policy, mode="refuse")
    )

    def sweep_bare() -> None:
        bare_service.deliver_all_compliant(ROLE_TO_USER)

    def sweep_wrapped() -> None:
        wrapped_service.deliver_all_compliant(ROLE_TO_USER)

    # Probes per sweep, for the fixed-cost-per-probe figure: one counted
    # sweep against the same injector the measured closures use.
    injector = sweep_policy.injector
    assert injector is not None
    injector.reset()
    sweep_wrapped()
    probes_per_sweep = injector.total_calls()

    workloads = {
        "etl_flow": (flow_bare, flow_wrapped),
        "delivery_sweep": (sweep_bare, sweep_wrapped),
    }
    return workloads, probes_per_sweep


def probe_cost_us(extra_s: float, *, inner: int, probes_per_sweep: int) -> float:
    """Fixed cost of one source probe (injector + retry + breaker layers),
    from the delivery sweep's added batch time: a batch runs ``inner``
    sweeps of ``probes_per_sweep`` probes each."""
    return max(0.0, extra_s / inner / max(1, probes_per_sweep) * 1e6)


def run_resilience_bench(
    *, smoke: bool = False, repeats: int = 90, inner: int = 1
) -> dict[str, Any]:
    """Both rows, ``repeats`` interleaved repeats of ``inner`` calls a batch.

    One flow run a batch and 90 repeats let the median resolve the 3%
    ``etl_flow`` gate on a noisy host (see :mod:`benchmarks.overhead`),
    where the median of 15 repeats of three runs moves by a few percent.
    """
    gate_pct = SMOKE_GATE_PCT if smoke else FULL_GATE_PCT
    gates_pct = {
        "etl_flow": gate_pct,
        "delivery_sweep": SWEEP_SMOKE_GATE_PCT if smoke else SWEEP_FULL_GATE_PCT,
    }
    if smoke:
        repeats, inner = min(repeats, 15), min(inner, 2)
    workloads, probes_per_sweep = _workloads()

    rows: list[dict[str, Any]] = []
    for name, (bare, wrapped) in workloads.items():
        legs = measure_interleaved(bare, wrapped, repeats=repeats, inner=inner)
        stats = summarize(legs, gates_pct[name])
        rows.append(
            {
                "workload": name,
                "bare1_s": stats["base1_s"],
                "wrapped_s": stats["treated_s"],
                "bare2_s": stats["base2_s"],
                "extra_s": stats["extra_s"],
                "overhead_pct": stats["overhead_pct"],
                "noise_pct": stats["noise_pct"],
                "gate_pct": stats["gate_pct"],
                "passed": stats["passed"],
            }
        )

    worst = next(r for r in rows if r["workload"] == "etl_flow")
    sweep = next(r for r in rows if r["workload"] == "delivery_sweep")
    failed = [r["workload"] for r in rows if not r["passed"]]
    return {
        "smoke": smoke,
        "repeats": repeats,
        "inner": inner,
        "gate_pct": gate_pct,
        "rows": rows,
        "gates": gate_list(rows, "overhead_pct"),
        "probes_per_sweep": probes_per_sweep,
        "probe_cost_us": probe_cost_us(
            sweep["extra_s"], inner=inner, probes_per_sweep=probes_per_sweep
        ),
        "worst": {
            "workload": worst["workload"],
            "overhead_pct": worst["overhead_pct"],
        },
        "failed": failed,
        "passed": not failed,
    }


def _print_report(results: dict[str, Any]) -> None:
    print(
        f"Resilience wrapper overhead, no faults injected (median of "
        f"{results['repeats']} interleaved bare/wrapped/bare repeats "
        f"x{results['inner']})"
    )
    print(
        f"{'workload':<18} {'bare s':>9} {'wrapped s':>10} {'overhead':>9} "
        f"{'noise':>8} {'gate':>6}"
    )
    for r in results["rows"]:
        t_bare = (r["bare1_s"] + r["bare2_s"]) / 2.0
        marker = "" if r["passed"] else "  FAIL"
        print(
            f"{r['workload']:<18} {t_bare:>9.4f} {r['wrapped_s']:>10.4f} "
            f"{r['overhead_pct']:>8.1f}% {r['noise_pct']:>7.1f}% "
            f"{r['gate_pct']:>5.0f}%{marker}"
        )
    w = results["worst"]
    verdict = "PASS" if results["passed"] else "FAIL"
    print(
        f"\n{verdict}: etl_flow overhead {w['overhead_pct']:.1f}%, "
        f"gate {results['gate_pct']:.0f}%."
    )
    if results["failed"]:
        print("over gate: " + ", ".join(results["failed"]))
    print(
        f"Fixed cost per source probe: {results['probe_cost_us']:.1f}us "
        f"({results['probes_per_sweep']} probes per delivery sweep)."
    )


def main(*, smoke: bool = False, json_path: str | None = None) -> int:
    results = run_resilience_bench(smoke=smoke)
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


def test_resilience_overhead_smoke():
    results = run_resilience_bench(smoke=True, repeats=3, inner=2)
    assert results["rows"], "no workloads measured"
    assert all(r["wrapped_s"] > 0 for r in results["rows"])
    assert results["probes_per_sweep"] > 0
    worst = results["worst"]["overhead_pct"]
    noise = next(r["noise_pct"] for r in results["rows"] if r["workload"] == "etl_flow")
    assert worst < 25.0 or worst < 2.0 * noise, (
        f"no-fault resilience overhead {worst:.1f}% >= 25%"
    )


if __name__ == "__main__":
    raise SystemExit(main())
