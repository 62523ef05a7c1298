"""The overhead benches' arithmetic and verdicts, on stubbed timings.

``benchmarks/overhead.py`` turns interleaved base/treated/base batch times
into a row verdict; the obs and resilience benches turn a row's added time
into a per-span or per-probe cost; the engine bench turns interleaved
fused/row/fused passes into its ``scan_filter`` speedup. Stubbing the
timings pins all three without timing anything.
"""

from __future__ import annotations

import itertools

import pytest

from benchmarks import bench_engine_scaling, bench_obs_overhead, bench_resilience
from benchmarks.bench_engine_scaling import QUERIES
from benchmarks.overhead import summarize


class TestSummarize:
    def test_overhead_is_the_median_of_per_repeat_ratios(self):
        # Four repeats at +2% and one lucky base leg at +50%: the median
        # is unmoved by the outlier.
        legs = [(1.0, 1.02, 1.0)] * 4 + [(0.6, 0.9, 0.6)]
        row = summarize(legs, gate_pct=5.0)
        assert row["overhead_pct"] == pytest.approx(2.0)
        assert row["passed"]

    def test_consistent_overhead_over_the_gate_fails(self):
        legs = [(1.0, 1.08, 1.0), (1.0, 1.07, 1.0), (1.0, 1.09, 1.0)]
        row = summarize(legs, gate_pct=5.0)
        assert row["overhead_pct"] == pytest.approx(8.0)
        assert row["noise_pct"] == 0.0
        assert not row["passed"]

    def test_steady_overhead_with_batch_jitter_fails(self):
        # Every batch jitters by up to 5% and the treated side is steadily
        # 8% slower: the jitter does not excuse an overhead over the gate.
        legs = [
            (base1, 1.08 * treated, base2)
            for base1, treated, base2 in itertools.permutations((0.95, 1.0, 1.05))
        ]
        row = summarize(legs, gate_pct=5.0)
        assert row["overhead_pct"] == pytest.approx(8.0)
        assert row["noise_pct"] == pytest.approx(5.1, abs=0.1)
        assert not row["passed"]

    def test_extra_is_the_median_added_batch_time(self):
        legs = [(1.0, 1.5, 1.0), (2.0, 2.25, 2.0), (1.0, 1.1, 1.0)]
        assert summarize(legs, gate_pct=5.0)["extra_s"] == pytest.approx(0.25)


class TestPerSpanCost:
    def test_divides_by_queries_and_inner_runs(self):
        # 3 mixes of 3 queries add 45 us: 5 us per traced query.
        assert len(QUERIES) == 3
        assert bench_obs_overhead.span_cost_us(45e-6, inner=3) == pytest.approx(5.0)

    def test_bench_reports_it_from_the_warm_mix(self, monkeypatch):
        calls = []

        def fake_workloads(size):
            return {name: (lambda: None) for name in [*QUERIES, "warm_plan_cache_mix"]}

        def fake_measure(base, treated, *, repeats, inner, **_hooks):
            calls.append((repeats, inner))
            return [(0.001, 0.001 + 45e-6, 0.001)] * repeats

        monkeypatch.setattr(bench_obs_overhead, "_workloads", fake_workloads)
        monkeypatch.setattr(bench_obs_overhead, "measure_interleaved", fake_measure)
        results = bench_obs_overhead.run_obs_overhead_bench(repeats=5, inner=3)
        assert calls == [(5, 3)] * 4
        assert results["span_cost_us"] == pytest.approx(5.0)
        assert results["passed"]
        assert {g["name"] for g in results["gates"]} == {
            f"{name} overhead %" for name in [*QUERIES, "warm_plan_cache_mix"]
        }
        mix = next(r for r in results["rows"] if r["workload"] == "warm_plan_cache_mix")
        assert mix["gate_pct"] == bench_obs_overhead.WARM_MIX_FULL_GATE_PCT

    def test_a_failing_row_fails_the_bench(self, monkeypatch):
        def fake_workloads(size):
            return {name: (lambda: None) for name in [*QUERIES, "warm_plan_cache_mix"]}

        def fake_measure(base, treated, *, repeats, inner, **_hooks):
            return [(1.0, 1.5, 1.0)] * repeats

        monkeypatch.setattr(bench_obs_overhead, "_workloads", fake_workloads)
        monkeypatch.setattr(bench_obs_overhead, "measure_interleaved", fake_measure)
        results = bench_obs_overhead.run_obs_overhead_bench(repeats=3, inner=1)
        assert not results["passed"]
        assert set(results["failed"]) == {*QUERIES, "warm_plan_cache_mix"}


class TestPerProbeCost:
    def test_divides_by_inner_runs_and_probes(self):
        # 2 sweeps of 40 probes add 400 us: 5 us per probe.
        cost = bench_resilience.probe_cost_us(400e-6, inner=2, probes_per_sweep=40)
        assert cost == pytest.approx(5.0)


class TestEngineScanFilterGate:
    def test_the_speedup_is_the_median_of_interleaved_passes(self, monkeypatch):
        # Per-pass ratios row / mean(fused legs): 8, 12, 30, 11, 13.
        legs = [
            (1.0, 8.0, 1.0),
            (0.5, 6.0, 0.5),
            (0.1, 3.0, 0.1),
            (1.0, 11.0, 1.0),
            (1.2, 13.0, 0.8),
        ]
        calls = []

        def fake_measure(base, treated, *, repeats, inner):
            calls.append((repeats, inner))
            return legs

        monkeypatch.setattr(bench_engine_scaling, "measure_interleaved", fake_measure)
        # The smoke sizes stand in for the full run's largest one.
        monkeypatch.setattr(bench_engine_scaling, "SMOKE_SIZES", [200])
        monkeypatch.setattr(bench_engine_scaling, "SINGLE_REPEAT_AT", 200)
        results = bench_engine_scaling.run_engine_bench(smoke=True, repeats=1)
        assert calls == [(bench_engine_scaling.INTERLEAVED_PASSES, 1)]
        rows = {r["query"]: r for r in results["engine"]}
        scan = rows["scan_filter"]
        assert scan["fused_speedup"] == pytest.approx(12.0)
        assert scan["row_s"] == 8.0 and scan["fused_s"] == pytest.approx(0.9)
        gate = next(g for g in results["gates"] if g["name"] == "fused_vs_row_scan_filter_200")
        assert gate["value"] == pytest.approx(12.0)
        for name in ("hash_join", "group_aggregate"):
            assert rows[name]["fused_speedup"] == rows[name]["row_s"] / rows[name]["fused_s"]
