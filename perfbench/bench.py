"""One benchmark run: set up, drive the timed phase, verify, report.

Import this module only after :func:`perfbench.run.pin_environment` has
cleared the ``REPRO_*`` switches, because :mod:`repro` reads them at
import time.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.obs.trace import TRACER
from repro.relational import vector
from repro.relational.execconfig import get_default_config
from repro.relational.plancache import default_plan_cache
from repro.resilience import (
    BreakerRegistry,
    DeliveryResilience,
    FaultInjector,
    ResiliencePolicy,
    named_plan,
)
from repro.service import DeliveryDaemon, ServiceState, check_linearizable
from repro.service.loadgen import ROLE_TO_USER
from repro.simulation.scenario import build_scenario

from perfbench.host import NOMINAL_PROBE_S, probe
from perfbench.layers import PER_LAYER_METRICS, LayerTracer
from perfbench.schedule import Schedule, Workload, build_schedule
from perfbench.stats import percentile, render_histogram

__all__ = ["END_TO_END_METRICS", "RunResult", "run"]

#: Every end-to-end metric an untraced run prints, with its unit.
END_TO_END_METRICS: dict[str, str] = {
    "throughput_rps": "1/s",
    "deliver_p50_ms": "ms",
    "deliver_p95_ms": "ms",
    "refuse_p50_ms": "ms",
    "success_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

WORKERS = 2
QUEUE_SIZE = 64
#: Deployments built per run; ``setup_s`` reports the median build.
SETUPS = 3
#: Per-request bound on submit -> result; a request past it has failed.
REQUEST_TIMEOUT_S = 30.0
#: The reader stops sending once the timed phase has run this long, so a
#: stalled program fails the run within a few minutes instead of hanging.
DRIVE_DEADLINE_S = 75.0

_OK = ("deliver:delivered", "deliver:refused", "mutate:applied")


def _scale(probe_s: float) -> float:
    """Factor taking a time measured at probe speed ``probe_s`` to nominal."""
    return NOMINAL_PROBE_S / probe_s


@dataclass
class Deployment:
    """A started daemon over a freshly built, warmed deployment."""

    state: ServiceState
    daemon: DeliveryDaemon
    setup_s: float
    warm_delivered: int
    warm_refused: int


def _fault_free_resilience() -> DeliveryResilience:
    """Plan ``none`` behind breakers, refuse mode, no-op sleep."""

    def no_sleep(_seconds: float) -> None:
        return None

    policy = ResiliencePolicy(
        injector=FaultInjector(named_plan("none"), sleep=no_sleep),
        breakers=BreakerRegistry(),
        sleep=no_sleep,
    )
    return DeliveryResilience(policy=policy, mode="refuse")


def _warm_up(daemon: DeliveryDaemon, reports) -> tuple[int, int]:
    """Deliver every report to its audience and once outside it, so the
    timed phase starts with plan and verdict caches full and both the
    delivery and refusal paths run."""
    outcomes = {"delivered": 0, "refused": 0}
    for definition in reports:
        role = sorted(definition.audience)[0]
        outsider = sorted(set(ROLE_TO_USER) - set(definition.audience))[0]
        for user in (ROLE_TO_USER[role], ROLE_TO_USER[outsider]):
            result = daemon.deliver(
                definition.name, user=user, purpose=definition.purpose,
                timeout=REQUEST_TIMEOUT_S,
            )
            if result.outcome not in outcomes:
                raise RuntimeError(
                    f"warm-up {definition.name} -> {user}: {result.outcome} "
                    f"({result.detail})"
                )
            outcomes[result.outcome] += 1
    return outcomes["delivered"], outcomes["refused"]


def _deploy(workload: Workload) -> Deployment:
    """Build, start and warm one deployment; ``setup_s`` is scaled."""
    before = probe()
    started = time.perf_counter()
    scenario = build_scenario()
    state = ServiceState(scenario, factory=build_scenario)
    daemon = DeliveryDaemon(state, workers=WORKERS, queue_size=QUEUE_SIZE).start()
    try:
        if workload.guarded:
            daemon.set_resilience(_fault_free_resilience())
        delivered, refused = _warm_up(daemon, scenario.workload)
    except BaseException:
        daemon.stop()
        raise
    elapsed = time.perf_counter() - started
    setup_s = elapsed * _scale((before + probe()) / 2)
    return Deployment(state, daemon, setup_s, delivered, refused)


def _reset_process_state(workload: Workload) -> None:
    """Put the process-wide caches and tracer back to their start state."""
    default_plan_cache().clear()
    TRACER.reset()
    if workload.guarded:
        obs.enable()
    else:
        obs.disable()
    gc.collect()


@dataclass
class Samples:
    """What the timed phase observed.

    Requests run in windows; ``probes[w]`` and ``probes[w + 1]`` bracket
    window ``w``, and each record carries the window it ran in.
    """

    #: ``("kind:outcome", seconds, window)`` per request.
    records: list[tuple[str, float, int]] = field(default_factory=list)
    window_wall: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def scales(self) -> list[float]:
        return [
            _scale((self.probes[w] + self.probes[w + 1]) / 2)
            for w in range(len(self.window_wall))
        ]

    def latencies(self, key: str) -> list[float]:
        """Ascending scaled latencies in ms of the requests with outcome ``key``."""
        scales = self.scales()
        return sorted(
            seconds * 1e3 * scales[w] for k, seconds, w in self.records if k == key
        )

    def segment_timings(
        self, windows_per_segment: int, *, scaled: bool = True
    ) -> list[dict[str, float]]:
        """The latency percentiles within each segment of consecutive windows.

        A trailing part shorter than a segment joins the last one. A failed
        delivery counts as an infinite delivery latency.
        """
        n_windows = len(self.window_wall)
        count = max(1, n_windows // windows_per_segment)
        scales = self.scales() if scaled else [1.0] * n_windows
        deliver: list[list[float]] = [[] for _ in range(count)]
        refuse: list[list[float]] = [[] for _ in range(count)]
        for key, seconds, w in self.records:
            s = min(w // windows_per_segment, count - 1)
            if key == "deliver:refused":
                refuse[s].append(seconds * 1e3 * scales[w])
            elif key == "deliver:delivered":
                deliver[s].append(seconds * 1e3 * scales[w])
            elif key.startswith("deliver:"):
                deliver[s].append(float("inf"))
        out = []
        for s in range(count):
            delivered, refused = sorted(deliver[s]), sorted(refuse[s])
            out.append(
                {
                    "deliver_p50_ms": percentile(delivered, 50),
                    "deliver_p95_ms": percentile(delivered, 95),
                    "refuse_p50_ms": percentile(refused, 50),
                }
            )
        return out

    def count(self, key: str) -> int:
        return sum(1 for k, _, _ in self.records if k == key)

    @property
    def wall_s(self) -> float:
        return sum(self.window_wall)

    @property
    def scaled_wall_s(self) -> float:
        return sum(w * s for w, s in zip(self.window_wall, self.scales()))


def _drive(daemon: DeliveryDaemon, schedule: Schedule, window: int) -> Samples:
    """Closed loop: the reader (this thread) sends its next delivery when
    the last one returned; a writer thread sends mutation ``m`` once the
    reader has completed ``(m + 1) * reads_per_mutation`` requests and runs
    it while the reader goes on.

    Every ``window`` reads, once no mutation is in flight, the host probe
    runs and a new window starts; the probe's time is outside every window.
    """
    samples = Samples()
    lock = threading.Lock()
    trigger = threading.Semaphore(0)
    idle = threading.Event()
    idle.set()
    every = schedule.reads_per_mutation
    state = {"window": 0, "stop": False, "opened": 0.0}

    def timed(kind: str, submit, window_index: int) -> None:
        started = time.perf_counter()
        try:
            outcome = submit().result(timeout=REQUEST_TIMEOUT_S).outcome
        except Exception as exc:  # noqa: BLE001 - a failed request is a result
            outcome = "error"
            with lock:
                samples.errors.append(f"{kind}: {exc!r}")
        elapsed = time.perf_counter() - started
        with lock:
            samples.records.append((f"{kind}:{outcome}", elapsed, window_index))

    def writer() -> None:
        for spec in schedule.mutations:
            trigger.acquire()
            if state["stop"]:
                return
            timed("mutate", lambda: daemon.submit_mutation(spec), state["window"])
            idle.set()

    def boundary(first: bool) -> None:
        if not idle.wait(REQUEST_TIMEOUT_S):
            samples.errors.append("mutation still in flight at a window boundary")
        if not first:
            samples.window_wall.append(time.perf_counter() - state["opened"])
        samples.probes.append(probe())
        state["window"] = len(samples.window_wall)
        state["opened"] = time.perf_counter()

    thread = threading.Thread(target=writer, name="perfbench-writer")
    thread.start()
    triggered = 0
    deadline = time.perf_counter() + DRIVE_DEADLINE_S
    try:
        for i, read in enumerate(schedule.reads):
            if time.perf_counter() > deadline:
                samples.errors.append(f"timed phase passed {DRIVE_DEADLINE_S} s; stopped")
                break
            if i % window == 0:
                boundary(first=i == 0)
            if every and i and i % every == 0 and triggered < len(schedule.mutations):
                triggered += 1
                idle.clear()
                trigger.release()
            timed(
                "deliver",
                lambda: daemon.submit_delivery(
                    read.report, user=read.user, purpose=read.purpose
                ),
                state["window"],
            )
        boundary(first=False)
    finally:
        state["stop"] = True
        trigger.release()
        thread.join(timeout=REQUEST_TIMEOUT_S)
    if thread.is_alive():
        samples.errors.append("writer thread did not finish")
    return samples


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]


def _verify(
    dep: Deployment, samples: Samples, schedule: Schedule
) -> list[str]:
    """Serial replay, audit chain and log bookkeeping; the problems found."""
    problems: list[str] = []
    commit_log, refusal_log = dep.state.logs_snapshot()
    report = check_linearizable(build_scenario, commit_log, refusal_log)
    problems.extend(f"replay: {v}" for v in report.violations)
    if not dep.state.service.audit_log.verify_chain():
        problems.append("audit hash chain does not verify")
    delivered = dep.warm_delivered + samples.count("deliver:delivered")
    refused = dep.warm_refused + samples.count("deliver:refused")
    applied = samples.count("mutate:applied")
    checks = {
        "delivery commits": (
            sum(1 for e in commit_log if e.kind == "deliver"), delivered
        ),
        "mutation commits": (sum(1 for e in commit_log if e.kind == "mutate"), applied),
        "refusal log entries": (len(refusal_log), refused),
        "deliveries replayed": (report.deliveries_checked, delivered),
        "refusals replayed": (report.refusals_checked, refused),
        "mutations applied": (applied, len(schedule.mutations)),
        "requests answered": (len(samples.records), schedule.requests),
    }
    for what, (seen, expected) in checks.items():
        if seen != expected:
            problems.append(f"{what}: {seen}, expected {expected}")
    return problems


def _hit_ratio(after: dict, before: dict) -> float:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def _obs_finished() -> int:
    return len(TRACER.finished) + TRACER.dropped


def run(
    workload: Workload,
    seed: int,
    seconds: int,
    *,
    trace: bool = False,
    import_s: float = 0.0,
    untraced_rps: float | None = None,
    spans_path: Path | None = None,
) -> RunResult:
    """Set up :data:`SETUPS` times, drive the last deployment, verify, report.

    ``import_s`` is the raw time the process took to import the program.
    """
    import_scaled = import_s * _scale(probe())
    setup_times = []
    dep = None
    for _ in range(SETUPS):
        if dep is not None:
            dep.daemon.stop()
            dep = None
        _reset_process_state(workload)
        dep = _deploy(workload)
        setup_times.append(dep.setup_s)
    assert dep is not None
    setup_s = import_scaled + statistics.median(setup_times)

    schedule = build_schedule(dep.state.scenario.workload, workload, seed, seconds)
    checker = dep.state.service.checker
    plan_before = default_plan_cache().stats.as_dict()
    verdict_before = checker.cache_stats()
    spans_before = _obs_finished()
    tracer = LayerTracer() if trace else None
    gc.collect()
    try:
        with tracer.installed() if tracer else nullcontext():
            samples = _drive(dep.daemon, schedule, workload.reads_per_window)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        counters = {
            "plan_hit_ratio": _hit_ratio(
                default_plan_cache().stats.as_dict(), plan_before
            ),
            "verdict_hit_ratio": _hit_ratio(checker.cache_stats(), verdict_before),
            "obs_spans": _obs_finished() - spans_before,
        }
    finally:
        dep.daemon.stop()
    engine_mode = get_default_config().mode
    obs_state = "on" if obs.enabled() else "off"
    resilience = dep.state.service.resilience
    obs.disable()

    problems = _verify(dep, samples, schedule)
    attempted = schedule.requests
    failed_requests = sum(1 for k, _, _ in samples.records if k not in _OK)
    failed = min(attempted, failed_requests + len(problems))
    requests = len(samples.records)
    run_scale = samples.scaled_wall_s / samples.wall_s
    probe_ms = sorted(p * 1e3 for p in samples.probes)

    lines = [
        f"workload {workload.name}: seed {seed}, {attempted} requests "
        f"({len(schedule.reads)} deliveries, {len(schedule.mutations)} mutations), "
        f"trace {'on' if trace else 'off'}; schedule sha256 "
        f"{hashlib.sha256(schedule.to_bytes()).hexdigest()[:16]}",
        f"environment: engine mode {engine_mode}, vector tier "
        f"{'on' if vector._ENABLED else 'off'}, obs {obs_state}, resilience "
        + ("off" if resilience is None else f"{resilience.mode} (plan none, breakers)"),
        f"host: {len(probe_ms)} probes, {probe_ms[0]:.3f}/{statistics.median(probe_ms):.3f}"
        f"/{probe_ms[-1]:.3f} ms min/median/max (nominal {NOMINAL_PROBE_S * 1e3:g} ms); "
        f"times below are scaled to nominal, run factor {run_scale:.4f}",
        f"setup: {setup_s:.3f} s scaled (imports {import_s:.3f} s raw + median of "
        f"{[round(t, 3) for t in setup_times]} s scaled)",
        f"timed phase: {samples.wall_s:.3f} s raw in {len(samples.window_wall)} "
        f"windows; outcomes "
        + ", ".join(
            f"{k}={samples.count(k)}" for k in sorted({r[0] for r in samples.records})
        ),
    ]
    lines += [f"error: {e}" for e in samples.errors[:10]]
    lines += [f"violation: {p}" for p in problems[:20]]

    segments = samples.segment_timings(workload.windows_per_segment)
    raw_segments = samples.segment_timings(workload.windows_per_segment, scaled=False)
    failed_deliveries = sum(
        1 for k, _, _ in samples.records if k.startswith("deliver:") and k not in _OK
    )
    deliver_ms = samples.latencies("deliver:delivered") + [float("inf")] * failed_deliveries
    refuse_ms = samples.latencies("deliver:refused")
    applied_ms = samples.latencies("mutate:applied")
    samples_of = {
        "deliver_p50_ms": len(deliver_ms),
        "deliver_p95_ms": len(deliver_ms),
        "refuse_p50_ms": len(refuse_ms),
    }
    e2e = {"throughput_rps": (requests / samples.scaled_wall_s, requests)}
    raw = {"throughput_rps": requests / samples.wall_s}
    for name, n in samples_of.items():
        e2e[name] = (statistics.median(seg[name] for seg in segments), n)
        raw[name] = statistics.median(seg[name] for seg in raw_segments)
    e2e["success_share"] = ((attempted - failed) / attempted, attempted)
    e2e["peak_rss_mb"] = (peak_rss_mb, 1)
    e2e["setup_s"] = (setup_s, SETUPS)
    lines.append(
        "end-to-end metrics" + (" (traced run)" if trace else "")
        + f"; percentiles are medians over {len(segments)} segments:"
    )
    for name, (value, n) in e2e.items():
        unscaled = f"  raw {raw[name]:.4f}" if name in raw else ""
        lines.append(
            f"  {name:<16} {value:>12.4f} {END_TO_END_METRICS[name]:<6} n={n}{unscaled}"
        )
    lines += render_histogram(
        "delivered", deliver_ms,
        {"p50": e2e["deliver_p50_ms"][0], "p95": e2e["deliver_p95_ms"][0]},
    )
    lines += render_histogram("refused", refuse_ms, {"p50": e2e["refuse_p50_ms"][0]})
    if applied_ms:
        lines += render_histogram("applied", applied_ms, {})

    if tracer is None:
        metrics = {
            name: (value, END_TO_END_METRICS[name]) for name, (value, _) in e2e.items()
        }
        return RunResult(failed == 0, attempted, failed, metrics, lines)

    counters["traced_rps"] = e2e["throughput_rps"][0]
    counters["untraced_rps"] = untraced_rps or counters["traced_rps"]
    layer = tracer.metrics(
        latency_s_total=sum(seconds for _, seconds, _ in samples.records),
        requests=requests,
        counters=counters,
        scale=run_scale,
    )
    if spans_path is not None:
        tracer.write_spans(spans_path)
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path}")
    lines.append("per-layer metrics (traced run; times scaled to nominal):")
    for name, value in layer.items():
        lines.append(f"  {name:<30} {value:>12.4f} {PER_LAYER_METRICS[name]}")
    metrics = {name: (value, PER_LAYER_METRICS[name]) for name, value in layer.items()}
    return RunResult(failed == 0, attempted, failed, metrics, lines)
