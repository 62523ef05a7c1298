"""Benchmark entry point.

    python3 perfbench/run.py --workload read_warm --seed 1 --seconds 10 --trace 0

Runs one workload in this process and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A traced run first runs the same
workload untraced in a child process, the baseline ``trace.overhead_pct``
is measured against. Run it from the repository root; it imports the
program from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

#: Process-wide switches the program reads at import time. CI legs set them;
#: a benchmark run measures the defaults, so they are cleared and reported.
PINNED_ENV = (
    "REPRO_ENGINE_MODE",
    "REPRO_VECTOR",
    "REPRO_OBS",
    "REPRO_OBS_MAX_SPANS",
    "REPRO_FAULTS",
)

#: Where a traced run writes its spans (listed in the root .gitignore).
SPANS_DIR = ROOT / ".perfbench_out"

CHILD_TIMEOUT_S = 170


def pin_environment() -> list[str]:
    """Clear :data:`PINNED_ENV`; returns ``NAME=value`` for each one cleared."""
    return [f"{name}={os.environ.pop(name)}" for name in PINNED_ENV if name in os.environ]


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _untraced_throughput(args: argparse.Namespace) -> float:
    """Run the same workload untraced in a fresh process; its throughput."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    child = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if child.returncode != 0:
        raise RuntimeError(
            f"untraced baseline run failed ({child.returncode}): {child.stderr[-2000:]}"
        )
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("untraced baseline run was not correct")
    return result["metrics"]["throughput_rps"]["value"]


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    cleared = pin_environment()
    from perfbench.host import pin_to_one_cpu, single_malloc_arena

    cpu = pin_to_one_cpu()
    one_arena = single_malloc_arena()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from perfbench.bench import run
    from perfbench.schedule import WORKLOADS

    import_s = time.perf_counter() - STARTED
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    for entry in cleared:
        print(f"environment: cleared {entry}")
    print(
        f"host: pinned to cpu {cpu}, "
        f"{'one malloc arena' if one_arena else 'default malloc arenas'}"
    )

    untraced_rps = _untraced_throughput(args) if args.trace else None
    result = run(
        workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        import_s=import_s,
        untraced_rps=untraced_rps,
        spans_path=SPANS_DIR / f"spans-{workload.name}.jsonl" if args.trace else None,
    )
    if untraced_rps is not None:
        print(f"untraced baseline (fresh process): throughput_rps {untraced_rps:.4f}")
    for line in result.lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
