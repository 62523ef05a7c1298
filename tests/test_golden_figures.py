"""Golden-file pin for the committed benchmark transcript.

``results/RESULTS.txt`` is the full ``run_all.py`` transcript that the
README and the paper-comparison notes point at. This test freezes its
*structure* — every table shape, header, row count, verdict line, and
figure section — while masking the numbers that legitimately vary from
machine to machine (wall-clock timings, throughputs, ratios derived from
them). Seeded quantities (row counts, violation counts, coverage totals)
stay pinned verbatim: if an engine or policy change alters what the
figures say, this test fails before the stale transcript ships.

Regenerating after an intentional change::

    PYTHONPATH=src python benchmarks/run_all.py --json fig1 fig2 fig3 fig4 \
        fig5 abl-mr abl-cont abl-anon abl-pbac abl-neg abl-int engine \
        > results/RESULTS.txt
    PYTHONPATH=src python tests/test_golden_figures.py --regen

The first command reruns every figure and the full-size engine bench
(≈3.5 minutes, most of it the 1M-row row reference) and rewrites
``BENCH_engine.json``; the second refreshes the normalized fixture at
``tests/golden/RESULTS.normalized.txt``. Commit all three.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS = REPO_ROOT / "results" / "RESULTS.txt"
GOLDEN = REPO_ROOT / "tests" / "golden" / "RESULTS.normalized.txt"

# Wall-clock derived: timings ("1.6s", "0.0004"), speedups ("5.3x"),
# ratios ("0.939") — any float literal.
_FLOAT = re.compile(r"\d+\.\d+(?:[eE][+-]?\d+)?")
# Throughput figures are printed with thousands separators ("1,210,661").
_GROUPED_INT = re.compile(r"\b\d{1,3}(?:,\d{3})+\b")


def normalize(text: str) -> str:
    """Mask machine-dependent numbers, keep everything else verbatim."""
    text = _FLOAT.sub("#.#", text)
    text = _GROUPED_INT.sub("#,#", text)
    # Collapse trailing whitespace so column padding around masked numbers
    # cannot cause spurious diffs.
    return "\n".join(line.rstrip() for line in text.splitlines()) + "\n"


def test_results_transcript_matches_golden():
    assert RESULTS.exists(), (
        "results/RESULTS.txt is missing; regenerate it with the first "
        "command in this module's docstring"
    )
    actual = normalize(RESULTS.read_text())
    expected = GOLDEN.read_text()
    assert actual == expected, (
        "results/RESULTS.txt no longer matches the golden fixture. If the "
        "change is intentional, regenerate the transcript and refresh the "
        "fixture (see this module's docstring for both commands)."
    )


def test_transcript_pins_engine_acceptance_lines():
    """The engine section's qualitative claims survive normalization."""
    normalized = normalize(RESULTS.read_text())
    assert "Row reference vs fused vector kernels" in normalized
    assert "over the row reference." in normalized
    assert "via proof memoization" in normalized


def main(argv: list[str]) -> int:
    if argv[1:] != ["--regen"]:
        print(__doc__)
        return 2
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(normalize(RESULTS.read_text()))
    print(f"wrote {GOLDEN.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
