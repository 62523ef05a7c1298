"""ABL-CONT — containment/derivability checker correctness and scaling.

The §5 compliance mechanism hinges on deciding "is this report expressible
as a subset or view over a meta-report" quickly and soundly. We measure:

* correctness of the CQ containment checker and of the derivability check
  built on it against brute-force evaluation on random instances
  (soundness must be perfect; completeness is reported). The derivability
  pairs include meta-reports that join a relation the report does not
  read, whose join restricts the rows the report may draw, meta-reports
  that hide columns, and bare ``SELECT *`` and UNION reports;
* throughput vs number of atoms (joins) and vs catalog/report-count, since
  every report-catalog change re-runs the check.

Expected shape: zero unsound verdicts; cost grows with atom count
(homomorphism search) but stays sub-millisecond at workload-realistic sizes.

Run standalone:  python benchmarks/bench_ablation_containment.py
"""

from __future__ import annotations

import random
import statistics
import time

from repro.bench import print_table
from repro.core import (
    NotConjunctive,
    check_derivability,
    clear_proof_caches,
    is_contained,
)
from repro.core.containment import spj_core
from repro.relational import (
    Catalog,
    Query,
    Table,
    View,
    execute,
    make_schema,
    parse_query,
)
from repro.relational.types import ColumnType


def build_catalog(n_rows: int = 60, seed: int = 3) -> Catalog:
    rng = random.Random(seed)
    cat = Catalog()
    t = make_schema(
        ("k", ColumnType.INT), ("x", ColumnType.INT), ("y", ColumnType.INT)
    )
    u = make_schema(("k", ColumnType.INT), ("z", ColumnType.INT))
    cat.add_table(
        Table.from_rows(
            "t",
            t,
            [
                (rng.randint(0, 9), rng.randint(-20, 20), rng.randint(-20, 20))
                for _ in range(n_rows)
            ],
            provider="p",
        )
    )
    cat.add_table(
        Table.from_rows(
            "u",
            u,
            [(rng.randint(0, 9), rng.randint(-20, 20)) for _ in range(n_rows)],
            provider="q",
        )
    )
    return cat


def random_query(rng: random.Random, *, join: bool) -> str:
    ops = ["<", "<=", ">", ">=", "=", "!="]
    conjuncts = [
        f"{rng.choice(['x', 'y'])} {rng.choice(ops)} {rng.randint(-15, 15)}"
        for _ in range(rng.randint(0, 2))
    ]
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    if join:
        return f"SELECT x, y FROM t JOIN u ON k = k{where}"
    return f"SELECT x, y FROM t{where}"


def correctness_trial(n_pairs: int = 400, seed: int = 11) -> dict:
    rng = random.Random(seed)
    cat = build_catalog()
    unsound = 0
    certified = 0
    incomplete = 0
    for _ in range(n_pairs):
        join = rng.random() < 0.4
        q1 = parse_query(random_query(rng, join=join))
        q2 = parse_query(random_query(rng, join=join))
        try:
            verdict = is_contained(q1, q2, cat)
        except NotConjunctive:
            continue
        out1 = {tuple(r) for r in execute(q1, cat).rows}
        out2 = {tuple(r) for r in execute(q2, cat).rows}
        truth = out1 <= out2
        if verdict:
            certified += 1
            if not truth:
                unsound += 1
        elif truth:
            incomplete += 1  # expected: the checker is conservative
    return {
        "pairs": n_pairs,
        "certified": certified,
        "unsound": unsound,
        "conservative_misses": incomplete,
    }


def _where(rng: random.Random, columns: list[str]) -> str:
    ops = ["<", "<=", ">", ">=", "=", "!="]
    conjuncts = [
        f"{rng.choice(columns)} {rng.choice(ops)} {rng.randint(-15, 15)}"
        for _ in range(rng.randint(0, 2))
    ]
    return f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""


def derivability_pair(rng: random.Random) -> tuple[Query, Query]:
    """One (report, meta-report) pair over ``t(k, x, y)`` and ``w(k2, z)``.

    Half the meta-reports join ``w``, and half of each kind hide the key
    columns. Reports read ``t`` alone (so a join-bearing meta-report over
    an unjoined report is a common case the check must refuse), the
    meta-report view registered as ``mr``, or ``t JOIN w``; a quarter are a
    UNION of two blocks, and half of the rest a bare ``SELECT *``.
    """
    if rng.random() < 0.5:
        columns = rng.choice(["k, k2, x, y, z", "x, y, z"])
        meta = f"SELECT {columns} FROM t JOIN w ON k = k2" + _where(rng, ["x", "y", "z"])
    else:
        columns = rng.choice(["k, x, y", "x, y"])
        meta = f"SELECT {columns} FROM t{_where(rng, ['x', 'y'])}"
    if rng.random() < 0.25:
        report = _report_block(rng, star=False).union_with(
            _report_block(rng, star=False)
        )
    else:
        report = _report_block(rng, star=rng.random() < 0.5)
    return report, parse_query(meta)


def _report_block(rng: random.Random, *, star: bool) -> Query:
    source, where_columns, select = rng.choice(
        [
            ("t", ["x", "y"], "x, y"),
            ("mr", ["x", "y"], "x, y"),
            ("t JOIN w ON k = k2", ["x", "y", "z"], "x, z"),
        ]
    )
    select = "*" if star else select
    return parse_query(f"SELECT {select} FROM {source}{_where(rng, where_columns)}")


def derivability_trial(n_pairs: int = 400, seed: int = 13) -> dict:
    """Certified derivability against execution.

    A pair is sound when, for every SELECT block of the report, every row
    of the block's select-project-join core, projected onto the columns
    the block reads, is a row of the meta-report projected the same way.
    The columns come from execution, not from the checker's own rule: the
    executed block's schema plus every column the query names. A report
    that reads a column the meta-report hides must be refused.
    """
    rng = random.Random(seed)
    cat = build_catalog()
    w = make_schema(("k2", ColumnType.INT), ("z", ColumnType.INT))
    cat.add_table(
        Table.from_rows(
            "w",
            w,
            [(rng.randint(0, 9), rng.randint(-20, 20)) for _ in range(20)],
            provider="q",
        )
    )
    unsound = certified = incomplete = 0
    for _ in range(n_pairs):
        report, meta = derivability_pair(rng)
        cat.add_view(View("mr", meta), replace=True)
        verdict = check_derivability(report, "mr", meta, cat)
        approved = execute(meta, cat)
        truth: bool | None = True
        for block in report.blocks():
            columns = sorted(
                set(execute(block, cat).schema.names) | block.columns_used()
            )
            if not set(columns) <= set(approved.schema.names):
                truth = None
                break
            core = execute(spj_core(block), cat)
            truth = truth and {
                tuple(row[c] for c in columns) for row in core.iter_dicts()
            } <= {tuple(row[c] for c in columns) for row in approved.iter_dicts()}
        if truth is None:
            assert not verdict, f"{report} reads columns {meta} hides"
            continue
        if verdict:
            certified += 1
            if not truth:
                unsound += 1
        elif truth:
            incomplete += 1
    return {
        "pairs": n_pairs,
        "certified": certified,
        "unsound": unsound,
        "conservative_misses": incomplete,
    }


def scaling_rows(atom_counts=(1, 2, 3, 4), repeats: int = 200) -> list[dict]:
    cat = Catalog()
    rows = []
    for n in atom_counts:
        # n relations r0..r{n-1}, chained joins on shared key columns.
        for i in range(n):
            schema = make_schema(("k", ColumnType.INT), (f"v{i}", ColumnType.INT))
            cat.add_table(
                Table.from_rows(f"r{n}_{i}", schema, [], provider="p"),
                replace=True,
            )
        froms = f"FROM r{n}_0 " + " ".join(
            f"JOIN r{n}_{i} ON r{n}_{i - 1}.k = r{n}_{i}.k" for i in range(1, n)
        )
        sql = f"SELECT v0 {froms} WHERE v0 > 3"
        q1 = parse_query(sql)
        q2 = parse_query(f"SELECT v0 {froms}")
        # is_contained memoizes per DDL generation: empty the proof caches
        # before every timed call, so each one runs the homomorphism search.
        elapsed = 0.0
        for _ in range(repeats):
            clear_proof_caches()
            start = time.perf_counter()
            contained = is_contained(q1, q2, cat)
            elapsed += time.perf_counter() - start
            assert contained
        rows.append({"atoms": n, "us_per_check": elapsed / repeats * 1e6})
    return rows


def derivability_throughput(scenario=None, passes: int = 15) -> dict:
    """Checks/second of the production derivability path on the scenario.

    One pass checks every current report against the first meta-report
    with the proof caches emptied first, so each check runs in full. The
    figure is the median over ``passes``; the quartiles give its spread.
    """
    from repro.simulation import build_scenario

    if scenario is None:
        scenario = build_scenario()
    reports = scenario.report_catalog.all_current()
    metareport = scenario.metareports.metareports[0]
    rates = []
    for _ in range(passes):
        clear_proof_caches()
        start = time.perf_counter()
        for report in reports:
            check_derivability(
                report.query, metareport.name, metareport.query, scenario.bi_catalog
            )
        rates.append(len(reports) / (time.perf_counter() - start))
    q1, median, q3 = statistics.quantiles(rates, n=4)
    return {"median": median, "q1": q1, "q3": q3, "passes": passes}


def main(scenario=None) -> None:
    print_table(
        [
            {"check": "containment", **correctness_trial()},
            {"check": "derivability", **derivability_trial()},
        ],
        title="ABL-CONT: containment and derivability soundness trial",
    )
    print_table(scaling_rows(), title="ABL-CONT: homomorphism check vs atom count")
    rate = derivability_throughput(scenario)
    print(
        f"\nderivability checks/s on scenario workload: {rate['median']:,.0f} "
        f"(median of {rate['passes']} cold passes; quartiles "
        f"{rate['q1']:,.0f}-{rate['q3']:,.0f})"
    )


# -- pytest-benchmark targets -------------------------------------------------


def test_containment_soundness():
    outcome = correctness_trial()
    assert outcome["unsound"] == 0
    assert outcome["certified"] > 0


def test_derivability_soundness():
    outcome = derivability_trial()
    assert outcome["unsound"] == 0
    assert outcome["certified"] > 0


def test_containment_scaling(benchmark):
    rows = benchmark.pedantic(scaling_rows, rounds=1, iterations=1)
    assert all(r["us_per_check"] < 10_000 for r in rows)


def test_derivability_throughput(benchmark, scenario):
    rate = benchmark.pedantic(
        lambda: derivability_throughput(scenario), rounds=1, iterations=1
    )
    assert rate["median"] > 100  # fast enough to gate every catalog change
    main(scenario)


if __name__ == "__main__":
    main()
