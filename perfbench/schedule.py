"""Workloads and their seeded request schedules.

A schedule is a pure function of the report catalog, the workload, the
seed and the run length: the benchmark builds it before the timed phase
and the daemon only ever sees the generated requests. Every run of one
workload and length performs the same number of requests, so audit-log
growth, mutation count and memory match across commits.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.service.loadgen import ROLE_TO_USER, LoadSpec
from repro.service.state import MUTATION_KINDS, MutationSpec
from repro.simulation.scenario import PURPOSES

__all__ = ["Workload", "WORKLOADS", "Read", "Schedule", "build_schedule"]


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``reads_per_second`` sizes the run: a run of ``--seconds s`` sends
    ``reads_per_second * s`` reader requests, chosen so the timed phase
    lasts about ``s`` seconds on a 2-vCPU host at the time the benchmark
    was defined. A faster program finishes the same work sooner.
    """

    name: str
    reads_per_second: int
    #: Requests between two host-speed probes (see ``perfbench.host``).
    reads_per_window: int
    #: Consecutive windows per segment; each latency percentile is the
    #: median over segments of its value within a segment.
    windows_per_segment: int
    #: obs on and a fault-free resilience policy installed (production setup).
    guarded: bool = False
    #: A writer submits one mutation per this many completed reader
    #: requests; 0 means the workload sends no mutations.
    reads_per_mutation: int = 0


#: The benchmark's workloads; BENCHMARK.json and README.md say why each exists.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "read_warm",
            reads_per_second=1500,
            reads_per_window=100,
            windows_per_segment=25,
        ),
        Workload(
            "read_guarded",
            reads_per_second=700,
            reads_per_window=30,
            windows_per_segment=50,
            guarded=True,
        ),
        Workload(
            "refresh_mix",
            reads_per_second=80,
            reads_per_window=20,
            windows_per_segment=20,
            reads_per_mutation=40,
        ),
    )
}


#: Requests per report over which the compliant share is exact.
_DECK = 5


@dataclass(frozen=True)
class Read:
    """One delivery request."""

    report: str
    user: str
    purpose: str


@dataclass(frozen=True)
class Schedule:
    """The reader's requests, and the mutations a writer interleaves.

    Mutation ``m`` is submitted once the reader has completed
    ``(m + 1) * reads_per_mutation`` requests.
    """

    reads: tuple[Read, ...]
    mutations: tuple[MutationSpec, ...] = ()
    reads_per_mutation: int = 0

    @property
    def requests(self) -> int:
        return len(self.reads) + len(self.mutations)

    def to_bytes(self) -> bytes:
        """Canonical serialization (what "byte-identical" is judged on)."""
        doc = {
            "reads": [[r.report, r.user, r.purpose] for r in self.reads],
            "mutations": [[m.kind, m.seed] for m in self.mutations],
            "reads_per_mutation": self.reads_per_mutation,
        }
        return json.dumps(doc, separators=(",", ":")).encode()


def _reads(
    reports: Sequence, rng: random.Random, count: int, compliant_bias: float
) -> Iterable[Read]:
    """Uniform over ``reports``, drawn in shuffled rounds that send every
    report once. A ``compliant_bias`` share of each report's requests go to
    an audience member under the agreed purpose, the rest to a random user
    and purpose (the mix of :class:`repro.service.loadgen.LoadSpec`); the
    share is dealt from a shuffled deck per report.

    Rounds and decks keep each report's share of the deliveries fixed, so
    the seed decides the order of requests but not how much each report
    weighs in a percentile: report costs differ by about 2.3x, and the
    slowest report makes up about 5% of deliveries, right at the p95.
    """
    users = sorted(ROLE_TO_USER.values())
    compliant_per_deck = round(_DECK * compliant_bias)
    round_: list = []
    decks: dict[str, list[bool]] = {}
    for _ in range(count):
        if not round_:
            round_ = list(reports)
            rng.shuffle(round_)
        definition = round_.pop()
        deck = decks.get(definition.name)
        if not deck:
            deck = [True] * compliant_per_deck + [False] * (_DECK - compliant_per_deck)
            rng.shuffle(deck)
            decks[definition.name] = deck
        if deck.pop():
            user = ROLE_TO_USER[sorted(definition.audience)[0]]
            purpose = definition.purpose
        else:
            user = users[rng.randrange(len(users))]
            purpose = PURPOSES[rng.randrange(len(PURPOSES))]
        yield Read(definition.name, user, purpose)


def build_schedule(
    reports: Sequence, workload: Workload, seed: int, seconds: int
) -> Schedule:
    """The deterministic schedule of one run.

    ``reports`` are the deployment's report definitions (name, audience,
    purpose are read). The reader stream depends only on ``seed``, so every
    workload sends a prefix of the same request stream for one seed.
    """
    if not reports:
        raise ValueError("empty report catalog")
    if seconds < 1:
        raise ValueError("seconds must be >= 1")
    count = workload.reads_per_second * seconds
    bias = LoadSpec().compliant_bias
    reads = tuple(_reads(reports, random.Random(seed), count, bias))
    every = workload.reads_per_mutation
    if not every:
        return Schedule(reads)
    # Mutation m carries seed m in every run: which reports a redefinition
    # shrinks decides how much cold work follows, and with seeded targets
    # that alone moved refresh_mix throughput by 15% between seeds.
    mutations = tuple(
        MutationSpec(MUTATION_KINDS[m % len(MUTATION_KINDS)], m)
        for m in range((count - 1) // every)
    )
    return Schedule(reads, mutations, every)
