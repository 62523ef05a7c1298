"""Incremental re-verification: re-prove only what a mutation touched.

``DeploymentVerifier.verify()`` is a pure function of its inputs, and those
inputs decompose cleanly per *unit* — one approved meta-report, or one
report. A unit's verdicts depend only on:

* the **environment**: source policies, the universe relation and its
  column vocabulary, the solver budget, and whether replay is enabled;
* the unit's own **definition chain**: its query fingerprint, the
  fingerprints of every catalog view it (transitively) reads, and the
  schemas of the base tables underneath;
* for meta-reports, the attached **PLA** (name, version, status, and the
  exact annotation set); for reports, the identity token of the covering
  meta-report — including *its* PLA and chain — as resolved right now.

Crucially, the verdicts do **not** depend on table *data*: counterexample
replay synthesizes its own one-row universe
(:func:`repro.verify.counterexample.build_replay_catalog` copies only view
definitions), so data-only inserts can never change a verdict. That makes
"insert a million facts, re-verify" a pure cache hit.

:class:`IncrementalVerifier` walks the catalog in exactly the order of a
full run, keys each unit on a digest of the value-based token above, and
re-proves only units whose token changed. Everything else is replayed from
:class:`VerdictCache` — which serializes to JSON, so ``repro verify
--incremental`` stays warm *across processes*. The composed
:class:`~repro.verify.verdicts.VerificationReport` is identical to a full
run's (the randomized mutation-sequence property in
``tests/test_verify_incremental.py`` enforces it); cache bookkeeping lives
on the cache object, never in the report.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.core.metareport import MetaReport
from repro.core.pla import PLA
from repro.relational.catalog import Catalog
from repro.relational.query import Query
from repro.reports.definition import ReportDefinition
from repro.verify.counterexample import Counterexample, ReplayOutcome
from repro.verify.crosslevel import DeploymentVerifier, VerificationInput
from repro.verify.solver import DEFAULT_BUDGET
from repro.verify.verdicts import (
    CheckResult,
    ProofTrace,
    Verdict,
    VerificationReport,
)

__all__ = [
    "VerdictCache",
    "IncrementalVerifier",
    "result_to_dict",
    "result_from_dict",
]

#: Bump when unit-key composition or the payload schema changes; a cache
#: written by an older layout is discarded wholesale instead of misread.
#: 2: functional dependencies joined the environment token.
#: 3: base tables in a chain token carry their column types.
CACHE_FORMAT = 3


# ---------------------------------------------------------------------------
# CheckResult <-> JSON (full-fidelity round trip for the disk cache)
# ---------------------------------------------------------------------------


def result_to_dict(result: CheckResult) -> dict[str, Any]:
    """Serialize one :class:`CheckResult` for the verdict cache.

    Unlike ``CheckResult.to_dict()`` (a rendering projection), this is a
    round-trip encoding: :func:`result_from_dict` rebuilds an equal object.
    Date values inside counterexample rows normalize to ISO strings — the
    one lossy corner, and it only affects the witness row's display form.
    """
    out: dict[str, Any] = {
        "code": result.code,
        "location": result.location,
        "claim": result.claim,
        "verdict": result.verdict.value,
        "message": result.message,
        "fix_hint": result.fix_hint,
    }
    if result.trace is not None:
        out["trace"] = result.trace.to_dict()
    if result.counterexample is not None:
        out["counterexample"] = result.counterexample.to_dict()
    return out


def result_from_dict(data: dict[str, Any]) -> CheckResult:
    """Rebuild a :class:`CheckResult` written by :func:`result_to_dict`."""
    trace = None
    if "trace" in data:
        t = data["trace"]
        trace = ProofTrace(
            steps=tuple(t["steps"]),
            evaluations=t["evaluations"],
            domain_size=t["domain_size"],
        )
    counterexample = None
    if "counterexample" in data:
        c = data["counterexample"]
        counterexample = Counterexample(
            relation=c["relation"],
            row=dict(c["row"]),
            replay=ReplayOutcome(
                confirmed=c["replay"]["confirmed"],
                delivered_rows=c["replay"]["delivered_rows"],
                detail=c["replay"]["detail"],
            ),
        )
    return CheckResult(
        code=data["code"],
        location=data["location"],
        claim=data["claim"],
        verdict=Verdict(data["verdict"]),
        message=data.get("message", ""),
        trace=trace,
        counterexample=counterexample,
        fix_hint=data.get("fix_hint", ""),
    )


# ---------------------------------------------------------------------------
# The verdict cache
# ---------------------------------------------------------------------------


@dataclass
class _Unit:
    """One cached unit: its results plus the report-coverage increment."""

    results: tuple[CheckResult, ...]
    covered: int = 0


class VerdictCache:
    """Digest-keyed store of per-unit verification results.

    Keys are SHA-256 digests of the full value-based unit token, so *any*
    relevant input change produces a different key — stale entries are
    simply never looked up again (and age out of the JSON file only via
    :meth:`save`'s rewrite; the file holds at most the units of the runs
    that wrote it plus what they reused).
    """

    def __init__(self) -> None:
        self._entries: dict[str, _Unit] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> _Unit | None:
        unit = self._entries.get(key)
        if unit is None:
            self.misses += 1
        else:
            self.hits += 1
        return unit

    def put(self, key: str, unit: _Unit) -> None:
        self._entries[key] = unit

    def stats(self) -> str:
        total = self.hits + self.misses
        return (
            f"verdict cache: {self.hits}/{total} units reused, "
            f"{self.misses} re-proved, {len(self._entries)} stored"
        )

    # -- persistence --------------------------------------------------------

    def to_json(self) -> str:
        entries = {
            key: {
                "covered": unit.covered,
                "results": [result_to_dict(r) for r in unit.results],
            }
            for key, unit in self._entries.items()
        }
        return json.dumps(
            {"format": CACHE_FORMAT, "entries": entries}, default=str
        )

    @classmethod
    def from_json(cls, text: str) -> "VerdictCache":
        cache = cls()
        data = json.loads(text)
        if data.get("format") != CACHE_FORMAT:
            return cache  # unknown layout: start cold rather than misread
        for key, entry in data["entries"].items():
            cache._entries[key] = _Unit(
                results=tuple(
                    result_from_dict(r) for r in entry["results"]
                ),
                covered=entry["covered"],
            )
        return cache

    @classmethod
    def load(cls, path: str) -> "VerdictCache":
        """Load from ``path``; a missing or corrupt file starts cold."""
        if not os.path.exists(path):
            return cls()
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except (OSError, ValueError, KeyError, TypeError):
            return cls()

    def save(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Unit tokens
# ---------------------------------------------------------------------------


def _pla_token(pla: PLA) -> tuple:
    return (
        pla.name,
        pla.version,
        pla.status.value,
        pla.target,
        tuple(a.describe() for a in pla.annotations),
    )


def _chain_token(catalog: Catalog, query: Query) -> tuple:
    """Fingerprints of every relation the query transitively reads.

    Views contribute their normalized query fingerprint (a view
    redefinition anywhere in the chain changes the token); base tables
    contribute only their schema, names and types (replay types the
    universe's columns from it) — row data is irrelevant because replay
    synthesizes its own instance.
    """
    seen: dict[str, tuple] = {}
    stack = list(query.referenced_relations())
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        if catalog.is_view(name):
            view_query = catalog.view(name).query
            seen[name] = ("view", view_query.fingerprint())
            stack.extend(view_query.referenced_relations())
        elif catalog.is_table(name):
            seen[name] = (
                "table",
                tuple((c.name, c.ctype.value) for c in catalog.table(name).schema),
            )
        else:
            seen[name] = ("missing",)
    return tuple(sorted(seen.items()))


def _digest(token: Any) -> str:
    payload = json.dumps(token, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The incremental verifier
# ---------------------------------------------------------------------------


@dataclass
class IncrementalVerifier:
    """Cross-level verification that re-proves only changed units.

    Produces a :class:`VerificationReport` identical to
    ``DeploymentVerifier(target, budget=..., replay=...).verify()`` — same
    results in the same order, same coverage — while fetching unchanged
    units from ``cache``. Pass a cache loaded via :meth:`VerdictCache.load`
    to stay warm across processes.
    """

    target: VerificationInput
    budget: int = DEFAULT_BUDGET
    replay: bool = True
    cache: VerdictCache = field(default_factory=VerdictCache)

    def verify(self) -> VerificationReport:
        inner = DeploymentVerifier(
            self.target, budget=self.budget, replay=self.replay
        )
        report = VerificationReport()
        # Meta-report tokens repeat across every report they cover; memoize
        # per run (identity-keyed: definitions are not mutated mid-run).
        self._mr_memo: dict[int, tuple] = {}
        env = self._env_token()
        n_metareports = 0
        for metareport in self.target.metareports:
            if not metareport.approved:
                continue
            n_metareports += 1
            key = _digest(
                ("metareport-unit", env, self._metareport_token(metareport))
            )
            unit = self.cache.get(key)
            if unit is None:
                unit = _Unit(tuple(inner.metareport_results(metareport)))
                self.cache.put(key, unit)
            for result in unit.results:
                report.add(result)
        n_reports = 0
        for definition in self.target.reports:
            key = _digest(
                ("report-unit", env, self._report_token(definition))
            )
            unit = self.cache.get(key)
            if unit is None:
                results, covered = inner.report_results(definition)
                unit = _Unit(tuple(results), covered)
                self.cache.put(key, unit)
            n_reports += unit.covered
            for result in unit.results:
                report.add(result)
        report.coverage = {
            "metareports": n_metareports,
            "reports": n_reports,
            "source_policies": len(self.target.source_policies),
        }
        return report

    # -- token composition ---------------------------------------------------

    def _env_token(self) -> tuple:
        return (
            tuple(
                (p.name, p.relation, str(p.predicate))
                for p in self.target.source_policies
            ),
            # FD mappings condition VER002 proofs and replay, so they are
            # environment: a changed dimension (new/renamed pairs) must
            # re-prove everything, exactly like a changed source policy.
            tuple(fd.describe() for fd in self.target.fds),
            self.target.universe,
            self.target.universe_columns,
            self.budget,
            self.replay,
        )

    def _metareport_token(self, metareport: MetaReport) -> tuple:
        """Everything a meta-report unit's verdicts are a function of."""
        memo = getattr(self, "_mr_memo", None)
        if memo is not None:
            cached = memo.get(id(metareport))
            if cached is not None:
                return cached
        token = self._metareport_token_uncached(metareport)
        if memo is not None:
            memo[id(metareport)] = token
        return token

    def _metareport_token_uncached(self, metareport: MetaReport) -> tuple:
        catalog = self.target.catalog
        if catalog.is_view(metareport.name):
            runtime_query = catalog.view(metareport.name).query
            runtime_fp = runtime_query.fingerprint()
        else:
            runtime_query = metareport.query
            runtime_fp = None
        assert metareport.pla is not None  # units are approved by contract
        return (
            metareport.name,
            metareport.query.fingerprint(),
            runtime_fp,
            _chain_token(catalog, runtime_query),
            _pla_token(metareport.pla),
        )

    def _report_token(self, definition: ReportDefinition) -> tuple:
        """Report verdicts also pivot on which meta-report covers them *now*.

        ``find_covering`` re-resolves every run (containment proofs are
        memoized elsewhere, so this stays cheap); a PLA revision or
        meta-report redefinition flows into this token through the covering
        meta-report's own token.
        """
        covering, _attempts = self.target.metareports.find_covering(
            definition, self.target.catalog
        )
        return (
            definition.name,
            definition.version,
            definition.query.fingerprint(),
            _chain_token(self.target.catalog, definition.query),
            None if covering is None else self._metareport_token(covering),
        )
