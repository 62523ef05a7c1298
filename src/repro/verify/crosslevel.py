"""The Fig 5 cross-level consistency pass: prove the PLA continuum ordering.

The paper's four-level continuum (source → warehouse → meta-report →
report) is only a guarantee if the levels actually agree. This pass proves,
statically, per deployment:

* **VER001** — every catalog report draws rows only from the region its
  covering meta-report's *approved* definition admits. The premise is the
  report's *runtime* region (the catalog view chain actually executed,
  conjoined with the covering PLA's row restrictions), so silent drift
  between the registered view and the approved artifact is exactly what
  gets caught.
* **VER002** — every meta-report's runtime region is consistent with the
  source/warehouse policies below it (VPD-style row predicates, consent
  deny rules): no row a source excludes can surface through the view.
* **VER003/VER004** — every PLA visibility condition is satisfiable (it
  does not suppress everything) and falsifiable (it is not a tautology
  that suppresses nothing).
* **VER005** — every meta-report's runtime region is nonempty; an empty
  region makes all compliance over it vacuous.

Refuted escape claims (VER001/VER002) ship a synthesized one-row database
instance replayed through the production enforcement path
(:mod:`repro.verify.counterexample`); a replay that fails to reproduce the
violation raises **VER006** (static/runtime drift) instead of being
silently trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.core.annotations import IntensionalCondition
from repro.core.containment import NotConjunctive
from repro.core.metareport import MetaReport, MetaReportSet, effective_region
from repro.core.pla import PLA, PlaLevel, PlaRegistry
from repro.relational.catalog import Catalog
from repro.relational.expressions import And, Expr, Not
from repro.relational.query import Query
from repro.reports.definition import ReportDefinition
from repro.verify.counterexample import Counterexample, replay_escape
from repro.verify.fd import (
    FunctionalDependency,
    complete_row,
    fds_from_star,
    violated_fd,
)
from repro.verify.solver import (
    DEFAULT_BUDGET,
    Sat,
    SolverResult,
    falsifiable,
    implication_counterexample,
    satisfiable,
)
from repro.verify.verdicts import (
    CheckResult,
    ProofTrace,
    Verdict,
    VerificationReport,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.persistence.store import Deployment
    from repro.simulation.scenario import Scenario

__all__ = [
    "SourcePolicy",
    "VerificationInput",
    "DeploymentVerifier",
    "verify_scenario",
]


@dataclass(frozen=True)
class SourcePolicy:
    """A row-level policy imposed below the meta-report level.

    ``predicate`` describes the rows the owner allows to flow upward
    (VPD predicate / consent filter polarity: keep where true).
    """

    name: str
    relation: str
    predicate: Expr

    def describe(self) -> str:
        return f"{self.name} on {self.relation}: keep where {self.predicate}"


@dataclass
class VerificationInput:
    """Everything one cross-level verification run reasons over."""

    catalog: Catalog
    metareports: MetaReportSet
    reports: Sequence[ReportDefinition]
    universe: str
    universe_columns: tuple[str, ...]
    plas: PlaRegistry | None = None
    source_policies: tuple[SourcePolicy, ...] = ()
    #: Declared functional dependencies over the universe's columns
    #: (usually derived from the warehouse star dimensions). Conjoined
    #: into VER002 premises when needed; replay rejects witnesses that
    #: violate them. Part of the incremental environment state token.
    fds: tuple[FunctionalDependency, ...] = ()

    @classmethod
    def from_scenario(cls, scenario: "Scenario") -> "VerificationInput":
        """Verification input for a built Fig 1 scenario.

        Source policies are projected from approved source/warehouse-level
        PLAs *and* from provider-side intensional deny-row associations
        (the Fig 2 consent machinery), so source enforcement configured at
        the provider shows up in the cross-level proof.
        """
        policies = list(
            _policies_from_registry(scenario.pla_registry)
        )
        for provider_name in sorted(scenario.providers):
            provider = scenario.providers[provider_name]
            for assoc in provider.metadata.associations:
                if assoc.metadata.get("deny_row"):
                    policies.append(
                        SourcePolicy(
                            name=assoc.name,
                            relation=assoc.table,
                            predicate=Not(assoc.condition),
                        )
                    )
        return cls(
            catalog=scenario.bi_catalog,
            metareports=scenario.metareports,
            reports=tuple(scenario.report_catalog.all_current()),
            universe=scenario.universe_name,
            universe_columns=tuple(scenario.wide_columns),
            plas=scenario.pla_registry,
            source_policies=tuple(policies),
            fds=fds_from_star(scenario.star),
        )

    @classmethod
    def from_deployment(cls, deployment: "Deployment") -> "VerificationInput":
        """Verification input for a deployment loaded from disk."""
        metareports = list(deployment.metareports)
        if not metareports:
            raise NotConjunctive("deployment has no meta-reports to verify")
        universe = metareports[0].query.source
        return cls(
            catalog=deployment.catalog,
            metareports=deployment.metareports,
            reports=tuple(deployment.reports.all_current()),
            universe=universe,
            universe_columns=deployment.catalog.output_names(universe),
            plas=deployment.plas,
            source_policies=tuple(_policies_from_registry(deployment.plas)),
        )


def _policies_from_registry(registry: PlaRegistry) -> Iterator[SourcePolicy]:
    for level in (PlaLevel.SOURCE, PlaLevel.WAREHOUSE):
        for pla in registry.approved_at_level(level):
            restriction = pla.row_restriction()
            if restriction is not None:
                yield SourcePolicy(
                    name=pla.name, relation=pla.target, predicate=restriction
                )


def _policy_applies(policy: SourcePolicy, bases: frozenset[str]) -> bool:
    """Does a source policy's relation feed any of these base tables?

    Matches the exact base name, a warehouse staging alias (``dwh_<name>``),
    a star-schema fact alias (``fact_<name>``), or a provider-qualified
    identity (``.../<name>``) — the naming conventions a source table can
    surface under along the Fig 1 flow.
    """
    for base in bases:
        if base == policy.relation:
            return True
        if base in (f"dwh_{policy.relation}", f"fact_{policy.relation}"):
            return True
        if base.endswith(f"/{policy.relation}"):
            return True
    return False


def _trace(result: SolverResult, *steps: str) -> ProofTrace:
    return ProofTrace(
        steps=tuple(steps) + ((result.reason,) if result.reason else ()),
        evaluations=result.evaluations,
        domain_size=result.domain_size,
    )


@dataclass
class DeploymentVerifier:
    """Runs the full cross-level pass over one deployment's state."""

    target: VerificationInput
    budget: int = DEFAULT_BUDGET
    replay: bool = True
    _report: VerificationReport = field(default_factory=VerificationReport)

    def verify(self) -> VerificationReport:
        self._report = VerificationReport()
        n_metareports = 0
        for metareport in self.target.metareports:
            if not metareport.approved:
                continue
            n_metareports += 1
            self._verify_metareport(metareport)
        n_reports = 0
        for definition in self.target.reports:
            n_reports += self._verify_report(definition)
        self._report.coverage = {
            "metareports": n_metareports,
            "reports": n_reports,
            "source_policies": len(self.target.source_policies),
        }
        return self._report

    # -- unit entry points (incremental re-verification) ---------------------

    def metareport_results(self, metareport: MetaReport) -> list[CheckResult]:
        """All check results of one approved meta-report, in emission order.

        The unit boundary :mod:`repro.verify.incremental` caches on: the
        results depend only on this meta-report's definition/view chain, its
        PLA, and the verifier environment (source policies, universe,
        budget, replay) — never on which other units ran.
        """
        saved = self._report
        self._report = VerificationReport()
        try:
            self._verify_metareport(metareport)
            return list(self._report.results)
        finally:
            self._report = saved

    def report_results(
        self, definition: ReportDefinition
    ) -> tuple[list[CheckResult], int]:
        """Check results of one report plus its covering count (0 or 1)."""
        saved = self._report
        self._report = VerificationReport()
        try:
            covered = self._verify_report(definition)
            return list(self._report.results), covered
        finally:
            self._report = saved

    # -- meta-report level ---------------------------------------------------

    def _verify_metareport(self, metareport: MetaReport) -> None:
        location = f"metareport:{metareport.name}"
        pla = metareport.pla
        assert pla is not None  # guarded by .approved
        self._check_conditions(pla, location)
        region, region_error = self._runtime_region(metareport)
        if region_error is not None:
            self._report.add(
                CheckResult(
                    code="VER005",
                    location=location,
                    claim=f"meta-report {metareport.name!r} region is decidable",
                    verdict=Verdict.UNKNOWN,
                    message=region_error,
                )
            )
            return
        self._check_nonempty(metareport, region, location)
        self._check_source_policies(metareport, region, location)

    def _runtime_region(
        self, metareport: MetaReport
    ) -> tuple[Expr | None, str | None]:
        """Runtime region of a meta-report: catalog view chain ∧ PLA rows."""
        if self.target.catalog.is_view(metareport.name):
            query = self.target.catalog.view(metareport.name).query
        else:
            query = metareport.query
        try:
            region = effective_region(
                query, self.target.catalog, universe=self.target.universe
            )
        except NotConjunctive as exc:
            return None, str(exc)
        assert metareport.pla is not None
        restriction = metareport.pla.row_restriction()
        if restriction is not None:
            region = restriction if region is None else And(region, restriction)
        return region, None

    def _check_conditions(self, pla: PLA, location: str) -> None:
        for annotation in pla.annotations:
            if not isinstance(annotation, IntensionalCondition):
                continue
            sat = satisfiable(annotation.condition, budget=self.budget)
            self._report.add(
                CheckResult(
                    code="VER003",
                    location=location,
                    claim=(
                        f"visibility condition on {annotation.attribute!r} "
                        f"({annotation.condition}) admits at least one row"
                    ),
                    verdict=_verdict_from(sat, refute_on=Sat.UNSAT),
                    message=(
                        "the condition is provably unsatisfiable; it "
                        "suppresses every row"
                        if sat.status is Sat.UNSAT
                        else ""
                    ),
                    trace=_trace(sat, f"SAT({annotation.condition})"),
                    fix_hint=(
                        "restate the condition; as written the rule blanks "
                        "the whole view"
                        if sat.status is Sat.UNSAT
                        else ""
                    ),
                )
            )
            fals = falsifiable(annotation.condition, budget=self.budget)
            self._report.add(
                CheckResult(
                    code="VER004",
                    location=location,
                    claim=(
                        f"visibility condition on {annotation.attribute!r} "
                        f"({annotation.condition}) can actually suppress a row"
                    ),
                    verdict=_verdict_from(fals, refute_on=Sat.UNSAT),
                    message=(
                        "the condition is provably a tautology; it never "
                        "suppresses anything"
                        if fals.status is Sat.UNSAT
                        else ""
                    ),
                    trace=_trace(fals, f"FALSIFIABLE({annotation.condition})"),
                    fix_hint=(
                        "state the actual restriction, or drop the rule"
                        if fals.status is Sat.UNSAT
                        else ""
                    ),
                )
            )

    def _check_nonempty(
        self, metareport: MetaReport, region: Expr | None, location: str
    ) -> None:
        sat = satisfiable(region, budget=self.budget)
        self._report.add(
            CheckResult(
                code="VER005",
                location=location,
                claim=(
                    f"meta-report {metareport.name!r} runtime region admits "
                    "at least one row"
                ),
                verdict=_verdict_from(sat, refute_on=Sat.UNSAT),
                message=(
                    "the region (view filters ∧ PLA row restrictions) is "
                    "provably empty; every report over it is vacuous"
                    if sat.status is Sat.UNSAT
                    else ""
                ),
                trace=_trace(sat, f"SAT({region})"),
            )
        )

    def _check_source_policies(
        self, metareport: MetaReport, region: Expr | None, location: str
    ) -> None:
        bases = self._bases_of(metareport)
        applicable = [
            p
            for p in self.target.source_policies
            if _policy_applies(p, bases)
        ]
        universe_cols = set(self.target.universe_columns)
        for policy in applicable:
            claim = (
                f"meta-report {metareport.name!r} region implies source "
                f"policy {policy.name!r} ({policy.predicate})"
            )
            if not set(policy.predicate.columns()) <= universe_cols:
                self._report.add(
                    CheckResult(
                        code="VER002",
                        location=location,
                        claim=claim,
                        verdict=Verdict.UNKNOWN,
                        message=(
                            "policy predicate uses columns outside the "
                            "warehouse universe vocabulary"
                        ),
                    )
                )
                continue
            result = implication_counterexample(
                region, policy.predicate, budget=self.budget
            )
            fds = self._applicable_fds(region, policy.predicate)
            fd_steps: tuple[str, ...] = ()
            if fds and self._needs_fds(result, fds):
                # Undecided, or refuted only by a row the warehouse cannot
                # contain: re-prove under the declared dependencies. A
                # plain proof/consistent refutation never takes this path,
                # so FD-free verdicts are byte-identical to before.
                premise = region
                for fd in fds:
                    premise = (
                        fd.predicate()
                        if premise is None
                        else And(premise, fd.predicate())
                    )
                fd_steps = tuple(
                    f"ASSUME({fd.describe_short()}) [{fd.source or 'declared'}]"
                    for fd in fds
                )
                result = implication_counterexample(
                    premise, policy.predicate, budget=self.budget
                )
            check = CheckResult(
                code="VER002",
                location=location,
                claim=claim,
                verdict=_verdict_from(result, refute_on=Sat.SAT),
                message=(
                    f"row {result.witness} flows through the meta-report but "
                    f"violates {policy.name!r}"
                    if result.status is Sat.SAT
                    else ""
                ),
                trace=_trace(
                    result,
                    *fd_steps,
                    f"IMPLIES({region} ⇒ {policy.predicate})",
                ),
                counterexample=self._synthesize(
                    metareport, result, policy.predicate, fds=fds
                ),
                fix_hint=(
                    "narrow the meta-report view (or its PLA) to the source "
                    "policy's region"
                    if result.status is Sat.SAT
                    else ""
                ),
            )
            self._report.add(check)
            self._check_replay_drift(check, location)
        if not applicable:
            self._report.add(
                CheckResult(
                    code="VER002",
                    location=location,
                    claim=(
                        f"meta-report {metareport.name!r} region is "
                        "consistent with all applicable source policies "
                        "(0 applicable)"
                    ),
                    verdict=Verdict.PROVED,
                )
            )

    def _applicable_fds(
        self, region: Expr | None, conclusion: Expr
    ) -> tuple[FunctionalDependency, ...]:
        """Declared FDs that can bear on one implication claim.

        An FD applies when both its columns belong to the universe
        vocabulary and at least one of them is mentioned by the claim —
        anything else could only inflate the solver's domains.
        """
        universe_cols = set(self.target.universe_columns)
        claim_cols = set(conclusion.columns())
        if region is not None:
            claim_cols |= set(region.columns())
        return tuple(
            fd
            for fd in self.target.fds
            if set(fd.columns()) <= universe_cols
            and set(fd.columns()) & claim_cols
        )

    @staticmethod
    def _needs_fds(
        result: SolverResult, fds: Sequence[FunctionalDependency]
    ) -> bool:
        """Should the implication be re-proved under the declared FDs?

        Yes when the FD-free pass was undecided, or when its refuting
        witness violates a declared dependency (the "counterexample" is a
        row no real warehouse instance contains). A clean proof or an
        FD-respecting refutation stands as-is — conjoining FDs could only
        re-derive it at higher cost.
        """
        if result.status is Sat.UNKNOWN:
            return True
        return (
            result.status is Sat.SAT
            and result.witness is not None
            and violated_fd(result.witness, fds) is not None
        )

    def _bases_of(self, metareport: MetaReport) -> frozenset[str]:
        catalog = self.target.catalog
        if metareport.name in catalog:
            return catalog.base_relations(metareport.name)
        return catalog.base_relations_of_query(metareport.query)

    # -- report level --------------------------------------------------------

    def _verify_report(self, definition: ReportDefinition) -> int:
        """VER001 for one report; returns 1 when a covering proof was run."""
        covering, _attempts = self.target.metareports.find_covering(
            definition, self.target.catalog
        )
        if covering is None:
            return 0  # RPT001 (lint) owns the no-covering case
        location = f"report:{definition.name}"
        assert covering.pla is not None
        claim = (
            f"report {definition.name!r} stays inside the approved region "
            f"of meta-report {covering.name!r}"
        )
        try:
            premise = effective_region(
                definition.query, self.target.catalog, universe=self.target.universe
            )
            conclusion = effective_region(
                covering.query, self.target.catalog, universe=self.target.universe
            )
        except NotConjunctive as exc:
            self._report.add(
                CheckResult(
                    code="VER001",
                    location=location,
                    claim=claim,
                    verdict=Verdict.UNKNOWN,
                    message=str(exc),
                )
            )
            return 1
        restriction = covering.pla.row_restriction()
        if restriction is not None:
            premise = (
                restriction if premise is None else And(premise, restriction)
            )
        result = implication_counterexample(
            premise, conclusion, budget=self.budget
        )
        counterexample = None
        if result.status is Sat.SAT and conclusion is not None:
            counterexample = self._synthesize_for_query(
                definition.query, covering, result, conclusion
            )
        check = CheckResult(
            code="VER001",
            location=location,
            claim=claim,
            verdict=_verdict_from(result, refute_on=Sat.SAT),
            message=(
                f"row {result.witness} is deliverable by the report but lies "
                f"outside the approved region ({conclusion})"
                if result.status is Sat.SAT
                else ""
            ),
            trace=_trace(result, f"IMPLIES({premise} ⇒ {conclusion})"),
            counterexample=counterexample,
            fix_hint=(
                "re-register the meta-report view from its approved "
                "definition, or re-elicit the PLA for the wider region"
                if result.status is Sat.SAT
                else ""
            ),
        )
        self._report.add(check)
        self._check_replay_drift(check, location)
        return 1

    # -- counterexample plumbing --------------------------------------------

    def _full_row(self, witness: dict[str, Any]) -> dict[str, Any]:
        row: dict[str, Any] = {
            name: None for name in self.target.universe_columns
        }
        row.update(
            {k: v for k, v in witness.items() if k in row or not row}
        )
        return row

    def _synthesize(
        self,
        metareport: MetaReport,
        result: SolverResult,
        target_predicate: Expr,
        fds: tuple[FunctionalDependency, ...] = (),
    ) -> Counterexample | None:
        if result.status is not Sat.SAT or result.witness is None:
            return None
        query = (
            self.target.catalog.view(metareport.name).query
            if self.target.catalog.is_view(metareport.name)
            else metareport.query
        )
        return self._synthesize_for_query(
            query, metareport, result, target_predicate, fds=fds
        )

    def _synthesize_for_query(
        self,
        query: Query,
        covering: MetaReport,
        result: SolverResult,
        target_predicate: Expr,
        fds: tuple[FunctionalDependency, ...] = (),
    ) -> Counterexample | None:
        if result.status is not Sat.SAT or result.witness is None:
            return None
        row = self._full_row(result.witness)
        if fds:
            # NULL-padding a column the witness never mentioned must not
            # fabricate an FD-violating pair; complete it from the mapping
            # its bound partner selects.
            row = complete_row(row, result.witness, fds)
        assert covering.pla is not None
        conditions = [
            a
            for a in covering.pla.annotations
            if isinstance(a, IntensionalCondition) and a.action == "suppress_row"
        ]
        if self.replay:
            outcome = replay_escape(
                self.target.catalog,
                self.target.universe,
                row,
                query,
                conditions,
                target_predicate,
                fds=fds,
            )
        else:
            from repro.verify.counterexample import ReplayOutcome

            outcome = ReplayOutcome(confirmed=False, detail="replay disabled")
        return Counterexample(
            relation=self.target.universe, row=row, replay=outcome
        )

    def _check_replay_drift(self, check: CheckResult, location: str) -> None:
        """A refutation the runtime does not reproduce is its own finding."""
        if not self.replay or check.verdict is not Verdict.REFUTED:
            return
        ce = check.counterexample
        if ce is not None and not ce.replay.confirmed:
            self._report.add(
                CheckResult(
                    code="VER006",
                    location=location,
                    claim=(
                        f"runtime replay reproduces the {check.code} "
                        "refutation"
                    ),
                    verdict=Verdict.REFUTED,
                    message=(
                        "the synthesized counterexample did not reproduce "
                        f"at runtime: {ce.replay.detail}; the static layer "
                        "and the engine disagree"
                    ),
                    fix_hint=(
                        "inspect the enforcement path for semantics the "
                        "verifier does not model"
                    ),
                )
            )


def _verdict_from(result: SolverResult, *, refute_on: Sat) -> Verdict:
    if result.status is Sat.UNKNOWN:
        return Verdict.UNKNOWN
    return Verdict.REFUTED if result.status is refute_on else Verdict.PROVED


def verify_scenario(scenario: "Scenario", **kwargs: Any) -> VerificationReport:
    """One-call cross-level verification of a built scenario."""
    return DeploymentVerifier(
        VerificationInput.from_scenario(scenario), **kwargs
    ).verify()
