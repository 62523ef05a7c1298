"""Meta-reports as test cases (§5): pre-operation testing of the PLA pipeline.

"Once meta-reports are approved by the data sources they will be used not
only as a reference for the implementation of privacy requirements
compliant ETL procedures but also as a set of test cases on which the
design of the cleaning and reporting activities could be tested before they
are actually put in operation on the real data."

:class:`PlaTestHarness` synthesizes a small fixture dataset from a
meta-report's schema — deliberately including the adversarial rows its PLA
annotations are about (sensitive values for intensional conditions, groups
straddling the aggregation threshold, all audience roles) — runs the full
check→enforce pipeline on the *fixture* instead of real data, and verifies
every annotation's observable guarantee. A failing case means the PLA
implementation would have leaked in production; this is §6's "tested before
they are put in operation" made executable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ComplianceError, PolicyError
from repro.anonymize.pseudonym import Pseudonymizer
from repro.core.annotations import (
    AggregationThreshold,
    AnonymizationRequirement,
    AttributeAccess,
    IntensionalCondition,
)
from repro.core.compliance import ComplianceChecker
from repro.core.metareport import MetaReport, MetaReportSet
from repro.core.translation import ReportLevelEnforcer
from repro.policy.subjects import SubjectRegistry
from repro.relational.algebra import AggSpec
from repro.relational.catalog import Catalog, View
from repro.relational.expressions import Col, Comparison, IsNull, Lit
from repro.relational.query import Query
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import ColumnType
from repro.reports.definition import ReportDefinition

__all__ = ["PlaTestResult", "PlaTestHarness"]


@dataclass(frozen=True)
class PlaTestResult:
    """Outcome of one generated test case."""

    case: str
    annotation: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.case}: {self.detail or self.annotation}"


@dataclass
class PlaTestHarness:
    """Pre-operation tests for one meta-report's PLA."""

    roles: tuple[str, ...] = ("analyst", "auditor", "health_director")
    fixture_group_size: int = 4  # rows per synthetic group
    results: list[PlaTestResult] = field(default_factory=list)

    # -- fixture synthesis ---------------------------------------------------

    def _fixture_value(self, column: Column, i: int) -> Any:
        if column.ctype is ColumnType.INT:
            return 10 + i
        if column.ctype is ColumnType.FLOAT:
            return 1.5 * (i + 1)
        if column.ctype is ColumnType.BOOL:
            return i % 2 == 0
        if column.ctype is ColumnType.DATE:
            return f"2007-01-{(i % 27) + 1:02d}"
        # Two distinct values per string column: groups over any column stay
        # large enough to survive realistic thresholds, so probes measure
        # the annotation under test rather than incidental sparsity.
        return f"{column.name}_{i % 2}"

    def build_fixture(
        self, metareport: MetaReport, *, group_column: str | None = None
    ) -> tuple[Catalog, Schema]:
        """A synthetic world exercising every annotation of the PLA.

        The fixture table has one big group (≥ threshold contributors) on
        ``group_column``, one singleton group (must be suppressed), and —
        for every intensional condition — rows on both sides of the
        condition.
        """
        if metareport.pla is None:
            raise PolicyError(f"meta-report {metareport.name!r} has no PLA to test")
        # The fixture base carries the meta-report's columns *plus* every
        # hidden column its intensional conditions reference — exactly like
        # the real universe does.
        hidden: list[str] = []
        for annotation in metareport.pla.annotations:
            if isinstance(annotation, IntensionalCondition):
                for column in sorted(annotation.condition.columns()):
                    if column not in metareport.columns() and column not in hidden:
                        hidden.append(column)
        columns = tuple(metareport.columns()) + tuple(hidden)
        schema = Schema([self._fixture_column(c, metareport) for c in columns])

        rows: list[dict[str, Any]] = []
        if group_column is None:
            group_column = self._choose_probe(metareport)[0]
        # Big group: identical first column, distinct elsewhere.
        for i in range(self.fixture_group_size):
            row = {
                c: self._fixture_value(schema.column(c), i) for c in columns
            }
            row[group_column] = f"{group_column}_big"
            rows.append(row)
        # Singleton group.
        singleton = {
            c: self._fixture_value(schema.column(c), 99) for c in columns
        }
        singleton[group_column] = f"{group_column}_solo"
        rows.append(singleton)
        # Intensional edge rows: satisfy and violate each condition.
        for annotation in metareport.pla.annotations:
            if not isinstance(annotation, IntensionalCondition):
                continue
            for satisfied, tag in ((True, "ok"), (False, "hit")):
                row = {
                    c: self._fixture_value(schema.column(c), 50 + len(rows))
                    for c in columns
                }
                row[group_column] = f"{group_column}_big"  # keep the group big
                self._force_condition(row, annotation, satisfied)
                rows.append(row)

        base = Table("fixture_base", schema, provider="fixture")
        for row in rows:
            base.insert({c: row.get(c) for c in columns})
        catalog = Catalog()
        catalog.add_table(base)
        catalog.add_view(
            View(metareport.query.source, Query.from_("fixture_base").project(*columns))
        )
        catalog.add_view(metareport.as_view())
        return catalog, schema

    def _fixture_column(self, name: str, metareport: MetaReport) -> Column:
        # Conditions comparing to numbers force numeric columns.
        assert metareport.pla is not None
        for annotation in metareport.pla.annotations:
            if isinstance(annotation, IntensionalCondition):
                for conjunct in self._comparisons(annotation):
                    if (
                        isinstance(conjunct.left, Col)
                        and conjunct.left.name == name
                        and isinstance(conjunct.right, Lit)
                        and isinstance(conjunct.right.value, (int, float))
                    ):
                        return Column(name, ColumnType.INT)
        return Column(name, ColumnType.STRING)

    @staticmethod
    def _comparisons(annotation: IntensionalCondition) -> list[Comparison]:
        from repro.relational.expressions import conjuncts

        return [
            c for c in conjuncts(annotation.condition) if isinstance(c, Comparison)
        ]

    def _force_condition(
        self, row: dict[str, Any], annotation: IntensionalCondition, satisfied: bool
    ) -> None:
        """Mutate ``row`` so the condition evaluates to ``satisfied``.

        Handles the conjunctive equality/inequality fragment PLAs use in
        practice ("disease != 'HIV'"); other shapes keep the synthetic value
        (the case is then only exercised on the satisfied side).
        """
        for comparison in self._comparisons(annotation):
            if not (
                isinstance(comparison.left, Col)
                and isinstance(comparison.right, Lit)
            ):
                continue
            column, value = comparison.left.name, comparison.right.value
            if column not in row:
                continue
            if comparison.op == "!=":
                row[column] = f"not_{value}" if satisfied else value
            elif comparison.op == "=":
                row[column] = value if satisfied else f"not_{value}"

    # -- the test run -------------------------------------------------------------

    def run(self, metareport: MetaReport) -> list[PlaTestResult]:
        """Generate the fixture and verify every annotation's guarantee."""
        self.results = []
        group_column, probe_role = self._choose_probe(metareport)
        catalog, schema = self.build_fixture(metareport, group_column=group_column)
        pla = metareport.pla
        assert pla is not None

        metareports = MetaReportSet()
        metareports.metareports.append(metareport)  # share the approved object
        checker = ComplianceChecker(catalog=catalog, metareports=metareports)
        enforcer = ReportLevelEnforcer(
            catalog=catalog, pseudonymizer=Pseudonymizer(salt="pla-test")
        )
        subjects = SubjectRegistry()
        subjects.purposes.declare("test")
        for role in self.roles:
            subjects.add_role(role)
            subjects.add_user(f"user_{role}", role)

        for annotation in pla.annotations:
            if isinstance(annotation, AggregationThreshold):
                self._test_threshold(
                    annotation, metareport, checker, enforcer, subjects,
                    group_column, probe_role,
                )
            elif isinstance(annotation, IntensionalCondition):
                self._test_intensional(
                    annotation, metareport, checker, enforcer, subjects,
                    group_column, probe_role,
                )
            elif isinstance(annotation, AttributeAccess):
                self._test_attribute_access(annotation, metareport, checker)
            elif isinstance(annotation, AnonymizationRequirement):
                self._test_anonymization(
                    annotation, metareport, checker, enforcer, subjects, group_column
                )
        return self.results

    def _choose_probe(self, metareport: MetaReport) -> tuple[str, str]:
        """A (group column, role) pair the PLA's access rules permit.

        The harness's probe reports must not trip attribute-access rules by
        accident — those get their own dedicated case.
        """
        assert metareport.pla is not None
        access = {
            a.attribute: a.allowed_roles
            for a in metareport.pla.annotations
            if isinstance(a, AttributeAccess)
        }
        # Prefer an unrestricted column with any role.
        for column in metareport.columns():
            if column not in access:
                return column, self.roles[0]
        # Otherwise find a column/role pair the rules allow.
        for column in metareport.columns():
            for role in self.roles:
                if {role} <= access[column]:
                    return column, role
        raise PolicyError(
            "no (column, role) combination is viewable under this PLA; "
            "nothing can be reported at all"
        )

    def _record(self, case: str, annotation, passed: bool, detail: str = "") -> None:
        self.results.append(
            PlaTestResult(
                case=case,
                annotation=annotation.describe(),
                passed=passed,
                detail=detail,
            )
        )

    def _report(
        self, metareport: MetaReport, group_column: str, *, audience: frozenset[str]
    ) -> ReportDefinition:
        query = (
            Query.from_(metareport.name)
            .group(group_column)
            .agg(AggSpec("count", None, "n"))
            .project(group_column, "n")
        )
        return ReportDefinition(
            name="pla_test_report",
            title="PLA test",
            query=query,
            audience=audience,
            purpose="test",
        )

    def _deliver(self, report, checker, enforcer, subjects):
        verdict = checker.check_report(report)
        if not verdict.compliant:
            raise ComplianceError(
                "; ".join(str(v) for v in verdict.violations)
            )
        role = sorted(report.audience)[0]
        context = subjects.context(f"user_{role}", "test")
        return enforcer.generate(report, context, verdict)

    def _test_threshold(
        self, annotation, metareport, checker, enforcer, subjects,
        group_column, probe_role,
    ) -> None:
        audience = frozenset({probe_role})
        try:
            instance = self._deliver(
                self._report(metareport, group_column, audience=audience),
                checker, enforcer, subjects,
            )
        except ComplianceError as exc:
            self._record(
                "threshold/undersized-group-suppressed", annotation, False, str(exc)
            )
            return
        ok = all(
            len(instance.table.lineage_of(i)) >= annotation.min_group_size
            for i in range(len(instance.table))
        )
        solo_published = any(
            str(row.get(group_column, "")).endswith("_solo")
            for row in instance.table.iter_dicts()
        )
        self._record(
            "threshold/undersized-group-suppressed",
            annotation,
            ok and not solo_published,
            f"published {len(instance.table)} group(s), "
            f"suppressed {instance.suppressed_rows}",
        )

    def _test_intensional(
        self, annotation, metareport, checker, enforcer, subjects,
        group_column, probe_role,
    ) -> None:
        if annotation.action == "suppress_cell":
            self._test_cells(annotation, metareport, checker, enforcer, subjects)
            return
        audience = frozenset({probe_role})
        try:
            instance = self._deliver(
                self._report(metareport, group_column, audience=audience),
                checker, enforcer, subjects,
            )
        except ComplianceError as exc:
            self._record("intensional/edge-rows", annotation, False, str(exc))
            return
        # The big group had fixture_group_size + 2 rows; exactly one of the
        # two edge rows violates the condition, so with suppress_row the
        # group's contributor count must drop by one.
        big = [
            i
            for i in range(len(instance.table))
            if str(instance.table.row_dict(i).get(group_column, "")).endswith("_big")
        ]
        if not big:
            self._record(
                "intensional/edge-rows", annotation, True, "no big group delivered"
            )
            return
        contributors = len(instance.table.lineage_of(big[0]))
        expected = self.fixture_group_size + 1  # one edge row removed
        self._record(
            "intensional/edge-rows",
            annotation,
            contributors == expected,
            f"big group aggregated {contributors} rows (expected {expected})",
        )

    def _test_cells(self, annotation, metareport, checker, enforcer, subjects) -> None:
        """Deliver reports that read the attribute over the fixture: its rows,
        or when the PLA has a threshold, ``COUNT(*)`` over every row and over
        the rows whose attribute is not NULL. The case passes only if exactly
        the fixture rows the condition is not true on come back blanked."""
        case, attribute = "intensional/edge-rows", annotation.attribute
        annotations = metareport.pla.annotations
        roles = [
            role
            for role in self.roles
            if all(
                role in a.allowed_roles
                for a in annotations
                if isinstance(a, AttributeAccess) and a.attribute == attribute
            )
        ]
        if not roles:
            self._record(case, annotation, True, "no role may read the attribute")
            return

        def deliver(query: Query) -> Table:
            report = ReportDefinition(
                name="pla_test_cells", title="t", query=query,
                audience=frozenset({roles[0]}), purpose="test",
            )
            return self._deliver(report, checker, enforcer, subjects).table

        source = Query.from_(metareport.name)
        try:
            if any(isinstance(a, AggregationThreshold) for a in annotations):
                count = AggSpec("count", None, "n")
                rows = deliver(source.agg(count)).all_lineage()
                shown = deliver(source.filter(~IsNull(Col(attribute))).agg(count))
                blanked = rows - shown.all_lineage()
            else:
                table = deliver(source.project(attribute))
                rows = table.all_lineage()
                blanked = {
                    row
                    for i, (value,) in enumerate(table.rows)
                    if value is None
                    for row in table.lineage_of(i)
                }
        except ComplianceError as exc:
            self._record(case, annotation, False, str(exc))
            return
        base = enforcer.catalog.table("fixture_base")
        failing = {
            row
            for row in rows
            if annotation.condition.evaluate(base.row_dict(row.ordinal)) is not True
        }
        self._record(
            case,
            annotation,
            bool(failing) and blanked == failing,
            f"{len(blanked)} of {len(rows)} cell(s) blanked, "
            f"{len(failing)} fail the condition",
        )

    def _test_attribute_access(self, annotation, metareport, checker) -> None:
        outsiders = [r for r in self.roles if r not in annotation.allowed_roles]
        if annotation.attribute not in metareport.columns() or not outsiders:
            self._record("attribute-access/outsider-blocked", annotation, True,
                         "no outsider role to test")
            return
        report = ReportDefinition(
            name="pla_test_access",
            title="t",
            query=Query.from_(metareport.name).project(annotation.attribute)
            .group(annotation.attribute).agg(AggSpec("count", None, "n"))
            .project(annotation.attribute, "n"),
            audience=frozenset({outsiders[0]}),
            purpose="test",
        )
        verdict = checker.check_report(report)
        self._record(
            "attribute-access/outsider-blocked",
            annotation,
            not verdict.compliant,
            f"verdict for role {outsiders[0]!r}: "
            + ("blocked" if not verdict.compliant else "NOT blocked"),
        )

    def _test_anonymization(
        self, annotation, metareport, checker, enforcer, subjects, group_column
    ) -> None:
        if annotation.method != "pseudonymize":
            self._record("anonymization/applied", annotation, True, "non-pseudonym method")
            return
        allowed_roles = [r for r in self.roles]
        report = ReportDefinition(
            name="pla_test_anon",
            title="t",
            query=Query.from_(metareport.name)
            .group(annotation.attribute)
            .agg(AggSpec("count", None, "n"))
            .project(annotation.attribute, "n"),
            audience=frozenset({allowed_roles[-1]}),
            purpose="test",
        )
        verdict = checker.check_report(report)
        if not verdict.compliant:
            self._record(
                "anonymization/applied", annotation, True,
                "report blocked outright (stricter than required)",
            )
            return
        role = sorted(report.audience)[0]
        instance = enforcer.generate(
            report, subjects.context(f"user_{role}", "test"), verdict
        )
        values = instance.table.column_values(annotation.attribute)
        self._record(
            "anonymization/applied",
            annotation,
            all(str(v).startswith("anon-") for v in values),
            f"{len(values)} value(s) checked",
        )

    def summary(self) -> str:
        passed = sum(1 for r in self.results if r.passed)
        return f"PLA tests: {passed}/{len(self.results)} passed"
