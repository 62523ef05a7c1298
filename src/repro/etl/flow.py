"""ETL flows: ordered operator pipelines with PLA checks and provenance capture.

A flow runs its operators in order; before each operator it consults the
ETL-level PLA registry (Fig 3b). In ``strict`` mode a violation aborts the
flow; otherwise the violating operator is *skipped* (its output never
materializes — privacy-by-construction) and the violation is recorded.
Every executed operator is also recorded into a
:class:`~repro.provenance.graph.ProvenanceGraph` for the elicitation tool.

Source and operator calls can additionally run under a
:class:`~repro.resilience.ResiliencePolicy`: faults (injected or real) are
retried with backoff, escalated failures fail *closed* — the operator's
output never materializes, everything downstream of it cascades into
``skipped``, and the fault is recorded in :attr:`FlowResult.faults` — and a
propagated :class:`~repro.resilience.Deadline` bounds the whole flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ComplianceError, EtlError, FaultError
from repro.etl.annotations import EtlPlaRegistry, EtlViolation
from repro.etl.operators import EtlOperator, ExtractOp
from repro.obs import instrument
from repro.obs.trace import TRACER
from repro.provenance.graph import DatasetNode, ProvenanceGraph, TransformNode
from repro.relational.catalog import Catalog
from repro.relational.table import Table, relation_identity
from repro.resilience.retry import Deadline
from repro.resilience.runtime import ResiliencePolicy, default_policy

__all__ = ["EtlFlow", "FlowFault", "FlowResult"]


@dataclass(frozen=True)
class FlowFault:
    """One operator that failed for availability (not compliance) reasons."""

    op: str
    target: str
    kind: str  # exception class name, e.g. "SourceUnavailableError"
    detail: str

    def __str__(self) -> str:
        return f"{self.op} [{self.target}] {self.kind}: {self.detail}"


@dataclass
class FlowResult:
    """Outcome of one flow run."""

    catalog: Catalog
    executed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    violations: list[EtlViolation] = field(default_factory=list)
    faults: list[FlowFault] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True if the run completed without a PLA violation or a fault."""
        return not self.violations and not self.faults

    @property
    def degraded(self) -> bool:
        """True if an availability failure left part of the flow unloaded."""
        return bool(self.faults)

    def summary(self) -> str:
        base = (
            f"executed {len(self.executed)} op(s), skipped {len(self.skipped)}, "
            f"violations {len(self.violations)}"
        )
        if self.faults:
            base += f", faults {len(self.faults)}"
        return base


class EtlFlow:
    """An ordered ETL pipeline."""

    def __init__(self, name: str) -> None:
        if not name:
            raise EtlError("flow name must be non-empty")
        self.name = name
        self.operators: list[EtlOperator] = []

    def add(self, op: EtlOperator) -> EtlOperator:
        """Append an operator; output names must be unique within the flow."""
        if any(existing.output == op.output for existing in self.operators):
            raise EtlError(f"output name {op.output!r} already produced in flow")
        self.operators.append(op)
        return op

    def validate(self, catalog: Catalog) -> None:
        """Check that every non-extract input is available when needed."""
        available = set(catalog.table_names()) | set(catalog.view_names())
        for op in self.operators:
            if not isinstance(op, ExtractOp):
                missing = [i for i in op.inputs if i not in available]
                if missing:
                    raise EtlError(
                        f"operator {op.name!r} needs unavailable inputs {missing}"
                    )
            available.add(op.output)

    def static_footprints(
        self, catalog: Catalog | None = None
    ) -> dict[str, frozenset[str]]:
        """Per-output ``provider/table`` footprints, computed without running.

        Extract operators contribute their carried table's identity (plus
        any lineage it already carries); every other operator's output
        footprint is the union of its inputs'. This is the design-time
        approximation of the runtime lineage — exact for the operators in
        this library, since none of them drops whole input relations.
        """
        footprints: dict[str, frozenset[str]] = {}
        if catalog is not None:
            for name in catalog.table_names():
                table = catalog.table(name)
                footprints[name] = table.footprint() or frozenset(
                    [relation_identity(table.provider, name)]
                )
        for op in self.operators:
            if isinstance(op, ExtractOp):
                table = op._input_table()
                footprints[op.output] = table.footprint() or frozenset(
                    [relation_identity(table.provider, table.name)]
                )
                continue
            combined: set[str] = set()
            for name in op.inputs:
                combined |= footprints.get(name, frozenset())
            footprints[op.output] = frozenset(combined)
        return footprints

    def precheck(
        self, pla: EtlPlaRegistry, catalog: Catalog | None = None
    ) -> list[EtlViolation]:
        """Design-time PLA check: find violations before any data moves.

        §6 asks for "automated privacy management support at design time or
        runtime"; :meth:`run` is the runtime half, this is the design-time
        half. Uses symbolic footprints, so it needs no source data beyond
        the extract declarations.
        """
        from repro.relational.schema import Schema

        footprints = self.static_footprints(catalog)
        violations: list[EtlViolation] = []

        def phantom(name: str) -> Table:
            """An empty stand-in whose lineage footprint is symbolic."""
            table = Table(name, Schema([]), provider="static")
            footprint = footprints.get(name, frozenset())
            table.footprint = lambda: footprint  # type: ignore[method-assign]
            return table

        for op in self.operators:
            inputs = [phantom(name) for name in op.inputs]
            violations.extend(pla.check_op(op, inputs, catalog or Catalog()))
        return violations

    def run(
        self,
        catalog: Catalog | None = None,
        *,
        pla: EtlPlaRegistry | None = None,
        graph: ProvenanceGraph | None = None,
        strict: bool = False,
        resilience: ResiliencePolicy | None = None,
        deadline: Deadline | None = None,
    ) -> FlowResult:
        """Execute the flow.

        ``catalog`` is mutated in place (outputs registered); a fresh one is
        created if omitted. With ``strict`` a violation raises
        :class:`ComplianceError`; otherwise it is recorded and the operator
        skipped. Skipping cascades: operators depending on a skipped output
        are skipped too.

        ``resilience`` (defaulting to the ``REPRO_FAULTS`` process policy,
        when installed) wraps every operator in the injector→retry→breaker
        call path; an escalated availability failure is handled exactly
        like a PLA skip — fail closed: the output never materializes,
        dependents cascade into ``skipped``, and the fault is recorded in
        :attr:`FlowResult.faults` (with ``strict``, it raises). ``deadline``
        bounds the whole flow; expiry fails the remaining operators.

        When observability is on, the run emits an ``etl.flow`` span with
        one ``etl.op`` child per executed operator, counts operators
        executed/skipped/failed, and records PLA skips as warehouse-level
        ``deny_op`` enforcement decisions.
        """
        if resilience is None:
            resilience = default_policy()
        if not TRACER.active():
            return self._run(catalog, pla=pla, graph=graph, strict=strict,
                             resilience=resilience, deadline=deadline,
                             observing=False)
        with TRACER.span("etl.flow", {"flow": self.name}) as span:
            result = self._run(catalog, pla=pla, graph=graph, strict=strict,
                               resilience=resilience, deadline=deadline,
                               observing=True)
            span.set_tag("executed", len(result.executed))
            span.set_tag("skipped", len(result.skipped))
            span.set_tag("violations", len(result.violations))
            if result.faults:
                span.set_tag("faults", len(result.faults))
            return result

    @staticmethod
    def _fault_target(op: EtlOperator) -> str:
        """The injection/breaker identity of one operator's work.

        Extracts are remote source calls and carry the same
        ``provider/table`` identity used by lineage and audit footprints;
        everything else is local ETL work under ``etl/<op>``.
        """
        if isinstance(op, ExtractOp):
            table = op._input_table()
            return relation_identity(table.provider, table.name)
        return f"etl/{op.name}"

    def _run(
        self,
        catalog: Catalog | None,
        *,
        pla: EtlPlaRegistry | None,
        graph: ProvenanceGraph | None,
        strict: bool,
        resilience: ResiliencePolicy | None,
        deadline: Deadline | None,
        observing: bool,
    ) -> FlowResult:
        cat = catalog if catalog is not None else Catalog()
        self.validate(cat)
        result = FlowResult(catalog=cat)
        unavailable: set[str] = set()

        for op in self.operators:
            if any(i in unavailable for i in op.inputs):
                result.skipped.append(op.name)
                unavailable.add(op.output)
                if observing:
                    instrument.ETL_OPS.inc(1, ("skipped",))
                continue
            inputs = self._resolve_inputs(op, cat)
            if pla is not None:
                violations = pla.check_op(op, inputs, cat)
                if violations:
                    result.violations.extend(violations)
                    if observing:
                        instrument.record_decision(
                            instrument.LEVEL_WAREHOUSE, "deny_op", "etl_pla",
                            count=len(violations),
                        )
                        instrument.ETL_OPS.inc(1, ("skipped",))
                    if strict:
                        raise ComplianceError(
                            f"ETL flow {self.name!r} aborted: "
                            + "; ".join(str(v) for v in violations)
                        )
                    result.skipped.append(op.name)
                    unavailable.add(op.output)
                    continue
            try:
                output = self._execute(
                    op, cat, resilience=resilience, deadline=deadline,
                    observing=observing,
                )
            except FaultError as exc:
                fault = FlowFault(
                    op=op.name,
                    target=self._fault_target(op),
                    kind=type(exc).__name__,
                    detail=str(exc),
                )
                result.faults.append(fault)
                if observing:
                    instrument.ETL_OPS.inc(1, ("failed",))
                if strict:
                    raise
                result.skipped.append(op.name)
                unavailable.add(op.output)
                continue
            if observing:
                instrument.ETL_OPS.inc(1, ("executed",))
            output.name = op.output
            cat.add_table(output, replace=True)
            result.executed.append(op.name)
            if graph is not None:
                self._record(graph, op, inputs, output)
        return result

    def _execute(
        self,
        op: EtlOperator,
        cat: Catalog,
        *,
        resilience: ResiliencePolicy | None,
        deadline: Deadline | None,
        observing: bool,
    ) -> Table:
        if deadline is not None:
            deadline.check(f"ETL flow {self.name!r}")
        if observing:
            with TRACER.span("etl.op", {"op": op.name, "kind": op.kind}):
                if resilience is not None:
                    return resilience.call(
                        self._fault_target(op),
                        lambda: op.run(cat),
                        deadline=deadline,
                    )
                return op.run(cat)
        if resilience is not None:
            return resilience.call(
                self._fault_target(op), lambda: op.run(cat), deadline=deadline
            )
        return op.run(cat)

    @staticmethod
    def _resolve_inputs(op: EtlOperator, catalog: Catalog) -> list[Table]:
        if isinstance(op, ExtractOp):
            # The extract op carries its table; expose it for PLA checks.
            return [op.run(catalog)]
        return [catalog.table(name) for name in op.inputs]

    def _record(
        self,
        graph: ProvenanceGraph,
        op: EtlOperator,
        inputs: list[Table],
        output: Table,
    ) -> None:
        input_nodes = [
            DatasetNode(
                name=t.name,
                kind="source" if isinstance(op, ExtractOp) else "staging",
                owner=t.provider,
            )
            for t in inputs
        ]
        output_node = DatasetNode(
            name=output.name,
            kind="warehouse" if op.kind == "load" else "staging",
            owner=output.provider,
        )
        graph.add_transform(
            TransformNode(name=f"{self.name}.{op.name}", operation=op.kind),
            input_nodes,
            output_node,
        )

    def describe(self) -> str:
        lines = [f"ETL flow {self.name!r}:"]
        lines.extend(f"  {i + 1}. {op.describe()}" for i, op in enumerate(self.operators))
        return "\n".join(lines)
