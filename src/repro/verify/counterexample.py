"""Counterexample synthesis and runtime replay: self-validating refutations.

A ``REFUTED`` verdict from the cross-level pass ships a concrete minimal
database instance — one universe row synthesized from the solver's witness
— and the outcome of *replaying* that instance through the real runtime
engine: the report query is executed and enforced by the same
:class:`~repro.core.translation.ReportLevelEnforcer` production deliveries
go through, with the covering PLA's row-suppression obligations attached.
The violation counts as confirmed only when the runtime actually releases
the row **and** the row falls outside the region the refuted claim says it
must stay in. A refutation the runtime does not reproduce is itself a
finding (``VER006``: the static layer and the engine have drifted), so the
verifier can never silently disagree with enforcement.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.annotations import IntensionalCondition
from repro.core.compliance import ComplianceVerdict, RuntimeObligation
from repro.core.translation import ReportLevelEnforcer
from repro.errors import ReproError, TypeMismatchError
from repro.policy.subjects import SubjectRegistry
from repro.relational.catalog import Catalog, View
from repro.relational.engine import execute
from repro.relational.expressions import Expr
from repro.relational.query import Query
from repro.relational.table import Table, make_schema
from repro.relational.types import ColumnType, coerce_value
from repro.reports.definition import ReportDefinition
from repro.verify.fd import FunctionalDependency, violated_fd
from repro.verify.solver import truth

__all__ = [
    "ReplayOutcome",
    "Counterexample",
    "build_replay_catalog",
    "replay_escape",
]

_REPLAY_ROLE = "verifier"
_REPLAY_PURPOSE = "verify"


@dataclass(frozen=True)
class ReplayOutcome:
    """What happened when a witness row was run through the real engine."""

    confirmed: bool
    delivered_rows: int = 0
    detail: str = ""

    def describe(self) -> str:
        status = "confirmed" if self.confirmed else "NOT confirmed"
        return f"{status} ({self.delivered_rows} row(s) delivered; {self.detail})"

    def to_dict(self) -> dict[str, Any]:
        return {
            "confirmed": self.confirmed,
            "delivered_rows": self.delivered_rows,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Counterexample:
    """A minimal concrete instance refuting one cross-level claim."""

    relation: str  # the universe relation the row instantiates
    row: Mapping[str, Any]  # full universe row (witness + NULL padding)
    replay: ReplayOutcome

    def to_dict(self) -> dict[str, Any]:
        return {
            "relation": self.relation,
            "row": {k: _json_value(v) for k, v in self.row.items()},
            "replay": self.replay.to_dict(),
        }


def _json_value(value: Any) -> Any:
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    return value


def _column_type(value: Any) -> ColumnType:
    if type(value) is bool:
        return ColumnType.BOOL
    if isinstance(value, int):
        return ColumnType.INT
    if isinstance(value, float):
        return ColumnType.FLOAT
    # datetime before date: datetime subclasses date, and a DATE column
    # would truncate the time component the refutation may hinge on.
    if isinstance(value, datetime.datetime):
        return ColumnType.DATETIME
    if isinstance(value, datetime.date):
        return ColumnType.DATE
    return ColumnType.STRING


def _universe_types(catalog: Catalog, universe: str) -> dict[str, ColumnType]:
    """The universe's column types in the deployment, as the engine derives them.

    A base table answers from its schema. A view is executed over empty
    copies of the catalog's base tables, so the engine types its columns
    without reading any data. A name the catalog cannot resolve answers
    nothing.
    """
    if catalog.is_table(universe):
        schema = catalog.table(universe).schema
    elif catalog.is_view(universe):
        empty = _copy_views(catalog)
        for table in catalog.tables():
            empty.add_table(Table(table.name, table.schema, provider=table.provider))
        try:
            schema = execute(Query.from_(universe), empty).schema
        except ReproError:
            return {}
    else:
        return {}
    return {column.name: column.ctype for column in schema}


def _copy_views(catalog: Catalog, skip: str | None = None) -> Catalog:
    copy = Catalog()
    for name in catalog.view_names():
        if name != skip:
            original = catalog.view(name)
            copy.add_view(View(name, original.query, description=original.description))
    return copy


def build_replay_catalog(
    catalog: Catalog, universe: str, row: Mapping[str, Any]
) -> Catalog:
    """A one-row catalog: the witness as the universe, original views kept.

    The universe relation is replaced by a base table holding exactly the
    witness row, everything nullable. Its columns keep the types the
    deployment gives them (types are inferred from the values only for
    columns the deployment does not have), so a witness the warehouse could
    not store — ``5.5`` in an INT column, a time of day in a DATE column —
    raises :class:`~repro.errors.TypeMismatchError` instead of replaying.
    Every *other* view of the deployment catalog is carried over unchanged,
    so report queries resolve through the very same view chain the runtime
    uses. Views are lazy, so views over unrelated relations cost nothing.
    """
    types = _universe_types(catalog, universe)
    schema = make_schema(
        *(
            (name, types.get(name) or _column_type(value), True)
            for name, value in row.items()
        )
    )
    for column in schema:
        value = row[column.name]
        try:
            fits = coerce_value(value, column.ctype) == value
        except TypeMismatchError:
            fits = False
        if not fits:
            raise TypeMismatchError(
                f"witness value {value!r} does not fit the {column.ctype.name} "
                f"column {column.name!r} of {universe!r}"
            )
    replay = _copy_views(catalog, skip=universe)
    replay.add_table(
        Table.from_rows(universe, schema, [dict(row)], provider="warehouse")
    )
    return replay


def _replay_subjects() -> SubjectRegistry:
    subjects = SubjectRegistry()
    subjects.add_role(_REPLAY_ROLE)
    subjects.add_user(_REPLAY_ROLE, _REPLAY_ROLE)
    subjects.purposes.declare(_REPLAY_PURPOSE)
    return subjects


def replay_escape(
    catalog: Catalog,
    universe: str,
    row: Mapping[str, Any],
    query: Query,
    conditions: Iterable[IntensionalCondition],
    target_predicate: Expr,
    *,
    name: str = "counterexample",
    fds: Iterable[FunctionalDependency] = (),
) -> ReplayOutcome:
    """Run ``query`` over the one-row witness instance, fully enforced.

    ``conditions`` are the row-suppression obligations the covering PLA
    imposes (the same obligations a production delivery would discharge);
    ``target_predicate`` is the region the refuted claim says every
    delivered row must satisfy. The replay confirms the refutation iff the
    engine releases at least one row while the witness falls outside that
    region (its evaluation is not definitely ``True``).

    ``fds`` are the declared functional dependencies over the universe: a
    witness violating one describes a row the warehouse cannot contain, so
    it is rejected (``confirmed=False``) without touching the engine. So is
    a witness value the universe's column type cannot hold.
    """
    violated = violated_fd(row, fds)
    if violated is not None:
        return ReplayOutcome(
            confirmed=False,
            detail=(
                "witness violates declared functional dependency "
                f"{violated.describe_short()}; no warehouse instance "
                "contains this row"
            ),
        )
    try:
        replay_catalog = build_replay_catalog(catalog, universe, row)
    except TypeMismatchError as exc:
        return ReplayOutcome(
            confirmed=False,
            detail=f"{exc}; no warehouse instance contains this row",
        )
    definition = ReportDefinition(
        name=name,
        title="counterexample replay",
        query=query,
        audience=frozenset({_REPLAY_ROLE}),
        purpose=_REPLAY_PURPOSE,
    )
    verdict = ComplianceVerdict(
        report=name,
        version=1,
        compliant=True,
        covering_metareport=None,
        obligations=tuple(
            RuntimeObligation("intensional", c) for c in conditions
        ),
    )
    subjects = _replay_subjects()
    enforcer = ReportLevelEnforcer(replay_catalog)
    try:
        instance = enforcer.generate(
            definition, subjects.context(_REPLAY_ROLE, _REPLAY_PURPOSE), verdict
        )
    except ReproError as exc:
        return ReplayOutcome(
            confirmed=False, detail=f"replay raised {type(exc).__name__}: {exc}"
        )
    delivered = len(instance.table)
    outside = truth(target_predicate.evaluate(dict(row))) is not True
    confirmed = delivered > 0 and outside
    if not outside:
        detail = "witness row satisfies the target region after all"
    elif delivered == 0:
        detail = "engine suppressed the witness row"
    else:
        detail = (
            "engine released output fed by a row outside the approved region"
        )
    return ReplayOutcome(
        confirmed=confirmed, delivered_rows=delivered, detail=detail
    )
