"""Query containment and derivability — the meta-report compliance mechanism.

§5: "Each time a new report is created or an existing one is modified, PLAs
on the meta-reports are used to determine if the new report is
privacy-compliant. This can be often done easily as the reports can, at
least conceptually, be expressed as a subset or view over a meta-report."

Two layers:

* :func:`check_derivability` — the pragmatic check used by the compliance
  engine: a report query is derivable from a meta-report if its relations,
  columns, predicate, and aggregation can all be re-expressed over the
  meta-report's output. Sound under the shared-universe assumption (both
  are carved from the same star join), which is how meta-reports are built.
* :func:`is_contained` — genuine conjunctive-query containment via the
  homomorphism theorem (Chandra–Merlin), extended conservatively with
  comparison predicates: Q1 ⊆ Q2 is reported only when a containment
  mapping exists *and* Q1's constraints imply the mapped constraints of
  Q2. Sound but incomplete in the presence of inequalities — exactly the
  right polarity for a privacy check (never wrongly declares compliance).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field, replace
from typing import Any

from repro.cache import LRUCache
from repro.errors import QueryError
from repro.obs import instrument
from repro.obs.trace import TRACER
from repro.relational.catalog import Catalog
from repro.relational.expressions import (
    Col,
    Comparison,
    Expr,
    InList,
    IsNull,
    Lit,
    conjuncts,
)
from repro.relational.query import Query

__all__ = [
    "predicate_implies",
    "conjunction_inconsistent",
    "DerivabilityResult",
    "check_derivability",
    "source_columns_used",
    "CanonicalQuery",
    "canonicalize",
    "is_contained",
    "NotConjunctive",
    "proof_cache_stats",
    "clear_proof_caches",
]


class NotConjunctive(QueryError):
    """The query/predicate falls outside the conjunctive fragment."""


# ---------------------------------------------------------------------------
# Proof memoization
#
# Derivability and containment are pure functions of the two query trees and
# the catalog's *definitions* (schemas, views) — never of row data. Keys are
# therefore ``(fingerprints..., catalog.uid, catalog.ddl_version)``: any DDL
# change versions old entries out, and a registered mutation hook evicts the
# affected catalog's entries eagerly. ``NotConjunctive`` outcomes are cached
# too (as a sentinel) and re-raised, since proving "outside the fragment"
# costs the same canonicalization work as a positive proof.
# ---------------------------------------------------------------------------

_PROOF_CACHE_SIZE = 4096
_derivability_cache = LRUCache(maxsize=_PROOF_CACHE_SIZE)
_containment_cache = LRUCache(maxsize=_PROOF_CACHE_SIZE)
_hooked_catalogs: set[int] = set()
_hook_lock = threading.Lock()


def _on_catalog_mutation(catalog: Catalog, name: str) -> None:
    cat_uid = catalog.uid
    _derivability_cache.invalidate_where(lambda k: k[-2] == cat_uid)
    _containment_cache.invalidate_where(lambda k: k[-2] == cat_uid)


def _hook_catalog(catalog: Catalog) -> None:
    with _hook_lock:
        if catalog.uid in _hooked_catalogs:
            return
        _hooked_catalogs.add(catalog.uid)
    catalog.add_mutation_hook(_on_catalog_mutation)


def proof_cache_stats() -> dict[str, dict[str, Any]]:
    """Hit/miss counters and entry counts for the proof caches."""
    return {
        "derivability": {
            **_derivability_cache.stats.as_dict(),
            "entries": len(_derivability_cache),
        },
        "containment": {
            **_containment_cache.stats.as_dict(),
            "entries": len(_containment_cache),
        },
    }


def clear_proof_caches() -> int:
    """Drop all memoized proofs; returns how many entries were removed."""
    return _derivability_cache.clear() + _containment_cache.clear()


# ---------------------------------------------------------------------------
# Predicate implication (per-column interval reasoning, conservative)
# ---------------------------------------------------------------------------


@dataclass
class _ColumnConstraints:
    """Accumulated constraints on one column from a conjunction."""

    eq: Any | None = None
    has_eq: bool = False
    lower: Any | None = None  # value of strongest lower bound
    lower_strict: bool = False
    upper: Any | None = None
    upper_strict: bool = False
    not_eq: set[Any] = field(default_factory=set)
    in_set: set[Any] | None = None  # None = unconstrained
    not_null: bool = False

    def add(self, op: str, value: Any) -> None:
        if op == "=":
            if self.has_eq and self.eq != value:
                # Contradiction; the conjunction is unsatisfiable, which
                # trivially implies anything. Record as-is; implication
                # handling below treats eq specially.
                pass
            self.eq = value
            self.has_eq = True
        elif op == "!=":
            self.not_eq.add(value)
        elif op in (">", ">="):
            strict = op == ">"
            if self.lower is None or value > self.lower or (
                value == self.lower and strict and not self.lower_strict
            ):
                self.lower = value
                self.lower_strict = strict
        elif op in ("<", "<="):
            strict = op == "<"
            if self.upper is None or value < self.upper or (
                value == self.upper and strict and not self.upper_strict
            ):
                self.upper = value
                self.upper_strict = strict
        else:  # pragma: no cover - callers validate ops
            raise NotConjunctive(f"unsupported op {op!r}")

    def add_in(self, values: set[Any]) -> None:
        self.in_set = values if self.in_set is None else (self.in_set & values)

    # -- implication checks ------------------------------------------------

    def implies(self, op: str, value: Any) -> bool:
        """Do these constraints guarantee ``column op value``?"""
        if self.has_eq:
            return _eval_cmp(self.eq, op, value)
        if self.in_set is not None and all(
            _eval_cmp(v, op, value) for v in self.in_set
        ):
            return True
        if op == "=":
            return False  # only eq/in can force equality
        if op == "!=":
            if value in self.not_eq:
                return True
            if self.lower is not None and _eval_cmp(value, "<", self.lower) or (
                self.lower is not None and value == self.lower and self.lower_strict
            ):
                return True
            if self.upper is not None and _eval_cmp(value, ">", self.upper) or (
                self.upper is not None and value == self.upper and self.upper_strict
            ):
                return True
            return False
        if op in (">", ">="):
            if self.lower is None:
                return False
            if self.lower > value:
                return True
            if self.lower == value:
                return self.lower_strict or op == ">="
            return False
        if op in ("<", "<="):
            if self.upper is None:
                return False
            if self.upper < value:
                return True
            if self.upper == value:
                return self.upper_strict or op == "<="
            return False
        return False

    def implies_in(self, values: set[Any]) -> bool:
        if self.has_eq:
            return self.eq in values
        if self.in_set is not None:
            return self.in_set <= values
        return False

    def implies_not_null(self) -> bool:
        return (
            self.not_null
            or self.has_eq
            or self.lower is not None
            or self.upper is not None
            or self.in_set is not None
        )


def _eval_cmp(left: Any, op: str, right: Any) -> bool:
    try:
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        return False
    return False


def _decompose(predicate: Expr | None) -> dict[str, _ColumnConstraints]:
    """Per-column constraints of a conjunctive predicate.

    Raises :class:`NotConjunctive` on OR/NOT/column-column comparisons and
    other shapes outside the fragment.
    """
    constraints: dict[str, _ColumnConstraints] = {}

    def bucket(column: str) -> _ColumnConstraints:
        return constraints.setdefault(column, _ColumnConstraints())

    for conjunct in conjuncts(predicate):
        if isinstance(conjunct, Comparison):
            left, right = conjunct.left, conjunct.right
            if isinstance(left, Col) and isinstance(right, Lit):
                bucket(left.name).add(conjunct.op, right.value)
            elif isinstance(left, Lit) and isinstance(right, Col):
                from repro.relational.expressions import FLIPPED_OP

                bucket(right.name).add(FLIPPED_OP[conjunct.op], left.value)
            else:
                raise NotConjunctive(f"non col-lit comparison: {conjunct}")
        elif isinstance(conjunct, InList):
            if not isinstance(conjunct.target, Col):
                raise NotConjunctive(f"IN over non-column: {conjunct}")
            bucket(conjunct.target.name).add_in(set(conjunct.values))
        elif isinstance(conjunct, IsNull):
            if not isinstance(conjunct.target, Col):
                raise NotConjunctive(f"IS NULL over non-column: {conjunct}")
            if not conjunct.negated:
                raise NotConjunctive("IS NULL (non-negated) not in fragment")
            bucket(conjunct.target.name).not_null = True
        else:
            raise NotConjunctive(f"non-conjunctive shape: {conjunct}")
    return constraints


def predicate_implies(stronger: Expr | None, weaker: Expr | None) -> bool:
    """Conservative test that ``stronger`` implies ``weaker``.

    ``None`` means TRUE (no restriction). Returns False when the fragment
    cannot certify the implication — never a false positive.
    """
    if weaker is None:
        return True
    # _decompose keeps the last value for repeated equalities on one column,
    # so an internally contradictory side must be settled first: an empty
    # premise implies anything; nothing (we can certify) implies an empty
    # conclusion.
    if conjunction_inconsistent(stronger):
        return True
    if conjunction_inconsistent(weaker):
        return False
    try:
        have = _decompose(stronger)
        need = _decompose(weaker)
    except NotConjunctive:
        # Fall back to syntactic subsumption: every needed conjunct appears
        # verbatim among the available conjuncts.
        if stronger is None:
            return False
        available = {str(c) for c in conjuncts(stronger)}
        return all(str(c) in available for c in conjuncts(weaker))
    for column, needed in need.items():
        having = have.get(column, _ColumnConstraints())
        if needed.has_eq and not having.implies("=", needed.eq):
            return False
        for value in needed.not_eq:
            if not having.implies("!=", value):
                return False
        if needed.lower is not None:
            op = ">" if needed.lower_strict else ">="
            if not having.implies(op, needed.lower):
                return False
        if needed.upper is not None:
            op = "<" if needed.upper_strict else "<="
            if not having.implies(op, needed.upper):
                return False
        if needed.in_set is not None and not having.implies_in(needed.in_set):
            return False
        if needed.not_null and not having.implies_not_null():
            return False
    return True


def conjunction_inconsistent(predicate: Expr | None) -> bool:
    """Sound, fast test that a conjunctive predicate admits no satisfying row.

    ``True`` only when the per-column interval/equality abstraction proves
    emptiness; ``False`` means "not provably empty here" (the exact solver
    in :mod:`repro.verify` decides the rest by enumeration). Predicates
    outside the conjunctive fragment are never claimed inconsistent.
    Integer bounds are treated densely (``5 < x < 6`` is *not* claimed
    empty), so the abstraction stays sound for float-typed columns too.
    """
    if predicate is None:
        return False
    # _decompose's eq handling keeps the last value on x=a AND x=b; detect
    # conflicting equalities directly from the conjunct list first.
    eq_values: dict[str, Any] = {}
    for conjunct in conjuncts(predicate):
        if isinstance(conjunct, Comparison) and conjunct.op == "=":
            left, right = conjunct.left, conjunct.right
            if isinstance(left, Col) and isinstance(right, Lit):
                column, value = left.name, right.value
            elif isinstance(left, Lit) and isinstance(right, Col):
                column, value = right.name, left.value
            else:
                continue
            if column in eq_values and eq_values[column] != value:
                return True
            eq_values[column] = value
    try:
        buckets = _decompose(predicate)
    except NotConjunctive:
        return False
    return any(_bucket_empty(b) for b in buckets.values())


def _bucket_empty(b: _ColumnConstraints) -> bool:
    """Does this one column's constraint set rule out every value?"""
    if b.has_eq:
        v = b.eq
        if v in b.not_eq:
            return True
        if b.in_set is not None and v not in b.in_set:
            return True
        if b.lower is not None and (
            _eval_cmp(v, "<", b.lower) or (v == b.lower and b.lower_strict)
        ):
            return True
        if b.upper is not None and (
            _eval_cmp(v, ">", b.upper) or (v == b.upper and b.upper_strict)
        ):
            return True
        return False
    if b.in_set is not None:
        survivors = set(b.in_set) - b.not_eq
        if b.lower is not None:
            op = ">" if b.lower_strict else ">="
            survivors = {v for v in survivors if _eval_cmp(v, op, b.lower)}
        if b.upper is not None:
            op = "<" if b.upper_strict else "<="
            survivors = {v for v in survivors if _eval_cmp(v, op, b.upper)}
        return not survivors
    if b.lower is not None and b.upper is not None:
        if _eval_cmp(b.lower, ">", b.upper):
            return True
        if b.lower == b.upper and (b.lower_strict or b.upper_strict):
            return True
    return False


# ---------------------------------------------------------------------------
# Derivability: report ⊑ meta-report (the compliance engine's check)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivabilityResult:
    """Outcome of a derivability check, with owner-readable reasons."""

    derivable: bool
    metareport: str
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.derivable


def check_derivability(
    report_query: Query,
    metareport_name: str,
    metareport_query: Query,
    catalog: Catalog,
) -> DerivabilityResult:
    """Can ``report_query`` be expressed as σπγ over the meta-report?

    Sufficient conditions (all must hold):

    1. every base relation of the report is covered by the meta-report;
    2. every column the report uses is an output of the meta-report (a
       report authored directly ``FROM metareport`` satisfies this by
       construction for its own outputs);
    3. the report's predicate implies the meta-report's predicate (a report
       can only *narrow* what the owner approved);
    4. aggregation compatibility: the report's GROUP BY columns are
       meta-report outputs and aggregated columns are meta-report outputs.

    Results are memoized per catalog DDL generation (the proof never reads
    row data); see :func:`proof_cache_stats`.
    """
    key = (
        report_query.fingerprint(),
        metareport_name,
        metareport_query.fingerprint(),
        catalog.uid,
        catalog.ddl_version,
    )
    # Token captured before the lookup/compute: a DDL mutation landing
    # mid-proof invalidates the generation and the late fill is dropped
    # instead of resurrecting a proof over superseded definitions.
    token = _derivability_cache.fill_token()
    cached = _derivability_cache.get(key)
    if TRACER.active():
        instrument.cache_lookup("derivability", cached is not None)
    if cached is not None:
        return cached
    result = _check_derivability_uncached(
        report_query, metareport_name, metareport_query, catalog
    )
    _hook_catalog(catalog)
    _derivability_cache.put_if(key, result, token)
    return result


def _check_derivability_uncached(
    report_query: Query,
    metareport_name: str,
    metareport_query: Query,
    catalog: Catalog,
) -> DerivabilityResult:
    # A UNION report is derivable iff each SELECT block is: the union of
    # subsets of the meta-report is itself a subset. Check the head block
    # (sans set-op tail) and every branch independently, pooling reasons.
    if report_query.set_ops:
        reasons = []
        blocks = (replace(report_query, set_ops=()),) + tuple(
            clause.query for clause in report_query.set_ops
        )
        for block in blocks:
            part = _check_derivability_uncached(
                block, metareport_name, metareport_query, catalog
            )
            reasons.extend(part.reasons)
        return DerivabilityResult(
            derivable=not reasons,
            metareport=metareport_name,
            reasons=tuple(dict.fromkeys(reasons)),
        )
    if metareport_query.set_ops:
        return DerivabilityResult(
            derivable=False,
            metareport=metareport_name,
            reasons=("meta-reports must be non-union wide views",),
        )

    reasons: list[str] = []

    report_bases = catalog.base_relations_of_query(report_query)
    if catalog.is_view(metareport_name):
        meta_bases = catalog.base_relations(metareport_name)
    else:
        meta_bases = catalog.base_relations_of_query(metareport_query)
    uncovered = report_bases - meta_bases
    # Note: a report authored FROM the meta-report has no uncovered bases by
    # construction — unless it JOINs other relations in, which must flag.
    if uncovered:
        reasons.append(
            f"report touches base relations outside the meta-report: {sorted(uncovered)}"
        )

    meta_outputs = metareport_query.output_names()
    if meta_outputs is None:
        meta_outputs = _expanded_outputs(metareport_query, catalog)
    used = source_columns_used(report_query)
    unknown = {c for c in used if c not in meta_outputs}
    if unknown:
        reasons.append(
            f"report uses columns the meta-report does not expose: {sorted(unknown)}"
        )

    # A report authored FROM the meta-report view inherits its filter when
    # executed, so the implication requirement applies only to reports
    # expressed over other relations (the warehouse universe).
    if report_query.source != metareport_name and not predicate_implies(
        report_query.where, metareport_query.where
    ):
        reasons.append(
            "report predicate does not imply the meta-report's predicate "
            f"({report_query.where} vs {metareport_query.where})"
        )

    if metareport_query.is_aggregate:
        reasons.append("meta-reports must be non-aggregate wide views")

    return DerivabilityResult(
        derivable=not reasons,
        metareport=metareport_name,
        reasons=tuple(reasons),
    )


def source_columns_used(query: Query) -> frozenset[str]:
    """Columns a query reads from its *source relations*.

    Unlike :meth:`Query.columns_used`, aggregate aliases and post-aggregation
    references (SELECT/HAVING/ORDER BY over group outputs) are excluded —
    those name query outputs, not source columns.
    """
    used: set[str] = set()
    for clause in query.joins:
        for lname, rname in clause.on:
            used.add(lname)
            used.add(rname)
    if query.where is not None:
        used.update(query.where.columns())
    used.update(query.group_by)
    for spec in query.aggregates:
        if spec.column is not None:
            used.add(spec.column)
    if not query.is_aggregate:
        for item in query.select:
            if isinstance(item, str):
                used.add(item)
            else:
                used.update(item[1].columns())
        for column, _ in query.order:
            used.add(column)
    return frozenset(used)


def _expanded_outputs(query: Query, catalog: Catalog) -> tuple[str, ...]:
    """Output names of a SELECT * query, resolved through the catalog."""
    names: list[str] = []
    for relation in query.referenced_relations():
        if catalog.is_table(relation):
            names.extend(catalog.table(relation).schema.names)
        else:
            view_query = catalog.view(relation).query
            outs = view_query.output_names()
            if outs is None:
                outs = _expanded_outputs(view_query, catalog)
            names.extend(outs)
    return tuple(names)


# ---------------------------------------------------------------------------
# Conjunctive-query containment (homomorphism theorem)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Atom:
    relation: str
    variables: tuple[int, ...]  # one variable id per schema column


@dataclass
class CanonicalQuery:
    """A conjunctive query in canonical form.

    Variables are integers; ``head`` maps output column name → variable;
    ``constraints`` holds per-variable comparison constraints.
    """

    atoms: list[_Atom] = field(default_factory=list)
    head: dict[str, int] = field(default_factory=dict)
    constraints: dict[int, _ColumnConstraints] = field(default_factory=dict)
    n_vars: int = 0


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def make(self) -> int:
        v = len(self.parent)
        self.parent[v] = v
        return v

    def find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra


def canonicalize(query: Query, catalog: Catalog) -> CanonicalQuery:
    """Canonical form of a conjunctive query over *base tables*.

    Requirements: inner joins only, no aggregation/DISTINCT/ORDER/LIMIT,
    conjunctive predicate, every referenced relation a base table, and
    column names unambiguous across the joined relations (qualified names
    are resolved per relation).
    """
    if query.is_aggregate or query.select_distinct or query.order or (
        query.limit_n is not None
    ):
        raise NotConjunctive("aggregation/distinct/order/limit not in CQ fragment")
    if query.set_ops:
        raise NotConjunctive("set operations (UNION) not in CQ fragment")
    relations = query.referenced_relations()
    for clause in query.joins:
        if clause.how != "inner":
            raise NotConjunctive("outer joins not in CQ fragment")
    for relation in relations:
        if not catalog.is_table(relation):
            raise NotConjunctive(f"{relation!r} is not a base table")

    uf = _UnionFind()
    atoms_vars: list[dict[str, int]] = []
    qualified_owner: dict[str, tuple[int, str]] = {}
    for i, relation in enumerate(relations):
        schema = catalog.table(relation).schema
        var_map = {column: uf.make() for column in schema.names}
        atoms_vars.append(var_map)
        for column in schema.names:
            qualified_owner[f"{relation}.{column}"] = (i, column)

    def resolve_upto(name: str, last_atom: int) -> int:
        """Resolve a (possibly qualified) name among atoms[0..last_atom]."""
        if name in qualified_owner:
            atom_idx, column = qualified_owner[name]
            if atom_idx > last_atom:
                raise NotConjunctive(f"{name!r} not yet in scope")
            return atoms_vars[atom_idx][column]
        owners = [
            i for i in range(last_atom + 1) if name in atoms_vars[i]
        ]
        if not owners:
            raise NotConjunctive(f"unknown column {name!r}")
        if len(owners) > 1:
            raise NotConjunctive(f"ambiguous column name {name!r}; qualify it")
        return atoms_vars[owners[0]][name]

    def resolve(name: str) -> int:
        return resolve_upto(name, len(relations) - 1)

    for clause_idx, clause in enumerate(query.joins):
        for lname, rname in clause.on:
            right_relation = relations[clause_idx + 1]
            right_schema = catalog.table(right_relation).schema
            rcol = rname.split(".")[-1]
            if rcol not in right_schema:
                raise NotConjunctive(
                    f"join column {rname!r} not in {right_relation!r}"
                )
            uf.union(
                resolve_upto(lname, clause_idx),
                atoms_vars[clause_idx + 1][rcol],
            )

    # Constraints from the WHERE clause.
    constraint_buckets: dict[int, _ColumnConstraints] = {}
    if query.where is not None:
        for conjunct in conjuncts(query.where):
            if isinstance(conjunct, Comparison) and isinstance(
                conjunct.left, Col
            ) and isinstance(conjunct.right, Col):
                if conjunct.op != "=":
                    raise NotConjunctive("var-var inequality not in fragment")
                uf.union(resolve(conjunct.left.name), resolve(conjunct.right.name))
        per_column = _decompose(_strip_var_var(query.where))
        for name, constraints in per_column.items():
            root = uf.find(resolve(name))
            bucket = constraint_buckets.setdefault(root, _ColumnConstraints())
            _merge_constraints(bucket, constraints)

    canonical = CanonicalQuery()
    for i, relation in enumerate(relations):
        schema = catalog.table(relation).schema
        canonical.atoms.append(
            _Atom(
                relation,
                tuple(uf.find(atoms_vars[i][c]) for c in schema.names),
            )
        )
    if query.select:
        for item in query.select:
            name = item if isinstance(item, str) else item[0]
            expr = Col(name) if isinstance(item, str) else item[1]
            if not isinstance(expr, Col):
                raise NotConjunctive(f"computed head column {name!r} not in fragment")
            canonical.head[name] = uf.find(resolve(expr.name))
    else:
        for name in _expanded_outputs(query, catalog):
            canonical.head[name] = uf.find(resolve(name))
    canonical.constraints = constraint_buckets
    canonical.n_vars = len(uf.parent)
    return canonical


def _strip_var_var(predicate: Expr) -> Expr | None:
    """Remove var=var conjuncts (handled via union-find) from a predicate."""
    remaining = [
        c
        for c in conjuncts(predicate)
        if not (
            isinstance(c, Comparison)
            and isinstance(c.left, Col)
            and isinstance(c.right, Col)
        )
    ]
    if not remaining:
        return None
    expr = remaining[0]
    for c in remaining[1:]:
        expr = expr & c
    return expr


def _merge_constraints(into: _ColumnConstraints, other: _ColumnConstraints) -> None:
    if other.has_eq:
        into.add("=", other.eq)
    for v in other.not_eq:
        into.add("!=", v)
    if other.lower is not None:
        into.add(">" if other.lower_strict else ">=", other.lower)
    if other.upper is not None:
        into.add("<" if other.upper_strict else "<=", other.upper)
    if other.in_set is not None:
        into.add_in(set(other.in_set))
    into.not_null = into.not_null or other.not_null


def is_contained(q1: Query, q2: Query, catalog: Catalog) -> bool:
    """Sound check that Q1 ⊆ Q2 (every Q1 answer is a Q2 answer).

    Uses the homomorphism theorem with conservative comparison handling.
    Raises :class:`NotConjunctive` when either query leaves the fragment.

    Results (including ``NotConjunctive`` outcomes) are memoized per catalog
    DDL generation; see :func:`proof_cache_stats`.
    """
    key = (q1.fingerprint(), q2.fingerprint(), catalog.uid, catalog.ddl_version)
    token = _containment_cache.fill_token()
    cached = _containment_cache.get(key)
    if TRACER.active():
        instrument.cache_lookup("containment", cached is not None)
    if cached is not None:
        kind, payload = cached
        if kind == "raise":
            raise NotConjunctive(*payload)
        return payload
    try:
        result = _is_contained_uncached(q1, q2, catalog)
    except NotConjunctive as exc:
        _hook_catalog(catalog)
        _containment_cache.put_if(key, ("raise", exc.args), token)
        raise
    _hook_catalog(catalog)
    _containment_cache.put_if(key, ("value", result), token)
    return result


def _is_contained_uncached(q1: Query, q2: Query, catalog: Catalog) -> bool:
    c1 = canonicalize(q1, catalog)
    c2 = canonicalize(q2, catalog)
    # Containment compares answer sets, so the heads must expose the same
    # columns (alignment is by name).
    if set(c1.head) != set(c2.head):
        return False
    return _find_homomorphism(c2, c1)


def _find_homomorphism(source: CanonicalQuery, target: CanonicalQuery) -> bool:
    """Is there a containment mapping ``source`` → ``target``?

    Maps each source atom onto a target atom of the same relation with a
    consistent variable mapping; head variables must align by column name;
    target constraints must imply the mapped source constraints.
    """
    candidates: list[list[_Atom]] = []
    for atom in source.atoms:
        options = [t for t in target.atoms if t.relation == atom.relation]
        if not options:
            return False
        candidates.append(options)

    for assignment in itertools.product(*candidates):
        mapping: dict[int, int] = {}
        ok = True
        for src_atom, dst_atom in zip(source.atoms, assignment):
            for sv, dv in zip(src_atom.variables, dst_atom.variables):
                if mapping.get(sv, dv) != dv:
                    ok = False
                    break
                mapping[sv] = dv
            if not ok:
                break
        if not ok:
            continue
        # Heads align by name.
        if any(
            mapping.get(sv) != target.head.get(name)
            for name, sv in source.head.items()
        ):
            continue
        # Target constraints must imply mapped source constraints.
        if _constraints_ok(source, target, mapping):
            return True
    return False


def _constraints_ok(
    source: CanonicalQuery, target: CanonicalQuery, mapping: dict[int, int]
) -> bool:
    for sv, needed in source.constraints.items():
        dv = mapping.get(sv)
        if dv is None:
            return False
        having = target.constraints.get(dv, _ColumnConstraints())
        if needed.has_eq and not having.implies("=", needed.eq):
            return False
        for value in needed.not_eq:
            if not having.implies("!=", value):
                return False
        if needed.lower is not None and not having.implies(
            ">" if needed.lower_strict else ">=", needed.lower
        ):
            return False
        if needed.upper is not None and not having.implies(
            "<" if needed.upper_strict else "<=", needed.upper
        ):
            return False
        if needed.in_set is not None and not having.implies_in(needed.in_set):
            return False
        if needed.not_null and not having.implies_not_null():
            return False
    return True
