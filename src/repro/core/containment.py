"""Query containment and derivability — the meta-report compliance mechanism.

§5: "Each time a new report is created or an existing one is modified, PLAs
on the meta-reports are used to determine if the new report is
privacy-compliant. This can be often done easily as the reports can, at
least conceptually, be expressed as a subset or view over a meta-report."

Two checks, and one predicate reasoner under both:

* :func:`check_derivability` — the pragmatic check used by the compliance
  engine: a report query is derivable from a meta-report if its relations,
  columns, predicate, and aggregation can all be re-expressed over the
  meta-report's output. Sound under the shared-universe assumption (both
  are carved from the same star join), which is how meta-reports are built.
* :func:`is_contained` — genuine conjunctive-query containment via the
  homomorphism theorem (Chandra–Merlin): Q1 ⊆ Q2 is reported only when a
  containment mapping exists *and* Q1's residual WHERE implies Q2's,
  mapped onto Q1's variables.

Both decide predicate implication with :func:`predicate_implies`, which
asks the verifier's exact three-valued solver
(:mod:`repro.verify.solver`) — the same reasoner behind PLA lint and the
cross-level proofs. It answers False whenever it cannot certify an
implication: exactly the right polarity for a privacy check (never
wrongly declares compliance).
"""

from __future__ import annotations

import itertools
import threading
from functools import reduce
from dataclasses import dataclass, field, replace
from typing import Any

from repro.cache import LRUCache
from repro.errors import QueryError
from repro.obs import instrument
from repro.obs.trace import TRACER
from repro.relational.catalog import Catalog
from repro.relational.expressions import (
    And,
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
# Predicate implication (a client of the verifier's exact solver)
# ---------------------------------------------------------------------------


def predicate_implies(stronger: Expr | None, weaker: Expr | None) -> bool:
    """Sound test that every row ``stronger`` keeps, ``weaker`` keeps too.

    ``None`` means TRUE (no restriction). Returns False when the
    implication cannot be certified — never a false positive. Cheap
    answers come first: no conclusion, and conclusion conjuncts that
    appear verbatim among the premise's (which covers shapes outside the
    solver's fragment, such as ``a * b > 3``). A premise the solver's
    pre-pass proves empty implies anything. The rest is split into
    column-disjoint parts, each one query to
    :func:`~repro.verify.solver.implication_counterexample` whose premise
    is only the conjuncts that share columns with its conclusion, directly
    or through other conjuncts: dropping the rest weakens the premise,
    which keeps the answer sound.
    """
    if weaker is None:
        return True
    premise = list(conjuncts(stronger))
    available = {str(c) for c in premise}
    needed = [c for c in conjuncts(weaker) if str(c) not in available]
    if not needed:
        return True
    # Imported here: repro.verify imports this module through crosslevel.
    from repro.verify.solver import (
        Sat,
        conjunction_inconsistent,
        implication_counterexample,
    )

    if conjunction_inconsistent(stronger):
        return True
    return all(
        implication_counterexample(part_premise, part_conclusion).status
        is Sat.UNSAT
        for part_premise, part_conclusion in _linked_parts(premise, needed)
    )


def _linked_parts(
    premise: list[Expr], conclusion: list[Expr]
) -> list[tuple[Expr | None, Expr]]:
    """Group conjuncts that share columns; keep the groups with a conclusion."""
    parts: list[tuple[set[str], list[Expr], list[Expr]]] = []
    for conjunct, goal in [(c, False) for c in premise] + [
        (c, True) for c in conclusion
    ]:
        columns = set(conjunct.columns())
        linked = [p for p in parts if p[0] & columns]
        parts = [p for p in parts if not p[0] & columns]
        part: tuple[set[str], list[Expr], list[Expr]] = (columns, [], [])
        for other in linked:
            columns |= other[0]
            part[1].extend(other[1])
            part[2].extend(other[2])
        (part[2] if goal else part[1]).append(conjunct)
        parts.append(part)
    return [
        (reduce(And, p) if p else None, reduce(And, c)) for _, p, c in parts if c
    ]


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

    meta_outputs = catalog.output_names(metareport_query)
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
    ``where`` is the residual WHERE clause (variable equalities folded into
    the atoms) over variable names ``v<id>``.
    """

    atoms: list[_Atom] = field(default_factory=list)
    head: dict[str, int] = field(default_factory=dict)
    where: Expr | None = None
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

    # Variable equalities fold into the atoms; the rest stays a predicate.
    residual: list[Expr] = []
    for conjunct in conjuncts(query.where):
        if isinstance(conjunct, Comparison) and isinstance(
            conjunct.left, Col
        ) and isinstance(conjunct.right, Col):
            if conjunct.op != "=":
                raise NotConjunctive("var-var inequality not in fragment")
            uf.union(resolve(conjunct.left.name), resolve(conjunct.right.name))
        elif _is_cq_atom(conjunct):
            residual.append(conjunct)
        else:
            raise NotConjunctive(f"non-conjunctive shape: {conjunct}")

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
        for name in catalog.output_names(query):
            canonical.head[name] = uf.find(resolve(name))
    renamed = [
        c.substitute({n: f"v{uf.find(resolve(n))}" for n in c.columns()})
        for c in residual
    ]
    canonical.where = reduce(And, renamed) if renamed else None
    canonical.n_vars = len(uf.parent)
    return canonical


def _is_cq_atom(atom: Expr) -> bool:
    """A column-vs-literal comparison, IN list or IS NOT NULL over a column."""
    if isinstance(atom, Comparison):
        return (isinstance(atom.left, Col) and isinstance(atom.right, Lit)) or (
            isinstance(atom.left, Lit) and isinstance(atom.right, Col)
        )
    if isinstance(atom, InList):
        return isinstance(atom.target, Col)
    return isinstance(atom, IsNull) and atom.negated and isinstance(atom.target, Col)


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
    the target's WHERE must imply the source's, mapped onto its variables.
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
        if _where_implied(source, target, mapping):
            return True
    return False


def _where_implied(
    source: CanonicalQuery, target: CanonicalQuery, mapping: dict[int, int]
) -> bool:
    """Does the target's WHERE imply the source's, mapped onto its variables?"""
    if source.where is None:
        return True
    names: dict[str, str] = {}
    for name in source.where.columns():
        dv = mapping.get(int(name[1:]))
        if dv is None:
            return False
        names[name] = f"v{dv}"
    return predicate_implies(target.where, source.where.substitute(names))
