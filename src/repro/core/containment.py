"""Query containment and derivability — the meta-report compliance mechanism.

§5: "Each time a new report is created or an existing one is modified, PLAs
on the meta-reports are used to determine if the new report is
privacy-compliant. This can be often done easily as the reports can, at
least conceptually, be expressed as a subset or view over a meta-report."

One check, over one canonical form (:func:`canonicalize`: view chains
inlined, column equalities folded into the atoms, the rest of WHERE kept
as a residual predicate), which verification's report regions also read:

* :func:`is_contained` — conjunctive-query containment via the
  homomorphism theorem (Chandra–Merlin): Q1 ⊆ Q2 is reported only when a
  containment mapping exists *and* Q1's residual WHERE implies Q2's,
  mapped onto Q1's variables.
* :func:`check_derivability` — the compliance engine's check: such a
  mapping from the meta-report onto the report's select-project-join core,
  plus the column-exposure, UNION and aggregation rules.

Predicate implication is decided by :func:`predicate_implies`, which
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
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.cache import LRUCache
from repro.errors import CatalogError, QueryError
from repro.obs import instrument
from repro.obs.trace import TRACER
from repro.relational.catalog import MAX_VIEW_DEPTH, Catalog, joined_names
from repro.relational.expressions import And, Col, Comparison, Expr, conjuncts
from repro.relational.query import Query

__all__ = [
    "predicate_implies",
    "DerivabilityResult",
    "check_derivability",
    "CanonicalQuery",
    "canonicalize",
    "spj_core",
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
# Derivability, containment and canonical forms are pure functions of the
# query trees and the catalog's *definitions* (schemas, views) — never of
# row data. Keys are therefore ``(fingerprints..., catalog.uid,
# catalog.ddl_version)``: any DDL change versions old entries out, and a
# registered mutation hook evicts the affected catalog's entries eagerly.
# ``NotConjunctive`` outcomes are cached too (as a sentinel) and re-raised,
# since proving "outside the fragment" costs the same canonicalization work
# as a positive proof. A meta-report is checked against every report, so its
# canonical form is built once per catalog generation and shared.
# ---------------------------------------------------------------------------

_PROOF_CACHE_SIZE = 4096
_derivability_cache = LRUCache(maxsize=_PROOF_CACHE_SIZE)
_containment_cache = LRUCache(maxsize=_PROOF_CACHE_SIZE)
_canonical_cache = LRUCache(maxsize=_PROOF_CACHE_SIZE)
_hooked_catalogs: set[int] = set()
_hook_lock = threading.Lock()


def _on_catalog_mutation(catalog: Catalog, name: str) -> None:
    cat_uid = catalog.uid
    _derivability_cache.invalidate_where(lambda k: k[-2] == cat_uid)
    _containment_cache.invalidate_where(lambda k: k[-2] == cat_uid)
    _canonical_cache.invalidate_where(lambda k: k[-2] == cat_uid)


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
        "canonical": {
            **_canonical_cache.stats.as_dict(),
            "entries": len(_canonical_cache),
        },
    }


def clear_proof_caches() -> int:
    """Drop all memoized proofs; returns how many entries were removed."""
    return (
        _derivability_cache.clear()
        + _containment_cache.clear()
        + _canonical_cache.clear()
    )


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
# The canonical form: one view-inlining walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Atom:
    relation: str
    variables: tuple[int, ...]  # one variable id per column of the relation


@dataclass
class CanonicalQuery:
    """A conjunctive query in canonical form.

    Variables are integers, named ``v<id>`` inside expressions. ``head``
    maps each output column to its term: ``Col("v<id>")``, an expression
    over variables for a computed column, or None for a column computed
    from another computed column. ``where`` is the residual predicate.
    """

    atoms: list[_Atom] = field(default_factory=list)
    head: dict[str, Expr | None] = field(default_factory=dict)
    where: Expr | None = None


#: A column's term during the walk: a variable id, an expression over
#: ``v<id>`` names, or None.
_Term = int | Expr | None
#: The columns in scope, by visible name: (FROM relation, its column, term).
_Scope = dict[str, tuple[str, str, _Term]]


def spj_core(query: Query) -> Query:
    """A SELECT block's FROM, JOINs and WHERE, its whole FROM scope as head:
    the rows it reads before GROUP BY, HAVING, ORDER BY, LIMIT, DISTINCT."""
    return Query(source=query.source, joins=query.joins, where=query.where)


def canonicalize(
    query: Query, catalog: Catalog, *, universe: str | None = None
) -> CanonicalQuery:
    """Canonical form of a conjunctive query, view chains inlined.

    Views are replaced by their definitions down to base tables (or to
    ``universe``, kept as one atom), at most ``MAX_VIEW_DEPTH`` deep; one
    that aggregates, is a UNION, outer-joins or carries a LIMIT raises
    :class:`NotConjunctive`. Column equalities in ON and WHERE fold into the
    atoms; other WHERE conjuncts stay in the residual, outer blocks first.

    Forms are memoized per catalog DDL generation with the proofs (see
    :func:`proof_cache_stats`) and shared between callers, which must not
    change them.
    """
    key = (query.fingerprint(), universe, catalog.uid, catalog.ddl_version)
    token = _canonical_cache.fill_token()
    cached = _canonical_cache.get(key)
    if TRACER.active():
        instrument.cache_lookup("canonical", cached is not None)
    if cached is not None:
        kind, payload = cached
        if kind == "raise":
            raise NotConjunctive(*payload)
        return payload
    try:
        form = _canonicalize(query, catalog, universe)
    except NotConjunctive as exc:
        _hook_catalog(catalog)
        _canonical_cache.put_if(key, ("raise", exc.args), token)
        raise
    _hook_catalog(catalog)
    _canonical_cache.put_if(key, ("value", form), token)
    return form


def _canonicalize(
    query: Query, catalog: Catalog, universe: str | None
) -> CanonicalQuery:
    walk = _Inliner(catalog, universe)
    outputs, parts = walk.block(query, 0, "query")
    find = walk.find

    def rooted(expr: Expr) -> Expr:
        return expr.substitute({n: f"v{find(int(n[1:]))}" for n in expr.columns()})

    renamed = [rooted(part) for part in parts]
    return CanonicalQuery(
        atoms=[_Atom(r, tuple([find(v) for v in vs])) for r, vs in walk.atoms],
        head={
            name: Col(f"v{find(term)}") if isinstance(term, int)
            else None if term is None else rooted(term)
            for name, term in outputs
        },
        where=reduce(And, renamed) if renamed else None,
    )


class _Inliner:
    """Atoms, union-find over variables, and residual conjuncts of one walk."""

    def __init__(self, catalog: Catalog, universe: str | None) -> None:
        self.catalog = catalog
        self.universe = universe
        self.parent: list[int] = []
        self.atoms: list[tuple[str, list[int]]] = []

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def equate(self, a: int, b: int) -> None:
        a, b = self.find(a), self.find(b)
        if a != b:
            self.parent[b] = a

    def block(
        self, query: Query, depth: int, what: str
    ) -> tuple[list[tuple[str, _Term]], list[Expr]]:
        """One SELECT block's output terms and residual conjuncts."""
        if query.set_ops:
            raise NotConjunctive(f"{what} is a set operation (UNION)")
        if query.is_aggregate or query.having is not None:
            raise NotConjunctive(f"{what} aggregates")
        if query.limit_n is not None:
            raise NotConjunctive(f"{what} carries a LIMIT")
        scope, parts = self.relation(query.source, depth)
        left = query.source
        for clause in query.joins:
            if clause.how not in ("inner", "cross"):
                raise NotConjunctive(f"{what} has a {clause.how} outer join")
            right, right_parts = self.relation(clause.table, depth)
            for lname, rname in clause.on:
                self.equate(_variable(scope, lname), _variable(right, rname))
            names = joined_names(tuple(scope), left, tuple(right), clause.table)
            scope = dict(zip(names, [*scope.values(), *right.values()]))
            left = f"{left}_{clause.table}"
            parts += right_parts
        parts = self.predicate(query.where, scope) + parts
        if not query.select:
            return [(name, entry[2]) for name, entry in scope.items()], parts
        outputs: list[tuple[str, _Term]] = []
        for item in query.select:
            if isinstance(item, str):
                outputs.append((item, _resolve(scope, item)))
                continue
            name, expr = item
            terms = {c: _resolve(scope, c) for c in expr.columns()}
            if isinstance(expr, Col):
                outputs.append((name, terms[expr.name]))
            elif all(isinstance(t, int) for t in terms.values()):
                as_vars = {c: f"v{t}" for c, t in terms.items()}
                outputs.append((name, expr.substitute(as_vars)))
            else:
                outputs.append((name, None))
        return outputs, parts

    def relation(self, name: str, depth: int) -> tuple[_Scope, list[Expr]]:
        """Scope and residual conjuncts of one FROM/JOIN relation."""
        catalog = self.catalog
        if catalog.is_table(name) or name == self.universe:
            columns = catalog.output_names(name)
            variables = list(range(len(self.parent), len(self.parent) + len(columns)))
            self.parent.extend(variables)
            self.atoms.append((name, variables))
            return {c: (name, c, v) for c, v in zip(columns, variables)}, []
        if not catalog.is_view(name):
            raise CatalogError(f"no table or view named {name!r}")
        if depth >= MAX_VIEW_DEPTH:
            raise NotConjunctive(f"view chain deeper than {MAX_VIEW_DEPTH}; cycle?")
        view = catalog.view(name).query
        outputs, parts = self.block(view, depth + 1, f"view {name!r}")
        return {c: (name, c, term) for c, term in outputs}, parts

    def predicate(self, where: Expr | None, scope: _Scope) -> list[Expr]:
        """A WHERE clause's residual conjuncts; column equalities fold away."""
        columns = where.columns() if where is not None else ()
        names = {c: f"v{_variable(scope, c)}" for c in columns}
        kept = []
        for conjunct in conjuncts(where):
            # ``a = a`` stays: it also says ``a IS NOT NULL``.
            if (
                isinstance(conjunct, Comparison)
                and conjunct.op == "="
                and isinstance(conjunct.left, Col)
                and isinstance(conjunct.right, Col)
                and names[conjunct.left.name] != names[conjunct.right.name]
            ):
                left, right = names[conjunct.left.name], names[conjunct.right.name]
                self.equate(int(left[1:]), int(right[1:]))
            else:
                kept.append(conjunct.substitute(names))
        return kept


def _resolve(scope: _Scope, name: str) -> _Term:
    """The term of ``name`` in scope: its visible name, else ``relation.column``."""
    entry = scope.get(name)
    if entry is not None:
        return entry[2]
    relation, dot, column = name.partition(".")
    hits = [e for e in scope.values() if dot and e[:2] == (relation, column)]
    if len(hits) != 1:
        raise NotConjunctive(f"{'ambiguous' if hits else 'unknown'} column {name!r}")
    return hits[0][2]


def _variable(scope: _Scope, name: str) -> int:
    term = _resolve(scope, name)
    if not isinstance(term, int):
        raise NotConjunctive(f"{name!r} is a computed column")
    return term


# ---------------------------------------------------------------------------
# Containment mappings (homomorphism theorem)
# ---------------------------------------------------------------------------


def _mappings(
    source: CanonicalQuery, target: CanonicalQuery
) -> Iterator[tuple[dict[int, int], set[int]]]:
    """Every consistent map of source atoms onto same-relation target atoms:
    the variable mapping, and the indices of the target atoms it lands on."""
    candidates = [
        [i for i, t in enumerate(target.atoms) if t.relation == atom.relation]
        for atom in source.atoms
    ]
    for assignment in itertools.product(*candidates):
        mapping: dict[int, int] = {}
        if all(
            mapping.setdefault(sv, dv) == dv
            for atom, i in zip(source.atoms, assignment)
            for sv, dv in zip(atom.variables, target.atoms[i].variables)
        ):
            yield mapping, set(assignment)


def _image(term: Expr | None, mapping: dict[int, int]) -> Expr | None:
    """``term`` with its variables mapped; None when one has no image."""
    if term is None or not all(int(n[1:]) in mapping for n in term.columns()):
        return None
    return term.substitute({n: f"v{mapping[int(n[1:])]}" for n in term.columns()})


def _aligned(
    source_term: Expr | None, target_term: Expr | None, mapping: dict[int, int]
) -> bool:
    image = _image(source_term, mapping)
    if image is None or target_term is None:
        return False
    return str(image) == str(target_term)


def _where_implied(
    source: CanonicalQuery, target: CanonicalQuery, mapping: dict[int, int]
) -> bool:
    """Does the target's WHERE imply the source's, mapped onto its variables?"""
    if source.where is None:
        return True
    image = _image(source.where, mapping)
    return image is not None and predicate_implies(target.where, image)


def is_contained(q1: Query, q2: Query, catalog: Catalog) -> bool:
    """Sound check that Q1 ⊆ Q2 (every Q1 answer is a Q2 answer).

    Uses the homomorphism theorem on :func:`canonicalize`'s forms. Raises
    :class:`NotConjunctive` when either query leaves the fragment.

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
    return any(
        all(_aligned(term, c1.head[name], mapping) for name, term in c2.head.items())
        and _where_implied(c2, c1, mapping)
        for mapping, _ in _mappings(c2, c1)
    )


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

    Conditions (all must hold):

    1. every column the report reads (:meth:`Catalog.input_names`, so a
       bare ``SELECT *`` reads its whole FROM scope) is an output of the
       meta-report;
    2. the meta-report is a non-aggregate, non-UNION view;
    3. one containment mapping takes the meta-report's canonical form onto
       the report's select-project-join core (:func:`spj_core`), view
       chains inlined on both sides. It lands on every report atom (the
       report reads no relation outside the meta-report), maps each column
       the report uses onto the report's column of that name, and carries
       the meta-report's residual onto one the report's residual implies.

    A UNION report is checked branch by branch. Results are memoized per
    catalog DDL generation (the proof never reads row data); see
    :func:`proof_cache_stats`.
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
        for block in report_query.blocks():
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
    used = catalog.input_names(report_query)
    unknown = used - set(catalog.output_names(metareport_query))
    if unknown:
        reasons.append(
            f"report uses columns the meta-report does not expose: {sorted(unknown)}"
        )
    if metareport_query.is_aggregate:
        reasons.append("meta-reports must be non-aggregate wide views")
    else:
        reasons[:0] = _mapping_reasons(report_query, metareport_query, used, catalog)
    return DerivabilityResult(
        derivable=not reasons,
        metareport=metareport_name,
        reasons=tuple(reasons),
    )


def _mapping_reasons(
    report_query: Query,
    metareport_query: Query,
    used: frozenset[str],
    catalog: Catalog,
) -> list[str]:
    """Why no containment mapping takes the meta-report onto the report."""
    try:
        report = canonicalize(spj_core(report_query), catalog)
        meta = canonicalize(metareport_query, catalog)
    except NotConjunctive as exc:
        return [f"outside the conjunctive fragment: {exc}"]
    outside = {a.relation for a in report.atoms} - {a.relation for a in meta.atoms}
    unread = {a.relation for a in meta.atoms} - {a.relation for a in report.atoms}
    reasons = []
    if outside:
        reasons.append(
            f"report touches base relations outside the meta-report: {sorted(outside)}"
        )
    if unread:
        reasons.append(
            f"meta-report joins relations the report does not read: {sorted(unread)}"
        )
    if reasons:
        return reasons
    both = used & meta.head.keys() & report.head.keys()
    columns = [(meta.head[c], report.head[c]) for c in both]
    for mapping, image in _mappings(meta, report):
        if (
            len(image) == len(report.atoms)
            and all(_aligned(m, r, mapping) for m, r in columns)
            and _where_implied(meta, report, mapping)
        ):
            return []
    return [
        "no containment mapping keeps the meta-report's joins and columns with "
        "the report predicate implying the meta-report's predicate "
        f"({report_query.where} vs {metareport_query.where})"
    ]
