"""Predicate solver under SQL three-valued logic.

Decides satisfiability, falsifiability, implication, and overlap of
:class:`~repro.relational.expressions.Expr` predicates *exactly* over the
supported fragment, in two layers:

1. a cheap pre-pass — negation-normal form, distribution to DNF, and
   :func:`conjunction_inconsistent` on each branch, which decides every
   column's single-column atoms alone and drops the branches it proves
   empty before any domain is built;
2. exact search — bounded enumeration of the finite candidate domains of
   :mod:`repro.verify.domain` over the surviving branches, evaluating each
   candidate row with the runtime's own ``Expr.evaluate``. Exactness is by
   construction: the solver and the enforcement engine share one
   evaluator, so a ``SAT`` witness here is a row the engine itself
   accepts.

This is the one predicate reasoner: the compliance checker's
derivability and CQ containment checks, PLA lint, and the cross-level
verifier all decide implication through :func:`implication_counterexample`.

Three-valued subtleties this encodes:

* a filter keeps a row only when the predicate is definitely ``True``, so
  "counterexample to ``p ⇒ q``" means a row where ``p`` is ``True`` and
  ``q`` is *not* ``True`` (``False`` or ``UNKNOWN``) — not a row where
  ``¬q`` is ``True``;
* NNF rewrites are truth-preserving in Kleene logic (De Morgan holds;
  ``NOT (a < b)`` is exactly ``a >= b`` because both are ``UNKNOWN`` on
  NULLs; ``IS NULL`` negation is exact because it never returns UNKNOWN);
* ``NOT (x IN ...)`` stays an opaque negative atom — the enumeration
  handles it, no rewrite needed.

Verdicts are :data:`Sat.UNKNOWN` only when the predicate leaves the
fragment or the evaluation budget runs out — never silently wrong.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import QueryError
from repro.relational.expressions import (
    NEGATED_OP,
    And,
    Col,
    Comparison,
    Expr,
    InList,
    IsNull,
    Lit,
    Not,
    Or,
    conjuncts,
)
from repro.verify.domain import UnsupportedPredicate, build_domains, domain_size

__all__ = [
    "Sat",
    "SolverResult",
    "DEFAULT_BUDGET",
    "satisfiable",
    "falsifiable",
    "implication_counterexample",
    "overlap",
    "conjunction_inconsistent",
    "truth",
]

#: Default cap on candidate-row evaluations per query to the solver.
DEFAULT_BUDGET = 200_000

#: DNF branch cap; past it the solver enumerates the predicate whole.
_MAX_DNF_BRANCHES = 64


class Sat(enum.Enum):
    """Solver verdict for an existential query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solver query, with its cost and (for SAT) a witness."""

    status: Sat
    witness: dict[str, Any] | None = None
    evaluations: int = 0
    domain_size: int = 0
    reason: str = ""

    def is_sat(self) -> bool:
        return self.status is Sat.SAT

    def is_unsat(self) -> bool:
        return self.status is Sat.UNSAT


def truth(value: Any) -> bool | None:
    """Normalize an evaluated predicate value to Kleene True/False/UNKNOWN."""
    if value is None:
        return None
    return bool(value)


# -- negation normal form (truth-preserving under Kleene logic) --------------


def _nnf(expr: Expr, negate: bool) -> Expr:
    if isinstance(expr, Not):
        return _nnf(expr.inner, not negate)
    if isinstance(expr, And):
        left = _nnf(expr.left, negate)
        right = _nnf(expr.right, negate)
        return Or(left, right) if negate else And(left, right)
    if isinstance(expr, Or):
        left = _nnf(expr.left, negate)
        right = _nnf(expr.right, negate)
        return And(left, right) if negate else Or(left, right)
    if not negate:
        return expr
    if isinstance(expr, Comparison):
        return Comparison(NEGATED_OP[expr.op], expr.left, expr.right)
    if isinstance(expr, IsNull):
        return IsNull(expr.target, not expr.negated)
    if isinstance(expr, Lit):
        if expr.value is None:
            return expr
        return Lit(not bool(expr.value))
    return Not(expr)  # opaque negative atom (e.g. NOT IN)


def _dnf(expr: Expr) -> list[list[Expr]] | None:
    """Disjunctive normal form as branch lists; ``None`` on blowup."""
    if isinstance(expr, Or):
        left = _dnf(expr.left)
        right = _dnf(expr.right)
        if left is None or right is None:
            return None
        branches = left + right
        return branches if len(branches) <= _MAX_DNF_BRANCHES else None
    if isinstance(expr, And):
        left = _dnf(expr.left)
        right = _dnf(expr.right)
        if left is None or right is None:
            return None
        branches = [a + b for a in left for b in right]
        return branches if len(branches) <= _MAX_DNF_BRANCHES else None
    return [[expr]]


def _conjoin(atoms: Sequence[Expr]) -> Expr | None:
    expr: Expr | None = None
    for atom in atoms:
        expr = atom if expr is None else And(expr, atom)
    return expr


# -- the existential core ----------------------------------------------------


@dataclass
class _Budget:
    remaining: int
    spent: int = 0
    exhausted: bool = False

    def tick(self) -> bool:
        if self.remaining <= 0:
            self.exhausted = True
            return False
        self.remaining -= 1
        self.spent += 1
        return True


@dataclass
class _Search:
    """One bounded-enumeration search for a row."""

    positives: list[Expr]
    negatives: list[Expr]
    budget: _Budget
    domains: dict[str, tuple[Any, ...]] = field(default_factory=dict)
    had_error: bool = False

    def run(self) -> SolverResult:
        conj = _conjoin(self.positives)
        if conj is None:
            branches: list[list[Expr]] = [[]]
        else:
            dnf = _dnf(_nnf(conj, False))
            branches = dnf if dnf is not None else [[conj]]
        # Pruning first means a branch whose constants cannot share one
        # domain (``a = 1 AND a = 'x'``) is dropped, not fatal to the build.
        branches = [
            atoms
            for atoms in branches
            if not conjunction_inconsistent(_conjoin(atoms))
        ]
        if not branches:
            return SolverResult(Sat.UNSAT)
        try:
            self.domains = build_domains(
                [atom for atoms in branches for atom in atoms] + self.negatives
            )
        except UnsupportedPredicate as exc:
            return SolverResult(Sat.UNKNOWN, reason=str(exc))
        except Exception as exc:  # fail closed: never crash, never lie
            return SolverResult(
                Sat.UNKNOWN,
                reason=(
                    "domain construction failed: "
                    f"{type(exc).__name__}: {exc}"
                ),
            )
        size = domain_size(self.domains)
        negative_cols: set[str] = set()
        for expr in self.negatives:
            negative_cols |= expr.columns()
        for atoms in branches:
            branch = _conjoin(atoms)
            columns = set(negative_cols)
            if branch is not None:
                columns |= branch.columns()
            witness = self._enumerate(branch, sorted(columns))
            if witness is not None:
                return SolverResult(
                    Sat.SAT,
                    witness=witness,
                    evaluations=self.budget.spent,
                    domain_size=size,
                )
            if self.budget.exhausted:
                return SolverResult(
                    Sat.UNKNOWN,
                    evaluations=self.budget.spent,
                    domain_size=size,
                    reason=f"evaluation budget exhausted over {size} candidates",
                )
        # UNSAT requires a *complete* search: every surviving branch fully
        # enumerated, no evaluation error anywhere in this search.
        if self.had_error or self.budget.exhausted:
            return SolverResult(
                Sat.UNKNOWN,
                evaluations=self.budget.spent,
                domain_size=size,
                reason=(
                    "candidate evaluation raised (incomparable types?)"
                    if self.had_error
                    else f"evaluation budget exhausted over {size} candidates"
                ),
            )
        return SolverResult(
            Sat.UNSAT, evaluations=self.budget.spent, domain_size=size
        )

    def _enumerate(
        self, branch: Expr | None, columns: list[str]
    ) -> dict[str, Any] | None:
        pools = [self.domains.get(c, (None,)) for c in columns]
        for values in itertools.product(*pools):
            if not self.budget.tick():
                return None
            row = dict(zip(columns, values))
            try:
                if branch is not None and truth(branch.evaluate(row)) is not True:
                    continue
                # Guard against any normal-form slip: the witness must make
                # the *original* positives true, per the runtime evaluator.
                if any(truth(p.evaluate(row)) is not True for p in self.positives):
                    continue
                if any(truth(n.evaluate(row)) is True for n in self.negatives):
                    continue
            except (QueryError, TypeError, ValueError, ArithmeticError):
                # QueryError is the engine's typed failure; raw TypeError/
                # OverflowError can escape arithmetic over exotic operand
                # mixes. Either way the candidate is inconclusive, and the
                # search as a whole can no longer claim UNSAT.
                self.had_error = True
                continue
            return row
        return None


# -- the emptiness pre-pass ---------------------------------------------------


def conjunction_inconsistent(predicate: Expr | None) -> bool:
    """Sound, cheap test that no row makes every conjunct of ``predicate`` True.

    Each column's single-column conjuncts (column-vs-literal comparisons,
    IN lists, IS [NOT] NULL, and their negations) are decided on their own,
    by evaluating them over that column's candidate domain — or over the
    constants of one ``=``/IN conjunct, which every kept value must equal.
    ``True`` proves the conjunction empty. Conjuncts over several columns
    or outside that shape are ignored, which only weakens the conjunction,
    so ``False`` means "not proved empty here": the exact search decides
    the rest. A column whose candidates cannot be built (constants of
    mixed types) or whose evaluation raises proves nothing.
    """
    by_column: dict[str, list[Expr]] = {}
    for atom in conjuncts(predicate):
        column = _single_column(atom)
        if column is not None:
            by_column.setdefault(column, []).append(atom)
    return any(_column_empty(name, atoms) for name, atoms in by_column.items())


def _single_column(atom: Expr) -> str | None:
    """The column a pre-pass atom constrains, or ``None`` if it is not one."""
    if isinstance(atom, Not):
        atom = atom.inner
    if isinstance(atom, Comparison):
        left, right = atom.left, atom.right
        if isinstance(left, Col) and isinstance(right, Lit):
            return left.name
        if isinstance(left, Lit) and isinstance(right, Col):
            return right.name
        return None
    if isinstance(atom, (InList, IsNull)) and isinstance(atom.target, Col):
        return atom.target.name
    return None


def _column_empty(column: str, atoms: list[Expr]) -> bool:
    """Does no value of ``column`` make every one of its ``atoms`` True?"""
    values: Sequence[Any] | None = None
    for atom in atoms:
        if isinstance(atom, Comparison) and atom.op == "=":
            side = atom.right if isinstance(atom.right, Lit) else atom.left
            assert isinstance(side, Lit)
            values = (side.value,)
            break
        if isinstance(atom, InList):
            values = atom.values
            break
    if values is None and len(atoms) == 1:
        return False  # one atom alone: left to the exact search
    try:
        if values is None:
            values = build_domains(atoms)[column]
        return not any(
            all(truth(atom.evaluate({column: v})) is True for atom in atoms)
            for v in values
        )
    except (
        UnsupportedPredicate, QueryError, TypeError, ValueError, ArithmeticError
    ):
        return False


def _exists(
    positives: Iterable[Expr],
    negatives: Iterable[Expr],
    budget: int,
) -> SolverResult:
    """Find a row making every positive ``True`` and no negative ``True``."""
    return _Search(
        positives=list(positives),
        negatives=list(negatives),
        budget=_Budget(remaining=budget),
    ).run()


# -- public API --------------------------------------------------------------


def satisfiable(
    predicate: Expr | None, *, budget: int = DEFAULT_BUDGET
) -> SolverResult:
    """Is there a row on which ``predicate`` evaluates to ``True``?

    ``None`` (no restriction) is trivially satisfiable by the empty row.
    """
    if predicate is None:
        return SolverResult(Sat.SAT, witness={})
    return _exists([predicate], [], budget)


def falsifiable(
    predicate: Expr | None, *, budget: int = DEFAULT_BUDGET
) -> SolverResult:
    """Is there a row on which ``predicate`` is *not* ``True``?

    ``UNSAT`` certifies a tautology (the predicate filters nothing under
    the engine's keep-only-True semantics). ``None`` is never falsifiable.
    """
    if predicate is None:
        return SolverResult(Sat.UNSAT)
    return _exists([], [predicate], budget)


def implication_counterexample(
    premise: Expr | None,
    conclusion: Expr | None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> SolverResult:
    """Search for a row where ``premise`` holds but ``conclusion`` does not.

    ``UNSAT`` proves the filter-semantics implication: every row the
    premise keeps, the conclusion keeps too. ``SAT`` refutes it and the
    witness is the concrete escaping row. ``None`` premises mean "no
    restriction" (all rows), ``None`` conclusions are implied by anything.
    """
    if conclusion is None:
        return SolverResult(Sat.UNSAT)
    if premise is None:
        return _exists([], [conclusion], budget)
    return _exists([premise], [conclusion], budget)


def overlap(
    p: Expr | None, q: Expr | None, *, budget: int = DEFAULT_BUDGET
) -> SolverResult:
    """Is there a row both predicates keep? ``UNSAT`` proves disjointness."""
    positives = [e for e in (p, q) if e is not None]
    if not positives:
        return SolverResult(Sat.SAT, witness={})
    return _exists(positives, [], budget)
