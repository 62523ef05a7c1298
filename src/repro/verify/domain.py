"""Finite candidate domains: the small-model argument behind the solver.

The solver (:mod:`repro.verify.solver`) decides satisfiability by
evaluating candidate rows with the runtime's own ``Expr.evaluate`` — so its
verdicts can never drift from engine semantics. What makes the enumeration
*exact* rather than a sampling heuristic is the construction here: for the
supported predicate fragment (column-vs-literal comparisons, column-vs-
column comparisons, linear single-column arithmetic ``a*x + b ⋈ c``,
affine column-column comparisons ``x ⋈ a*y + b``, IN lists, IS [NOT]
NULL, and any AND/OR/NOT nesting of those) an atom's truth value depends
only on how a column's value compares to finitely many *thresholds*: the
literal constants, the solved boundaries of its linear atoms, and — for
columns compared to each other — the (affine images of the) other
column's candidates. A candidate set containing

* every constant mentioned for the column (or its comparison group),
* the solved boundary of every linear atom over it (``a*x + b ⋈ c``
  contributes ``(c - b) / a``; fractional boundaries are sampled at the
  rounded float plus both ULP neighbours so the true boundary is
  straddled),
* points in every gap between adjacent thresholds and beyond each end,
  as many per gap as the comparison group has columns (or every value the
  gap holds, when it holds fewer), so every ordering of the group's
  columns relative to each other and to the thresholds is realized (a
  large group makes a large product, which the solver's evaluation budget
  turns into UNKNOWN, never into a wrong verdict),
* for affine pairs, the *crossing points* where two thresholds meet
  (``a1*y + b1 = a2*y + b2``) and the images ``a*v + b`` of every source
  candidate ``v``,
* and ``NULL``

therefore realizes every reachable atom-valuation — if any row satisfies
the predicate, some candidate row does too. Columns compared to each other
are merged into one *group* (union-find) sharing a candidate pool, since
their relative order matters. Groups linked by a *non-identity* affine
edge are restricted to exactly one (target, source) column pair — chains
of affine comparisons leave the fragment and yield UNKNOWN.

Numbers are dense. A predicate does not say whether its column is INT or
FLOAT, so every numeric pool is sampled as if the column could hold any
real: ``x > 5 AND x < 6`` is satisfiable (``x = 5.5``). Reading a column
whose constants are all integers as an integer column would prove false
claims on FLOAT columns: a meta-report over ``result > 5`` would be
proved to satisfy a source policy ``result >= 6`` that the row
``result = 5.5`` violates. On an INT column the dense reading can at worst
refute a true claim with a fractional witness, a false alarm that fails
safe; it never proves a false claim. Every sample is an exact value of
the column's type that lies strictly inside its gap or beyond its end:
where float steps round away (integers past 2**53, ``1e16 + 1 == 1e16``)
the gap is walked through exact integers and adjacent floats instead, so
``x > 2**60 AND x < 2**60 + 4`` keeps its witness ``2**60 + 1``.
Datetimes are dense in the same way, down to the microsecond; dates step
by whole days.
"""

from __future__ import annotations

import datetime
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import AnalysisError
from repro.relational.expressions import (
    And,
    Arith,
    Col,
    Comparison,
    Expr,
    InList,
    IsNull,
    Lit,
    Not,
    Or,
)

__all__ = [
    "UnsupportedPredicate",
    "AffineEdge",
    "PredicateShape",
    "scan_shape",
    "build_domains",
    "domain_size",
    "set_arithmetic_enabled",
]

#: Feature toggle for the linear-arithmetic fragment. Exists so ablations
#: (``benchmarks/bench_verify.py``) can measure the PROVED-rate gain of
#: arithmetic support against the pre-arithmetic solver; production code
#: never turns it off.
_ARITHMETIC_ENABLED = True


def set_arithmetic_enabled(enabled: bool) -> bool:
    """Toggle linear-arithmetic atom support; returns the previous setting.

    With arithmetic disabled every ``Arith``-bearing atom raises
    :class:`UnsupportedPredicate` (the pre-extension behaviour), so solver
    verdicts degrade to UNKNOWN instead of becoming wrong.
    """
    global _ARITHMETIC_ENABLED
    previous = _ARITHMETIC_ENABLED
    _ARITHMETIC_ENABLED = enabled
    return previous


class UnsupportedPredicate(AnalysisError):
    """The predicate contains a shape the solver cannot model exactly."""


@dataclass(frozen=True)
class AffineEdge:
    """A comparison linking two distinct columns: ``target ⋈ a*source + b``.

    Normalized so the target column appears with coefficient 1; the
    comparison operator itself is irrelevant to domain construction (only
    the threshold line ``x = a*y + b`` matters) and stays in the predicate
    for the evaluator.
    """

    target: str
    source: str
    a: Fraction
    b: Fraction


@dataclass
class PredicateShape:
    """Columns, constant pools, and column-column comparison edges.

    ``edges`` are plain ``x ⋈ y`` comparisons (identity affine edges);
    ``affine`` carries the non-identity ``x ⋈ a*y + b`` ones.
    """

    constants: dict[str, set[Any]] = field(default_factory=dict)
    edges: list[tuple[str, str]] = field(default_factory=list)
    affine: list[AffineEdge] = field(default_factory=list)

    def columns(self) -> frozenset[str]:
        return frozenset(self.constants)

    def pool(self, column: str) -> set[Any]:
        return self.constants.setdefault(column, set())

    def add_boundary(self, column: str, boundary: Fraction) -> None:
        """Record a solved linear-atom boundary as pool constants."""
        self.pool(column).update(_boundary_values(boundary))


def _boundary_values(boundary: Fraction) -> tuple[int | float, ...]:
    """Pool constants representing one exact rational threshold.

    Integral boundaries stay exact ``int`` values; fractional ones become
    the rounded ``float`` plus both ULP neighbours, so candidates straddle
    the true boundary even when it is not exactly representable.
    """
    if boundary.denominator == 1:
        return (int(boundary),)
    approx = float(boundary)
    return (
        approx,
        math.nextafter(approx, math.inf),
        math.nextafter(approx, -math.inf),
    )


# -- linear terms -------------------------------------------------------------


@dataclass(frozen=True)
class _Linear:
    """One side of an atom as ``coeff * col + const`` over non-NULL rows.

    ``cols`` lists *every* referenced column (a NULL in any of them makes
    the whole expression NULL, which matters even when the column's
    coefficient cancelled to zero). ``col`` is ``None`` iff ``coeff`` is
    zero (a degenerate constant term).
    """

    cols: frozenset[str]
    coeff: Fraction
    col: str | None
    const: Fraction


def _as_fraction(value: Any, context: Expr) -> Fraction:
    if type(value) is bool or not isinstance(value, (int, float)):
        raise UnsupportedPredicate(
            f"non-numeric operand in arithmetic: {context}"
        )
    try:
        return Fraction(value)
    except (ValueError, OverflowError) as exc:  # NaN / infinity literals
        raise UnsupportedPredicate(
            f"non-finite numeric literal in arithmetic: {context}"
        ) from exc


def _linearize(expr: Expr, context: Expr) -> _Linear:
    """Rewrite one comparison side as a linear single-column term.

    Raises :class:`UnsupportedPredicate` on anything outside the linear
    fragment: multi-column terms, column*column products, division by a
    column or by literal zero, non-numeric or NULL operands.
    """
    if isinstance(expr, Lit):
        if expr.value is None:
            raise UnsupportedPredicate(
                f"NULL literal inside arithmetic: {context}"
            )
        return _Linear(frozenset(), Fraction(0), None, _as_fraction(expr.value, context))
    if isinstance(expr, Col):
        return _Linear(frozenset({expr.name}), Fraction(1), expr.name, Fraction(0))
    if isinstance(expr, Arith):
        lhs = _linearize(expr.left, context)
        rhs = _linearize(expr.right, context)
        cols = lhs.cols | rhs.cols
        if expr.op in ("+", "-"):
            if lhs.col is not None and rhs.col is not None and lhs.col != rhs.col:
                raise UnsupportedPredicate(
                    f"multi-column arithmetic term: {context}"
                )
            sign = 1 if expr.op == "+" else -1
            coeff = lhs.coeff + sign * rhs.coeff
            col = lhs.col if lhs.col is not None else rhs.col
            return _Linear(
                cols, coeff, col if coeff else None, lhs.const + sign * rhs.const
            )
        if expr.op == "*":
            if lhs.col is not None and rhs.col is not None:
                raise UnsupportedPredicate(
                    f"nonlinear column*column term: {context}"
                )
            scale, term = (lhs.const, rhs) if lhs.col is None else (rhs.const, lhs)
            coeff = term.coeff * scale
            return _Linear(
                cols, coeff, term.col if coeff else None, term.const * scale
            )
        if expr.op == "/":
            if rhs.col is not None or rhs.cols:
                raise UnsupportedPredicate(f"division by a column: {context}")
            if rhs.const == 0:
                raise UnsupportedPredicate(
                    f"division by literal zero: {context}"
                )
            coeff = lhs.coeff / rhs.const
            return _Linear(
                cols, coeff, lhs.col if coeff else None, lhs.const / rhs.const
            )
        raise UnsupportedPredicate(
            f"arithmetic operator {expr.op!r} outside the solver fragment: {context}"
        )
    raise UnsupportedPredicate(
        f"operand outside the solver fragment: {type(expr).__name__}: {context}"
    )


def scan_shape(exprs: Iterable[Expr | None]) -> PredicateShape:
    """Collect the shape of a set of predicates (conjoined or separate).

    Raises :class:`UnsupportedPredicate` on atoms outside the fragment
    (nonlinear arithmetic, multi-column terms, unknown node types).
    """
    shape = PredicateShape()
    for expr in exprs:
        if expr is not None:
            _scan(expr, shape)
    return shape


def _scan(expr: Expr, shape: PredicateShape) -> None:
    if isinstance(expr, (And, Or)):
        _scan(expr.left, shape)
        _scan(expr.right, shape)
    elif isinstance(expr, Not):
        _scan(expr.inner, shape)
    elif isinstance(expr, Comparison):
        left, right = expr.left, expr.right
        if isinstance(left, Col) and isinstance(right, Lit):
            if right.value is not None:
                shape.pool(left.name).add(right.value)
            else:
                shape.pool(left.name)
        elif isinstance(left, Lit) and isinstance(right, Col):
            if left.value is not None:
                shape.pool(right.name).add(left.value)
            else:
                shape.pool(right.name)
        elif isinstance(left, Col) and isinstance(right, Col):
            shape.pool(left.name)
            shape.pool(right.name)
            shape.edges.append((left.name, right.name))
        elif isinstance(left, Lit) and isinstance(right, Lit):
            pass  # constant atom; no column involved
        elif isinstance(left, Arith) or isinstance(right, Arith):
            _scan_arith_comparison(expr, shape)
        else:
            raise UnsupportedPredicate(
                f"comparison outside the solver fragment: {expr}"
            )
    elif isinstance(expr, InList):
        target = expr.target
        if isinstance(target, Col):
            shape.pool(target.name).update(
                v for v in expr.values if v is not None
            )
        elif isinstance(target, Arith):
            _require_arithmetic(expr)
            lin = _linearize(target, expr)
            for name in lin.cols:
                shape.pool(name)
            if lin.col is not None:
                for v in expr.values:
                    if v is None or not isinstance(v, (int, float)):
                        continue  # a number can only equal a numeric member
                    shape.add_boundary(
                        lin.col, (_as_fraction(v, expr) - lin.const) / lin.coeff
                    )
        else:
            raise UnsupportedPredicate(f"IN over non-column: {expr}")
    elif isinstance(expr, IsNull):
        target = expr.target
        if isinstance(target, Col):
            shape.pool(target.name)
        elif isinstance(target, Arith):
            # NULL-ness of a linear term is NULL-ness of any referenced
            # column (literal coefficients are never NULL; /0 is excluded
            # by _linearize), so registering the pools suffices.
            _require_arithmetic(expr)
            lin = _linearize(target, expr)
            for name in lin.cols:
                shape.pool(name)
        else:
            raise UnsupportedPredicate(f"IS NULL over non-column: {expr}")
    elif isinstance(expr, Lit):
        pass
    else:
        raise UnsupportedPredicate(
            f"node outside the solver fragment: {type(expr).__name__}: {expr}"
        )


def _require_arithmetic(expr: Expr) -> None:
    if not _ARITHMETIC_ENABLED:
        raise UnsupportedPredicate(
            f"arithmetic support disabled (ablation mode): {expr}"
        )


def _scan_arith_comparison(expr: Comparison, shape: PredicateShape) -> None:
    """Fold one ``Arith``-bearing comparison into the shape.

    Each side is linearized to ``a*col + b``; the atom is then either a
    solvable single-column boundary, an affine edge between two columns,
    or a constant (whose referenced columns still need NULL bookkeeping).
    """
    _require_arithmetic(expr)
    lhs = _linearize(expr.left, expr)
    rhs = _linearize(expr.right, expr)
    for name in lhs.cols | rhs.cols:
        shape.pool(name)
    if lhs.col is not None and rhs.col is not None:
        if lhs.col == rhs.col:
            # a1*x + b1 ⋈ a2*x + b2  →  (a1-a2)*x ⋈ b2-b1
            a = lhs.coeff - rhs.coeff
            if a != 0:
                shape.add_boundary(lhs.col, (rhs.const - lhs.const) / a)
            return
        # a1*x + b1 ⋈ a2*y + b2  →  x ⋈ (a2/a1)*y + (b2-b1)/a1; the
        # threshold line is what matters, so dividing by a negative a1
        # (which flips the comparison) is immaterial here.
        shape.affine.append(
            AffineEdge(
                target=lhs.col,
                source=rhs.col,
                a=rhs.coeff / lhs.coeff,
                b=(rhs.const - lhs.const) / lhs.coeff,
            )
        )
        return
    if lhs.col is not None:
        shape.add_boundary(lhs.col, (rhs.const - lhs.const) / lhs.coeff)
        return
    if rhs.col is not None:
        shape.add_boundary(rhs.col, (lhs.const - rhs.const) / rhs.coeff)
        return
    # Both sides degenerate: a constant atom (UNKNOWN when a referenced
    # column is NULL — the pools registered above cover that case).


class _Groups:
    """Union-find over column names (columns compared to each other)."""

    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def add(self, name: str) -> None:
        self.parent.setdefault(name, name)

    def find(self, name: str) -> str:
        while self.parent[name] != name:
            self.parent[name] = self.parent[self.parent[name]]
            name = self.parent[name]
        return name

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _candidates(pool: set[Any], group_size: int) -> list[Any]:
    """Non-NULL candidate values realizing every atom valuation.

    ``group_size`` is how many columns share this pool; that many distinct
    values in each gap between adjacent constants and beyond each end (or
    all of a gap's values, when it holds fewer) realize every ordering of
    the group's columns among the constants.
    """
    width = max(group_size, 1)
    offsets = range(1, width + 1)
    if not pool:
        # No constants: only relative order among group members matters.
        return list(range(width + 1))
    kinds = {_kind(v) for v in pool}
    if len(kinds) > 1:
        raise UnsupportedPredicate(
            f"mixed-type constant pool ({', '.join(sorted(kinds))}): "
            f"{sorted(map(repr, pool))}; cannot order candidates"
        )
    kind = kinds.pop()
    if kind == "bool":
        return [False, True]
    if kind not in ("number", "datetime", "str", "date"):
        raise UnsupportedPredicate(
            f"constants of unsupported type in pool: {sorted(map(repr, pool))}"
        )
    ordered = sorted(pool)
    out = set(ordered)
    try:
        if kind == "number":
            # Dense: ``width`` points inside every gap between adjacent
            # constants and ``width`` beyond each end, each one exact.
            bad = [v for v in ordered if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                raise UnsupportedPredicate(f"non-finite numeric constants {bad}")
            out.update(_numbers_beyond(ordered[0], -1, width))
            out.update(_numbers_beyond(ordered[-1], 1, width))
            for a, b in zip(ordered, ordered[1:]):
                out.update(_between(a, b, width, _ints_above, _floats_above))
        elif kind == "datetime":
            day = datetime.timedelta(days=1)
            for j in offsets:
                out.add(ordered[0] - day * j)
                out.add(ordered[-1] + day * j)
            for a, b in zip(ordered, ordered[1:]):
                out.update(_between(a, b, width, _microseconds_above))
        elif kind == "str":
            # ``v + NUL * j`` sorts above ``v`` and below every larger
            # constant that does not extend it; below the smallest constant,
            # "" and runs of NUL give as many distinct strings as exist there.
            out.update(s for s in ["\x00" * j for j in range(width)] if s < ordered[0])
            for value in ordered:
                out.update(value + "\x00" * j for j in offsets)
        else:  # dates are discrete: whole days around each constant
            for value in ordered:
                for j in offsets:
                    out.add(value + datetime.timedelta(days=j))
                    out.add(value - datetime.timedelta(days=j))
    except OverflowError as exc:  # constants at the limits of their type
        raise UnsupportedPredicate(
            f"cannot sample around constants {sorted(map(repr, pool))}: {exc}"
        ) from exc
    return sorted(out)


def _numbers_beyond(end: int | float, sign: int, width: int) -> list[int | float]:
    """``width`` distinct numbers strictly above (``sign`` 1) or below ``end``."""
    points = [end + sign * j for j in range(1, width + 1)]
    if len({end, *points}) <= width:
        # Unit steps vanish against a float this large (``1e16 + 1 ==
        # 1e16``); exact integers beyond it never do.
        start = math.floor(end) if sign > 0 else math.ceil(end)
        points = [start + sign * j for j in range(1, width + 1)]
    return points


def _between(
    a: Any, b: Any, width: int, *walks: Callable[[Any], Iterator[Any]]
) -> set[Any]:
    """``width`` distinct values strictly between ``a`` and ``b``, or all of them.

    Evenly spaced points come first. Where rounding pushes them onto an end
    or onto each other — integers beyond 2**53, ULP-close solved
    boundaries, sub-microsecond spacing — the walks in ``walks`` step
    through the gap value by value from ``a`` until ``width`` values are
    found; together they enumerate every value of the type that lies
    there, so a gap that holds fewer than ``width`` values contributes all
    of them.
    """
    try:
        step = (b - a) / (width + 1)
        points = {p for p in (a + step * j for j in range(1, width + 1)) if a < p < b}
    except OverflowError:  # integers beyond the float range
        points = set()
    for walk in walks:
        if len(points) >= width:
            break
        for value in itertools.islice(walk(a), width):
            if not value < b:
                break
            points.add(value)
    return points


def _ints_above(a: int | float) -> Iterator[int]:
    return itertools.count(math.floor(a) + 1)


def _floats_above(a: int | float) -> Iterator[float]:
    try:
        x = float(a)
    except OverflowError:
        return  # a gap this narrow past the float range holds no float
    if x <= a:
        x = math.nextafter(x, math.inf)
    while x < math.inf:
        yield x
        x = math.nextafter(x, math.inf)


def _microseconds_above(a: datetime.datetime) -> Iterator[datetime.datetime]:
    tick = datetime.timedelta(microseconds=1)
    return (a + tick * k for k in itertools.count(1))


def _kind(value: Any) -> str:
    if type(value) is bool:
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "str"
    # datetime.datetime subclasses datetime.date but the two do not
    # order against each other — they must land in distinct kinds so a
    # mixed pool is rejected (UNKNOWN) instead of crashing sorted().
    if isinstance(value, datetime.datetime):
        return "datetime"
    if isinstance(value, datetime.date):
        return "date"
    return type(value).__name__


def build_domains(exprs: Iterable[Expr | None]) -> dict[str, tuple[Any, ...]]:
    """Per-column candidate domains (``NULL`` last) for a predicate set.

    Columns compared to each other share one merged candidate pool so their
    relative orderings are all reachable. A group linked by non-identity
    affine edges must be exactly one (target, source) pair; the target's
    pool is closed under the affine images of the source's candidates and
    under every threshold crossing point.
    """
    shape = scan_shape(exprs)
    groups = _Groups()
    for column in shape.constants:
        groups.add(column)
    for a, b in shape.edges:
        groups.union(a, b)
    for edge in shape.affine:
        groups.union(edge.target, edge.source)
    members: dict[str, list[str]] = {}
    for column in shape.constants:
        members.setdefault(groups.find(column), []).append(column)
    domains: dict[str, tuple[Any, ...]] = {}
    for root, columns in members.items():
        pool: set[Any] = set()
        for column in columns:
            pool |= shape.constants[column]
        affine = [e for e in shape.affine if groups.find(e.target) == root]
        if affine:
            source_values, target_values, pair = _affine_group_candidates(
                columns, pool, affine, shape.edges
            )
            domains[pair[1]] = tuple(source_values) + (None,)
            domains[pair[0]] = tuple(target_values) + (None,)
            continue
        values = _candidates(pool, len(columns))
        domain = tuple(values) + (None,)
        for column in columns:
            domains[column] = domain
    return domains


def _affine_group_candidates(
    columns: list[str],
    pool: set[Any],
    affine: list[AffineEdge],
    plain_edges: list[tuple[str, str]],
) -> tuple[list[Any], list[Any], tuple[str, str]]:
    """Candidates for a two-column group linked by affine edges.

    Exactness argument (the 2D small-model): the atoms partition the
    (target, source) plane into cells bounded by the lines ``y = const``,
    ``x = const`` and ``x = a*y + b``. The source candidates realize a
    point inside every y-interval delimited by the *critical* y-values —
    the y constants, the crossings of two affine thresholds, and the
    crossings of an affine threshold with an x constant — within which the
    ordering of all x-thresholds is fixed. For each such source candidate
    the target pool then contains every threshold image (and points between
    and beyond them via :func:`_candidates`), realizing every x-side
    ordering.
    """
    pairs = {(e.target, e.source) for e in affine}
    if len(pairs) > 1 or len(columns) != 2:
        raise UnsupportedPredicate(
            "affine column-column comparisons support exactly one column "
            f"pair per comparison group; got columns {sorted(columns)} with "
            f"edges {sorted(f'{t}~{s}' for t, s in pairs)}"
        )
    (pair,) = pairs
    target, source = pair
    bad = sorted(
        repr(v)
        for v in pool
        if type(v) is bool or not isinstance(v, (int, float))
    )
    if bad:
        raise UnsupportedPredicate(
            f"non-numeric constants {bad} in an arithmetic comparison group"
        )
    edges = list(affine)
    if any({a, b} == {target, source} for a, b in plain_edges):
        # A plain x ⋈ y comparison in the same group is the identity
        # affine edge; it must join the crossing/image computation.
        edges.append(AffineEdge(target, source, Fraction(1), Fraction(0)))
    source_pool = set(pool)
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1 :]:
            if e1.a != e2.a:  # non-parallel thresholds cross once
                source_pool.update(
                    _boundary_values((e2.b - e1.b) / (e1.a - e2.a))
                )
        for c in pool:
            source_pool.update(
                _boundary_values((Fraction(c) - e1.b) / e1.a)
            )
    source_values = _candidates(source_pool, 2)
    image_pool = set(pool) | set(source_values)
    for e in edges:
        for v in source_values:
            image_pool.update(_boundary_values(e.a * Fraction(v) + e.b))
    target_values = _candidates(image_pool, 2)
    return source_values, target_values, pair


def domain_size(domains: dict[str, Sequence[Any]]) -> int:
    """Number of candidate rows the full cross product contains."""
    size = 1
    for values in domains.values():
        size *= len(values)
    return size
