"""Scalar and boolean expression AST evaluated over row dictionaries.

Expressions appear in selection predicates, computed projections, PLA
intensional conditions, and VPD rewrite predicates. The AST is deliberately
small and closed so the containment checker (:mod:`repro.core.containment`)
can reason about predicate implication.

Boolean evaluation follows SQL's **three-valued logic**: comparisons with a
NULL operand yield UNKNOWN (Python ``None``), and AND/OR/NOT follow the
Kleene tables. Filters keep a row only when the predicate is definitely
True, so UNKNOWN excludes — the safe polarity for privacy conditions:
``NOT (disease = 'HIV')`` does *not* disclose a row whose disease is
unrecorded.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import QueryError

__all__ = [
    "Expr",
    "Col",
    "Lit",
    "Comparison",
    "And",
    "Or",
    "Not",
    "InList",
    "IsNull",
    "Arith",
    "Case",
    "col",
    "lit",
    "conjuncts",
    "disjuncts",
]


class Expr:
    """Base class for all expressions."""

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    def evaluate_batch(self, cols: Mapping[str, Sequence[Any]], n: int) -> list[Any]:
        """Evaluate over ``n`` rows stored column-wise; returns ``n`` values.

        ``cols`` maps column name → column vector (all of length ``n``).
        The built-in nodes override this with vectorized loops; this default
        reconstructs row dicts so third-party :class:`Expr` subclasses keep
        working on the vector path without writing a batch kernel.
        """
        names = list(cols)
        vectors = [cols[name] for name in names]
        if not vectors:
            return [self.evaluate({}) for _ in range(n)]
        return [
            self.evaluate(dict(zip(names, values))) for values in zip(*vectors)
        ]

    def columns(self) -> frozenset[str]:
        """Names of all columns referenced by this expression."""
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, str]) -> "Expr":
        """A copy with column names rewritten per ``mapping`` (old→new)."""
        raise NotImplementedError

    # Boolean combinators, so predicates compose fluently:
    def __and__(self, other: "Expr") -> "And":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class Col(Expr):
    """Reference to a column by name."""

    name: str

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        try:
            return row[self.name]
        except KeyError:
            raise QueryError(f"row has no column {self.name!r}") from None

    def evaluate_batch(self, cols: Mapping[str, Sequence[Any]], n: int) -> list[Any]:
        try:
            return cols[self.name]  # type: ignore[return-value]  # callers never mutate
        except KeyError:
            raise QueryError(f"row has no column {self.name!r}") from None

    def columns(self) -> frozenset[str]:
        return frozenset([self.name])

    def substitute(self, mapping: Mapping[str, str]) -> "Col":
        return Col(mapping.get(self.name, self.name))

    # Comparison builders so ``col("age") >= lit(18)`` reads naturally.
    def __eq__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison("=", self, _as_expr(other))

    def __ne__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison("!=", self, _as_expr(other))

    def __lt__(self, other: object) -> "Comparison":
        return Comparison("<", self, _as_expr(other))

    def __le__(self, other: object) -> "Comparison":
        return Comparison("<=", self, _as_expr(other))

    def __gt__(self, other: object) -> "Comparison":
        return Comparison(">", self, _as_expr(other))

    def __ge__(self, other: object) -> "Comparison":
        return Comparison(">=", self, _as_expr(other))

    def __hash__(self) -> int:
        return hash(("Col", self.name))

    def is_in(self, values: Any) -> "InList":
        return InList(self, tuple(values))

    def is_null(self) -> "IsNull":
        return IsNull(self)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Lit(Expr):
    """A literal constant."""

    value: Any

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        return self.value

    def evaluate_batch(self, cols: Mapping[str, Sequence[Any]], n: int) -> list[Any]:
        return [self.value] * n

    def columns(self) -> frozenset[str]:
        return frozenset()

    def substitute(self, mapping: Mapping[str, str]) -> "Lit":
        return self

    def __str__(self) -> str:
        return repr(self.value)


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

# Batch variants with the comparison inlined: one bytecode COMPARE_OP per
# element is measurably cheaper than a call through the operator module
# when the vector is a million rows long.
_BATCH_COMPARATORS: dict[str, Callable[[Sequence[Any], Any], list[Any]]] = {
    "=": lambda vec, c: [None if v is None else v == c for v in vec],
    "!=": lambda vec, c: [None if v is None else v != c for v in vec],
    "<": lambda vec, c: [None if v is None else v < c for v in vec],
    "<=": lambda vec, c: [None if v is None else v <= c for v in vec],
    ">": lambda vec, c: [None if v is None else v > c for v in vec],
    ">=": lambda vec, c: [None if v is None else v >= c for v in vec],
}

NEGATED_OP = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
FLIPPED_OP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _ast_eq(a: Any, b: Any) -> bool:
    """Structural equality of sub-expressions.

    ``Col.__eq__`` is overloaded as the DSL's comparison builder (it returns
    a Comparison, which is truthy), so composite nodes must NOT compare
    children with ``==`` — they use this helper, and define their own
    ``__eq__`` in terms of it.
    """
    if isinstance(a, Col) or isinstance(b, Col):
        return isinstance(a, Col) and isinstance(b, Col) and a.name == b.name
    return a == b


class _StructuralEq:
    """Mixin: field-wise structural equality + a stable hash.

    Used by every composite expression node. ``__eq__`` compares the
    dataclass fields via :func:`_ast_eq`; the hash is derived from the
    node's rendering, which is injective enough for AST workloads.
    """

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        from dataclasses import fields

        for spec in fields(self):  # type: ignore[arg-type]
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, tuple) and isinstance(theirs, tuple):
                if len(mine) != len(theirs) or not all(
                    _ast_eq(x, y) for x, y in zip(mine, theirs)
                ):
                    return False
            elif not _ast_eq(mine, theirs):
                return False
        return True

    def __hash__(self) -> int:
        return hash((type(self).__name__, str(self)))


@dataclass(frozen=True, eq=False)
class Comparison(_StructuralEq, Expr):
    """A binary comparison; NULL on either side yields UNKNOWN (``None``)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, row: Mapping[str, Any]) -> bool | None:
        lhs = self.left.evaluate(row)
        rhs = self.right.evaluate(row)
        if lhs is None or rhs is None:
            return None
        try:
            return _COMPARATORS[self.op](lhs, rhs)
        except TypeError as exc:
            raise QueryError(
                f"cannot compare {lhs!r} {self.op} {rhs!r}"
            ) from exc

    def evaluate_batch(
        self, cols: Mapping[str, Sequence[Any]], n: int
    ) -> list[Any]:
        op = _COMPARATORS[self.op]
        # col-op-lit is the overwhelmingly common shape; avoid materializing
        # a constant vector for the literal side.
        if isinstance(self.right, Lit):
            rhs = self.right.value
            lhs_vec = self.left.evaluate_batch(cols, n)
            if rhs is None:
                return [None] * n
            try:
                return _BATCH_COMPARATORS[self.op](lhs_vec, rhs)
            except TypeError:
                for v in lhs_vec:
                    if v is None:
                        continue
                    try:
                        op(v, rhs)
                    except TypeError as exc:
                        raise QueryError(
                            f"cannot compare {v!r} {self.op} {rhs!r}"
                        ) from exc
        lhs_vec = self.left.evaluate_batch(cols, n)
        rhs_vec = self.right.evaluate_batch(cols, n)
        try:
            return [
                None if (a is None or b is None) else op(a, b)
                for a, b in zip(lhs_vec, rhs_vec)
            ]
        except TypeError:
            for a, b in zip(lhs_vec, rhs_vec):
                if a is None or b is None:
                    continue
                try:
                    op(a, b)
                except TypeError as exc:
                    raise QueryError(
                        f"cannot compare {a!r} {self.op} {b!r}"
                    ) from exc
            raise  # pragma: no cover - unreachable: the culprit re-raises

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def substitute(self, mapping: Mapping[str, str]) -> "Comparison":
        return Comparison(
            self.op, self.left.substitute(mapping), self.right.substitute(mapping)
        )

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


def _kleene(value: Any) -> bool | None:
    """Normalize an evaluated operand to Kleene True/False/UNKNOWN."""
    if value is None:
        return None
    return bool(value)


@dataclass(frozen=True, eq=False)
class And(_StructuralEq, Expr):
    left: Expr
    right: Expr

    def evaluate(self, row: Mapping[str, Any]) -> bool | None:
        lhs = _kleene(self.left.evaluate(row))
        rhs = _kleene(self.right.evaluate(row))
        if lhs is False or rhs is False:
            return False
        if lhs is None or rhs is None:
            return None
        return True

    def evaluate_batch(
        self, cols: Mapping[str, Sequence[Any]], n: int
    ) -> list[Any]:
        lhs_vec = self.left.evaluate_batch(cols, n)
        rhs_vec = self.right.evaluate_batch(cols, n)
        out: list[Any] = []
        append = out.append
        for a, b in zip(lhs_vec, rhs_vec):
            a = _kleene(a)
            b = _kleene(b)
            if a is False or b is False:
                append(False)
            elif a is None or b is None:
                append(None)
            else:
                append(True)
        return out

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def substitute(self, mapping: Mapping[str, str]) -> "And":
        return And(self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True, eq=False)
class Or(_StructuralEq, Expr):
    left: Expr
    right: Expr

    def evaluate(self, row: Mapping[str, Any]) -> bool | None:
        lhs = _kleene(self.left.evaluate(row))
        rhs = _kleene(self.right.evaluate(row))
        if lhs is True or rhs is True:
            return True
        if lhs is None or rhs is None:
            return None
        return False

    def evaluate_batch(
        self, cols: Mapping[str, Sequence[Any]], n: int
    ) -> list[Any]:
        lhs_vec = self.left.evaluate_batch(cols, n)
        rhs_vec = self.right.evaluate_batch(cols, n)
        out: list[Any] = []
        append = out.append
        for a, b in zip(lhs_vec, rhs_vec):
            a = _kleene(a)
            b = _kleene(b)
            if a is True or b is True:
                append(True)
            elif a is None or b is None:
                append(None)
            else:
                append(False)
        return out

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def substitute(self, mapping: Mapping[str, str]) -> "Or":
        return Or(self.left.substitute(mapping), self.right.substitute(mapping))

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True, eq=False)
class Not(_StructuralEq, Expr):
    inner: Expr

    def evaluate(self, row: Mapping[str, Any]) -> bool | None:
        value = _kleene(self.inner.evaluate(row))
        if value is None:
            return None
        return not value

    def evaluate_batch(
        self, cols: Mapping[str, Sequence[Any]], n: int
    ) -> list[Any]:
        return [
            None if v is None else not v
            for v in map(_kleene, self.inner.evaluate_batch(cols, n))
        ]

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def substitute(self, mapping: Mapping[str, str]) -> "Not":
        return Not(self.inner.substitute(mapping))

    def __str__(self) -> str:
        return f"NOT ({self.inner})"


@dataclass(frozen=True, eq=False)
class InList(_StructuralEq, Expr):
    """``expr IN (v1, v2, ...)`` over literal values."""

    target: Expr
    values: tuple[Any, ...]

    def evaluate(self, row: Mapping[str, Any]) -> bool | None:
        value = self.target.evaluate(row)
        if value is None:
            return None  # SQL: NULL IN (...) is UNKNOWN
        return value in self.values

    def evaluate_batch(
        self, cols: Mapping[str, Sequence[Any]], n: int
    ) -> list[Any]:
        vec = self.target.evaluate_batch(cols, n)
        try:
            members: Any = frozenset(self.values)
            return [None if v is None else v in members for v in vec]
        except TypeError:  # unhashable literal or value: linear membership
            return [None if v is None else v in self.values for v in vec]

    def columns(self) -> frozenset[str]:
        return self.target.columns()

    def substitute(self, mapping: Mapping[str, str]) -> "InList":
        return InList(self.target.substitute(mapping), self.values)

    def __str__(self) -> str:
        return f"{self.target} IN {self.values!r}"


@dataclass(frozen=True, eq=False)
class IsNull(_StructuralEq, Expr):
    target: Expr
    negated: bool = False

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        is_null = self.target.evaluate(row) is None
        return not is_null if self.negated else is_null

    def evaluate_batch(
        self, cols: Mapping[str, Sequence[Any]], n: int
    ) -> list[Any]:
        vec = self.target.evaluate_batch(cols, n)
        if self.negated:
            return [v is not None for v in vec]
        return [v is None for v in vec]

    def columns(self) -> frozenset[str]:
        return self.target.columns()

    def substitute(self, mapping: Mapping[str, str]) -> "IsNull":
        return IsNull(self.target.substitute(mapping), self.negated)

    def __str__(self) -> str:
        return f"{self.target} IS {'NOT ' if self.negated else ''}NULL"


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


@dataclass(frozen=True, eq=False)
class Arith(_StructuralEq, Expr):
    """Binary arithmetic; NULL-propagating."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise QueryError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        lhs = self.left.evaluate(row)
        rhs = self.right.evaluate(row)
        if lhs is None or rhs is None:
            return None
        if self.op == "/" and rhs == 0:
            return None
        return _ARITH_OPS[self.op](lhs, rhs)

    def evaluate_batch(
        self, cols: Mapping[str, Sequence[Any]], n: int
    ) -> list[Any]:
        op = _ARITH_OPS[self.op]
        guard_zero = self.op == "/"
        lhs_vec = self.left.evaluate_batch(cols, n)
        rhs_vec = self.right.evaluate_batch(cols, n)
        out: list[Any] = []
        append = out.append
        for a, b in zip(lhs_vec, rhs_vec):
            if a is None or b is None or (guard_zero and b == 0):
                append(None)
            else:
                append(op(a, b))
        return out

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def substitute(self, mapping: Mapping[str, str]) -> "Arith":
        return Arith(
            self.op, self.left.substitute(mapping), self.right.substitute(mapping)
        )

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, eq=False)
class Case(_StructuralEq, Expr):
    """Searched ``CASE WHEN ... THEN ... [ELSE ...] END``.

    ``whens`` and ``thens`` are parallel tuples (kept flat rather than as
    pairs so :class:`_StructuralEq` compares each sub-expression through
    ``_ast_eq``). The first WHEN whose condition is *definitely* True under
    Kleene logic selects its THEN; UNKNOWN conditions fall through, and with
    no match the result is ``else_`` (NULL when absent) — exactly SQL's
    searched-CASE semantics. The simple form ``CASE x WHEN v ...`` is
    desugared to this node by the parser (``x = v`` conditions).
    """

    whens: tuple[Expr, ...]
    thens: tuple[Expr, ...]
    else_: Expr | None = None

    def __post_init__(self) -> None:
        if not self.whens or len(self.whens) != len(self.thens):
            raise QueryError(
                "CASE requires at least one WHEN and parallel WHEN/THEN lists"
            )

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        for when, then in zip(self.whens, self.thens):
            if _kleene(when.evaluate(row)) is True:
                return then.evaluate(row)
        if self.else_ is not None:
            return self.else_.evaluate(row)
        return None

    def evaluate_batch(
        self, cols: Mapping[str, Sequence[Any]], n: int
    ) -> list[Any]:
        # Eager arm evaluation, like And/Or batch kernels: every WHEN and
        # THEN vector is computed once, then each row picks its first
        # definitely-True arm.
        when_vecs = [w.evaluate_batch(cols, n) for w in self.whens]
        then_vecs = [t.evaluate_batch(cols, n) for t in self.thens]
        else_vec = (
            self.else_.evaluate_batch(cols, n)
            if self.else_ is not None
            else [None] * n
        )
        out: list[Any] = []
        append = out.append
        for i in range(n):
            for when_vec, then_vec in zip(when_vecs, then_vecs):
                if _kleene(when_vec[i]) is True:
                    append(then_vec[i])
                    break
            else:
                append(else_vec[i])
        return out

    def columns(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for expr in self.whens + self.thens:
            out |= expr.columns()
        if self.else_ is not None:
            out |= self.else_.columns()
        return out

    def substitute(self, mapping: Mapping[str, str]) -> "Case":
        return Case(
            tuple(w.substitute(mapping) for w in self.whens),
            tuple(t.substitute(mapping) for t in self.thens),
            None if self.else_ is None else self.else_.substitute(mapping),
        )

    def __str__(self) -> str:
        arms = " ".join(
            f"WHEN {w} THEN {t}" for w, t in zip(self.whens, self.thens)
        )
        tail = f" ELSE {self.else_}" if self.else_ is not None else ""
        return f"CASE {arms}{tail} END"


def col(name: str) -> Col:
    """Shorthand for :class:`Col`."""
    return Col(name)


def lit(value: Any) -> Lit:
    """Shorthand for :class:`Lit`."""
    return Lit(value)


def _as_expr(value: object) -> Expr:
    return value if isinstance(value, Expr) else Lit(value)


def conjuncts(expr: Expr | None) -> Iterator[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return
    if isinstance(expr, And):
        yield from conjuncts(expr.left)
        yield from conjuncts(expr.right)
    else:
        yield expr


def disjuncts(expr: Expr | None) -> Iterator[Expr]:
    """Flatten a predicate into its top-level OR-ed disjuncts."""
    if expr is None:
        return
    if isinstance(expr, Or):
        yield from disjuncts(expr.left)
        yield from disjuncts(expr.right)
    else:
        yield expr
