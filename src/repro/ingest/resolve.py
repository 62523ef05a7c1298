"""Name resolution for ingested statements, with typed ING diagnostics.

Resolution runs against a :class:`~repro.relational.catalog.Catalog`: the
deployment's star-schema catalog (tables, views, meta-report views) plus
the suite's own definitions accepted so far, in file order. Names resolve
as the engine names them (:meth:`Catalog.scope`): a join qualifies the
columns its two sides both carry as ``relation.column``, and a view shows
its own output names. Every failure is a typed diagnostic, never an
exception — ingestion fails closed per statement, not per suite:

* ING001 (error) — a FROM/JOIN names a relation nobody defines;
* ING002 (error) — a column reference nothing in scope provides;
* ING003 (error) — an unqualified column that a join qualified on several
  FROM relations;
* ING009 (error) — UNION branches disagree on column count.

A column reference first matches a name the FROM scope shows, then a
dotted ``relation.column`` matches that relation's column, as
:func:`~repro.core.containment.canonicalize` resolves it. The suite's own
views live in the same catalog (ingestion's overlay), so a view chain
resolves exactly as the executor will expand it.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.errors import CatalogError
from repro.relational.catalog import Catalog
from repro.relational.query import Query

__all__ = ["resolve_query"]


def resolve_query(
    query: Query, catalog: Catalog, *, location: str
) -> list[Diagnostic]:
    """All resolution diagnostics for ``query`` (head and UNION branches)."""
    out: list[Diagnostic] = []

    def error(code: str, message: str, fix_hint: str) -> None:
        out.append(Diagnostic(code, Severity.ERROR, location, message, fix_hint))

    for block in query.blocks():
        _resolve_block(block, catalog, error)

    # Positional set-operation alignment (ING009): only meaningful when
    # both sides resolved; unresolvable sides already carry their own
    # errors above.
    head, *branches = [_width(catalog, block) for block in query.blocks()]
    for width in branches:
        if head is not None and width is not None and width != head:
            error(
                "ING009",
                f"UNION branches produce {head} vs {width} column(s); "
                "a positional union cannot align them",
                "give every branch the same SELECT list width",
            )
    return out


def _width(catalog: Catalog, block: Query) -> int | None:
    try:
        return len(catalog.output_names(block))
    except CatalogError:
        return None


def _resolve_block(
    block: Query, catalog: Catalog, error: Callable[[str, str, str], None]
) -> None:
    relations = (block.source,) + tuple(j.table for j in block.joins)
    missing = [name for name in relations if name not in catalog]
    for name in missing:
        error(
            "ING001",
            f"unknown relation {name!r}: not a star-schema table, catalog "
            "view, or suite definition",
            "check the spelling, or define the view earlier in the suite",
        )
    if missing:
        return
    try:
        scope = catalog.scope(block)
    except CatalogError:
        # A relation in scope but with an unresolvable definition: the
        # statement that defined it already carries the diagnostics.
        return
    visible = {name for name, _, _ in scope}

    # Aggregate and projection aliases name the block's own outputs;
    # HAVING/ORDER BY may reference them even though no relation provides
    # them (their *inputs* are still checked via the expressions' columns).
    own_outputs = {spec.alias for spec in block.aggregates} | {
        item[0] for item in block.select if not isinstance(item, str)
    }

    for name in sorted(block.columns_used()):
        if name in own_outputs or name in visible:
            continue
        relation, dot, column = name.partition(".")
        if not dot:
            # Not shown under this name: a join qualified it on every side.
            owners = sorted({r for _, r, c in scope if c == name})
            if owners:
                error(
                    "ING003",
                    f"ambiguous column {name!r}: provided by {', '.join(owners)}",
                    "qualify the name as relation.column",
                )
            else:
                error(
                    "ING002",
                    f"unknown column {name!r}: no relation in this statement's "
                    "FROM provides it",
                    f"relations in scope: {', '.join(relations)}",
                )
        elif relation not in relations:
            error(
                "ING002",
                f"qualified name {name!r} references a relation that is not "
                "in this statement's FROM",
                "qualify with a relation the block joins",
            )
        elif column not in catalog.output_names(relation):
            error(
                "ING002",
                f"unknown column {name!r}: {relation!r} does not provide {column!r}",
                f"available: {', '.join(catalog.output_names(relation))}",
            )
