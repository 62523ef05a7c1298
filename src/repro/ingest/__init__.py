"""Multi-dialect SQL ingestion: audit report suites you didn't write.

The rest of the library assumes reports are authored in-process against the
:class:`~repro.relational.query.Query` builder. Real BI estates are not like
that: the interesting privacy questions are about the pile of ``.sql`` files
some other team wrote, in whatever dialect their tooling emits. This package
is the static-analysis front-end that closes the gap:

* :mod:`repro.ingest.dialects` — per-dialect token normalization (ANSI,
  Postgres-flavored, T-SQL-flavored) onto one shared token vocabulary;
* :mod:`repro.ingest.parser` — a statement-level parser extending the base
  SQL grammar with ``CREATE VIEW``, ``WITH`` (CTEs), ``UNION [ALL]``, and
  nested subqueries in FROM, compiled to the ordinary Query AST (CTEs and
  FROM-subqueries become synthetic views, so every downstream pass sees
  plain view chains);
* :mod:`repro.ingest.resolve` — name resolution against the star schema
  plus the suite's own definitions, with typed ING diagnostics;
* :mod:`repro.ingest.compile` — the suite driver: parse → resolve →
  static lineage → :class:`~repro.reports.definition.ReportDefinition`\\ s
  auditable by ``repro lint`` and ``repro verify``;
* :mod:`repro.ingest.render` — a SQL renderer whose output reparses to an
  equal query (the round-trip property the tests enforce).

Everything the grammar cannot model fails *closed*: an unsupported
construct, unknown name, or ambiguous reference yields a typed ING
diagnostic and excludes the statement from the compiled catalog — it never
silently narrows to something checkable.
"""

from repro.ingest.compile import (
    IngestedStatement,
    IngestResult,
    emit_deployment,
    ingest_suite,
)
from repro.ingest.dialects import DIALECTS, Dialect
from repro.ingest.parser import SuiteParser, parse_suite_text
from repro.ingest.render import render_expr, render_query
from repro.ingest.resolve import resolve_query

__all__ = [
    "DIALECTS",
    "Dialect",
    "IngestResult",
    "IngestedStatement",
    "SuiteParser",
    "emit_deployment",
    "ingest_suite",
    "parse_suite_text",
    "render_expr",
    "render_query",
    "resolve_query",
]
