"""An obligation is one thing at every level: a rewrite of one base table,
applied wherever a query reads that table.

A row obligation is a predicate over the table's columns. VPD rules,
warehouse ``deny_row`` rules, cube denied slices and report-level
``suppress_row`` conditions all run the query over
:meth:`~repro.relational.Catalog.guarded`, so the filter runs inside view
chains and UNION branches, before any join, grouping, DISTINCT, ORDER BY or
LIMIT. A cell obligation (report ``suppress_cell``, a ``suppress``
anonymization, a VPD column mask) replaces one column's value in the same
guarded table, so every WHERE, grouping, DISTINCT and rename reads the
blanked cell. Each level fails closed with its own typed error on a
condition over a derived or aggregated column, on one over two base tables,
and on a guarded table read on the null-extended side of an outer join.
The properties check each point against the same query run by the row
engine over a catalog whose guarded table was filtered, or blanked, by a
plain loop.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    PLA,
    AggregationThreshold,
    AnonymizationRequirement,
    ComplianceChecker,
    IntensionalCondition,
    MetaReport,
    MetaReportSet,
    PlaLevel,
    PlaRegistry,
    ReportLevelEnforcer,
)
from repro.core.compliance import ComplianceVerdict, RuntimeObligation
from repro.errors import (
    CatalogError,
    ComplianceError,
    EnforcementError,
    QueryError,
)
from repro.policy import (
    ColumnMask,
    IntensionalAssociation,
    SubjectRegistry,
    VPDPolicy,
    VPDRule,
)
from repro.relational import (
    Catalog,
    ExecutionConfig,
    PlanCache,
    Query,
    Table,
    View,
    execute,
    execute_row,
    make_schema,
    parse_expression,
    parse_query,
)
from repro.relational.algebra import AggSpec
from repro.relational.catalog import Guard, Guards
from repro.relational.execconfig import set_default_config
from repro.relational.expressions import Not
from repro.relational.types import ColumnType
from repro.reports import DeliveryService, ReportCatalog, ReportDefinition
from repro.simulation import build_scenario
from repro.warehouse import (
    ColumnAnnotation,
    Cube,
    CubeAuthorizationRule,
    CubeAuthorizer,
    PrivacyMetadataRegistry,
    StarSchema,
    TableAnnotation,
    WarehouseEnforcer,
    build_dimension,
    build_fact,
)
from tests.test_engine_differential import (
    D_SCHEMA,
    T_SCHEMA,
    _predicates,
    d_rows_strategy,
    query_trees,
    t_rows_strategy,
)

ENGINES = pytest.mark.parametrize("mode", ["row", "columnar"])
NOT_HIV = parse_expression("disease != 'HIV'")


@contextmanager
def engine(mode: str):
    """Run every default-config execution on ``mode``, uncached."""
    previous = set_default_config(ExecutionConfig(mode=mode, use_plan_cache=False))
    try:
        yield
    finally:
        set_default_config(previous)


# ---------------------------------------------------------------------------
# The name-resolution fixture: table ``visits``, meta-reports over it
# ---------------------------------------------------------------------------

VISITS = [
    ("Alice", "north", "HIV", 20),
    ("Bob", "south", "flu", 10),
    ("Carl", "east", "asthma", 30),
    ("Dana", "west", "HIV", 5),
]


def visits_catalog() -> Catalog:
    catalog = Catalog()
    schema = make_schema(
        ("patient", ColumnType.STRING),
        ("region", ColumnType.STRING),
        ("disease", ColumnType.STRING),
        ("cost", ColumnType.INT),
    )
    catalog.add_table(Table.from_rows("visits", schema, VISITS, provider="clinic"))
    kin = make_schema(("patient", ColumnType.STRING), ("kin", ColumnType.STRING))
    catalog.add_table(
        Table.from_rows("kin", kin, [("Bob", "Eve"), ("Carl", "Fay")], provider="town")
    )
    return catalog


def analyst():
    """User ``ann`` (role ``analyst``) for purpose ``care``."""
    subjects = SubjectRegistry()
    subjects.purposes.declare("care")
    subjects.add_role("analyst")
    subjects.add_user("ann", "analyst")
    return subjects.context("ann", "care")


def service(mr_sql: str, annotations: tuple, *reports: tuple[str, str]):
    """A delivery service over ``visits`` with one approved meta-report
    ``mr``; ``reports`` are ``(name, sql)`` pairs for analyst ``ann``."""
    catalog = visits_catalog()
    registry = PlaRegistry()
    registry.add(PLA("pla_mr", "clinic", PlaLevel.METAREPORT, "mr", annotations))
    metareport = MetaReport("mr", parse_query(mr_sql))
    metareport.attach_pla(registry.approve("pla_mr"))
    metareports = MetaReportSet()
    metareports.add(metareport)
    metareports.register_views(catalog)
    subjects = SubjectRegistry()
    subjects.purposes.declare("care")
    subjects.add_role("analyst")
    subjects.add_user("ann", "analyst")
    definitions = ReportCatalog()
    for name, sql in reports:
        definitions.add(
            ReportDefinition(
                name=name, title=name, query=parse_query(sql),
                audience=frozenset({"analyst"}), purpose="care",
            )
        )
    return DeliveryService(
        reports=definitions,
        checker=ComplianceChecker(catalog=catalog, metareports=metareports),
        enforcer=ReportLevelEnforcer(catalog=catalog),
        subjects=subjects,
        resilience=None,
    )


def rows_of(table: str, predicate) -> Guards:
    """The guard set that keeps ``table``'s rows ``predicate`` is true on."""
    return Guards({table: Guard(predicate)})


def hide_hiv_rows() -> tuple:
    return (IntensionalCondition("disease", NOT_HIV, "suppress_row"),)


def blank_region() -> tuple:
    return (IntensionalCondition("region", NOT_HIV, "suppress_cell"),)


# ---------------------------------------------------------------------------
# The probes
# ---------------------------------------------------------------------------


class TestProbes:
    @ENGINES
    def test_warehouse_deny_row_rule_holds_for_columns_not_shown(self, mode):
        """The ``hiv-hidden`` rule of ``examples/warehouse_level_plas.py``
        guards ``dwh_prescriptions`` though neither query shows ``disease``."""
        scenario = build_scenario()
        metadata = PrivacyMetadataRegistry()
        metadata.annotate_column(
            ColumnAnnotation(
                "dwh_prescriptions", "patient", sensitivity="identifying",
                allowed_roles=frozenset({"health_director"}),
            )
        )
        metadata.annotate_table(
            TableAnnotation(
                "dwh_prescriptions",
                min_aggregation=scenario.config.aggregation_threshold,
                allowed_purposes=frozenset({"care", "admin"}),
            )
        )
        metadata.add_row_rule(
            IntensionalAssociation(
                "hiv-hidden", "dwh_prescriptions",
                parse_expression("disease = 'HIV'"), {"deny_row": True},
            )
        )
        enforcer = WarehouseEnforcer(
            catalog=scenario.bi_catalog,
            metadata=metadata,
            config=ExecutionConfig(mode=mode, use_plan_cache=False),
        )
        ann = scenario.subjects.context("ann", "care/quality")
        base = scenario.bi_catalog.table("dwh_prescriptions")
        hiv = {
            prov.lineage
            for row, prov in zip(base.rows, base.provenance)
            if row[base.schema.index_of("disease")] == "HIV"
        }
        assert len(hiv) == 36

        table, suppressed = enforcer.run(
            parse_query("SELECT drug, cost FROM dwh_prescriptions"), ann
        )
        assert (len(table), suppressed) == (964, 0)
        assert not {p.lineage for p in table.provenance} & hiv

        table, _ = enforcer.run(
            parse_query(
                "SELECT drug, COUNT(*) AS n FROM dwh_prescriptions "
                "WHERE disease = 'HIV' GROUP BY drug"
            ),
            ann,
        )
        assert table.rows == []

    @ENGINES
    def test_report_suppress_row_runs_before_limit(self, mode):
        svc = service(
            "SELECT patient, region, disease, cost FROM visits",
            hide_hiv_rows(),
            ("top2", "SELECT region, cost FROM mr ORDER BY cost DESC LIMIT 2"),
        )
        with engine(mode):
            instance = svc.deliver("top2", user="ann", purpose="care")
        assert instance.table.rows == [("east", 30), ("south", 10)]
        # Rows an obligation keeps away from the engine are not counted.
        assert instance.suppressed_rows == 0

    @ENGINES
    def test_vpd_answers_over_a_view_that_hides_the_predicate_column(self, mode):
        catalog = visits_catalog()
        catalog.add_view(View("v", parse_query("SELECT patient, region FROM visits")))
        policy = VPDPolicy()
        policy.add_rule(VPDRule("visits", NOT_HIV))
        subjects = SubjectRegistry()
        subjects.purposes.declare("care")
        subjects.add_role("analyst")
        subjects.add_user("ann", "analyst")
        with engine(mode):
            out = policy.run(
                parse_query("SELECT region FROM v"), catalog,
                subjects.context("ann", "care"),
            )
        assert out.rows == [("south",), ("east",)]

    @pytest.mark.parametrize(
        "mr_sql, report_sql, want",
        [
            (
                "SELECT patient, region, disease FROM visits",
                "SELECT DISTINCT disease, region FROM mr",
                {("HIV", None), ("flu", "south"), ("asthma", "east")},
            ),
            (
                "SELECT patient, region FROM visits",
                "SELECT DISTINCT region FROM mr",
                {(None,), ("south",), ("east",)},
            ),
        ],
        ids=["shown", "hidden"],
    )
    @ENGINES
    def test_distinct_reads_the_blanked_cells(self, mode, mr_sql, report_sql, want):
        """DISTINCT reads the blanked cells, so the two HIV patients' regions
        come back as one NULL, not as one row per hidden value."""
        svc = service(mr_sql, blank_region(), ("r", report_sql))
        with engine(mode):
            rows = svc.deliver("r", user="ann", purpose="care").table.rows
        assert len(rows) == len(want) and set(rows) == want

    @ENGINES
    def test_an_obligation_the_enforcer_cannot_apply_is_a_logged_refusal(self, mode):
        """A cell rule whose condition reads another base table than its
        attribute fails closed."""
        svc = service(
            "SELECT visits.patient, region, kin FROM visits JOIN kin ON patient = patient",
            (IntensionalCondition("region", parse_expression("kin != 'Eve'"), "suppress_cell"),),
            ("r", "SELECT region FROM mr"),
        )
        with engine(mode), pytest.raises(ComplianceError, match="reads 2 base tables"):
            svc.deliver("r", user="ann", purpose="care")
        (refusal,) = svc.refusals
        assert "suppress_cell [attribute 'region' shown only where" in refusal.reason

    @ENGINES
    def test_a_delivery_over_a_hiding_view_runs_no_ddl(self, mode):
        """``mr`` hides the condition column ``disease``; the rule guards
        ``visits`` itself, so no view is added to reach it."""
        svc = service(
            "SELECT patient, region FROM visits", blank_region(),
            ("r", "SELECT * FROM mr"),
        )
        catalog = svc.enforcer.catalog
        ddl_version = catalog.ddl_version
        with engine(mode):
            table = svc.deliver("r", user="ann", purpose="care").table
        assert table.rows == [
            ("Alice", None), ("Bob", "south"), ("Carl", "east"), ("Dana", None),
        ]
        assert catalog.ddl_version == ddl_version
        assert catalog.view_names() == ("mr",)


class TestCellProbes:
    """A WHERE clause reads the blanked cell, so a filter on a hidden value
    finds no row. The first two run the ``mr`` fixture of
    ``tests/test_name_resolution.py`` for the health director."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT patient FROM mr WHERE disease = 'HIV'",
            "SELECT patient, cost FROM mr WHERE region = 'north'",
        ],
        ids=["suppress_cell", "suppress"],
    )
    @ENGINES
    def test_a_filter_on_a_blanked_value_finds_no_row(self, mode, sql):
        from tests.test_name_resolution import MR_PLA, deployment, delivery, report

        catalog, checker = deployment(
            ("mr", "SELECT patient, region, disease, cost FROM visits", MR_PLA)
        )
        svc = delivery(catalog, checker, report(sql, "health_director", "w"))
        with engine(mode):
            assert svc.deliver("w", user="dora", purpose="care").table.rows == []

    @pytest.mark.parametrize(
        "extra, want",
        [
            ((), [("Alice", None), ("Bob", None), ("Carl", "east"), ("Dana", None)]),
            ((AnonymizationRequirement("region", "suppress"),), [
                ("Alice", None), ("Bob", None), ("Carl", None), ("Dana", None),
            ]),
        ],
        ids=["two-conditions", "and-suppress"],
    )
    def test_cell_rules_on_one_column_show_it_only_where_each_does(self, extra, want):
        rules = (
            *blank_region(),
            IntensionalCondition("region", parse_expression("cost > 10"), "suppress_cell"),
            *extra,
        )
        svc = service(
            "SELECT patient, region, disease, cost FROM visits", rules,
            ("r", "SELECT patient, region FROM mr"),
        )
        assert svc.deliver("r", user="ann", purpose="care").table.rows == want

    @ENGINES
    def test_a_vpd_mask_is_read_by_the_where_clause(self, mode):
        policy = VPDPolicy()
        policy.add_rule(VPDRule("visits", masks=(ColumnMask("disease"),)))
        with engine(mode):
            out = policy.run(
                parse_query("SELECT patient, disease FROM visits WHERE disease = 'HIV'"),
                visits_catalog(), analyst(),
            )
        assert out.rows == []


class TestFloors:
    """A floor of 1 keeps ``COUNT(*)`` over an empty table, a row no base row
    feeds, at the report, warehouse and cube points; a floor of 2 drops it."""

    COUNT = "SELECT COUNT(*) AS cnt FROM t"

    @staticmethod
    def empty_t() -> Catalog:
        catalog = Catalog()
        catalog.add_table(Table.from_rows("t", T_SCHEMA, [], provider="p"))
        return catalog

    @pytest.mark.parametrize("floor, want", [(1, ([(0,)], 0)), (2, ([], 1))])
    def test_report(self, floor, want):
        verdict = ComplianceVerdict(
            report="p", version=1, compliant=True, covering_metareport=None,
            obligations=(
                RuntimeObligation("aggregation_threshold", AggregationThreshold(floor)),
            ),
        )
        report = ReportDefinition(
            name="p", title="p", query=parse_query(self.COUNT),
            audience=frozenset({"analyst"}), purpose="care",
        )
        instance = ReportLevelEnforcer(self.empty_t()).generate(report, analyst(), verdict)
        assert (instance.table.rows, instance.suppressed_rows) == want

    @pytest.mark.parametrize("floor, want", [(1, ([(0,)], 0)), (2, ([], 1))])
    def test_warehouse(self, floor, want):
        metadata = PrivacyMetadataRegistry()
        metadata.annotate_table(TableAnnotation("t", min_aggregation=floor))
        enforcer = WarehouseEnforcer(catalog=self.empty_t(), metadata=metadata)
        table, suppressed = enforcer.run(parse_query(self.COUNT), analyst())
        assert (table.rows, suppressed) == want

    @pytest.mark.parametrize("floor, want", [(1, ([(0,)], 0)), (2, ([], 1))])
    def test_cube(self, floor, want):
        schema = make_schema(("drug", ColumnType.STRING), ("cost", ColumnType.INT))
        wide = Table.from_rows("wide", schema, [("DR", 10)], provider="hospital")
        dim = build_dimension("drug", wide, ["drug"])
        fact = build_fact("rx", wide, [(dim, {"drug": "drug"})], measures=["cost"])
        cube = Cube(StarSchema("rx", fact, [dim]), Catalog())
        authorizer = CubeAuthorizer(cube)
        # The denied slice guards away every fact row.
        authorizer.add_rule(CubeAuthorizationRule(
            role="analyst", max_detail={}, min_cell_contributors=floor,
            denied_slices=(parse_expression("cost > 0"),),
        ))
        table, suppressed = authorizer.evaluate(
            analyst(), cube.base_query([], [AggSpec("count", None, "cnt")])
        )
        assert (table.rows, suppressed) == want


# ---------------------------------------------------------------------------
# Restatement and the typed refusals
# ---------------------------------------------------------------------------


class TestRestate:
    def test_traces_renames_and_hidden_from_scope_columns(self):
        catalog = visits_catalog()
        catalog.add_view(
            View("v", parse_query("SELECT patient AS who, region FROM visits"))
        )
        over = parse_query("SELECT who FROM v")
        table, predicate = catalog.restate(parse_expression("who != 'Bob'"), over)
        assert (table, predicate) == ("visits", parse_expression("patient != 'Bob'"))
        # ``region`` is hidden by the query but in its FROM scope.
        assert catalog.restate(parse_expression("region = 'east'"), over) == (
            "visits", parse_expression("region = 'east'"),
        )

    @pytest.mark.parametrize(
        "sql, condition",
        [
            ("SELECT patient, cost + 1 AS c FROM visits", "c > 10"),
            ("SELECT region, SUM(cost) AS c FROM visits GROUP BY region", "c > 10"),
            ("SELECT region, MAX(cost) AS c FROM visits GROUP BY region", "c > 10"),
            ("SELECT visits.patient, kin FROM visits JOIN kin ON patient = patient",
             "kin = 'Eve' AND region = 'south'"),
            ("SELECT patient FROM visits", "nowhere = 1"),
        ],
        ids=["derived", "aggregated", "min-max", "two-tables", "unknown"],
    )
    def test_refuses_what_is_not_a_condition_over_one_base_table(self, sql, condition):
        with pytest.raises(CatalogError):
            visits_catalog().restate(parse_expression(condition), parse_query(sql))

    def test_report_level_refusals_name_the_clause(self):
        svc = service(
            "SELECT patient, region, cost + 1 AS c FROM visits",
            (IntensionalCondition("region", parse_expression("c > 10"), "suppress_row"),),
            ("r", "SELECT region, COUNT(*) AS n FROM mr GROUP BY region"),
        )
        with pytest.raises(ComplianceError, match="not a base column copy"):
            svc.deliver("r", user="ann", purpose="care")
        (refusal,) = svc.refusals
        assert "suppress_row" in refusal.reason and "(c > 10)" in refusal.reason

    def test_report_guard_on_the_null_extended_side_is_refused(self):
        svc = service(
            "SELECT patient, region, disease FROM visits",
            hide_hiv_rows(),
            ("r", "SELECT kin FROM kin LEFT JOIN mr ON patient = patient"),
        )
        verdict = ComplianceVerdict(
            report="r", version=1, compliant=True, covering_metareport="mr",
            obligations=(RuntimeObligation("intensional", hide_hiv_rows()[0]),),
        )
        with pytest.raises(EnforcementError, match="null-extended"):
            svc.enforcer.generate(
                svc.reports.current("r"), svc.subjects.context("ann", "care"), verdict
            )

    def test_vpd_guard_inside_a_view_on_the_null_extended_side_is_refused(self):
        catalog = visits_catalog()
        catalog.add_view(
            View("v", parse_query("SELECT kin FROM kin LEFT JOIN visits ON patient = patient"))
        )
        policy = VPDPolicy()
        policy.add_rule(VPDRule("visits", NOT_HIV))
        subjects = SubjectRegistry()
        subjects.purposes.declare("care")
        subjects.add_role("analyst")
        subjects.add_user("ann", "analyst")
        with pytest.raises(QueryError, match="null-extended"):
            policy.run(parse_query("SELECT kin FROM v"), catalog, subjects.context("ann", "care"))

    def test_warehouse_rule_over_a_derived_column_is_refused(self):
        catalog = visits_catalog()
        catalog.add_view(View("dear", parse_query("SELECT patient, cost * 2 AS c FROM visits")))
        metadata = PrivacyMetadataRegistry()
        metadata.add_row_rule(
            IntensionalAssociation("dear", "dear", parse_expression("c > 30"), {"deny_row": True})
        )
        subjects = SubjectRegistry()
        subjects.purposes.declare("care")
        subjects.add_role("analyst")
        subjects.add_user("ann", "analyst")
        enforcer = WarehouseEnforcer(catalog=catalog, metadata=metadata)
        with pytest.raises(ComplianceError, match="row rule cannot guard"):
            enforcer.run(parse_query("SELECT region FROM visits"), subjects.context("ann", "care"))


# ---------------------------------------------------------------------------
# The property: each enforcement point equals the query over base tables
# that were filtered first
# ---------------------------------------------------------------------------


def _filtered_catalog(catalog: Catalog, table: str, predicate) -> Catalog:
    """A fresh catalog with ``table`` holding only the rows on which
    ``predicate`` is true, filtered by a plain loop; the views are kept."""
    out = Catalog()
    for name in catalog.table_names():
        base = catalog.table(name)
        if name == table:
            names = base.schema.names
            keep = [
                i for i, row in enumerate(base.rows)
                if predicate.evaluate(dict(zip(names, row)))
            ]
            base = base.take(keep)
        out.add_table(base)
    for name in catalog.view_names():
        out.add_view(catalog.view(name))
    return out


def _reads_null_extended(query: Query, views: tuple[View, ...], table: str) -> bool:
    """Whether ``query`` reads ``table`` on the null-extended side of an
    outer join. The generator joins only ``d``, on the right of an inner or
    a LEFT join, in the query, in its UNION branch or in a view body."""
    blocks = list(query.blocks()) + [view.query for view in views]
    return table == "d" and any(c.how == "left" for b in blocks for c in b.joins)


def _outcome(run):
    try:
        return run(), None
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return None, exc


def _report_point(catalog, query, table, predicate):
    catalog.add_view(View("mr_guard", Query.from_(table)))
    condition = IntensionalCondition("guarded", predicate, "suppress_row")
    verdict = ComplianceVerdict(
        report="p", version=1, compliant=True, covering_metareport="mr_guard",
        obligations=(RuntimeObligation("intensional", condition),),
    )
    report = ReportDefinition(
        name="p", title="p", query=query, audience=frozenset({"analyst"}),
        purpose="care",
    )
    subjects = SubjectRegistry()
    subjects.purposes.declare("care")
    subjects.add_role("analyst")
    subjects.add_user("ann", "analyst")
    context = subjects.context("ann", "care")
    return ReportLevelEnforcer(catalog).generate(report, context, verdict).table


def _vpd_point(catalog, query, table, predicate):
    policy = VPDPolicy()
    policy.add_rule(VPDRule(table, predicate))
    subjects = SubjectRegistry()
    subjects.purposes.declare("care")
    subjects.add_role("analyst")
    subjects.add_user("ann", "analyst")
    return policy.run(query, catalog, subjects.context("ann", "care"))


def _warehouse_point(catalog, query, table, predicate):
    metadata = PrivacyMetadataRegistry()
    metadata.add_row_rule(
        IntensionalAssociation("deny", table, Not(predicate), {"deny_row": True})
    )
    subjects = SubjectRegistry()
    subjects.purposes.declare("care")
    subjects.add_role("analyst")
    subjects.add_user("ann", "analyst")
    enforcer = WarehouseEnforcer(catalog=catalog, metadata=metadata)
    table, _ = enforcer.run(query, subjects.context("ann", "care"))
    return table


POINTS = {
    "report": (_report_point, EnforcementError),
    "vpd": (_vpd_point, QueryError),
    "warehouse": (_warehouse_point, ComplianceError),
}


@st.composite
def obligations(draw):
    """A row obligation over the columns of ``t`` or ``d``."""
    if draw(st.booleans()):
        return "t", draw(_predicates(["x", "y"], ["g"]))
    return "d", draw(_predicates(["z"], ["h"]))


@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("mode", ["row", "columnar"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    t_rows=t_rows_strategy,
    d_rows=d_rows_strategy,
    tree=query_trees(),
    obligation=obligations(),
)
def test_each_point_equals_the_query_over_prefiltered_tables(
    point, mode, t_rows, d_rows, tree, obligation
):
    query, views, _ = tree
    table, predicate = obligation
    catalog = Catalog()
    catalog.add_table(Table.from_rows("t", T_SCHEMA, t_rows, provider="p"))
    catalog.add_table(Table.from_rows("d", D_SCHEMA, d_rows, provider="q"))
    for view in views:
        catalog.add_view(view)
    enforce, refusal = POINTS[point]
    with engine(mode):
        got, got_exc = _outcome(lambda: enforce(catalog, query, table, predicate))
    if _reads_null_extended(query, views, table):
        assert isinstance(got_exc, refusal) and "null-extended" in str(got_exc)
        return
    oracle = _filtered_catalog(catalog, table, predicate)
    want, want_exc = _outcome(lambda: execute_row(query, oracle))
    if want_exc is not None or got_exc is not None:
        assert (type(got_exc), str(got_exc)) == (type(want_exc), str(want_exc))
        return
    assert list(got.rows) == list(want.rows)
    assert [p.lineage for p in got.provenance] == [p.lineage for p in want.provenance]


# ---------------------------------------------------------------------------
# The property: each cell point equals the query over base tables whose
# column was blanked first
# ---------------------------------------------------------------------------


def _blanked_catalog(catalog: Catalog, table: str, column: str, condition) -> Catalog:
    """A fresh catalog with ``table``'s ``column`` NULL in every row
    ``condition`` is not true on (every row when there is none), blanked by
    a plain loop; the views are kept."""
    out = Catalog()
    for name in catalog.table_names():
        base = catalog.table(name)
        if name == table:
            names = base.schema.names
            at = names.index(column)
            rows = []
            for row in base.rows:
                shown = condition is not None and condition.evaluate(dict(zip(names, row)))
                rows.append(row if shown is True else row[:at] + (None,) + row[at + 1:])
            base = Table.from_rows(name, base.schema, rows, provider=base.provider)
        out.add_table(base)
    for name in catalog.view_names():
        out.add_view(catalog.view(name))
    return out


def _report_cell_point(catalog, query, table, column, rule):
    catalog.add_view(View("mr_cell", Query.from_(table)))
    kind = "intensional" if isinstance(rule, IntensionalCondition) else "anonymize"
    verdict = ComplianceVerdict(
        report="p", version=1, compliant=True, covering_metareport="mr_cell",
        obligations=(RuntimeObligation(kind, rule),),
    )
    report = ReportDefinition(
        name="p", title="p", query=query, audience=frozenset({"analyst"}),
        purpose="care",
    )
    return ReportLevelEnforcer(catalog).generate(report, analyst(), verdict).table


CELL_POINTS = {
    "suppress_cell": (
        lambda catalog, query, table, column, condition: _report_cell_point(
            catalog, query, table, column,
            IntensionalCondition(column, condition, "suppress_cell"),
        ),
        EnforcementError,
    ),
    "suppress": (
        lambda catalog, query, table, column, _: _report_cell_point(
            catalog, query, table, column, AnonymizationRequirement(column, "suppress"),
        ),
        EnforcementError,
    ),
    "mask": (
        lambda catalog, query, table, column, _: _vpd_mask_point(
            catalog, query, table, column
        ),
        QueryError,
    ),
}


def _vpd_mask_point(catalog, query, table, column):
    policy = VPDPolicy()
    policy.add_rule(VPDRule(table, masks=(ColumnMask(column),)))
    return policy.run(query, catalog, analyst())


@st.composite
def cell_rules(draw, conditioned: bool):
    """A column of ``t`` or ``d``, and a condition over that table's columns
    when ``conditioned``."""
    if draw(st.booleans()):
        table, ints, strs = "t", ["x", "y"], ["g"]
    else:
        table, ints, strs = "d", ["z"], ["h"]
    column = draw(st.sampled_from(ints + strs))
    return table, column, draw(_predicates(ints, strs)) if conditioned else None


@pytest.mark.parametrize("point", sorted(CELL_POINTS))
@pytest.mark.parametrize("mode", ["row", "columnar"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    t_rows=t_rows_strategy,
    d_rows=d_rows_strategy,
    tree=query_trees(),
    data=st.data(),
)
def test_each_cell_point_equals_the_query_over_preblanked_tables(
    point, mode, t_rows, d_rows, tree, data
):
    query, views, _ = tree
    table, column, condition = data.draw(cell_rules(point == "suppress_cell"))
    catalog = Catalog()
    catalog.add_table(Table.from_rows("t", T_SCHEMA, t_rows, provider="p"))
    catalog.add_table(Table.from_rows("d", D_SCHEMA, d_rows, provider="q"))
    for view in views:
        catalog.add_view(view)
    enforce, refusal = CELL_POINTS[point]
    with engine(mode):
        got, got_exc = _outcome(lambda: enforce(catalog, query, table, column, condition))
    if _reads_null_extended(query, views, table):
        assert isinstance(got_exc, refusal) and "null-extended" in str(got_exc)
        return
    oracle = _blanked_catalog(catalog, table, column, condition)
    want, want_exc = _outcome(lambda: execute_row(query, oracle))
    if want_exc is not None or got_exc is not None:
        assert (type(got_exc), str(got_exc)) == (type(want_exc), str(want_exc))
        return
    assert list(got.rows) == list(want.rows)
    assert [p.lineage for p in got.provenance] == [p.lineage for p in want.provenance]


# ---------------------------------------------------------------------------
# Lifecycle of the guarded catalog
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_an_insert_into_a_guarded_table_reaches_the_next_delivery(self):
        scenario = build_scenario()
        scenario.report_catalog.add(
            ReportDefinition(
                name="drugs", title="drugs",
                query=parse_query("SELECT drug, COUNT(*) AS n FROM mr_1 GROUP BY drug"),
                audience=frozenset({"analyst"}), purpose="care/quality",
            )
        )
        svc = scenario.delivery_service()
        svc.resilience = None
        catalog = scenario.bi_catalog
        dim = catalog.table("dim_disease")
        fact = catalog.table("fact_prescriptions")

        def deliver():
            return svc.deliver("drugs", user="ann", purpose="care/quality").table

        def add(disease_id: int, disease: str):
            member = dim.insert((disease_id, disease))
            row = list(fact.rows[0])
            row[fact.schema.index_of("disease_id")] = disease_id
            return member, fact.insert(tuple(row))

        total = sum(n for _, n in deliver().rows)
        guarded = catalog.guarded(rows_of("dim_disease", NOT_HIV))
        assert len(catalog._guarded) == 1

        member, fact_row = add(90, "HIV")
        table = deliver()
        assert sum(n for _, n in table.rows) == total
        assert not {member, fact_row} & table.all_lineage()

        member, fact_row = add(91, "malaria")
        table = deliver()
        assert sum(n for _, n in table.rows) == total + 1
        assert {member, fact_row} <= table.all_lineage()
        # Filtered again in place: one guarded catalog served all three.
        assert catalog.guarded(rows_of("dim_disease", NOT_HIV)) is guarded
        assert len(catalog._guarded) == 1

    def test_a_guard_set_carries_its_key(self, monkeypatch):
        """``guards`` returns a read-only guard set whose key is formatted
        once; a guard set built anew with the same guards finds the same
        catalog."""
        from repro.relational.expressions import Comparison

        catalog = visits_catalog()
        query = parse_query("SELECT region FROM visits")
        guards = catalog.guards(query, [catalog.restate(NOT_HIV, query)])
        assert guards == {"visits": Guard(NOT_HIV)}
        kept = catalog.guarded(guards)
        assert catalog.guarded(rows_of("visits", NOT_HIV)) is kept
        with pytest.raises(TypeError):
            guards["kin"] = NOT_HIV  # type: ignore[index]

        def unformattable(expr):
            raise AssertionError(f"formatted {expr!r}")

        monkeypatch.setattr(Comparison, "__str__", unformattable)
        for _ in range(3):
            assert catalog.guarded(guards) is kept

    def test_ddl_rebuilds_the_guarded_catalog_and_the_memo_is_bounded(self):
        catalog = visits_catalog()
        guards = rows_of("visits", NOT_HIV)
        first = catalog.guarded(guards)
        assert catalog.guarded(guards) is first
        catalog.add_view(View("unrelated", parse_query("SELECT region FROM visits")))
        second = catalog.guarded(guards)
        assert second is not first and second.is_view("unrelated")
        for cost in range(100):
            catalog.guarded(rows_of("visits", parse_expression(f"cost != {cost}")))
        assert len(catalog._guarded) <= 64

    def test_guarded_inserts_keep_one_plan_cache_hook(self):
        catalog = visits_catalog()
        cache = PlanCache()
        config = ExecutionConfig(mode="columnar", plan_cache=cache)
        query = parse_query("SELECT patient, cost FROM visits")
        guards = rows_of("visits", NOT_HIV)
        visits = catalog.table("visits")
        for i in range(100):
            visits.insert((f"p{i}", "north", "HIV" if i % 2 else "flu", i))
            result = execute(query, catalog.guarded(guards), config=config)
            assert len(result) == 2 + (i // 2 + 1)
        assert len(cache._hooked_catalogs) <= 1
        assert catalog.ddl_version == 2  # the two add_table calls

    def test_guard_sets_that_differ_in_one_cell_share_nothing(self):
        """Two guard sets that differ only in one replacement get two guarded
        catalogs, and a query over each gets its own plan-cache entry."""
        catalog = visits_catalog()
        cache = PlanCache()
        config = ExecutionConfig(mode="columnar", plan_cache=cache)
        query = parse_query("SELECT patient, region FROM visits")
        blank = [
            catalog.guards(query, cells=[("visits", "region", replacement)])
            for replacement in (parse_expression("NULL"), parse_expression("'x'"))
        ]
        assert blank[0].key != blank[1].key
        first, second = (catalog.guarded(guards) for guards in blank)
        assert first is not second
        rows = [execute(query, guarded, config=config).rows for guarded in (first, second)]
        assert {region for _, region in rows[0]} == {None}
        assert {region for _, region in rows[1]} == {"x"}
        assert len(cache) == 2
