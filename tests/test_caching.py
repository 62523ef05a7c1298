"""Cache-semantics tests for the columnar execution stack.

Three caches ride on version-stamped keys, and each must be *semantically
invisible*: a warm hit returns exactly what a cold run would compute, and
any mutation that could change the answer — catalog DDL, base-table data,
PLA revision/approval, report redefinition, meta-report extension — must
yield a fresh computation, never a stale verdict.

* plan cache (``repro.relational.plancache``): query-fingerprint ×
  catalog-state keyed result snapshots; the state token keeps each query's
  base tables per DDL generation;
* containment proof caches (``repro.core.containment``): derivability and
  homomorphism proofs, pure in the catalog's *definitions*;
* compliance verdict cache (``repro.core.compliance``): memoized
  :class:`ComplianceVerdict`, keyed by the report's fingerprint and the
  meta-report set's generation.

The enforcer's kept intensional rewrite rides on the same versions, its
enforced outcome rides in the slot of the plan-cache entry it came from, and
a differential test checks every memo of the warm delivery path against
deliveries that use none.
"""

from __future__ import annotations

import pytest

from repro.core import (
    PLA,
    AggregationThreshold,
    AnonymizationRequirement,
    ComplianceChecker,
    IntensionalCondition,
    MetaReport,
    MetaReportSet,
    NotConjunctive,
    PlaLevel,
    PlaRegistry,
    ReportLevelEnforcer,
    check_derivability,
    clear_proof_caches,
    is_contained,
    proof_cache_stats,
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
    get_default_config,
    make_schema,
    parse_expression,
    parse_query,
    set_default_config,
)
from repro.policy import SubjectRegistry
from repro.relational.catalog import Guard
from repro.relational.types import ColumnType
from repro.reports import ReportDefinition


def patient_catalog() -> Catalog:
    cat = Catalog()
    schema = make_schema(
        ("patient", ColumnType.STRING),
        ("region", ColumnType.STRING),
        ("disease", ColumnType.STRING),
        ("cost", ColumnType.INT),
    )
    rows = [
        ("Alice", "north", "flu", 10),
        ("Bob", "south", "flu", 20),
        ("Cara", "north", "asthma", 30),
        ("Dan", "south", "asthma", 40),
    ]
    cat.add_table(Table.from_rows("visits", schema, rows, provider="hosp"))
    return cat


@pytest.fixture(autouse=True)
def _fresh_proof_caches():
    clear_proof_caches()
    yield
    clear_proof_caches()


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


class TestPlanCache:
    def make_cfg(self) -> tuple[PlanCache, ExecutionConfig]:
        cache = PlanCache()
        return cache, ExecutionConfig(mode="columnar", plan_cache=cache)

    def test_warm_hit_equals_cold_result(self):
        cat = patient_catalog()
        cache, cfg = self.make_cfg()
        q = parse_query("SELECT region, cost FROM visits WHERE cost > 15")
        cold = execute(q, cat, config=cfg)
        warm = execute(q, cat, config=cfg)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert list(warm.rows) == list(cold.rows)
        assert list(warm.provenance) == list(cold.provenance)
        assert warm.schema == cold.schema
        ref = execute_row(q, cat)
        assert list(warm.rows) == list(ref.rows)
        assert list(warm.provenance) == list(ref.provenance)

    def test_hit_returns_fresh_table_object(self):
        """Snapshots must be rebuilt per hit so callers can't corrupt the
        cache by mutating (e.g. renaming) the returned table."""
        cat = patient_catalog()
        cache, cfg = self.make_cfg()
        q = parse_query("SELECT region FROM visits")
        first = execute(q, cat, config=cfg, name="one")
        second = execute(q, cat, config=cfg, name="two")
        assert first is not second
        assert first.name == "one" and second.name == "two"

    def test_commuted_conjuncts_share_one_entry(self):
        cat = patient_catalog()
        cache, cfg = self.make_cfg()
        a = parse_query("SELECT region FROM visits WHERE cost > 15 AND cost < 35")
        b = parse_query("SELECT region FROM visits WHERE cost < 35 AND cost > 15")
        execute(a, cat, config=cfg)
        out = execute(b, cat, config=cfg)
        assert cache.stats.hits == 1 and len(cache) == 1
        assert list(out.rows) == list(execute_row(b, cat).rows)

    def test_data_mutation_misses(self):
        """Inserting rows bumps data_version: the old snapshot must not be
        served for the new data."""
        cat = patient_catalog()
        cache, cfg = self.make_cfg()
        q = parse_query("SELECT region FROM visits WHERE cost > 15")
        before = execute(q, cat, config=cfg)
        cat.table("visits").insert(("Eve", "north", "flu", 99))
        after = execute(q, cat, config=cfg)
        assert cache.stats.hits == 0 and cache.stats.misses == 2
        assert len(after) == len(before) + 1
        assert list(after.rows) == list(execute_row(q, cat).rows)

    def test_catalog_ddl_evicts_eagerly(self):
        cat = patient_catalog()
        cache, cfg = self.make_cfg()
        q = parse_query("SELECT region FROM visits")
        execute(q, cat, config=cfg)
        assert len(cache) == 1
        cat.add_view(View("extra", parse_query("SELECT region FROM visits")))
        assert len(cache) == 0  # mutation hook reclaimed the entry

    def test_redefined_view_is_recomputed(self):
        cat = patient_catalog()
        cache, cfg = self.make_cfg()
        cat.add_view(View("v", parse_query("SELECT region FROM visits WHERE cost > 15")))
        q = parse_query("SELECT region FROM v")
        assert len(execute(q, cat, config=cfg)) == 3
        cat.add_view(
            View("v", parse_query("SELECT region FROM visits WHERE cost > 35")),
            replace=True,
        )
        assert len(execute(q, cat, config=cfg)) == 1  # not the stale 3-row answer

    def test_dead_catalogs_never_alias_live_ones(self):
        # state_token identity must be process-unique, not id()-based:
        # CPython recycles addresses, so a catalog built after another died
        # could otherwise collide with the dead one's cache entries (same
        # address, same ddl_version, same table versions — different views).
        q = parse_query("SELECT region FROM visits")
        tokens = set()
        for _ in range(50):
            cat = patient_catalog()
            tokens.add(cat.state_token(q)[0])
            del cat
        assert len(tokens) == 50

    def test_state_token_follows_a_replaced_view_in_the_chain(self):
        cat = patient_catalog()
        clinics = make_schema(("region", ColumnType.STRING))
        cat.add_table(Table.from_rows("clinics", clinics, [("north",)], provider="hosp"))
        cat.add_view(View("v1", parse_query("SELECT region FROM visits")))
        cat.add_view(View("v2", parse_query("SELECT region FROM v1")))
        q = parse_query("SELECT region FROM v2")
        before = cat.state_token(q)
        assert cat.state_token(q) == before
        assert [name for name, _, _ in before[2]] == ["visits"]
        cat.add_view(View("v1", parse_query("SELECT region FROM clinics")), replace=True)
        after = cat.state_token(q)
        assert after[1] > before[1]
        assert [name for name, _, _ in after[2]] == ["clinics"]

    def test_state_token_reads_each_tables_versions_on_every_call(self):
        cat = patient_catalog()
        q = parse_query("SELECT region FROM visits")
        before = cat.state_token(q)
        cat.table("visits").insert(("Eve", "north", "flu", 99))
        after = cat.state_token(q)
        assert after[:2] == before[:2]  # no DDL: the kept base tables hold
        (name, version, rows), = after[2]
        assert (name, rows) == ("visits", 5) and version > before[2][0][1]

    def test_same_shape_catalogs_do_not_share_entries(self):
        cache, cfg = self.make_cfg()
        cat1 = patient_catalog()
        cat1.add_view(View("v", parse_query("SELECT region FROM visits")))
        narrow = execute(parse_query("SELECT * FROM v"), cat1, config=cfg)
        del cat1
        cat2 = patient_catalog()
        cat2.add_view(View("v", parse_query("SELECT * FROM visits")))
        wide = execute(parse_query("SELECT * FROM v"), cat2, config=cfg)
        assert list(narrow.schema.names) == ["region"]
        assert list(wide.schema.names) == ["patient", "region", "disease", "cost"]
        assert cache.stats.hits == 0

    def test_unknown_relation_bypasses_cache(self):
        cat = patient_catalog()
        cache, cfg = self.make_cfg()
        cat.add_view(View("v", parse_query("SELECT region FROM ghost")))
        with pytest.raises(Exception) as exc_info:
            execute(parse_query("SELECT region FROM v"), cat, config=cfg)
        ref_exc = None
        try:
            execute_row(parse_query("SELECT region FROM v"), cat)
        except Exception as exc:  # noqa: BLE001
            ref_exc = exc
        assert type(exc_info.value) is type(ref_exc)
        assert len(cache) == 0

    def test_row_mode_never_uses_plan_cache(self):
        cache = PlanCache()
        cfg = ExecutionConfig(mode="row", plan_cache=cache)
        assert cfg.effective_plan_cache() is None
        cat = patient_catalog()
        execute(parse_query("SELECT region FROM visits"), cat, config=cfg)
        assert cache.stats.lookups == 0

    def test_default_config_roundtrip(self):
        previous = set_default_config(ExecutionConfig(mode="row"))
        try:
            assert get_default_config().mode == "row"
        finally:
            set_default_config(previous)
        assert get_default_config() is previous


# ---------------------------------------------------------------------------
# Containment proof caches
# ---------------------------------------------------------------------------


class TestProofCaches:
    def test_warm_equals_cold_verdict(self):
        cat = patient_catalog()
        meta = Query.from_("visits").project("region", "disease", "cost")
        rq = parse_query("SELECT region, cost FROM visits WHERE cost > 15")
        cold = check_derivability(rq, "mr", meta, cat)
        stats0 = proof_cache_stats()["derivability"]
        warm = check_derivability(rq, "mr", meta, cat)
        stats1 = proof_cache_stats()["derivability"]
        assert warm == cold
        assert stats1["hits"] == stats0["hits"] + 1

    def test_is_contained_memoizes_and_agrees(self):
        cat = patient_catalog()
        q1 = parse_query("SELECT region FROM visits WHERE cost > 20")
        q2 = parse_query("SELECT region FROM visits WHERE cost > 10")
        cold = is_contained(q1, q2, cat)
        warm = is_contained(q1, q2, cat)
        assert cold is warm is True
        assert proof_cache_stats()["containment"]["hits"] >= 1

    def test_not_conjunctive_outcome_is_replayed(self):
        cat = patient_catalog()
        # A LIMIT keeps an arbitrary subset of rows: outside the fragment.
        q_limit = parse_query("SELECT region FROM visits").limit(2)
        q2 = parse_query("SELECT region FROM visits")
        with pytest.raises(NotConjunctive) as first:
            is_contained(q_limit, q2, cat)
        with pytest.raises(NotConjunctive) as second:
            is_contained(q_limit, q2, cat)
        assert str(first.value) == str(second.value)
        assert proof_cache_stats()["containment"]["hits"] >= 1

    def test_catalog_ddl_evicts_proofs(self):
        cat = patient_catalog()
        q1 = parse_query("SELECT region FROM visits WHERE cost > 20")
        q2 = parse_query("SELECT region FROM visits")
        is_contained(q1, q2, cat)
        before = proof_cache_stats()["containment"]["entries"]
        assert before >= 1
        cat.add_view(View("x", parse_query("SELECT region FROM visits")))
        assert proof_cache_stats()["containment"]["entries"] < before

    def test_fingerprint_is_memoized_and_stable(self):
        q = parse_query("SELECT region FROM visits WHERE cost > 15 AND cost < 35")
        assert q.fingerprint() is q.fingerprint()  # memoized object
        rebuilt = parse_query("SELECT region FROM visits WHERE cost < 35 AND cost > 15")
        assert rebuilt.fingerprint() == q.fingerprint()  # normalized conjuncts
        narrowed = q.filter(parse_query("SELECT 1 FROM visits WHERE cost > 20").where)
        assert narrowed.fingerprint() != q.fingerprint()


# ---------------------------------------------------------------------------
# Compliance verdict cache: no stale verdicts across PLA/report/DDL change
# ---------------------------------------------------------------------------


def _checker(cat: Catalog, *, approved: bool = True) -> tuple[ComplianceChecker, MetaReport]:
    meta = MetaReport(
        name="mr_visits",
        query=Query.from_("visits").project("region", "disease", "cost"),
    )
    pla = PLA(
        name="pla_visits",
        owner="hosp",
        level=PlaLevel.METAREPORT,
        target="mr_visits",
        annotations=(AggregationThreshold(min_group_size=2, scope="cost"),),
    )
    meta.attach_pla(pla.approved() if approved else pla)
    metaset = MetaReportSet()
    metaset.add(meta)
    metaset.register_views(cat)
    return ComplianceChecker(catalog=cat, metareports=metaset), meta


def _report(sql: str, version: int = 1) -> ReportDefinition:
    return ReportDefinition(
        name="r", title="r", query=parse_query(sql),
        audience=frozenset({"analyst"}), purpose="care", version=version,
    )


class TestVerdictCache:
    SQL = "SELECT region, SUM(cost) AS total FROM mr_visits GROUP BY region"

    def test_warm_verdict_identical_to_cold(self):
        checker, _ = _checker(patient_catalog())
        report = _report(self.SQL)
        cold = checker.check_report(report)
        warm = checker.check_report(report)
        assert warm == cold
        stats = checker.cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        # A fresh checker over emptied proof caches recomputes from scratch.
        clear_proof_caches()
        fresh = ComplianceChecker(
            catalog=checker.catalog, metareports=checker.metareports,
        ).check_report(report)
        assert fresh.compliant == warm.compliant
        assert fresh.violations == warm.violations
        assert fresh.obligations == warm.obligations

    def test_pla_revision_invalidates_verdict(self):
        """Re-eliciting the PLA (new version/status) must change the verdict
        key: the old COMPLIANT answer may no longer hold."""
        cat = patient_catalog()
        checker, meta = _checker(cat)
        report = _report(self.SQL)
        assert checker.check_report(report).compliant
        # Revision tightens the threshold beyond satisfiability and is approved.
        revised = meta.pla.revised(
            (AggregationThreshold(min_group_size=1000, scope="cost"),)
        ).approved()
        meta.attach_pla(revised)
        fresh = checker.check_report(report)
        assert fresh.obligations != ()
        assert any("1000" in str(o) for o in fresh.obligations)
        assert checker.cache_stats()["misses"] == 2  # no stale replay

    def test_draft_pla_status_flip_invalidates(self):
        cat = patient_catalog()
        checker, meta = _checker(cat, approved=False)
        report = _report(self.SQL)
        first = checker.check_report(report)
        assert not first.compliant  # draft PLA ⇒ meta-report not approved
        meta.attach_pla(meta.pla.approved())
        second = checker.check_report(report)
        assert second.compliant

    def test_report_redefinition_invalidates(self):
        checker, _ = _checker(patient_catalog())
        report = _report(self.SQL)
        assert checker.check_report(report).compliant
        widened = report.with_query(parse_query("SELECT patient, cost FROM visits"))
        verdict = checker.check_report(widened)
        assert not verdict.compliant
        assert checker.cache_stats()["hits"] == 0

    def test_metareport_set_extension_invalidates(self):
        cat = patient_catalog()
        checker, _ = _checker(cat)
        bad = _report("SELECT patient FROM visits")
        assert not checker.check_report(bad).compliant
        wide = MetaReport(
            name="mr_all",
            query=Query.from_("visits").project("patient", "region", "disease", "cost"),
        )
        wide.attach_pla(
            PLA(
                name="pla_all", owner="hosp", level=PlaLevel.METAREPORT,
                target="mr_all",
                annotations=(AggregationThreshold(min_group_size=1),),
            ).approved()
        )
        checker.metareports.add(wide)
        checker.metareports.register_views(cat)
        verdict = checker.check_report(bad)
        assert verdict.compliant and verdict.covering_metareport == "mr_all"

    def test_extension_in_place_invalidates(self):
        """``MetaReportSet.extend`` replaces the meta-report's query and PLA
        on the same meta-report object; the verdict follows both."""
        cat = patient_catalog()
        checker, meta = _checker(cat)
        registry = PlaRegistry()
        registry.add(meta.pla)
        report = _report("SELECT patient, COUNT(*) AS n FROM visits GROUP BY patient")
        assert checker.check_report(report).covering_metareport is None
        checker.metareports.extend(
            "mr_visits", ["patient"], universe_columns=cat.output_names("visits"),
            catalog=cat, registry=registry,
        )
        # The extension's PLA is a draft until the owner approves it.
        drafted = checker.check_report(report)
        assert not drafted.compliant and drafted.covering_metareport is None
        meta.attach_pla(registry.approve(meta.pla.name))
        extended = checker.check_report(report)
        assert extended.compliant and extended.covering_metareport == "mr_visits"
        assert checker.cache_stats()["hits"] == 0

    def test_reassigned_query_invalidates(self):
        """Replacing a meta-report's query on the object, with no catalog DDL
        and no PLA change, changes the verdict."""
        cat = patient_catalog()
        checker, meta = _checker(cat)
        report = _report(self.SQL)
        assert checker.check_report(report).compliant
        ddl_version = cat.ddl_version
        meta.query = Query.from_("visits").project("disease")
        verdict = checker.check_report(report)
        assert cat.ddl_version == ddl_version
        assert not verdict.compliant and verdict.covering_metareport is None
        meta.query = Query.from_("visits").project("region", "disease", "cost")
        assert checker.check_report(report).compliant
        assert checker.cache_stats()["hits"] == 0

    def test_catalog_ddl_invalidates_verdicts(self):
        cat = patient_catalog()
        checker, _ = _checker(cat)
        report = _report(self.SQL)
        checker.check_report(report)
        cat.add_view(View("unrelated", parse_query("SELECT region FROM visits")))
        checker.check_report(report)
        assert checker.cache_stats()["hits"] == 0

    def test_invalidate_cache_clears(self):
        checker, _ = _checker(patient_catalog())
        report = _report(self.SQL)
        checker.check_report(report)
        assert checker.invalidate_cache() == 1
        checker.check_report(report)
        assert checker.cache_stats()["misses"] == 2


# ---------------------------------------------------------------------------
# Enforcement rewrite: kept per query, conditions, meta-report and DDL generation
# ---------------------------------------------------------------------------


def _exams() -> tuple[Catalog, ComplianceChecker, MetaReport, PlaRegistry]:
    """A meta-report ``mr`` that hides ``disease``, which its PLA's
    suppress_row condition reads: reports over it run with ``exams``
    guarded by the condition, traced through ``mr``'s FROM scope."""
    cat = Catalog()
    schema = make_schema(
        ("patient", ColumnType.STRING),
        ("result", ColumnType.STRING),
        ("disease", ColumnType.STRING),
    )
    rows = [
        ("Alice", "positive", "HIV"),
        ("Bob", "normal", "asthma"),
        ("Cara", "positive", "flu"),
        ("Dan", "positive", "flu"),
    ]
    cat.add_table(Table.from_rows("exams", schema, rows, provider="lab"))
    registry = PlaRegistry()
    registry.add(
        PLA(
            "p", "lab", PlaLevel.METAREPORT, "mr",
            (
                IntensionalCondition(
                    "disease", parse_expression("disease != 'HIV'"), "suppress_row"
                ),
            ),
        )
    )
    meta = MetaReport("mr", parse_query("SELECT patient, result FROM exams"))
    meta.attach_pla(registry.approve("p"))
    metaset = MetaReportSet()
    metaset.add(meta)
    metaset.register_views(cat)
    return cat, ComplianceChecker(catalog=cat, metareports=metaset), meta, registry


def _context():
    subjects = SubjectRegistry()
    subjects.purposes.declare("care")
    subjects.add_role("analyst")
    subjects.add_user("ann", "analyst")
    return subjects.context("ann", "care")


class TestRewriteMemo:
    SQL = "SELECT result, COUNT(*) AS n FROM mr GROUP BY result"

    @staticmethod
    def deliver(enforcer, checker, report) -> dict:
        verdict = checker.check_report(report)
        assert verdict.compliant
        instance = enforcer.generate(report, _context(), verdict)
        fresh = ReportLevelEnforcer(catalog=enforcer.catalog).generate(
            report, _context(), verdict
        )
        assert fresh.table.rows == instance.table.rows
        return dict(instance.table.rows)

    @staticmethod
    def rewritten(enforcer, checker, report):
        """The kept guard set of ``report``."""
        return enforcer._guards_for(report, checker.check_report(report))

    def test_a_repeated_delivery_runs_the_same_query_object(self, monkeypatch):
        import repro.core.translation as translation

        ran = []
        run = translation.execute
        monkeypatch.setattr(
            translation, "execute", lambda q, *a, **k: ran.append(q) or run(q, *a, **k)
        )
        cat, checker, _, _ = _exams()
        enforcer = ReportLevelEnforcer(catalog=cat)
        report = _report(self.SQL)
        self.deliver(enforcer, checker, report)
        self.deliver(enforcer, checker, report)
        assert ran and all(query is report.query for query in ran)
        first = self.rewritten(enforcer, checker, report)
        assert first == {"exams": Guard(parse_expression("disease != 'HIV'"))}
        assert self.rewritten(enforcer, checker, report) is first
        # One guarded catalog serves every delivery, and no view was added.
        assert cat.guarded(first) is cat.guarded(first)
        assert cat.view_names() == ("mr",)

    def test_follows_a_replaced_view_it_extends(self):
        cat, checker, _, _ = _exams()
        enforcer = ReportLevelEnforcer(catalog=cat)
        report = _report(self.SQL)
        for _ in range(3):
            assert self.deliver(enforcer, checker, report) == {
                "normal": 1, "positive": 2,
            }
        cat.add_view(
            View("mr", parse_query(
                "SELECT patient, result FROM exams WHERE patient != 'Dan'"
            )),
            replace=True,
        )
        for _ in range(2):
            assert self.deliver(enforcer, checker, report) == {
                "normal": 1, "positive": 1,
            }
        # The condition is traced through the replaced view, and still
        # guards the base table without a view of its own.
        assert self.rewritten(enforcer, checker, report) == {
            "exams": Guard(parse_expression("disease != 'HIV'"))
        }
        assert not cat.is_view("mr__plaext")

    def test_follows_a_pla_revision_of_the_condition(self):
        cat, checker, meta, registry = _exams()
        enforcer = ReportLevelEnforcer(catalog=cat)
        report = _report(self.SQL)
        for _ in range(2):
            assert self.deliver(enforcer, checker, report) == {
                "normal": 1, "positive": 2,
            }
        registry.revise(
            "p",
            (
                IntensionalCondition(
                    "disease", parse_expression("disease != 'flu'"), "suppress_row"
                ),
            ),
        )
        meta.attach_pla(registry.approve("p"))
        for _ in range(2):
            assert self.deliver(enforcer, checker, report) == {
                "normal": 1, "positive": 1,
            }


# ---------------------------------------------------------------------------
# The enforced outcome, kept in the slot of the plan-cache entry it came from
# ---------------------------------------------------------------------------

def _floor(min_group_size: int) -> tuple:
    """``mr``'s PLA: every obligation pass has work under it."""
    return (
        AggregationThreshold(min_group_size),
        AnonymizationRequirement("patient", "pseudonymize"),
        AnonymizationRequirement("zip", "generalize", 2),
        IntensionalCondition(
            "disease", parse_expression("disease != 'HIV'"), "suppress_row"
        ),
    )


class TestKeptOutcome:
    """``visits`` guarded by a suppress_row condition, groups under a
    threshold of 2, ``patient`` pseudonymized and ``zip`` generalized; two
    reports, ``r`` and ``r2``, run the same query."""

    SQL = (
        "SELECT patient, zip, COUNT(*) AS n, SUM(cost) AS total FROM mr "
        "GROUP BY patient, zip"
    )

    @pytest.fixture
    def dep(self):
        from types import SimpleNamespace

        from repro.anonymize import Pseudonymizer, zip_hierarchy

        cat = Catalog()
        schema = make_schema(
            ("patient", ColumnType.STRING),
            ("zip", ColumnType.STRING),
            ("disease", ColumnType.STRING),
            ("cost", ColumnType.INT),
        )
        rows = [
            ("Alice", "38100", "HIV", 10),
            ("Alice", "38100", "flu", 20),
            ("Bob", "38122", "flu", 30),
            ("Bob", "38122", "flu", 40),
            ("Cara", "38050", "asthma", 5),
            ("Cara", "38050", "flu", 7),
        ]
        cat.add_table(Table.from_rows("visits", schema, rows, provider="clinic"))
        registry = PlaRegistry()
        registry.add(PLA("p", "clinic", PlaLevel.METAREPORT, "mr", _floor(2)))
        meta = MetaReport(
            "mr", parse_query("SELECT patient, zip, disease, cost FROM visits")
        )
        meta.attach_pla(registry.approve("p"))
        metaset = MetaReportSet()
        metaset.add(meta)
        metaset.register_views(cat)
        query = parse_query(self.SQL)
        return SimpleNamespace(
            catalog=cat,
            checker=ComplianceChecker(catalog=cat, metareports=metaset),
            enforcer=ReportLevelEnforcer(
                catalog=cat,
                pseudonymizer=Pseudonymizer(salt="s"),
                hierarchies={"zip": zip_hierarchy()},
            ),
            registry=registry,
            meta=meta,
            reports={
                name: ReportDefinition(
                    name=name, title=name, query=query,
                    audience=frozenset({"analyst"}), purpose="care",
                )
                for name in ("r", "r2")
            },
            context=_context(),
        )

    @pytest.fixture
    def runs(self, monkeypatch) -> list:
        """The name of every result the obligation passes ran over."""
        names: list = []
        enforce = ReportLevelEnforcer._enforce

        def counted(enforcer, table, *args):
            names.append(table.name)
            return enforce(enforcer, table, *args)

        monkeypatch.setattr(ReportLevelEnforcer, "_enforce", counted)
        return names

    @pytest.fixture
    def plans(self):
        """Default-config executions run columnar through the default plan
        cache, emptied first."""
        from repro.relational import default_plan_cache

        previous = set_default_config(ExecutionConfig(mode="columnar"))
        default_plan_cache().clear()
        try:
            yield default_plan_cache()
        finally:
            set_default_config(previous)

    @staticmethod
    def deliver(dep, name: str = "r", enforcer=None):
        report = dep.reports[name]
        verdict = dep.checker.check_report(report)
        assert verdict.compliant
        return (enforcer or dep.enforcer).generate(report, dep.context, verdict)

    @classmethod
    def fresh(cls, dep):
        """The same delivery by a new enforcer on the row engine, through no
        plan cache."""
        enforcer = ReportLevelEnforcer(
            catalog=dep.catalog,
            pseudonymizer=dep.enforcer.pseudonymizer,
            hierarchies=dict(dep.enforcer.hierarchies),
        )
        previous = set_default_config(ExecutionConfig(mode="row"))
        try:
            return cls.deliver(dep, enforcer=enforcer)
        finally:
            set_default_config(previous)

    @staticmethod
    def observed(instance) -> tuple:
        from repro.service.state import payload_hash

        table = instance.table
        return (
            list(table.rows),
            instance.suppressed_rows,
            instance.obligations_applied,
            table.min_contributors,
            table.source_footprint,
            payload_hash(instance),
        )

    def test_a_warm_delivery_runs_no_pass(self, dep, runs, plans):
        first = self.deliver(dep)
        for _ in range(3):
            assert self.deliver(dep).table is first.table
        assert runs == ["r"]
        assert self.observed(first) == self.observed(self.fresh(dep))
        # Alice's one flu visit is a group under the threshold.
        assert first.suppressed_rows == 1
        assert sorted(first.table.column_values("zip")) == ["380**", "381**"]
        assert all(p.startswith("anon-") for p in first.table.column_values("patient"))

    def test_an_in_place_change_raises_and_the_next_delivery_is_unchanged(
        self, dep, plans
    ):
        import operator

        before = self.observed(self.deliver(dep))
        table = self.deliver(dep).table
        row = ("x", "y", 1, 1)
        changes = [
            lambda: table.rows.append(row),
            lambda: operator.setitem(table.rows, 0, row),
            lambda: operator.delitem(table.rows, 0),
            lambda: operator.iadd(table.rows, [row]),
            lambda: table.rows.sort(),
            lambda: table.provenance.pop(),
            lambda: table.provenance.clear(),
            lambda: table.insert(row),
            lambda: setattr(table, "rows", []),
            lambda: setattr(table, "name", "other"),
        ]
        for change in changes:
            with pytest.raises(TypeError):
                change()
        assert table.rows == before[0] and table.name == "r"
        assert self.observed(self.deliver(dep)) == before

    @pytest.mark.parametrize(
        "change",
        ["clear", "insert_rows", "revise_pla", "pseudonymizer", "hierarchy"],
    )
    def test_a_change_runs_the_passes_again(self, dep, runs, plans, change):
        from repro.anonymize import Pseudonymizer, zip_hierarchy

        for _ in range(2):
            self.deliver(dep)
        assert len(runs) == 1
        if change == "clear":
            plans.clear()
        elif change == "insert_rows":
            dep.catalog.table("visits").insert(("Alice", "38100", "flu", 6))
        elif change == "revise_pla":
            dep.registry.revise("p", _floor(1))
            dep.meta.attach_pla(dep.registry.approve("p"))
        elif change == "pseudonymizer":
            dep.enforcer.pseudonymizer = Pseudonymizer(salt="other")
        else:
            dep.enforcer.hierarchies["zip"] = zip_hierarchy()
        after = self.deliver(dep)
        assert len(runs) == 2
        assert self.deliver(dep).table is after.table
        assert len(runs) == 2
        assert self.observed(after) == self.observed(self.fresh(dep))

    def test_revisions_leave_one_kept_outcome_per_report(self, dep, plans):
        for revision in range(10):
            dep.registry.revise("p", _floor(1 + revision % 2))
            dep.meta.attach_pla(dep.registry.approve("p"))
            for name in ("r", "r2"):
                self.deliver(dep, name)
        # Both reports run one query, so they share one entry.
        slots = [snap[-1] for snap in plans._cache._entries.values() if snap[-1]]
        assert len(slots) == 1
        assert sorted(name for _, name in slots[0]) == ["r", "r2"]
        for (_, name), kept in slots[0].items():
            verdict = dep.checker.check_report(dep.reports[name])
            assert kept.obligations is verdict.obligations

    @pytest.mark.parametrize(
        "config",
        [
            ExecutionConfig(mode="row"),
            ExecutionConfig(mode="columnar", use_plan_cache=False),
        ],
        ids=["row", "uncached"],
    )
    def test_a_result_from_no_plan_cache_runs_every_pass(self, dep, runs, config):
        previous = set_default_config(config)
        try:
            tables = [self.deliver(dep).table for _ in range(3)]
        finally:
            set_default_config(previous)
        assert runs == ["r"] * 3
        assert len({id(t) for t in tables}) == 3
        assert all(type(t) is Table for t in tables)


# ---------------------------------------------------------------------------
# Every memo of the warm path against a fresh checker and enforcer
# ---------------------------------------------------------------------------


def _fresh_delivery(scenario, definition, user: str, purpose: str):
    """``definition``'s verdict and what a consumer and the audit log read
    from its delivery (``None`` when refused): the row count, the columns,
    the fewest contributors of any row, the sorted source footprint and the
    payload hash, computed from the rows and their lineage. The checker and
    enforcer are built for this one delivery, with no proof cache and no
    plan cache, on the row engine. The enforcer runs over a fresh catalog
    with the same tables and views, so it builds its own guarded catalog
    instead of reading the scenario catalog's."""
    import hashlib

    from repro.anonymize import Pseudonymizer
    from repro.errors import ComplianceError

    clear_proof_caches()
    verdict = ComplianceChecker(
        catalog=scenario.bi_catalog,
        metareports=scenario.metareports,
        source_identity=scenario.checker.source_identity,
    ).check_report(definition)
    catalog = Catalog()
    for name in scenario.bi_catalog.table_names():
        catalog.add_table(scenario.bi_catalog.table(name))
    for name in scenario.bi_catalog.view_names():
        catalog.add_view(scenario.bi_catalog.view(name))
    enforcer = ReportLevelEnforcer(
        catalog=catalog,
        pseudonymizer=Pseudonymizer(salt="trentino-bi"),
        hierarchies=scenario.enforcer.hierarchies,
    )
    previous = set_default_config(ExecutionConfig(mode="row"))
    try:
        instance = enforcer.generate(
            definition, scenario.subjects.context(user, purpose), verdict
        )
    except ComplianceError:
        return verdict, None
    finally:
        set_default_config(previous)
    table = instance.table
    observable = (
        definition.name,
        definition.version,
        instance.consumer,
        table.schema.names,
        table.rows,
        instance.suppressed_rows,
        instance.obligations_applied,
        instance.degraded,
        instance.degraded_sources,
        instance.fault_cause,
    )
    return verdict, (
        len(table.rows),
        tuple(column.name for column in table.schema),
        min((len(table.lineage_of(i)) for i in range(len(table))), default=0),
        tuple(sorted(table.footprint())),
        hashlib.sha256(repr(observable).encode("utf-8")).hexdigest(),
    )


def _delivered_facts(instance) -> tuple:
    """:func:`_fresh_delivery`'s facts, as the delivered table keeps them."""
    from repro.service.state import payload_hash

    table = instance.table
    return (
        len(table),
        table.schema.names,
        table.min_contributors,
        table.source_footprint,
        payload_hash(instance),
    )


class TestWarmPathDifferential:
    """Deliveries through long-lived objects, whose verdict cache, meta-report
    generation, kept rewrites, kept base tables and kept outcomes fill as
    they go, equal what :func:`_fresh_delivery` gives: the service's
    deliveries as the audit log records them, the concurrent ones as the
    delivered tables keep them."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_memoized_deliveries_equal_fresh_ones(self, seed):
        import random

        from repro.errors import ComplianceError
        from repro.service.loadgen import ROLE_TO_USER
        from repro.service.state import (
            MUTATION_KINDS,
            MutationSpec,
            apply_mutation_to,
            payload_hash,
        )
        from repro.simulation import build_scenario

        rng = random.Random(seed)
        scenario = build_scenario()
        service = scenario.delivery_service()
        service.resilience = None
        mutations = delivered = refused = 0
        for step in range(90):
            if rng.random() < 0.2:
                kind = MUTATION_KINDS[mutations % len(MUTATION_KINDS)]
                apply_mutation_to(scenario, MutationSpec(kind, seed=step))
                mutations += 1
                continue
            definition = rng.choice(scenario.report_catalog.all_current())
            user = ROLE_TO_USER[rng.choice(sorted(ROLE_TO_USER))]
            purpose = definition.purpose
            verdict = scenario.checker.check_report(definition)
            try:
                instance = service.deliver(definition.name, user=user, purpose=purpose)
            except ComplianceError:
                got = None
            else:
                record = service.audit_log.records[-1]
                got = (
                    record.row_count,
                    record.columns,
                    record.min_contributors,
                    record.source_footprint,
                    payload_hash(instance),
                )
            want = _fresh_delivery(scenario, definition, user, purpose)
            assert (verdict, got) == want, (step, definition.name, user)
            delivered += got is not None
            refused += got is None
        assert mutations >= 3 * len(MUTATION_KINDS)
        assert delivered and refused

    def test_concurrent_fills_agree_with_fresh_deliveries(self):
        """More workers than cores fill one checker's and one enforcer's
        memos at once, with a short switch interval."""
        import random
        import sys
        import threading

        from repro.errors import ComplianceError
        from repro.service.loadgen import ROLE_TO_USER
        from repro.simulation import build_scenario

        scenario = build_scenario()
        requests = [
            (definition, ROLE_TO_USER[role], definition.purpose)
            for definition in scenario.report_catalog.all_current()
            for role in (
                sorted(definition.audience)[0],
                sorted(set(ROLE_TO_USER) - definition.audience)[0],
            )
        ]
        want = {
            (d.name, user): _fresh_delivery(scenario, d, user, purpose)
            for d, user, purpose in requests
        }
        checker = ComplianceChecker(
            catalog=scenario.bi_catalog,
            metareports=scenario.metareports,
            source_identity=scenario.checker.source_identity,
        )
        enforcer = ReportLevelEnforcer(
            catalog=scenario.bi_catalog,
            pseudonymizer=scenario.enforcer.pseudonymizer,
            hierarchies=scenario.enforcer.hierarchies,
        )
        mismatches: list = []
        start = threading.Barrier(4)

        def worker(seed: int) -> None:
            order = requests * 3
            random.Random(seed).shuffle(order)
            start.wait(timeout=10)
            for definition, user, purpose in order:
                verdict = checker.check_report(definition)
                try:
                    got = _delivered_facts(
                        enforcer.generate(
                            definition, scenario.subjects.context(user, purpose), verdict
                        )
                    )
                except ComplianceError:
                    got = None
                if (verdict, got) != want[definition.name, user]:
                    mismatches.append((definition.name, user))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        # Every worker saw the same meta-report set: one generation, taken
        # once, however many workers found the memo empty at the same time.
        assert checker._metaset_memo[1] == 1


# ---------------------------------------------------------------------------
# Invalidation-atomic fills (the stale-fill race)
# ---------------------------------------------------------------------------


class TestInvalidationAtomicFills:
    """A fill computed before an invalidation must never land after it."""

    def test_put_if_drops_fill_after_invalidation(self):
        from repro.cache import LRUCache

        cache = LRUCache(maxsize=8)
        token = cache.fill_token()
        cache.invalidate_where(lambda _k: True)  # writer wins the race
        assert cache.put_if("k", "stale", token) is False
        assert cache.get("k") is None
        assert cache.stats.dropped_fills == 1

    def test_put_if_lands_without_interleaved_invalidation(self):
        from repro.cache import LRUCache

        cache = LRUCache(maxsize=8)
        token = cache.fill_token()
        assert cache.put_if("k", "fresh", token) is True
        assert cache.get("k") == "fresh"
        assert cache.stats.dropped_fills == 0

    def test_get_or_compute_mid_compute_invalidation_not_resurrected(self):
        from repro.cache import LRUCache

        cache = LRUCache(maxsize=8)

        def compute():
            # An invalidation lands while the (slow) compute is running.
            cache.clear()
            return "computed-against-old-state"

        # Caller still gets its value, but the cache must not keep it.
        assert cache.get_or_compute("k", compute) == "computed-against-old-state"
        assert cache.get("k") is None
        assert cache.stats.dropped_fills == 1

    def test_plan_reservation_fill_dropped_by_concurrent_ddl(self):
        """A plan computed under pre-mutation state never fills post-mutation."""
        from repro.relational import execute_columnar

        cat = patient_catalog()
        cache = PlanCache()
        q = parse_query("SELECT region FROM visits WHERE cost > 15")

        reservation = cache.begin(q, cat, "columnar")
        assert reservation is not None
        result = execute_columnar(q, cat)
        # DDL lands between compute and commit (the old store() raced here).
        cat.add_view(View("late", parse_query("SELECT region FROM visits")))
        assert cache.commit(reservation, result) is False
        assert cache.stats.dropped_fills >= 1

        # The next lookup sees nothing stale and recomputes cleanly.
        fresh = cache.begin(q, cat, "columnar")
        assert fresh is not None
        assert cache.fetch(fresh) is None
        ok = cache.commit(fresh, execute_columnar(q, cat))
        assert ok is True
        cached = cache.fetch(fresh)
        assert cached is not None
        assert list(cached.rows) == list(result.rows)

    def test_plan_reservation_stress_under_concurrent_mutations(self):
        """Readers fill, a writer mutates: no reader ever observes a stale row."""
        import threading

        from repro.relational import execute_columnar

        cat = patient_catalog()
        cache = PlanCache()
        cfg = ExecutionConfig(mode="columnar", plan_cache=cache)
        q = parse_query("SELECT region, cost FROM visits WHERE cost >= 0")
        stop = threading.Event()
        errors: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                out = execute(q, cat, config=cfg)
                # Row multiset must match a bare (uncached) execution taken
                # *after*: the table only grows, so a stale cached answer
                # would be a strict subset missing the newest row forever.
                live = execute_columnar(q, cat)
                if len(out) > len(live):
                    errors.append(f"cached {len(out)} rows > live {len(live)}")
                    return

        def writer() -> None:
            visits = cat.table("visits")
            for i in range(40):
                visits.insert((f"P{i}", "north", "flu", 50 + i))

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        writer_thread.join()
        stop.set()
        for t in readers:
            t.join()
        assert errors == []
        # And the cache converges: a final execution returns the full table.
        final = execute(q, cat, config=cfg)
        assert len(final) == len(execute_columnar(q, cat)) == 44
