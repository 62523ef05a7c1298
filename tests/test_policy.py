"""Unit tests for subjects, P-RBAC, VPD rewriting, and intensional metadata."""

import pytest

from repro.errors import PolicyError, QueryError
from repro.policy import (
    AccessContext,
    ColumnMask,
    IntensionalAssociation,
    MetadataStore,
    PRBACPolicy,
    PurposeTree,
    SubjectRegistry,
    VPDPolicy,
    VPDRule,
)
from repro.relational import Query, View, parse_expression, parse_query


@pytest.fixture
def subjects():
    reg = SubjectRegistry()
    for purpose in ("care", "care/quality", "admin/reimbursement"):
        reg.purposes.declare(purpose)
    reg.add_role("analyst")
    reg.add_role("director")
    reg.add_user("ann", "analyst")
    reg.add_user("dora", "director", "analyst")
    return reg


class TestSubjects:
    def test_purpose_tree_containment(self, subjects):
        assert subjects.purposes.allows("care", "care/quality")
        assert not subjects.purposes.allows("care/quality", "care")
        assert not subjects.purposes.allows("admin/reimbursement", "care")

    def test_declare_creates_ancestors(self):
        tree = PurposeTree()
        tree.declare("a/b/c")
        assert "a" in tree and "a/b" in tree

    def test_undeclared_purpose_raises(self, subjects):
        with pytest.raises(PolicyError):
            subjects.purposes.get("nonexistent")

    def test_user_roles(self, subjects):
        assert subjects.user("dora").has_role("director")
        assert not subjects.user("ann").has_role("director")

    def test_user_with_undeclared_role_rejected(self, subjects):
        with pytest.raises(PolicyError):
            subjects.add_user("eve", "hacker")

    def test_context_describe(self, subjects):
        ctx = subjects.context("ann", "care/quality")
        assert "ann" in ctx.describe() and "care/quality" in ctx.describe()


class TestPRBAC:
    def test_grant_and_check(self, subjects):
        policy = PRBACPolicy(subjects.purposes)
        policy.grant("analyst", "prescriptions", ["drug", "cost"], purpose="care")
        ctx = subjects.context("ann", "care/quality")
        assert policy.check(ctx, "prescriptions", ["drug"])
        assert policy.check(ctx, "prescriptions", ["drug", "cost"])

    def test_denied_outside_columns(self, subjects):
        policy = PRBACPolicy(subjects.purposes)
        policy.grant("analyst", "prescriptions", ["drug"], purpose="care")
        ctx = subjects.context("ann", "care")
        assert not policy.check(ctx, "prescriptions", ["patient"])

    def test_denied_wrong_purpose(self, subjects):
        policy = PRBACPolicy(subjects.purposes)
        policy.grant("analyst", "prescriptions", purpose="care/quality")
        ctx = subjects.context("ann", "admin/reimbursement")
        assert not policy.check(ctx, "prescriptions", ["drug"])

    def test_context_condition(self, subjects):
        policy = PRBACPolicy(subjects.purposes)
        policy.grant(
            "analyst",
            "prescriptions",
            purpose="care",
            context_condition={"location": "on_site"},
        )
        ctx = subjects.context("ann", "care")
        assert not policy.check(ctx, "prescriptions", ["drug"])
        assert policy.check(
            ctx, "prescriptions", ["drug"], context_attrs={"location": "on_site"}
        )

    def test_undeclared_purpose_rejected(self, subjects):
        policy = PRBACPolicy(subjects.purposes)
        with pytest.raises(PolicyError):
            policy.grant("analyst", "t", purpose="never/declared")

    def test_expressiveness_classification(self):
        assert PRBACPolicy.can_express("attribute_access") == "testable"
        assert PRBACPolicy.can_express("integration_permission") == "approximate"
        for kind in ("aggregation_threshold", "join_permission", "intensional_condition", "anonymization"):
            assert PRBACPolicy.can_express(kind) == "inexpressible"


class TestVPD:
    def _context(self, subjects, user="ann"):
        return subjects.context(user, "care")

    def test_row_predicate_injected(self, subjects, paper_catalog):
        policy = VPDPolicy()
        policy.add_rule(
            VPDRule("prescriptions", parse_expression("disease != 'HIV'"))
        )
        out = policy.run(
            parse_query("SELECT patient FROM prescriptions"),
            paper_catalog,
            self._context(subjects),
        )
        assert sorted(r[0] for r in out.rows) == ["Alice", "Bob", "Math"]

    def test_predicate_applies_through_views(self, subjects, paper_catalog):
        policy = VPDPolicy()
        policy.add_rule(
            VPDRule("prescriptions", parse_expression("patient != 'Alice'"))
        )
        out = policy.run(
            parse_query("SELECT patient FROM nohiv"),
            paper_catalog,
            self._context(subjects),
        )
        assert sorted(r[0] for r in out.rows) == ["Bob", "Math"]

    def test_context_dependent_predicate(self, subjects, paper_catalog):
        policy = VPDPolicy()
        policy.add_rule(
            VPDRule(
                "prescriptions",
                lambda ctx: None
                if ctx.user.has_role("director")
                else parse_expression("disease != 'HIV'"),
            )
        )
        analyst_rows = policy.run(
            parse_query("SELECT patient FROM prescriptions"),
            paper_catalog,
            self._context(subjects, "ann"),
        )
        director_rows = policy.run(
            parse_query("SELECT patient FROM prescriptions"),
            paper_catalog,
            self._context(subjects, "dora"),
        )
        assert len(analyst_rows) == 3 and len(director_rows) == 5

    def test_exempt_roles_skip_rule(self, subjects, paper_catalog):
        policy = VPDPolicy()
        policy.add_rule(
            VPDRule(
                "prescriptions",
                parse_expression("disease != 'HIV'"),
                exempt_roles=frozenset({"director"}),
            )
        )
        out = policy.run(
            parse_query("SELECT patient FROM prescriptions"),
            paper_catalog,
            self._context(subjects, "dora"),
        )
        assert len(out) == 5

    def test_column_mask_on_explicit_select(self, subjects, paper_catalog):
        policy = VPDPolicy()
        policy.add_rule(
            VPDRule("prescriptions", masks=(ColumnMask("patient", "***"),))
        )
        out = policy.run(
            parse_query("SELECT patient, drug FROM prescriptions"),
            paper_catalog,
            self._context(subjects),
        )
        assert all(r[0] == "***" for r in out.rows)

    def test_column_mask_on_select_star(self, subjects, paper_catalog):
        policy = VPDPolicy()
        policy.add_rule(VPDRule("prescriptions", masks=(ColumnMask("patient"),)))
        out = policy.run(
            parse_query("SELECT * FROM prescriptions"),
            paper_catalog,
            self._context(subjects),
        )
        assert all(r[0] is None for r in out.rows)
        assert out.schema.names[0] == "patient"

    def test_aggregate_over_masked_column_groups_the_mask(self, subjects, paper_catalog):
        """The grouping reads the masked cells: the result is the query's
        over a ``prescriptions`` whose patients were masked first."""
        from repro.relational import Catalog, Table, execute_row
        from repro.relational.schema import Schema

        policy = VPDPolicy()
        policy.add_rule(VPDRule("prescriptions", masks=(ColumnMask("patient"),)))
        query = parse_query(
            "SELECT patient, COUNT(*) AS n FROM prescriptions GROUP BY patient"
        )
        out = policy.run(query, paper_catalog, self._context(subjects))
        masked = Catalog()
        for name in paper_catalog.table_names():
            base = paper_catalog.table(name)
            if name == "prescriptions":
                base = Table.from_rows(
                    name, Schema(c.as_nullable() for c in base.schema),
                    [(None, *row[1:]) for row in base.rows], provider=base.provider,
                )
            masked.add_table(base)
        want = execute_row(query, masked)
        assert out.rows == want.rows == [(None, len(masked.table("prescriptions")))]
        assert [p.lineage for p in out.provenance] == [p.lineage for p in want.provenance]

    def test_left_join_protected_side_rejected(self, subjects, paper_catalog):
        policy = VPDPolicy()
        policy.add_rule(VPDRule("drugcost", parse_expression("cost < 100")))
        q = Query.from_("prescriptions").join(
            "drugcost", [("drug", "drug")], how="left"
        )
        with pytest.raises(QueryError):
            policy.run(q, paper_catalog, self._context(subjects))

    def test_duplicate_rule_rejected(self):
        policy = VPDPolicy()
        policy.add_rule(VPDRule("t"))
        with pytest.raises(PolicyError):
            policy.add_rule(VPDRule("t"))


class TestIntensional:
    def test_association_covers_new_rows_automatically(self, prescriptions):
        store = MetadataStore()
        store.add(
            IntensionalAssociation(
                "hiv-restriction",
                "prescriptions",
                parse_expression("disease = 'HIV'"),
                {"deny_row": True},
            )
        )
        before = len(
            store.associations[0].matching_rows(prescriptions)
        )
        prescriptions.insert(("New", "Luis", "DH", "HIV", "2008-01-01"))
        after = len(store.associations[0].matching_rows(prescriptions))
        assert (before, after) == (2, 3)  # the paper's key property

    def test_metadata_for_row_merges(self):
        store = MetadataStore()
        store.add(
            IntensionalAssociation(
                "a", "t", parse_expression("x > 0"), {"k1": 1}
            )
        )
        store.add(
            IntensionalAssociation(
                "b", "t", parse_expression("x > 10"), {"k1": 2, "k2": 3}
            )
        )
        assert store.metadata_for_row("t", {"x": 5}) == {"k1": 1}
        assert store.metadata_for_row("t", {"x": 20}) == {"k1": 2, "k2": 3}
        assert store.metadata_for_row("t", {"x": -1}) == {}

    def test_duplicate_name_rejected(self):
        store = MetadataStore()
        assoc = IntensionalAssociation("a", "t", parse_expression("x > 0"), {})
        store.add(assoc)
        with pytest.raises(PolicyError):
            store.add(assoc)

    def test_wrong_table_raises(self, prescriptions):
        assoc = IntensionalAssociation(
            "a", "other", parse_expression("disease = 'HIV'"), {}
        )
        with pytest.raises(PolicyError):
            assoc.matching_rows(prescriptions)

    def test_covered_row_ids(self, paper_catalog):
        store = MetadataStore()
        store.add(
            IntensionalAssociation(
                "hiv", "prescriptions", parse_expression("disease = 'HIV'"), {}
            )
        )
        covered = store.covered_row_ids(paper_catalog)
        assert len(covered["hiv"]) == 2
