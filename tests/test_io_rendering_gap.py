"""Tests for CSV I/O, report rendering, and PLA gap analysis."""

import datetime
import io
from dataclasses import replace

import pytest

from repro.errors import SchemaError
from repro.core import (
    PLA,
    AggregationThreshold,
    Annotation,
    AnonymizationRequirement,
    AttributeAccess,
    IntegrationPermission,
    IntensionalCondition,
    JoinPermission,
    MetaReport,
    MetaReportSet,
    PlaLevel,
    PlaRegistry,
    analyze_coverage,
)
from repro.relational import (
    ColumnType,
    Query,
    Table,
    dumps_csv,
    loads_csv,
    make_schema,
    parse_expression,
    read_csv,
    write_csv,
)
from repro.reports.rendering import render_text


class TestCsvRoundtrip:
    def test_typed_header_roundtrip(self, prescriptions):
        text = dumps_csv(prescriptions)
        back = loads_csv(text, name="prescriptions", provider="hospital")
        assert back.schema.names == prescriptions.schema.names
        assert [c.ctype for c in back.schema] == [
            c.ctype for c in prescriptions.schema
        ]
        assert back.rows == prescriptions.rows

    def test_nullability_preserved(self, prescriptions):
        text = dumps_csv(prescriptions)
        back = loads_csv(text, name="p")
        assert back.schema.column("patient").nullable is False
        assert back.schema.column("doctor").nullable is True

    def test_null_cells_roundtrip(self, prescriptions):
        back = loads_csv(dumps_csv(prescriptions), name="p")
        assert back.rows[1][1] is None  # Chris's missing doctor

    def test_type_inference_without_typed_header(self):
        text = (
            "name,age,score,member,joined\n"
            "Ada,30,1.5,true,2007-02-12\n"
            "Bo,,2.0,false,2008-01-01\n"
        )
        table = loads_csv(text, name="t")
        types = [c.ctype for c in table.schema]
        assert types == [
            ColumnType.STRING,
            ColumnType.INT,
            ColumnType.FLOAT,
            ColumnType.BOOL,
            ColumnType.DATE,
        ]
        assert table.rows[0][4] == datetime.date(2007, 2, 12)
        assert table.rows[1][1] is None

    def test_explicit_schema_wins(self):
        schema = make_schema(("a", ColumnType.STRING))
        table = loads_csv("a\n5\n", name="t", schema=schema)
        assert table.rows == [("5",)]

    def test_file_roundtrip(self, tmp_path, prescriptions):
        path = tmp_path / "presc.csv"
        write_csv(prescriptions, path)
        back = read_csv(path, name="prescriptions")
        assert back.rows == prescriptions.rows

    def test_empty_input_rejected(self):
        with pytest.raises(SchemaError):
            loads_csv("", name="t")

    def test_ragged_row_rejected(self):
        with pytest.raises(SchemaError):
            loads_csv("a:int,b:int\n1\n", name="t")

    def test_untyped_header_flag(self, prescriptions):
        text = dumps_csv(prescriptions, typed_header=False)
        assert text.splitlines()[0] == "patient,doctor,drug,disease,date"

    def test_fresh_row_ids(self, prescriptions):
        back = loads_csv(dumps_csv(prescriptions), name="p", provider="copy")
        assert all(r.provider == "copy" for r in back.all_lineage())


class TestRendering:
    def test_render_contains_everything(self, paper_catalog):
        from repro.policy import SubjectRegistry
        from repro.relational import parse_query
        from repro.reports import ReportDefinition, ReportEngine

        subjects = SubjectRegistry()
        subjects.purposes.declare("care")
        subjects.add_role("analyst")
        subjects.add_user("ann", "analyst")
        engine = ReportEngine(paper_catalog)
        definition = ReportDefinition(
            "drug_consumption", "Drug consumption",
            parse_query("SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug"),
            frozenset({"analyst"}), "care",
        )
        instance = engine.generate(definition, subjects.context("ann", "care"))
        # As a threshold pass leaves it: one group kept, three suppressed.
        instance = replace(instance, table=instance.table.take([0]), suppressed_rows=3)
        text = render_text(instance)
        assert "Drug consumption" in text
        assert "delivered to: ann" in text
        assert "3 row(s) suppressed by privacy enforcement" in text
        assert "1 row(s)" in text


def _approved_set(annotations: tuple[Annotation, ...], columns=("patient", "drug", "cost")):
    mrs = MetaReportSet()
    mr = MetaReport("mr", Query.from_("wide").project(*columns))
    registry = PlaRegistry()
    pla = PLA("p", "hospital", PlaLevel.METAREPORT, "mr", annotations)
    registry.add(pla)
    mr.attach_pla(registry.approve("p"))
    mrs.add(mr)
    return mrs


class TestGapAnalysis:
    def test_exact_coverage(self):
        mrs = _approved_set((AggregationThreshold(5),))
        report = analyze_coverage(mrs, [AggregationThreshold(5)])
        assert report.complete and report.coverage == 1.0

    def test_stricter_covers_looser_threshold(self):
        mrs = _approved_set((AggregationThreshold(10),))
        assert analyze_coverage(mrs, [AggregationThreshold(5)]).complete
        assert not analyze_coverage(
            _approved_set((AggregationThreshold(3),)), [AggregationThreshold(5)]
        ).complete

    def test_attribute_access_subset_covers(self):
        agreed = AttributeAccess("patient", frozenset({"director"}))
        mrs = _approved_set((agreed,))
        loose = AttributeAccess("patient", frozenset({"director", "analyst"}))
        assert analyze_coverage(mrs, [loose]).complete
        strict = AttributeAccess("patient", frozenset())
        assert not analyze_coverage(mrs, [strict]).complete

    def test_unexposed_attribute_vacuously_covered(self):
        mrs = _approved_set((AggregationThreshold(5),), columns=("drug", "cost"))
        requirement = AttributeAccess("patient", frozenset({"director"}))
        assert analyze_coverage(mrs, [requirement]).complete

    def test_suppress_covers_any_anonymization(self):
        mrs = _approved_set(
            (AnonymizationRequirement("patient", "suppress"),)
        )
        assert analyze_coverage(
            mrs, [AnonymizationRequirement("patient", "pseudonymize")]
        ).complete

    def test_generalization_level_ordering(self):
        mrs = _approved_set(
            (AnonymizationRequirement("patient", "generalize", 2),)
        )
        assert analyze_coverage(
            mrs, [AnonymizationRequirement("patient", "generalize", 1)]
        ).complete
        assert not analyze_coverage(
            mrs, [AnonymizationRequirement("patient", "generalize", 3)]
        ).complete

    def test_join_and_integration(self):
        mrs = _approved_set(
            (
                JoinPermission("a/x", "b/y", False),
                IntegrationPermission("muni", False),
            )
        )
        report = analyze_coverage(
            mrs,
            [
                JoinPermission("a/x", "b/y", False),
                JoinPermission("b/y", "a/x", False),  # order-insensitive
                JoinPermission("a/x", "c/z", True),  # permissions auto-covered
                IntegrationPermission("muni", False),
                IntegrationPermission("lab", False),  # gap
            ],
        )
        assert report.covered == 4
        assert len(report.gaps) == 1 and report.gaps[0].kind == "integration_permission"

    def test_intensional_condition_matching(self):
        condition = parse_expression("disease != 'HIV'")
        mrs = _approved_set(
            (IntensionalCondition("patient", condition, "suppress_row"),)
        )
        assert analyze_coverage(
            mrs, [IntensionalCondition("patient", condition, "suppress_cell")]
        ).complete  # suppress_row is stricter
        other = parse_expression("disease != 'cancer'")
        report = analyze_coverage(
            mrs, [IntensionalCondition("patient", other, "suppress_row")]
        )
        assert not report.complete
        assert "no approved annotation" in str(report.gaps[0])

    def test_summary_format(self):
        mrs = _approved_set((AggregationThreshold(5),))
        report = analyze_coverage(mrs, [AggregationThreshold(99)])
        assert "0/1" in report.summary() or "0%" in report.summary()
