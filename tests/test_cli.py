"""Tests for the command-line interface."""

import pytest

from repro.cli import _HANDLERS, build_parser, main, subcommand_help


@pytest.fixture(scope="module")
def shared_scenario():
    """Patch the CLI's scenario builder to reuse one instance (speed)."""
    from repro.simulation import build_scenario

    return build_scenario()


@pytest.fixture(autouse=True)
def _reuse_scenario(monkeypatch, shared_scenario):
    monkeypatch.setattr("repro.cli._scenario", lambda: shared_scenario)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_every_subcommand_has_nonempty_help(self):
        """The help-string audit: no command ships undocumented."""
        documented = subcommand_help(build_parser())
        assert documented, "no subcommands registered?"
        for name, (help_text, description) in documented.items():
            assert help_text.strip(), f"subcommand {name!r} has no help text"
            assert description.strip(), f"subcommand {name!r} has no description"

    def test_every_subcommand_has_a_handler_and_vice_versa(self):
        documented = set(subcommand_help(build_parser()))
        assert documented == set(_HANDLERS)

    def test_every_subcommand_help_renders_an_example(self):
        parser = build_parser()
        import argparse

        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, subparser in action.choices.items():
                    text = subparser.format_help()
                    assert "example:" in text, f"{name} help lacks an example"
                    assert f"repro {name}" in text, f"{name} example is off-command"


class TestCommands:
    def test_scenario(self, capsys):
        assert main(["scenario"]) == 0
        out = capsys.readouterr().out
        assert "compliance:" in out and "meta-reports: 4" in out

    def test_check_compliant(self, capsys):
        code = main(
            [
                "check",
                "SELECT drug, COUNT(*) AS n FROM wide_prescriptions GROUP BY drug",
            ]
        )
        assert code == 0
        assert "COMPLIANT" in capsys.readouterr().out

    def test_check_non_compliant_exits_nonzero(self, capsys):
        code = main(
            [
                "check",
                "SELECT patient, drug FROM wide_prescriptions",
                "--audience",
                "municipality_official",
            ]
        )
        assert code == 1
        assert "violation" in capsys.readouterr().out

    def test_check_bad_sql_is_error(self, capsys):
        assert main(["check", "SELECT FROM"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deliver(self, capsys):
        code = main(["deliver", "rpt_001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delivered to:" in out

    def test_deliver_unknown_report(self, capsys):
        assert main(["deliver", "rpt_999"]) == 2

    def test_audit(self, capsys):
        assert main(["audit"]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_gaps(self, capsys):
        assert main(["gaps", "--n", "40", "--show", "3"]) == 0
        out = capsys.readouterr().out
        assert "PLA coverage:" in out

    def test_fig_runs_a_bench_main(self, capsys):
        assert main(["fig", "3"]) == 0
        out = capsys.readouterr().out
        assert "FIG3" in out

    def test_bench_smoke_writes_json(self, capsys, tmp_path):
        import json

        target = str(tmp_path / "bench.json")
        assert main(["bench", "--smoke", "--json", target]) == 0
        out = capsys.readouterr().out
        assert "fused vector kernels" in out
        data = json.loads((tmp_path / "bench.json").read_text())
        assert data["smoke"] is True
        assert data["summary"]["max_fused_speedup_at_largest"] > 1.0
        assert data["containment"]["speedup"] > 1.0
        assert all(g["passed"] for g in data["gates"])

    def test_lint_text(self, capsys):
        assert main(["lint"]) == 0  # scenario has warnings, no errors
        out = capsys.readouterr().out
        assert out.startswith("lint[")
        assert "warning(s)" in out
        assert "hint:" in out

    def test_lint_json_is_machine_readable(self, capsys):
        import json

        assert main(["lint", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["error"] == 0
        assert data["counts"]["warning"] > 0
        assert data["coverage"]["reports"] == 30
        codes = {d["code"] for d in data["diagnostics"]}
        assert {"ETL001", "PLA001", "RPT002"} <= codes

    def test_lint_fail_on_warning_exits_nonzero(self, capsys):
        assert main(["lint", "--fail-on", "warning"]) == 1

    def test_lint_saved_deployment(self, capsys, tmp_path):
        target = str(tmp_path / "deploy")
        assert main(["save", target]) == 0
        assert main(["lint", "--deployment", target]) == 0
        out = capsys.readouterr().out
        assert "lint[" in out

    def test_verify_text(self, capsys):
        assert main(["verify"]) == 0  # seed scenario proves clean
        out = capsys.readouterr().out
        assert out.startswith("verify[")
        assert "0 refuted, 0 unknown" in out

    def test_verify_json_is_machine_readable(self, capsys):
        import json

        assert main(["verify", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["refuted"] == 0
        assert data["counts"]["unknown"] == 0
        assert data["coverage"]["reports"] == 30
        codes = {r["code"] for r in data["results"]}
        assert {"VER001", "VER002", "VER003", "VER004", "VER005"} <= codes

    def test_verify_saved_deployment(self, capsys, tmp_path):
        target = str(tmp_path / "deploy")
        assert main(["save", target]) == 0
        assert main(["verify", "--deployment", target, "--no-replay"]) == 0
        out = capsys.readouterr().out
        assert "verify[" in out

    def test_verify_fail_on_accepts_warning(self, capsys):
        assert main(["verify", "--fail-on", "warning"]) == 0

    def test_save_and_load_roundtrip(self, capsys, tmp_path):
        target = str(tmp_path / "deploy")
        assert main(["save", target]) == 0
        assert main(["load", target]) == 0
        out = capsys.readouterr().out
        assert "deployment saved" in out
        assert "compliance on reload:" in out

    def test_load_missing_directory_errors(self, capsys, tmp_path):
        assert main(["load", str(tmp_path / "ghost")]) == 2
        assert "error:" in capsys.readouterr().err


class TestObservabilityCommands:
    @pytest.fixture(autouse=True)
    def _restore_obs(self):
        from repro import obs

        previous = obs.enabled()
        yield
        obs.TRACER.enabled = previous
        obs.reset()

    def test_trace_deliver_prints_span_tree(self, capsys):
        assert main(["trace", "deliver", "--report", "rpt_001"]) == 0
        out = capsys.readouterr().out
        assert "trace t" in out
        assert "report.deliver" in out
        assert "query.execute" in out
        assert "enforcement decisions" in out

    def test_trace_writes_jsonl(self, capsys, tmp_path):
        import json

        target = tmp_path / "spans.jsonl"
        assert main(["trace", "deliver", "--jsonl", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert lines
        spans = [json.loads(line) for line in lines]
        assert any(s["name"] == "report.deliver" for s in spans)
        assert all(
            set(s) >= {"trace_id", "span_id", "name", "wall_ms", "status"}
            for s in spans
        )

    def test_trace_leaves_observability_disabled(self, capsys):
        from repro import obs

        obs.disable()
        assert main(["trace", "audit"]) == 0
        assert not obs.enabled()

    def test_metrics_prometheus_output(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_deliveries_total counter" in out
        assert "repro_enforcement_decisions_total{" in out
        assert 'level="meta-report"' in out

    def test_metrics_json_output(self, capsys):
        import json

        assert main(["metrics", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["repro_deliveries_total"]["kind"] == "counter"
        assert data["repro_span_seconds"]["kind"] == "histogram"
