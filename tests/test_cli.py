"""Unit tests for the ``olp`` command-line interface."""

import pathlib

import pytest

from repro.cli import main
from repro.lang.printer import render_program
from repro.workloads.paper import figure1, figure2

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.olp")
)


@pytest.fixture
def figure1_file(tmp_path):
    path = tmp_path / "figure1.olp"
    path.write_text(render_program(figure1()))
    return str(path)


@pytest.fixture
def figure2_file(tmp_path):
    path = tmp_path / "figure2.olp"
    path.write_text(render_program(figure2()))
    return str(path)


class TestRun:
    def test_least_model_default(self, figure1_file, capsys):
        assert main(["run", figure1_file, "-c", "c1"]) == 0
        out = capsys.readouterr().out
        assert "-fly(penguin)" in out
        assert "fly(pigeon)" in out

    def test_component_defaults_to_unique_minimal(self, figure1_file, capsys):
        assert main(["run", figure1_file]) == 0
        assert "component c1" in capsys.readouterr().out

    def test_ambiguous_minimal_component_errors(self, tmp_path, capsys):
        path = tmp_path / "two.olp"
        path.write_text("component a { p. }\ncomponent b { q. }\n")
        assert main(["run", str(path)]) == 2
        assert "pick one with -c" in capsys.readouterr().err

    def test_stable_enumeration(self, figure2_file, capsys):
        assert main(["run", figure2_file, "-c", "c1", "--semantics", "stable"]) == 0
        out = capsys.readouterr().out
        assert "1 stable model(s)" in out

    def test_json_output(self, figure1_file, capsys):
        import json

        assert main(["run", figure1_file, "-c", "c1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["component"] == "c1"
        assert payload["semantics"] == "least"
        literals = payload["models"][0]["literals"]
        assert any(
            l["pred"] == "fly" and not l["positive"] for l in literals
        )

    def test_json_stable(self, figure2_file, capsys):
        import json

        assert main(
            ["run", figure2_file, "-c", "c1", "--semantics", "stable", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["models"]) == 1
        assert payload["models"][0]["literals"] == []

    def test_explain_shows_hierarchy(self, figure1_file, capsys):
        assert main(["explain", figure1_file, "-c", "c1"]) == 0
        out = capsys.readouterr().out
        assert "c1 --> c2" in out

    def test_undefined_reported(self, figure2_file, capsys):
        assert main(["run", figure2_file, "-c", "c1"]) == 0
        assert "undefined:" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.olp"]) == 2

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.olp"
        path.write_text("p :- .")
        assert main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def test_query_match(self, figure1_file, capsys):
        assert main(["query", figure1_file, "-c", "c1", "-q", "fly(X)"]) == 0
        assert "fly(pigeon)" in capsys.readouterr().out

    def test_query_no_answer(self, figure1_file, capsys):
        assert main(["query", figure1_file, "-c", "c1", "-q", "swims(X)"]) == 1
        assert "no" in capsys.readouterr().out


class TestWhy:
    def test_why_derivation(self, figure1_file, capsys):
        assert main(["why", figure1_file, "-c", "c1", "-q", "fly(pigeon)"]) == 0
        out = capsys.readouterr().out
        assert "via" in out and "bird(pigeon)" in out

    def test_why_failure(self, figure1_file, capsys):
        assert main(["why", figure1_file, "-c", "c1", "-q", "fly(penguin)"]) == 0
        assert "overruled" in capsys.readouterr().out


class TestLint:
    def test_clean_program(self, figure1_file, capsys):
        assert main(["lint", figure1_file]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.olp"
        path.write_text(
            """
            component general { fly(X) :- bird(X). bird(tweety). }
            component specific { -fly(X) :- penguin(X). }
            order specific < general.
            """
        )
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "permanently overruled" in out
        assert "finding(s)" in out


class TestCheck:
    def test_clean_file_passes(self, figure1_file, capsys):
        assert main(["check", figure1_file]) == 0
        out = capsys.readouterr().out
        assert "0 warning(s)" in out
        assert "FAIL" not in out

    def test_warnings_fail_the_default_gate(self, tmp_path, capsys):
        path = tmp_path / "unsafe.olp"
        path.write_text("component c { p(X). }")
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "unsafe-rule" in out
        assert "FAIL" in out and "--max-severity=info" in out

    def test_raising_the_gate_passes_warnings(self, tmp_path, capsys):
        path = tmp_path / "unsafe.olp"
        path.write_text("component c { p(X). }")
        assert main(["check", str(path), "--max-severity", "warning"]) == 0

    def test_multiple_files_any_failure_fails(self, figure1_file, tmp_path):
        bad = tmp_path / "unsafe.olp"
        bad.write_text("component c { p(X). }")
        assert main(["check", figure1_file, str(bad)]) == 1

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.olp"]) == 2

    def test_json_payload(self, figure2_file, capsys):
        import json

        assert main(["check", figure2_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload
        assert entry["file"] == figure2_file
        assert entry["gating"] == 0
        assert entry["counts"]["by_code"]["potential-defeat"] == 2
        assert entry["views"]["c1"]["classification"] == "unstratified"

    def test_json_gating_count(self, tmp_path, capsys):
        import json

        path = tmp_path / "unsafe.olp"
        path.write_text("component c { p(X). }")
        assert main(["check", str(path), "--json"]) == 1
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["gating"] == 1

    def test_metrics_report(self, figure2_file, capsys):
        assert main(["check", figure2_file, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "check.diagnostics" in out

    def test_sarif_payload(self, figure1_file, capsys):
        import json

        assert main(["check", figure1_file, "--sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        (run,) = payload["runs"]
        assert run["tool"]["driver"]["name"] == "olp-check"
        assert run["artifacts"][0]["location"]["uri"] == figure1_file

    def test_sarif_keeps_gating_exit_code(self, tmp_path, capsys):
        import json

        path = tmp_path / "unsafe.olp"
        path.write_text("component c { p(X). }")
        assert main(["check", str(path), "--sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        results = payload["runs"][0]["results"]
        assert any(r["ruleId"] == "unsafe-rule" for r in results)

    def test_sarif_and_json_are_exclusive(self, figure1_file, capsys):
        assert main(["check", figure1_file, "--json", "--sarif"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_facts_dump(self, figure1_file, capsys):
        assert main(["check", figure1_file, "--facts"]) == 0
        out = capsys.readouterr().out
        assert "inferred facts:" in out
        assert "fly/1" in out and "card" in out


class TestExamplesSmoke:
    """Every shipped example must parse and pass every read-only
    subcommand (the CI analysis job runs ``check`` over the same set)."""

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_check_passes(self, path, capsys):
        assert main(["check", str(path)]) == 0

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_stats_run(self, path, capsys):
        assert main(["stats", str(path)]) == 0
        assert "components" in capsys.readouterr().out

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_lint_reports_or_passes(self, path, capsys):
        # lint may legitimately flag the loan example; it must not crash.
        assert main(["lint", str(path)]) in (0, 1)

    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES}
        assert {"figure1.olp", "figure2.olp", "figure3.olp"} <= names


class TestStrategyFlag:
    def test_run_with_explicit_engine(self, figure1_file, capsys):
        assert main(
            ["run", figure1_file, "-c", "c1", "--strategy", "naive"]
        ) == 0
        assert "fly(pigeon)" in capsys.readouterr().out

    @pytest.mark.parametrize("view", ["eligible", "ineligible"])
    def test_classical_strategy_rejected_by_argparse(self, view, figure1_file, tmp_path, capsys):
        horn = tmp_path / "horn.olp"
        horn.write_text("component c { a. b :- a. }")
        args = [str(horn)] if view == "eligible" else [figure1_file, "-c", "c1"]
        with pytest.raises(SystemExit):
            main(["run", *args, "--strategy", "classical"])
        assert "invalid choice: 'classical'" in capsys.readouterr().err

    def test_unknown_strategy_rejected(self, figure1_file):
        with pytest.raises(SystemExit):
            main(["run", figure1_file, "--strategy", "bogus"])


class TestMetrics:
    def test_run_metrics_report(self, figure1_file, capsys):
        assert main(["run", figure1_file, "-c", "c1", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "fixpoint.stages" in out
        assert "ground.instances_kept" in out

    def test_run_metrics_json(self, figure1_file, capsys):
        import json

        assert main(
            ["run", figure1_file, "-c", "c1", "--json", "--metrics"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = payload["metrics"]
        assert metrics["counters"]["fixpoint.stages"] == 3
        assert "semantics.least_model" in metrics["spans"]

    def test_query_metrics_report(self, figure1_file, capsys):
        assert main(
            ["query", figure1_file, "-c", "c1", "-q", "fly(X)", "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "fly(pigeon)" in out
        assert "== metrics ==" in out

    def test_run_without_metrics_has_no_report(self, figure1_file, capsys):
        assert main(["run", figure1_file, "-c", "c1"]) == 0
        assert "== metrics ==" not in capsys.readouterr().out

    def test_metrics_off_leaves_instrumentation_disabled(self, figure1_file):
        from repro.obs import get_instrumentation

        main(["run", figure1_file, "-c", "c1"])
        assert not get_instrumentation().enabled

    def test_metrics_restores_disabled_state(self, figure1_file):
        from repro.obs import get_instrumentation

        main(["run", figure1_file, "-c", "c1", "--metrics"])
        assert not get_instrumentation().enabled


class TestProfile:
    def test_profile_least(self, figure1_file, capsys):
        assert main(["profile", figure1_file, "-c", "c1"]) == 0
        out = capsys.readouterr().out
        assert "per-phase breakdown" in out
        assert "profile.parse" in out
        assert "profile.ground" in out
        assert "fixpoint.stages" in out
        assert "literals in least model" in out

    def test_profile_stable(self, figure2_file, capsys):
        assert main(
            ["profile", figure2_file, "-c", "c1", "--semantics", "stable"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 stable model(s)" in out
        assert "search.leaves_visited" in out

    def test_profile_json(self, figure1_file, capsys):
        import json

        assert main(["profile", figure1_file, "-c", "c1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["component"] == "c1"
        assert payload["results"]["least"] == 6
        assert payload["metrics"]["counters"]["ground.instances_kept"] == 9

    def test_profile_missing_file(self, capsys):
        assert main(["profile", "/nonexistent.olp"]) == 2


class TestVerbosity:
    def test_verbose_streams_info_events(self, figure1_file, capsys):
        assert main(["run", figure1_file, "-c", "c1", "-v"]) == 0
        err = capsys.readouterr().err
        assert "ground.done" in err
        assert "fixpoint.converged" in err
        # DEBUG events need -vv.
        assert "fixpoint.stage " not in err

    def test_double_verbose_streams_debug_events(self, figure1_file, capsys):
        assert main(["run", figure1_file, "-c", "c1", "-vv"]) == 0
        err = capsys.readouterr().err
        assert "span.end" in err
        assert "fixpoint.stage" in err

    def test_default_has_no_event_stream(self, figure1_file, capsys):
        assert main(["run", figure1_file, "-c", "c1"]) == 0
        assert capsys.readouterr().err == ""

    def test_quiet_silences_events_but_keeps_metrics(self, figure1_file, capsys):
        assert main(
            ["run", figure1_file, "-c", "c1", "--metrics", "--quiet", "-v"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "== metrics ==" in captured.out

    def test_events_jsonl_file(self, figure1_file, tmp_path, capsys):
        import json

        path = tmp_path / "events.jsonl"
        assert main(
            ["run", figure1_file, "-c", "c1", "--events-jsonl", str(path)]
        ) == 0
        lines = path.read_text().strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert any(e["name"] == "ground.done" for e in events)
        assert any(e["name"] == "fixpoint.converged" for e in events)


class TestExplainAndStats:
    def test_explain(self, figure1_file, capsys):
        assert main(["explain", figure1_file, "-c", "c1"]) == 0
        out = capsys.readouterr().out
        assert "rule statuses" in out
        assert "overruling pair" in out

    def test_stats(self, figure1_file, capsys):
        assert main(["stats", figure1_file]) == 0
        assert "2 components" in capsys.readouterr().out
