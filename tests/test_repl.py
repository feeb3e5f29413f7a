"""Unit tests for the REPL session (driven headlessly)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.repl import ReplSession
from repro.lang.printer import render_program
from repro.workloads.paper import figure1


@pytest.fixture
def session():
    return ReplSession(figure1())


class TestLoadingAndFocus:
    def test_adopts_program_and_focuses_minimal(self, session):
        assert session.focus == "c1"
        assert session.program() == figure1()

    def test_load_file(self, tmp_path):
        path = tmp_path / "f1.olp"
        path.write_text(render_program(figure1()))
        session = ReplSession()
        out = session.execute(f"load {path}")
        assert "focus = c1" in out

    def test_focus_switch(self, session):
        assert session.execute("focus c2") == "focus = c2"
        assert "fly(penguin)" in session.execute("model")

    def test_focus_creates_component(self, session):
        session.execute("focus scratch")
        assert "scratch" in session.program().component_names


class TestMutation:
    def test_bare_rule_asserted_into_focus(self, session):
        out = session.execute("bird(dodo).")
        assert out == "[c1] bird(dodo)."
        assert "fly(dodo)" in session.execute("model")

    def test_assert_into_named_component(self, session):
        session.execute("assert c2 bird(dodo).")
        assert len(session.program().component("c2")) == 5

    def test_order_command(self, session):
        session.execute("focus c0")
        out = session.execute("order c0 < c1")
        assert out == "c0 < c1"
        assert session.program().order.less("c0", "c2")

    def test_cyclic_order_reported(self, session):
        out = session.execute("order c2 < c1")
        assert out.startswith("error:")

    def test_parse_error_reported(self, session):
        out = session.execute("fly( .")
        assert out.startswith("error:")


class TestRetract:
    def test_retract_from_named_component(self, session):
        before = session.execute("model")
        out = session.execute("retract c2 bird(penguin).")
        assert out == "[c2] retracted bird(penguin)."
        assert session.execute("model") != before
        # Telling the fact back restores the exact model.
        session.execute("assert c2 bird(penguin).")
        assert session.execute("model") == before

    def test_retract_defaults_to_focus(self, session):
        session.execute("focus c2")
        session.execute("model")
        assert session.execute("value fly(penguin)") == "T"
        out = session.execute("retract bird(penguin).")
        assert out == "[c2] retracted bird(penguin)."
        assert session.execute("value fly(penguin)") == "U"

    def test_retract_never_told_fact_errors(self, session):
        out = session.execute("retract c2 bird(dodo).")
        assert out.startswith("error:")
        assert "never told" in out

    def test_retract_non_fact_errors(self, session):
        out = session.execute("retract c2 fly(X) :- bird(X).")
        assert out.startswith("error:")
        assert "only ground facts" in out
        out = session.execute("retract")
        assert out.startswith("usage:")

    def test_ground_fact_mutations_keep_the_cached_view(self, session):
        session.execute("model")
        view = session.semantics()
        session.execute("retract c2 bird(penguin).")
        session.execute("assert c2 bird(penguin).")
        assert session.semantics() is view
        # Structural mutations still drop it.
        session.execute("assert c2 swims(X) :- penguin(X).")
        assert session.semantics() is not view


class TestQueries:
    def test_model(self, session):
        out = session.execute("model")
        assert "-fly(penguin)" in out

    def test_value(self, session):
        assert session.execute("value fly(pigeon)") == "T"
        assert session.execute("value fly(penguin)") == "F"

    def test_query_modes(self, session):
        assert session.execute("query fly(X)") == "fly(pigeon)"
        assert session.execute("query fly(X) skeptical") == "fly(pigeon)"
        assert session.execute("query swims(X)") == "no"

    def test_stable(self, session):
        assert "1 stable model(s)" in session.execute("stable")

    def test_why(self, session):
        out = session.execute("why fly(pigeon)")
        assert "via" in out

    def test_statuses(self, session):
        out = session.execute("statuses")
        assert "overruled" in out

    def test_hierarchy(self, session):
        assert "c1 --> c2" in session.execute("hierarchy")

    def test_lint_clean(self, session):
        assert session.execute("lint") == "no findings"


class TestSessionMechanics:
    def test_empty_and_comment_lines(self, session):
        assert session.execute("") == ""
        assert session.execute("% a comment") == ""

    def test_unknown_command(self, session):
        assert "unknown command" in session.execute("frobnicate now")

    def test_help(self, session):
        assert "commands:" in session.execute("help")

    def test_quit_raises_eof(self, session):
        with pytest.raises(EOFError):
            session.execute("quit")

    def test_save_and_show_round_trip(self, session, tmp_path):
        path = tmp_path / "saved.olp"
        session.execute(f"save {path}")
        reloaded = ReplSession()
        reloaded.execute(f"load {path}")
        assert reloaded.program() == session.program()
        assert session.execute("show") == render_program(session.program())

    def test_mutation_invalidates_semantics(self, session):
        assert session.execute("value fly(dodo)") == "U"
        session.execute("bird(dodo).")
        assert session.execute("value fly(dodo)") == "T"


class TestBadPaths:
    def test_missing_file_is_an_error_line(self, session):
        out = session.execute("load /nonexistent.olp")
        assert out.startswith("error:")
        assert "/nonexistent.olp" in out
        # The session keeps its program and focus.
        assert session.focus == "c1"
        assert session.program() == figure1()

    def test_unwritable_save_is_an_error_line(self, session):
        out = session.execute("save /no/such/dir/x.olp")
        assert out.startswith("error:")


class TestOrderAtomicity:
    def test_cyclic_chain_leaves_the_program_unchanged(self, session):
        before = session.execute("model")
        out = session.execute("order new < c2 < c1")
        assert out.startswith("error:")
        assert "creates a cycle" in out
        assert sorted(session.program().component_names) == ["c1", "c2"]
        assert session.program() == figure1()
        assert session.execute("model") == before

    def test_acyclic_chain_defines_and_orders(self, session):
        assert session.execute("order c0 < new < c1") == "c0 < new < c1"
        order = session.program().order
        assert order.less("c0", "new") and order.less("new", "c1")
        assert order.less("c0", "c2")


class TestKnowledgeBaseReads:
    def test_ground_query_on_a_cold_focus_is_offered_to_demand(self, session):
        from repro.obs import get_instrumentation, instrumented

        with instrumented():
            assert session.execute("query fly(pigeon)") == "fly(pigeon)"
            counters = get_instrumentation().snapshot()["counters"]
        assert any(name.startswith("query.demand.") for name in counters)


ROOT = Path(__file__).resolve().parent.parent


def test_interactive_loop_over_a_pipe():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro", "repl", "examples/figure1.olp"],
        input="model\nquery fly(X)\nload /nonexistent.olp\nquit\n",
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "loaded 2 component(s); focus = c1"
    assert any("least model of c1:" in line for line in lines)
    assert any(line.endswith("fly(pigeon)") for line in lines)
    assert any(
        "error: [Errno 2] No such file or directory: '/nonexistent.olp'" in line
        for line in lines
    )
    assert done.stderr == ""
