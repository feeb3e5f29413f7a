"""Unit tests for the static analyzer (`repro.analysis.static`): the
predicate dependency graph, every diagnostic code on a minimal
triggering program, the figures' cleanliness, and the per-view
stratification classification."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.static import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    EdgeKind,
    OrderRelation,
    Severity,
    analyze_program,
    build_pdg,
    classify_view,
    relation_between,
)
from repro.core.semantics import OrderedSemantics
from repro.kb.query import answers_in
from repro.lang.parser import parse_program
from repro.query.api import demand_answers
from repro.workloads.paper import figure1, figure2, figure3

FIGURE3_LOAN = figure3(("inflation(19).", "loan_rate(16)."))

#: One name at two arities, on both sides of a negative edge.
ARITY_VARIANTS = "component c { p(a). q :- -p(a). p :- q. }"


def codes(report, severity=None):
    return {
        d.code
        for d in report.diagnostics
        if severity is None or d.severity == severity
    }


def diags(report, code):
    return [d for d in report.diagnostics if d.code == code]


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_parse(self):
        assert Severity.parse("warning") is Severity.WARNING
        assert Severity.parse("INFO") is Severity.INFO

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Severity.parse("fatal")

    def test_str(self):
        assert str(Severity.WARNING) == "warning"

    def test_every_code_has_a_valid_severity(self):
        for code, severity in DIAGNOSTIC_CODES.items():
            assert Severity.parse(severity) in Severity, code


class TestPDG:
    def test_figure1_nodes(self):
        pdg = build_pdg(figure1())
        fly = pdg.nodes[("fly", 1)]
        assert fly.positive_components == {"c2"}
        assert fly.negative_components == {"c1"}
        assert fly.contradicted
        assert fly.name == "fly/1"
        bird = pdg.nodes[("bird", 1)]
        assert bird.defining_components == {"c2"}
        assert bird.using_components == {"c2"}

    def test_figure1_contradiction_edges_carry_the_order_relation(self):
        pdg = build_pdg(figure1())
        contradictions = {
            e.source: e for e in pdg.contradiction_edges()
        }
        fly = contradictions[("fly", 1)]
        # Positive heads live in c2, above the negative c1 rule.
        assert fly.source_component == "c2"
        assert fly.target_component == "c1"
        assert fly.relation is OrderRelation.ABOVE

    def test_figure2_contradictions_are_incomparable(self):
        pdg = build_pdg(figure2())
        for e in pdg.contradiction_edges():
            assert e.relation is OrderRelation.INCOMPARABLE

    def test_body_edges_relate_definer_to_user(self):
        pdg = build_pdg(FIGURE3_LOAN)
        # inflation is defined in c1, used by the rule in c2; c1 < c2.
        edges = [
            e
            for e in pdg.dependency_edges()
            if e.source == ("inflation", 1) and e.target_component == "c2"
        ]
        assert len(edges) == 1
        assert edges[0].kind is EdgeKind.POSITIVE
        assert edges[0].source_component == "c1"
        assert edges[0].relation is OrderRelation.BELOW

    def test_blocking_edge_kind(self):
        program = parse_program("component c { q. p :- -q. }")
        pdg = build_pdg(program)
        kinds = {e.source: e.kind for e in pdg.dependency_edges()}
        assert kinds[("q", 0)] is EdgeKind.BLOCKING

    def test_recursion_detected_through_scc(self):
        program = parse_program(
            """
            component c {
              parent(a, b).
              anc(X, Y) :- parent(X, Y).
              anc(X, Z) :- parent(X, Y), anc(Y, Z).
            }
            """
        )
        pdg = build_pdg(program)
        assert ("anc", 2) in pdg.recursive
        assert ("parent", 2) not in pdg.recursive
        # parent's SCC feeds anc's SCC in the condensation.
        scc = pdg.scc_index
        assert (scc[("parent", 2)], scc[("anc", 2)]) in pdg.condensation()

    def test_relation_between(self):
        order = figure1().order
        assert relation_between(order, "c1", "c1") is OrderRelation.EQUAL
        assert relation_between(order, "c1", "c2") is OrderRelation.BELOW
        assert relation_between(order, "c2", "c1") is OrderRelation.ABOVE


class TestDiagnosticCodes:
    """Each code on a minimal triggering program (mirrored in
    docs/analysis.md)."""

    def test_unsafe_rule_head_variable(self):
        report = analyze_program(parse_program("component c { p(X). }"))
        (d,) = diags(report, "unsafe-rule")
        assert d.severity is Severity.WARNING
        assert "X" in d.message

    def test_unsafe_rule_negative_body_variable(self):
        report = analyze_program(
            parse_program("component c { q(a). p :- -q(X). }")
        )
        assert len(diags(report, "unsafe-rule")) == 1

    def test_unsafe_rule_guard_variable(self):
        report = analyze_program(
            parse_program("component c { p :- X > 2. }")
        )
        assert len(diags(report, "unsafe-rule")) == 1

    def test_cwa_negative_facts_are_exempt(self):
        # The reductions emit non-ground negative facts as the
        # closed-world assumption; they must not be flagged.
        report = analyze_program(parse_program("component c { -p(X). }"))
        assert not diags(report, "unsafe-rule")

    def test_safe_rule_not_flagged(self):
        report = analyze_program(
            parse_program("component c { q(a). p(X) :- q(X), X > 2. }")
        )
        assert not diags(report, "unsafe-rule")

    def test_undefined_predicate(self):
        report = analyze_program(parse_program("component c { a :- b. }"))
        (d,) = diags(report, "undefined-predicate")
        assert d.severity is Severity.WARNING
        assert "b/0" in d.message

    def test_definition_below_counts_as_defined(self):
        # inflation is headed only in c1 *below* c2, so it is not in
        # C*(c2) — but view c1 contains both components, so the literal
        # is reachable and must not be flagged (the Figure 3 shape).
        report = analyze_program(FIGURE3_LOAN)
        assert not diags(report, "undefined-predicate")

    def test_definition_in_unrelated_component_is_flagged(self):
        report = analyze_program(
            parse_program(
                """
                component c1 { a :- b. }
                component c2 { b. }
                component c3 { x. }
                order c3 < c1.
                """
            )
        )
        (d,) = diags(report, "undefined-predicate")
        assert "c1" in d.location
        assert "only headed in c2" in d.message

    def test_arity_clash(self):
        report = analyze_program(
            parse_program("component c { p(a). p(a, b). }")
        )
        (d,) = diags(report, "arity-clash")
        assert d.severity is Severity.WARNING
        assert "p/1" in d.message and "p/2" in d.message

    def test_unused_head(self):
        report = analyze_program(parse_program("component c { a. b :- a. }"))
        (d,) = diags(report, "unused-head")
        assert d.severity is Severity.INFO
        assert "b/0" in d.location

    def test_contradicted_heads_are_not_unused(self):
        report = analyze_program(figure1())
        assert not any(
            "fly" in d.location for d in diags(report, "unused-head")
        )

    def test_unreachable_component(self):
        report = analyze_program(
            parse_program(
                """
                component c1 { a. }
                component c2 { b. }
                component c3 { c. }
                order c1 < c2.
                """
            )
        )
        (d,) = diags(report, "unreachable-component")
        assert d.severity is Severity.WARNING
        assert "c3" in d.location

    def test_flat_programs_have_no_unreachable_components(self):
        report = analyze_program(
            parse_program("component c1 { a. } component c2 { b. }")
        )
        assert not diags(report, "unreachable-component")

    def test_potential_defeat_incomparable(self):
        report = analyze_program(figure2())
        found = diags(report, "potential-defeat")
        assert {d.severity for d in found} == {Severity.INFO}
        assert any("rich/1" in d.location for d in found)
        assert any("poor/1" in d.location for d in found)

    def test_potential_defeat_same_component(self):
        report = analyze_program(
            parse_program("component c { x. a :- x. -a :- x. }")
        )
        (d,) = diags(report, "potential-defeat")
        assert "within component c" in d.location

    def test_resolved_contradiction_is_not_a_defeat(self):
        report = analyze_program(figure1())
        assert not diags(report, "potential-defeat")

    def test_function_growth(self):
        report = analyze_program(
            parse_program("component c { nat(z). nat(s(X)) :- nat(X). }")
        )
        (d,) = diags(report, "function-growth")
        assert d.severity is Severity.WARNING
        assert "s(X)" in d.message

    def test_nonrecursive_function_symbols_are_fine(self):
        report = analyze_program(
            parse_program("component c { q(a). p(f(X)) :- q(X). }")
        )
        assert not diags(report, "function-growth")

    def test_stratification_diagnostic_per_view(self):
        report = analyze_program(figure1())
        found = diags(report, "stratification")
        assert len(found) == 2
        assert {d.severity for d in found} == {Severity.INFO}


class TestClassification:
    def classification(self, source, component):
        return classify_view(parse_program(source), component)

    def test_positive(self):
        info = self.classification("component c { a. b :- a. }", "c")
        assert info.classification == "positive"
        assert info.routable

    def test_stratified(self):
        info = self.classification("component c { a. b :- -c. c :- a. }", "c")
        assert info.classification == "stratified"
        assert info.routable
        assert info.strata is not None
        assert info.strata[("b", 0)] > info.strata[("c", 0)]

    def test_arity_variants_are_distinct_predicates(self):
        # p/0 and p/1 are different predicates: no cycle runs through
        # the negative edge from p/1 to q.
        info = self.classification(ARITY_VARIANTS, "c")
        assert info.classification == "stratified"
        assert info.routable
        assert info.strata[("p", 1)] < info.strata[("q", 0)]

    @pytest.mark.parametrize("goal", ["p(X)", "p", "q", "-p(X)"])
    def test_arity_variants_demand_matches_materialized(self, goal):
        program = parse_program(ARITY_VARIANTS)
        result = demand_answers(program, "c", goal)
        assert result.used, result.reason
        model = OrderedSemantics(program, "c").least_model
        assert result.answers == answers_in(model, goal)

    def test_locally_stratified(self):
        info = self.classification(
            "component c { q. p(b) :- q. p(a) :- -p(b). }", "c"
        )
        assert info.classification == "locally-stratified"
        assert not info.routable

    def test_unstratified(self):
        info = self.classification("component c { a :- -a. }", "c")
        assert info.classification == "unstratified"

    def test_unresolved_contradiction_is_unstratified(self):
        # Figure 2's defeat trap from the bottom view.
        info = classify_view(figure2(), "c1")
        assert info.classification == "unstratified"
        assert not info.single_component

    def test_resolved_contradiction_stays_stratified(self):
        # Figure 1's override is resolved by the order.
        info = classify_view(figure1(), "c1")
        assert info.classification == "stratified"
        assert info.ineligibility == "the view spans more than one component"

    def test_negative_heads_block_routing(self):
        info = classify_view(figure1(), "c2")
        assert not info.routable
        assert "negative-head" in info.ineligibility


class TestFiguresClean:
    @pytest.mark.parametrize(
        "program",
        [figure1(), figure2(), FIGURE3_LOAN],
        ids=["figure1", "figure2", "figure3"],
    )
    def test_no_warnings_on_the_paper_figures(self, program):
        report = analyze_program(program)
        assert report.gating(Severity.INFO) == ()
        assert not [
            d for d in report.diagnostics if d.severity > Severity.INFO
        ]


class TestReport:
    def test_counts(self):
        report = analyze_program(parse_program("component c { p(X). }"))
        assert report.by_code()["unsafe-rule"] == 1
        assert report.by_severity()["warning"] == 1
        assert report.worst() is Severity.WARNING

    def test_gating_threshold(self):
        report = analyze_program(parse_program("component c { p(X). }"))
        assert len(report.gating(Severity.INFO)) == 1
        assert report.gating(Severity.WARNING) == ()

    def test_to_dict_is_json_serialisable(self):
        report = analyze_program(figure2())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["views"]["c1"]["classification"] == "unstratified"
        assert payload["counts"]["by_code"]["potential-defeat"] == 2
        assert "free_ticket/1" in payload["pdg"]["predicates"]

    def test_render_mentions_every_diagnostic(self):
        report = analyze_program(figure2())
        text = report.render()
        for d in report.diagnostics:
            assert d.code in text
        assert "9 diagnostic(s)" in text

    def test_diagnostic_str(self):
        d = Diagnostic("unsafe-rule", Severity.WARNING, "here", "msg", "fix")
        assert str(d) == "[warning] unsafe-rule at here: msg (fix: fix)"

    def test_obs_counters_emitted(self):
        from repro.obs import instrumented

        with instrumented() as obs:
            analyze_program(figure2())
            counters = obs.snapshot()["counters"]
        assert counters["check.diagnostic.potential-defeat"] == 2
        assert counters["check.diagnostics"] == 9


SEEDED_REPORT = """
import json
from repro.analysis.static import analyze_program
from repro.workloads.sessions import session_program

print(json.dumps(analyze_program(session_program(4, 8)).to_dict(), sort_keys=True))
"""


def report_under(seed: str) -> str:
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=seed)
    paths = [str(root / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run(
        [sys.executable, "-c", SEEDED_REPORT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_report_identical_across_hash_seeds():
    # The SCC list included: Tarjan visits keys in rule order.
    assert report_under("1") == report_under("2")
