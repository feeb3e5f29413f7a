"""Unit tests for derivation traces and failure analysis."""

import pytest

from repro.core.interpretation import TruthValue
from repro.core.semantics import OrderedSemantics
from repro.explain.trace import Explainer
from repro.lang.errors import SemanticsError
from repro.workloads import release_chain
from repro.workloads.paper import figure1, figure2, figure3

from ..conftest import semantics_of


@pytest.fixture
def f1_explainer():
    return Explainer(OrderedSemantics(figure1(), "c1"))


class TestWhy:
    def test_fact_derivation(self, f1_explainer):
        derivation = f1_explainer.why("bird(pigeon)")
        assert derivation.stage == 1
        assert derivation.rule.is_fact
        assert derivation.premises == ()

    def test_chained_derivation(self, f1_explainer):
        derivation = f1_explainer.why("-fly(penguin)")
        assert str(derivation.rule.head) == "-fly(penguin)"
        (premise,) = derivation.premises
        assert str(premise.literal) == "ground_animal(penguin)"
        assert premise.stage < derivation.stage

    def test_blocked_overruler_delays_stage(self, f1_explainer):
        # fly(pigeon) waits for -ground_animal(pigeon) to block the
        # exception, so it lands at stage 3.
        derivation = f1_explainer.why("fly(pigeon)")
        assert derivation.stage == 3

    def test_premise_stages_strictly_decrease(self, f1_explainer):
        def check(node):
            for premise in node.premises:
                assert premise.stage < node.stage
                check(premise)

        check(f1_explainer.why("fly(pigeon)"))

    def test_why_rejects_non_members(self, f1_explainer):
        with pytest.raises(ValueError):
            f1_explainer.why("fly(penguin)")

    def test_render_mentions_stages(self, f1_explainer):
        text = f1_explainer.why("fly(pigeon)").render()
        assert "[stage 3]" in text
        assert "bird(pigeon)" in text

    def test_shared_premise_is_one_node(self):
        explainer = Explainer(semantics_of("component c { a. b :- a. d :- a, b. }", "c"))
        a, b = explainer.why("d").premises
        assert str(a.literal) == "a" and str(b.literal) == "b"
        assert b.premises[0] is a

    def test_deep_derivation_builds_and_renders(self):
        # Stage 2049 (each level waits a stage for its overruler to be
        # blocked) through a chain of 1025 nodes, deeper than the
        # interpreter's recursion limit.  (No ``==`` on the tree: the
        # dataclass equality recurses.)
        sem = OrderedSemantics(release_chain(1024), "threats")
        derivation = Explainer(sem).why("p(1024)")
        assert derivation.stage == 2049
        depth, node = 1, derivation
        while node.premises:
            (node,) = node.premises
            depth += 1
        assert depth == 1025
        assert str(node.literal) == "p(0)" and node.stage == 1
        lines = derivation.render().splitlines()
        assert len(lines) == 1025
        assert lines[0].startswith("p(1024)  [stage 2049]")
        assert lines[-1].startswith(" " * 2048 + "p(0)  [stage 1]")


class TestWhyNot:
    def test_unmet_body_of_an_instance_the_least_model_never_needed(self):
        # owns(p0, n1_3) has two instances in ground(C*), through
        # owner(p0, n0_0) and owner(p0, n1_0); relevance grounding emits
        # neither (p0 owns nothing in tree 1), and the explanation must
        # still name the unmet body literal of each.
        from repro.workloads import forest_program

        sem = OrderedSemantics(forest_program(2, 3), "main")
        assert not any(
            str(r.head) == "owns(p0, n1_3)" for r in sem.ground.rules
        )
        report = Explainer(sem).why_not("owns(p0, n1_3)")
        assert report.value is TruthValue.UNDEFINED
        assert report.failures
        assert {f.reason for f in report.failures} == {"unmet-body"}
        witnesses = {str(f.witness) for f in report.failures}
        assert "ancestor(n0_0, n1_3)" in witnesses
        assert "owner(p0, n1_0)" in witnesses

    def test_false_literal_points_at_complement(self, f1_explainer):
        report = f1_explainer.why_not("fly(penguin)")
        assert report.value is TruthValue.FALSE
        assert report.complement_derivation is not None
        assert str(report.complement_derivation.literal) == "-fly(penguin)"

    def test_overruled_failure(self, f1_explainer):
        report = f1_explainer.why_not("fly(penguin)")
        reasons = {f.reason for f in report.failures}
        assert "overruled" in reasons

    def test_defeat_failure(self):
        explainer = Explainer(OrderedSemantics(figure2(), "c1"))
        report = explainer.why_not("rich(mimmo)")
        assert report.value is TruthValue.UNDEFINED
        assert any(f.reason == "defeated" for f in report.failures)

    def test_unmet_body_failure(self):
        explainer = Explainer(OrderedSemantics(figure3(()), "c1"))
        report = explainer.why_not("take_loan")
        assert report.failures
        assert all(f.reason in ("unmet-body", "defeated") for f in report.failures)

    def test_blocked_failure(self, f1_explainer):
        report = f1_explainer.why_not("-fly(pigeon)")
        assert any(f.reason == "blocked" for f in report.failures)

    def test_headless_literal(self):
        explainer = Explainer(semantics_of("component c { a :- b. }", "c"))
        report = explainer.why_not("b")
        assert report.failures == ()
        assert "no ground rule" in report.render()

    def test_why_not_rejects_members(self, f1_explainer):
        with pytest.raises(ValueError):
            f1_explainer.why_not("fly(pigeon)")


class TestFailureRendering:
    """Rendering of RuleFailure / NonDerivation — the strings that back
    the observability event payloads."""

    def test_unmet_body_rendering(self):
        explainer = Explainer(figure3_sem())
        report = explainer.why_not("take_loan")
        unmet = [f for f in report.failures if f.reason == "unmet-body"]
        assert unmet
        text = str(unmet[0])
        assert "is not established" in text
        assert str(unmet[0].witness) in text

    def test_blocked_rendering(self, f1_explainer):
        report = f1_explainer.why_not("-fly(pigeon)")
        blocked = [f for f in report.failures if f.reason == "blocked"]
        assert blocked
        text = str(blocked[0])
        assert "blocked:" in text
        assert str(blocked[0].witness) in text

    def test_overruled_rendering(self, f1_explainer):
        report = f1_explainer.why_not("fly(penguin)")
        overruled = [f for f in report.failures if f.reason == "overruled"]
        assert overruled
        text = str(overruled[0])
        assert "overruled by" in text
        # The witness is the opposing ground rule, rendered inline.
        assert str(overruled[0].witness) in text

    def test_defeated_rendering(self):
        explainer = Explainer(OrderedSemantics(figure2(), "c1"))
        report = explainer.why_not("rich(mimmo)")
        defeated = [f for f in report.failures if f.reason == "defeated"]
        assert defeated
        assert "defeated by" in str(defeated[0])

    def test_fallback_reason_rendering(self):
        from repro.explain.trace import RuleFailure
        from repro.grounding.grounder import GroundRule
        from repro.lang.literals import Atom, Literal

        r = GroundRule(Literal(Atom("p", ()), True), frozenset(), "c")
        failure = RuleFailure(r, "not fired (no failing condition found)", None)
        assert "not fired" in str(failure)

    def test_non_derivation_render_undefined(self):
        explainer = Explainer(OrderedSemantics(figure2(), "c1"))
        text = explainer.why_not("rich(mimmo)").render()
        assert "rich(mimmo) is U in the least model" in text
        assert "defeated by" in text

    def test_non_derivation_render_false_shows_complement(self, f1_explainer):
        text = f1_explainer.why_not("fly(penguin)").render()
        assert "its complement is derived:" in text
        assert "-fly(penguin)" in text

    def test_non_derivation_render_headless(self):
        explainer = Explainer(semantics_of("component c { a :- b. }", "c"))
        text = explainer.why_not("b").render()
        assert "no ground rule has this head" in text
        # The headless branch must not claim a complement derivation.
        assert "complement" not in text


def figure3_sem():
    return OrderedSemantics(figure3(()), "c1")


class TestReductions:
    def test_cwa_derivation_through_ov(self):
        from repro.reductions import ordered_version
        from repro.workloads.paper import example6_ancestor

        sem = ordered_version(example6_ancestor()).semantics()
        explainer = Explainer(sem)
        derivation = explainer.why("-anc(enoch, adam)")
        # The negative fact comes from the CWA component's schema rule.
        assert derivation.rule.component == "cwa"
        assert derivation.rule.is_fact

    def test_overruled_cwa_explained(self):
        from repro.reductions import ordered_version
        from repro.workloads.paper import example6_ancestor

        sem = ordered_version(example6_ancestor()).semantics()
        explainer = Explainer(sem)
        report = explainer.why_not("-anc(adam, cain)")
        assert report.complement_derivation is not None
        assert any(f.reason == "overruled" for f in report.failures)


class TestExplain:
    def test_explain_dispatches(self, f1_explainer):
        assert "via" in f1_explainer.explain("fly(pigeon)")
        assert "overruled" in f1_explainer.explain("fly(penguin)")

    @pytest.mark.parametrize("method", ["why", "why_not", "explain"])
    def test_non_ground_literal_is_rejected(self, f1_explainer, method):
        with pytest.raises(SemanticsError, match="ground"):
            getattr(f1_explainer, method)("fly(X)")

    def test_every_least_model_literal_has_support(self, f1_explainer):
        sem = OrderedSemantics(figure1(), "c1")
        for literal in sem.least_model:
            derivation = f1_explainer.why(literal)
            assert derivation.literal == literal
