"""Unit tests for EV(C): reflexive rules and Proposition 5 anchors."""

from repro.core.interpretation import Interpretation
from repro.lang.literals import pos
from repro.lang.parser import parse_rules
from repro.reductions.extended_version import extended_version, reflexive_rules
from repro.reductions.ordered_version import ordered_version
from repro.workloads.paper import example7


class TestStructure:
    def test_reflexive_rules(self):
        rules = reflexive_rules({("p", 1), ("q", 0)})
        assert sorted(str(r) for r in rules) == ["p(X1) :- p(X1).", "q :- q."]

    def test_program_component_contains_reflexives(self):
        reduced = extended_version(parse_rules("a :- b."))
        component = reduced.program.component("c")
        rendered = {str(r) for r in component.rules}
        assert "a :- a." in rendered
        assert "b :- b." in rendered


class TestProposition5Anchors:
    def test_example7_p_is_model_of_ev(self):
        sem = extended_version(example7()).semantics()
        m = Interpretation([pos("p")], sem.ground.base)
        assert sem.is_model(m)

    def test_example7_p_is_not_af_in_ev(self):
        # The reflexive rule shields {p} but cannot ground it.
        sem = extended_version(example7()).semantics()
        m = Interpretation([pos("p")], sem.ground.base)
        assert not sem.assumptions.is_assumption_free(m)

    def test_stable_models_agree_between_ov_and_ev(self):
        for source in (
            "a :- -b. b :- -a.",
            "p :- -p.",
            "a. b :- a, -c.",
            "move(m0, m1). move(m1, m0). win(X) :- move(X, Y), -win(Y).",
        ):
            rules = parse_rules(source)
            ov_stable = {
                m.literals for m in ordered_version(rules).semantics().stable_models()
            }
            ev_stable = {
                m.literals for m in extended_version(rules).semantics().stable_models()
            }
            assert ov_stable == ev_stable, source

    def test_ov_models_are_ev_models(self):
        rules = parse_rules("a :- -b.")
        ov = ordered_version(rules).semantics()
        ev = extended_version(rules).semantics()
        for m in ov.models():
            assert ev.is_model(Interpretation(m.literals, ev.ground.base))

    def test_ev_admits_more_models(self):
        rules = example7()
        ov = ordered_version(rules).semantics()
        ev = extended_version(rules).semantics()
        assert len(ev.models()) > len(ov.models())
