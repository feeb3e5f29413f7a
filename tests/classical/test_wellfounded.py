"""Unit tests for the well-founded semantics (alternating fixpoint)."""

import pytest

from repro.classical.stable import is_gl_stable
from repro.classical.wellfounded import well_founded
from repro.grounding.grounder import Grounder
from repro.lang.literals import Atom
from repro.lang.parser import parse_rules
from repro.workloads.classic import two_stable, win_move


def ground(source):
    return Grounder().ground_rules(parse_rules(source))


def atoms(names):
    return {Atom(n) for n in names}


class TestBasics:
    def test_definite_program(self):
        g = ground("a. b :- a. c :- zap.")
        wf = well_founded(g.rules, g.base)
        assert wf.true_atoms == atoms(["a", "b"])
        assert Atom("c") in wf.false_atoms
        assert wf.is_total

    def test_negation_as_failure(self):
        g = ground("a :- -b.")
        wf = well_founded(g.rules, g.base)
        assert wf.true_atoms == atoms(["a"])
        assert wf.false_atoms == atoms(["b"])

    def test_p_not_p_undefined(self):
        g = ground("p :- -p.")
        wf = well_founded(g.rules, g.base)
        assert wf.undefined_atoms == atoms(["p"])
        assert not wf.is_total

    def test_choice_pair_undefined(self):
        g = ground("a :- -b. b :- -a.")
        wf = well_founded(g.rules, g.base)
        assert wf.undefined_atoms == atoms(["a", "b"])

    def test_positive_loop_false(self):
        g = ground("a :- b. b :- a.")
        wf = well_founded(g.rules, g.base)
        assert wf.false_atoms == atoms(["a", "b"])


class TestWinMove:
    def test_chain_alternation(self):
        g = Grounder().ground_rules(win_move(4))
        wf = well_founded(g.rules, g.base)
        wins = {str(a) for a in wf.true_atoms if a.predicate == "win"}
        losses = {str(a) for a in wf.false_atoms if a.predicate == "win"}
        assert wins == {"win(n1)", "win(n3)"}
        assert {"win(n0)", "win(n2)", "win(n4)"} <= losses
        assert wf.is_total

    def test_cycle_leaves_undefined(self):
        g = Grounder().ground_rules(win_move(2, cycle=3))
        wf = well_founded(g.rules, g.base)
        undefined = {str(a) for a in wf.undefined_atoms if a.predicate == "win"}
        assert undefined == {"win(m0)", "win(m1)", "win(m2)"}

    def test_even_cycle_undefined_too(self):
        g = Grounder().ground_rules(win_move(1, cycle=2))
        wf = well_founded(g.rules, g.base)
        undefined = {str(a) for a in wf.undefined_atoms if a.predicate == "win"}
        assert undefined == {"win(m0)", "win(m1)"}

    @pytest.mark.parametrize("chain", [8, 16, 32])
    def test_half_the_chain_wins_and_the_model_is_stable(self, chain):
        g = Grounder().ground_rules(win_move(chain))
        wf = well_founded(g.rules, g.base)
        assert wf.is_total
        assert sum(1 for a in wf.true_atoms if a.predicate == "win") == chain // 2
        # A total well-founded model is the unique GL stable model.
        assert is_gl_stable(g.rules, wf.true_atoms)


class TestRelationToStable:
    def test_wf_true_in_every_gl_stable_model(self):
        from repro.classical.stable import gl_stable_models

        g = Grounder().ground_rules(two_stable(2))
        wf = well_founded(g.rules, g.base)
        for m in gl_stable_models(g.rules, g.base):
            assert wf.true_atoms <= m.true_atoms()
            assert not (wf.false_atoms & m.true_atoms())

    def test_wf_undefined_on_two_stable(self):
        g = Grounder().ground_rules(two_stable(2))
        wf = well_founded(g.rules, g.base)
        assert len(wf.undefined_atoms) == 4

    def test_as_interpretation(self):
        g = ground("a :- -b.")
        wf = well_founded(g.rules, g.base)
        interp = wf.as_interpretation(g.base)
        assert interp.is_total
