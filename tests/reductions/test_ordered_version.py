"""Unit tests for OV(C) — structure and the Section-3 anchor examples."""

import pytest

from repro.classical.positive import minimal_model
from repro.classical.wellfounded import well_founded
from repro.core.interpretation import Interpretation
from repro.core.solver import SearchBudget
from repro.grounding.grounder import Grounder
from repro.lang.literals import pos
from repro.lang.parser import parse_rules
from repro.reductions.ordered_version import cwa_rules, ordered_version
from repro.workloads.classic import ancestor_chain, two_stable, win_move
from repro.workloads.paper import example6_ancestor, example7


class TestStructure:
    def test_two_components(self):
        reduced = ordered_version(parse_rules("a :- b."))
        assert reduced.program.component_names == {"c", "cwa"}
        assert reduced.program.order.less("c", "cwa")
        assert reduced.component == "c"

    def test_cwa_rules_cover_signatures(self):
        rules = cwa_rules({("p", 2), ("q", 0)})
        rendered = sorted(str(r) for r in rules)
        assert rendered == ["-p(X1, X2).", "-q."]

    def test_cwa_rules_are_negative_facts(self):
        for r in cwa_rules({("p", 1)}):
            assert r.has_negative_head and not r.body


class TestExample7:
    """C = {p <- -p}: {p} is a 3-valued model of C but NOT a model of
    OV(C) in C."""

    def test_p_not_a_model_of_ov(self):
        sem = ordered_version(example7()).semantics()
        m = Interpretation([pos("p")], sem.ground.base)
        assert not sem.is_model(m)

    def test_reason_is_unoverruled_cwa(self):
        sem = ordered_version(example7()).semantics()
        m = sem.interpretation(["p"])
        why = sem.checker.why_not_model(m)
        assert "condition (a)" in why

    def test_least_model_leaves_p_undefined(self):
        sem = ordered_version(example7()).semantics()
        assert sem.undefined("p")


class TestAncestorExample6:
    def test_cwa_closes_the_relation(self):
        sem = ordered_version(example6_ancestor()).semantics()
        assert sem.holds("anc(adam, enoch)")
        assert sem.holds("-anc(enoch, adam)")
        assert sem.holds("-parent(abel, cain)")

    def test_least_model_total(self):
        sem = ordered_version(example6_ancestor()).semantics()
        assert sem.least_model.is_total

    def test_positive_part_is_minimal_model(self):
        rules = example6_ancestor()
        sem = ordered_version(rules).semantics()
        classical = minimal_model(Grounder().ground_rules(rules).rules)
        assert sem.least_model.true_atoms() == classical

    @pytest.mark.parametrize("length", [4, 8, 12])
    def test_chain_closure_is_total_and_classical(self, length):
        rules = ancestor_chain(length)
        model = ordered_version(rules).semantics().least_model
        assert model.is_total
        assert model.true_atoms() == minimal_model(Grounder().ground_rules(rules).rules)
        anc = [l for l in model if l.positive and l.predicate == "anc"]
        assert len(anc) == length * (length + 1) // 2


class TestWinMove:
    @pytest.mark.parametrize("chain", [3, 5, 7])
    def test_least_model_is_the_well_founded_model(self, chain):
        rules = win_move(chain)
        ground = Grounder().ground_rules(rules)
        wf = well_founded(ground.rules, ground.base)
        model = ordered_version(rules).semantics().least_model
        assert model.true_atoms() == wf.true_atoms
        assert model.false_atoms() == wf.false_atoms

    @pytest.mark.parametrize("cycle", [3, 5])
    def test_odd_cycle_has_stable_models_but_no_total_one(self, cycle):
        stable = ordered_version(win_move(1, cycle=cycle)).semantics().stable_models()
        assert stable
        assert not any(m.is_total for m in stable)


class TestChoiceFamily:
    @pytest.mark.parametrize("n_pairs", [2, 3, 4])
    def test_two_to_the_pairs_total_stable_models(self, n_pairs):
        sem = ordered_version(two_stable(n_pairs)).semantics(
            budget=SearchBudget(max_leaves=10**9)
        )
        stable = sem.stable_models()
        assert len(stable) == 2**n_pairs
        assert all(m.is_total for m in stable)
