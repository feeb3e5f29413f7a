"""Unit tests for the ordered immediate transformation V (Definition 4,
Lemma 1, Proposition 1)."""

import random


from repro.core.interpretation import Interpretation
from repro.core.semantics import OrderedSemantics
from repro.obs import trace
from repro.reductions.ordered_version import ordered_version
from repro.workloads import ancestor_chain, release_chain
from repro.workloads.random_programs import random_ordered_program

from ..conftest import semantics_of


class TestStep:
    def test_first_step_derives_unopposed_facts(self, figure1_semantics):
        v1 = figure1_semantics.transform.step(
            figure1_semantics.interpretation([])
        )
        assert v1.literals == {
            l
            for l in figure1_semantics.interpretation(
                ["bird(penguin)", "bird(pigeon)", "ground_animal(penguin)"]
            )
        }

    def test_blocked_overruler_releases_rule(self, figure1_semantics):
        # After -ground_animal(pigeon) is derived, the potential overruler
        # -fly(pigeon) <- ground_animal(pigeon) becomes blocked and
        # fly(pigeon) is derivable.
        sem = figure1_semantics
        i2 = sem.interpretation(
            ["bird(penguin)", "bird(pigeon)", "ground_animal(penguin)",
             "-ground_animal(pigeon)", "-fly(penguin)"]
        )
        v3 = sem.transform.step(i2)
        assert sem.interpretation(["fly(pigeon)"]).literals <= v3.literals

    def test_mutual_defeat_suppresses_both(self, figure2_semantics):
        sem = figure2_semantics
        v1 = sem.transform.step(sem.interpretation([]))
        assert sem.value("rich(mimmo)").name == "UNDEFINED"
        assert "rich(mimmo)" not in {str(l) for l in v1}
        assert "poor(mimmo)" not in {str(l) for l in v1}


class TestLeastFixpoint:
    def test_figure1_least_model_is_i1(self, figure1_semantics):
        expected = figure1_semantics.interpretation(
            [
                "bird(pigeon)",
                "bird(penguin)",
                "ground_animal(penguin)",
                "-ground_animal(pigeon)",
                "fly(pigeon)",
                "-fly(penguin)",
            ]
        )
        assert figure1_semantics.least_model == expected

    def test_figure2_least_model_empty(self, figure2_semantics):
        assert len(figure2_semantics.least_model) == 0

    def test_least_model_is_model(self, figure1_semantics, figure2_semantics):
        for sem in (figure1_semantics, figure2_semantics):
            assert sem.is_model(sem.least_model)

    def test_least_model_is_fixpoint(self, figure1_semantics):
        assert figure1_semantics.transform.is_fixpoint(
            figure1_semantics.least_model
        )

    def test_monotone_iteration(self, figure1_semantics):
        # The iterates from the empty interpretation form a chain.
        sem = figure1_semantics
        current = sem.interpretation([])
        for _ in range(6):
            nxt = sem.transform.step(current)
            assert current.literals <= nxt.literals
            current = nxt

    def test_model_is_prefixpoint_not_always_fixpoint(self):
        # Example 3: {b} is a model but V({b}) = {} (mutual defeat).
        sem = semantics_of("component c { a :- b. -a :- b. }", "c")
        m = sem.interpretation(["b"])
        assert sem.is_model(m)
        assert sem.transform.is_prefixpoint(m)
        assert not sem.transform.is_fixpoint(m)


class TestMonotonicityRandomized:
    def test_v_is_monotone_on_random_programs(self):
        rng = random.Random(20260706)
        for _trial in range(25):
            program = random_ordered_program(rng, n_atoms=4, n_rules=7)
            name = sorted(program.component_names)[0]
            sem = OrderedSemantics(program, name)
            base = sem.ground.base
            lm = sem.least_model
            # I ⊆ J implies V(I) ⊆ V(J): compare along the fixpoint chain
            # seeded with random consistent subsets of the least model.
            literals = sorted(lm.literals)
            subset = [l for l in literals if rng.random() < 0.5]
            small = Interpretation(subset, base)
            assert sem.transform.step(small).literals <= sem.transform.step(lm).literals

    def test_fixpoint_always_reached(self):
        rng = random.Random(7)
        for _trial in range(25):
            program = random_ordered_program(rng, n_atoms=5, n_rules=9)
            for name in program.component_names:
                sem = OrderedSemantics(program, name)
                assert sem.transform.is_fixpoint(sem.least_model)


def fixpoint_work(sem):
    """Rules the cold ``V↑ω(∅)`` looked at, in the cost digest: naive
    iteration scans every rule each stage, the dense kernel touches
    only the watch lists a new literal wakes.  Grounding and index
    compilation happen before the traced region."""
    _ = sem.evaluator.index
    with trace("least fixpoint") as ctx:
        sem.transform.least_fixpoint()
    return ctx.costs.get("rules_scanned", 0) + ctx.costs.get("rules_touched", 0), ctx.costs


class TestDenseKernelWork:
    """The dense kernel does at most a tenth of naive ``V``'s work,
    counted, so the gate holds on any host."""

    def test_release_chain(self):
        depth = 16
        naive, _ = fixpoint_work(OrderedSemantics(release_chain(depth), "threats", strategy="naive"))
        dense, costs = fixpoint_work(OrderedSemantics(release_chain(depth), "threats"))
        assert costs["fixpoint_stages"] == 2 * depth + 1
        assert 0 < dense <= 6 * depth + 2
        assert naive >= 10 * dense, (naive, dense)

    def test_ancestor_chain_under_ov(self):
        rules = ancestor_chain(8)
        naive, _ = fixpoint_work(ordered_version(rules).semantics(strategy="naive"))
        sem = ordered_version(rules).semantics()
        dense, costs = fixpoint_work(sem)
        # The CWA component decides every atom: the least model is total.
        assert costs["literals_derived"] == len(sem.ground.base)
        assert naive >= 10 * dense, (naive, dense)
