"""Unit tests for the workload generators."""

import random

import pytest

from repro.core.semantics import OrderedSemantics
from repro.grounding.grounder import Grounder
from repro.workloads import (
    ancestor_chain,
    diamond,
    even_odd,
    override_chain,
    random_negative_rules,
    random_ordered_program,
    random_rules,
    random_seminegative_rules,
    release_chain,
    taxonomy,
    two_stable,
    win_move,
)
from repro.workloads.paper import scaled_figure1, scaled_figure2

from ..conftest import dense_run


class TestOverrideChain:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 5])
    def test_parity(self, depth):
        sem = OrderedSemantics(override_chain(depth), "c0")
        if depth % 2 == 0:
            assert sem.holds("p(a)")
        else:
            assert sem.holds("-p(a)")

    def test_intermediate_components(self):
        program = override_chain(3)
        # At c1, the view is c1 < c2 < c3: parity from c1's sign.
        sem = OrderedSemantics(program, "c1")
        assert sem.holds("p(a)")

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            override_chain(-1)


class TestReleaseChain:
    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_every_level_eventually_released(self, depth):
        sem = OrderedSemantics(release_chain(depth), "threats")
        model = sem.least_model
        assert len(model) == 2 * depth + 1
        for i in range(depth + 1):
            assert sem.holds(f"p({i})")
        for i in range(1, depth + 1):
            assert sem.holds(f"-q({i})")

    def test_one_release_every_two_stages(self):
        depth = 5
        sem = OrderedSemantics(release_chain(depth), "threats")
        _, _, stage_deltas = dense_run(sem)
        assert len(stage_deltas) == 2 * depth + 1
        assert all(len(delta) == 1 for delta in stage_deltas)

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            release_chain(0)


class TestDiamond:
    def test_defeat_at_bottom(self):
        sem = OrderedSemantics(diamond(2), "bottom")
        assert sem.holds("q(v0)")
        assert sem.undefined("p(v0)")
        assert sem.undefined("p(v1)")

    def test_left_view_is_decided(self):
        sem = OrderedSemantics(diamond(1), "left")
        assert sem.holds("p(v0)")

    def test_right_view_is_decided(self):
        sem = OrderedSemantics(diamond(1), "right")
        assert sem.holds("-p(v0)")

    def test_size_validation(self):
        with pytest.raises(ValueError):
            diamond(0)


class TestTaxonomy:
    def test_exceptions_and_defaults(self):
        sem = OrderedSemantics(taxonomy(6, 2), "specific")
        assert sem.holds("swims(s0)")
        assert sem.holds("swims(s1)")
        for i in range(2, 6):
            assert sem.holds(f"-swims(s{i})")
        assert all(sem.holds(f"moves(s{i})") for i in range(6))
        assert sem.least_model.is_total

    def test_validation(self):
        with pytest.raises(ValueError):
            taxonomy(2, 3)


class TestClassicPrograms:
    def test_ancestor_chain_count(self):
        g = Grounder().ground_rules(ancestor_chain(4))
        from repro.classical.positive import minimal_model

        model = minimal_model(g.rules)
        assert sum(1 for a in model if a.predicate == "anc") == 10

    def test_win_move_shape(self):
        rules = win_move(3, cycle=2)
        heads = {r.head.predicate for r in rules}
        assert heads == {"move", "win"}

    def test_even_odd_stratified(self):
        from repro.classical.stratified import is_stratified

        assert is_stratified(even_odd(3))

    def test_two_stable_not_stratified(self):
        from repro.classical.stratified import is_stratified

        assert not is_stratified(two_stable(2))

    def test_validations(self):
        for factory in (ancestor_chain, win_move, even_odd, two_stable):
            with pytest.raises(ValueError):
                factory(0)


class TestScaledFigures:
    def test_scaled_figure1_validation(self):
        with pytest.raises(ValueError):
            scaled_figure1(2, 3)

    def test_scaled_figure2_validation(self):
        with pytest.raises(ValueError):
            scaled_figure2(2, 3)


class TestRandomGenerators:
    def test_deterministic_given_seed(self):
        a = random_rules(random.Random(42), 4, 6)
        b = random_rules(random.Random(42), 4, 6)
        assert a == b

    def test_seminegative_heads_positive(self):
        rules = random_seminegative_rules(random.Random(1), 4, 10)
        assert all(r.head.positive for r in rules)

    def test_negative_program_has_negative_rule(self):
        for seed in range(10):
            rules = random_negative_rules(random.Random(seed), 3, 4)
            assert any(not r.head.positive for r in rules)

    def test_ordered_program_structure(self):
        program = random_ordered_program(random.Random(7), n_components=3)
        assert len(program) == 3
        # Semantics is computable from every component.
        for name in program.component_names:
            _ = OrderedSemantics(program, name).least_model
