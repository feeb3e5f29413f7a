"""Unit tests for 3V(C) — Section 4's exception semantics."""

import pytest

from repro.lang.parser import parse_rules
from repro.reductions.three_level import three_level_version
from repro.workloads.paper import example8_birds, example9_colored


class TestStructure:
    def test_three_components(self):
        reduced = three_level_version(parse_rules("a :- b. -a :- c."))
        assert reduced.program.component_names == {"cpos", "cneg", "cwa"}
        order = reduced.program.order
        assert order.less("cneg", "cpos")
        assert order.less("cpos", "cwa")
        assert order.less("cneg", "cwa")
        assert reduced.component == "cneg"

    def test_rule_split(self):
        reduced = three_level_version(parse_rules("a :- b. -a :- c."))
        pos_heads = {str(r) for r in reduced.program.component("cpos")}
        neg_heads = {str(r) for r in reduced.program.component("cneg")}
        assert "a :- b." in pos_heads
        assert neg_heads == {"-a :- c."}

    def test_reflexive_rules_in_cpos(self):
        reduced = three_level_version(parse_rules("a :- b. -a :- c."))
        rendered = {str(r) for r in reduced.program.component("cpos")}
        assert "a :- a." in rendered and "c :- c." in rendered


class TestExample8:
    def test_unique_stable_model(self):
        sem = three_level_version(example8_birds()).semantics()
        (model,) = sem.stable_models()
        rendered = set(map(str, model.literals))
        assert "-fly(penguin)" in rendered
        assert "fly(pigeon)" in rendered
        assert "-ground_animal(pigeon)" in rendered

    def test_exceptions_beat_generals(self):
        # Every ground animal which is also a bird does not fly.
        sem = three_level_version(
            example8_birds(
                birds=("b0", "b1", "b2"), ground_animals=("b0", "b1")
            )
        ).semantics()
        (model,) = sem.stable_models()
        rendered = set(map(str, model.literals))
        assert {"-fly(b0)", "-fly(b1)", "fly(b2)"} <= rendered


class TestExample9:
    def test_no_ugly_colors_selects_exactly_one(self):
        # Without ugly colours the program is a pure choice: one stable
        # model per colour, each colouring exactly one.
        sem = three_level_version(
            example9_colored(colors=("red", "blue"), ugly=())
        ).semantics()
        models = sem.stable_models()
        assert len(models) == 2
        for m in models:
            colored = [l for l in m if l.positive and l.predicate == "colored"]
            assert len(colored) == 1

    @pytest.mark.parametrize("n_colors", [2, 3, 4])
    def test_one_stable_model_per_colour_left_uncoloured(self, n_colors):
        # Any uncoloured colour is a witness forcing every other colour
        # to be coloured: one stable model per colour, each leaving
        # exactly that one uncoloured (the paper's "select exactly one"
        # gloss only for n = 2).
        colors = tuple(f"c{i}" for i in range(n_colors))
        sem = three_level_version(example9_colored(colors=colors, ugly=())).semantics()
        models = sem.stable_models()
        assert len(models) == n_colors
        for m in models:
            uncolored = [l for l in m if not l.positive and l.predicate == "colored"]
            assert len(uncolored) == 1

    def test_ugly_color_never_selected(self):
        sem = three_level_version(example9_colored()).semantics()
        for m in sem.stable_models():
            assert "-colored(green)" in set(map(str, m.literals))

    def test_paper_gloss_divergence_with_ugly_witness(self):
        """Divergence from the paper's informal gloss, documented in
        EXPERIMENTS.md: with an ugly colour present, its (true) literal
        ``-colored(green)`` is a permanent witness for the choice rule's
        ``-colored(Y)`` body, forcing *every* non-ugly colour to be
        coloured — the formal Definition-10 semantics yields one stable
        model with all non-ugly colours selected, not one model per
        colour."""
        sem = three_level_version(example9_colored()).semantics()
        models = sem.stable_models()
        assert len(models) == 1
        rendered = set(map(str, models[0].literals))
        assert {"colored(red)", "colored(blue)", "-colored(green)"} <= rendered
