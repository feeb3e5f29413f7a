"""Unit tests for the grounder: instance generation, guard pruning,
component tagging and caps."""

import pytest

from repro.grounding.grounder import Grounder, GroundingOptions, GroundRule
from repro.lang.errors import GroundingError
from repro.lang.literals import neg, pos
from repro.lang.parser import parse_rules
from repro.obs import trace
from repro.workloads.paper import figure1, figure3


def ground_strs(ground):
    return sorted(str(r) for r in ground.rules)


class TestBasicGrounding:
    def test_ground_facts_pass_through(self):
        ground = Grounder().ground_rules(parse_rules("bird(penguin)."))
        assert len(ground) == 1
        assert ground.rules[0].head == pos("bird", "penguin")
        assert ground.rules[0].is_fact

    def test_rule_instantiated_over_universe(self):
        ground = Grounder().ground_rules(
            parse_rules("fly(X) :- bird(X). bird(a). bird(b).")
        )
        heads = {str(r.head) for r in ground.rules}
        assert heads == {"fly(a)", "fly(b)", "bird(a)", "bird(b)"}

    def test_two_variables_cartesian(self):
        ground = Grounder().ground_rules(
            parse_rules("p(X, Y) :- q(X), r(Y). q(a). r(b).")
        )
        instances = [r for r in ground.rules if r.head.predicate == "p"]
        # X, Y each range over {a, b}
        assert len(instances) == 4

    def test_variable_rule_with_empty_universe(self):
        ground = Grounder().ground_rules(parse_rules("p(X) :- q(X)."))
        assert len(ground) == 0

    def test_duplicate_instances_deduplicated(self):
        ground = Grounder().ground_rules(parse_rules("p(a). p(a)."))
        assert len(ground) == 1

    def test_negative_heads_preserved(self):
        ground = Grounder().ground_rules(parse_rules("-fly(X) :- ga(X). ga(a)."))
        rule = next(r for r in ground.rules if r.head.predicate == "fly")
        assert rule.head == neg("fly", "a")

    def test_function_symbols_with_depth(self):
        options = GroundingOptions(max_depth=1)
        ground = Grounder(options).ground_rules(parse_rules("p(f(X)) :- p(X). p(a)."))
        heads = {str(r.head) for r in ground.rules}
        assert "p(f(a))" in heads
        assert "p(f(f(a)))" in heads  # head over depth-1 term f(a)


class TestGuards:
    def test_guard_prunes_instances(self):
        ground = Grounder().ground_rules(
            parse_rules("t :- p(X), X > 11. p(12). p(5).")
        )
        t_rules = [r for r in ground.rules if r.head.predicate == "t"]
        # Universe is {12, 5, 11}; only X=12 satisfies X > 11.
        assert len(t_rules) == 1
        assert t_rules[0].body == frozenset({pos("p", 12)})

    @pytest.mark.parametrize("n", [10, 20, 40])
    def test_guard_drops_pairs_during_enumeration(self, n):
        # Only X > Y survives; every X <= Y pair is dropped while the
        # join enumerates, never materialised.
        source = "".join(f"v({i}). " for i in range(n)) + "gt(X, Y) :- v(X), v(Y), X > Y."
        with trace("ground") as ctx:
            ground = Grounder().ground_rules(parse_rules(source))
        assert len(ground.rules) == n + n * (n - 1) // 2
        assert ctx.costs["ground_guard_pruned"] == n * (n + 1) // 2

    def test_guards_removed_from_ground_body(self):
        ground = Grounder().ground_rules(parse_rules("t :- p(X), X > 11. p(12)."))
        t_rule = next(r for r in ground.rules if r.head.predicate == "t")
        assert all(hasattr(l, "atom") for l in t_rule.body)

    def test_figure3_guard_instances(self):
        program = figure3(("inflation(19).", "loan_rate(16)."))
        ground = Grounder().ground_component_star(program, "c1")
        expert3 = [
            r
            for r in ground.rules
            if r.component == "c3" and r.head.predicate == "take_loan"
        ]
        # X > Y + 2 over universe {19, 16, 11, 14, 2}
        bodies = {frozenset(map(str, r.body)) for r in expert3}
        assert frozenset({"inflation(19)", "loan_rate(16)"}) in bodies
        for body in bodies:
            inflation = next(int(s.split("(")[1][:-1]) for s in body if "inflation" in s)
            rate = next(int(s.split("(")[1][:-1]) for s in body if "loan_rate" in s)
            assert inflation > rate + 2

    def test_symbolic_guard_treated_false(self):
        # penguin > 11 cannot be evaluated: the instance is dropped.
        ground = Grounder().ground_rules(parse_rules("t :- p(X), X > 11. p(penguin)."))
        assert not [r for r in ground.rules if r.head.predicate == "t"]

    def test_inequality_guard_over_symbols(self):
        ground = Grounder().ground_rules(
            parse_rules("d(X, Y) :- c(X), c(Y), X != Y. c(r). c(b).")
        )
        d_rules = [r for r in ground.rules if r.head.predicate == "d"]
        assert len(d_rules) == 2  # (r,b) and (b,r)


class TestComponentStar:
    def test_component_tags(self):
        ground = Grounder().ground_component_star(figure1(), "c1")
        tags = {r.component for r in ground.rules}
        assert tags == {"c1", "c2"}

    def test_upper_component_sees_only_itself(self):
        ground = Grounder().ground_component_star(figure1(), "c2")
        assert {r.component for r in ground.rules} == {"c2"}

    def test_figure1_ground_count(self):
        ground = Grounder().ground_component_star(figure1(), "c1")
        # c2: 2 facts + 2 rules x 2 constants = 6; c1: 1 fact + 1 rule x 2 = 3
        assert len(ground) == 9

    def test_base_is_full_herbrand_base(self):
        ground = Grounder().ground_component_star(figure1(), "c1")
        assert len(ground.base) == 6

    def test_legacy_restricted_base_payload_restores_the_full_base(self):
        # Dumps written while the base could be restricted to the atoms
        # the rules mention carry ``full_base``; they restore to today's
        # options, whose base is always the full Herbrand base.
        import json

        from repro.kb import KnowledgeBase
        from repro.serialize import dumps_kb, loads_kb

        payload = json.loads(dumps_kb(KnowledgeBase.from_program(figure1())))
        payload["config"]["grounding"]["full_base"] = False
        restored = loads_kb(json.dumps(payload))
        assert restored.grounding == GroundingOptions()
        assert len(restored.view("c1").ground.base) == 6


class TestCapsAndErrors:
    def test_instance_cap(self):
        options = GroundingOptions(instance_cap=3)
        with pytest.raises(GroundingError):
            Grounder(options).ground_rules(
                parse_rules("p(X, Y) :- q(X), q(Y). q(a). q(b).")
            )

    def test_ground_rule_requires_ground_parts(self):
        with pytest.raises(ValueError):
            GroundRule(pos("p", "X"), frozenset(), "c")
        with pytest.raises(ValueError):
            GroundRule(pos("p", "a"), frozenset({pos("q", "X")}), "c")

    def test_ground_rule_equality_includes_component(self):
        r1 = GroundRule(pos("p", "a"), frozenset(), "c1")
        r2 = GroundRule(pos("p", "a"), frozenset(), "c2")
        assert r1 != r2
