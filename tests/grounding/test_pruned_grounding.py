"""Unit tests for relevance grounding: what
``Grounder().ground_component_star(program, view)`` emits by default,
against the full instantiation it is a subset of (``full=True``)."""

from __future__ import annotations

import pytest

from repro.core.semantics import OrderedSemantics
from repro.core.transform import OrderedTransform
from repro.grounding.grounder import Grounder, GroundingOptions
from repro.lang.errors import GroundingError
from repro.lang.parser import parse_program, parse_rules
from repro.lang.program import ASSERT, RETRACT, OrderedProgram
from repro.obs import instrumented
from repro.workloads import forest_program, release_chain, session_program
from repro.workloads.classic import ancestor_chain, sparse_pairs
from repro.workloads.paper import figure1


single = OrderedProgram.single


def ground_both(program, view="main", options=GroundingOptions()):
    relevant = Grounder(options).ground_component_star(program, view)
    full = Grounder(options).ground_component_star(program, view, full=True)
    return relevant, full


def instances(ground):
    return {(r.component, r.head, r.body) for r in ground.rules}


def naive_over_full(program, view, options=GroundingOptions()):
    """The oracle: naive ``V`` iteration over the full instantiation."""
    sem = OrderedSemantics(program, view, grounding=options, strategy="naive")
    return OrderedTransform(
        sem.full_evaluator, sem.full_ground.base, strategy="naive"
    ).least_fixpoint()


def counted(program, view="main", **kwargs):
    with instrumented() as obs:
        ground = Grounder().ground_component_star(program, view, **kwargs)
        return ground, obs.snapshot()["counters"]


class TestDomainRestriction:
    def test_sparse_join_restricted_to_inferred_sort(self):
        relevant, full = ground_both(single(sparse_pairs(10, 2)))
        # 12 facts + 4 join instances; the full grounding carries the
        # 100-instance join and the 10 ghost instances too.
        assert len(relevant.rules) == 16
        assert len(full.rules) == 122
        assert full.pruned_rules == 0
        assert relevant.pruned_rules == 2

    def test_pruned_is_subset_of_full(self):
        relevant, full = ground_both(single(sparse_pairs(8, 3)))
        assert instances(relevant) < instances(full)
        assert relevant.base == full.base

    def test_dead_rule_counter(self):
        program = single(
            parse_rules("v(1). none(X) :- v(X), X > 9. use(X) :- none(X), v(X).")
        )
        ground, counters = counted(program)
        # Both the guard-emptied rule and its consumer are left empty.
        assert ground.pruned_rules == 2
        assert counters["grounding.pruned_rules"] == 2

    def test_contradicted_heads_are_never_pruned(self):
        # fly/¬fly contradict each other: their instances can overrule
        # or defeat while merely non-blocked, so both sides are
        # instantiated in full.
        relevant, full = ground_both(figure1(), "c1")
        assert {i for i in instances(relevant) if i[1].predicate == "fly"} == {
            i for i in instances(full) if i[1].predicate == "fly"
        }

    def test_full_instantiation_on_request(self):
        program = single(sparse_pairs(6, 2))
        full = Grounder().ground_component_star(program, "main", full=True)
        assert full.pruned_rules == 0
        # A classical program's consumers read negative body literals as
        # negation as failure: ground_rules is always the full product.
        classical = Grounder().ground_rules(sparse_pairs(6, 2))
        assert classical.pruned_rules == 0
        assert instances(classical) == instances(full)


class TestComponentStar:
    def test_component_star_prunes(self):
        relevant, full = ground_both(single(sparse_pairs(10, 2)))
        assert len(relevant.rules) < len(full.rules)
        assert relevant.pruned_rules == 2

    def test_prune_safety_is_per_view(self):
        # c2 alone sees no rule for -p: p(X) :- q(X) is prune-safe there.
        # c1 also sees -p(X) :- r(X), so it needs every p instance.
        program = parse_program(
            """
            component c2 { q(a). d(b). p(X) :- q(X). }
            component c1 { -p(X) :- r(X). }
            order c1 < c2.
            """
        )
        upper = Grounder().ground_component_star(program, "c2")
        lower = Grounder().ground_component_star(program, "c1")
        assert {str(r) for r in upper.rules if r.head.predicate == "p"} == {
            "[c2] p(a) :- q(a)."
        }
        assert {str(r) for r in lower.rules if r.head.predicate == "p"} == {
            "[c2] p(a) :- q(a).",
            "[c2] p(b) :- q(b).",
            "[c1] -p(a) :- r(a).",
            "[c1] -p(b) :- r(b).",
        }

    def test_body_fed_by_contradicted_rules(self):
        # -q is headed by a non-prune-safe rule; its possible literals
        # still feed the prune-safe consumer.
        program = single(parse_rules("d(a). d(b). q(a). -q(X) :- d(X). s(X) :- -q(X)."))
        relevant, _ = ground_both(program)
        assert {str(r) for r in relevant.rules if r.head.predicate == "s"} == {
            "[main] s(a) :- -q(a).",
            "[main] s(b) :- -q(b).",
        }
        assert (
            OrderedSemantics(program, "main").least_model.literals
            == naive_over_full(program, "main").literals
        )


class TestClassicWorkloads:
    @pytest.mark.parametrize(
        "program",
        [
            forest_program(2, 3),
            single(sparse_pairs(60, 3)),
            single(ancestor_chain(16)),
        ],
        ids=["forest", "sparse_pairs", "ancestor"],
    )
    def test_substitutions_drop_tenfold(self, program):
        relevant, relevant_counters = counted(program)
        full, full_counters = counted(program, full=True)
        assert (
            10 * relevant_counters["ground.substitutions_tried"]
            <= full_counters["ground.substitutions_tried"]
        )
        assert instances(relevant) <= instances(full)
        assert (
            OrderedSemantics(program, "main").least_model.literals
            == naive_over_full(program, "main").literals
        )

    def test_long_ground_chain_is_linear(self):
        # A ground ladder feeding one prune-safe rule with a variable:
        # every link of the chain becomes possible one after the other.
        # Waking rules per predicate would probe all n rules at each of
        # the n links; watching the exact ground literal probes each once.
        n = 512
        lines = ["p(0)."] + [f"p({i}) :- p({i - 1})." for i in range(1, n + 1)]
        lines.append("reached(X) :- p(X).")
        program = single(parse_rules("\n".join(lines)))
        ground, counters = counted(program)
        assert len(ground.rules) == 2 * (n + 1)
        assert counters["ground.substitutions_tried"] <= 4 * counters["ground.source_rules"]

    def test_release_chain_probes_are_linear(self):
        program = release_chain(1024)
        ground, counters = counted(program, "threats")
        assert len(ground.rules) == 3 * 1024 + 1
        source_rules = counters["ground.source_rules"]
        assert counters.get("ground.substitutions_tried", 0) <= 2 * source_rules


class TestInstantiationCorners:
    def test_variable_free_guard_is_decided_before_enumeration(self):
        rules = "q(a). q(b). q(c). p(X, Y) :- q(X), 1 > 2."
        for program_counters in (
            counted(single(parse_rules(rules))),
            counted(single(parse_rules(rules)), full=True),
        ):
            ground, counters = program_counters
            assert len(ground.rules) == 3
            # One (empty) substitution per fact, none for the rule.
            assert counters["ground.substitutions_tried"] == 3
            assert counters["ground.guard_pruned"] == 1

    def test_head_only_variables_range_over_the_universe(self):
        program = single(parse_rules("q(a). d(b). d(c). p(X, Y) :- q(X)."))
        relevant, full = ground_both(program)
        heads = {str(r.head) for r in relevant.rules if r.head.predicate == "p"}
        assert heads == {"p(a, a)", "p(a, b)", "p(a, c)"}
        assert len([r for r in full.rules if r.head.predicate == "p"]) == 9

    def test_guards_fire_inside_the_join(self):
        program = single(
            parse_rules("n(1). n(5). n(9). big(X, Y) :- n(X), n(Y), X > Y + 2.")
        )
        relevant, _ = ground_both(program)
        heads = {str(r.head) for r in relevant.rules if r.head.predicate == "big"}
        assert heads == {"big(5, 1)", "big(9, 1)", "big(9, 5)"}
        assert (
            OrderedSemantics(program, "main").least_model.literals
            == naive_over_full(program, "main").literals
        )

    def test_unevaluable_guard_drops_the_instance(self):
        program = single(parse_rules("p(penguin). p(12). t(X) :- p(X), X > 11."))
        relevant, _ = ground_both(program)
        assert {str(r.head) for r in relevant.rules if r.head.predicate == "t"} == {
            "t(12)"
        }

    def test_function_symbols_stay_inside_the_depth_bound(self):
        options = GroundingOptions(max_depth=1)
        program = single(parse_rules("p(a). p(f(X)) :- p(X). q(X) :- p(f(X))."))
        relevant, full = ground_both(program, options=options)
        # p(f(f(a))) is a head one level past the bound; q(f(a)) may use
        # it (X = f(a) is in the universe) but nothing may bind X to it.
        assert instances(relevant) == instances(full)
        assert {str(r) for r in relevant.rules} == {
            "[main] p(a).",
            "[main] p(f(a)) :- p(a).",
            "[main] p(f(f(a))) :- p(f(a)).",
            "[main] q(a) :- p(f(a)).",
            "[main] q(f(a)) :- p(f(f(a))).",
        }
        # With a second constant the product has instances relevance
        # drops — and f(b) never becomes a binding of X in q's body.
        wider = single(
            parse_rules("p(a). d(b). p(f(X)) :- p(X). q(X) :- p(f(X)).")
        )
        relevant, full = ground_both(wider, options=options)
        assert instances(relevant) < instances(full)
        assert {str(r.head) for r in relevant.rules if r.head.predicate == "q"} == {
            "q(a)",
            "q(f(a))",
        }

    def test_empty_universe(self):
        program = single(parse_rules("a. b :- a. p(X) :- q(X). c :- -a."))
        relevant, full = ground_both(program)
        assert instances(relevant) == instances(full)
        assert {str(r.head) for r in relevant.rules} == {"a", "b", "c"}

    def test_instance_cap_still_applies(self):
        program = single(parse_rules("q(a). q(b). q(c). p(X) :- q(X)."))
        with pytest.raises(GroundingError, match="instance cap"):
            Grounder(GroundingOptions(instance_cap=4)).ground_component_star(
                program, "main"
            )

    def test_duplicate_instances_are_emitted_once(self):
        program = single(parse_rules("q(a). p(X) :- q(X). p(X) :- q(X), q(X)."))
        ground, counters = counted(program)
        assert len(ground.rules) == 2
        assert counters["ground.instances_deduped"] == 1


class TestColdThenWritten:
    def test_told_fact_revives_a_dropped_instance(self):
        program = session_program(4, 8)
        sem = OrderedSemantics(program, "level0")
        assert not sem.holds("ok(e3)")
        # ok(X) :- member(X) had no instance at read time.
        assert not any(r.head.predicate == "ok" for r in sem.ground.rules)

        grounded = rebuilt = 0
        for told in (True, False, True):
            kind = ASSERT if told else RETRACT
            with instrumented() as obs:
                sem.apply_ops([(kind, sem.component, "enrolled_0(e3)")])
                model = sem.least_model
                counters = obs.snapshot()["counters"]
            grounded += "ground.source_rules" in counters
            rebuilt += counters.get("maintain.full_rebuilds", 0)
            assert sem.holds("ok(e3)") is told
            assert model.literals == naive_over_full(sem.program, "level0").literals
        # One more grounding in the view's life: the full seed.
        assert (grounded, rebuilt) == (1, 0)

    def test_told_fact_flips_prune_safety(self):
        program = parse_program(
            """
            component top { d(a). d(b). q(a). p(X) :- q(X). r(X) :- p(X). }
            component low { }
            order low < top.
            """
        )
        sem = OrderedSemantics(program, "low")
        assert sem.holds("r(a)")
        # -p(b) in the lower component makes p contradicted: p(X) :- q(X)
        # is no longer prune-safe, yet nothing is re-ground.
        sem.apply_ops([(ASSERT, sem.component, "-p(b)"), (ASSERT, sem.component, "-p(a)")])
        assert sem.least_model.literals == naive_over_full(sem.program, "low").literals
        assert sem.holds("-p(a)") and not sem.holds("r(a)")
