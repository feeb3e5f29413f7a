"""Unit tests for the Definition-11 direct semantics of negative
programs (Example 8 anchors; the Theorem-2 equivalence is the oracle
matrix's claims column ``theorem2``, tests/oracle/test_claims.py)."""

from repro.core.interpretation import Interpretation
from repro.grounding.grounder import Grounder
from repro.lang.literals import neg, pos
from repro.lang.parser import parse_rules
from repro.reductions.direct import (
    direct_assumption_free_models,
    direct_greatest_assumption_set,
    direct_models,
    direct_stable_models,
    has_exception,
    is_direct_assumption_free,
    is_direct_model,
    is_direct_model_as_printed,
)
from repro.workloads.paper import example8_birds


def ground(source):
    g = Grounder().ground_rules(parse_rules(source))
    return g.rules, g.base


class TestExceptions:
    def test_exception_excuses_violated_general_rule(self):
        rules, base = ground("fly. -fly :- ga. ga.")
        m = Interpretation([pos("ga"), neg("fly")], base)
        fly_fact = next(r for r in rules if str(r.head) == "fly")
        assert has_exception(rules, fly_fact, m)
        assert is_direct_model(rules, m)

    def test_no_exception_without_negative_rule(self):
        rules, base = ground("fly.")
        m = Interpretation([neg("fly")], base)
        assert not is_direct_model(rules, m)

    def test_exception_needs_true_body(self):
        rules, base = ground("fly. -fly :- ga.")
        m = Interpretation([neg("fly")], base)  # ga undefined
        assert not is_direct_model(rules, m)

    def test_weak_exception_excuses_undefined_head(self):
        # With fly undefined, the non-blocked exception suspends the
        # fact (weak exception) — but the interpretation is still not a
        # model, because the exception rule itself has a true body and
        # an undefined head with no excuse of its own.
        rules, base = ground("fly. -fly :- ga. ga.")
        m = Interpretation([pos("ga")], base)
        fly_fact = next(r for r in rules if str(r.head) == "fly")
        assert has_exception(rules, fly_fact, m)
        assert not is_direct_model(rules, m)

    def test_true_head_needs_no_exception(self):
        rules, base = ground("fly. -fly :- ga. ga.")
        m = Interpretation([pos("ga"), pos("fly")], base)
        fly_fact = next(r for r in rules if str(r.head) == "fly")
        assert not has_exception(rules, fly_fact, m)

    def test_printed_definition_diverges_on_self_referential_exception(self):
        # The Theorem-2 counterexample recorded in EXPERIMENTS.md.
        rules, base = ground("p. -p :- -p.")
        empty = Interpretation([], base)
        assert is_direct_model(rules, empty)  # reconstructed = Def 10
        from repro.reductions.direct import is_direct_model_as_printed

        assert not is_direct_model_as_printed(rules, empty)


class TestAssumptionSets:
    def test_unsupported_positive_literal_is_assumption(self):
        rules, base = ground("a :- b.")
        m = Interpretation([pos("a"), pos("b")], base)
        assert direct_greatest_assumption_set(rules, m) == {pos("a"), pos("b")}

    def test_supported_chain_is_assumption_free(self):
        rules, base = ground("a :- b. b.")
        m = Interpretation([pos("a"), pos("b")], base)
        assert is_direct_assumption_free(rules, m)

    def test_cwa_grounds_negative_literals(self):
        # Negative literals with every deriving rule blocked are
        # grounded by the closed world, hence never assumptions.
        rules, base = ground("a :- b.")
        m = Interpretation([neg("a"), neg("b")], base)
        assert is_direct_assumption_free(rules, m)

    def test_self_supporting_exception_is_an_assumption(self):
        # {-a} is only supported by -a <- -a: an assumption set that the
        # printed Definition 11(b) (X ⊆ I+) cannot see.
        rules, base = ground("a. -a :- -a.")
        m = Interpretation([neg("a")], base)
        assert is_direct_model(rules, m)
        assert direct_greatest_assumption_set(rules, m) == {neg("a")}
        assert not is_direct_assumption_free(rules, m)


class TestEnumeration:
    def test_example8_stable_total(self):
        rules = example8_birds(birds=("p1",), ground_animals=("p1",))
        g = Grounder().ground_rules(rules)
        stable = direct_stable_models(g.rules, g.base)
        rendered = [set(map(str, m.literals)) for m in stable]
        assert any({"-fly(p1)", "bird(p1)", "ground_animal(p1)"} <= r for r in rendered)

    def test_af_models_subset_of_models(self):
        rules, base = ground("a :- -b. -a :- c.")
        af = direct_assumption_free_models(rules, base)
        models = direct_models(rules, base)
        model_sets = {m.literals for m in models}
        assert all(m.literals in model_sets for m in af)

    def test_stable_are_maximal(self):
        rules, base = ground("a :- -b. -a :- c.")
        stable = {m.literals for m in direct_stable_models(rules, base)}
        af = [m.literals for m in direct_assumption_free_models(rules, base)]
        for s in stable:
            assert not any(s < other for other in af)
