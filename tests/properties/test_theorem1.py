"""Property-based verification of the paper's Section-2 results:
Lemma 1 (monotonicity), Theorem 1(a) (AF ⟺ T-fixpoint) and Theorem 1(b)
(the least fixpoint is AF and is the intersection of all models).
Proposition 1 and Definition 9 are claims columns of the oracle matrix
(``tests/oracle/test_claims.py``), which also checks every statement
here on the paper, workload and seeded ``ordered`` rows."""

from hypothesis import given, settings

from repro.core.interpretation import Interpretation
from repro.core.semantics import OrderedSemantics

from .strategies import ordered_programs

SETTINGS = settings(max_examples=40, deadline=None)


def each_component(program):
    for name in sorted(program.component_names):
        yield OrderedSemantics(program, name)


@SETTINGS
@given(ordered_programs())
def test_theorem1b_least_fixpoint_is_assumption_free(program):
    for sem in each_component(program):
        assert sem.assumptions.is_assumption_free(sem.least_model)


@SETTINGS
@given(ordered_programs(max_components=2, max_rules=5))
def test_theorem1b_least_fixpoint_is_intersection_of_models(program):
    for sem in each_component(program):
        models = sem.models()
        assert models, "a model must always exist (Proposition 1)"
        intersection = frozenset.intersection(*(m.literals for m in models))
        assert intersection == sem.least_model.literals


@SETTINGS
@given(ordered_programs(max_components=2, max_rules=5))
def test_theorem1a_af_iff_t_fixpoint_on_models(program):
    for sem in each_component(program):
        for m in sem.models():
            direct = sem.assumptions.is_assumption_free(m)
            via_t = sem.assumptions.is_assumption_free_via_theorem1(m)
            assert direct == via_t, f"Theorem 1(a) fails on {m}"


@SETTINGS
@given(ordered_programs(max_components=2, max_rules=5))
def test_models_are_prefixpoints_of_v(program):
    # The load-bearing half of the Theorem-1b proof sketch.
    for sem in each_component(program):
        for m in sem.models():
            assert sem.transform.is_prefixpoint(m)


@SETTINGS
@given(ordered_programs())
def test_lemma1_v_is_monotone_along_chain(program):
    for sem in each_component(program):
        # The iterates from the bottom form an increasing chain — the
        # observable consequence of monotonicity that least_fixpoint
        # relies on.
        current = Interpretation((), sem.ground.base)
        for _ in range(2 * len(sem.ground.base) + 2):
            nxt = sem.transform.step(current)
            assert current.literals <= nxt.literals
            if nxt.literals == current.literals:
                break
            current = nxt
        assert sem.transform.is_fixpoint(current)


@SETTINGS
@given(ordered_programs(max_components=2, max_rules=5))
def test_lemma1_v_monotone_on_model_pairs(program):
    # For the least model L and any model M (L ⊆ M by Thm 1b),
    # monotonicity gives V(L) ⊆ V(M).
    for sem in each_component(program):
        least = sem.least_model
        for m in sem.models():
            assert least.literals <= m.literals
            assert sem.transform.step(least).literals <= sem.transform.step(m).literals


@SETTINGS
@given(ordered_programs(max_components=2, max_rules=5))
def test_af_models_found_by_solver_match_brute_force(program):
    # Cross-validate the head-restricted AF search against filtering the
    # full 3^n interpretation space.
    for sem in each_component(program):
        fast = {m.literals for m in sem.assumption_free_models()}
        brute = {
            i.literals
            for i in sem.enumerator.interpretations()
            if sem.is_model(i) and sem.assumptions.is_assumption_free(i)
        }
        assert fast == brute
