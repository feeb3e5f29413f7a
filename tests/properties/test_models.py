"""Property-based tests around Definitions 3 and 5 and Proposition 2:
model structure, exhaustive extensions, and solver consistency.  The
flattening statement of Example 2 is the ``flattening`` claims column
of the oracle matrix (``tests/oracle/test_claims.py``)."""

from hypothesis import given, settings

from repro.core.semantics import OrderedSemantics

from .strategies import ordered_programs

SETTINGS = settings(max_examples=30, deadline=None)
SMALL = ordered_programs(max_components=2, max_rules=4)


def each_component(program):
    for name in sorted(program.component_names):
        yield OrderedSemantics(program, name)


@SETTINGS
@given(SMALL)
def test_proposition2_every_model_extends_to_exhaustive(program):
    for sem in each_component(program):
        for m in sem.models():
            extended = sem.checker.extend_to_exhaustive(m)
            assert m.literals <= extended.literals
            assert sem.checker.is_exhaustive(extended)


@SETTINGS
@given(SMALL)
def test_total_models_are_exhaustive(program):
    for sem in each_component(program):
        exhaustive = {m.literals for m in sem.exhaustive_models()}
        for m in sem.total_models():
            assert m.literals in exhaustive


@SETTINGS
@given(SMALL)
def test_exhaustive_models_are_maximal_models(program):
    for sem in each_component(program):
        all_models = [m.literals for m in sem.models()]
        for m in sem.exhaustive_models():
            assert not any(m.literals < other for other in all_models)


@SETTINGS
@given(SMALL)
def test_af_models_are_models(program):
    for sem in each_component(program):
        model_sets = {m.literals for m in sem.models()}
        for m in sem.assumption_free_models():
            assert m.literals in model_sets


@SETTINGS
@given(SMALL)
def test_checker_agrees_with_enumeration(program):
    for sem in each_component(program):
        enumerated = {m.literals for m in sem.models()}
        for interp in sem.enumerator.interpretations():
            assert (interp.literals in enumerated) == sem.is_model(interp)


@SETTINGS
@given(ordered_programs())
def test_least_model_statuses_are_coherent(program):
    # In the least model no applicable rule may be simultaneously
    # un-excused and un-applied (the fixpoint has converged).
    for sem in each_component(program):
        lm = sem.least_model
        ev = sem.evaluator
        for r in sem.ground.rules:
            if ev.applicable(r, lm) and not (
                ev.overruled(r, lm) or ev.defeated(r, lm)
            ):
                assert r.head in lm
