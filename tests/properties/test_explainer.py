"""Property tests for the explainer: every least-model literal has a
well-founded derivation; everything else gets a diagnosis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interpretation import TruthValue
from repro.core.semantics import OrderedSemantics
from repro.explain.trace import Explainer
from repro.kb.knowledge_base import KnowledgeBase
from repro.lang.errors import InconsistencyError
from repro.lang.literals import Literal

from .strategies import literals, ordered_programs

SETTINGS = settings(max_examples=30, deadline=None)


@SETTINGS
@given(ordered_programs())
def test_every_member_has_a_derivation(program):
    for name in sorted(program.component_names):
        sem = OrderedSemantics(program, name)
        explainer = Explainer(sem)
        for literal in sem.least_model:
            derivation = explainer.why(literal)
            assert derivation.literal == literal
            # Premises are members too, with strictly smaller stages.
            stack = [derivation]
            while stack:
                node = stack.pop()
                assert node.literal in sem.least_model
                for premise in node.premises:
                    assert premise.stage < node.stage
                    stack.append(premise)


@SETTINGS
@given(ordered_programs())
def test_derivation_rules_are_genuine_support(program):
    for name in sorted(program.component_names):
        sem = OrderedSemantics(program, name)
        explainer = Explainer(sem)
        model = sem.least_model
        ev = sem.evaluator
        for literal in model:
            derivation = explainer.why(literal)
            r = derivation.rule
            assert r.head == literal
            assert ev.applied(r, model)
            assert not ev.overruled(r, model)
            assert not ev.defeated(r, model)


@SETTINGS
@given(ordered_programs())
def test_why_not_never_crashes_and_classifies(program):
    valid_reasons = {"unmet-body", "blocked", "overruled", "defeated"}
    for name in sorted(program.component_names):
        sem = OrderedSemantics(program, name)
        explainer = Explainer(sem)
        model = sem.least_model
        for atom in sorted(sem.ground.base, key=str):
            for literal in (Literal(atom, True), Literal(atom, False)):
                if model.value(literal) is TruthValue.TRUE:
                    continue
                report = explainer.why_not(literal)
                for failure in report.failures:
                    assert failure.reason in valid_reasons, failure
                if model.value(literal) is TruthValue.FALSE:
                    assert report.complement_derivation is not None


@SETTINGS
@given(ordered_programs(), st.data())
def test_maintained_view_derivations_are_well_founded_and_genuine(program, data):
    # A knowledge-base view read after a short random tell/retract
    # trace: its least model comes out of the delta engine, and the
    # explainer must still give well-founded trees whose support rules
    # are applied and unthreatened in that model — and say exactly what
    # it says on a cold view of the same program value.
    names = sorted(program.component_names)
    kb = KnowledgeBase.from_program(program)
    view = data.draw(st.sampled_from(names))
    told = [
        (comp.name, f"{rule.head}.")
        for comp in program.components()
        for rule in comp.rules
        if rule.is_fact
    ]
    try:
        kb.view(view).least_model
        for _ in range(data.draw(st.integers(1, 4))):
            if told and data.draw(st.booleans()):
                name, fact = told.pop(data.draw(st.integers(0, len(told) - 1)))
                kb.retract(name, fact)
            else:
                name = data.draw(st.sampled_from(names))
                fact = f"{data.draw(literals)}."
                kb.tell(name, fact)
                told.append((name, fact))
        sem = kb.view(view)
        model = sem.least_model
    except InconsistencyError:
        return
    explainer = Explainer(sem)
    ev = sem.evaluator
    for literal in model:
        stack = [explainer.why(literal)]
        while stack:
            node = stack.pop()
            r = node.rule
            assert node.literal in model
            assert r.head == node.literal
            assert ev.applied(r, model)
            assert not ev.overruled(r, model)
            assert not ev.defeated(r, model)
            for premise in node.premises:
                assert premise.stage < node.stage
                stack.append(premise)
    cold = OrderedSemantics(sem.program, view)
    cold_explainer = Explainer(cold)
    for atom in sorted(sem.ground.base, key=str):
        for literal in (Literal(atom, True), Literal(atom, False)):
            assert explainer.explain(literal) == cold_explainer.explain(literal)
    assert [str(r) for r in sem.statuses()] == [str(r) for r in cold.statuses()]
    assert sem.describe() == cold.describe()
