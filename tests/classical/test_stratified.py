"""Unit tests for stratification, the perfect model and the least-model reference."""

import random

import pytest

from repro.analysis.static import classify_view
from repro.classical.stratified import (
    dependency_graph,
    is_stratified,
    perfect_model,
    stratification,
    stratified_least_model,
)
from repro.core.semantics import OrderedSemantics
from repro.grounding.grounder import Grounder
from repro.lang.literals import Atom, Literal
from repro.lang.parser import parse_program, parse_rules
from repro.workloads.classic import even_odd
from repro.workloads.paper import figure3
from repro.workloads.random_programs import random_stratified_program


class TestDependencyGraph:
    def test_edges(self):
        rules = parse_rules("a :- b, -c.")
        graph = dependency_graph(rules)
        assert graph.positive_edges == {("b", "a")}
        assert graph.negative_edges == {("c", "a")}
        assert graph.predicates == {"a", "b", "c"}


class TestStratification:
    def test_positive_recursion_is_stratified(self):
        assert is_stratified(parse_rules("anc(X,Y) :- par(X,Z), anc(Z,Y)."))

    def test_negation_below_is_stratified(self):
        assert is_stratified(parse_rules("a :- -b. b :- c."))

    def test_negative_cycle_not_stratified(self):
        assert not is_stratified(parse_rules("a :- -b. b :- a."))

    def test_self_negation_not_stratified(self):
        assert not is_stratified(parse_rules("p :- -p."))

    def test_strata_levels(self):
        strata = stratification(parse_rules("a :- -b. b :- -c. c."))
        assert strata["c"] < strata["b"] < strata["a"]

    def test_positive_edges_weakly_increase(self):
        strata = stratification(parse_rules("a :- b. b :- -c."))
        assert strata["b"] <= strata["a"]
        assert strata["c"] < strata["b"]

    def test_none_for_unstratified(self):
        assert stratification(parse_rules("a :- -b. b :- a.")) is None


class TestPerfectModel:
    def test_simple_default(self):
        rules = parse_rules("a :- -b. c.")
        g = Grounder().ground_rules(rules)
        model = perfect_model(rules, g.rules)
        assert model == {Atom("a"), Atom("c")}

    def test_even_odd(self):
        rules = even_odd(5)
        g = Grounder().ground_rules(rules)
        model = perfect_model(rules, g.rules)
        evens = {str(a) for a in model if a.predicate == "even"}
        odds = {str(a) for a in model if a.predicate == "odd"}
        assert evens == {"even(z0)", "even(z2)", "even(z4)"}
        assert odds == {"odd(z1)", "odd(z3)", "odd(z5)"}

    def test_unstratified_rejected(self):
        rules = parse_rules("p :- -p.")
        g = Grounder().ground_rules(rules)
        with pytest.raises(ValueError):
            perfect_model(rules, g.rules)

    def test_agrees_with_well_founded_when_stratified(self):
        from repro.classical.wellfounded import well_founded

        rules = even_odd(4)
        g = Grounder().ground_rules(rules)
        pm = perfect_model(rules, g.rules)
        wf = well_founded(g.rules, g.base)
        assert wf.is_total
        assert wf.true_atoms == pm

    def test_agrees_with_gl_stable_when_stratified(self):
        from repro.classical.stable import is_gl_stable

        rules = parse_rules("a :- -b. b :- c. d :- a.")
        g = Grounder().ground_rules(rules)
        pm = perfect_model(rules, g.rules)
        assert is_gl_stable(g.rules, pm)


HORN_ANCESTOR = """component c { parent(a, b). parent(b, c). parent(c, d).
  anc(X, Y) :- parent(X, Y). anc(X, Z) :- parent(X, Y), anc(Y, Z). }"""

DEEPER = dict(n_atoms=9, n_rules=18, max_body=4, neg_body_prob=0.5)

#: Single-component stratified seminegative views: 200 random programs,
#: 20 deeper ones, a first-order Horn program and Figure 3's positive
#: expert view.
REFERENCE_VIEWS = [
    *(
        pytest.param(random_stratified_program(random.Random(s)), "main", id=f"random-{s}")
        for s in range(200)
    ),
    *(
        pytest.param(
            random_stratified_program(random.Random(50_000 + s), **DEEPER),
            "main",
            id=f"deeper-{s}",
        )
        for s in range(0, 200, 10)
    ),
    pytest.param(parse_program(HORN_ANCESTOR), "c", id="horn-ancestor"),
    pytest.param(figure3(["inflation(19).", "loan_rate(16)."]), "c2", id="figure3-c2"),
]


@pytest.mark.parametrize("program, component", REFERENCE_VIEWS)
def test_kernel_matches_stratified_reference(program, component):
    """The stratified Horn closure, naive ``V`` and the kernel agree."""
    assert classify_view(program, component).routable
    default = OrderedSemantics(program, component)
    naive = OrderedSemantics(program, component, strategy="naive")
    rules = [r for comp in program.visible_components(component) for r in comp.rules]
    atoms = stratified_least_model(rules, default.ground.rules)
    reference = frozenset(Literal(a, True) for a in atoms)
    assert naive.least_model.literals == reference
    assert default.least_model.literals == reference
