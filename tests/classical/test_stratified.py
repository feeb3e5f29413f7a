"""Unit tests for stratification, the perfect model and the least-model reference."""

import random
from functools import partial

import pytest

from repro.analysis.graph import PredicateDependencyGraph
from repro.classical.stratified import perfect_model, stratification
from repro.grounding.grounder import Grounder
from repro.lang.literals import Atom
from repro.lang.parser import parse_program, parse_rules
from repro.workloads.classic import even_odd
from repro.workloads.random_programs import random_stratified_program

from ..oracle import columns
from ..oracle.rows import PAPER, Row, family


A, B, C = ("a", 0), ("b", 0), ("c", 0)


class TestDependencyGraph:
    def test_edges(self):
        rules = parse_rules("a :- b, -c.")
        graph = PredicateDependencyGraph(("", r) for r in rules)
        assert set(graph.positive_edges) == {(B, A)}
        assert set(graph.negative_edges) == {(C, A)}
        assert set(graph.users) == {A, B, C}


class TestStratification:
    def test_positive_recursion_is_stratified(self):
        rules = parse_rules("anc(X,Y) :- par(X,Z), anc(Z,Y).")
        assert stratification(rules) is not None

    def test_negation_below_is_stratified(self):
        assert stratification(parse_rules("a :- -b. b :- c.")) is not None

    def test_negative_cycle_not_stratified(self):
        assert stratification(parse_rules("a :- -b. b :- a.")) is None

    def test_self_negation_not_stratified(self):
        assert stratification(parse_rules("p :- -p.")) is None

    def test_strata_levels(self):
        strata = stratification(parse_rules("a :- -b. b :- -c. c."))
        assert strata[C] < strata[B] < strata[A]

    def test_positive_edges_weakly_increase(self):
        strata = stratification(parse_rules("a :- b. b :- -c."))
        assert strata[B] <= strata[A]
        assert strata[C] < strata[B]

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

#: Stratified seminegative views: the oracle matrix's first 200
#: stratified rows, 20 deeper random programs, a first-order Horn
#: program and Figure 3's positive expert view.
REFERENCE_ROWS = [
    *(pytest.param(row, id=f"random-{s}") for s, row in enumerate(family("stratified")[:200])),
    *(
        pytest.param(
            Row(
                f"deeper-{s}",
                partial(random_stratified_program, **DEEPER),
                (random.Random(50_000 + s),),
            ),
            id=f"deeper-{s}",
        )
        for s in range(0, 200, 10)
    ),
    pytest.param(Row("horn-ancestor", parse_program, (HORN_ANCESTOR,)), id="horn-ancestor"),
    pytest.param(next(r for r in PAPER if r.label == "figure3_overrule"), id="figure3-c2"),
]


@pytest.mark.parametrize("row", REFERENCE_ROWS)
def test_kernel_matches_stratified_reference(row):
    """The stratified Horn closure, naive ``V`` and the kernel agree: the
    stratified and kernel columns of the oracle matrix on every view the
    analyzer routes."""
    assert columns.stratified(row)
    assert columns.kernel(row)
