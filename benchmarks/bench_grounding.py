"""Substrate benchmark: grounding throughput.

Not a figure of the paper, but the substrate every experiment runs on.
Measures the grounder across universe sizes, rule arities and guard
pruning: ``Grounder.ground_rules`` (a classical program, always the
full instantiation) for the first four, and the default relevance
grounding of ``C*`` (``ground_component_star``, which drops only
instances of prune-safe rules that cannot apply; see
docs/performance.md) for the taxonomy.  Both emit integer instances
over an atom table; ``len(ground.rules)`` decodes nothing, while the
component check below decodes the rules once."""

import pytest

from repro.grounding.grounder import Grounder, GroundingOptions
from repro.lang.parser import parse_rules
from repro.workloads.hierarchies import taxonomy

from .conftest import capture_metrics, record


@pytest.mark.parametrize("n_constants", [10, 30, 60])
def test_unary_rule_grounding(benchmark, n_constants):
    source = "\n".join(f"p(k{i})." for i in range(n_constants))
    source += "\nq(X) :- p(X), -r(X)."
    rules = parse_rules(source)

    def run():
        return Grounder().ground_rules(rules)

    ground = benchmark(run)
    assert len(ground.rules) == 2 * n_constants
    record(benchmark, experiment="grounding-unary", constants=n_constants)


@pytest.mark.parametrize("n_constants", [5, 10, 20])
def test_binary_join_grounding(benchmark, n_constants):
    source = "\n".join(f"p(k{i})." for i in range(n_constants))
    source += "\nt(X, Y) :- p(X), p(Y)."
    rules = parse_rules(source)

    def run():
        return Grounder().ground_rules(rules)

    ground = benchmark(run)
    assert len(ground.rules) == n_constants + n_constants**2
    record(benchmark, experiment="grounding-binary", constants=n_constants)


@pytest.mark.parametrize("n_constants", [10, 20, 40])
def test_guard_pruning(benchmark, n_constants):
    # Guards are evaluated during enumeration: only pairs with X > Y
    # survive, and the pruned instances are never materialised.
    source = "\n".join(f"v({i})." for i in range(n_constants))
    source += "\ngt(X, Y) :- v(X), v(Y), X > Y."
    rules = parse_rules(source)

    def run():
        return Grounder().ground_rules(rules)

    ground = benchmark(run)
    expected_pairs = n_constants * (n_constants - 1) // 2
    assert len(ground.rules) == n_constants + expected_pairs
    record(benchmark, experiment="grounding-guard", constants=n_constants)
    snapshot = capture_metrics(benchmark, run)
    # Guard pruning is visible in the counters: every X <= Y pair is
    # dropped during enumeration, never materialised.
    pruned = snapshot["counters"]["ground.guard_pruned"]
    assert pruned == n_constants * (n_constants + 1) // 2


@pytest.mark.parametrize("depth", [1, 2])
def test_function_symbol_grounding(benchmark, depth):
    rules = parse_rules("p(a). p(f(X)) :- p(X).")

    def run():
        return Grounder(GroundingOptions(max_depth=depth)).ground_rules(rules)

    ground = benchmark(run)
    assert len(ground.universe) == depth + 1
    record(benchmark, experiment="grounding-functions", depth=depth)


@pytest.mark.parametrize("n_species", [20, 50])
def test_component_star_grounding(benchmark, n_species):
    program = taxonomy(n_species, n_species // 3)

    def run():
        return Grounder().ground_component_star(program, "specific")

    ground = benchmark(run)
    assert {r.component for r in ground.rules} == {"general", "specific"}
    record(benchmark, experiment="grounding-star", species=n_species,
           ground_rules=len(ground.rules))
    capture_metrics(benchmark, run)
