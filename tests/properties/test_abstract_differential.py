"""Differential testing: relevance grounding must be semantically
invisible, and the abstract interpretation's inferred facts must be
sound.

Two properties over paper figures, every workload generator, and a
seeded random sweep of first-order programs (``ABSTRACT_DIFF_PROGRAMS``
scales it in CI):

* **Relevance invisibility** — the least model every configuration
  computes by default (``auto``, ``seminaive``, ``naive``, and the
  classical stratified closure where the view is routable) is
  bit-identical to naive ``V`` iteration over the **full** grounding, in every component
  view; and Definition-3 model enumeration, assumption-free models and
  stable models through the facade equal the ones enumerated from a
  full grounding built by hand (never-applicable rules still constrain
  total models — this sweep is the regression net for that split).
* **Fact soundness** — for every view, every signed predicate the
  analysis claims underivable has no literals in the concrete least
  model, every cardinality interval contains the true relation size,
  and every inferred sort admits every derived literal.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.analysis.abstract import analyze_view, signed_name
from repro.analysis.static import classify_view
from repro.classical.stratified import stratified_least_model
from repro.core.semantics import OrderedSemantics
from repro.core.solver import ModelEnumerator
from repro.core.statuses import ComponentOrder, StatusEvaluator
from repro.core.transform import OrderedTransform
from repro.grounding.grounder import Grounder, GroundingOptions
from repro.lang.builtins import Comparison
from repro.lang.literals import Atom, Literal
from repro.lang.program import Component, OrderedProgram
from repro.lang.rules import Rule
from repro.lang.terms import Constant, Variable
from repro.reductions import extended_version, ordered_version, three_level_version
from repro.workloads import (
    classic,
    experts,
    hierarchies,
    paper,
    point_query,
    random_programs,
    sessions,
)

#: Number of seeded random programs swept (overridable from CI).
N_RANDOM_PROGRAMS = int(os.environ.get("ABSTRACT_DIFF_PROGRAMS", "200"))

#: Shared term-depth cap so the abstract and concrete sides describe
#: the same ground program.
MAX_DEPTH = 3

OPTIONS = GroundingOptions(max_depth=MAX_DEPTH)

#: Largest Herbrand base the random sweep enumerates models over.
ENUMERATION_BASE = 8


def model_set(models):
    return {frozenset(m.literals) for m in models}


def instances(ground):
    return {(r.component, r.head, r.body) for r in ground.rules}


def assert_relevance_invisible(program, component, enumerate_models=True):
    # The oracle side is built by hand from the full instantiation: no
    # OrderedSemantics decides which grounding it reads.
    full = Grounder(OPTIONS).ground_component_star(program, component, full=True)
    evaluator = StatusEvaluator(
        full.rules, ComponentOrder(program.order), atom_table=full.atom_table
    )
    oracle = OrderedTransform(evaluator, full.base, strategy="naive").least_fixpoint()
    default = OrderedSemantics(program, component, grounding=OPTIONS)
    assert instances(default.ground) <= instances(full)
    assert default.ground.base == full.base
    for strategy in ("auto", "seminaive", "naive"):
        sem = (
            default
            if strategy == "auto"
            else OrderedSemantics(program, component, grounding=OPTIONS, strategy=strategy)
        )
        assert sem.least_model.literals == oracle.literals, (
            f"least-model mismatch in view {component!r} under {strategy!r}"
        )
    if classify_view(program, component).routable:
        rules = [r for c in program.visible_components(component) for r in c.rules]
        atoms = stratified_least_model(rules, full.rules)
        assert frozenset(Literal(a, True) for a in atoms) == oracle.literals, (
            f"stratified-reference mismatch in view {component!r}"
        )
    if not enumerate_models:
        # Herbrand base too large for the enumeration budget; the
        # least-model comparison above is the meaningful differential.
        return
    assert instances(default.full_ground) == instances(full)
    by_hand = ModelEnumerator(evaluator, full.base)
    assert model_set(default.models()) == model_set(by_hand.models()), (
        f"model-enumeration mismatch in view {component!r}"
    )
    assert model_set(default.assumption_free_models()) == model_set(
        by_hand.assumption_free_models()
    ), f"assumption-free mismatch in view {component!r}"
    assert model_set(default.stable_models()) == model_set(
        by_hand.stable_models()
    ), f"stable-model mismatch in view {component!r}"


def assert_facts_sound(program, component):
    analysis = analyze_view(program, component, max_depth=MAX_DEPTH)
    if analysis is None:
        pytest.fail(f"universe construction failed for view {component!r}")
    model = OrderedSemantics(program, component, grounding=OPTIONS).least_model
    sizes: dict[tuple[str, int, bool], int] = {}
    for literal in model.literals:
        key = (literal.predicate, len(literal.args), literal.positive)
        sizes[key] = sizes.get(key, 0) + 1
    for key in analysis.keys:
        fact = analysis.fact_for(*key)
        true_size = sizes.get(key, 0)
        label = f"view {component!r}, {signed_name(key)}"
        assert fact.derivable or true_size == 0, (
            f"{label}: inferred underivable but model has {true_size}"
        )
        assert fact.card.lo <= true_size, (
            f"{label}: lower bound {fact.card.lo} > true size {true_size}"
        )
        assert fact.card.hi is None or true_size <= fact.card.hi, (
            f"{label}: true size {true_size} > upper bound {fact.card.hi}"
        )
    for literal in model.literals:
        assert analysis.admits(literal), (
            f"view {component!r}: inferred sorts exclude derived {literal}"
        )


def every_component(program):
    for name in sorted(program.component_names):
        yield name


def check_program(program, enumerate_models=True):
    for component in every_component(program):
        assert_relevance_invisible(program, component, enumerate_models)
        assert_facts_sound(program, component)


PAPER_PROGRAMS = [
    ("figure1", paper.figure1()),
    ("figure1_flat", paper.figure1_flat()),
    ("figure2", paper.figure2()),
    ("figure3_empty", paper.figure3()),
    ("figure3_conflict", paper.figure3(["inflation(12).", "loan_rate(16)."])),
    ("figure3_overrule", paper.figure3(["inflation(19).", "loan_rate(16)."])),
    ("example3", paper.example3()),
    ("example4", paper.example4()),
    ("example4_extended", paper.example4_extended()),
    ("example5", paper.example5()),
    ("example6", ordered_version(paper.example6_ancestor()).program),
    ("example7", ordered_version(paper.example7()).program),
    ("example8", three_level_version(paper.example8_birds()).program),
    ("example9", three_level_version(paper.example9_colored()).program),
    ("scaled_figure1", paper.scaled_figure1(6, 3)),
    ("scaled_figure2", paper.scaled_figure2(4, 2)),
]


@pytest.mark.parametrize(
    "program", [p for _, p in PAPER_PROGRAMS], ids=[n for n, _ in PAPER_PROGRAMS]
)
def test_paper_programs(program):
    check_program(program)


single = OrderedProgram.single


#: (name, program, enumerate_models) — enumeration is skipped where the
#: Herbrand base exceeds the search budget's up-front leaf estimate.
WORKLOAD_PROGRAMS = [
    ("override_chain", hierarchies.override_chain(4), True),
    ("diamond", hierarchies.diamond(2), True),
    ("taxonomy", hierarchies.taxonomy(6, 2), True),
    ("release_chain", hierarchies.release_chain(3), True),
    ("expert_panel", experts.expert_panel(2, 2), True),
    ("contradicting_panel", experts.contradicting_panel(3), True),
    ("ov_ancestor", ordered_version(classic.ancestor_chain(4)).program, True),
    ("ov_win_move", ordered_version(classic.win_move(4, cycle=2)).program, True),
    ("ev_even_odd", extended_version(classic.even_odd(4)).program, False),
    ("3v_two_stable", three_level_version(classic.two_stable(2)).program, True),
    ("sparse_pairs", single(classic.sparse_pairs(12, 3)), False),
    ("ancestor_chain", single(classic.ancestor_chain(6)), False),
    ("win_move", single(classic.win_move(4, cycle=2)), False),
    ("even_odd", single(classic.even_odd(4)), False),
    ("two_stable", single(classic.two_stable(2)), True),
    ("forest", point_query.forest_program(2, 3), False),
    ("session", sessions.session_program(3, 4), False),
    ("random_ordered", random_programs.random_ordered_program(random.Random(14)), True),
    (
        "random_stratified",
        random_programs.random_stratified_program(random.Random(14)),
        True,
    ),
]


@pytest.mark.parametrize(
    "program,enumerate_models",
    [(p, e) for _, p, e in WORKLOAD_PROGRAMS],
    ids=[n for n, _, _ in WORKLOAD_PROGRAMS],
)
def test_workload_generators(program, enumerate_models):
    check_program(program, enumerate_models)


# ----------------------------------------------------------------------
# Random first-order programs
# ----------------------------------------------------------------------
CONSTANTS = [Constant("a"), Constant("b"), Constant(1), Constant(2)]
VARIABLES = [Variable("X"), Variable("Y")]
SIGNATURES = [("p", 1), ("q", 1), ("s", 1), ("r", 2), ("t", 0)]


def random_literal(rng, neg_prob, var_prob, constants):
    predicate, arity = rng.choice(SIGNATURES)
    args = tuple(
        rng.choice(VARIABLES) if rng.random() < var_prob else rng.choice(constants)
        for _ in range(arity)
    )
    return Literal(Atom(predicate, args), rng.random() >= neg_prob)


def random_first_order_program(rng) -> OrderedProgram:
    """Facts, rules with shared, head-only and body-only variables,
    contradicting heads and the odd guard, spread over an isa order."""
    constants = CONSTANTS[: rng.randint(1, len(CONSTANTS))]
    neg_head = rng.uniform(0.0, 0.5)
    neg_body = rng.uniform(0.0, 0.4)
    names = [f"c{i}" for i in range(rng.randint(1, 3))]
    buckets: dict[str, list[Rule]] = {name: [] for name in names}
    for _ in range(rng.randint(1, 9)):
        if rng.random() < 0.4:
            r = Rule(random_literal(rng, neg_head, 0.0, constants))
        else:
            body = [
                random_literal(rng, neg_body, 0.7, constants)
                for _ in range(rng.randint(1, 3))
            ]
            if rng.random() < 0.25:
                op = rng.choice(["!=", "<", "="])
                body.append(Comparison(op, VARIABLES[0], rng.choice([VARIABLES[1], Constant(2)])))
            r = Rule(random_literal(rng, neg_head, 0.7, constants), body)
        buckets[rng.choice(names)].append(r)
    pairs = [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
        if rng.random() < 0.6
    ]
    return OrderedProgram([Component(n, rs) for n, rs in buckets.items()], pairs)


def test_random_program_sweep():
    rng = random.Random(0xAB57)
    checked = enumerated = pruned = 0
    for _trial in range(N_RANDOM_PROGRAMS):
        program = random_first_order_program(rng)
        for component in every_component(program):
            ground = Grounder(OPTIONS).ground_component_star(program, component)
            small = len(ground.base) <= ENUMERATION_BASE
            assert_relevance_invisible(program, component, enumerate_models=small)
            assert_facts_sound(program, component)
            checked += 1
            enumerated += small
            pruned += bool(ground.pruned_rules) or len(ground.rules) < len(
                Grounder(OPTIONS).ground_component_star(program, component, full=True).rules
            )
    assert checked >= N_RANDOM_PROGRAMS
    # The sweep must exercise what it is for: views where relevance
    # drops instances, and views small enough to enumerate.
    assert pruned >= checked // 10
    assert enumerated >= checked // 10
