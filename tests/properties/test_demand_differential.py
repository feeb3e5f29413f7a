"""Differential testing for goal-directed (demand) query answering.

On every eligible view, :func:`repro.query.demand_answers` must agree
*bit-for-bit* — literals, bindings and sort order — with matching the
goal against the fully materialized least model
(:func:`repro.kb.query.answers_in`).  The sweep crosses random
stratified programs (propositional and first-order, with negation,
recursion and guards) with random ground and non-ground goals.

This is the CI demand gate; ``DEMAND_PROGRAMS`` scales the seeded
sweep (the acceptance floor is 200 random programs).
"""

from __future__ import annotations

import os
import random

from repro.core.semantics import OrderedSemantics
from repro.kb.query import answers_in
from repro.lang.parser import parse_literal, parse_rules
from repro.lang.program import OrderedProgram
from repro.query import CompiledDemand, demand_answers
from repro.workloads.random_programs import random_stratified_program

from ..kb.test_indexed_reads import (
    assert_reads_match_scan,
    scan_answers_in,
    sweep_random_programs,
)

#: Number of seeded random programs swept (CI-overridable).
N_PROGRAMS = int(os.environ.get("DEMAND_PROGRAMS", "200"))


def shape(answers):
    return [
        (str(a.literal), sorted((str(v), str(t)) for v, t in a.bindings.items()))
        for a in answers
    ]


def assert_demand_agrees(program, component, goal):
    """Demand answers == materialized answers; returns whether the
    demand path actually served (vs. declined)."""
    result = demand_answers(program, component, goal)
    if not result.used:
        return False
    semantics = OrderedSemantics(program, component, strategy="seminaive")
    expected = answers_in(semantics.least_model, goal)
    assert shape(result.answers) == shape(expected), (
        f"demand/materialized mismatch on goal {goal!r}: "
        f"demand={[str(a.literal) for a in result.answers]} "
        f"materialized={[str(a.literal) for a in expected]}"
    )
    return True


# ----------------------------------------------------------------------
# First-order program generator
# ----------------------------------------------------------------------

_CONSTANTS = [f"c{i}" for i in range(6)]


def random_first_order_program(rng: random.Random) -> OrderedProgram:
    """A random stratified first-order program over small binary/unary
    EDB relations: transitive closures, joins, projections, an optional
    negation stratum and an optional comparison guard."""
    lines = []
    for _ in range(rng.randint(6, 16)):
        lines.append(
            f"e({rng.choice(_CONSTANTS)}, {rng.choice(_CONSTANTS)})."
        )
    for _ in range(rng.randint(2, 5)):
        lines.append(f"mark({rng.choice(_CONSTANTS)}).")
    lines.append("t(X, Y) <- e(X, Y).")
    if rng.random() < 0.8:
        # Randomly left- or right-linear recursion.
        if rng.random() < 0.5:
            lines.append("t(X, Z) <- e(X, Y), t(Y, Z).")
        else:
            lines.append("t(X, Z) <- t(X, Y), e(Y, Z).")
    lines.append("q(X) <- t(X, Y), mark(Y).")
    if rng.random() < 0.4:
        lines.append("p(X, Y) <- t(X, Y), X != Y.")
    if rng.random() < 0.4:
        # A stratum with negation: demand must drop these rules, the
        # assumption-free least model never fires them either.
        lines.append("lone(X) <- mark(X), ~q(X).")
    if rng.random() < 0.3:
        lines.append("some <- q(X).")
    if rng.random() < 0.5:
        # A variable repeated inside one body atom: the only shape the
        # compiled join checks (rather than binds or probes by).
        lines.append("loop(X) <- t(X, X).")
    return OrderedProgram.single(
        tuple(parse_rules("\n".join(lines))), name="main"
    )


def random_goals(rng: random.Random, program) -> list[str]:
    goals = ["t(X, Y)", "q(X)", "e(X, X)"]
    a, b = rng.choice(_CONSTANTS), rng.choice(_CONSTANTS)
    goals.append(f"t({a}, X)")
    goals.append(f"t(X, {b})")
    goals.append(f"t({a}, {b})")
    goals.append(f"q({b})")
    goals.append("t(X, X)")
    heads = {r.head.predicate for r in program.components()[0].rules}
    if "some" in heads:
        goals.append("some")
    if "lone" in heads:
        goals.append("lone(X)")
    if "p" in heads:
        goals.append(f"p(X, {a})")
    if "loop" in heads:
        goals.append("loop(X)")
    return goals


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------


class TestPropositionalSweep:
    def test_random_stratified_programs(self):
        served = 0
        for seed in range(N_PROGRAMS):
            rng = random.Random(seed)
            program = random_stratified_program(rng)
            atoms = sorted(
                {r.head.predicate for c in program.components() for r in c.rules}
            )
            for goal in rng.sample(atoms, min(3, len(atoms))):
                if assert_demand_agrees(program, "main", goal):
                    served += 1
        # Stratified seminegative views are always demand-eligible;
        # a silent mass fallback would hollow the sweep out.
        assert served >= N_PROGRAMS


class TestFirstOrderSweep:
    def test_random_first_order_programs(self):
        served = checked = 0
        for seed in range(N_PROGRAMS):
            rng = random.Random(10_000 + seed)
            program = random_first_order_program(rng)
            for goal in random_goals(rng, program):
                checked += 1
                if assert_demand_agrees(program, "main", goal):
                    served += 1
        assert served == checked, "every generated view is demand-eligible"


class TestMaterializedOracle:
    def test_probe_reads_equal_the_scan(self):
        """This lane's oracle, ``answers_in`` over the materialized
        model, is itself held to the full-model scan it used to be
        (``tests/kb/test_indexed_reads.py`` keeps that scan): on this
        lane's programs and goals, on every goal shape the read path
        distinguishes, and on the ordered first-order sweep — negative
        heads, several components, all three modes."""
        for seed in range(N_PROGRAMS):
            rng = random.Random(40_000 + seed)
            program = random_first_order_program(rng)
            semantics = OrderedSemantics(program, "main")
            model = semantics.least_model
            for goal in random_goals(rng, program):
                assert answers_in(model, goal) == scan_answers_in(
                    model, parse_literal(goal)
                ), goal
            assert_reads_match_scan(semantics, rng)
        assert sweep_random_programs(N_PROGRAMS, 50_000) >= N_PROGRAMS


class TestCompiledReuse:
    def test_one_compiled_route_serves_every_goal(self):
        """Every goal of a program asked in shuffled order (and twice)
        through ONE compiled route: a row set, index, worklist, fetch
        memo or counter surviving a run would show as a wrong answer."""
        for seed in range(N_PROGRAMS):
            rng = random.Random(30_000 + seed)
            program = random_first_order_program(rng)
            goals = random_goals(rng, program) * 2
            rng.shuffle(goals)
            model = OrderedSemantics(program, "main", strategy="seminaive").least_model
            compiled = CompiledDemand(program, "main")
            for goal in goals:
                expected = shape(answers_in(model, goal))
                for result in (
                    compiled.ask(goal),
                    demand_answers(program, "main", goal),
                ):
                    assert result.used
                    assert shape(result.answers) == expected, goal


class TestKnowledgeBaseParity:
    def test_kb_query_strategies_agree(self):
        from repro.kb.knowledge_base import KnowledgeBase

        for seed in range(0, N_PROGRAMS, 10):
            rng = random.Random(20_000 + seed)
            program = random_first_order_program(rng)
            kb = KnowledgeBase.from_program(program)
            for goal in random_goals(rng, program)[:4]:
                demand = kb.query("main", goal, strategy="demand")
                materialized = kb.query("main", goal, strategy="auto")
                assert shape(demand) == shape(materialized)
