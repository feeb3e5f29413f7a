"""Differential testing: the semi-naive fixpoint engine must agree
literal-for-literal with naive iteration (the executable reading of
Definition 4) on every program we can produce.

This file is also the CI differential gate: the workflow runs it with
``SEMINAIVE_DIFF_PROGRAMS`` set to scale the seeded sweep.  Locally the
default sweep already covers the acceptance floor of 200 random
programs, every paper figure/example, and every workload generator
module.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.semantics import OrderedSemantics
from repro.reductions import extended_version, ordered_version, three_level_version
from repro.workloads import classic, experts, hierarchies, paper
from repro.workloads.random_programs import random_ordered_program

from ..conftest import dense_run

#: Number of seeded random programs swept (overridable from CI).
N_RANDOM_PROGRAMS = int(os.environ.get("SEMINAIVE_DIFF_PROGRAMS", "200"))


def assert_strategies_agree(program, component):
    naive = OrderedSemantics(program, component, strategy="naive")
    semi = OrderedSemantics(program, component, strategy="seminaive")
    expected = naive.least_model
    actual = semi.least_model
    assert actual.literals == expected.literals, (
        f"least-model mismatch in component {component!r}: "
        f"naive={sorted(map(str, expected.literals))} "
        f"seminaive={sorted(map(str, actual.literals))}"
    )
    # Both results must be fixpoints of the *other* strategy's V.
    assert naive.transform.is_fixpoint(actual)
    assert semi.transform.is_fixpoint(expected)


def every_component(program):
    for name in sorted(program.component_names):
        yield name


PAPER_PROGRAMS = [
    ("figure1", paper.figure1()),
    ("figure1_flat", paper.figure1_flat()),
    ("figure2", paper.figure2()),
    ("figure3_empty", paper.figure3()),
    ("figure3_inflation", paper.figure3(["inflation(12)."])),
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
    ("scaled_figure1", paper.scaled_figure1(8, 3)),
    ("scaled_figure2", paper.scaled_figure2(6, 2)),
] + [
    (f"scaled_figure3_{name}", program)
    for name, program in sorted(
        paper.scaled_figure3({"boom": (12, 10), "bust": (9, 16)}).items()
    )
]


@pytest.mark.parametrize(
    "program", [p for _, p in PAPER_PROGRAMS], ids=[n for n, _ in PAPER_PROGRAMS]
)
def test_paper_programs_agree(program):
    for component in every_component(program):
        assert_strategies_agree(program, component)


WORKLOAD_PROGRAMS = [
    ("override_chain_even", hierarchies.override_chain(6)),
    ("override_chain_odd", hierarchies.override_chain(7)),
    ("diamond", hierarchies.diamond(4)),
    ("taxonomy", hierarchies.taxonomy(12, 3)),
    ("release_chain", hierarchies.release_chain(6)),
    ("expert_panel", experts.expert_panel(3, 3)),
    ("contradicting_panel", experts.contradicting_panel(4)),
    ("ov_ancestor", ordered_version(classic.ancestor_chain(5)).program),
    ("ov_win_move", ordered_version(classic.win_move(5, cycle=3)).program),
    ("ev_even_odd", extended_version(classic.even_odd(6)).program),
    ("3v_two_stable", three_level_version(classic.two_stable(2)).program),
]


@pytest.mark.parametrize(
    "program",
    [p for _, p in WORKLOAD_PROGRAMS],
    ids=[n for n, _ in WORKLOAD_PROGRAMS],
)
def test_workload_generators_agree(program):
    for component in every_component(program):
        assert_strategies_agree(program, component)


def test_random_program_sweep_agrees():
    rng = random.Random(0x5EED)
    checked = 0
    for _trial in range(N_RANDOM_PROGRAMS):
        program = random_ordered_program(
            rng,
            n_atoms=rng.randint(2, 6),
            n_components=rng.randint(1, 4),
            n_rules=rng.randint(1, 14),
            max_body=rng.randint(0, 3),
            neg_head_prob=rng.uniform(0.1, 0.6),
            neg_body_prob=rng.uniform(0.1, 0.6),
            order_density=rng.uniform(0.0, 1.0),
        )
        for component in every_component(program):
            assert_strategies_agree(program, component)
            checked += 1
    assert checked >= N_RANDOM_PROGRAMS


def test_stage_counts_agree_on_random_programs():
    # Stage boundaries (not just the limit) must coincide: the
    # semi-naive engine advances exactly when naive iteration does.
    rng = random.Random(2026)
    for _ in range(40):
        program = random_ordered_program(rng, n_atoms=5, n_rules=10)
        for component in every_component(program):
            sem = OrderedSemantics(program, component, strategy="naive")
            _, _, stage_deltas = dense_run(sem)
            current = sem.interpretation([])
            naive_stages = 0
            while True:
                nxt = sem.transform.step(current)
                if nxt.literals == current.literals:
                    break
                naive_stages += 1
                current = nxt
            assert len(stage_deltas) == naive_stages
