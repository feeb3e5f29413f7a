"""Differential testing for provenance: the derivations the explainer
reads off the dense kernel must agree with an object-level replay of
the ``V`` iteration (Definition 4), node for node.

The replay below is the explainer's former implementation, kept here
verbatim as the reference (it also returns each stage's
interpretation, for the rule check): re-run naive ``V`` from ∅ and, at every
stage, record for each new literal the first rule with that head that
is applicable and neither overruled nor defeated under the previous
stage.  Literal and stage must coincide at every node of every tree.
The rule may differ only when several rules establish the literal in
the same stage; the kernel's rule must then be one of them (applicable
and unthreatened at stage − 1).

This file is also part of the CI differential lane; its sizes are
fixed.
"""

from __future__ import annotations

import random

import pytest

from repro.core.interpretation import Interpretation
from repro.core.semantics import OrderedSemantics
from repro.explain.trace import Explainer
from repro.reductions import ordered_version
from repro.workloads import forest_program, hierarchies, paper, session_program
from repro.workloads.random_programs import random_ordered_program

#: Seeded random programs swept (every component of each is a view).
N_RANDOM_PROGRAMS = 200


def replay_support(sem):
    """The reference: literal -> (first supporting rule, stage), plus
    the interpretation after each stage (index 0 is ∅)."""
    support = {}
    ev = sem.evaluator
    current = Interpretation((), sem.ground.base)
    history = [current]
    stage = 0
    while True:
        stage += 1
        nxt = sem.transform.step(current)
        new_literals = nxt.literals - current.literals
        if not new_literals:
            break
        for literal in new_literals:
            for r in ev.rules_with_head(literal):
                if (
                    ev.applicable(r, current)
                    and not ev.overruled(r, current)
                    and not ev.defeated(r, current)
                ):
                    support[literal] = (r, stage)
                    break
        current = nxt
        history.append(current)
    return support, history


def assert_explainer_matches_replay(sem, context):
    support, history = replay_support(sem)
    assert set(support) == sem.least_model.literals, context
    explainer = Explainer(sem)
    ev = sem.evaluator
    seen = set()
    for root in sorted(support):
        stack = [explainer.why(root)]
        while stack:
            node = stack.pop()
            if node.literal in seen:
                continue
            seen.add(node.literal)
            # Locals, not node attributes, in the asserts: a failure
            # report must not render a whole (possibly deep) tree.
            literal, rule, stage = node.literal, node.rule, node.stage
            premises = frozenset(p.literal for p in node.premises)
            expected_rule, expected_stage = support[literal]
            where = f"{context}: {literal}"
            assert stage == expected_stage, where
            assert rule.head == literal, where
            assert rule.body == premises, where
            if rule != expected_rule:
                before = history[stage - 1]
                assert ev.applicable(rule, before), where
                assert not ev.overruled(rule, before), where
                assert not ev.defeated(rule, before), where
            stack.extend(node.premises)
    assert seen == set(support), context


def assert_every_view_agrees(program, name):
    for component in sorted(program.component_names):
        sem = OrderedSemantics(program, component)
        assert_explainer_matches_replay(sem, f"{name}/{component}")


PROGRAMS = [
    ("figure1", paper.figure1()),
    ("figure2", paper.figure2()),
    ("figure3_empty", paper.figure3()),
    ("figure3_overrule", paper.figure3(["inflation(19).", "loan_rate(16)."])),
    ("ov_example6", ordered_version(paper.example6_ancestor()).program),
    ("release_chain", hierarchies.release_chain(64)),
    ("session", session_program(2, 8)),
    ("forest", forest_program(2, 3)),
    ("scaled_figure2", paper.scaled_figure2(20, 5)),
]


@pytest.mark.parametrize(
    "program", [p for _, p in PROGRAMS], ids=[n for n, _ in PROGRAMS]
)
def test_named_programs_agree_with_replay(program):
    assert_every_view_agrees(program, "program")


def test_random_programs_agree_with_replay():
    rng = random.Random(0xE1A)
    for trial in range(N_RANDOM_PROGRAMS):
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
        assert_every_view_agrees(program, f"trial {trial}")
