"""Differential testing for incremental maintenance: after every
assertion/retraction the maintained least model must be *bit-identical*
to a from-scratch recomputation of the mutated program (Definition 4 on
the new program text — delete-rederive is an optimization, never a
semantics change).

This file is also the CI maintenance gate: the workflow scales the
random-trace sweep with ``MAINTENANCE_TRACES``.  The local default of
200 traces covers the acceptance floor; every paper figure and workload
generator additionally gets a deterministic retract/re-assert trace
over each of its told facts.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest

from repro.core import maintenance
from repro.core.semantics import OrderedSemantics
from repro.lang.errors import InconsistencyError, SemanticsError
from repro.lang.literals import Literal
from repro.reductions import ordered_version, three_level_version
from repro.workloads import classic, experts, hierarchies, paper, sessions
from repro.workloads.random_programs import random_ordered_program

#: Number of seeded random mutation traces swept (overridable from CI).
MAINTENANCE_TRACES = int(os.environ.get("MAINTENANCE_TRACES", "200"))

#: Mutation steps per random trace.
TRACE_LENGTH = 10


def fresh_literals(program, component):
    return OrderedSemantics(program, component).least_model.literals


def told_facts(program):
    """Every (component, literal) copy of a told ground fact."""
    return [
        (comp.name, rule.head)
        for comp in program.components()
        for rule in comp.rules
        if rule.is_fact and rule.is_ground
    ]


def assert_maintained_matches_fresh(sem, context):
    mine = sem.least_model.literals
    fresh = fresh_literals(sem.program, sem.component)
    assert mine == fresh, (
        f"{context}: maintained-fresh="
        f"{sorted(map(str, mine - fresh))} "
        f"fresh-maintained={sorted(map(str, fresh - mine))}"
    )
    if sem._maintained is not None:
        sem._maintained.audit()


# ----------------------------------------------------------------------
# Deterministic traces over the curated programs
# ----------------------------------------------------------------------
NAMED_PROGRAMS = [
    ("figure1", paper.figure1()),
    ("figure1_flat", paper.figure1_flat()),
    ("figure2", paper.figure2()),
    ("figure3_inflation", paper.figure3(["inflation(12)."])),
    ("figure3_overrule", paper.figure3(["inflation(19).", "loan_rate(16)."])),
    ("example4_extended", paper.example4_extended()),
    ("example5", paper.example5()),
    ("example6", ordered_version(paper.example6_ancestor()).program),
    ("example8", three_level_version(paper.example8_birds()).program),
    ("scaled_figure1", paper.scaled_figure1(6, 3)),
    ("override_chain", hierarchies.override_chain(5)),
    ("diamond", hierarchies.diamond(3)),
    ("taxonomy", hierarchies.taxonomy(8, 2)),
    ("release_chain", hierarchies.release_chain(4)),
    ("expert_panel", experts.expert_panel(3, 3)),
    ("contradicting_panel", experts.contradicting_panel(3)),
    ("ov_ancestor", ordered_version(classic.ancestor_chain(4)).program),
    ("interactive_session", sessions.interactive_session(3, 4)),
]


@pytest.mark.parametrize(
    "program", [p for _, p in NAMED_PROGRAMS], ids=[n for n, _ in NAMED_PROGRAMS]
)
def test_retract_reassert_every_told_fact(program):
    """Retracting any told fact and telling it back must round-trip
    through the delta engine to exactly the fresh model at both stops."""
    facts = told_facts(program)
    if not facts:
        pytest.skip("program has no told ground facts")
    for component in sorted(program.component_names):
        sem = OrderedSemantics(program, component)
        try:
            before = sem.least_model.literals
        except InconsistencyError:
            continue  # the view itself is inconsistent; nothing to maintain
        for comp, lit in facts:
            sem.apply_ops([("retract", comp, lit)])
            assert_maintained_matches_fresh(
                sem, f"{component}: retract {lit} from {comp}"
            )
            sem.apply_ops([("assert", comp, lit)])
            assert_maintained_matches_fresh(
                sem, f"{component}: re-assert {lit} into {comp}"
            )
        assert sem.least_model.literals == before


# ----------------------------------------------------------------------
# Random mutation traces
# ----------------------------------------------------------------------
def run_random_trace(rng, trial, monkeypatch):
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
    view = sorted(program.component_names)[0]
    # Exercise the frontier fallback too: a third of the traces run
    # with a tiny threshold so the cascade cap regularly trips.
    monkeypatch.setattr(
        maintenance, "FRONTIER_THRESHOLD", rng.choice([1.0, 0.5, 0.0])
    )
    sem = OrderedSemantics(program, view)
    try:
        sem.least_model
    except InconsistencyError:
        return 0
    base = sorted(sem.ground.base, key=str)
    if not base:
        return 0
    comps = sorted(program.component_names)
    told = told_facts(program)
    checked = 0
    for step in range(TRACE_LENGTH):
        if told and rng.random() < 0.45:
            comp, lit = told[rng.randrange(len(told))]
            op = ("retract", comp, lit)
        else:
            lit = Literal(rng.choice(base), rng.random() < 0.7)
            comp = rng.choice(comps)
            op = ("assert", comp, lit)
        try:
            sem.apply_ops([op])
        except InconsistencyError:
            # The mutated program's own least model is inconsistent —
            # the fresh evaluation must agree that it is.
            with pytest.raises(InconsistencyError):
                fresh_literals(sem.program, view)
            return checked
        except SemanticsError:
            continue  # e.g. retract raced a duplicate below zero
        if op[0] == "assert":
            told.append((comp, lit))
        else:
            told.remove((comp, lit))
        try:
            fresh = fresh_literals(sem.program, view)
        except InconsistencyError:
            with pytest.raises(InconsistencyError):
                sem.least_model
            return checked
        mine = sem.least_model.literals
        assert mine == fresh, (
            f"trial {trial} step {step} {op}: "
            f"mine-fresh={sorted(map(str, mine - fresh))} "
            f"fresh-mine={sorted(map(str, fresh - mine))}\n{program}"
        )
        if sem._maintained is not None:
            sem._maintained.audit()
        checked += 1
    return checked


def test_random_mutation_traces_agree(monkeypatch):
    rng = random.Random(0x5EED)
    checked = 0
    for trial in range(MAINTENANCE_TRACES):
        checked += run_random_trace(rng, trial, monkeypatch)
    # Most traces survive several steps; make sure the sweep actually
    # exercised the engine rather than skipping everything.
    assert checked >= MAINTENANCE_TRACES * 2


# ----------------------------------------------------------------------
# Multi-object: constants that survive only where the view cannot look
# ----------------------------------------------------------------------
def test_invisible_objects_do_not_pin_a_views_universe():
    """Retracting the last occurrence of a constant in ``C*`` shrinks
    that view's Herbrand universe even while an object outside ``C*``
    still mentions the constant: the closed-world instances over it
    must leave the maintained model exactly as they leave a cold one."""
    from repro.kb import KnowledgeBase

    rng = random.Random(0xC57A4)
    constants = ["a0", "k0", "k1", "k2"]
    for trial in range(max(10, MAINTENANCE_TRACES // 5)):
        kb = KnowledgeBase()
        kb.define("top", "-q(X). r(a0).")
        kb.define("mid", "t(X) :- p(X).", isa=["top"])
        kb.define("view", isa=["mid"])
        kb.define("aside", " ".join(f"s({c})." for c in constants))
        told: list[tuple[str, str]] = []
        for step in range(TRACE_LENGTH):
            if told and rng.random() < 0.5:
                obj, fact = told.pop(rng.randrange(len(told)))
                kb.retract(obj, fact)
                op = ("retract", obj, fact)
            else:
                obj = rng.choice(["view", "mid", "aside"])
                fact = f"p({rng.choice(constants)})."
                kb.tell(obj, fact)
                told.append((obj, fact))
                op = ("tell", obj, fact)
            for name in ("view", "mid"):
                mine = kb.least_model(name).literals
                fresh = fresh_literals(kb.program(), name)
                assert mine == fresh, (
                    f"trial {trial} step {step} {op} at {name}: "
                    f"mine-fresh={sorted(map(str, mine - fresh))} "
                    f"fresh-mine={sorted(map(str, fresh - mine))}"
                )


# ----------------------------------------------------------------------
# KB-level session equivalence
# ----------------------------------------------------------------------
def test_session_delta_and_rebuild_answer_identically():
    depth, entities, n_ops = 4, 6, 60
    ops = sessions.session_ops(depth, entities, n_ops)
    delta_kb = sessions.build_session_kb(depth, entities)
    rebuild_kb = sessions.build_session_kb(depth, entities)
    delta_counts = sessions.run_session(delta_kb, ops)
    # The rebuild baseline: every cached view is dropped after each
    # write, so every ask recomputes the current program cold.
    rebuild_counts = Counter()
    for op in ops:
        rebuild_counts.update(sessions.run_session(rebuild_kb, [op]))
        if op[0] != "ask":
            rebuild_kb.rewind(rebuild_kb.program())
    assert delta_counts == rebuild_counts
    # The maintained views also answer per-literal identically at the end.
    for level in ("level0", f"level{depth - 1}", "root"):
        assert delta_kb.ask(level, "member(e0)") == rebuild_kb.ask(
            level, "member(e0)"
        )
