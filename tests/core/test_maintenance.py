"""Unit tests for the incremental maintenance engine
(:mod:`repro.core.maintenance`) and its :class:`OrderedSemantics`
threading — assertion deltas, retraction delete-rederive, the ordered
status dance (un-overruling / un-defeating), refcounts and the obs
counters.

The exhaustive bit-identical comparison against from-scratch
recomputation lives in ``tests/properties/test_maintenance_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.core.maintenance import ASSERT, RETRACT, DeltaUnsupported, MaintainedModel
from repro.core.semantics import OrderedSemantics
from repro.grounding.grounder import GroundingOptions
from repro.lang.errors import SemanticsError
from repro.lang.parser import parse_literal, parse_program
from repro.obs import instrumented, trace
from repro.workloads import build_session_kb, paper, run_session, session_ops


def model_of(sem):
    return {str(l) for l in sem.least_model.literals}


def fresh_model(sem):
    return {
        str(l)
        for l in OrderedSemantics(
            sem.program, sem.component, strategy="seminaive"
        ).least_model.literals
    }


# ----------------------------------------------------------------------
# Engine-level behaviour
# ----------------------------------------------------------------------
def figure1_engine():
    sem = OrderedSemantics(paper.figure1(), "c1", strategy="seminaive")
    engine = MaintainedModel(sem.evaluator, sem.ground.base)
    return sem, engine


def test_initial_model_matches_least_model():
    sem, engine = figure1_engine()
    assert engine.interpretation().literals == sem.least_model.literals
    engine.audit()


def test_assert_feeds_delta_without_restart():
    sem, engine = figure1_engine()
    lit = parse_literal("ground_animal(pigeon)")
    stats = engine.apply([(ASSERT, "c1", lit)])
    assert not stats.full_rebuild
    assert stats.asserted == 1
    literals = {str(l) for l in engine.interpretation().literals}
    assert "ground_animal(pigeon)" in literals
    # The c1 fact overrules c3's -ground_animal(pigeon) default.
    assert "-ground_animal(pigeon)" not in literals
    engine.audit()


def tweety_program():
    return parse_program(
        """
        component general { fly(X) :- bird_of(X). }
        component specific {
          -fly(X) :- penguin_of(X).
          bird_of(X) :- penguin_of(X).
          penguin_of(tweety).
        }
        order specific < general.
        """
    )


def test_retraction_unoverrules_the_general_default():
    # Figure 1 shape: retracting penguin-ness restores the bird defaults.
    sem = OrderedSemantics(tweety_program(), "specific", strategy="seminaive")
    engine = MaintainedModel(sem.evaluator, sem.ground.base)
    assert "-fly(tweety)" in {str(l) for l in engine.interpretation().literals}
    stats = engine.apply([(RETRACT, "specific", parse_literal("penguin_of(tweety)"))])
    assert not stats.full_rebuild
    assert stats.deleted >= 3  # penguin_of, bird_of, -fly all fall
    literals = {str(l) for l in engine.interpretation().literals}
    assert literals == set()  # nothing is a bird any more
    engine.audit()
    # Re-asserting brings the specific view back, through the delta path.
    engine.apply([(ASSERT, "specific", parse_literal("penguin_of(tweety)"))])
    assert "-fly(tweety)" in {str(l) for l in engine.interpretation().literals}
    engine.audit()


def test_retraction_undefeats_incomparable_rival():
    # Two incomparable experts defeat each other; retracting one side's
    # fact lets the rival's opinion through (un-defeating).
    program = parse_program(
        """
        component board { }
        component alice { opinion(buy). }
        component bob { -opinion(buy). }
        order board < alice.
        order board < bob.
        """
    )
    sem = OrderedSemantics(program, "board", strategy="seminaive")
    engine = MaintainedModel(sem.evaluator, sem.ground.base)
    assert engine.interpretation().literals == frozenset()  # mutual defeat
    stats = engine.apply([(RETRACT, "bob", parse_literal("-opinion(buy)"))])
    assert not stats.full_rebuild
    assert {str(l) for l in engine.interpretation().literals} == {"opinion(buy)"}
    engine.audit()


def test_engine_holds_one_instance_per_fact():
    # Told copies are counted by OrderedProgram.update_facts, which only
    # forwards the first copy in and the last copy out; the engine itself
    # keeps a liveness flag, so telling a live fact again is a no-op.
    sem, engine = figure1_engine()
    lit = parse_literal("bird(penguin)")
    initial = engine.interpretation().literals
    stats = engine.apply([(ASSERT, "c2", lit)])  # already a live instance
    assert stats.rules_reevaluated == 0
    assert engine.interpretation().literals == initial
    engine.apply([(RETRACT, "c2", lit)])
    assert "bird(penguin)" not in {
        str(l) for l in engine.interpretation().literals
    }
    engine.audit()


def test_retract_missing_fact_raises():
    sem, engine = figure1_engine()
    with pytest.raises(SemanticsError, match="no such told fact"):
        engine.apply([(RETRACT, "c1", parse_literal("bird(penguin)"))])


@pytest.mark.parametrize("fact", ["bird(ostrich)", "bird(X)"])
def test_an_atom_outside_the_base_is_refused(fact):
    # The guard a direct caller meets; a view checks engine.base first.
    sem, engine = figure1_engine()
    assert parse_literal(fact).atom not in engine.base
    with pytest.raises(DeltaUnsupported, match="outside the grounded base"):
        engine.apply([(ASSERT, "c2", parse_literal(fact))])


def test_batched_ops_single_cascade():
    sem, engine = figure1_engine()
    stats = engine.apply(
        [
            (RETRACT, "c2", parse_literal("bird(penguin)")),
            (ASSERT, "c2", parse_literal("bird(penguin)")),
        ]
    )
    # Net no-op batch: the final model is the initial one.
    assert engine.interpretation().literals == sem.least_model.literals
    assert stats.asserted == 1 and stats.retracted == 1
    engine.audit()


# ----------------------------------------------------------------------
# OrderedSemantics.apply_ops threading
# ----------------------------------------------------------------------
def test_apply_delta_maintains_least_model_and_program():
    sem = OrderedSemantics(paper.figure1(), "c1")
    before = model_of(sem)
    stats = sem.apply_ops([(RETRACT, "c2", "bird(penguin)")])
    assert not stats.full_rebuild
    assert model_of(sem) == fresh_model(sem)
    assert model_of(sem) != before
    sem.apply_ops([(ASSERT, "c2", "bird(penguin)")])
    assert model_of(sem) == before
    # The mutated program round-trips through the maintained ground
    # program: statuses and enumeration still work.
    assert sem.statuses()
    assert sem.stable_models()


def test_apply_delta_out_of_base_assertion_falls_back():
    sem = OrderedSemantics(paper.figure1(), "c1")
    sem.least_model
    stats = sem.apply_ops([(ASSERT, "c2", "bird(ostrich)")])
    assert stats.full_rebuild  # new constant: the view must re-ground
    assert "fly(ostrich)" in model_of(sem)
    assert model_of(sem) == fresh_model(sem)


def test_apply_delta_duplicate_fact_is_invisible_to_the_engine():
    sem = OrderedSemantics(paper.figure1(), "c1")
    before = model_of(sem)
    stats = sem.apply_ops([(ASSERT, "c2", "bird(penguin)")])
    assert not stats.full_rebuild
    assert model_of(sem) == before
    # One retraction drops the duplicate only.
    sem.apply_ops([(RETRACT, "c2", "bird(penguin)")])
    assert model_of(sem) == before
    sem.apply_ops([(RETRACT, "c2", "bird(penguin)")])
    assert "bird(penguin)" not in model_of(sem)
    assert model_of(sem) == fresh_model(sem)


def test_apply_delta_retract_never_told_raises_and_preserves_state():
    sem = OrderedSemantics(paper.figure1(), "c1")
    before = model_of(sem)
    with pytest.raises(SemanticsError, match="never told"):
        sem.apply_ops([(RETRACT, sem.component, "bird(penguin)")])  # wrong component
    assert model_of(sem) == before


def test_duplicate_copies_are_counted_before_the_engine():
    # r(a) keeps a in the universe once p(a) goes, so the last
    # retraction is an engine op rather than a re-grounding.
    program = parse_program("component only { p(a). q(X) :- p(X). r(a). }")
    sem = OrderedSemantics(program, "only")
    assert "q(a)" in model_of(sem)
    with instrumented() as obs:
        stats = sem.apply_ops([(ASSERT, sem.component, "p(a)")])
        # Duplicate program copy: the ground program is unchanged, so
        # the engine is not even seeded.
        assert not stats.full_rebuild and sem._maintained is None
        stats = sem.apply_ops([(RETRACT, sem.component, "p(a)")])
        assert not stats.full_rebuild  # the duplicate absorbs the retract
        assert sem._maintained is None and "q(a)" in model_of(sem)
        stats = sem.apply_ops([(RETRACT, sem.component, "p(a)")])
        counters = obs.snapshot()["counters"]
    assert not stats.full_rebuild and sem._maintained is not None
    assert counters["maintain.delta_facts"] == 3
    assert counters.get("maintain.full_rebuilds", 0) == 0
    assert model_of(sem) == {"r(a)"} == fresh_model(sem)


def test_a_maintained_view_keeps_only_its_model():
    sem = OrderedSemantics(paper.figure1(), "c1")
    sem.least_model
    stats = sem.apply_ops([(RETRACT, "c2", "bird(penguin)")])
    assert not stats.full_rebuild and sem._maintained is not None
    # Nothing but the model survives the write; every other property
    # is the cold view's, grounded from the mutated program.
    assert set(sem.__dict__) & set(OrderedSemantics._CACHED) == {"least_model"}
    cold = OrderedSemantics(sem.program, "c1")
    assert sem.least_model == cold.least_model
    assert list(sem.ground.rules) == list(cold.ground.rules)
    assert list(sem.full_ground.rules) == list(cold.full_ground.rules)
    assert sem.describe() == cold.describe()


def test_obs_counters_flow():
    with instrumented() as obs:
        sem = OrderedSemantics(paper.figure1(), "c1")
        sem.least_model
        sem.apply_ops([(RETRACT, "c2", "bird(penguin)")])
        sem.apply_ops([(ASSERT, "c2", "bird(ostrich)")])  # fallback
        sem.least_model
        counters = obs.snapshot()["counters"]
    assert counters["maintain.delta_facts"] == 2
    assert counters["maintain.rules_reevaluated"] >= 1
    assert counters["maintain.full_rebuilds"] == 1


@pytest.mark.parametrize(
    "term, options",
    [("k", GroundingOptions()), ("f(a0)", GroundingOptions(max_depth=1))],
    ids=["constant", "function-symbol"],
)
def test_retracting_a_symbols_last_visible_occurrence_regrounds(term, options):
    # The symbol survives only in c, which a's view cannot see: once
    # p(term) is retracted the universe of a* no longer holds the term,
    # so b's closed-world instance -q(term) must go — exactly as a cold
    # evaluation says.
    from repro.kb import KnowledgeBase

    kb = KnowledgeBase(grounding=options)
    kb.define("b", "-q(X). r(a0).")
    kb.define("a", isa=["b"])
    kb.define("c", f"s({term}).")
    kb.tell("a", f"p({term}).")
    assert kb.ask("a", f"-q({term})")
    kb.retract("a", f"p({term}).")
    maintained = kb.least_model("a").literals
    cold = OrderedSemantics(kb.program(), "a", grounding=options).least_model
    assert maintained == cold.literals
    assert f"-q({term})" not in {str(l) for l in maintained}


# ----------------------------------------------------------------------
# Edges of the dense state: tombstones, pinned reads, late-interned atoms
# ----------------------------------------------------------------------
def test_reasserting_a_retracted_fact_revives_its_tombstone():
    sem, engine = figure1_engine()
    initial = engine.interpretation().literals
    op = ("c1", parse_literal("ground_animal(pigeon)"))
    engine.apply([(ASSERT, *op)])
    engine.apply([(RETRACT, *op)])
    n_rules = len(engine._components)  # one per rule, tombstones included
    for _ in range(1000):
        engine.apply([(ASSERT, *op)])
        engine.apply([(RETRACT, *op)])
    assert len(engine._components) == n_rules
    assert engine.alive_count() == len(sem.ground.rules)
    assert engine.interpretation().literals == initial
    engine.audit()


def test_interpretation_is_a_snapshot_not_a_view_of_live_state():
    sem = OrderedSemantics(tweety_program(), "specific", strategy="seminaive")
    engine = MaintainedModel(sem.evaluator, sem.ground.base)
    expected = sem.least_model.literals
    before = engine.interpretation()  # deliberately not read yet
    engine.apply([(RETRACT, "specific", parse_literal("penguin_of(tweety)"))])
    assert engine.interpretation().literals == frozenset()
    assert before.literals == expected


def test_pinned_least_model_survives_apply_delta():
    sem = OrderedSemantics(paper.figure1(), "c1")
    expected = model_of(sem)
    sem.apply_ops([(RETRACT, "c2", "bird(penguin)")])
    sem.apply_ops([(ASSERT, "c2", "bird(penguin)")])
    pinned = sem.least_model  # a maintained, still undecoded model
    sem.apply_ops([(RETRACT, "c2", "bird(penguin)")])
    assert model_of(sem) != expected
    assert {str(l) for l in pinned.literals} == expected


def test_told_atom_outside_the_compiled_table_stays_on_the_delta_path():
    # r(a,a) is in the Herbrand base but the guard keeps it out of every
    # ground rule, so it has no literal id in the compiled index.
    program = parse_program(
        """
        component general { s(a). s(b). r(X,Y) :- s(X), s(Y), X != Y. }
        component specific { }
        order specific < general.
        """
    )
    sem = OrderedSemantics(program, "specific")
    sem.least_model
    outside = parse_literal("r(a,a)")
    assert outside.atom in sem.ground.base
    assert outside.atom not in sem.ground.atom_table
    n_literals = sem.evaluator.index.compiled.n_literals
    for kind, comp, fact in [
        ("assert", "general", "r(a,a)"),
        ("assert", "specific", "-r(a,a)"),  # overrules the general fact
        ("retract", "general", "r(a,a)"),
        ("assert", "general", "r(a,a)"),
        ("retract", "specific", "-r(a,a)"),
        ("retract", "general", "r(a,a)"),
    ]:
        stats = sem.apply_ops([(kind, comp, fact)])
        assert not stats.full_rebuild
        assert model_of(sem) == fresh_model(sem)
        sem._maintained.audit()
    assert sem.ground.atom_table.literal_id(outside) >= n_literals


# ----------------------------------------------------------------------
# What maintenance saves, in counts
# ----------------------------------------------------------------------
def session_work(rebuild_after_writes: bool):
    """Drive the ``interactive_session`` stream through a knowledge
    base; with ``rebuild_after_writes`` every write drops the cached
    views (``kb.rewind``), so each later ask recomputes from ∅.
    Returns the positive-answer count and the stream's cost digest."""
    depth, entities, n_ops = 4, 8, 40
    kb = build_session_kb(depth, entities)
    kb.ask("level0", "member(e0)")  # the bottom view is hot
    yes = 0
    with trace("session") as ctx:
        for op in session_ops(depth, entities, n_ops):
            yes += run_session(kb, [op])["yes"]
            if rebuild_after_writes and op[0] != "ask":
                kb.rewind(kb.program())
    return yes, ctx.costs


def test_maintained_session_does_a_fifth_of_the_work_of_rebuilding():
    yes, delta = session_work(rebuild_after_writes=False)
    same, rebuilt = session_work(rebuild_after_writes=True)
    assert yes == same
    work = delta.get("rules_reevaluated", 0) + delta.get("rules_touched", 0)
    assert 5 * work <= rebuilt["rules_touched"], (delta, rebuilt)
    assert delta["full_rebuilds"] == 0 and delta["delta_facts"] > 0
