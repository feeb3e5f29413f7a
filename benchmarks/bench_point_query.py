"""Experiment PQ — goal-directed point queries vs full materialization.

A point query against a wide forest touches one tree; the demand
strategy (magic sets over the ordered transform, ``docs/query.md``)
does work proportional to that tree while the materializing path
grounds and closes the whole forest.  The bench-compare CI job reads
the ``point-query`` series and enforces the ``>= 10x`` gate at the
largest size (``scripts/check_seminaive_speedup.py --experiment
point-query``); the measured gap is orders of magnitude above the bar
and grows with the forest.

``point-query-edb`` is the disk-backed variant: the same forest bulk
loaded into an :class:`~repro.db.edb.EdbStore`, answered in
milliseconds without ever expanding the store into a program.  It has
no materialize twin — materialization at that size is exactly what the
demand path exists to avoid.

``point-query-repeated`` asks many goals through ONE
:class:`~repro.kb.knowledge_base.KnowledgeBase`: the view's demand
route (classification, told-fact partition, cardinalities, one plan per
goal shape) is compiled by the first goal and reused by the rest, so
the per-goal time is the engine run alone — on the disk store and on
the in-memory forest, whose 227 rules a fresh ``demand_answers`` call
re-classifies and re-partitions every time.
"""

import random

import pytest

from repro.core.semantics import OrderedSemantics
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.query import answers_in
from repro.query import demand_answers
from repro.workloads.point_query import (
    forest_program,
    load_forest_edb,
    point_goals,
)

from .conftest import capture_metrics, record

#: Number of trees; facts grow linearly, materialization superlinearly.
SIZES = [2, 8, 32]
DEPTH = 3
#: ``ancestor(root, X)`` answers: every proper descendant of the root.
SUBTREE = 2**DEPTH - 2


def _goal(size: int) -> str:
    return point_goals(random.Random(7), size, depth=DEPTH)[0]


@pytest.mark.parametrize("size", SIZES)
def test_point_query_demand(benchmark, size):
    program = forest_program(size, depth=DEPTH)
    goal = _goal(size)

    def run():
        result = demand_answers(program, "main", goal)
        assert result.used, f"demand declined: {result.reason}"
        return result.answers

    answers = benchmark(run)
    assert len(answers) == SUBTREE
    snapshot = capture_metrics(benchmark, run)
    assert "query.demand" in snapshot["spans"]
    record(
        benchmark,
        experiment="point-query",
        strategy="demand",
        size=size,
        facts=sum(1 for r in program.components()[0].rules if r.is_fact),
        answers=len(answers),
    )


@pytest.mark.parametrize("size", SIZES)
def test_point_query_materialize(benchmark, size):
    program = forest_program(size, depth=DEPTH)
    goal = _goal(size)

    def run():
        # A cold semantics each round: the timed work is grounding +
        # least-model materialization + the pattern match, i.e. what a
        # first query against an unwarmed view costs.
        semantics = OrderedSemantics(program, "main", strategy="seminaive")
        return answers_in(semantics.least_model, goal)

    answers = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(answers) == SUBTREE
    record(
        benchmark,
        experiment="point-query",
        strategy="materialize",
        size=size,
        facts=sum(1 for r in program.components()[0].rules if r.is_fact),
        answers=len(answers),
    )


@pytest.mark.parametrize("size", [20_000])
def test_point_query_edb(benchmark, tmp_path, size):
    from repro.db.edb import EdbStore

    store = EdbStore(str(tmp_path / "forest.edb"), object_name="main")
    kb = KnowledgeBase.from_program(load_forest_edb(store, size, depth=DEPTH))
    kb.attach_edb("main", store)
    goal = _goal(size)

    def run():
        return kb.query("main", goal, strategy="demand")

    answers = benchmark(run)
    assert len(answers) == SUBTREE
    record(
        benchmark,
        experiment="point-query-edb",
        strategy="demand",
        size=size,
        facts=store.total_facts(),
        answers=len(answers),
    )
    store.close()


#: Trees asked per timed round of the repeated-goals series (two goals
#: per tree: the subtree below its root, one deepest-level membership).
REPEATED_TREES = 200


def _ask_all(kb, goals):
    answered = 0
    for goal in goals:
        answered += len(kb.query("main", goal, strategy="demand"))
    return answered


def test_point_query_repeated_edb(benchmark, tmp_path):
    from repro.db.edb import EdbStore

    size = 20_000
    store = EdbStore(str(tmp_path / "forest.edb"), object_name="main")
    kb = KnowledgeBase.from_program(load_forest_edb(store, size, depth=DEPTH))
    kb.attach_edb("main", store)
    goals = point_goals(random.Random(11), size, depth=DEPTH, count=REPEATED_TREES)

    answered = benchmark(_ask_all, kb, goals)
    assert answered == REPEATED_TREES * (SUBTREE + 1)
    record(
        benchmark,
        experiment="point-query-repeated",
        strategy="demand-edb",
        size=size,
        goals=len(goals),
        facts=store.total_facts(),
    )
    store.close()


def test_point_query_repeated_memory(benchmark):
    size = SIZES[-1]
    kb = KnowledgeBase.from_program(forest_program(size, depth=DEPTH))
    goals = point_goals(random.Random(11), size, depth=DEPTH, count=REPEATED_TREES)

    answered = benchmark(_ask_all, kb, goals)
    assert answered == REPEATED_TREES * (SUBTREE + 1)
    snapshot = capture_metrics(benchmark, lambda: _ask_all(kb, goals))
    assert snapshot["counters"]["query.demand.plan.hit"] == len(goals)
    record(
        benchmark,
        experiment="point-query-repeated",
        strategy="demand-memory",
        size=size,
        goals=len(goals),
    )
