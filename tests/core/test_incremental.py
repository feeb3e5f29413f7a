"""Unit tests for the semi-naive engine (`repro.core.compiled`): index
construction, delta propagation, counter soundness under overruling
(Figure 1) and defeating (Figure 2), and strategy agreement on
`is_fixpoint`/`is_prefixpoint`."""

import random

import pytest

from repro.core.compiled import CompiledRuleIndex
from repro.core.semantics import OrderedSemantics
from repro.core.transform import (
    DEFAULT_STRATEGY,
    STRATEGIES,
    OrderedTransform,
)
from repro.lang.errors import InconsistencyError
from repro.workloads.paper import figure1
from repro.workloads.random_programs import random_ordered_program

from ..conftest import dense_run, semantics_of


def rule_named(evaluator, head, body=None):
    """The unique ground rule with the given head (and body literal)."""
    matches = [
        r
        for r in evaluator.rules
        if str(r.head) == head
        and (body is None or body in {str(l) for l in r.body})
    ]
    assert len(matches) == 1, (head, body, matches)
    return matches[0]


def threats(index, i, overruling):
    """Ids of the rules that watch rule ``i`` as its potential
    overrulers (or defeaters), read back from the contradiction CSR."""
    return tuple(
        j
        for j in range(len(index))
        for packed in index.contra_watchers[
            index.contra_start[j] : index.contra_start[j + 1]
        ]
        if packed >> 1 == i and bool(packed & 1) == overruling
    )


class TestRuleIndex:
    def test_index_is_cached_on_the_evaluator(self, figure1_semantics):
        ev = figure1_semantics.evaluator
        assert ev.index is ev.index
        assert isinstance(ev.index, CompiledRuleIndex)
        assert len(ev.index) == len(ev.rules)

    def test_body_watch_lists_every_body_occurrence(self, figure1_semantics):
        ev = figure1_semantics.evaluator
        index = ev.index
        lit_id = index.table.literal_id
        for i, r in enumerate(ev.rules):
            for lit in r.body:
                assert i in index.body_watchers(lit_id(lit))
        # And nothing else: each watch entry really has the literal.
        for l in range(index.n_literals):
            for i in index.body_watchers(l):
                assert index.table.literal(l) in ev.rules[i].body

    def test_block_watch_is_the_complement_view(self, figure1_semantics):
        index = figure1_semantics.evaluator.index
        for l in range(index.n_literals):
            for i in index.block_watchers(l):
                assert index.table.literal(l).complement() in index.rules[i].body

    def test_figure1_overruler_sets(self, figure1_semantics):
        ev = figure1_semantics.evaluator
        index = ev.index
        ids = {r: i for i, r in enumerate(ev.rules)}
        fly_penguin = rule_named(ev, "fly(penguin)")
        neg_fly_penguin = rule_named(ev, "-fly(penguin)")
        # c1's -fly(penguin) rule overrules c2's fly(penguin) rule…
        assert threats(index, ids[fly_penguin], True) == (ids[neg_fly_penguin],)
        # …never the other way around, and neither defeats the other
        # (c1 < c2 are comparable).
        assert threats(index, ids[neg_fly_penguin], True) == ()
        assert threats(index, ids[fly_penguin], False) == ()
        assert threats(index, ids[neg_fly_penguin], False) == ()

    def test_contradiction_watch_inverts_threat_sets(self, figure2_semantics):
        # The initial live counts are the sizes of the threat sets the
        # contradiction CSR inverts.
        index = figure2_semantics.evaluator.index
        for i in range(len(index)):
            assert index.init_live_overrulers[i] == len(threats(index, i, True))
            assert index.init_live_defeaters[i] == len(threats(index, i, False))
        assert len(index.contra_watchers) == sum(
            index.init_live_overrulers
        ) + sum(index.init_live_defeaters)

    def test_figure2_mutual_defeat_sets(self, figure2_semantics):
        ev = figure2_semantics.evaluator
        index = ev.index
        ids = {r: i for i, r in enumerate(ev.rules)}
        rich = rule_named(ev, "rich(mimmo)")
        neg_rich = rule_named(ev, "-rich(mimmo)")
        assert threats(index, ids[rich], False) == (ids[neg_rich],)
        assert threats(index, ids[neg_rich], False) == (ids[rich],)


class TestDeltaPropagation:
    def test_figure1_stage_deltas_match_naive_iterates(self, figure1_semantics):
        sem = figure1_semantics
        _, result, stage_deltas = dense_run(sem)
        # Recompute the naive chain and diff consecutive iterates.
        current = sem.interpretation([])
        naive_deltas = []
        while True:
            nxt = sem.transform.step(current)
            if nxt.literals == current.literals:
                break
            naive_deltas.append(nxt.literals - current.literals)
            current = nxt
        assert stage_deltas == naive_deltas
        assert result.literals == current.literals

    def test_deltas_are_disjoint_and_cover_the_least_model(self):
        rng = random.Random(20260806)
        for _ in range(25):
            program = random_ordered_program(rng, n_atoms=5, n_rules=10)
            for name in program.component_names:
                sem = OrderedSemantics(program, name, strategy="naive")
                _, result, stage_deltas = dense_run(sem)
                seen = set()
                for delta in stage_deltas:
                    assert delta, "stages must be productive"
                    assert not (delta & seen), "deltas must be disjoint"
                    seen |= delta
                assert seen == result.literals
                assert result.literals == sem.least_model.literals

    def test_blocked_overruler_releases_watching_rule(self, figure1_semantics):
        # The Figure-1 release chain: deriving -ground_animal(pigeon)
        # blocks -fly(pigeon) <- ground_animal(pigeon), which frees
        # fly(pigeon) one stage later.
        sem = figure1_semantics
        _, _, stage_deltas = dense_run(sem)
        deltas = [{str(l) for l in d} for d in stage_deltas]
        assert "-ground_animal(pigeon)" in deltas[1]
        assert deltas[2] == {"fly(pigeon)"}


class TestCounterSoundness:
    def assert_counters_match_definitions(self, sem):
        """After a run, every counter must agree with the Definition-2
        statuses evaluated directly against the least model."""
        ev = sem.evaluator
        run, lfp, _ = dense_run(sem)
        for i, r in enumerate(ev.rules):
            assert run.satisfied[i] == sum(1 for l in r.body if l in lfp)
            assert run.blocked[i] == ev.blocked(r, lfp)
            assert (run.live_overrulers[i] > 0) == ev.overruled(r, lfp)
            assert (run.live_defeaters[i] > 0) == ev.defeated(r, lfp)
            fires = (
                ev.applicable(r, lfp)
                and not ev.overruled(r, lfp)
                and not ev.defeated(r, lfp)
            )
            assert run.fired[i] == fires

    def test_figure1_overruling_counters(self, figure1_semantics):
        self.assert_counters_match_definitions(figure1_semantics)

    def test_figure2_defeating_counters(self, figure2_semantics):
        self.assert_counters_match_definitions(figure2_semantics)

    def test_random_program_counters(self):
        rng = random.Random(1990)
        for _ in range(25):
            program = random_ordered_program(
                rng, n_atoms=4, n_components=3, n_rules=9
            )
            for name in program.component_names:
                self.assert_counters_match_definitions(
                    OrderedSemantics(program, name)
                )

    def test_live_counters_never_go_negative(self):
        rng = random.Random(7)
        for _ in range(25):
            program = random_ordered_program(rng, n_atoms=5, n_rules=12)
            name = sorted(program.component_names)[0]
            sem = OrderedSemantics(program, name)
            run, _, _ = dense_run(sem)
            assert all(c >= 0 for c in run.live_overrulers)
            assert all(c >= 0 for c in run.live_defeaters)


class TestStrategyWiring:
    def test_default_strategy_is_seminaive(self, figure1_semantics):
        assert DEFAULT_STRATEGY == "seminaive"
        assert figure1_semantics.transform.strategy == "seminaive"

    def test_unknown_strategy_rejected_everywhere(self, figure1_semantics):
        with pytest.raises(ValueError, match="unknown fixpoint strategy"):
            OrderedSemantics(figure1(), "c1", strategy="eager")
        with pytest.raises(ValueError, match="unknown fixpoint strategy"):
            figure1_semantics.transform.least_fixpoint(strategy="bogus")

    def test_per_call_strategy_override(self, figure1_semantics):
        transform = figure1_semantics.transform
        assert (
            transform.least_fixpoint(strategy="naive").literals
            == transform.least_fixpoint(strategy="seminaive").literals
        )

    def test_iteration_bound_enforced_by_both_strategies(self, figure1_semantics):
        for strategy in STRATEGIES:
            with pytest.raises(InconsistencyError):
                figure1_semantics.transform.least_fixpoint(
                    max_iterations=1, strategy=strategy
                )

    def test_is_fixpoint_and_prefixpoint_agree_between_strategies(self):
        # Both predicates are defined through V itself; check them on
        # the least model computed by each strategy, plus Example 3's
        # model {b} which is a pre-fixpoint but not a fixpoint.
        rng = random.Random(31)
        for _ in range(15):
            program = random_ordered_program(rng, n_atoms=4, n_rules=8)
            for name in program.component_names:
                transforms = {
                    s: OrderedSemantics(program, name, strategy=s).transform
                    for s in STRATEGIES
                }
                models = {
                    s: t.least_fixpoint() for s, t in transforms.items()
                }
                for t in transforms.values():
                    for m in models.values():
                        assert t.is_fixpoint(m)
                        assert t.is_prefixpoint(m)

    def test_example3_prefixpoint_not_fixpoint_under_default(self):
        sem = semantics_of("component c { a :- b. -a :- b. }", "c")
        m = sem.interpretation(["b"])
        assert sem.transform.is_prefixpoint(m)
        assert not sem.transform.is_fixpoint(m)

    def test_solver_reuses_one_index_across_fixpoints(self, figure2_semantics):
        sem = figure2_semantics
        index_before = sem.evaluator.index
        sem.stable_models()
        assert sem.evaluator.index is index_before

    def test_inconsistency_surfaces_like_naive(self):
        # Two unordered facts with complementary heads defeat each
        # other, so V(∅) = ∅ — but a broken order (empty poset with a
        # forced fire) cannot be built from the public API; instead
        # check the engine raises when driven past its bound.
        sem = semantics_of("component c { a. b :- a. c :- b. }", "c")
        with pytest.raises(InconsistencyError):
            dense_run(sem, max_iterations=1)


class TestReuseAcrossRuns:
    def test_index_is_stateless_across_runs(self, figure1_semantics):
        sem = figure1_semantics
        index = sem.evaluator.index
        _, first, _ = dense_run(sem)
        _, second, _ = dense_run(sem)
        assert sem.evaluator.index is index
        assert first.literals == second.literals
        assert first.literals == sem.least_model.literals

    def test_transform_repeated_calls_are_stable(self, figure2_semantics):
        transform = OrderedTransform(
            figure2_semantics.evaluator, figure2_semantics.ground.base
        )
        results = {transform.least_fixpoint().literals for _ in range(3)}
        assert len(results) == 1
