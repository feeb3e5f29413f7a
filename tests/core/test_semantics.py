"""Unit tests for the OrderedSemantics facade."""

import functools
import random
import time

import pytest

from repro.analysis.static import classify_view
from repro.core.interpretation import TruthValue
from repro.core.maintenance import ASSERT, RETRACT, MaintainedModel
from repro.core.semantics import OrderedSemantics
from repro.grounding.grounder import Grounder
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.query import answers_in
from repro.lang.errors import SemanticsError
from repro.lang.literals import pos
from repro.lang.poset import PartialOrder
from repro.obs import instrumented
from repro.obs.trace import trace
from repro.reductions import ordered_version
from repro.workloads import forest_program
from repro.workloads.paper import example6_ancestor, figure1
from repro.workloads.random_programs import random_stratified_program

from ..conftest import chain_program


class TestConstruction:
    def test_unknown_component_rejected(self):
        with pytest.raises(SemanticsError):
            OrderedSemantics(figure1(), "zap")

    def test_ground_cached(self, figure1_semantics):
        assert figure1_semantics.ground is figure1_semantics.ground


class TestStrategy:
    def test_classical_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown fixpoint strategy 'classical'"):
            OrderedSemantics(figure1(), "c1", strategy="classical")

    @pytest.mark.parametrize("strategy", ["auto", "demand"])
    def test_read_strategies_are_not_engines(self, strategy):
        # How a read is answered is KnowledgeBase.read's choice; the
        # semantics takes an engine name only.
        with pytest.raises(ValueError, match="unknown fixpoint strategy"):
            OrderedSemantics(figure1(), "c1", strategy=strategy)

    def test_stratified_view_runs_on_the_kernel(self):
        program = random_stratified_program(random.Random(3))
        assert classify_view(program, "main").routable
        with instrumented() as obs, trace("test") as ctx:
            _ = OrderedSemantics(program, "main").least_model
            counters = obs.snapshot()["counters"]
        assert "semantics.route.stratified" not in counters
        assert ctx.costs["fixpoint_stages"] >= 1
        assert "stratified_routed" not in ctx.costs

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown fixpoint strategy"):
            OrderedSemantics(figure1(), "c1", strategy="bogus")

    def test_auto_keeps_seminaive_transform(self):
        sem = OrderedSemantics(random_stratified_program(random.Random(2)), "main")
        assert sem.strategy == "seminaive"
        assert sem.transform.strategy == "seminaive"

    def test_multi_component_view_answers_figure1(self):
        assert not classify_view(figure1(), "c1").routable
        sem = OrderedSemantics(figure1(), "c1")
        assert sem.holds("-fly(penguin)")
        assert sem.holds("fly(pigeon)")

    def test_ancestor_program_strategies_agree(self):
        program = ordered_version(example6_ancestor()).program
        expected = OrderedSemantics(program, "c", strategy="naive").least_model
        model = OrderedSemantics(program, "c", strategy="seminaive").least_model
        assert model.literals == expected.literals


class TestEntailment:
    def test_value_accepts_strings(self, figure1_semantics):
        assert figure1_semantics.value("fly(pigeon)") is TruthValue.TRUE
        assert figure1_semantics.value("fly(penguin)") is TruthValue.FALSE

    def test_value_accepts_literals(self, figure1_semantics):
        assert figure1_semantics.value(pos("fly", "pigeon")) is TruthValue.TRUE

    def test_holds_and_undefined(self, figure1_semantics):
        assert figure1_semantics.holds("-fly(penguin)")
        assert not figure1_semantics.holds("fly(penguin)")
        assert not figure1_semantics.undefined("fly(penguin)")

    def test_meaning_differs_per_component(self):
        # From c2's point of view the penguin flies (no specific info).
        sem_c2 = OrderedSemantics(figure1(), "c2")
        assert sem_c2.holds("fly(penguin)")
        sem_c1 = OrderedSemantics(figure1(), "c1")
        assert sem_c1.holds("-fly(penguin)")


class TestInterpretationBuilder:
    def test_strings_and_literals_mix(self, figure1_semantics):
        interp = figure1_semantics.interpretation(["fly(pigeon)", pos("bird", "pigeon")])
        assert len(interp) == 2

    def test_base_is_component_base(self, figure1_semantics):
        interp = figure1_semantics.interpretation([])
        assert interp.base == figure1_semantics.ground.base


class TestDiagnostics:
    def test_statuses_default_to_least_model(self, figure1_semantics):
        reports = figure1_semantics.statuses()
        assert len(reports) == len(figure1_semantics.full_ground.rules)

    def test_describe_mentions_component(self, figure1_semantics):
        text = figure1_semantics.describe()
        assert "component c1" in text
        assert "least model" in text


class TestNewConstantTell:
    """A told fact with a constant outside the view's universe needs
    re-grounding: a cold view finds that out before it grounds ``C*`` in
    full or seeds a delta engine, both of which it would throw away."""

    def test_refresh_builds_no_ground_rule_and_no_engine(self, monkeypatch):
        sem = OrderedSemantics(forest_program(3, depth=3), "main")
        sem.least_model
        built = {MaintainedModel: 0}
        init = MaintainedModel.__init__

        @functools.wraps(init)
        def counted(self, *args, **kwargs):
            built[MaintainedModel] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(MaintainedModel, "__init__", counted)
        with instrumented() as obs:
            stats = sem.apply_ops([(ASSERT, "main", "owner(q9, n0_0)")])
            counters = obs.snapshot()["counters"]
        assert counters.get("ground.instances_kept", 0) == 0
        assert built == {MaintainedModel: 0}
        assert stats.full_rebuild
        cold = OrderedSemantics(sem.program, "main").least_model
        assert sem.least_model.literals == cold.literals
        assert sem.holds("owns(q9, n0_1)")


class TestAbsorbOrReground:
    """A view decides once per batch, before it grounds anything or
    moves its delta engine, whether it absorbs the batch or re-grounds
    cold."""

    def test_a_seed_past_the_instance_cap_regrounds_cold(self, monkeypatch):
        sem = OrderedSemantics(chain_program(40), "main")
        cold = sem.least_model
        ground = Grounder.ground_component_star

        def relevance_only(self, program, component, *, full=False):
            assert not full, "built the full instantiation"
            return ground(self, program, component)

        monkeypatch.setattr(Grounder, "ground_component_star", relevance_only)
        start = time.perf_counter()
        stats = sem.apply_ops([(ASSERT, "main", "q(k5, k7)")])
        model = sem.least_model
        assert time.perf_counter() - start < 1.0
        assert stats.full_rebuild
        assert model.literals == OrderedSemantics(sem.program, "main").least_model.literals
        assert answers_in(model, "p(X)") == answers_in(cold, "p(X)")

    def test_a_warm_view_refuses_a_batch_before_it_moves(self, monkeypatch):
        sem = OrderedSemantics(figure1(), "c1")
        sem.least_model
        assert not sem.apply_ops([(RETRACT, "c2", "bird(penguin)")]).full_rebuild
        entered = []
        monkeypatch.setattr(MaintainedModel, "apply", lambda *args: entered.append(args))
        stats = sem.apply_ops(
            [(ASSERT, "c2", "bird(penguin)"), (ASSERT, "c2", "bird(ostrich)")]
        )
        assert entered == []
        assert stats.full_rebuild
        cold = OrderedSemantics(sem.program, "c1").least_model
        assert sem.least_model.literals == cold.literals
        assert sem.holds("fly(ostrich)") and sem.holds("-fly(penguin)")

    def test_repairs_never_rebuild_the_upset(self, monkeypatch):
        kb = KnowledgeBase.from_program(figure1())
        kb.least_model("c1")
        kb.retract("c2", "bird(penguin).")
        kb.least_model("c1")  # the view's delta engine is seeded
        upset = PartialOrder.upset
        calls = []

        def counted(self, element):
            calls.append(element)
            return upset(self, element)

        monkeypatch.setattr(PartialOrder, "upset", counted)
        for _ in range(3):
            kb.tell("c2", "bird(penguin).")
            assert kb.ask("c1", "-fly(penguin)")
            kb.retract("c2", "bird(penguin).")
            assert not kb.ask("c1", "bird(penguin)")
        assert calls == []
        assert kb.view("c1")._maintained is not None  # repaired, not re-grounded
