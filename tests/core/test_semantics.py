"""Unit tests for the OrderedSemantics facade."""

import random

import pytest

from repro.analysis.static import classify_view
from repro.core.interpretation import TruthValue
from repro.core.semantics import OrderedSemantics
from repro.lang.errors import SemanticsError
from repro.lang.literals import pos
from repro.obs import instrumented
from repro.obs.trace import trace
from repro.reductions import ordered_version
from repro.workloads.paper import example6_ancestor, figure1
from repro.workloads.random_programs import random_stratified_program


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
