"""Integration: the engine emits the documented metrics end to end."""

from repro.core.semantics import OrderedSemantics
from repro.lang.parser import parse_rules
from repro.obs import Level, RingBufferSink, get_instrumentation, instrumented
from repro.reductions import extended_version, ordered_version, three_level_version
from repro.workloads.paper import figure1, figure2


class TestSemanticsPipeline:
    def test_grounding_and_fixpoint_counters(self):
        with instrumented() as obs:
            sem = OrderedSemantics(figure1(), "c1")
            _ = sem.least_model
            counters = obs.snapshot()["counters"]
        assert counters["ground.source_rules"] == 6
        assert counters["ground.instances_kept"] == 9
        assert counters["ground.substitutions_tried"] >= 9
        assert counters["fixpoint.stages"] == 3
        assert counters["fixpoint.rules_applied"] > 0
        assert counters["fixpoint.rules_overruled"] > 0

    def test_spans_nest_under_caller(self):
        with instrumented() as obs:
            _ = OrderedSemantics(figure1(), "c1").least_model
            spans = obs.snapshot()["spans"]
        assert "semantics.least_model" in spans
        assert "semantics.least_model.ground" in spans
        assert "semantics.least_model.fixpoint" in spans

    def test_search_counters_on_stable_enumeration(self):
        with instrumented() as obs:
            OrderedSemantics(figure2(), "c1").stable_models()
            counters = obs.snapshot()["counters"]
        assert counters["search.leaves_visited"] >= 1
        assert counters["search.models_found"] >= 1

    def test_events_stream_through_sinks(self):
        ring = RingBufferSink()
        with instrumented(ring):
            _ = OrderedSemantics(figure1(), "c1").least_model
        names = {e.name for e in ring}
        assert "ground.done" in names
        assert "fixpoint.converged" in names
        stage_events = [e for e in ring if e.name == "fixpoint.stage"]
        assert len(stage_events) == 3
        assert all(e.level is Level.DEBUG for e in stage_events)

    def test_disabled_pipeline_records_nothing(self):
        obs = get_instrumentation()
        assert not obs.enabled
        obs.reset()
        _ = OrderedSemantics(figure1(), "c1").least_model
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["spans"] == {}


class TestSameAnswersEitherWay:
    def test_least_model_identical_with_instrumentation(self):
        plain = OrderedSemantics(figure1(), "c1").least_model
        with instrumented():
            observed = OrderedSemantics(figure1(), "c1").least_model
        assert plain.literals == observed.literals

    def test_stable_models_identical_with_instrumentation(self):
        plain = OrderedSemantics(figure2(), "c1").stable_models()
        with instrumented():
            observed = OrderedSemantics(figure2(), "c1").stable_models()
        assert [m.literals for m in plain] == [m.literals for m in observed]


class TestReductions:
    def test_reduction_counters(self):
        rules = parse_rules("p :- -q. q :- -p.")
        with instrumented() as obs:
            ordered_version(rules)
            extended_version(rules)
            three_level_version(rules)
            counters = obs.snapshot()["counters"]
        assert counters["reduction.ov.calls"] == 1
        assert counters["reduction.ev.calls"] == 1
        assert counters["reduction.3v.calls"] == 1
        assert counters["reduction.ov.rules_emitted"] >= len(rules)
        # EV adds the reflexive rules on top of OV's output.
        assert (
            counters["reduction.ev.rules_emitted"]
            > counters["reduction.ov.rules_emitted"]
        )
