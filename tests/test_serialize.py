"""Unit + property tests for JSON serialization round trips."""

import pytest
from hypothesis import given, settings

from repro.core.semantics import OrderedSemantics
from repro.serialize import (
    FORMAT_VERSION,
    SerializationError,
    dumps_program,
    interpretation_from_dict,
    interpretation_to_dict,
    literal_from_dict,
    literal_to_dict,
    loads_program,
    program_from_dict,
    program_to_dict,
    rule_from_dict,
    rule_to_dict,
    term_from_dict,
    term_to_dict,
)
from repro.lang.parser import parse_rule, parse_term
from repro.workloads.paper import figure1, figure2, figure3

from .properties.test_lang_properties import programs, rules, terms


class TestTermRoundTrip:
    @pytest.mark.parametrize(
        "source", ["a", "42", "-3", "X", "f(a, X)", "f(g(a), h(X, 1))"]
    )
    def test_examples(self, source):
        term = parse_term(source)
        assert term_from_dict(term_to_dict(term)) == term

    @settings(max_examples=50, deadline=None)
    @given(terms)
    def test_property(self, term):
        assert term_from_dict(term_to_dict(term)) == term

    def test_bad_shape(self):
        with pytest.raises(SerializationError):
            term_from_dict({"zap": 1})


class TestRuleRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            "p(a).",
            "-fly(X) :- ground_animal(X).",
            "take_loan :- inflation(X), loan_rate(Y), X > Y + 2.",
            "d(X, Y) :- c(X), c(Y), X != Y.",
        ],
    )
    def test_examples(self, source):
        r = parse_rule(source)
        assert rule_from_dict(rule_to_dict(r)) == r

    @settings(max_examples=50, deadline=None)
    @given(rules)
    def test_property(self, r):
        assert rule_from_dict(rule_to_dict(r)) == r


class TestProgramRoundTrip:
    @pytest.mark.parametrize("factory", [figure1, figure2])
    def test_figures(self, factory):
        program = factory()
        assert loads_program(dumps_program(program)) == program

    def test_figure3_with_guards(self):
        program = figure3(("inflation(12).", "loan_rate(16)."))
        assert loads_program(dumps_program(program)) == program

    @settings(max_examples=30, deadline=None)
    @given(programs())
    def test_property(self, program):
        assert program_from_dict(program_to_dict(program)) == program

    def test_format_version_checked(self):
        data = program_to_dict(figure1())
        data["format"] = FORMAT_VERSION + 1
        with pytest.raises(SerializationError):
            program_from_dict(data)

    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            loads_program("{not json")

    def test_semantics_survives_round_trip(self):
        program = loads_program(dumps_program(figure1()))
        sem = OrderedSemantics(program, "c1")
        assert sem.holds("-fly(penguin)")


class TestLiteralAndInterpretation:
    def test_literal_round_trip(self):
        from repro.lang.literals import neg

        l = neg("fly", "penguin")
        assert literal_from_dict(literal_to_dict(l)) == l

    def test_interpretation_round_trip(self):
        sem = OrderedSemantics(figure1(), "c1")
        model = sem.least_model
        restored = interpretation_from_dict(interpretation_to_dict(model))
        assert restored == model

    def test_interpretation_base_preserved(self):
        sem = OrderedSemantics(figure2(), "c1")
        model = sem.least_model  # empty, but base is not
        restored = interpretation_from_dict(interpretation_to_dict(model))
        assert restored.base == model.base


class TestKnowledgeBaseRoundTrip:
    def _kb(self):
        from repro.core.solver import SearchBudget
        from repro.grounding.grounder import GroundingOptions
        from repro.kb.knowledge_base import KnowledgeBase

        kb = KnowledgeBase(
            grounding=GroundingOptions(instance_cap=12345),
            budget=SearchBudget(max_visited=777),
        )
        kb.define("bird", "fly(X) :- bird_of(X).\nbird_of(tweety).")
        kb.define(
            "penguin",
            "-fly(X) :- penguin_of(X).\nbird_of(X) :- penguin_of(X).",
            isa=["bird"],
        )
        kb.tell("penguin", "penguin_of(opus).")
        return kb

    def test_round_trip_preserves_rules_order_and_config(self):
        from repro.serialize import dumps_kb, loads_kb

        kb = self._kb()
        restored = loads_kb(dumps_kb(kb))
        assert restored.program() == kb.program()
        assert restored.grounding.instance_cap == 12345
        assert restored.budget.max_visited == 777
        # Restored instance answers identically.
        assert restored.view("penguin").holds("-fly(opus)")
        assert restored.view("bird").holds("fly(tweety)")

    def test_round_trip_then_mutate_independently(self):
        from repro.serialize import dumps_kb, loads_kb

        kb = self._kb()
        restored = loads_kb(dumps_kb(kb))
        restored.tell("penguin", "penguin_of(pingu).")
        assert restored.view("penguin").holds("-fly(pingu)")
        assert not kb.view("penguin").holds("-fly(pingu)")

    def test_format_version_checked(self):
        from repro.serialize import kb_from_dict, kb_to_dict

        data = kb_to_dict(self._kb())
        data["format"] = FORMAT_VERSION + 1
        with pytest.raises(SerializationError):
            kb_from_dict(data)

    def test_loads_rejects_bad_json(self):
        from repro.serialize import loads_kb

        with pytest.raises(SerializationError):
            loads_kb("{nope")
