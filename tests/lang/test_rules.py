"""Unit tests for rules: classification (positive / seminegative /
negative), the B(r)/H(r) accessors, and guards."""

import pytest

from repro.lang.builtins import Comparison
from repro.lang.literals import neg, pos
from repro.lang.rules import Rule, fact, rule
from repro.lang.terms import Constant, Variable


class TestConstruction:
    def test_fact(self):
        f = fact(pos("bird", "penguin"))
        assert f.is_fact
        assert f.is_ground
        assert str(f) == "bird(penguin)."

    def test_rule_str(self):
        r = rule(pos("fly", "X"), pos("bird", "X"))
        assert str(r) == "fly(X) :- bird(X)."

    def test_head_body_accessors(self):
        r = rule(pos("a"), pos("b"), neg("c"))
        assert r.head == pos("a")
        assert r.body_literals() == (pos("b"), neg("c"))
        assert r.body_literal_set() == {pos("b"), neg("c")}

    def test_body_literals_built_once(self):
        r = rule(pos("a"), pos("b"), neg("c"))
        assert r.body_literals() is r.body_literals()
        # Without a guard, B(r) is the body itself: no second tuple.
        assert r.body_literals() is r.body
        guarded = rule(
            pos("a", "X"), pos("b", "X"), Comparison(">", Variable("X"), Constant(1))
        )
        assert guarded.body_literals() is guarded.body_literals()
        assert guarded.body_literals() == (pos("b", "X"),)

    def test_bad_head_rejected(self):
        with pytest.raises(TypeError):
            Rule("a", ())

    def test_bad_body_item_rejected(self):
        with pytest.raises(TypeError):
            Rule(pos("a"), ("b",))


class TestClassification:
    def test_positive_rule(self):
        r = rule(pos("a"), pos("b"))
        assert r.is_positive and r.is_seminegative
        assert not r.has_negative_head

    def test_seminegative_rule(self):
        r = rule(pos("a"), neg("b"))
        assert r.is_seminegative and not r.is_positive

    def test_negative_rule(self):
        r = rule(neg("a"), pos("b"))
        assert r.has_negative_head
        assert not r.is_seminegative and not r.is_positive

    def test_guards_do_not_affect_positivity(self):
        guard = Comparison(">", Variable("X"), Constant(2))
        r = Rule(pos("p", "X"), (pos("q", "X"), guard))
        assert r.is_positive
        assert r.guards() == (guard,)
        assert r.body_literals() == (pos("q", "X"),)

    def test_guard_only_body_is_not_fact(self):
        guard = Comparison(">", Constant(3), Constant(2))
        r = Rule(pos("p"), (guard,))
        assert not r.is_fact


class TestVariablesAndRenaming:
    def test_variables_from_head_body_and_guards(self):
        guard = Comparison(">", Variable("X"), Variable("Z"))
        r = Rule(pos("p", "X"), (pos("q", "Y"), guard))
        assert r.variables() == {Variable("X"), Variable("Y"), Variable("Z")}

    def test_ground_rule_has_no_variables(self):
        assert rule(pos("p", "a"), pos("q", "b")).is_ground


class TestEquality:
    def test_equal_rules(self):
        assert rule(pos("a"), pos("b")) == rule(pos("a"), pos("b"))

    def test_body_order_matters_for_equality(self):
        # Rules are syntactic objects; the semantics uses the body *set*.
        r1 = rule(pos("a"), pos("b"), pos("c"))
        r2 = rule(pos("a"), pos("c"), pos("b"))
        assert r1 != r2
        assert r1.body_literal_set() == r2.body_literal_set()

    def test_hashable(self):
        assert len({rule(pos("a"), pos("b")), rule(pos("a"), pos("b"))}) == 1
