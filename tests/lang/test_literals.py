"""Unit tests for atoms and literals, including the paper's notation
helpers (complement, X+, X-, consistency)."""

import pytest

from repro.lang.literals import (
    Atom,
    complement_set,
    is_consistent,
    lit,
    neg,
    negative_part,
    pos,
    positive_part,
)
from repro.lang.terms import Constant, Variable


class TestAtom:
    def test_propositional_atom(self):
        a = Atom("take_loan")
        assert a.arity == 0
        assert str(a) == "take_loan"
        assert a.is_ground

    def test_signature(self):
        assert Atom("p", (Constant("a"), Constant("b"))).signature == ("p", 2)

    def test_groundness(self):
        assert not Atom("p", (Variable("X"),)).is_ground

    def test_equality(self):
        assert Atom("p", (Constant("a"),)) == Atom("p", (Constant("a"),))
        assert Atom("p", (Constant("a"),)) != Atom("p", (Constant("b"),))
        assert Atom("p") != Atom("q")

    def test_empty_predicate_rejected(self):
        with pytest.raises(ValueError):
            Atom("")


class TestLiteral:
    def test_positive_negative(self):
        assert pos("fly", "tweety").positive
        assert neg("fly", "tweety").negative
        assert not neg("fly", "tweety").positive

    def test_complement_involution(self):
        l = pos("fly", "tweety")
        assert l.complement().complement() == l
        assert (~l) == l.complement()

    def test_complement_is_built_once_and_kept_one_way(self):
        l = pos("fly", "tweety")
        c = l.complement()
        assert l.complement() is c
        assert hash(c) == hash(neg("fly", "tweety"))
        # No back pointer: a pair pointing at each other would be a
        # reference cycle only the cyclic collector frees.
        assert c.complement() == l and c.complement() is not l

    def test_complement_flips_sign_only(self):
        l = pos("fly", "tweety")
        assert l.complement().atom == l.atom
        assert l.complement().negative

    def test_str(self):
        assert str(pos("fly", "tweety")) == "fly(tweety)"
        assert str(neg("fly", "tweety")) == "-fly(tweety)"

    def test_args_conversion(self):
        l = pos("p", "X", "a", 3)
        assert l.args == (Variable("X"), Constant("a"), Constant(3))

    def test_lit_with_sign(self):
        assert lit("p", "a", positive=False) == neg("p", "a")

    def test_ordering_is_deterministic(self):
        literals = [pos("b"), neg("a"), pos("a")]
        assert sorted(literals) == sorted(literals, key=str)

    def test_variables(self):
        assert pos("p", "X", "Y").variables() == {Variable("X"), Variable("Y")}


class TestSetHelpers:
    def test_complement_set(self):
        assert complement_set({pos("a"), neg("b")}) == {neg("a"), pos("b")}

    def test_is_consistent(self):
        assert is_consistent({pos("a"), neg("b")})
        assert not is_consistent({pos("a"), neg("a")})
        assert is_consistent(set())

    def test_positive_negative_part(self):
        literals = {pos("a"), neg("b"), pos("c")}
        assert positive_part(literals) == {pos("a"), pos("c")}
        assert negative_part(literals) == {neg("b")}
