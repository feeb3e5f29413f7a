"""Unit tests for substitutions (an answer's bindings) and matching."""

import pytest

from repro.grounding.substitution import Substitution, match_atom
from repro.lang.literals import Atom
from repro.lang.parser import parse_term
from repro.lang.terms import Constant, Variable


X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b = Constant("a"), Constant("b")


def p(*args) -> Atom:
    return Atom("p", args)


class TestSubstitution:
    def test_identity_bindings_dropped(self):
        assert len(Substitution({X: X})) == 0

    def test_non_variable_key_rejected(self):
        with pytest.raises(TypeError):
            Substitution({a: b})


class TestMatch:
    def test_variable_matches_anything(self):
        theta = match_atom(p(X), p(parse_term("f(a)")))
        assert theta[X] == parse_term("f(a)")

    def test_consistent_repeat_variable(self):
        assert match_atom(Atom("p", (X, X)), Atom("p", (a, a))) is not None
        assert match_atom(Atom("p", (X, X)), Atom("p", (a, b))) is None

    def test_constant_mismatch(self):
        assert match_atom(p(a), p(b)) is None

    def test_functor_mismatch(self):
        assert match_atom(p(parse_term("f(X)")), p(parse_term("g(a)"))) is None

    def test_seeded(self):
        seed = Substitution({X: a})
        assert match_atom(p(X), p(b), seed) is None
        assert match_atom(p(X), p(a), seed) is not None

    def test_target_variables_are_inert(self):
        # Matching is one-sided: a variable in the target is a constant.
        assert match_atom(p(a), p(Y)) is None
