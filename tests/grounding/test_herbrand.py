"""Unit tests for the Herbrand universe and base."""

import pytest

from repro.core.semantics import OrderedSemantics
from repro.grounding.herbrand import herbrand_base, universe_of
from repro.lang.errors import GroundingError
from repro.lang.literals import Atom
from repro.lang.parser import parse_program, parse_rules
from repro.lang.terms import Constant
from repro.workloads.paper import figure1


class TestUniverse:
    def test_constants_only(self):
        universe = universe_of(parse_rules("p(a). q(b, c)."))
        assert set(universe) == {Constant("a"), Constant("b"), Constant("c")}
        assert universe.max_depth == 0

    def test_propositional_program_is_empty(self):
        assert len(universe_of(parse_rules("a :- b."))) == 0

    def test_guard_constants_included(self):
        universe = universe_of(parse_rules("t :- p(X), X > 11."))
        assert Constant(11) in set(universe)

    def test_function_symbols_require_depth(self):
        rules = parse_rules("p(f(a)).")
        with pytest.raises(GroundingError):
            universe_of(rules)

    def test_depth_bounded_universe(self):
        rules = parse_rules("p(f(X)) :- p(X). p(a).")
        u0 = universe_of(rules, max_depth=0)
        u1 = universe_of(rules, max_depth=1)
        u2 = universe_of(rules, max_depth=2)
        assert len(u0) == 1
        assert len(u1) == 2  # a, f(a)
        assert len(u2) == 3  # a, f(a), f(f(a))

    def test_binary_function_growth(self):
        rules = parse_rules("p(g(a, b)).")
        u1 = universe_of(rules, max_depth=1)
        # a, b plus g over {a,b}^2
        assert len(u1) == 2 + 4

    def test_term_cap(self):
        rules = parse_rules("p(g(a, b)).")
        with pytest.raises(GroundingError):
            universe_of(rules, max_depth=3, term_cap=10)

    def test_functions_without_constants(self):
        rules = parse_rules("p(f(X)) :- q(X).")
        with pytest.raises(GroundingError):
            universe_of(rules, max_depth=1)

    def test_ordered_program_input(self):
        universe = universe_of(figure1())
        assert set(universe) == {Constant("penguin"), Constant("pigeon")}

    def test_deterministic_order(self):
        u1 = universe_of(parse_rules("p(b). p(a). p(c)."))
        assert [str(t) for t in u1] == ["a", "b", "c"]


class TestBase:
    def test_base_of_figure1(self):
        base = herbrand_base(figure1())
        # 3 unary predicates x 2 constants
        assert len(base) == 6
        assert Atom("fly", (Constant("penguin"),)) in base

    def test_propositional_atoms(self):
        base = herbrand_base(parse_rules("a :- b."))
        assert base == {Atom("a"), Atom("b")}

    def test_arity_two(self):
        base = herbrand_base(parse_rules("p(a, b)."))
        assert len(base) == 4

    def test_explicit_universe(self):
        rules = parse_rules("p(a).")
        universe = universe_of(parse_rules("q(a). q(b)."))
        base = herbrand_base(rules, universe=universe)
        assert len(base) == 2

    def test_oversized_base_is_refused_before_it_is_built(self, monkeypatch):
        # 40 constants and a 6-ary predicate: 40^6 ≈ 4.1e9 atoms.  The
        # cold read fails on the instance cap instead of building them.
        constants = " ".join(f"c(k{i})." for i in range(40))
        program = parse_program(f"{constants} p(k0, k1, k2, k3, k4, k5).")
        built = 0
        init = Atom.__init__

        def counted(self, *args, **kwargs):
            nonlocal built
            built += 1
            if built > 100_000:
                raise RuntimeError("the base is being built")
            init(self, *args, **kwargs)

        monkeypatch.setattr(Atom, "__init__", counted)
        with pytest.raises(GroundingError, match=r"4096000040 atoms exceeds cap .* \(p/6\)"):
            OrderedSemantics(program, "main").least_model
        assert built < 100_000
