"""Unit tests for the parser: rules, guards, components, orders and the
negation/minus ambiguity."""

import sys

import pytest

from repro.lang.builtins import BinaryOp
from repro.lang.errors import ParseError
from repro.lang.literals import neg, pos
from repro.lang.parser import (
    MAX_NESTING_DEPTH,
    parse_literal,
    parse_program,
    parse_rule,
    parse_rules,
    parse_term,
)
from repro.lang.terms import Compound, Constant, Variable


class TestTerms:
    def test_constant(self):
        assert parse_term("penguin") == Constant("penguin")

    def test_integer(self):
        assert parse_term("42") == Constant(42)

    def test_negative_integer(self):
        assert parse_term("-3") == Constant(-3)

    def test_variable(self):
        assert parse_term("X") == Variable("X")

    def test_compound(self):
        assert parse_term("f(a, X)") == Compound(
            "f", (Constant("a"), Variable("X"))
        )

    def test_nested_compound(self):
        t = parse_term("f(g(a), h(X, 1))")
        assert isinstance(t, Compound)
        assert t.arity == 2

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_term("a b")


class TestLiterals:
    def test_positive(self):
        assert parse_literal("fly(tweety)") == pos("fly", "tweety")

    def test_negative_with_minus(self):
        assert parse_literal("-fly(tweety)") == neg("fly", "tweety")

    def test_negative_with_tilde(self):
        assert parse_literal("~fly(tweety)") == neg("fly", "tweety")

    def test_propositional(self):
        assert parse_literal("take_loan") == pos("take_loan")


class TestRules:
    def test_fact(self):
        r = parse_rule("bird(penguin).")
        assert r.is_fact
        assert r.head == pos("bird", "penguin")

    def test_body(self):
        r = parse_rule("fly(X) :- bird(X), -penguin(X).")
        assert r.body_literals() == (pos("bird", "X"), neg("penguin", "X"))

    def test_negated_head(self):
        r = parse_rule("-fly(X) :- ground_animal(X).")
        assert r.has_negative_head

    def test_guard(self):
        r = parse_rule("take_loan :- inflation(X), X > 11.")
        (guard,) = r.guards()
        assert guard.op == ">"
        assert guard.left == Variable("X")
        assert guard.right == Constant(11)

    def test_arithmetic_guard(self):
        r = parse_rule("t :- p(X), q(Y), X > Y + 2.")
        (guard,) = r.guards()
        assert guard.right == BinaryOp("+", Variable("Y"), Constant(2))

    def test_precedence(self):
        r = parse_rule("t :- X = 1 + 2 * 3.")
        (guard,) = r.guards()
        assert guard.right == BinaryOp(
            "+", Constant(1), BinaryOp("*", Constant(2), Constant(3))
        )

    def test_parenthesised_expression(self):
        r = parse_rule("t :- X = (1 + 2) * 3.")
        (guard,) = r.guards()
        assert guard.right == BinaryOp(
            "*", BinaryOp("+", Constant(1), Constant(2)), Constant(3)
        )

    def test_guard_between_literals(self):
        r = parse_rule("t :- p(X), X != Y, q(Y).")
        assert len(r.body_literals()) == 2
        assert len(r.guards()) == 1

    def test_unary_minus_expression(self):
        r = parse_rule("t :- X > -3 + 1.")
        (guard,) = r.guards()
        assert guard.right == BinaryOp("+", Constant(-3), Constant(1))

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_rule("a :- b")

    def test_arrow_syntax(self):
        assert parse_rule("a <- b.") == parse_rule("a :- b.")

    def test_parse_rules_multiple(self):
        rules = parse_rules("a. b :- a. -c :- b.")
        assert len(rules) == 3


class TestPrograms:
    def test_components_and_order(self):
        program = parse_program(
            """
            component c2 { bird(penguin). }
            component c1 { -fly(X) :- ground_animal(X). }
            order c1 < c2.
            """
        )
        assert program.component_names == {"c1", "c2"}
        assert program.order.less("c1", "c2")

    def test_order_chain(self):
        program = parse_program(
            "component a {} component b {} component c {} order a < b < c."
        )
        assert program.order.less("a", "c")

    def test_top_level_rules_go_to_main(self):
        program = parse_program("a :- b. b.")
        assert program.component_names == {"main"}
        assert len(program.component("main")) == 2

    def test_order_can_introduce_empty_components(self):
        program = parse_program("order a < b.")
        assert program.component_names == {"a", "b"}

    def test_duplicate_component_blocks_merge(self):
        program = parse_program("component a { p. } component a { q. }")
        assert len(program.component("a")) == 2

    def test_unterminated_component(self):
        with pytest.raises(ParseError):
            parse_program("component a { p.")

    def test_order_needs_two_names(self):
        with pytest.raises(ParseError):
            parse_program("order a.")

    def test_comment_handling(self):
        program = parse_program("% header\na. % trailing\n")
        assert len(program.component("main")) == 1

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("a :-\n:- b.")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize(
        "source",
        ["order(a).", "order.", "component.", "component(x) :- p."],
    )
    def test_keywords_are_predicate_names_unless_a_name_follows(self, source):
        """``parse_rules`` (every ``tell``) and a component body read
        these as rules; so does the top level."""
        program = parse_program(source)
        assert program.component_names == {"main"}
        assert program.component("main").rules == tuple(parse_rules(source))
        block = parse_program(f"component c {{ {source} }}")
        assert block.component("c").rules == tuple(parse_rules(source))

    def test_keywords_still_open_declarations_before_a_name(self):
        program = parse_program("order(a). component c { order. } order c < main.")
        assert program.order.less("c", "main")
        assert [str(r) for r in program.component("c").rules] == ["order."]
        assert [str(r) for r in program.component("main").rules] == ["order(a)."]


needs_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter reads integers of any length",
)


@needs_digit_limit
class TestIntegerDigitLimit:
    """``int()`` refuses a decimal string past ``sys.get_int_max_str_digits()``
    digits; the parser reports that as a ``ParseError`` at the literal."""

    @staticmethod
    def digits():
        return "9" * (sys.get_int_max_str_digits() + 100)

    @pytest.mark.parametrize(
        "parse, template, line, column",
        [
            (parse_literal, "p({})", 1, 3),
            (parse_literal, "p(a, -{})", 1, 7),
            (parse_term, "{}", 1, 1),
            (parse_rules, "q.\np :- X = {}.", 2, 10),
            (parse_program, "component c {{\n  p :- X > 1 + {}.\n}}", 2, 16),
            (parse_program, "p({}).", 1, 3),
        ],
    )
    def test_a_literal_past_the_limit_is_a_parse_error(self, parse, template, line, column):
        with pytest.raises(ParseError) as excinfo:
            parse(template.format(self.digits()))
        error = excinfo.value
        limit = sys.get_int_max_str_digits()
        assert str(error) == (
            f"integer literal longer than {limit} digits at line {line}, column {column}"
        )
        assert (error.line, error.column) == (line, column)

    def test_the_limit_itself_parses(self):
        limit = sys.get_int_max_str_digits()
        assert parse_term("9" * limit) == Constant(int("9" * limit))


class TestNestingBound:
    """Source text comes off the network: a term the parser (or ``str`` /
    ``==`` / ``hash`` afterwards) cannot walk is a ``ParseError`` with a
    position, never a ``RecursionError``."""

    @staticmethod
    def nested(depth):
        return "p(" + "f(" * depth + "a" + ")" * depth + ")"

    def test_the_limit_parses_and_can_be_walked(self):
        literal = parse_literal(self.nested(MAX_NESTING_DEPTH))
        again = parse_literal(self.nested(MAX_NESTING_DEPTH))
        assert literal == again and hash(literal) == hash(again)
        assert str(literal) == self.nested(MAX_NESTING_DEPTH)

    @pytest.mark.parametrize("depth", [MAX_NESTING_DEPTH + 1, 3000])
    def test_one_past_the_limit_is_refused_with_a_position(self, depth):
        for parse, source in (
            (parse_literal, self.nested(depth)),
            (parse_rules, "q.\n" + self.nested(depth) + "."),
        ):
            with pytest.raises(ParseError, match="nesting deeper than") as excinfo:
                parse(source)
            # The functor that opens level limit + 1.
            assert excinfo.value.line == (2 if source.startswith("q.") else 1)
            assert excinfo.value.column == len("p(") + 2 * MAX_NESTING_DEPTH + 1

    def test_arithmetic_nesting_is_bounded_too(self):
        for body in ("(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1"):
            with pytest.raises(ParseError, match="nesting deeper than"):
                parse_rules(f"q :- {body} < 2.")
