"""Unit tests for the lexer."""

import pytest

from repro.lang.errors import LexerError
from repro.lang.lexer import TokenType, tokenize


def types(source):
    return [t.type for t in tokenize(source)][:-1]  # drop EOF


class TestBasics:
    def test_empty_source(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_identifiers_vs_variables(self):
        assert types("bird X _tmp Penguin") == [
            TokenType.IDENT,
            TokenType.VARIABLE,
            TokenType.VARIABLE,
            TokenType.VARIABLE,
        ]

    def test_integers(self):
        tokens = tokenize("42")
        assert tokens[0].type is TokenType.INTEGER
        assert tokens[0].text == "42"

    def test_rule_tokens(self):
        assert types("fly(X) :- bird(X).") == [
            TokenType.IDENT,
            TokenType.LPAREN,
            TokenType.VARIABLE,
            TokenType.RPAREN,
            TokenType.IF,
            TokenType.IDENT,
            TokenType.LPAREN,
            TokenType.VARIABLE,
            TokenType.RPAREN,
            TokenType.DOT,
        ]

    def test_arrow_alternative(self):
        assert types("a <- b.")[1] is TokenType.IF

    def test_comparison_operators(self):
        assert types("< <= > >= = !=") == [
            TokenType.LT,
            TokenType.LE,
            TokenType.GT,
            TokenType.GE,
            TokenType.EQ,
            TokenType.NE,
        ]

    def test_arithmetic_operators(self):
        assert types("+ - * / ~") == [
            TokenType.PLUS,
            TokenType.MINUS,
            TokenType.STAR,
            TokenType.SLASH,
            TokenType.TILDE,
        ]

    def test_braces(self):
        assert types("{ } ,") == [
            TokenType.LBRACE,
            TokenType.RBRACE,
            TokenType.COMMA,
        ]


class TestCommentsAndPositions:
    def test_comment_to_end_of_line(self):
        assert types("a. % ignored :- stuff\nb.") == [
            TokenType.IDENT,
            TokenType.DOT,
            TokenType.IDENT,
            TokenType.DOT,
        ]

    def test_line_tracking(self):
        tokens = tokenize("a.\nb.")
        assert tokens[0].line == 1
        assert tokens[2].line == 2

    def test_column_tracking(self):
        tokens = tokenize("ab cd")
        assert tokens[0].column == 1
        assert tokens[1].column == 4

    def test_unexpected_character(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("a @ b")
        assert excinfo.value.column == 3

    @pytest.mark.parametrize(
        "source, char, line, column",
        [
            ("p(²).", "²", 1, 3),  # int() refuses it
            ("q.\np(1, ①).", "①", 2, 6),
            ("p(٣).", "٣", 1, 3),  # int() reads it as 3
            ("p(a).\n  p(１２).", "１", 2, 5),  # ... and this as 12
            ("p(1²).", "²", 1, 4),  # an integer ends at its last ASCII digit
        ],
    )
    def test_an_integer_is_ascii_digits_only(self, source, char, line, column):
        with pytest.raises(LexerError) as excinfo:
            tokenize(source)
        error = excinfo.value
        assert str(error) == (
            f"unexpected character {char!r} at line {line}, column {column}"
        )
        assert (error.line, error.column) == (line, column)
