"""The front end against its references: the compiled-pattern scanner
against the character scanner it replaced (``reference_lexer.py``), and
every parser error against a table recorded from that scanner's parser.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import lexer
from repro.lang.errors import LexerError, ParseError
from repro.lang.lexer import tokenize
from repro.lang.parser import (
    parse_literal,
    parse_program,
    parse_rule,
    parse_rules,
    parse_term,
)

from .reference_lexer import reference_tokenize

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

# ----------------------------------------------------------------------
# Scanner differential
# ----------------------------------------------------------------------

#: Every token class, the keywords, and the blanks and comments between.
TOKENS = [
    "p", "fly", "component", "order", "x1", "X", "Penguin", "_", "_t", "0", "42",
    ":-", "<-", "<=", ">=", "!=", "<", ">", "=", "-", "+", "*", "/", "~",
    "(", ")", "{", "}", ",", ".",
    " ", "  ", "\t", "\n", "\r", "\r\n", "% note", "%",
]
#: Where a regular expression and the old scanner could part ways: ``²``
#: and ``½`` (word characters, not letters), ``٣`` and ``１２`` (digits
#: int() reads, not ASCII), NUL, VT, FF, NBSP and LINE SEPARATOR (Python
#: whitespace, not the language's), lone ``!`` / ``:``, ``x²`` (an
#: identifier), ``Ⓐ`` / ``Ⅰ`` (upper case, not letters), a combining
#: accent, titlecase ``ǅ``, ``Ä``, and two characters no token uses.
HOSTILE = [
    "\u00b2", "\u00bd", "\u0663", "\uff11\uff12", "\x00", "\x0b", "\x0c",
    "\u00a0", "\u2028", "!", ":", "x\u00b2", "\u24b6", "\u2160", "e\u0301",
    "\u01c5", "\u00c4", "@", "#",
]

sources = st.one_of(
    st.lists(st.sampled_from(TOKENS + HOSTILE), max_size=24).map("".join),
    st.lists(st.sampled_from(TOKENS), max_size=24).map("".join),
    st.text(max_size=16),
)


def stream(tokenizer, source):
    """The ``(type, text, line, column)`` stream, or the error raised."""
    try:
        return [(t.type, t.text, t.line, t.column) for t in tokenizer(source)]
    except LexerError as error:
        return (type(error), str(error), error.line, error.column)


@settings(max_examples=400, deadline=None)
@given(sources)
def test_scanner_matches_the_reference_scanner(source):
    assert stream(tokenize, source) == stream(reference_tokenize, source)


#: 20k lines of comments, rules with trailing comments and indented
#: facts, every third one ended by CRLF, then a comment with no newline:
#: line and column must be carried along, not counted from the start.
LINE_SHAPES = ("% note {i}", "p{i}(X) :- q(X, {i}), -r(X). % why", "  f{i}(a).", "f{i}.")
LARGE_TEXT = "".join(
    LINE_SHAPES[i % 4].format(i=i) + ("\r\n" if i % 3 == 0 else "\n") for i in range(20_000)
) + "% the end, no newline"


@pytest.mark.parametrize(
    "source",
    [
        "p.\r\nq :- p.\r\n",
        "a. % a comment at the end, no newline",
        "X<-3",
        "x\u00b2(y\u00bd) :- \u00c4.",
        "p(\u00b2).",
        "a !b",
        "a :b",
        "",
        "%",
        "\n\n   % only a comment",
        pytest.param(LARGE_TEXT, id="large-text"),
    ],
)
def test_the_known_traps(source):
    assert stream(tokenize, source) == stream(reference_tokenize, source)


# ----------------------------------------------------------------------
# Golden error table
# ----------------------------------------------------------------------

ENTRY_POINTS = {
    "program": parse_program,
    "rules": parse_rules,
    "rule": parse_rule,
    "literal": parse_literal,
    "term": parse_term,
}

#: (entry point, source, exception, message, line, column), recorded from
#: the character scanner and the parser that read its Token objects.
GOLDEN = [
    ('program', 'a :- b', 'ParseError', "expected '.' to end the rule, found '' at line 1, column 7", 1, 7),
    ('program', 'a :-\n:- b.', 'ParseError', "cannot start a body item with ':-' at line 2, column 1", 2, 1),
    ('program', 'component a { p.', 'ParseError', 'unterminated component body at line 1, column 17', 1, 17),
    ('program', 'order a.', 'ParseError', 'order declaration needs at least two components at line 1, column 8', 1, 8),
    ('program', 'order a < .', 'ParseError', "expected 'ident' as component name in order, found '.' at line 1, column 11", 1, 11),
    ('program', 'component { p. }', 'ParseError', "expected 'ident' as component name, found '{' at line 1, column 11", 1, 11),
    ('program', 'component c p. }', 'ParseError', "expected '{' to open the component body, found 'p' at line 1, column 13", 1, 13),
    ('program', 'component c {', 'ParseError', 'unterminated component body at line 1, column 14', 1, 14),
    ('program', 'order a < b', 'ParseError', "expected '.' to end the order declaration, found '' at line 1, column 12", 1, 12),
    ('program', 'order a < b < 1.', 'ParseError', "expected 'ident' as component name in order, found '1' at line 1, column 15", 1, 15),
    ('program', 'p(X) :- q(X), X >.', 'ParseError', "expected an arithmetic operand, found '.' at line 1, column 18", 1, 18),
    ('program', 'p :- X.', 'ParseError', "expected a comparison operator after expression, found '.' at line 1, column 7", 1, 7),
    ('program', 'p :- 3 + .', 'ParseError', "expected an arithmetic operand, found '.' at line 1, column 10", 1, 10),
    ('program', 'p(a b).', 'ParseError', "expected ')' to close the argument list, found 'b' at line 1, column 5", 1, 5),
    ('program', 'p(,).', 'ParseError', "expected a term, found ',' at line 1, column 3", 1, 3),
    ('program', 'p :- , q.', 'ParseError', "cannot start a body item with ',' at line 1, column 6", 1, 6),
    ('program', 'p :- ~ 3 < X.', 'ParseError', "expected an arithmetic operand, found '~' at line 1, column 6", 1, 6),
    ('program', 'p :- X < Y Z.', 'ParseError', "expected '.' to end the rule, found 'Z' at line 1, column 12", 1, 12),
    ('program', 'a. % trailing comment\nb', 'ParseError', "expected '.' to end the rule, found '' at line 2, column 2", 2, 2),
    ('program', 'a. b % a comment at EOF, no newline', 'ParseError', "expected '.' to end the rule, found '' at line 1, column 6", 1, 6),
    ('program', 'a.\n  b %', 'ParseError', "expected '.' to end the rule, found '' at line 2, column 5", 2, 5),
    ('program', 'p :- (1 + 2 < 3.', 'ParseError', "expected ')' to close the expression, found '<' at line 1, column 13", 1, 13),
    ('program', 'p(f(a).', 'ParseError', "expected ')' to close the argument list, found '.' at line 1, column 7", 1, 7),
    ('program', 'p @ q.', 'LexerError', "unexpected character '@' at line 1, column 3", 1, 3),
    ('program', 'p :- X ! Y.', 'LexerError', "unexpected character '!' at line 1, column 8", 1, 8),
    ('program', 'p :- X : Y.', 'LexerError', "unexpected character ':' at line 1, column 8", 1, 8),
    ('program', 'q.\n\tp(²).', 'LexerError', "unexpected character '²' at line 2, column 4", 2, 4),
    ('program', 'p(x\x00).', 'LexerError', "unexpected character '\\x00' at line 1, column 4", 1, 4),
    ('program', 'p\x0b.', 'LexerError', "unexpected character '\\x0b' at line 1, column 2", 1, 2),
    ('program', 'p\xa0.', 'LexerError', "unexpected character '\\xa0' at line 1, column 2", 1, 2),
    ('program', 'p.\u2028q.', 'LexerError', "unexpected character '\\u2028' at line 1, column 3", 1, 3),
    ('program', 'a.\r\nb :- \r\n  c', 'ParseError', "expected '.' to end the rule, found '' at line 3, column 4", 3, 4),
    ('program', 'p :- X < -a.', 'ParseError', "expected an arithmetic operand, found 'a' at line 1, column 11", 1, 11),
    ('program', '-', 'ParseError', "expected 'ident' as predicate symbol, found '' at line 1, column 2", 1, 2),
    ('program', '}', 'ParseError', "expected 'ident' as predicate symbol, found '}' at line 1, column 1", 1, 1),
    ('program', 'p :- q(X), -.', 'ParseError', "expected an arithmetic operand, found '.' at line 1, column 13", 1, 13),
    ('program', 'X.', 'ParseError', "expected 'ident' as predicate symbol, found 'X' at line 1, column 1", 1, 1),
    ("program", "p(" + "f(" * 201 + "a" + ")" * 201 + ").", "ParseError", "nesting deeper than 200 levels at line 1, column 403", 1, 403),
    ("program", "p :- " + "-" * 300 + "1 < 2.", "ParseError", "nesting deeper than 200 levels at line 1, column 206", 1, 206),
    ("program", "q.\np :- " + "(" * 250 + "1" + ")" * 250 + " < 2.", "ParseError", "nesting deeper than 200 levels at line 2, column 206", 2, 206),
    ('program', 'component c { order a < b. }', 'ParseError', "expected '.' to end the rule, found 'a' at line 1, column 21", 1, 21),
    ('program', 'p :- X <- 3.', 'ParseError', "expected a comparison operator after expression, found '<-' at line 1, column 8", 1, 8),
    ('program', 'p :- 1 2 < 3.', 'ParseError', "expected a comparison operator after expression, found '2' at line 1, column 8", 1, 8),
    ('program', 'p :- X * / 2 < 1.', 'ParseError', "expected an arithmetic operand, found '/' at line 1, column 10", 1, 10),
    ('program', 'p(X) :- q(X) r(X).', 'ParseError', "expected '.' to end the rule, found 'r' at line 1, column 14", 1, 14),
    ('program', 'p(-a).', 'ParseError', "expected a term, found '-' at line 1, column 3", 1, 3),
    ('program', 'p(Ⓐ).', 'LexerError', "unexpected character 'Ⓐ' at line 1, column 3", 1, 3),
    ('program', 'p(½).', 'LexerError', "unexpected character '½' at line 1, column 3", 1, 3),
    ('program', 'x. y²z. Ⅰ.', 'LexerError', "unexpected character 'Ⅰ' at line 1, column 9", 1, 9),
    ('rules', 'a. b', 'ParseError', "expected '.' to end the rule, found '' at line 1, column 5", 1, 5),
    ('rules', 'order a < b.', 'ParseError', "expected '.' to end the rule, found 'a' at line 1, column 7", 1, 7),
    ('rules', 'component c { p. }', 'ParseError', "expected '.' to end the rule, found 'c' at line 1, column 11", 1, 11),
    ('rules', 'p :- X = .', 'ParseError', "expected an arithmetic operand, found '.' at line 1, column 10", 1, 10),
    ('rule', 'a. b.', 'ParseError', "unexpected trailing input after rule: 'b' at line 1, column 4", 1, 4),
    ('rule', '', 'ParseError', "expected 'ident' as predicate symbol, found '' at line 1, column 1", 1, 1),
    ('literal', 'fly(X', 'ParseError', "expected ')' to close the argument list, found '' at line 1, column 6", 1, 6),
    ('literal', 'fly(X) extra', 'ParseError', "unexpected trailing input after literal: 'extra' at line 1, column 8", 1, 8),
    ('literal', '-', 'ParseError', "expected 'ident' as predicate symbol, found '' at line 1, column 2", 1, 2),
    ('literal', 'X', 'ParseError', "expected 'ident' as predicate symbol, found 'X' at line 1, column 1", 1, 1),
    ('literal', '', 'ParseError', "expected 'ident' as predicate symbol, found '' at line 1, column 1", 1, 1),
    ('literal', 'p(a).', 'ParseError', "unexpected trailing input after literal: '.' at line 1, column 5", 1, 5),
    ('literal', 'p(1²)', 'LexerError', "unexpected character '²' at line 1, column 4", 1, 4),
    ('literal', 'p(a).\n  p(１２)', 'LexerError', "unexpected character '１' at line 2, column 5", 2, 5),
    ('literal', 'p(٣)', 'LexerError', "unexpected character '٣' at line 1, column 3", 1, 3),
    ('literal', '~~p', 'ParseError', "expected 'ident' as predicate symbol, found '~' at line 1, column 2", 1, 2),
    ('term', 'f(', 'ParseError', "expected a term, found '' at line 1, column 3", 1, 3),
    ('term', '-x', 'ParseError', "expected a term, found '-' at line 1, column 1", 1, 1),
    ('term', 'f(a,)', 'ParseError', "expected a term, found ')' at line 1, column 5", 1, 5),
    ('term', '1 2', 'ParseError', "unexpected trailing input after term: '2' at line 1, column 3", 1, 3),
]


@pytest.mark.parametrize(
    "entry, source, exception, message, line, column",
    GOLDEN,
    ids=[f"{row[0]}-{i}" for i, row in enumerate(GOLDEN)],
)
def test_golden_error_table(entry, source, exception, message, line, column):
    with pytest.raises((LexerError, ParseError)) as excinfo:
        ENTRY_POINTS[entry](source)
    error = excinfo.value
    assert (type(error).__name__, str(error), error.line, error.column) == (
        exception,
        message,
        line,
        column,
    )


# ----------------------------------------------------------------------
# No Token on the parse path
# ----------------------------------------------------------------------


@pytest.mark.parametrize("figure", ["figure1.olp", "figure2.olp", "figure3.olp"])
def test_parse_program_builds_no_token(figure, monkeypatch):
    source = (EXAMPLES / figure).read_text()
    expected = parse_program(source)

    def refuse(*args, **kwargs):
        raise AssertionError("a Token was built on the parse path")

    monkeypatch.setattr(lexer, "Token", refuse)
    assert parse_program(source) == expected
    with pytest.raises(AssertionError, match="a Token was built"):
        tokenize(source)
