"""Lexer for the ``.olp`` surface syntax.

The token stream feeds the recursive-descent parser in
:mod:`repro.lang.parser`.  Conventions follow Prolog/Datalog usage:

* identifiers starting with a lowercase letter are constants, predicate
  symbols, function symbols or keywords (``component``, ``order``);
* identifiers starting with an uppercase letter or ``_`` are variables;
* ``%`` starts a comment running to end of line;
* ``-`` doubles as classical negation (before an atom) and arithmetic
  minus — the parser disambiguates; ``~`` is an unambiguous negation
  alternative.

One compiled pattern does the scanning: each match skips blanks and
comments, then captures one token (or nothing, at the end of the text).
:func:`scan` keeps the result as two parallel lists — kinds and texts —
and works out a line and column only when an error needs one.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from itertools import islice

from .errors import LexerError

__all__ = ["TokenType", "Token", "tokenize", "scan", "position"]


class TokenType(enum.Enum):
    IDENT = "ident"          # lowercase-first identifier
    VARIABLE = "variable"    # uppercase/underscore-first identifier
    INTEGER = "integer"
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    DOT = "."
    IF = ":-"                # also accepts "<-"
    MINUS = "-"
    PLUS = "+"
    STAR = "*"
    SLASH = "/"
    TILDE = "~"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="
    NE = "!="
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.type.name}({self.text!r})@{self.line}:{self.column}"


# Blanks and comments, then one token: an operator, ASCII digits, a word
# or any other single character (refused below).  The token is optional,
# so the skip never backtracks into a comment; the one match without a
# token is the end of the text.  ``\w`` is exactly ``str.isalnum()`` or
# ``_``, the old scanner's identifier continuation.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|%[^\n]*)*"
    r"(:-|<-|<=|>=|!=|[-(){},.+*/~=<>]|[0-9]+|\w+|.)?",
    re.DOTALL,
)

_KINDS = {
    ":-": TokenType.IF,
    "<-": TokenType.IF,
    "<=": TokenType.LE,
    ">=": TokenType.GE,
    "!=": TokenType.NE,
    "<": TokenType.LT,
    ">": TokenType.GT,
    "-": TokenType.MINUS,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    "+": TokenType.PLUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "~": TokenType.TILDE,
    "=": TokenType.EQ,
    "": TokenType.EOF,
}


def scan(source: str) -> tuple[list[TokenType], list[str]]:
    """The kinds and texts of ``source``'s tokens, in two parallel lists
    that end with (at least one) ``EOF`` of text ``""``.

    Raises:
        LexerError: on any character outside the language.
    """
    texts = _TOKEN.findall(source)
    kinds: list[TokenType] = []
    append = kinds.append
    kind_of = _KINDS.copy()  # learns each word's kind on first sight
    get = kind_of.get
    for text in texts:
        kind = get(text)
        if kind is None:
            first = text[0]
            if "0" <= first <= "9":
                kind = TokenType.INTEGER
            elif first.isalpha() or first == "_":
                upper = first.isupper() or first == "_"
                kind = TokenType.VARIABLE if upper else TokenType.IDENT
            else:
                # An operator-less character, or a word that does not
                # start with a letter: ``²``, ``½`` and ``٣`` are word
                # characters but neither letters nor ASCII digits.
                raise LexerError(
                    f"unexpected character {first!r}",
                    *position(source, len(kinds)),
                )
            kind_of[text] = kind
        append(kind)
    return kinds, texts


def position(source: str, index: int) -> tuple[int, int]:
    """The 1-based line and column of token ``index`` of :func:`scan`.

    The pattern is walked again to that token, so only the error path
    pays for positions.
    """
    match = next(islice(_TOKEN.finditer(source), index, None))
    return _line_column(source, match.start(1))


def _line_column(source: str, offset: int) -> tuple[int, int]:
    """Line and column of ``offset`` (-1: the end of the text).  A comment
    never advances the column, so the end of a text whose last line holds
    a comment is reported at its ``%``."""
    if offset < 0:
        offset = len(source)
    line_start = source.rfind("\n", 0, offset) + 1
    comment = source.find("%", line_start, offset)
    if comment >= 0:
        offset = comment
    return source.count("\n", 0, line_start) + 1, offset - line_start + 1


def tokenize(source: str) -> list[Token]:
    """Turn source text into a :class:`Token` list ending with one EOF
    token.  The parser reads :func:`scan`'s lists instead; this view is
    for tools and tests.

    Raises:
        LexerError: on any character outside the language.
    """
    kinds, _ = scan(source)
    tokens: list[Token] = []
    # The line count and line start run along the walk: only a match's
    # own blanks and comments can hold a newline or a ``%``.
    line, line_start = 1, 0
    for kind, match in zip(kinds, _TOKEN.finditer(source)):
        skip, offset = match.start(), match.start(1)
        if offset < 0:
            offset = len(source)
        newlines = source.count("\n", skip, offset)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", skip, offset) + 1
        comment = source.find("%", max(skip, line_start), offset)
        column = (offset if comment < 0 else comment) - line_start + 1
        tokens.append(Token(kind, match[1] or "", line, column))
        if kind is TokenType.EOF:
            break
    return tokens
