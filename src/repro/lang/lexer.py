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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from .errors import LexerError

__all__ = ["TokenType", "Token", "tokenize"]


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


_SINGLE = {
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
}


def tokenize(source: str) -> list[Token]:
    """Turn source text into a token list ending with an EOF token.

    Raises:
        LexerError: on any character outside the language.
    """
    return list(_scan(source))


def _scan(source: str) -> Iterator[Token]:
    line = 1
    column = 1
    index = 0
    length = len(source)

    def make(ttype: TokenType, text: str) -> Token:
        return Token(ttype, text, line, column)

    while index < length:
        ch = source[index]
        # Whitespace
        if ch == "\n":
            index += 1
            line += 1
            column = 1
            continue
        if ch in " \t\r":
            index += 1
            column += 1
            continue
        # Comments
        if ch == "%":
            while index < length and source[index] != "\n":
                index += 1
            continue
        # Multi-character operators
        two = source[index : index + 2]
        if two == ":-" or two == "<-":
            yield make(TokenType.IF, two)
            index += 2
            column += 2
            continue
        if two == "<=":
            yield make(TokenType.LE, two)
            index += 2
            column += 2
            continue
        if two == ">=":
            yield make(TokenType.GE, two)
            index += 2
            column += 2
            continue
        if two == "!=":
            yield make(TokenType.NE, two)
            index += 2
            column += 2
            continue
        if ch == "<":
            yield make(TokenType.LT, ch)
            index += 1
            column += 1
            continue
        if ch == ">":
            yield make(TokenType.GT, ch)
            index += 1
            column += 1
            continue
        if ch == "-":
            yield make(TokenType.MINUS, ch)
            index += 1
            column += 1
            continue
        if ch in _SINGLE:
            yield make(_SINGLE[ch], ch)
            index += 1
            column += 1
            continue
        # Numbers: ASCII digits only.  str.isdigit() also accepts
        # characters int() refuses ("²") or reads as another numeral
        # ("٣"); those fall through to the error below.
        if "0" <= ch <= "9":
            start = index
            while index < length and "0" <= source[index] <= "9":
                index += 1
            text = source[start:index]
            yield make(TokenType.INTEGER, text)
            column += index - start
            continue
        # Identifiers and variables
        if ch.isalpha() or ch == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            ttype = (
                TokenType.VARIABLE
                if text[0].isupper() or text[0] == "_"
                else TokenType.IDENT
            )
            yield make(ttype, text)
            column += index - start
            continue
        raise LexerError(f"unexpected character {ch!r}", line, column)
    yield Token(TokenType.EOF, "", line, column)
