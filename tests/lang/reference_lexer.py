"""The character-at-a-time scanner the ``.olp`` lexer used to be, kept
verbatim as the oracle for :mod:`repro.lang.lexer`.

It is test code, not a second lexer: the differential test in
``test_front_end.py`` holds the compiled-pattern scanner to this one's
``(type, text, line, column)`` stream and to its ``LexerError`` message,
line and column.
"""

from __future__ import annotations

from typing import Iterator

from repro.lang.errors import LexerError
from repro.lang.lexer import Token, TokenType

__all__ = ["reference_tokenize"]


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


def reference_tokenize(source: str) -> list[Token]:
    """The reference token list, ending with an EOF token."""
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
