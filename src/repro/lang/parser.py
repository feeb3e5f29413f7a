"""Recursive-descent parser for the ``.olp`` surface syntax.

Grammar (EBNF, ``%`` comments handled by the lexer)::

    program     ::= (component | order_decl | rule)*
    component   ::= "component" IDENT "{" rule* "}"
    order_decl  ::= "order" IDENT ("<" IDENT)+ "."
    rule        ::= head ((":-" | "<-") body)? "."
    head        ::= literal
    body        ::= body_item ("," body_item)*
    body_item   ::= literal | comparison
    literal     ::= ("-" | "~")? atom
    atom        ::= IDENT ("(" term ("," term)* ")")?
    term        ::= VARIABLE | INTEGER | "-" INTEGER
                  | IDENT ("(" term ("," term)* ")")?
    comparison  ::= expr cmp_op expr
    cmp_op      ::= "<" | "<=" | ">" | ">=" | "=" | "!="
    expr        ::= mul (("+" | "-") mul)*
    mul         ::= unary (("*" | "/") unary)*
    unary       ::= "-" unary | INTEGER | VARIABLE | "(" expr ")"

``component`` / ``order`` are keywords only where a rule head cannot go
on — in a valid program, before a name — and predicate names elsewhere.
Rules outside any ``component`` block belong to the implicit component
``main``.  An ``order`` chain ``order c1 < c2 < c3.`` declares both
pairs.  ``-``/``~`` before an atom is the paper's classical negation; in
comparisons ``-`` is arithmetic minus (the parser disambiguates by
attempting an expression and backtracking to a literal).
"""

from __future__ import annotations

import sys

from .builtins import ArithExpr, BinaryOp, Comparison
from .errors import ParseError
from .lexer import TokenType, position, scan
from .literals import Atom, Literal
from .program import Component, OrderedProgram
from .rules import BodyItem, Rule
from .terms import Constant, Compound, Term, Variable

__all__ = [
    "parse_program",
    "parse_rules",
    "parse_rule",
    "parse_literal",
    "parse_term",
    "DEFAULT_COMPONENT",
]

#: Name of the implicit component for top-level rules.
DEFAULT_COMPONENT = "main"

#: Deepest nesting of a term (``f(g(...))``) or a parenthesised / negated
#: arithmetic expression the parser accepts.  Source text arrives off the
#: network; the parser, and later ``str`` / ``==`` / ``hash`` on the term,
#: recurse once per level, so the bound stays well inside what they can
#: walk at the default recursion limit.
MAX_NESTING_DEPTH = 200

IDENT = TokenType.IDENT
VARIABLE = TokenType.VARIABLE
INTEGER = TokenType.INTEGER
LPAREN = TokenType.LPAREN
RPAREN = TokenType.RPAREN
COMMA = TokenType.COMMA
DOT = TokenType.DOT
IF = TokenType.IF
MINUS = TokenType.MINUS
TILDE = TokenType.TILDE
EOF = TokenType.EOF

_COMPARISONS = frozenset(
    (TokenType.LT, TokenType.LE, TokenType.GT, TokenType.GE, TokenType.EQ, TokenType.NE)
)
#: What may follow the name in a rule head; before anything else a
#: top-level ``component`` / ``order`` opens a declaration.
_AFTER_HEAD_NAME = frozenset((LPAREN, DOT, IF))


class _Parser:
    """Reads :func:`scan`'s parallel ``kinds`` / ``texts`` lists at
    ``self.i``; the trailing ``EOF`` is never consumed, so looking one
    token past any other token stays in range."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.kinds, self.texts = scan(source)
        self.i = 0
        self.depth = 0

    def _error(self, message: str, index: int = -1) -> ParseError:
        """A :class:`ParseError` at token ``index`` (default: the current
        one)."""
        line, column = position(self.source, self.i if index < 0 else index)
        return ParseError(message, line, column)

    def _expect(self, kind: TokenType, context: str) -> str:
        i = self.i
        if self.kinds[i] is not kind:
            raise self._error(
                f"expected {kind.value!r} {context}, found {self.texts[i]!r}"
            )
        self.i = i + 1
        return self.texts[i]

    def _nest(self, opener: int) -> None:
        """Enter one more level of nesting at token ``opener``; the caller
        leaves it by decrementing ``depth`` (an error abandons the
        parser, so nothing is unwound)."""
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise self._error(f"nesting deeper than {MAX_NESTING_DEPTH} levels", opener)

    def _integer(self, index: int) -> int:
        try:
            return int(self.texts[index])
        except ValueError:  # longer than int() reads from text
            raise self._error(
                f"integer literal longer than {sys.get_int_max_str_digits()} digits",
                index,
            ) from None

    # ------------------------------------------------------------------
    # Program structure
    # ------------------------------------------------------------------
    def program(self) -> OrderedProgram:
        kinds, texts = self.kinds, self.texts
        components: dict[str, list[Rule]] = {}
        order: list[tuple[str, str]] = []
        while kinds[self.i] is not EOF:
            i = self.i
            keyword = texts[i] if kinds[i + 1] not in _AFTER_HEAD_NAME else ""
            if keyword == "component":
                name, rules = self._component()
                components.setdefault(name, []).extend(rules)
            elif keyword == "order":
                order.extend(self._order_decl())
            else:
                components.setdefault(DEFAULT_COMPONENT, []).append(self.rule())
        for low, high in order:
            for name in (low, high):
                if name not in components:
                    components[name] = []
        comps = [Component(name, rules) for name, rules in components.items()]
        return OrderedProgram(comps, order)

    def _component(self) -> tuple[str, list[Rule]]:
        self.i += 1  # 'component'
        name = self._expect(IDENT, "as component name")
        self._expect(TokenType.LBRACE, "to open the component body")
        kinds = self.kinds
        rules: list[Rule] = []
        while kinds[self.i] is not TokenType.RBRACE:
            if kinds[self.i] is EOF:
                raise self._error("unterminated component body")
            rules.append(self.rule())
        self.i += 1  # '}'
        return name, rules

    def _order_decl(self) -> list[tuple[str, str]]:
        self.i += 1  # 'order'
        names = [self._expect(IDENT, "as component name in order")]
        while self.kinds[self.i] is TokenType.LT:
            self.i += 1
            names.append(self._expect(IDENT, "as component name in order"))
        if len(names) < 2:
            raise self._error("order declaration needs at least two components")
        self._expect(DOT, "to end the order declaration")
        return list(zip(names, names[1:]))

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def rule(self) -> Rule:
        kinds = self.kinds
        head = self.literal()
        body: list[BodyItem] = []
        if kinds[self.i] is IF:
            self.i += 1
            body.append(self.body_item())
            while kinds[self.i] is COMMA:
                self.i += 1
                body.append(self.body_item())
        self._expect(DOT, "to end the rule")
        return Rule(head, tuple(body))

    def body_item(self) -> BodyItem:
        # Unambiguous literal starts: negation sign, or an identifier that
        # is not followed by an arithmetic/comparison continuation.
        kinds, i = self.kinds, self.i
        kind = kinds[i]
        if kind is IDENT or (kind is MINUS or kind is TILDE) and kinds[i + 1] is IDENT:
            return self.literal()
        if kind in (MINUS, TILDE, VARIABLE, INTEGER, LPAREN):  # '-3 < X' style guard
            return self._comparison()
        raise self._error(f"cannot start a body item with {self.texts[i]!r}")

    def _comparison(self) -> Comparison:
        left = self._expr()
        i = self.i
        if self.kinds[i] not in _COMPARISONS:
            raise self._error(
                f"expected a comparison operator after expression, found {self.texts[i]!r}"
            )
        self.i = i + 1
        return Comparison(self.texts[i], left, self._expr())

    # ------------------------------------------------------------------
    # Literals, atoms, terms
    # ------------------------------------------------------------------
    def literal(self) -> Literal:
        kind = self.kinds[self.i]
        positive = kind is not MINUS and kind is not TILDE
        if not positive:
            self.i += 1
        return Literal(self.atom(), positive)

    def atom(self) -> Atom:
        kinds = self.kinds
        name = self._expect(IDENT, "as predicate symbol")
        if kinds[self.i] is not LPAREN:
            return Atom(name, ())
        self.i += 1
        args = [self.term()]
        while kinds[self.i] is COMMA:
            self.i += 1
            args.append(self.term())
        self._expect(RPAREN, "to close the argument list")
        return Atom(name, tuple(args))

    def term(self) -> Term:
        kinds, i = self.kinds, self.i
        kind = kinds[i]
        if kind is VARIABLE:
            self.i = i + 1
            return Variable(self.texts[i])
        if kind is INTEGER:
            self.i = i + 1
            return Constant(self._integer(i))
        if kind is MINUS and kinds[i + 1] is INTEGER:
            self.i = i + 2
            return Constant(-self._integer(i + 1))
        if kind is IDENT:
            if kinds[i + 1] is not LPAREN:
                self.i = i + 1
                return Constant(self.texts[i])
            self.i = i + 2
            self._nest(i)
            args = [self.term()]
            while kinds[self.i] is COMMA:
                self.i += 1
                args.append(self.term())
            self._expect(RPAREN, "to close the term argument list")
            self.depth -= 1
            return Compound(self.texts[i], tuple(args))
        raise self._error(f"expected a term, found {self.texts[i]!r}")

    # ------------------------------------------------------------------
    # Arithmetic expressions
    # ------------------------------------------------------------------
    def _expr(self) -> ArithExpr:
        kinds = self.kinds
        left = self._mul()
        while True:
            kind = kinds[self.i]
            # In expression position a '-' followed by an identifier would
            # be a negated literal of the *next* body item; that is a parse
            # error here and will be reported by the caller, so treat it as
            # ending the expression.
            if kind is TokenType.PLUS or kind is MINUS and kinds[self.i + 1] is not IDENT:
                self.i += 1
                left = BinaryOp(kind.value, left, self._mul())
            else:
                return left

    def _mul(self) -> ArithExpr:
        kinds = self.kinds
        left = self._unary()
        while True:
            kind = kinds[self.i]
            if kind is TokenType.STAR or kind is TokenType.SLASH:
                self.i += 1
                left = BinaryOp(kind.value, left, self._unary())
            else:
                return left

    def _unary(self) -> ArithExpr:
        i = self.i
        kind = self.kinds[i]
        if kind is MINUS:
            self.i = i + 1
            self._nest(i)
            inner = self._unary()
            self.depth -= 1
            if isinstance(inner, Constant) and isinstance(inner.value, int):
                return Constant(-inner.value)
            return BinaryOp("-", Constant(0), inner)
        if kind is INTEGER:
            self.i = i + 1
            return Constant(self._integer(i))
        if kind is VARIABLE:
            self.i = i + 1
            return Variable(self.texts[i])
        if kind is LPAREN:
            self.i = i + 1
            self._nest(i)
            inner = self._expr()
            self._expect(RPAREN, "to close the expression")
            self.depth -= 1
            return inner
        raise self._error(f"expected an arithmetic operand, found {self.texts[i]!r}")

    # ------------------------------------------------------------------
    # End-of-input helpers for the standalone entry points
    # ------------------------------------------------------------------
    def expect_eof(self, what: str) -> None:
        i = self.i
        if self.kinds[i] is not EOF:
            raise self._error(
                f"unexpected trailing input after {what}: {self.texts[i]!r}"
            )


def parse_program(source: str) -> OrderedProgram:
    """Parse an ``.olp`` source into an :class:`OrderedProgram`."""
    parser = _Parser(source)
    program = parser.program()
    parser.expect_eof("program")
    return program


def parse_rules(source: str) -> list[Rule]:
    """Parse a bare sequence of rules (no component syntax)."""
    parser = _Parser(source)
    rules: list[Rule] = []
    while parser.kinds[parser.i] is not EOF:
        rules.append(parser.rule())
    return rules


def parse_rule(source: str) -> Rule:
    """Parse exactly one rule."""
    parser = _Parser(source)
    result = parser.rule()
    parser.expect_eof("rule")
    return result


def parse_literal(source: str) -> Literal:
    """Parse exactly one literal, e.g. ``-fly(penguin)``."""
    parser = _Parser(source)
    result = parser.literal()
    parser.expect_eof("literal")
    return result


def parse_term(source: str) -> Term:
    """Parse exactly one term."""
    parser = _Parser(source)
    result = parser.term()
    parser.expect_eof("term")
    return result
