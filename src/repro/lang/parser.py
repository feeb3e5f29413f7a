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

Rules outside any ``component`` block belong to the implicit component
``main``.  An ``order`` chain ``order c1 < c2 < c3.`` declares both
pairs.  ``-``/``~`` before an atom is the paper's classical negation; in
comparisons ``-`` is arithmetic minus (the parser disambiguates by
attempting an expression and backtracking to a literal).
"""

from __future__ import annotations

from typing import Optional

from .builtins import ArithExpr, BinaryOp, Comparison
from .errors import ParseError
from .lexer import Token, TokenType, tokenize
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

_CMP_TOKENS = {
    TokenType.LT: "<",
    TokenType.LE: "<=",
    TokenType.GT: ">",
    TokenType.GE: ">=",
    TokenType.EQ: "=",
    TokenType.NE: "!=",
}


class _Parser:
    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._index = 0
        self._depth = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        i = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[i]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _check(self, ttype: TokenType) -> bool:
        return self._peek().type is ttype

    def _accept(self, ttype: TokenType) -> Optional[Token]:
        if self._check(ttype):
            return self._advance()
        return None

    def _expect(self, ttype: TokenType, context: str) -> Token:
        token = self._peek()
        if token.type is not ttype:
            raise ParseError(
                f"expected {ttype.value!r} {context}, found {token.text!r}",
                token.line,
                token.column,
            )
        return self._advance()

    def _nest(self, opener: Token) -> None:
        """Enter one more level of nesting at ``opener``; the caller
        leaves it by decrementing ``_depth`` (an error abandons the
        parser, so nothing is unwound)."""
        self._depth += 1
        if self._depth > MAX_NESTING_DEPTH:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING_DEPTH} levels",
                opener.line,
                opener.column,
            )

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

    # ------------------------------------------------------------------
    # Program structure
    # ------------------------------------------------------------------
    def program(self) -> OrderedProgram:
        components: dict[str, list[Rule]] = {}
        order: list[tuple[str, str]] = []
        while not self._check(TokenType.EOF):
            token = self._peek()
            if token.type is TokenType.IDENT and token.text == "component":
                name, rules = self._component()
                components.setdefault(name, []).extend(rules)
            elif token.type is TokenType.IDENT and token.text == "order":
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
        self._advance()  # 'component'
        name_token = self._expect(TokenType.IDENT, "as component name")
        self._expect(TokenType.LBRACE, "to open the component body")
        rules: list[Rule] = []
        while not self._check(TokenType.RBRACE):
            if self._check(TokenType.EOF):
                raise self._error("unterminated component body")
            rules.append(self.rule())
        self._advance()  # '}'
        return name_token.text, rules

    def _order_decl(self) -> list[tuple[str, str]]:
        self._advance()  # 'order'
        names = [self._expect(TokenType.IDENT, "as component name in order").text]
        while self._accept(TokenType.LT):
            names.append(
                self._expect(TokenType.IDENT, "as component name in order").text
            )
        if len(names) < 2:
            raise self._error("order declaration needs at least two components")
        self._expect(TokenType.DOT, "to end the order declaration")
        return [(names[i], names[i + 1]) for i in range(len(names) - 1)]

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def rule(self) -> Rule:
        head = self.literal()
        body: list[BodyItem] = []
        if self._accept(TokenType.IF):
            body.append(self.body_item())
            while self._accept(TokenType.COMMA):
                body.append(self.body_item())
        self._expect(TokenType.DOT, "to end the rule")
        return Rule(head, tuple(body))

    def body_item(self) -> BodyItem:
        # Unambiguous literal starts: negation sign, or an identifier that
        # is not followed by an arithmetic/comparison continuation.
        token = self._peek()
        if token.type in (TokenType.MINUS, TokenType.TILDE):
            nxt = self._peek(1)
            if nxt.type is TokenType.IDENT:
                return self.literal()
            # '-3 < X' style guard
            return self._comparison()
        if token.type is TokenType.IDENT:
            return self.literal()
        if token.type in (TokenType.VARIABLE, TokenType.INTEGER, TokenType.LPAREN):
            return self._comparison()
        raise self._error(f"cannot start a body item with {token.text!r}")

    def _comparison(self) -> Comparison:
        left = self._expr()
        op_token = self._peek()
        op = _CMP_TOKENS.get(op_token.type)
        if op is None:
            raise self._error(
                f"expected a comparison operator after expression, found {op_token.text!r}"
            )
        self._advance()
        right = self._expr()
        return Comparison(op, left, right)

    # ------------------------------------------------------------------
    # Literals, atoms, terms
    # ------------------------------------------------------------------
    def literal(self) -> Literal:
        positive = True
        if self._accept(TokenType.MINUS) or self._accept(TokenType.TILDE):
            positive = False
        return Literal(self.atom(), positive)

    def atom(self) -> Atom:
        name = self._expect(TokenType.IDENT, "as predicate symbol")
        args: list[Term] = []
        if self._accept(TokenType.LPAREN):
            args.append(self.term())
            while self._accept(TokenType.COMMA):
                args.append(self.term())
            self._expect(TokenType.RPAREN, "to close the argument list")
        return Atom(name.text, tuple(args))

    def term(self) -> Term:
        token = self._peek()
        if token.type is TokenType.VARIABLE:
            self._advance()
            return Variable(token.text)
        if token.type is TokenType.INTEGER:
            self._advance()
            return Constant(int(token.text))
        if token.type is TokenType.MINUS and self._peek(1).type is TokenType.INTEGER:
            self._advance()
            value = self._advance()
            return Constant(-int(value.text))
        if token.type is TokenType.IDENT:
            self._advance()
            if self._accept(TokenType.LPAREN):
                self._nest(token)
                args = [self.term()]
                while self._accept(TokenType.COMMA):
                    args.append(self.term())
                self._expect(TokenType.RPAREN, "to close the term argument list")
                self._depth -= 1
                return Compound(token.text, tuple(args))
            return Constant(token.text)
        raise self._error(f"expected a term, found {token.text!r}")

    # ------------------------------------------------------------------
    # Arithmetic expressions
    # ------------------------------------------------------------------
    def _expr(self) -> ArithExpr:
        left = self._mul()
        while True:
            if self._accept(TokenType.PLUS):
                left = BinaryOp("+", left, self._mul())
            elif self._check(TokenType.MINUS) and not self._minus_starts_literal():
                self._advance()
                left = BinaryOp("-", left, self._mul())
            else:
                return left

    def _minus_starts_literal(self) -> bool:
        """In expression position a '-' followed by an identifier would be
        a negated literal of the *next* body item; that is a parse error
        here and will be reported by the caller, so treat it as ending
        the expression."""
        return self._peek(1).type is TokenType.IDENT

    def _mul(self) -> ArithExpr:
        left = self._unary()
        while True:
            if self._accept(TokenType.STAR):
                left = BinaryOp("*", left, self._unary())
            elif self._accept(TokenType.SLASH):
                left = BinaryOp("/", left, self._unary())
            else:
                return left

    def _unary(self) -> ArithExpr:
        token = self._peek()
        if self._accept(TokenType.MINUS):
            self._nest(token)
            inner = self._unary()
            self._depth -= 1
            if isinstance(inner, Constant) and isinstance(inner.value, int):
                return Constant(-inner.value)
            return BinaryOp("-", Constant(0), inner)
        if token.type is TokenType.INTEGER:
            self._advance()
            return Constant(int(token.text))
        if token.type is TokenType.VARIABLE:
            self._advance()
            return Variable(token.text)
        if self._accept(TokenType.LPAREN):
            self._nest(token)
            inner = self._expr()
            self._expect(TokenType.RPAREN, "to close the expression")
            self._depth -= 1
            return inner
        raise self._error(
            f"expected an arithmetic operand, found {token.text!r}"
        )

    # ------------------------------------------------------------------
    # End-of-input helpers for the standalone entry points
    # ------------------------------------------------------------------
    def expect_eof(self, what: str) -> None:
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input after {what}: {token.text!r}",
                token.line,
                token.column,
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
    while not parser._check(TokenType.EOF):
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
