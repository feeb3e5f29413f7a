"""Substitutions, matching and unification.

A ground instance of a rule is obtained "by replacing every variable X by
θ(X), where θ is a mapping from the variables to the Herbrand universe"
(Section 2).  :class:`Substitution` implements θ for terms, atoms,
literals, guards and rules; :func:`match` and :func:`unify` provide the
one- and two-sided equation solving used by the optimised grounder and
the query engine.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from ..lang.builtins import ArithExpr, BinaryOp, Comparison
from ..lang.literals import Atom, Literal
from ..lang.rules import BodyItem, Rule
from ..lang.terms import Compound, Constant, Term, Variable

__all__ = ["Substitution", "match", "match_atom", "unify", "unify_atoms"]


class Substitution:
    """An immutable mapping from variables to terms.

    Application is *simultaneous* (not iterated): applying
    ``{X -> Y, Y -> a}`` to ``X`` yields ``Y``, not ``a``.  Use
    :meth:`compose` to chain substitutions.
    """

    __slots__ = ("_mapping",)

    def __init__(self, mapping: Optional[Mapping[Variable, Term]] = None) -> None:
        items: dict[Variable, Term] = {}
        if mapping:
            for key, value in mapping.items():
                if not isinstance(key, Variable):
                    raise TypeError(f"substitution keys must be variables: {key!r}")
                if not isinstance(value, Term):
                    raise TypeError(f"substitution values must be terms: {value!r}")
                if key != value:
                    items[key] = value
        object.__setattr__(self, "_mapping", items)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Substitution is immutable")

    # ------------------------------------------------------------------
    # Mapping interface
    # ------------------------------------------------------------------
    def __getitem__(self, v: Variable) -> Term:
        return self._mapping[v]

    def get(self, v: Variable, default: Optional[Term] = None) -> Optional[Term]:
        return self._mapping.get(v, default)

    def __contains__(self, v: object) -> bool:
        return v in self._mapping

    def __len__(self) -> int:
        return len(self._mapping)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._mapping)

    def items(self) -> Iterator[tuple[Variable, Term]]:
        return iter(self._mapping.items())

    def as_dict(self) -> dict[Variable, Term]:
        return dict(self._mapping)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply_term(self, term: Term) -> Term:
        if isinstance(term, Variable):
            return self._mapping.get(term, term)
        if isinstance(term, Constant):
            return term
        if isinstance(term, Compound):
            if term.is_ground:
                return term
            return Compound(term.functor, tuple(self.apply_term(a) for a in term.args))
        raise TypeError(f"not a term: {term!r}")

    def apply_expr(self, expr: ArithExpr) -> ArithExpr:
        if isinstance(expr, BinaryOp):
            return BinaryOp(expr.op, self.apply_expr(expr.left), self.apply_expr(expr.right))
        return self.apply_term(expr)

    def apply_atom(self, atom: Atom) -> Atom:
        if atom.is_ground or not self._mapping:
            return atom
        return Atom(atom.predicate, tuple(self.apply_term(a) for a in atom.args))

    def apply_literal(self, literal: Literal) -> Literal:
        if literal.is_ground or not self._mapping:
            return literal
        return Literal(self.apply_atom(literal.atom), literal.positive)

    def apply_body_item(self, item: BodyItem) -> BodyItem:
        if isinstance(item, Literal):
            return self.apply_literal(item)
        if isinstance(item, Comparison):
            return Comparison(item.op, self.apply_expr(item.left), self.apply_expr(item.right))
        raise TypeError(f"not a body item: {item!r}")

    def apply_rule(self, r: Rule) -> Rule:
        if not self._mapping:
            return r
        return Rule(
            self.apply_literal(r.head),
            tuple(self.apply_body_item(item) for item in r.body),
        )

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def bind(self, v: Variable, term: Term) -> "Substitution":
        """A new substitution with one extra binding (must be fresh or
        identical)."""
        existing = self._mapping.get(v)
        if existing is not None and existing != term:
            raise ValueError(f"variable {v} already bound to {existing}, not {term}")
        updated = dict(self._mapping)
        updated[v] = term
        return Substitution(updated)

    def compose(self, other: "Substitution") -> "Substitution":
        """``(self ∘ other)``: apply ``self`` first, then ``other`` to the
        results; bindings of ``other`` for fresh variables are kept."""
        combined: dict[Variable, Term] = {
            v: other.apply_term(t) for v, t in self._mapping.items()
        }
        for v, t in other.items():
            combined.setdefault(v, t)
        return Substitution(combined)

    def restrict(self, variables: frozenset[Variable]) -> "Substitution":
        """The substitution restricted to the given variables."""
        return Substitution({v: t for v, t in self._mapping.items() if v in variables})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and other._mapping == self._mapping

    def __hash__(self) -> int:
        return hash(frozenset(self._mapping.items()))

    def __str__(self) -> str:
        inner = ", ".join(f"{v} -> {t}" for v, t in sorted(
            self._mapping.items(), key=lambda kv: str(kv[0])
        ))
        return "{" + inner + "}"

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Substitution({self})"


# ----------------------------------------------------------------------
# Matching (one-sided unification: pattern against ground term)
# ----------------------------------------------------------------------

def _match_term(
    pattern: Term, target: Term, bindings: dict[Variable, Term]
) -> bool:
    if isinstance(pattern, Variable):
        bound = bindings.get(pattern)
        if bound is None:
            bindings[pattern] = target
            return True
        return bound == target
    if isinstance(pattern, Constant):
        return pattern == target
    if isinstance(pattern, Compound):
        if not isinstance(target, Compound):
            return False
        if pattern.functor != target.functor or pattern.arity != target.arity:
            return False
        return all(
            _match_term(p, t, bindings) for p, t in zip(pattern.args, target.args, strict=True)
        )
    raise TypeError(f"not a term: {pattern!r}")


def match(
    pattern: Term, target: Term, seed: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Match a pattern term against a (usually ground) target.

    Returns the extending substitution, or None if they do not match.
    Variables in the *target* are treated as constants — use
    :func:`unify` for two-sided solving.
    """
    bindings = seed.as_dict() if seed else {}
    if _match_term(pattern, target, bindings):
        return Substitution(bindings)
    return None


def match_atom(
    pattern: Atom, target: Atom, seed: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Match a pattern atom against a target atom argument-wise."""
    if pattern.signature != target.signature:
        return None
    bindings = seed.as_dict() if seed else {}
    for p, t in zip(pattern.args, target.args, strict=True):
        if not _match_term(p, t, bindings):
            return None
    return Substitution(bindings)


# ----------------------------------------------------------------------
# Unification (two-sided, with occurs check)
# ----------------------------------------------------------------------

def _walk(term: Term, bindings: dict[Variable, Term]) -> Term:
    while isinstance(term, Variable) and term in bindings:
        term = bindings[term]
    return term


def _occurs(v: Variable, term: Term, bindings: dict[Variable, Term]) -> bool:
    term = _walk(term, bindings)
    if term == v:
        return True
    if isinstance(term, Compound):
        return any(_occurs(v, a, bindings) for a in term.args)
    return False


def _unify_terms(a: Term, b: Term, bindings: dict[Variable, Term]) -> bool:
    a = _walk(a, bindings)
    b = _walk(b, bindings)
    if a == b:
        return True
    if isinstance(a, Variable):
        if _occurs(a, b, bindings):
            return False
        bindings[a] = b
        return True
    if isinstance(b, Variable):
        if _occurs(b, a, bindings):
            return False
        bindings[b] = a
        return True
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.functor != b.functor or a.arity != b.arity:
            return False
        return all(_unify_terms(x, y, bindings) for x, y in zip(a.args, b.args, strict=True))
    return False


def _resolve(term: Term, bindings: dict[Variable, Term]) -> Term:
    term = _walk(term, bindings)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_resolve(a, bindings) for a in term.args))
    return term


def unify(a: Term, b: Term) -> Optional[Substitution]:
    """Most general unifier of two terms (with occurs check), or None."""
    bindings: dict[Variable, Term] = {}
    if not _unify_terms(a, b, bindings):
        return None
    return Substitution({v: _resolve(t, bindings) for v, t in bindings.items()})


def unify_atoms(a: Atom, b: Atom) -> Optional[Substitution]:
    """Most general unifier of two atoms, or None."""
    if a.signature != b.signature:
        return None
    bindings: dict[Variable, Term] = {}
    for x, y in zip(a.args, b.args, strict=True):
        if not _unify_terms(x, y, bindings):
            return None
    return Substitution({v: _resolve(t, bindings) for v, t in bindings.items()})
