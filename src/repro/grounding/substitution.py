"""Substitutions and matching.

A ground instance of a rule is obtained "by replacing every variable X by
θ(X), where θ is a mapping from the variables to the Herbrand universe"
(Section 2).  The grounder and the demand engine bind variables in their
compiled joins (:mod:`repro.grounding.joins`); what stays here is the
answer side: :class:`Substitution`, the variable bindings a query answer
carries, and :func:`match_atom`, the one-sided matching that produces
them from a model's ground literals.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from ..lang.literals import Atom
from ..lang.terms import Compound, Constant, Term, Variable

__all__ = ["Substitution", "match_atom"]


class Substitution:
    """An immutable mapping from variables to terms.

    Identity bindings (``X -> X``) are dropped.
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
