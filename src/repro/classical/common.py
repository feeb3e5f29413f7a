"""Shared helpers for the classical-semantics package.

The classical package works on *ground* programs represented as
:class:`~repro.grounding.grounder.GroundRule` sequences (the component
tag is irrelevant here).  Helpers validate rule classes and convert
between total interpretations and true-atom sets.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from ..core.interpretation import Interpretation
from ..grounding.grounder import GroundRule
from ..lang.literals import Atom, Literal

__all__ = [
    "require_positive",
    "require_seminegative",
    "base_of",
    "maximal",
    "total_interpretation",
    "atoms_of_total",
]


def require_positive(rules: Iterable[GroundRule]) -> None:
    """Raise ValueError unless every rule is a Horn clause."""
    for r in rules:
        if not r.head.positive or any(not l.positive for l in r.body):
            raise ValueError(f"not a positive rule: {r}")


def require_seminegative(rules: Iterable[GroundRule]) -> None:
    """Raise ValueError unless every rule has a positive head."""
    for r in rules:
        if not r.head.positive:
            raise ValueError(f"not a seminegative rule (negative head): {r}")


def base_of(rules: Iterable[GroundRule]) -> frozenset[Atom]:
    """The atoms mentioned by the rules (a sub-base sufficient for the
    fixpoint semantics; pass an explicit base for full-base work)."""
    atoms: set[Atom] = set()
    for r in rules:
        atoms |= r.atoms()
    return frozenset(atoms)


def maximal(interps: Iterable[Interpretation]) -> list[Interpretation]:
    """The interpretations whose literal set no other one strictly
    contains, in their given order."""
    interps = list(interps)
    sets = [i.literals for i in interps]
    return [i for i in interps if not any(i.literals < other for other in sets)]


def total_interpretation(
    true_atoms: AbstractSet[Atom], base: AbstractSet[Atom]
) -> Interpretation:
    """The total interpretation with exactly ``true_atoms`` true."""
    literals = [Literal(a, True) for a in true_atoms]
    literals += [Literal(a, False) for a in base if a not in true_atoms]
    return Interpretation(literals, frozenset(base))


def atoms_of_total(interp: Interpretation) -> frozenset[Atom]:
    """The true atoms of a total interpretation."""
    if not interp.is_total:
        raise ValueError("expected a total interpretation")
    return interp.true_atoms()
