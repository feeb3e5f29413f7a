"""Positive (Horn) programs: the classical ``T_P`` operator.

The minimal total model of a positive program is unique and is the least
fixpoint of the immediate-consequence transformation (Section 2 of the
paper, citing [L, U]).  On Horn clauses that fixpoint is the semi-naive
:func:`repro.core.assumptions.literal_closure`, read back as atoms.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from ..core.assumptions import literal_closure
from ..grounding.grounder import GroundRule
from ..lang.literals import Atom
from .common import require_positive

__all__ = ["immediate_consequence", "minimal_model"]


def immediate_consequence(
    rules: Iterable[GroundRule], atoms: AbstractSet[Atom]
) -> frozenset[Atom]:
    """One application of ``T_P``: heads of rules whose bodies hold."""
    derived: set[Atom] = set()
    for r in rules:
        if all(l.atom in atoms for l in r.body):
            derived.add(r.head.atom)
    return frozenset(derived)


def minimal_model(rules: Iterable[GroundRule]) -> frozenset[Atom]:
    """``T_P↑ω(∅)`` — the minimal total model of a positive program,
    returned as its set of true atoms (everything else is false).

    Raises:
        ValueError: if some rule is not a Horn clause.
    """
    rules = tuple(rules)
    require_positive(rules)
    return frozenset(l.atom for l in literal_closure(rules))
