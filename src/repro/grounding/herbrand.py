"""Herbrand universe and Herbrand base (Section 2 of the paper).

``HU(P)`` is the set of ground terms built from the constants and
function symbols of ``P``; ``HB(P)`` is the set of ground atoms over the
predicates of ``P`` with arguments from ``HU(P)``.

With function symbols the universe is infinite; we bound construction by
*term depth* (``max_depth``), raising :class:`GroundingError` when the
program has function symbols and no bound is supplied.  This is the
standard finite approximation used by every bottom-up grounder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Union

from ..lang.errors import GroundingError
from ..lang.literals import Atom
from ..lang.program import Component, OrderedProgram
from ..lang.terms import Compound, Constant, Term

__all__ = ["HerbrandUniverse", "herbrand_base", "universe_of"]

#: A hard sanity cap on generated terms, to fail fast instead of looping.
_DEFAULT_TERM_CAP = 2_000_000


@dataclass(frozen=True)
class HerbrandUniverse:
    """A (finite slice of a) Herbrand universe.

    Attributes:
        terms: the ground terms, sorted deterministically.
        max_depth: the depth bound that produced the slice (0 = constants
            only, which is exact when the program has no function
            symbols).
    """

    terms: tuple[Term, ...]
    max_depth: int

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __contains__(self, term: object) -> bool:
        return term in self._term_set

    @cached_property
    def _term_set(self) -> frozenset[Term]:
        return frozenset(self.terms)


def universe_of(
    program: Union[OrderedProgram, Component, Iterable],
    max_depth: Optional[int] = None,
    term_cap: int = _DEFAULT_TERM_CAP,
) -> HerbrandUniverse:
    """Compute the Herbrand universe of a program.

    Args:
        program: an ordered program, a component, or an iterable of rules.
        max_depth: depth bound for function-symbol nesting.  Required when
            the program has function symbols; ignored otherwise.
        term_cap: safety cap on the number of generated terms.

    Raises:
        GroundingError: for an unbounded universe or when the cap is hit.
    """
    constants, functions = _symbols_of(program)
    if not constants and not functions:
        # The paper's HU is built from symbols *occurring in P*; a purely
        # propositional program has an empty universe.
        return HerbrandUniverse((), 0)
    if functions and max_depth is None:
        raise GroundingError(
            "program has function symbols "
            f"{sorted(functions)}; pass max_depth to bound the Herbrand universe"
        )
    if not constants and functions:
        raise GroundingError(
            "program has function symbols but no constants: "
            "the Herbrand universe is empty and no ground term exists"
        )
    depth = max_depth if functions else 0
    frontier: list[Term] = sorted(constants, key=str)
    universe: list[Term] = list(frontier)
    seen: set[Term] = set(frontier)
    for _ in range(depth or 0):
        new_terms: list[Term] = []
        for functor, arity in sorted(functions):
            for combo in itertools.product(universe, repeat=arity):
                candidate = Compound(functor, combo)
                if candidate not in seen:
                    seen.add(candidate)
                    new_terms.append(candidate)
                    if len(seen) > term_cap:
                        raise GroundingError(
                            f"Herbrand universe exceeds cap of {term_cap} terms; "
                            "lower max_depth"
                        )
        if not new_terms:
            break
        universe.extend(new_terms)
    return HerbrandUniverse(tuple(sorted(universe, key=str)), depth or 0)


def herbrand_base(
    program: Union[OrderedProgram, Component, Iterable],
    universe: Optional[HerbrandUniverse] = None,
    max_depth: Optional[int] = None,
    cap: Optional[int] = None,
) -> frozenset[Atom]:
    """The Herbrand base: every ground atom over the program's predicates
    with arguments drawn from the universe.

    Propositional atoms (arity 0) are included regardless of the
    universe.  A base of more than ``cap`` atoms raises
    :class:`GroundingError` before one atom of it is built.
    """
    if universe is None:
        universe = universe_of(program, max_depth=max_depth)
    signatures = _signatures_of(program)
    size = sum(len(universe) ** arity for _, arity in signatures)
    if cap is not None and size > cap:
        predicate, arity = max(signatures, key=lambda sig: sig[1])
        raise GroundingError(
            f"Herbrand base of {size} atoms exceeds cap {cap} ({predicate}/{arity})"
        )
    atoms: set[Atom] = set()
    for predicate, arity in signatures:
        if arity == 0:
            atoms.add(Atom(predicate))
            continue
        for combo in itertools.product(universe.terms, repeat=arity):
            atoms.add(Atom(predicate, combo))
    return frozenset(atoms)


def _symbols_of(
    program: Union[OrderedProgram, Component, Iterable],
) -> tuple[set[Constant], set[tuple[str, int]]]:
    """The constants and function symbols, in one walk of the terms."""
    if not isinstance(program, (OrderedProgram, Component)):
        program = Component("_tmp", program)
    symbols = set(program.symbols())
    constants = {s for s in symbols if isinstance(s, Constant)}
    return constants, symbols - constants  # the rest are (functor, arity)


def _signatures_of(
    program: Union[OrderedProgram, Component, Iterable],
) -> frozenset[tuple[str, int]]:
    if isinstance(program, (OrderedProgram, Component)):
        return program.predicate_signatures()
    return Component("_tmp", program).predicate_signatures()
