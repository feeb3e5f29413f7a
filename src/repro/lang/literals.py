"""Predicates (atoms) and literals (Section 2 of the paper).

A *predicate* is ``p(t1, ..., tn)`` for a predicate symbol ``p`` of arity
``n >= 0``.  A *literal* is a predicate (*positive literal*) or its
negation (*negative literal*).  Negation here is the paper's classical
negation ``¬`` (written ``-`` in the surface syntax), **not**
negation-as-failure: a negative literal is true only when it is a member
of the interpretation.

Two literals are *complementary* when they are ``A`` and ``¬A`` for the
same predicate; :meth:`Literal.complement` (also available as the unary
``~`` operator) produces the complement.  Module-level helpers
:func:`pos`, :func:`neg` and :func:`complement_set` mirror the paper's
``A`` / ``¬A`` / ``¬X`` notation.
"""

from __future__ import annotations

from typing import Iterable, Union

from .terms import Term, Variable, term_from_python

__all__ = [
    "Atom",
    "Literal",
    "pos",
    "neg",
    "lit",
    "complement_set",
    "is_consistent",
    "positive_part",
    "negative_part",
]


class Atom:
    """A predicate ``p(t1, ..., tn)``.

    ``args`` may be empty: propositional atoms like ``take_loan`` are
    0-ary predicates.  Atoms are immutable and hashable.
    """

    __slots__ = ("predicate", "args", "_hash", "_ground")

    def __init__(self, predicate: str, args: tuple[Term, ...] = ()) -> None:
        if not predicate:
            raise ValueError("predicate symbol must be non-empty")
        args = tuple(args)
        for arg in args:
            if not isinstance(arg, Term):
                raise TypeError(f"atom argument must be a Term, got {arg!r}")
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash(("atom", predicate, args)))
        object.__setattr__(self, "_ground", all(a.is_ground for a in args))

    @classmethod
    def ground(cls, predicate: str, args: tuple[Term, ...]) -> "Atom":
        """An atom table's key as an atom: ``args`` is checked already."""
        self = object.__new__(cls)
        _set_predicate(self, predicate)
        _set_args(self, args)
        _set_atom_hash(self, hash(("atom", predicate, args)))
        _set_ground(self, True)
        return self

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Atom is immutable")

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def signature(self) -> tuple[str, int]:
        """The ``(symbol, arity)`` pair identifying the predicate."""
        return (self.predicate, len(self.args))

    @property
    def is_ground(self) -> bool:
        return self._ground

    def variables(self) -> frozenset[Variable]:
        result: frozenset[Variable] = frozenset()
        for arg in self.args:
            result |= arg.variables()
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and other._hash == self._hash
            and other.predicate == self.predicate
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.predicate}({inner})"

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Atom({self})"


class Literal:
    """A positive or negative literal over an :class:`Atom`.

    The complement of a literal is obtained with ``~literal`` or
    :meth:`complement`.  Literals order lexicographically by their string
    rendering, which gives deterministic, human-stable output everywhere
    models are printed.
    """

    __slots__ = ("atom", "positive", "_hash", "_complement")

    def __init__(self, atom: Atom, positive: bool = True) -> None:
        if not isinstance(atom, Atom):
            raise TypeError(f"Literal requires an Atom, got {atom!r}")
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "positive", bool(positive))
        object.__setattr__(self, "_hash", hash(("lit", atom, positive)))
        object.__setattr__(self, "_complement", None)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Literal is immutable")

    @property
    def negative(self) -> bool:
        return not self.positive

    @property
    def predicate(self) -> str:
        return self.atom.predicate

    @property
    def args(self) -> tuple[Term, ...]:
        return self.atom.args

    @property
    def signature(self) -> tuple[str, int]:
        return self.atom.signature

    @property
    def is_ground(self) -> bool:
        return self.atom.is_ground

    def variables(self) -> frozenset[Variable]:
        return self.atom.variables()

    def complement(self) -> "Literal":
        """The complementary literal ``¬A`` (or ``A`` for ``¬A``).

        Built on first use and kept.  The complement does not point
        back: a pair pointing at each other would be a reference cycle
        only the cyclic collector frees.
        """
        other = self._complement
        if other is None:
            other = Literal(self.atom, not self.positive)
            _set_complement(self, other)
        return other

    def __invert__(self) -> "Literal":
        return self.complement()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and other._hash == self._hash
            and other.positive == self.positive
            and other.atom == self.atom
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Literal") -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return str(self) < str(other)

    def __str__(self) -> str:
        sign = "" if self.positive else "-"
        return f"{sign}{self.atom}"

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Literal({self})"


# Slot setters without ``object.__setattr__``'s lookup: decoding runs these per atom.
_set_predicate, _set_args, _set_atom_hash, _set_ground = (
    getattr(Atom, slot).__set__ for slot in Atom.__slots__
)
_set_complement = Literal._complement.__set__


def pos(predicate: str, *args: Union[Term, str, int]) -> Literal:
    """Build a positive literal; plain str/int arguments are converted via
    :func:`repro.lang.terms.term_from_python`."""
    return Literal(Atom(predicate, tuple(term_from_python(a) for a in args)), True)


def neg(predicate: str, *args: Union[Term, str, int]) -> Literal:
    """Build a negative literal ``¬p(args)``."""
    return Literal(Atom(predicate, tuple(term_from_python(a) for a in args)), False)


def lit(predicate: str, *args: Union[Term, str, int], positive: bool = True) -> Literal:
    """Build a literal with an explicit sign."""
    atom = Atom(predicate, tuple(term_from_python(a) for a in args))
    return Literal(atom, positive)


def complement_set(literals: Iterable[Literal]) -> frozenset[Literal]:
    """The paper's ``¬X``: the set of complements of every literal in X."""
    return frozenset(l.complement() for l in literals)


def is_consistent(literals: Iterable[Literal]) -> bool:
    """True when the set contains no complementary pair ``A`` / ``¬A``."""
    seen = set(literals)
    return all(l.complement() not in seen for l in seen)


def positive_part(literals: Iterable[Literal]) -> frozenset[Literal]:
    """The paper's ``X+``: the positive literals of X."""
    return frozenset(l for l in literals if l.positive)


def negative_part(literals: Iterable[Literal]) -> frozenset[Literal]:
    """The paper's ``X-``: the negative literals of X."""
    return frozenset(l for l in literals if not l.positive)
