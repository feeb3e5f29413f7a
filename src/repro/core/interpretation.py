"""Three-valued interpretations (Section 2 of the paper).

An *interpretation* for a program with Herbrand base ``B`` is any
consistent subset of ``B ∪ ¬B``.  A ground literal is **true** iff it is
a member of the interpretation; atoms for which neither ``A`` nor ``¬A``
is a member are **undefined** (the paper's ``Ī``).  The truth values
order ``F < U < T`` and the value of a conjunction is the minimum of the
values of its literals (Section 3, following [P3]).

Interpretations can be built three ways.  The eager constructor
validates its members (ground, consistent, inside the base) — the right
behaviour at API boundaries where the literals come from callers.  The
:meth:`Interpretation.deferred` path instead wraps a thunk from a
producer that *guarantees* those invariants and materializes the member
set only when something actually reads it.
:meth:`Interpretation.over` is what the dense fixpoint kernel's models
are, cold and maintained alike (it derives ids that are consistent by
construction): the value is the kernel's per-literal-id membership
flags read through its atom table, and it answers ``in``, ``len``,
``value`` and :meth:`Interpretation.relation` in that id space — a
least model, or a version of a served one, is a copy of a byte string,
and literal objects exist only for what a reader takes out.  Iterating,
comparing or hashing such a value decodes it, once, like a thunk.

Truth is membership, so a ground goal is one probe.  An *open* goal
(``fly(X)``) can only match members of its own signed predicate;
:meth:`Interpretation.relation` hands those out, from an index the
value builds for itself on the first such read or, in id space, from
the atom table's (one per table, shared by every version) filtered by
this version's flags.  The value is immutable, so neither goes stale.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import TYPE_CHECKING, AbstractSet, Callable, Iterable, Iterator, Optional

from ..lang.errors import InconsistencyError
from ..lang.literals import Atom, Literal
from ..obs import record_costs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..grounding.grounder import AtomTable

__all__ = ["TruthValue", "Interpretation"]


class TruthValue(enum.IntEnum):
    """The three truth values, ordered ``FALSE < UNDEFINED < TRUE``."""

    FALSE = 0
    UNDEFINED = 1
    TRUE = 2

    def __str__(self) -> str:
        return {0: "F", 1: "U", 2: "T"}[int(self)]


class Interpretation:
    """An immutable, consistent set of ground literals over a base.

    Args:
        literals: the member literals.  Must be ground and consistent.
        base: the Herbrand base (set of ground *atoms*).  Every member
            literal's atom must belong to the base.  When omitted, the
            base defaults to the atoms of the member literals (handy in
            tests, but note that ``undefined_atoms`` is then empty unless
            a wider base is given).
    """

    __slots__ = ("_literals", "_base", "_hash", "_thunk", "_relations", "_table", "_flags")

    def __init__(
        self,
        literals: Iterable[Literal] = (),
        base: Optional[AbstractSet[Atom]] = None,
    ) -> None:
        members = frozenset(literals)
        for l in members:
            if not isinstance(l, Literal):
                raise TypeError(f"interpretation members must be literals: {l!r}")
            if not l.is_ground:
                raise ValueError(f"interpretation members must be ground: {l}")
            if l.complement() in members:
                raise InconsistencyError(
                    f"inconsistent interpretation: both {l} and {l.complement()}"
                )
        atom_set = frozenset(l.atom for l in members)
        if base is None:
            full_base = atom_set
        else:
            full_base = frozenset(base)
            missing = atom_set - full_base
            if missing:
                raise ValueError(
                    f"literals outside the base: {sorted(map(str, missing))}"
                )
        object.__setattr__(self, "_literals", members)
        object.__setattr__(self, "_base", full_base)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_thunk", None)
        object.__setattr__(self, "_relations", None)
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_flags", None)

    @classmethod
    def deferred(
        cls,
        thunk: Callable[[], Iterable[Literal]],
        base: AbstractSet[Atom],
    ) -> "Interpretation":
        """An interpretation whose members are produced lazily.

        The thunk is called at most once, on first read.  The producer
        is trusted to yield ground, mutually consistent literals whose
        atoms lie inside ``base`` — the eager validation is skipped, so
        this path is reserved for internal engines whose output is
        consistent by construction (the fixpoint kernel raises
        :class:`~repro.lang.errors.InconsistencyError` itself rather
        than emitting an inconsistent delta).
        """
        self = cls.__new__(cls)
        object.__setattr__(self, "_literals", None)
        object.__setattr__(self, "_base", frozenset(base))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_thunk", thunk)
        object.__setattr__(self, "_relations", None)
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_flags", None)
        return self

    @classmethod
    def over(
        cls, table: "AtomTable", flags: bytes, base: AbstractSet[Atom]
    ) -> "Interpretation":
        """The interpretation whose members are the literals of
        ``table`` whose id is flagged (``flags[id] == 1``).

        The producer is trusted as for :meth:`deferred`, and must hand
        over flags nothing will write to again.  The table may keep
        growing: an atom interned later has an id past the flags and is
        not a member.
        """
        self = cls.deferred(partial(table.flagged_literals, flags), base)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_flags", flags)
        return self

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Interpretation is immutable")

    def _members(self) -> frozenset[Literal]:
        members = self._literals
        if members is None:
            members = frozenset(self._thunk())
            object.__setattr__(self, "_literals", members)
            object.__setattr__(self, "_thunk", None)
            if self._flags is not None:  # left id space: record it
                record_costs(decoded_literals=len(members))
        return members

    # ------------------------------------------------------------------
    # Membership and valuation
    # ------------------------------------------------------------------
    @property
    def literals(self) -> frozenset[Literal]:
        return self._members()

    @property
    def base(self) -> frozenset[Atom]:
        return self._base

    def __contains__(self, literal: object) -> bool:
        flags = self._flags
        if flags is None:
            return literal in self._members()
        if not isinstance(literal, Literal):
            return False
        atom_id = self._table.id_of(literal.atom)
        if atom_id is None:
            return False
        i = 2 * atom_id + (not literal.positive)
        return i < len(flags) and flags[i] == 1

    def __iter__(self) -> Iterator[Literal]:
        return iter(self._members())

    def __len__(self) -> int:
        flags = self._flags
        return len(self._members()) if flags is None else flags.count(1)

    def relation(
        self, predicate: str, arity: int, positive: bool
    ) -> tuple[Literal, ...]:
        """The members of one signed predicate, in ``str`` order — the
        only members a non-ground goal over it can match.

        Members are bucketed on the first call (one pass) and a bucket
        is ordered on its first read; both are derived from the
        immutable member set, so like the lazy hash they are cached on
        the value and play no part in equality.  In id space a relation
        is the table's ids of the predicate, in order, that are flagged.
        """
        relations = self._relations
        key = (predicate, arity, positive)
        flags = self._flags
        if flags is not None:
            if relations is None:
                relations = {}
                object.__setattr__(self, "_relations", relations)
            bucket = relations.get(key)
            if bucket is None:
                table, n, sign = self._table, len(flags), 0 if positive else 1
                ids = [i | sign for i in table.predicate_ids(predicate, arity)]
                bucket = relations[key] = tuple(
                    table.literal(i) for i in ids if i < n and flags[i]
                )
            return bucket
        if relations is None:
            relations = {}
            for l in self._members():
                atom = l.atom
                relations.setdefault(
                    (atom.predicate, len(atom.args), l.positive), []
                ).append(l)
            object.__setattr__(self, "_relations", relations)
        bucket = relations.get(key, ())
        if isinstance(bucket, list):
            bucket = relations[key] = tuple(sorted(bucket, key=str))
        return bucket

    def value(self, literal: Literal) -> TruthValue:
        """The value of a ground literal: T if a member, F if its
        complement is a member, U otherwise."""
        if literal in self:
            return TruthValue.TRUE
        if literal.complement() in self:
            return TruthValue.FALSE
        return TruthValue.UNDEFINED

    def value_of_atom(self, atom: Atom) -> TruthValue:
        return self.value(Literal(atom, True))

    def conjunction_value(self, literals: Iterable[Literal]) -> TruthValue:
        """``value(J) = min over the literals`` — and T for the empty
        conjunction (Section 3)."""
        result = TruthValue.TRUE
        for l in literals:
            v = self.value(l)
            if v < result:
                result = v
                if result is TruthValue.FALSE:
                    break
        return result

    # ------------------------------------------------------------------
    # The paper's derived sets
    # ------------------------------------------------------------------
    def undefined_atoms(self) -> frozenset[Atom]:
        """``Ī``: the base atoms with neither ``A`` nor ``¬A`` assigned."""
        defined = frozenset(l.atom for l in self._members())
        return self._base - defined

    @property
    def is_total(self) -> bool:
        """Total interpretations assign a value to every base atom."""
        return not self.undefined_atoms()

    def positive_part(self) -> frozenset[Literal]:
        """``I+``: the positive member literals."""
        return frozenset(l for l in self._members() if l.positive)

    def negative_part(self) -> frozenset[Literal]:
        """``I-``: the negative member literals."""
        return frozenset(l for l in self._members() if not l.positive)

    def true_atoms(self) -> frozenset[Atom]:
        return frozenset(l.atom for l in self._members() if l.positive)

    def false_atoms(self) -> frozenset[Atom]:
        return frozenset(l.atom for l in self._members() if not l.positive)

    # ------------------------------------------------------------------
    # Construction of variants
    # ------------------------------------------------------------------
    def with_literals(self, extra: Iterable[Literal]) -> "Interpretation":
        """A new interpretation with extra literals added (atoms outside
        the base widen the base)."""
        members = self._members() | frozenset(extra)
        base = self._base | frozenset(l.atom for l in members)
        return Interpretation(members, base)

    def without_literals(self, removed: Iterable[Literal]) -> "Interpretation":
        return Interpretation(self._members() - frozenset(removed), self._base)

    def restricted_to(self, atoms: AbstractSet[Atom]) -> "Interpretation":
        """The interpretation restricted to a sub-base."""
        keep = frozenset(l for l in self._members() if l.atom in atoms)
        return Interpretation(keep, frozenset(atoms))

    def with_base(self, base: AbstractSet[Atom]) -> "Interpretation":
        """The same literals over a (usually wider) base."""
        members = self._members()
        return Interpretation(
            members, frozenset(base) | frozenset(l.atom for l in members)
        )

    # ------------------------------------------------------------------
    # Set-like comparisons (on literal sets; the base does not compare)
    # ------------------------------------------------------------------
    def __le__(self, other: "Interpretation") -> bool:
        return self._members() <= other._members()

    def __lt__(self, other: "Interpretation") -> bool:
        return self._members() < other._members()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Interpretation)
            and other._members() == self._members()
            and other._base == self._base
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("interp", self._members(), self._base))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        inner = ", ".join(str(l) for l in sorted(self._members()))
        return "{" + inner + "}"

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Interpretation({self}, |base|={len(self._base)})"
