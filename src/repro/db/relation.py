"""Relations: named sets of ground tuples (the paper's database side).

Example 6 defines ``parent`` "through a database relation [U]"; this
module supplies that substrate.  A :class:`Relation` is an immutable
named set of equal-length tuples of ground terms, with the usual
set-level operations (selection, projection, union, difference).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Union

from ..lang.errors import ReproError
from ..lang.literals import Atom
from ..lang.terms import Term, term_from_python

__all__ = ["RelationError", "Relation"]

#: A database tuple: ground terms.
Row = tuple[Term, ...]


class RelationError(ReproError):
    """Raised for arity mismatches and non-ground tuples."""


def _coerce_row(values: Iterable[Union[Term, str, int]], arity: int) -> Row:
    row = tuple(term_from_python(v) for v in values)
    if len(row) != arity:
        raise RelationError(
            f"expected a tuple of arity {arity}, got {len(row)}: {row}"
        )
    for term in row:
        if not term.is_ground:
            raise RelationError(f"database tuples must be ground: {row}")
    return row


class Relation:
    """An immutable named relation.

    Construction accepts plain Python values (strings become symbolic
    constants, ints become integer constants):

    >>> parent = Relation("parent", 2, [("adam", "cain"), ("adam", "abel")])
    >>> len(parent)
    2
    """

    __slots__ = ("name", "arity", "_rows")

    def __init__(
        self,
        name: str,
        arity: int,
        rows: Iterable[Iterable[Union[Term, str, int]]] = (),
    ) -> None:
        if not name:
            raise RelationError("relation name must be non-empty")
        if arity < 0:
            raise RelationError("arity must be non-negative")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(
            self, "_rows", frozenset(_coerce_row(r, arity) for r in rows)
        )

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Relation is immutable")

    # ------------------------------------------------------------------
    # Basic access
    # ------------------------------------------------------------------
    @property
    def rows(self) -> frozenset[Row]:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(sorted(self._rows, key=str))

    def __contains__(self, row: object) -> bool:
        if isinstance(row, tuple):
            try:
                return _coerce_row(row, self.arity) in self._rows
            except RelationError:
                return False
        return False

    def atoms(self) -> frozenset[Atom]:
        """The relation as a set of ground atoms ``name(row...)``."""
        return frozenset(Atom(self.name, row) for row in self._rows)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _same_shape(self, other: "Relation") -> None:
        if other.arity != self.arity:
            raise RelationError(
                f"arity mismatch: {self.name}/{self.arity} vs "
                f"{other.name}/{other.arity}"
            )

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Rows satisfying a Python predicate."""
        return Relation(self.name, self.arity, filter(predicate, self._rows))

    def select_eq(self, position: int, value: Union[Term, str, int]) -> "Relation":
        """Rows whose ``position``-th column equals the value."""
        term = term_from_python(value)
        return self.select(lambda row: row[position] == term)

    def project(self, positions: Iterable[int]) -> "Relation":
        """The relation restricted to the given columns (in order)."""
        positions = tuple(positions)
        return Relation(
            self.name,
            len(positions),
            (tuple(row[i] for i in positions) for row in self._rows),
        )

    def union(self, other: "Relation") -> "Relation":
        self._same_shape(other)
        return Relation(self.name, self.arity, self._rows | other._rows)

    def difference(self, other: "Relation") -> "Relation":
        self._same_shape(other)
        return Relation(self.name, self.arity, self._rows - other._rows)

    def intersection(self, other: "Relation") -> "Relation":
        self._same_shape(other)
        return Relation(self.name, self.arity, self._rows & other._rows)

    def with_rows(
        self, extra: Iterable[Iterable[Union[Term, str, int]]]
    ) -> "Relation":
        """A new relation with extra rows added."""
        added = frozenset(_coerce_row(r, self.arity) for r in extra)
        return Relation(self.name, self.arity, self._rows | added)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Relation)
            and other.name == self.name
            and other.arity == self.arity
            and other._rows == self._rows
        )

    def __hash__(self) -> int:
        return hash((self.name, self.arity, self._rows))

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Relation({self.name}/{self.arity}, {len(self._rows)} rows)"
