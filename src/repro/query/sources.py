"""Fact sources: lazy, pattern-directed access to extensional facts.

The demand evaluator never scans a fact base.  Every extensional
predicate is read through a :class:`FactSource`, whose one real
operation is :meth:`~FactSource.fetch`: *give me the rows matching this
positional pattern* — exactly the tuples a magic predicate asked for.

Three implementations:

* :class:`MemoryFactSource` — ground facts already in the program
  (told facts, workload fixtures), with lazily-built per-column hash
  indexes so bound-position fetches are dictionary lookups;
* :class:`EdbFactSource` — a disk-backed
  :class:`~repro.db.edb.EdbStore` (SQLite column store, per-column
  indexes);
* :class:`UnionFactSource` — the two combined: a knowledge base with
  an attached EDB answers from the store *and* from facts told through
  the delta pipeline since the store was built.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..lang.literals import Atom
from ..lang.terms import Term

__all__ = [
    "FactSource",
    "MemoryFactSource",
    "EdbFactSource",
    "UnionFactSource",
]

Row = tuple[Term, ...]
Pattern = Sequence[Optional[Term]]


class FactSource:
    """Pattern-directed access to one set of extensional relations."""

    def schema(self) -> Mapping[str, int]:
        """``predicate -> arity`` for every relation held here, read
        without touching the rows.  A compiled demand route
        (:class:`~repro.query.api.CompiledDemand`) is valid for exactly
        the schema it was compiled against."""
        raise NotImplementedError

    def arity(self, predicate: str) -> Optional[int]:
        """The predicate's arity, or None when unknown here."""
        return self.schema().get(predicate)

    def count(self, predicate: str) -> int:
        """Total rows for the predicate (0 when unknown)."""
        raise NotImplementedError

    def fetch(self, predicate: str, pattern: Pattern) -> Iterator[Row]:
        """Rows matching the pattern (ground term = constrained
        column, None = free column)."""
        raise NotImplementedError

    def sample(self, predicate: str, limit: int = 32) -> list[Row]:
        """Up to ``limit`` arbitrary rows (sort inference only)."""
        raise NotImplementedError

    def predicates(self) -> frozenset[str]:
        return frozenset(self.schema())


def _matches(row: Row, pattern: Pattern) -> bool:
    for term, want in zip(row, pattern):
        if want is not None and term != want:
            return False
    return True


class MemoryFactSource(FactSource):
    """Ground fact atoms held in memory, indexed per column on demand."""

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self._rows: dict[str, set[Row]] = {}
        self._arity: dict[str, int] = {}
        #: (predicate, column) -> term -> rows; built on first use.
        self._indexes: dict[tuple[str, int], dict[Term, list[Row]]] = {}
        for atom in atoms:
            self.add(atom)

    def add(self, atom: Atom) -> None:
        pred = atom.predicate
        known = self._arity.get(pred)
        if known is None:
            self._arity[pred] = atom.arity
        elif known != atom.arity:
            # Arity clashes are diagnosed by `olp check`; here the
            # differing-arity fact simply never matches the pattern.
            return
        rows = self._rows.setdefault(pred, set())
        if atom.args not in rows:
            rows.add(atom.args)
            for col, term in enumerate(atom.args):
                index = self._indexes.get((pred, col))
                if index is not None:
                    index.setdefault(term, []).append(atom.args)

    def schema(self) -> Mapping[str, int]:
        return self._arity

    def count(self, predicate: str) -> int:
        return len(self._rows.get(predicate, ()))

    def _index(self, predicate: str, col: int) -> dict[Term, list[Row]]:
        key = (predicate, col)
        index = self._indexes.get(key)
        if index is None:
            index = {}
            for row in self._rows.get(predicate, ()):
                index.setdefault(row[col], []).append(row)
            self._indexes[key] = index
        return index

    def fetch(self, predicate: str, pattern: Pattern) -> Iterator[Row]:
        rows = self._rows.get(predicate)
        if rows is None or self._arity[predicate] != len(pattern):
            return
        bound = [i for i, t in enumerate(pattern) if t is not None]
        if not bound:
            yield from rows
            return
        col = bound[0]
        for row in self._index(predicate, col).get(pattern[col], ()):
            if _matches(row, pattern):
                yield row

    def sample(self, predicate: str, limit: int = 32) -> list[Row]:
        rows = self._rows.get(predicate, ())
        out = []
        for row in rows:
            out.append(row)
            if len(out) >= limit:
                break
        return out


class EdbFactSource(FactSource):
    """A :class:`~repro.db.edb.EdbStore` as a fact source."""

    def __init__(self, store) -> None:
        self.store = store

    def schema(self) -> Mapping[str, int]:
        return self.store.schema()

    def arity(self, predicate: str) -> Optional[int]:
        return self.store.arity(predicate)

    def count(self, predicate: str) -> int:
        return self.store.count(predicate)

    def fetch(self, predicate: str, pattern: Pattern) -> Iterator[Row]:
        return self.store.fetch(predicate, pattern)

    def sample(self, predicate: str, limit: int = 32) -> list[Row]:
        return self.store.sample(predicate, limit)


class UnionFactSource(FactSource):
    """Several sources read as one; duplicate rows are collapsed."""

    def __init__(self, sources: Sequence[FactSource]) -> None:
        self.sources = tuple(sources)

    def schema(self) -> Mapping[str, int]:
        merged: dict[str, int] = {}
        for source in reversed(self.sources):
            merged.update(source.schema())
        return merged

    def arity(self, predicate: str) -> Optional[int]:
        # The first source that knows the predicate decides, as in
        # ``schema()``, without merging the maps on every fetch.
        for source in self.sources:
            arity = source.arity(predicate)
            if arity is not None:
                return arity
        return None

    def count(self, predicate: str) -> int:
        return sum(source.count(predicate) for source in self.sources)

    def fetch(self, predicate: str, pattern: Pattern) -> Iterator[Row]:
        arity = self.arity(predicate)
        holders = [s for s in self.sources if s.arity(predicate) == arity]
        if len(holders) == 1:
            yield from holders[0].fetch(predicate, pattern)
            return
        seen: set[Row] = set()
        for source in holders:
            for row in source.fetch(predicate, pattern):
                if row not in seen:
                    seen.add(row)
                    yield row

    def sample(self, predicate: str, limit: int = 32) -> list[Row]:
        out: list[Row] = []
        for source in self.sources:
            out.extend(source.sample(predicate, limit - len(out)))
            if len(out) >= limit:
                break
        return out
