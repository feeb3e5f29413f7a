"""Disk-backed EDB storage: a SQLite column store of ground relations.

Fact bases larger than RAM are a supported scenario: an
:class:`EdbStore` keeps every relation as an integer column table in a
single SQLite file, with ground terms deduplicated through a ``terms``
dictionary table — the file's own id space, next to the evaluator's
:class:`~repro.grounding.grounder.AtomTable`.  Reads come back as
:class:`~repro.lang.terms.Term` objects, decoded once per store and
remembered by the store alone: nothing a store touches outlives it.

The store is the data half of the demand-driven query path
(``docs/query.md``): :meth:`fetch` pulls only the tuples a magic
predicate asks for (a ``WHERE`` over the bound columns, answered from
per-column indexes), so a point query over a multi-million-fact EDB
never scans the fact base.  :meth:`facts` is the full scan that
materialization needs, and is deliberately documented as expensive.

Attach a store to a knowledge base with
:meth:`repro.kb.KnowledgeBase.attach_edb`, or to a server with
``olp serve --edb PATH``.  Stores are read-only at serve time: writes
flow through the ordinary delta pipeline, never into the file.
"""

from __future__ import annotations

import json
import sqlite3
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..lang.literals import Atom, Literal
from ..lang.rules import Rule
from ..lang.terms import Compound, Constant, Term

__all__ = ["EdbStore", "EdbError"]

#: Schema version recorded in the ``meta`` table.
FORMAT = "edb/1"


class EdbError(ValueError):
    """Raised for malformed stores or invalid relation operations."""


def _encode_term(term: Term) -> object:
    """A JSON-serializable encoding of a ground term.

    ``[0, n]`` for integer constants, ``[1, s]`` for symbolic
    constants, ``[2, functor, [args...]]`` for compounds.  The encoding
    is injective, so the ``terms`` table can UNIQUE-constrain it.
    """
    if isinstance(term, Constant):
        if isinstance(term.value, int):
            return [0, term.value]
        return [1, term.value]
    if isinstance(term, Compound):
        return [2, term.functor, [_encode_term(a) for a in term.args]]
    raise EdbError(f"only ground terms can be stored, got {term!r}")


def _decode_term(payload: object) -> Term:
    tag = payload[0]  # type: ignore[index]
    if tag == 0 or tag == 1:
        return Constant(payload[1])  # type: ignore[index]
    if tag == 2:
        return Compound(
            payload[1],  # type: ignore[index]
            tuple(_decode_term(a) for a in payload[2]),  # type: ignore[index]
        )
    raise EdbError(f"corrupt term encoding {payload!r}")


def _table(name: str) -> str:
    if not name.isidentifier():
        raise EdbError(f"invalid relation name {name!r}")
    return f"rel_{name}"


class EdbStore:
    """One SQLite file holding extensional relations as id columns.

    Args:
        path: the database file (``":memory:"`` works for tests).
        object_name: the knowledge-base object the facts belong to;
            recorded in the file on creation, read back on open.
    """

    def __init__(self, path: str, object_name: Optional[str] = None) -> None:
        self.path = path
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        #: tid -> decoded Term, and its inverse, filled lazily on reads.
        self._terms: dict[int, Term] = {}
        self._tids: dict[Term, int] = {}
        self._arities: dict[str, int] = {}
        self._schema = MappingProxyType(self._arities)
        #: name -> row count, filled by the first :meth:`count` of a
        #: relation and dropped for it by :meth:`bulk_load`.
        self._counts: dict[str, int] = {}
        self._init_schema(object_name)

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def _init_schema(self, object_name: Optional[str]) -> None:
        cur = self._conn.cursor()
        cur.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        cur.execute(
            "CREATE TABLE IF NOT EXISTS terms "
            "(tid INTEGER PRIMARY KEY, text TEXT UNIQUE NOT NULL)"
        )
        cur.execute(
            "CREATE TABLE IF NOT EXISTS relations "
            "(name TEXT PRIMARY KEY, arity INTEGER NOT NULL)"
        )
        stored = self._meta("format")
        if stored is None:
            self._set_meta("format", FORMAT)
        elif stored != FORMAT:
            raise EdbError(
                f"unsupported EDB format {stored!r} in {self.path}"
            )
        if object_name is not None:
            self._set_meta("object", object_name)
        elif self._meta("object") is None:
            self._set_meta("object", "edb")
        for name, arity in cur.execute("SELECT name, arity FROM relations"):
            self._arities[name] = arity
        self._conn.commit()

    def _meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    def _set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (key, value),
        )

    @property
    def object_name(self) -> str:
        """The knowledge-base object this store's facts belong to."""
        return self._meta("object") or "edb"

    # ------------------------------------------------------------------
    # Writing (load time; the server never writes here)
    # ------------------------------------------------------------------
    def _tid(self, term: Term, cur: sqlite3.Cursor) -> int:
        tid = self._tids.get(term)
        if tid is not None:
            return tid
        text = json.dumps(_encode_term(term), separators=(",", ":"))
        row = cur.execute(
            "SELECT tid FROM terms WHERE text = ?", (text,)
        ).fetchone()
        if row is None:
            cur.execute("INSERT INTO terms (text) VALUES (?)", (text,))
            tid = cur.lastrowid
        else:
            tid = row[0]
        self._tids[term] = tid
        self._terms[tid] = term
        return tid

    def bulk_load(
        self, name: str, arity: int, rows: Iterable[Sequence[Term]]
    ) -> int:
        """Create (or extend) one relation with ground rows; returns the
        number of rows inserted.  One transaction, duplicate rows are
        collapsed by the table's primary key."""
        if arity < 0:
            raise EdbError("arity must be non-negative")
        known = self._arities.get(name)
        if known is not None and known != arity:
            raise EdbError(
                f"relation {name!r} has arity {known}, not {arity}"
            )
        table = _table(name)
        cur = self._conn.cursor()
        if known is None:
            cols = ", ".join(f"c{i} INTEGER NOT NULL" for i in range(arity))
            key = ", ".join(f"c{i}" for i in range(arity))
            if arity:
                cur.execute(
                    f"CREATE TABLE IF NOT EXISTS {table} "
                    f"({cols}, PRIMARY KEY ({key})) WITHOUT ROWID"
                )
                for i in range(arity):
                    cur.execute(
                        f"CREATE INDEX IF NOT EXISTS idx_{table}_c{i} "
                        f"ON {table} (c{i})"
                    )
            else:
                cur.execute(
                    f"CREATE TABLE IF NOT EXISTS {table} "
                    "(present INTEGER PRIMARY KEY)"
                )
            cur.execute(
                "INSERT OR REPLACE INTO relations (name, arity) VALUES (?, ?)",
                (name, arity),
            )
            self._arities[name] = arity
        inserted = 0
        if arity:
            marks = ", ".join("?" for _ in range(arity))
            sql = f"INSERT OR IGNORE INTO {table} VALUES ({marks})"
            encoded = []
            for row in rows:
                if len(row) != arity:
                    raise EdbError(
                        f"row {tuple(map(str, row))} does not match "
                        f"arity {arity} of {name!r}"
                    )
                encoded.append(tuple(self._tid(t, cur) for t in row))
            cur.executemany(sql, encoded)
            inserted += max(cur.rowcount, 0)
        else:
            for _ in rows:
                cur.execute(f"INSERT OR IGNORE INTO {table} VALUES (1)")
                inserted += cur.rowcount
        self._conn.commit()
        self._counts.pop(name, None)
        return inserted

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._arities))

    def schema(self) -> Mapping[str, int]:
        """``name -> arity`` of every relation: a read-only view that
        follows :meth:`bulk_load`."""
        return self._schema

    def arity(self, name: str) -> Optional[int]:
        """The relation's arity, or None when the store has no such
        relation."""
        return self._arities.get(name)

    def count(self, name: str) -> int:
        """Rows in one relation (0 when unknown): one ``COUNT(*)`` scan
        per relation per load, answered from memory afterwards."""
        if name not in self._arities:
            return 0
        count = self._counts.get(name)
        if count is None:
            count = self._counts[name] = self._conn.execute(
                f"SELECT COUNT(*) FROM {_table(name)}"
            ).fetchone()[0]
        return count

    def _term(self, tid: int) -> Term:
        term = self._terms.get(tid)
        if term is None:
            row = self._conn.execute(
                "SELECT text FROM terms WHERE tid = ?", (tid,)
            ).fetchone()
            if row is None:
                raise EdbError(f"dangling term id {tid} in {self.path}")
            term = _decode_term(json.loads(row[0]))
            self._terms[tid] = term
            self._tids[term] = tid
        return term

    def fetch(
        self, name: str, pattern: Sequence[Optional[Term]]
    ) -> Iterator[tuple[Term, ...]]:
        """Rows of one relation matching a positional pattern.

        ``pattern`` holds one entry per column: a ground term constrains
        the column, None leaves it free.  Only the constrained columns
        are touched (per-column indexes); this is the only read the
        demand evaluator issues.
        """
        arity = self._arities.get(name)
        if arity is None or len(pattern) != arity:
            return
        if arity == 0:
            if self._conn.execute(
                f"SELECT 1 FROM {_table(name)} LIMIT 1"
            ).fetchone():
                yield ()
            return
        where = []
        params: list[int] = []
        for i, term in enumerate(pattern):
            if term is None:
                continue
            tid = self._tids.get(term)
            if tid is None:
                text = json.dumps(_encode_term(term), separators=(",", ":"))
                row = self._conn.execute(
                    "SELECT tid FROM terms WHERE text = ?", (text,)
                ).fetchone()
                if row is None:
                    return  # the constant never occurs: no rows
                tid = row[0]
                self._tids[term] = tid
                self._terms[tid] = term
            where.append(f"c{i} = ?")
            params.append(tid)
        sql = f"SELECT * FROM {_table(name)}"
        if where:
            sql += " WHERE " + " AND ".join(where)
        for row in self._conn.execute(sql, params):
            yield tuple(self._term(tid) for tid in row)

    def sample(self, name: str, limit: int = 32) -> list[tuple[Term, ...]]:
        """Up to ``limit`` rows, for sort inference in the abstract
        analyzer — never used for answering queries."""
        arity = self._arities.get(name)
        if arity is None:
            return []
        if arity == 0:
            return [()] if self.count(name) else []
        rows = self._conn.execute(
            f"SELECT * FROM {_table(name)} LIMIT ?", (limit,)
        ).fetchall()
        return [tuple(self._term(tid) for tid in row) for row in rows]

    def facts(self) -> Iterator[Rule]:
        """Every stored tuple as a ground fact rule, relation by
        relation — the shape :meth:`KnowledgeBase.tell` takes.
        **Expensive** for large stores (full scan); materialization-time
        only."""
        for name in self.names():
            arity = self._arities[name]
            for row in self.fetch(name, (None,) * arity):
                yield Rule(Literal(Atom(name, row), True))

    def total_facts(self) -> int:
        return sum(self.count(name) for name in self._arities)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "EdbStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return (
            f"EdbStore({self.path!r}, object={self.object_name!r}, "
            f"relations={len(self._arities)})"
        )
