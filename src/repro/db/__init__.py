"""The deductive-database substrate: relations, an in-memory
extensional database, and the disk-backed :class:`EdbStore` (Example 6's
"parent is defined through a database relation").  Containers only —
rules are evaluated over them by :mod:`repro.query` (goal-directed) or,
once told to a knowledge base, by the ordered semantics itself."""

from .database import Database
from .edb import EdbError, EdbStore
from .relation import Relation, RelationError

__all__ = [
    "Relation",
    "RelationError",
    "Database",
    "EdbError",
    "EdbStore",
]
