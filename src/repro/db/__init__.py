"""The deductive-database substrate: the disk-backed :class:`EdbStore`
(Example 6's "parent is defined through a database relation").  A
container only — rules are evaluated over it by :mod:`repro.query`
(goal-directed) or, once attached to a knowledge base, by the ordered
semantics itself.  In-memory facts are told to a
:class:`~repro.kb.KnowledgeBase` object directly."""

from .edb import EdbError, EdbStore

__all__ = ["EdbError", "EdbStore"]
