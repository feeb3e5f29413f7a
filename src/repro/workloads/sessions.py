"""The ``interactive_session`` workload: a stream of tell/ask/retract
operations against a deep isa hierarchy.

Section 5 of the paper pitches ordered logic as the kernel of an
interactive knowledge base system; the implemented descendants of that
line (DLV:sup:`<`, OLP solvers) treat programs as long-lived artifacts
queried and *updated* repeatedly.  This module generates that workload
shape for the incremental-maintenance engine (docs/maintenance.md):

* :func:`session_program` — a membership registry over a deep isa
  chain.  The root holds the defaults (members are ok and not flagged;
  nothing is enrolled or suspicious unless said so — the paper's
  situation (i) closure assumptions as explicit default rules); each
  level ``level<j>`` below turns its local ``enrolled_<j>``/``sus_<j>``
  facts into membership and flags.  Telling ``enrolled_<j>(e)`` at
  ``level<j>`` *overrules* the root's closure default (the fact sits in
  a strictly lower component), which unblocks the membership rule;
  retracting it *un-overrules* the default, silently restoring the
  closed-world reading — the exact status dance the maintenance engine
  must re-evaluate.
* :func:`session_ops` — a deterministic, seeded stream of
  tell/ask/retract operations against the bottom view.
* :func:`build_session_kb` / :func:`run_session` — a ready-to-drive
  :class:`~repro.kb.knowledge_base.KnowledgeBase` and the driver
  ``tests/core/test_maintenance.py`` uses to count the delta path's
  work against a cold recompute after each write (the test drops
  every cached view with ``kb.rewind(kb.program())``).

Every entity constant is pre-declared at the root via ``known`` facts,
so session tells stay inside the grounded Herbrand base and the delta
engine never needs to fall back to re-grounding.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..kb.knowledge_base import KnowledgeBase
from ..lang.program import Component, OrderedProgram

__all__ = [
    "interactive_session",
    "session_program",
    "session_ops",
    "build_session_kb",
    "run_session",
]

#: One session operation: ``("tell"|"retract", object, fact)`` or
#: ``("ask", object, literal)``.
SessionOp = tuple[str, str, str]


def _entities(n_entities: int) -> list[str]:
    return [f"e{i}" for i in range(n_entities)]


def _root_rules(depth: int, n_entities: int) -> str:
    lines = [f"known({e})." for e in _entities(n_entities)]
    lines += [
        "ok(X) :- member(X).",
        "-flagged(X) :- member(X).",
        "-member(X) :- known(X).",
    ]
    for level in range(depth):
        lines.append(f"-enrolled_{level}(X) :- known(X).")
        lines.append(f"-sus_{level}(X) :- known(X).")
    return "\n".join(lines)


def _level_rules(level: int) -> str:
    return "\n".join(
        [
            f"member(X) :- enrolled_{level}(X).",
            f"flagged(X) :- sus_{level}(X).",
        ]
    )


def session_program(depth: int, n_entities: int) -> OrderedProgram:
    """The registry hierarchy as an immutable ordered program:
    ``level0 < level1 < ... < level<depth-1> < root``."""
    if depth < 1:
        raise ValueError("depth must be positive")
    if n_entities < 1:
        raise ValueError("n_entities must be positive")
    from ..lang.parser import parse_rules

    components = [Component("root", parse_rules(_root_rules(depth, n_entities)))]
    pairs = []
    for level in range(depth):
        components.append(
            Component(f"level{level}", parse_rules(_level_rules(level)))
        )
        above = "root" if level == depth - 1 else f"level{level + 1}"
        pairs.append((f"level{level}", above))
    return OrderedProgram(components, pairs)


def interactive_session(depth: int = 6, n_entities: int = 8) -> OrderedProgram:
    """Alias of :func:`session_program` under the workload's name."""
    return session_program(depth, n_entities)


def build_session_kb(depth: int, n_entities: int) -> KnowledgeBase:
    """The same hierarchy as a mutable knowledge base."""
    kb = KnowledgeBase()
    kb.define("root", _root_rules(depth, n_entities))
    below = "root"
    for level in reversed(range(depth)):
        kb.define(f"level{level}", _level_rules(level), isa=[below])
        below = f"level{level}"
    return kb


def session_ops(
    depth: int,
    n_entities: int,
    n_ops: int,
    seed: int = 0x5E55,
) -> list[SessionOp]:
    """A deterministic tell/ask/retract stream against the bottom view.

    The mix is roughly 40% tells, 20% retracts (of previously told
    facts) and 40% asks, which keeps a growing-but-churning fact set —
    the interactive-session shape.  Operations target random levels;
    asks query membership/flags at the most specific object ``level0``.
    """
    rng = random.Random(seed)
    entities = _entities(n_entities)
    told: list[tuple[str, str]] = []
    ops: list[SessionOp] = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.4 or (roll < 0.6 and not told):
            level = rng.randrange(depth)
            pred = rng.choice([f"enrolled_{level}", f"sus_{level}"])
            fact = f"{pred}({rng.choice(entities)})."
            ops.append(("tell", f"level{level}", fact))
            told.append((f"level{level}", fact))
        elif roll < 0.6:
            obj, fact = told.pop(rng.randrange(len(told)))
            ops.append(("retract", obj, fact))
        else:
            pred = rng.choice(["member", "ok", "flagged", "-member", "-flagged"])
            ops.append(("ask", "level0", f"{pred}({rng.choice(entities)})"))
    return ops


def run_session(kb: KnowledgeBase, ops: Sequence[SessionOp]) -> dict[str, int]:
    """Drive a knowledge base through a session; returns op counts plus
    the number of positive answers (a cheap checksum that delta and
    rebuild modes agree)."""
    counts = {"tell": 0, "retract": 0, "ask": 0, "yes": 0}
    for kind, obj, payload in ops:
        if kind == "tell":
            kb.tell(obj, payload)
        elif kind == "retract":
            kb.retract(obj, payload)
        else:
            if kb.ask(obj, payload):
                counts["yes"] += 1
        counts[kind] += 1
    return counts
