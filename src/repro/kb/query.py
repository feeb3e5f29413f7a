"""Query answering over ordered semantics.

Three entailment modes, all standard for partial-model semantics:

* **cautious** — true in the least model ``V↑ω(∅)`` (the paper's
  assumption-free core: nothing in it depends on any assumption);
* **skeptical** — true in every stable model;
* **credulous** — true in some stable model.

Queries are literal *patterns*: ``fly(X)`` asks for every binding of
``X`` that makes the literal entailed.  Answers carry the matched ground
literal and the substitution that produced it.

A model answers a pattern the way Section 2 defines truth — by
membership (:func:`_matches`): a ground pattern is one probe of the
member set, a non-ground one is matched against the members of its own
signed predicate only.  No read walks the whole model.

Which route answers a read — the materialized model here, or the
goal-directed demand rewrite of :mod:`repro.query` — is decided in one
place, :meth:`repro.kb.knowledge_base.KnowledgeBase.read`, under one of
the :data:`READ_STRATEGIES`.
"""

from __future__ import annotations

import enum
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from typing import Generator, Union

from ..core.interpretation import Interpretation
from ..core.semantics import OrderedSemantics
from ..grounding.substitution import Substitution, match_atom
from ..lang.errors import QueryError
from ..lang.literals import Literal
from ..lang.parser import parse_literal
from ..obs import record_costs
from ..obs.trace import current_trace

__all__ = [
    "QueryMode",
    "MODES",
    "AUTO_STRATEGY",
    "DEMAND_STRATEGY",
    "READ_STRATEGIES",
    "query_mode",
    "Answer",
    "goal",
    "evaluate_query",
    "answers_in",
    "holds_in",
]

#: Distinct goal texts :func:`goal` remembers (least recently used out
#: first): a serving process sees the same few hundred goal strings
#: over and over.
GOAL_MEMO_SIZE = 1024

#: Longest goal text worth remembering.  Goal text arrives from the
#: network; a remembered entry pins its key *and* its parse tree, so
#: the two constants together bound what the memo can hold.  Longer
#: text is parsed on every call.
GOAL_MEMO_MAX_CHARS = 256

_NO_BINDINGS = Substitution()


class QueryMode(enum.Enum):
    CAUTIOUS = "cautious"
    SKEPTICAL = "skeptical"
    CREDULOUS = "credulous"


#: The read modes by name, in :class:`QueryMode` order: the wire's
#: ``mode`` field, ``olp query --mode`` and the REPL's mode word.
MODES = tuple(mode.value for mode in QueryMode)

#: Read strategy: demand first for an unforced cautious ground read of a
#: view with no warm model or with an attached store, else materialize
#: (the default; docs/query.md).
AUTO_STRATEGY = "auto"

#: Read strategy: offer every read to the demand route first.
DEMAND_STRATEGY = "demand"

#: The read strategies a query may name (``KnowledgeBase.read`` and the
#: server protocol's per-request ``strategy`` field validate against
#: this one tuple).
READ_STRATEGIES = (AUTO_STRATEGY, DEMAND_STRATEGY)

#: Each read mode, keyed by itself and by its name.
_MODES = {key: mode for mode in QueryMode for key in (mode, mode.value)}


def query_mode(mode: Union[QueryMode, str]) -> QueryMode:
    """A read mode from its enum member or its name; anything else
    raises :class:`~repro.lang.errors.QueryError`."""
    try:
        return _MODES[mode]
    except (KeyError, TypeError):
        raise QueryError(
            f"unknown query mode {mode!r}; "
            f"use one of {[m.value for m in QueryMode]}"
        ) from None


@dataclass(frozen=True)
class Answer:
    """One query answer: the entailed ground literal and the bindings."""

    literal: Literal
    bindings: Substitution

    def __str__(self) -> str:
        return f"{self.literal}  {self.bindings}"


_parse_goal = lru_cache(maxsize=GOAL_MEMO_SIZE)(parse_literal)


def goal(pattern: Union[Literal, str]) -> Literal:
    """A literal pattern from a literal or its surface text.

    Text of up to :data:`GOAL_MEMO_MAX_CHARS` characters is parsed once
    per distinct string (the last :data:`GOAL_MEMO_SIZE` are
    remembered); malformed text raises
    :class:`~repro.lang.errors.ParseError` on every call.
    """
    if not isinstance(pattern, str):
        return pattern
    if len(pattern) > GOAL_MEMO_MAX_CHARS:
        return parse_literal(pattern)
    return _parse_goal(pattern)


def _entailed_sets(
    semantics: OrderedSemantics, mode: QueryMode
) -> list[Interpretation]:
    if mode is QueryMode.CAUTIOUS:
        return [semantics.least_model]
    stable = semantics.stable_models()
    if not stable:
        # A stable model always exists (the least model is assumption-free
        # and the AF family is finite), so this is defensive only.
        return [semantics.least_model]
    return stable


def answers_in(
    interp: Interpretation, pattern: Union[Literal, str]
) -> list[Answer]:
    """All matches of a literal pattern in one interpretation.

    This is cautious entailment against an already-materialized model —
    the query server's read path answers from published snapshot models
    through this function, without touching an
    :class:`OrderedSemantics` or the writer.  A ground pattern costs one
    membership probe whatever the model's size; a non-ground one costs
    a match per member of its signed predicate (the first such read of
    a model value also buckets that model once).  Answers come in
    ``str(literal)`` order.
    """
    return [Answer(l, bindings) for l, bindings in _matches(interp, goal(pattern))]


def holds_in(interp: Interpretation, pattern: Union[Literal, str]) -> bool:
    """Whether :func:`answers_in` would be non-empty — found by stopping
    at the first match instead of building every answer."""
    with closing(_matches(interp, goal(pattern))) as matches:
        return next(matches, None) is not None


def evaluate_query(
    semantics: OrderedSemantics,
    pattern: Union[Literal, str],
    mode: Union[QueryMode, str] = QueryMode.CAUTIOUS,
) -> list[Answer]:
    """All answers to a literal pattern under the given mode, from the
    models of one view.

    For cautious mode, answers are matches in the least model.  For
    skeptical mode, matches true in *every* stable model; for credulous
    mode, matches true in *some* stable model.
    """
    pattern = goal(pattern)
    mode = query_mode(mode)
    models = _entailed_sets(semantics, mode)
    candidates = _matches(models[0], pattern)
    answers = []
    for literal, bindings in candidates:
        if mode is QueryMode.SKEPTICAL:
            if not all(literal in m for m in models):
                continue
        answers.append(Answer(literal, bindings))
    if mode is QueryMode.CREDULOUS:
        seen = {a.literal for a in answers}
        for m in models[1:]:
            for literal, bindings in _matches(m, pattern):
                if literal not in seen:
                    seen.add(literal)
                    answers.append(Answer(literal, bindings))
        answers.sort(key=lambda a: str(a.literal))  # merge the per-model orders
    return answers


def _matches(
    interp: Interpretation, pattern: Literal
) -> Generator[tuple[Literal, Substitution], None, None]:
    """The members of a model a pattern matches, with the bindings, in
    ``str(literal)`` order.

    Records how the model was read — cost keys ``read_candidates`` /
    ``read_answers``, and root field ``read.probe`` of the active trace
    — when the iterator is exhausted or closed, so a caller that stops
    early is charged for what it looked at.
    """
    atom = pattern.atom
    tried = found = 0
    try:
        if atom.is_ground:
            probe, tried = "member", 1
            if pattern in interp:
                found = 1
                yield pattern, _NO_BINDINGS
        else:
            probe = "relation"
            for literal in interp.relation(
                atom.predicate, len(atom.args), pattern.positive
            ):
                tried += 1
                bindings = match_atom(atom, literal.atom)
                if bindings is not None:
                    found += 1
                    yield literal, bindings
    finally:
        record_costs(read_candidates=tried, read_answers=found)
        ctx = current_trace()
        if ctx is not None:
            ctx.annotate(route="materialized", **{"read.probe": probe})
