"""Query answering over ordered semantics.

Three entailment modes, all standard for partial-model semantics:

* **cautious** — true in the least model ``V↑ω(∅)`` (the paper's
  assumption-free core: nothing in it depends on any assumption);
* **skeptical** — true in every stable model;
* **credulous** — true in some stable model.

Queries are literal *patterns*: ``fly(X)`` asks for every binding of
``X`` that makes the literal entailed.  Answers carry the matched ground
literal and the substitution that produced it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from ..core.interpretation import Interpretation
from ..core.semantics import OrderedSemantics
from ..core.transform import DEMAND_STRATEGY
from ..grounding.substitution import Substitution, match_atom
from ..lang.errors import QueryError
from ..lang.literals import Literal
from ..lang.parser import parse_literal

__all__ = ["QueryMode", "Answer", "evaluate_query", "answers_in"]


class QueryMode(enum.Enum):
    CAUTIOUS = "cautious"
    SKEPTICAL = "skeptical"
    CREDULOUS = "credulous"


@dataclass(frozen=True)
class Answer:
    """One query answer: the entailed ground literal and the bindings."""

    literal: Literal
    bindings: Substitution

    def __str__(self) -> str:
        return f"{self.literal}  {self.bindings}"


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
    the lock-free read path of the query server evaluates patterns
    against published snapshot models through this function, without
    touching an :class:`OrderedSemantics`.
    """
    if isinstance(pattern, str):
        pattern = parse_literal(pattern)
    answers = [Answer(lit, bindings) for lit, bindings in _matches(interp, pattern)]
    return sorted(answers, key=lambda a: str(a.literal))


def evaluate_query(
    semantics: OrderedSemantics,
    pattern: Union[Literal, str],
    mode: Union[QueryMode, str] = QueryMode.CAUTIOUS,
    sources: Sequence = (),
) -> list[Answer]:
    """All answers to a literal pattern under the given mode.

    For cautious mode, answers are matches in the least model.  For
    skeptical mode, matches true in *every* stable model; for credulous
    mode, matches true in *some* stable model.

    Under ``strategy="demand"``, cautious queries are answered
    goal-directed through :func:`repro.query.demand_answers` (with
    ``sources`` as extra extensional fact sources) whenever the view is
    eligible; anything else falls back to the materialized path below.
    """
    if isinstance(pattern, str):
        pattern = parse_literal(pattern)
    if isinstance(mode, str):
        try:
            mode = QueryMode(mode)
        except ValueError:
            raise QueryError(
                f"unknown query mode {mode!r}; "
                f"use one of {[m.value for m in QueryMode]}"
            ) from None
    if semantics.strategy == DEMAND_STRATEGY:
        from ..query import demand_read  # deferred: repro.query imports us

        answers = demand_read(
            semantics.demand_routes,
            semantics.program,
            semantics.component,
            pattern,
            mode.value,
            tuple(sources),
        )
        if answers is not None:
            return answers
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
    return sorted(answers, key=lambda a: str(a.literal))


def _matches(
    interp: Interpretation, pattern: Literal
) -> Iterator[tuple[Literal, Substitution]]:
    for literal in interp:
        if literal.positive != pattern.positive:
            continue
        bindings = match_atom(pattern.atom, literal.atom)
        if bindings is not None:
            yield literal, bindings
