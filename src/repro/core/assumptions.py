"""Assumption sets and assumption-free models — Definitions 6–8,
Lemma 2 and Theorem 1(a).

A non-empty ``X ⊆ I`` is an **assumption set** w.r.t. ``I`` when for each
``A ∈ X``, every rule ``r ∈ ground(C*)`` with ``H(r) = A`` is

(a) non-applicable, or (b) overruled, or (c) defeated, or
(d) has ``B(r) ∩ X ≠ ∅``.

Members of an assumption set only support each other — nothing grounds
them in the rules.  A model is **assumption-free** when it includes no
assumption set.

Assumption sets are closed under union (each condition is per-literal,
and (d) is monotone in ``X``), so a *greatest* assumption set exists and
is computed here by a shrinking iteration; the model is assumption-free
iff that set is empty.  Independently, Theorem 1(a) characterises
assumption-free models via the **enabled version** ``C^M`` (the applied
rules, Definition 8): ``M`` is assumption-free iff the least fixpoint of
the immediate-consequence transformation over ``C^M`` equals ``M``.
Both routes are implemented; the test-suite cross-checks them.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from ..grounding.grounder import GroundRule
from ..lang.literals import Literal
from .interpretation import Interpretation
from .statuses import StatusEvaluator

__all__ = ["AssumptionAnalyzer", "literal_closure"]


def literal_closure(
    rules: Iterable[GroundRule], seed: AbstractSet[Literal] = frozenset()
) -> frozenset[Literal]:
    """Least fixpoint of the immediate-consequence transformation ``T``
    over ground rules, treating literals atomically (Definition 8 applies
    ``T`` to the enabled version, where no contradictions can arise).

    Semi-naive evaluation: only rules whose bodies gained a new literal
    are re-fired.
    """
    rules = tuple(rules)
    derived: set[Literal] = set(seed)
    # Index rules by body literal so new facts wake only relevant rules.
    waiting: dict[Literal, list[GroundRule]] = {}
    no_body: list[GroundRule] = []
    for r in rules:
        if r.body:
            for l in r.body:
                waiting.setdefault(l, []).append(r)
        else:
            no_body.append(r)
    frontier: list[Literal] = []
    for r in no_body:
        if r.head not in derived:
            derived.add(r.head)
            frontier.append(r.head)
    frontier.extend(seed)
    while frontier:
        current = frontier.pop()
        for r in waiting.get(current, ()):
            if r.head in derived:
                continue
            if all(l in derived for l in r.body):
                derived.add(r.head)
                frontier.append(r.head)
    return frozenset(derived)


class AssumptionAnalyzer:
    """Assumption-set machinery over a fixed evaluator."""

    def __init__(self, evaluator: StatusEvaluator, base) -> None:
        self._eval = evaluator
        self._base = frozenset(base)

    # ------------------------------------------------------------------
    # Definition 6
    # ------------------------------------------------------------------
    def is_assumption_set(
        self, candidate: AbstractSet[Literal], interp: Interpretation
    ) -> bool:
        """Direct Definition-6 check of one candidate set."""
        if not candidate:
            return False
        if not frozenset(candidate) <= interp.literals:
            return False
        ev = self._eval
        for literal in candidate:
            for r in ev.rules_with_head(literal):
                if not ev.applicable(r, interp):
                    continue
                if ev.overruled(r, interp):
                    continue
                if ev.defeated(r, interp):
                    continue
                if r.body & frozenset(candidate):
                    continue
                return False
        return True

    def greatest_assumption_set(self, interp: Interpretation) -> frozenset[Literal]:
        """The union of all assumption sets w.r.t. ``I`` (possibly empty).

        Shrinking iteration from ``X = I``: remove ``A`` whenever some
        rule with head ``A`` is applied-able (applicable, not overruled,
        not defeated) and draws no body support from ``X``.
        """
        ev = self._eval
        snapshot = ev.snapshot(interp)
        # Pre-compute, per member literal, the rules that ground it.
        grounding_rules: dict[Literal, list[frozenset[Literal]]] = {}
        for literal in interp:
            bodies = []
            for r in ev.rules_with_head(literal):
                if not snapshot.applicable(r):
                    continue
                if snapshot.overruled(r) or snapshot.defeated(r):
                    continue
                bodies.append(r.body)
            grounding_rules[literal] = bodies
        current: set[Literal] = set(interp.literals)
        changed = True
        while changed:
            changed = False
            for literal in list(current):
                for body in grounding_rules[literal]:
                    if not (body & current):
                        current.discard(literal)
                        changed = True
                        break
        return frozenset(current)

    # ------------------------------------------------------------------
    # Definition 7
    # ------------------------------------------------------------------
    def is_assumption_free(self, interp: Interpretation) -> bool:
        """No subset of ``I`` is an assumption set w.r.t. ``I``."""
        return not self.greatest_assumption_set(interp)

    # ------------------------------------------------------------------
    # Definition 8 / Theorem 1(a)
    # ------------------------------------------------------------------
    def enabled_version(self, interp: Interpretation) -> tuple[GroundRule, ...]:
        """``C^M``: the applied, effective rules of ``ground(C*)``.

        Definition 8 says "all applied rules", but the Theorem 1(a)
        proof sketch immediately asserts that "no rule in C^M is
        non-applicable, overruled or defeated" — which is false for
        applied rules in general (an applied CWA fact can be overruled
        by a non-blocked more-specific rule, as in the ``3V`` reduction
        of ``{a., -a :- -a.}`` at ``{-a}``).  Reading the enabled
        version as the applied rules that are *neither overruled nor
        defeated* makes Theorem 1(a) hold — verified against the
        independent Definition-6 route by the oracle matrix's Theorem
        1(a) column.
        """
        snapshot = self._eval.snapshot(interp)
        return tuple(
            r
            for r in self._eval.rules
            if snapshot.applied(r)
            and not snapshot.overruled(r)
            and not snapshot.defeated(r)
        )

    def t_least_fixpoint(self, interp: Interpretation) -> frozenset[Literal]:
        """``T↑ω_{C^M}(∅)`` over the enabled version (Lemma 2)."""
        return literal_closure(self.enabled_version(interp))

    def is_assumption_free_via_theorem1(self, interp: Interpretation) -> bool:
        """Theorem 1(a): for a *model* M, assumption-freeness is
        equivalent to ``T↑ω_{C^M}(∅) = M``.  (For non-models the two
        notions may diverge; callers should check modelhood first.)"""
        return self.t_least_fixpoint(interp) == interp.literals
