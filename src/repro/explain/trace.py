"""Derivation traces: why is a literal (not) in the least model?

The ``V_{P,C}`` fixpoint has a natural notion of proof: a literal enters
at the first stage where some rule for it is applicable and neither
overruled nor defeated.  Recording that rule per literal yields a
well-founded derivation tree (premise stages strictly decrease).

For literals *outside* the least model the explainer reports, per rule
with that head, exactly which Definition-2 condition failed: an unmet
body literal, a blocking literal, the overruling rule, or the defeating
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..core.interpretation import Interpretation, TruthValue
from ..core.semantics import OrderedSemantics
from ..grounding.grounder import GroundRule
from ..lang.literals import Literal
from ..lang.parser import parse_literal

__all__ = ["Derivation", "RuleFailure", "NonDerivation", "Explainer"]


@dataclass(frozen=True)
class Derivation:
    """A proof tree node: ``literal`` derived by ``rule`` at ``stage``
    from the premises (one per body literal)."""

    literal: Literal
    rule: GroundRule
    stage: int
    premises: tuple["Derivation", ...]

    def render(self, indent: str = "") -> str:
        lines = [f"{indent}{self.literal}  [stage {self.stage}]  via  {self.rule}"]
        for premise in self.premises:
            lines.append(premise.render(indent + "  "))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class RuleFailure:
    """Why one candidate rule did not establish the literal.

    ``reason`` is one of ``"unmet-body"``, ``"blocked"``, ``"overruled"``
    or ``"defeated"``; ``witness`` is the body literal (for the first
    two) or the opposing rule (for the last two).
    """

    rule: GroundRule
    reason: str
    witness: Union[Literal, GroundRule, None]

    def __str__(self) -> str:
        if self.reason == "unmet-body":
            return f"{self.rule}  — body literal {self.witness} is not established"
        if self.reason == "blocked":
            return f"{self.rule}  — blocked: {self.witness} holds"
        if self.reason == "overruled":
            return f"{self.rule}  — overruled by  {self.witness}"
        if self.reason == "defeated":
            return f"{self.rule}  — defeated by  {self.witness}"
        return f"{self.rule}  — {self.reason}"


@dataclass(frozen=True)
class NonDerivation:
    """Why a literal is not in the least model."""

    literal: Literal
    value: TruthValue
    failures: tuple[RuleFailure, ...]
    #: Set when the complement is derived — the strongest explanation.
    complement_derivation: Optional[Derivation] = None

    def render(self) -> str:
        lines = [f"{self.literal} is {self.value} in the least model"]
        if self.complement_derivation is not None:
            lines.append("its complement is derived:")
            lines.append(self.complement_derivation.render("  "))
        if not self.failures and self.complement_derivation is None:
            lines.append("  no ground rule has this head")
        for failure in self.failures:
            lines.append(f"  {failure}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class Explainer:
    """Builds derivations against a component's least model."""

    def __init__(self, semantics: OrderedSemantics) -> None:
        self._sem = semantics
        self._support: dict[Literal, tuple[GroundRule, int]] = {}
        self._replay_fixpoint()

    # ------------------------------------------------------------------
    # Fixpoint replay
    # ------------------------------------------------------------------
    def _replay_fixpoint(self) -> None:
        """Re-run the V iteration, recording the first supporting rule
        and stage for every derived literal."""
        sem = self._sem
        ev = sem.evaluator
        current = Interpretation((), sem.ground.base)
        stage = 0
        while True:
            stage += 1
            nxt = sem.transform.step(current)
            new_literals = nxt.literals - current.literals
            if not new_literals:
                break
            for literal in new_literals:
                for r in ev.rules_with_head(literal):
                    if (
                        ev.applicable(r, current)
                        and not ev.overruled(r, current)
                        and not ev.defeated(r, current)
                    ):
                        self._support[literal] = (r, stage)
                        break
            current = nxt

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def _coerce(self, literal: Union[Literal, str]) -> Literal:
        if isinstance(literal, str):
            return parse_literal(literal)
        return literal

    def why(self, literal: Union[Literal, str]) -> Derivation:
        """The derivation tree of a literal of the least model.

        Raises:
            ValueError: if the literal is not in the least model (use
                :meth:`why_not`).
        """
        literal = self._coerce(literal)
        if literal not in self._support:
            raise ValueError(
                f"{literal} is not in the least model; use why_not()"
            )
        return self._build(literal)

    def _build(self, literal: Literal) -> Derivation:
        rule, stage = self._support[literal]
        premises = tuple(
            self._build(body_literal) for body_literal in sorted(rule.body)
        )
        return Derivation(literal, rule, stage, premises)

    def why_not(self, literal: Union[Literal, str]) -> NonDerivation:
        """Per-rule failure analysis for a literal outside the least
        model."""
        literal = self._coerce(literal)
        sem = self._sem
        model = sem.least_model
        value = model.value(literal)
        if value is TruthValue.TRUE:
            raise ValueError(f"{literal} holds; use why()")
        complement = None
        if value is TruthValue.FALSE:
            complement = self.why(literal.complement())
        failures = []
        # Every instance, not just the ones the least model needed: a
        # rule that never fired is exactly what is being asked about.
        for r in sem.full_evaluator.rules_with_head(literal):
            failures.append(self._diagnose(r, model))
        return NonDerivation(literal, value, tuple(failures), complement)

    def _diagnose(self, r: GroundRule, model: Interpretation) -> RuleFailure:
        ev = self._sem.full_evaluator
        for body_literal in sorted(r.body):
            if body_literal.complement() in model:
                return RuleFailure(r, "blocked", body_literal.complement())
        for other in ev.contradictors(r):
            if ev.order.strictly_below(
                other.component, r.component
            ) and not ev.blocked(other, model):
                return RuleFailure(r, "overruled", other)
        for other in ev.contradictors(r):
            if ev.order.incomparable_or_equal(
                other.component, r.component
            ) and not ev.blocked(other, model):
                return RuleFailure(r, "defeated", other)
        for body_literal in sorted(r.body):
            if body_literal not in model:
                return RuleFailure(r, "unmet-body", body_literal)
        return RuleFailure(r, "not fired (no failing condition found)", None)

    def explain(self, literal: Union[Literal, str]) -> str:
        """A human-readable explanation, whichever way it goes."""
        literal = self._coerce(literal)
        if self._sem.least_model.value(literal) is TruthValue.TRUE:
            return self.why(literal).render()
        return self.why_not(literal).render()
