"""Derivation traces: why is a literal (not) in the least model?

The ``V_{P,C}`` fixpoint has a natural notion of proof: a literal enters
at the first stage where some rule for it is applicable and neither
overruled nor defeated.  The dense kernel records that rule per literal
as it fires it (``DenseFixpoint.support``), which yields a well-founded
derivation tree (premise stages strictly decrease).

For literals *outside* the least model the explainer reports, per rule
with that head, exactly which Definition-2 condition failed: an unmet
body literal, a blocking literal, the overruling rule, or the defeating
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..core.compiled.fixpoint import DenseFixpoint
from ..core.interpretation import Interpretation, TruthValue
from ..core.semantics import OrderedSemantics
from ..grounding.grounder import GroundRule
from ..lang.errors import SemanticsError
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
        lines = []
        stack = [(self, indent)]
        while stack:
            node, pad = stack.pop()
            lines.append(f"{pad}{node.literal}  [stage {node.stage}]  via  {node.rule}")
            stack += ((premise, pad + "  ") for premise in reversed(node.premises))
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
    """Builds derivations against a component's least model: one kernel
    run over the view's cached index records each literal's rule and
    stage, and :meth:`why` decodes only the tree it returns."""

    def __init__(self, semantics: OrderedSemantics) -> None:
        self._sem = semantics
        self._index = index = semantics.evaluator.index
        run = DenseFixpoint(index)
        run.run(2 * len(semantics.ground.base) + 2)
        self._support = run.support
        #: literal id -> the stage that derived it (the model's ids).
        self._stage = {h: k for k, ids in enumerate(run.stage_ids, 1) for h in ids}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def _coerce(self, literal: Union[Literal, str]) -> Literal:
        if isinstance(literal, str):
            literal = parse_literal(literal)
        if not literal.is_ground:
            raise SemanticsError(f"only ground literals can be explained, not {literal}")
        return literal

    def _derived_id(self, literal: Literal) -> Optional[int]:
        """The literal's id when the least model holds it, else None."""
        atom_id = self._index.table.id_of(literal.atom)
        h = None if atom_id is None else 2 * atom_id + literal.negative
        return h if h in self._stage else None

    def why(self, literal: Union[Literal, str]) -> Derivation:
        """The derivation tree of a literal of the least model.

        Raises:
            ValueError: if the literal is not in the least model (use
                :meth:`why_not`).
            SemanticsError: if the literal is not ground.
        """
        literal = self._coerce(literal)
        h = self._derived_id(literal)
        if h is None:
            raise ValueError(f"{literal} is not in the least model; use why_not()")
        return self._build(h)

    def _build(self, root: int) -> Derivation:
        """The derivation of literal id ``root``, built bottom-up with an
        explicit stack (a chain of ``V`` stages can be any depth); each
        literal id's node is built once, so shared premises share it."""
        index, support, stage = self._index, self._support, self._stage
        literal, start, body_ids = index.table.literal, index.body_start, index.body_ids
        components, origins = index.components, index.rules.origins
        built: dict[int, Derivation] = {}
        stack = [root]
        while stack:
            h = stack[-1]
            if h in built:
                stack.pop()
                continue
            i = support[h]
            body = body_ids[start[i] : start[i + 1]]
            pending = [b for b in body if b not in built]
            if pending:
                stack += pending
                continue
            stack.pop()
            premises = tuple(built[b] for b in sorted(body, key=literal))
            rule = GroundRule(literal(h), frozenset(map(literal, body)), components[i], origins[i])
            built[h] = Derivation(literal(h), rule, stage[h], premises)
        return built[root]

    def why_not(self, literal: Union[Literal, str]) -> NonDerivation:
        """Per-rule failure analysis for a literal outside the least
        model."""
        literal = self._coerce(literal)
        sem = self._sem
        model = sem.least_model
        value = model.value(literal)
        if value is TruthValue.TRUE:
            raise ValueError(f"{literal} holds; use why()")
        complement = self.why(literal.complement()) if value is TruthValue.FALSE else None
        # Every instance, not just the ones the least model needed: a
        # rule that never fired is exactly what is being asked about.
        heading = sem.full_evaluator.rules_with_head(literal)
        failures = tuple(self._diagnose(r, model) for r in heading)
        return NonDerivation(literal, value, failures, complement)

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
        if self._derived_id(literal) is not None:
            return self.why(literal).render()
        return self.why_not(literal).render()
