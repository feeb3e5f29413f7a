"""Linting ordered programs: find conclusions that can never fire.

The recurring pitfall of ordered logic (it bit Figure 3's loan program,
the taxonomy example and the policy KB during this reproduction — see
EXPERIMENTS.md §5): Definition 2's overrulers and defeaters need only be
*non-blocked*, and a rule whose body literals' complements head no rule
can **never** be blocked.  Such a rule permanently suppresses every
contradicting rule above (or beside) it, no matter whether its own body
is ever derivable.

The linter reports, per component view ("permanently" = in the least
model and in every assumption-free model; an arbitrary Definition-3
model may still contain a non-derivable blocker):

* ``permanently-overruled`` — a rule with a never-blockable overruler
  strictly below it: its head can never be derived in this view;
* ``permanently-defeated`` — the same with an incomparable-or-equal
  contradictor: the conclusion can never be decided either way;
* ``missing-closure`` — the usual fix: the body literals of the
  offending contradictor whose complements no rule derives (adding a
  closure rule for one of them unblocks the conclusion).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from ..core.semantics import OrderedSemantics
from ..grounding.grounder import GroundRule
from ..lang.literals import Literal
from ..lang.program import OrderedProgram

__all__ = ["LintWarning", "lint_component", "lint_program"]


@dataclass(frozen=True)
class LintWarning:
    """One finding: ``rule`` is suppressed by ``witness``; the
    ``unblockable`` literals are the witness's body literals whose
    complements nothing derives.  When the same rule is suppressed by
    several witnesses (or by the same witness in several nested views),
    the aggregated finding keeps one representative witness and counts
    the rest in ``extra_witnesses``."""

    kind: str  # "permanently-overruled" | "permanently-defeated"
    component: str
    rule: GroundRule
    witness: GroundRule
    unblockable: tuple[Literal, ...]
    extra_witnesses: int = 0

    def __str__(self) -> str:
        verb = (
            "overruled" if self.kind == "permanently-overruled" else "defeated"
        )
        fixes = ", ".join(str(l.complement()) for l in self.unblockable)
        text = (
            f"[{self.component}] {self.rule}\n"
            f"  is permanently {verb} by  {self.witness}\n"
            f"  (never blockable: no rule derives any of {fixes} — "
            "add a closure rule for one of them)"
        )
        if self.extra_witnesses:
            text += (
                f"\n  (+{self.extra_witnesses} more witness(es) suppress "
                "the same rule)"
            )
        return text


def _never_blockable(
    r: GroundRule, head_literals: frozenset[Literal]
) -> tuple[bool, tuple[Literal, ...]]:
    """A non-fact rule can never be blocked iff no body literal's
    complement is the head of any rule.  Returns the flag plus the body
    literals involved (for the fix hint).

    Facts are excluded on purpose: a contradicting *fact* in a lower or
    incomparable component is a deliberate assertion (Figure 1 overrides
    the ``-ground_animal`` default with the ``ground_animal(penguin)``
    fact; Figure 2's experts assert contradicting facts) — the lint
    targets rules whose *conditional* exception suppresses a conclusion
    even though the condition is closure-less and can never be settled.
    """
    if r.is_fact:
        return False, ()
    blockers = tuple(
        l for l in sorted(r.body) if l.complement() in head_literals
    )
    if blockers:
        return False, ()
    return True, tuple(sorted(r.body))


def lint_component(semantics: OrderedSemantics) -> Iterator[LintWarning]:
    """All findings for one component view."""
    # Every instance: "no rule derives it" is a claim about ground(C*).
    ev = semantics.full_evaluator
    head_literals = frozenset(r.head for r in semantics.full_ground.rules)
    for r in semantics.full_ground.rules:
        for other in ev.contradictors(r):
            never, body = _never_blockable(other, head_literals)
            if not never:
                continue
            if ev.order.strictly_below(other.component, r.component):
                yield LintWarning(
                    "permanently-overruled",
                    semantics.component,
                    r,
                    other,
                    body,
                )
            elif ev.order.incomparable_or_equal(other.component, r.component):
                yield LintWarning(
                    "permanently-defeated",
                    semantics.component,
                    r,
                    other,
                    body,
                )


def lint_program(
    program: OrderedProgram,
    aggregate: bool = True,
    component: Optional[str] = None,
    **semantics_kwargs,
) -> list[LintWarning]:
    """Findings across every component view (or just ``component``'s,
    mirroring ``olp run -c``).

    With ``aggregate`` (the default), findings are deduplicated per
    *suppressed source rule* — one representative per (kind, suppressed
    rule), since a single non-ground rule typically produces one finding
    per Herbrand instance and per witnessing contradictor, repeated in
    every nested component view that contains both rules.  The number of
    distinct extra witnesses is kept on
    :attr:`LintWarning.extra_witnesses`.
    """
    names = (
        [component] if component is not None
        else sorted(program.component_names)
    )
    seen: set[tuple] = set()
    findings: list[LintWarning] = []
    index: dict[tuple, int] = {}
    witnesses: dict[tuple, set[tuple]] = {}
    for name in names:
        sem = OrderedSemantics(program, name, **semantics_kwargs)
        for warning in lint_component(sem):
            witness_key = (
                warning.witness.component,
                warning.witness.origin or warning.witness,
            )
            if aggregate:
                key = (
                    warning.kind,
                    warning.rule.component,
                    warning.rule.origin or warning.rule,
                )
                witnesses.setdefault(key, set()).add(witness_key)
            else:
                key = (warning.kind, warning.rule, warning.witness)
            if key not in seen:
                seen.add(key)
                index[key] = len(findings)
                findings.append(warning)
    if aggregate:
        for key, extra in witnesses.items():
            if len(extra) > 1:
                at = index[key]
                findings[at] = replace(
                    findings[at], extra_witnesses=len(extra) - 1
                )
    return findings
