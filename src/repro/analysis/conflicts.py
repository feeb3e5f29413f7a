"""Conflict analysis: where can overruling and defeating happen?

For a grounded component view, every pair of rules with complementary
heads is a potential conflict; its *kind* is the one Definition 2
gives it, read off the threat lists of the view's
:class:`~repro.core.compiled.index.CompiledRuleIndex` (where
:meth:`~repro.core.statuses.ComponentOrder.threat` decided it):

* the lower rule can **overrule** the upper one when their components
  are strictly ordered;
* the two rules **defeat** each other when their components are equal
  or incomparable.

The conflict graph explains a program's non-monotone structure before
any interpretation is chosen; the CLI's ``explain`` output uses it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core.compiled.index import CompiledRuleIndex
from ..core.semantics import OrderedSemantics
from ..core.statuses import ComponentOrder
from ..grounding.grounder import GroundRule

__all__ = ["ConflictKind", "Conflict", "find_conflicts", "conflict_summary"]


class ConflictKind(enum.Enum):
    #: ``winner``'s component is strictly below ``loser``'s.
    OVERRULE = "overrule"
    #: The components are equal or incomparable: mutual defeat.
    DEFEAT = "defeat"


@dataclass(frozen=True)
class Conflict:
    """One potential conflict between two complementary-headed rules.

    For ``OVERRULE``, ``first`` is the potential winner (the more
    specific rule); for ``DEFEAT`` the roles are symmetric.
    """

    kind: ConflictKind
    first: GroundRule
    second: GroundRule

    def __str__(self) -> str:
        arrow = "overrules" if self.kind is ConflictKind.OVERRULE else "defeats"
        return f"{self.first}  {arrow}  {self.second}"


def find_conflicts(
    rules: Iterable[GroundRule], order: ComponentOrder
) -> Iterator[Conflict]:
    """All potential conflicts among the given ground rules.

    Emits each OVERRULE pair once (winner first) and each DEFEAT pair
    once (deterministic order).
    """
    return _conflicts(CompiledRuleIndex(rules, order))


def _conflicts(index: CompiledRuleIndex) -> Iterator[Conflict]:
    """The conflicts of ``index``'s rules, threatened rule by rule."""
    rule = index.rules.rule
    for i in range(index.n_rules):
        for j, overrules in index.threats_of(i):
            if overrules:
                yield Conflict(ConflictKind.OVERRULE, rule(j), rule(i))
            elif j < i:  # defeat is mutual: i is j's defeater too
                yield Conflict(ConflictKind.DEFEAT, *sorted((rule(j), rule(i)), key=str))


def conflict_summary(semantics: OrderedSemantics) -> dict[str, int]:
    """Counts of each conflict kind for a component view, over its full
    instantiation's cached index."""
    counts = {kind.value: 0 for kind in ConflictKind}
    for conflict in _conflicts(semantics.full_evaluator.index):
        counts[conflict.kind.value] += 1
    return counts
