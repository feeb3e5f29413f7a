"""Conflict analysis: where can overruling and defeating happen?

For a grounded component view, every pair of rules with complementary
heads is a potential conflict; its *kind* is decided by the component
order exactly as Definition 2 does:

* the lower rule can **overrule** the upper one when their components
  are strictly ordered;
* the two rules **defeat** each other when their components are equal
  or incomparable.

The conflict graph explains a program's non-monotone structure before
any interpretation is chosen; the CLI's ``explain`` output and the
hierarchy benchmarks use it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core.semantics import OrderedSemantics
from ..core.statuses import ComponentOrder
from ..grounding.grounder import GroundRule
from ..lang.literals import Literal

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
    by_head: dict[Literal, list[GroundRule]] = {}
    for r in rules:
        by_head.setdefault(r.head, []).append(r)
    seen_defeats: set[tuple[GroundRule, GroundRule]] = set()
    for head, with_head in sorted(by_head.items(), key=lambda kv: str(kv[0])):
        opponents = by_head.get(head.complement(), ())
        for mine in with_head:
            for theirs in opponents:
                if order.strictly_below(mine.component, theirs.component):
                    yield Conflict(ConflictKind.OVERRULE, mine, theirs)
                elif order.incomparable_or_equal(mine.component, theirs.component):
                    key = tuple(sorted((mine, theirs), key=str))
                    if key not in seen_defeats:
                        seen_defeats.add(key)
                        yield Conflict(ConflictKind.DEFEAT, key[0], key[1])


def conflict_summary(semantics: OrderedSemantics) -> dict[str, int]:
    """Counts of each conflict kind for a component view."""
    counts = {kind.value: 0 for kind in ConflictKind}
    for conflict in find_conflicts(
        semantics.full_ground.rules, semantics.full_evaluator.order
    ):
        counts[conflict.kind.value] += 1
    return counts
