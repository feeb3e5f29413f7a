"""3-valued models of seminegative programs (Section 3, following [P3]).

Let ``C`` be a seminegative ground program and ``I`` an interpretation.
``I`` is a **3-valued model** for ``C`` when every rule ``r`` satisfies
``value(H(r)) >= value(B(r))`` where the value of a body is the minimum
of its literal values (``T`` for the empty body) and ``F < U < T``.

Total 3-valued models make every rule true in the classical sense, and
every exhaustive 3-valued model of a seminegative program is total
(Section 3).
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Optional

from ..core.interpretation import Interpretation, TruthValue
from ..core.solver import SearchBudget, interpretations
from ..grounding.grounder import GroundRule
from ..lang.literals import Atom
from .common import base_of, require_seminegative

__all__ = [
    "is_three_valued_model",
    "three_valued_models",
    "minimal_three_valued_models",
]

#: Refuse brute-force enumeration beyond 14 atoms (3^14 candidates).
_BUDGET = SearchBudget(max_leaves=3**14)


def is_three_valued_model(
    rules: Iterable[GroundRule], interp: Interpretation
) -> bool:
    """``value(H(r)) >= value(B(r))`` for every ground rule."""
    for r in rules:
        head_value = interp.value(r.head)
        if head_value is TruthValue.TRUE:
            continue
        if head_value < interp.conjunction_value(r.body):
            return False
    return True


def three_valued_models(
    rules: Iterable[GroundRule],
    base: Optional[AbstractSet[Atom]] = None,
) -> list[Interpretation]:
    """All 3-valued models over the base (brute force; small programs)."""
    rules = tuple(rules)
    require_seminegative(rules)
    full_base = frozenset(base) if base is not None else base_of(rules)
    return [
        interp
        for interp in interpretations(full_base, _BUDGET)
        if is_three_valued_model(rules, interp)
    ]


def minimal_three_valued_models(
    rules: Iterable[GroundRule],
    base: Optional[AbstractSet[Atom]] = None,
) -> list[Interpretation]:
    """The 3-valued models minimal under literal-set inclusion."""
    models = three_valued_models(rules, base)
    literal_sets = [m.literals for m in models]
    return [
        m
        for m in models
        if not any(other < m.literals for other in literal_sets)
    ]
