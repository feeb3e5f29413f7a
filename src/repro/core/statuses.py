"""Rule statuses — Definition 2 of the paper.

Given an interpretation ``I`` for ``P`` in component ``C``, a rule ``r``
in ``ground(C*)`` is

* **applicable** if ``B(r) ⊆ I``;
* **applied** if applicable and ``H(r) ∈ I``;
* **blocked** if some ``A ∈ B(r)`` has ``¬A ∈ I``;
* **overruled** if a *non-blocked* rule ``r̂`` with ``H(r̂) = ¬H(r)``
  exists in a component *strictly below* ``C(r)``;
* **defeated** if a *non-blocked* rule ``r̂`` with ``H(r̂) = ¬H(r)``
  exists in a component *incomparable to or equal to* ``C(r)``.

Definition 3(a) additionally asks whether a contradicting rule is
"overruled by an *applied* rule", so the evaluator exposes both the plain
Definition-2 ``overruled`` and the stronger ``overruled_by_applied``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..grounding.grounder import AtomTable, GroundRule, GroundRules
from ..lang.literals import Literal
from ..lang.poset import PartialOrder
from .compiled.index import CompiledRuleIndex
from .interpretation import Interpretation

__all__ = ["ComponentOrder", "StatusReport", "StatusEvaluator", "StatusSnapshot"]


class ComponentOrder:
    """Comparability of components, as the statuses need it.

    Wraps the program's :class:`~repro.lang.poset.PartialOrder`; a
    flattened program (one component, empty order) compares every rule as
    *equal component*, which is exactly the paper's Example 2 behaviour
    (mutual defeat).
    """

    __slots__ = ("_poset", "_threats")

    def __init__(self, poset: PartialOrder) -> None:
        self._poset = poset
        self._threats: dict[tuple[str, str], Optional[int]] = {}

    def strictly_below(self, a: str, b: str) -> bool:
        """``a < b``: a is more specific than b."""
        return self._poset.less(a, b)

    def incomparable_or_equal(self, a: str, b: str) -> bool:
        """The defeat condition of Definition 2: ``a <> b`` or ``a = b``."""
        return a == b or self._poset.incomparable(a, b)

    def threat(self, a: str, b: str) -> Optional[int]:
        """Definition 2's split, decided once per pair: a rule of
        component ``a`` heading ``¬H(r)`` overrules (1), defeats (0) or
        does not threaten (None) a rule ``r`` of component ``b``."""
        if (a, b) not in self._threats:
            below = self.strictly_below(a, b)
            self._threats[a, b] = 1 if below else 0 if self.incomparable_or_equal(a, b) else None
        return self._threats[a, b]


@dataclass(frozen=True)
class StatusReport:
    """All five Definition-2 statuses of one rule at once, plus the
    Definition-3(a) refinement.  Handy for tests and for the CLI's
    ``explain`` output."""

    rule: GroundRule
    applicable: bool
    applied: bool
    blocked: bool
    overruled: bool
    defeated: bool
    overruled_by_applied: bool

    def __str__(self) -> str:
        flags = [
            name
            for name, value in (
                ("applicable", self.applicable),
                ("applied", self.applied),
                ("blocked", self.blocked),
                ("overruled", self.overruled),
                ("defeated", self.defeated),
            )
            if value
        ]
        return f"{self.rule}  [{', '.join(flags) if flags else 'inert'}]"


class StatusEvaluator:
    """Evaluates Definition-2 statuses over a fixed set of ground rules.

    The evaluator indexes rules by head literal so that the "does a
    contradicting rule exist below / beside me" queries are a lookup over
    the (usually short) list of rules with the complementary head.
    The grounder's rules stay ids until such a query first decodes them.
    """

    def __init__(
        self,
        rules: Iterable[GroundRule],
        order: ComponentOrder,
        atom_table: Optional["AtomTable"] = None,
    ) -> None:
        self._rules = rules if isinstance(rules, GroundRules) else tuple(rules)
        self._order = order
        self._by_head: Optional[dict[Literal, list[GroundRule]]] = None
        self._index: Optional[CompiledRuleIndex] = None
        #: The grounding-time atom table, when the caller has one — the
        #: watch-list index reuses its dense ids instead of interning a
        #: private table.
        self.atom_table = atom_table

    @property
    def rules(self) -> tuple[GroundRule, ...]:
        rules = self._rules
        return rules.objects() if isinstance(rules, GroundRules) else rules

    @property
    def order(self) -> ComponentOrder:
        return self._order

    def rules_with_head(self, head: Literal) -> tuple[GroundRule, ...]:
        if self._by_head is None:
            self._by_head = {}
            for r in self.rules:
                self._by_head.setdefault(r.head, []).append(r)
        return tuple(self._by_head.get(head, ()))

    @property
    def index(self) -> CompiledRuleIndex:
        """The semi-naive watch-list index over these rules.

        Built lazily on first use and cached for the evaluator's
        lifetime, so repeated fixpoints (the solver visits one per
        search tree, the reductions one per reduced program) and the
        view's maintained model share a single index.
        """
        if self._index is None:
            self._index = CompiledRuleIndex(
                self._rules, self._order, self.atom_table
            )
        return self._index

    # ------------------------------------------------------------------
    # Definition 2
    # ------------------------------------------------------------------
    @staticmethod
    def applicable(r: GroundRule, interp: Interpretation) -> bool:
        """``B(r) ⊆ I``."""
        return all(l in interp for l in r.body)

    @staticmethod
    def applied(r: GroundRule, interp: Interpretation) -> bool:
        """Applicable with the head also in ``I``."""
        return r.head in interp and all(l in interp for l in r.body)

    @staticmethod
    def blocked(r: GroundRule, interp: Interpretation) -> bool:
        """Some body literal's complement is in ``I``."""
        return any(l.complement() in interp for l in r.body)

    def contradictors(self, r: GroundRule) -> tuple[GroundRule, ...]:
        """Rules with head ``¬H(r)`` (in any component)."""
        return self.rules_with_head(r.head.complement())

    def overruled(self, r: GroundRule, interp: Interpretation) -> bool:
        """A non-blocked contradicting rule exists strictly below."""
        return any(
            self._order.strictly_below(other.component, r.component)
            and not self.blocked(other, interp)
            for other in self.contradictors(r)
        )

    def overruled_by_applied(self, r: GroundRule, interp: Interpretation) -> bool:
        """Definition 3(a)'s stronger test: the overruler is *applied*."""
        return any(
            self._order.strictly_below(other.component, r.component)
            and self.applied(other, interp)
            for other in self.contradictors(r)
        )

    def defeated(self, r: GroundRule, interp: Interpretation) -> bool:
        """A non-blocked contradicting rule exists in an incomparable or
        equal component."""
        return any(
            self._order.incomparable_or_equal(other.component, r.component)
            and not self.blocked(other, interp)
            for other in self.contradictors(r)
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    def snapshot(self, interp: Interpretation) -> "StatusSnapshot":
        """Precompute per-interpretation state for bulk status queries.

        ``V``'s fixpoint iteration asks ``overruled``/``defeated`` for
        every rule at every stage; the snapshot computes the blocked set
        once per interpretation and memoizes the per-(head, component)
        answers, turning each query into a dictionary lookup.
        """
        return StatusSnapshot(self, interp)

    def report(self, r: GroundRule, interp: Interpretation) -> StatusReport:
        applicable = self.applicable(r, interp)
        return StatusReport(
            rule=r,
            applicable=applicable,
            applied=applicable and r.head in interp,
            blocked=self.blocked(r, interp),
            overruled=self.overruled(r, interp),
            defeated=self.defeated(r, interp),
            overruled_by_applied=self.overruled_by_applied(r, interp),
        )

    def reports(self, interp: Interpretation) -> Iterator[StatusReport]:
        for r in self.rules:
            yield self.report(r, interp)


class StatusSnapshot:
    """Status queries against one fixed interpretation, with the
    blocked set computed once and (head, component) verdicts memoized.

    Produces identical answers to the per-call methods of
    :class:`StatusEvaluator` (cross-checked by property tests)."""

    __slots__ = ("_eval", "_interp", "_blocked", "_overruled", "_defeated")

    def __init__(self, evaluator: StatusEvaluator, interp: Interpretation) -> None:
        self._eval = evaluator
        self._interp = interp
        self._blocked = frozenset(
            r
            for r in evaluator.rules
            if any(l.complement() in interp for l in r.body)
        )
        self._overruled: dict[tuple[Literal, str], bool] = {}
        self._defeated: dict[tuple[Literal, str], bool] = {}

    def blocked(self, r: GroundRule) -> bool:
        return r in self._blocked

    def applicable(self, r: GroundRule) -> bool:
        return all(l in self._interp for l in r.body)

    def applied(self, r: GroundRule) -> bool:
        return r.head in self._interp and self.applicable(r)

    def overruled_by_applied(self, r: GroundRule) -> bool:
        order = self._eval.order
        return any(
            order.strictly_below(other.component, r.component)
            and self.applied(other)
            for other in self._eval.rules_with_head(r.head.complement())
        )

    def overruled(self, r: GroundRule) -> bool:
        key = (r.head, r.component)
        cached = self._overruled.get(key)
        if cached is None:
            order = self._eval.order
            cached = any(
                other not in self._blocked
                and order.strictly_below(other.component, r.component)
                for other in self._eval.rules_with_head(r.head.complement())
            )
            self._overruled[key] = cached
        return cached

    def defeated(self, r: GroundRule) -> bool:
        key = (r.head, r.component)
        cached = self._defeated.get(key)
        if cached is None:
            order = self._eval.order
            cached = any(
                other not in self._blocked
                and order.incomparable_or_equal(other.component, r.component)
                for other in self._eval.rules_with_head(r.head.complement())
            )
            self._defeated[key] = cached
        return cached
