"""The ordered immediate transformation ``V_{P,C}`` (Definition 4).

``V(I) = { H(r) | r ∈ ground(C*), B(r) ⊆ I, and r is neither overruled
nor defeated w.r.t. I }``.

``V`` is monotone (Lemma 1): growing ``I`` only makes more bodies true
and blocks more potential overrulers/defeaters, never the reverse.  Its
least fixpoint ``V↑ω(∅)`` is

* a model of ``P`` in ``C`` (Proposition 1),
* assumption-free, and
* the intersection of all models (Theorem 1b) — the *least model*.

The fixpoint is computed by one of two interchangeable strategies
(cross-checked literal-for-literal by the differential property suite
and CI job):

* ``"seminaive"`` (the default) — the delta-driven kernel of
  :mod:`repro.core.compiled.fixpoint`: each stage touches only the
  rules watching a literal of the previous stage's delta, and the model
  returned is the kernel's membership flags read in id space
  (:meth:`~repro.core.compiled.fixpoint.DenseFixpoint.interpretation`),
  the same kind of value a maintained model publishes;
* ``"naive"`` — iterate ``step`` from the empty interpretation,
  rebuilding a full :class:`~repro.core.statuses.StatusSnapshot` and
  rescanning every ground rule per stage.  Kept as the executable
  reading of Definition 4 and as the differential-testing oracle.

Every least model is ``V↑ω`` on one of these two, whatever class of
program the view belongs to.  How a *read* is answered (the
materialized model or the goal-directed demand rewrite) is not an
engine choice: see :meth:`repro.kb.knowledge_base.KnowledgeBase.read`.

Consistency of every iterate is asserted under both strategies
(consistency is an invariant: two applicable contradicting rules always
overrule or defeat one another, so at most one head survives).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..lang.errors import InconsistencyError
from ..lang.literals import Literal, is_consistent
from ..obs import Level, get_instrumentation, record_costs
from .compiled.fixpoint import DenseFixpoint
from .interpretation import Interpretation
from .statuses import StatusEvaluator

__all__ = [
    "OrderedTransform",
    "STRATEGIES",
    "DEFAULT_STRATEGY",
    "validate",
]

#: Recognised fixpoint *engine* strategies (how ``V↑ω`` is iterated).
STRATEGIES = ("naive", "seminaive")

#: Engine strategy used when none is requested explicitly.
DEFAULT_STRATEGY = "seminaive"


def validate(strategy: str, allowed: Sequence[str]) -> str:
    """The check behind every engine strategy name the system accepts
    (:data:`STRATEGIES`); a read strategy is a field of the op table
    (``repro.kb.knowledge_base.FIELD_TYPES``)."""
    if strategy not in allowed:
        raise ValueError(
            f"unknown fixpoint strategy {strategy!r}; expected one of {', '.join(allowed)}"
        )
    return strategy


class OrderedTransform:
    """``V_{P,C}`` over a fixed evaluator (ground rules + order).

    Args:
        evaluator: the Definition-2 status evaluator for ``ground(C*)``.
        base: the Herbrand base of ``C*``.
        strategy: default :meth:`least_fixpoint` strategy —
            ``"seminaive"`` or ``"naive"``.
    """

    def __init__(
        self,
        evaluator: StatusEvaluator,
        base,
        strategy: str = DEFAULT_STRATEGY,
    ) -> None:
        self._eval = evaluator
        self._base = frozenset(base)
        self._strategy = validate(strategy, STRATEGIES)

    @property
    def evaluator(self) -> StatusEvaluator:
        return self._eval

    @property
    def strategy(self) -> str:
        return self._strategy

    def step(self, interp: Interpretation) -> Interpretation:
        """One application of ``V`` to an interpretation."""
        derived: set[Literal] = set()
        snapshot = self._eval.snapshot(interp)
        for r in self._eval.rules:
            if not snapshot.applicable(r):
                continue
            if snapshot.overruled(r) or snapshot.defeated(r):
                continue
            derived.add(r.head)
        if not is_consistent(derived):
            conflict = next(
                l for l in derived if l.complement() in derived
            )
            raise InconsistencyError(
                f"V produced both {conflict} and {conflict.complement()}; "
                "the input interpretation was inconsistent or the order is broken"
            )
        return Interpretation(derived, self._base)

    def least_fixpoint(
        self,
        max_iterations: Optional[int] = None,
        strategy: Optional[str] = None,
    ) -> Interpretation:
        """``V↑ω(∅)``: iterate from the empty interpretation to a fixpoint.

        Termination is guaranteed for finite ground programs: ``V`` is
        monotone and the literal space is finite, so the iterates form a
        strictly increasing chain of length at most ``2·|base|``.

        Args:
            max_iterations: override the stage bound (mainly for tests).
            strategy: override the transform's default strategy for this
                call only.
        """
        chosen = (
            self._strategy if strategy is None else validate(strategy, STRATEGIES)
        )
        bound = 2 * len(self._base) + 2 if max_iterations is None else max_iterations
        obs = get_instrumentation()
        if chosen == "naive":
            rules = len(self._eval.rules)
            with obs.span("fixpoint", rules=rules, strategy=chosen):
                model, stages = self._naive_least_fixpoint(bound)
                # Every application of V scans every rule; the last one
                # finds the fixpoint.
                record_costs(rules_scanned=rules * (len(stages) + 1))
                _record_stages(stages)
            return model
        run = DenseFixpoint(self._eval.index)
        with obs.span("fixpoint", rules=run.index.n_rules, strategy=chosen):
            run.run(bound)
            record_costs(
                rules_touched=run.touched,
                rules_fired=run.applied,
                rules_overruled=run.overruled,
                rules_defeated=run.defeated,
            )
            _record_stages(list(map(len, run.stage_ids)))
        return run.interpretation(self._base)

    def _naive_least_fixpoint(
        self, bound: int
    ) -> tuple[Interpretation, list[int]]:
        """The ``"naive"`` strategy: repeated full applications of
        :meth:`step` — the differential oracle for the semi-naive path.
        Returns the fixpoint and the literals each stage added."""
        current = Interpretation((), self._base)
        stages: list[int] = []
        for _ in range(bound + 1):
            nxt = self.step(current)
            if nxt.literals == current.literals:
                return current, stages
            stages.append(len(nxt.literals) - len(current.literals))
            current = nxt
        raise InconsistencyError(
            "V failed to reach a fixpoint within the iteration bound; "
            "this indicates non-monotone behaviour (a bug)"
        )

    def is_fixpoint(self, interp: Interpretation) -> bool:
        """True when ``V(I) = I``."""
        return self.step(interp).literals == interp.literals

    def is_prefixpoint(self, interp: Interpretation) -> bool:
        """True when ``V(I) ⊆ I``.

        Every model is a pre-fixpoint of ``V`` (the Theorem 1b proof
        sketch says "fixpoint", but that is an overstatement: the model
        ``{b}`` of Example 3 has ``V({b}) = ∅``; the pre-fixpoint
        property is what holds and is all Tarski needs to place the least
        fixpoint inside every model).  Used as a solver prune.
        """
        return self.step(interp).literals <= interp.literals


def _record_stages(stages: list[int]) -> None:
    """Record what either strategy's ``V↑ω(∅)`` derived, given the
    literals each stage added; with the registry enabled, also the
    per-stage histogram and events."""
    literals = sum(stages)
    record_costs(fixpoint_stages=len(stages), literals_derived=literals)
    obs = get_instrumentation()
    if obs.enabled:
        for stage, new in enumerate(stages, 1):
            obs.observe("fixpoint.stage_literals", new)
            obs.event("fixpoint.stage", Level.DEBUG, stage=stage, new_literals=new)
        obs.gauge("fixpoint.least_model_size", literals)
        obs.event("fixpoint.converged", Level.INFO, stages=len(stages), literals=literals)
