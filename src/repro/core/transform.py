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

The semantics-level names ``"auto"`` and ``"demand"`` run the default
engine: every least model is ``V↑ω`` on one of these two, whatever
class of program the view belongs to.

Consistency of every iterate is asserted under both strategies
(consistency is an invariant: two applicable contradicting rules always
overrule or defeat one another, so at most one head survives).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..lang.errors import InconsistencyError
from ..lang.literals import Literal, is_consistent
from ..obs import Level, get_instrumentation
from ..obs.instruments import NULL_SPAN
from ..obs.trace import current_trace
from .compiled.fixpoint import DenseFixpoint
from .interpretation import Interpretation
from .statuses import StatusEvaluator

__all__ = [
    "OrderedTransform",
    "STRATEGIES",
    "DEFAULT_STRATEGY",
    "AUTO_STRATEGY",
    "DEMAND_STRATEGY",
    "SEMANTICS_STRATEGIES",
    "READ_STRATEGIES",
    "engine_strategy",
    "validate",
]

#: Recognised fixpoint *engine* strategies (how ``V↑ω`` is iterated).
STRATEGIES = ("naive", "seminaive")

#: Engine strategy used when none is requested explicitly.
DEFAULT_STRATEGY = "seminaive"

#: Semantics-level strategy: the default engine.
AUTO_STRATEGY = "auto"

#: Semantics-level strategy: answer queries goal-directed through the
#: magic-sets rewrite (``repro.query``) where sound, falling back to
#: materialization otherwise.  For whole-model operations it behaves
#: like ``"auto"``.  See ``docs/query.md``.
DEMAND_STRATEGY = "demand"

#: Everything ``OrderedSemantics(strategy=...)`` accepts.
SEMANTICS_STRATEGIES = (AUTO_STRATEGY, DEMAND_STRATEGY, *STRATEGIES)

#: The read strategies a query may name (``KnowledgeBase.query`` and the
#: server protocol's per-request ``strategy`` field validate against
#: this one tuple).
READ_STRATEGIES = (AUTO_STRATEGY, DEMAND_STRATEGY)


def validate(
    strategy: str,
    allowed: Sequence[str],
    error: type[Exception] = ValueError,
    message: str = "unknown fixpoint strategy {!r}; expected one of {}",
) -> str:
    """The one check behind every strategy name the system accepts —
    engine, semantics-level and per-read; ``message`` is formatted with
    the offending name and the comma-joined allowed ones."""
    if strategy not in allowed:
        raise error(message.format(strategy, ", ".join(allowed)))
    return strategy


def engine_strategy(strategy: str) -> str:
    """The engine strategy backing a semantics-level strategy:
    ``"auto"`` and ``"demand"`` run the default engine."""
    validate(strategy, SEMANTICS_STRATEGIES)
    if strategy in (AUTO_STRATEGY, DEMAND_STRATEGY):
        return DEFAULT_STRATEGY
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
        if get_instrumentation().enabled:
            self._instrumented_scan(snapshot, derived)
        else:
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

    def _instrumented_scan(self, snapshot, derived: set[Literal]) -> None:
        """The ``step`` rule scan with a Definition-2 status breakdown.

        Kept separate from the plain loop so that disabled
        instrumentation costs exactly one ``enabled`` check per step.
        Note ``overruled``/``defeated`` are both evaluated here (no
        short-circuit), which is what the breakdown requires.
        """
        obs = get_instrumentation()
        blocked = overruled = defeated = applied = inert = 0
        for r in self._eval.rules:
            if not snapshot.applicable(r):
                if snapshot.blocked(r):
                    blocked += 1
                else:
                    inert += 1
                continue
            r_overruled = snapshot.overruled(r)
            r_defeated = snapshot.defeated(r)
            if r_overruled:
                overruled += 1
            if r_defeated:
                defeated += 1
            if not r_overruled and not r_defeated:
                derived.add(r.head)
                applied += 1
        obs.count("fixpoint.rules_scanned", len(self._eval.rules))
        obs.count("fixpoint.rules_applied", applied)
        obs.count("fixpoint.rules_blocked", blocked)
        obs.count("fixpoint.rules_overruled", overruled)
        obs.count("fixpoint.rules_defeated", defeated)
        obs.count("fixpoint.rules_inert", inert)

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
        if chosen == "naive":
            return self._naive_least_fixpoint(max_iterations)
        bound = self._stage_bound(max_iterations)
        run = DenseFixpoint(self._eval.index)
        obs = get_instrumentation()
        # span() hands back NULL_SPAN only when the registry is off AND
        # no trace context is active — the true zero-cost path.
        span = obs.span("fixpoint", rules=run.index.n_rules, strategy=chosen)
        if span is NULL_SPAN:
            run.run(bound)
            return run.interpretation(self._base)
        with span:
            data = run.run(bound, obs if obs.enabled else None)
            stage_ids = run.stage_ids
            ctx = current_trace()
            if ctx is not None:
                # Cost attribution for request tracing / the slow-query
                # log: everything here is already computed.
                ctx.add_cost(
                    fixpoint_stages=len(stage_ids),
                    rules_fired=sum(run.fired),
                    literals_derived=len(data),
                    max_stage_delta=max(map(len, stage_ids), default=0),
                )
            result = run.interpretation(self._base)
            obs.gauge("fixpoint.least_model_size", len(data))
            obs.event(
                "fixpoint.converged",
                Level.INFO,
                stages=len(stage_ids),
                literals=len(data),
            )
        return result

    def _stage_bound(self, max_iterations: Optional[int]) -> int:
        """The iterates grow strictly inside ``2·|base|`` literals."""
        return (
            max_iterations
            if max_iterations is not None
            else 2 * len(self._base) + 2
        )

    def _naive_least_fixpoint(
        self, max_iterations: Optional[int] = None
    ) -> Interpretation:
        """The ``"naive"`` strategy: repeated full applications of
        :meth:`step` — the differential oracle for the semi-naive path."""
        bound = self._stage_bound(max_iterations)
        obs = get_instrumentation()
        if not obs.enabled:
            current = Interpretation((), self._base)
            for _ in range(bound + 1):
                nxt = self.step(current)
                if nxt.literals == current.literals:
                    return current
                current = nxt
        else:
            with obs.span(
                "fixpoint", rules=len(self._eval.rules), strategy="naive"
            ):
                current = Interpretation((), self._base)
                for stage in range(1, bound + 2):
                    nxt = self.step(current)
                    new = len(nxt.literals - current.literals)
                    if nxt.literals == current.literals:
                        obs.gauge("fixpoint.least_model_size", len(current.literals))
                        obs.event(
                            "fixpoint.converged",
                            Level.INFO,
                            stages=stage - 1,
                            literals=len(current.literals),
                        )
                        return current
                    obs.count("fixpoint.stages")
                    obs.count("fixpoint.literals_derived", new)
                    obs.observe("fixpoint.stage_literals", new)
                    obs.event(
                        "fixpoint.stage", Level.DEBUG, stage=stage, new_literals=new
                    )
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
