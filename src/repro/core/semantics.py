"""The facade tying the ordered semantics together.

:class:`OrderedSemantics` fixes a program and a component, grounds
``C*`` once, and exposes every notion of Sections 2: statuses, the
``V_{P,C}`` transformation and the least model, Definition-3 model
checking, assumption analysis, and model / AF-model / stable-model
enumeration.  It answers whole-model questions; a *read* (a query
pattern under a mode) is routed between the materialized model and the
goal-directed demand rewrite by
:meth:`repro.kb.knowledge_base.KnowledgeBase.read`, not here.

>>> from repro.workloads.paper import figure1
>>> sem = OrderedSemantics(figure1(), "c1")
>>> sem.holds("fly(pigeon)")
True
>>> sem.holds("-fly(penguin)")
True
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from ..grounding.grounder import Grounder, GroundingOptions, GroundProgram
from ..lang.errors import SemanticsError
from ..lang.literals import Literal
from ..lang.program import FactUpdate, OrderedProgram
from ..obs import get_instrumentation, record_costs
from .assumptions import AssumptionAnalyzer
from .interpretation import Interpretation, TruthValue
from .maintenance import ASSERT, DeltaStats, MaintainedModel
from .models import ModelChecker
from .solver import ModelEnumerator, SearchBudget
from .statuses import ComponentOrder, StatusEvaluator, StatusReport
from .transform import DEFAULT_STRATEGY, STRATEGIES, OrderedTransform, validate

__all__ = ["OrderedSemantics"]


class OrderedSemantics:
    """The meaning of an ordered program in one of its components.

    Args:
        program: the ordered program ``P``.
        component: the component ``C`` whose point of view is taken.
        grounding: grounder options (depth bounds etc.).
        budget: search budget for the enumeration methods.
        strategy: fixpoint engine — ``"seminaive"`` (default) or
            ``"naive"``.  Every view's least model is ``V↑ω`` on the
            chosen engine; see ``docs/evaluation.md``.
    """

    #: cached_property names cleared on every program mutation.
    _CACHED = (
        "ground",
        "full_ground",
        "evaluator",
        "full_evaluator",
        "transform",
        "checker",
        "assumptions",
        "enumerator",
        "least_model",
        "_stable",
    )

    def __init__(
        self,
        program: OrderedProgram,
        component: str,
        grounding: Optional[GroundingOptions] = None,
        budget: Optional[SearchBudget] = None,
        strategy: str = DEFAULT_STRATEGY,
    ) -> None:
        if component not in program:
            raise SemanticsError(f"no component named {component!r}")
        if grounding is None:
            grounding = GroundingOptions()
        if budget is None:
            budget = SearchBudget()
        self.program = program
        self.component = component
        self._grounding_options = grounding
        self._budget = budget
        self.strategy = validate(strategy, STRATEGIES)
        #: The components of ``C*``: fact writes never change ``<``.
        self.scope = program.order.upset(component)
        #: The delta engine: the only state a cold view lacks.
        self._maintained: Optional[MaintainedModel] = None

    # ------------------------------------------------------------------
    # Grounding and shared machinery (built lazily, cached)
    # ------------------------------------------------------------------
    @cached_property
    def ground(self) -> GroundProgram:
        """The relevance grounding of ``C*`` plus the Herbrand base of
        ``C*``: every instance the least model can depend on (see
        :mod:`repro.grounding.grounder`).  Sound for the least model
        only — whoever looks at more reads :attr:`full_ground`.

        A maintained view's is the cold view's too: a write keeps only
        :attr:`least_model`, and this is recomputed from :attr:`program`
        on first read.
        """
        return Grounder(self._grounding_options).ground_component_star(
            self.program, self.component
        )

    @cached_property
    def full_ground(self) -> GroundProgram:
        """The whole of ``ground(C*)``.

        Definition-3 model checking and enumeration, assumption
        analysis and per-instance diagnostics must see every ground
        instance (a never-applicable rule still constrains which total
        interpretations are models), and so must the delta engine (a
        told fact can make any instance applicable).
        """
        return Grounder(self._grounding_options).ground_component_star(
            self.program, self.component, full=True
        )

    @cached_property
    def evaluator(self) -> StatusEvaluator:
        return self._evaluator_over(self.ground)

    @cached_property
    def full_evaluator(self) -> StatusEvaluator:
        """Status evaluator over :attr:`full_ground`."""
        return self._evaluator_over(self.full_ground)

    def _evaluator_over(self, ground: GroundProgram) -> StatusEvaluator:
        return StatusEvaluator(
            ground.rules,
            ComponentOrder(self.program.order),
            atom_table=ground.atom_table,
        )

    @cached_property
    def transform(self) -> OrderedTransform:
        return OrderedTransform(
            self.evaluator, self.ground.base, strategy=self.strategy
        )

    @cached_property
    def checker(self) -> ModelChecker:
        return ModelChecker(self.full_evaluator, self.full_ground.base)

    @cached_property
    def assumptions(self) -> AssumptionAnalyzer:
        return AssumptionAnalyzer(self.full_evaluator, self.full_ground.base)

    @cached_property
    def enumerator(self) -> ModelEnumerator:
        return ModelEnumerator(
            self.full_evaluator,
            self.full_ground.base,
            self._budget,
            strategy=self.strategy,
        )

    # ------------------------------------------------------------------
    # Interpretations
    # ------------------------------------------------------------------
    def interpretation(self, literals: Iterable[Union[Literal, str]]) -> Interpretation:
        """Build an interpretation over this component's base; literals
        may be given as strings in the surface syntax."""
        return Interpretation(
            tuple(self._coerce(l) for l in literals), self.ground.base
        )

    def _coerce(self, literal: Union[Literal, str]) -> Literal:
        if isinstance(literal, Literal):
            return literal
        from ..lang.parser import parse_literal

        return parse_literal(literal)

    # ------------------------------------------------------------------
    # The least model and entailment
    # ------------------------------------------------------------------
    @cached_property
    def least_model(self) -> Interpretation:
        """``V↑ω(∅)`` — the least (assumption-free) model; Theorem 1(b).

        Computed by the configured fixpoint engine for every view: a
        single-component stratified one is just the case where no rule
        is ever overruled or defeated.
        """
        with get_instrumentation().span(
            "semantics.least_model", component=self.component
        ):
            return self.transform.least_fixpoint()

    def value(self, literal: Union[Literal, str]) -> TruthValue:
        """The truth value of a ground literal in the least model."""
        return self.least_model.value(self._coerce(literal))

    def holds(self, literal: Union[Literal, str]) -> bool:
        """True when the literal is true in the least model (cautious,
        assumption-free entailment)."""
        return self.value(literal) is TruthValue.TRUE

    def undefined(self, literal: Union[Literal, str]) -> bool:
        """True when the least model leaves the literal undefined — e.g.
        after two experts defeat each other (Figure 2)."""
        return self.value(literal) is TruthValue.UNDEFINED

    # ------------------------------------------------------------------
    # Incremental maintenance (docs/maintenance.md)
    # ------------------------------------------------------------------
    def apply_ops(
        self, ops: Iterable[tuple[str, str, Union[Literal, str]]]
    ) -> DeltaStats:
        """Apply a batch of ``(kind, component, fact)`` mutations: move
        :attr:`program` to its successor
        (:meth:`OrderedProgram.update_facts`) and repair the cached
        least model (:meth:`apply_updates`)."""
        coerced = [(kind, comp, self._coerce(item)) for kind, comp, item in ops]
        return self.apply_updates([self.program.update_facts(coerced)])

    def apply_updates(self, updates: Sequence[FactUpdate]) -> DeltaStats:
        """Absorb consecutive fact updates of :attr:`program` (or of a
        program equal to it on this view's ``C*``: a knowledge base
        computes one update per write for every view that sees it).

        Moves :attr:`program` to the last successor.  Whether the delta
        engine repairs the cached least model is decided once per batch,
        before anything is grounded or any engine state moves
        (:meth:`_absorbs`); otherwise every cache is invalidated and the
        view re-grounds cold on its next read.  Only the model is kept:
        every other cached property is recomputed from the new
        :attr:`program` on first read, as a cold view would.
        """
        engine_ops, reground = FactUpdate.seen_from(updates, self.scope)
        stats: Optional[DeltaStats] = None
        try:
            if engine_ops and not reground and self._absorbs(engine_ops):
                if self._maintained is None:
                    # A told fact can make an instance relevance dropped
                    # applicable, or flip a rule's prune-safety: seed the
                    # engine from the full grounding, once.  The relevance
                    # caches go first so the two never coexist.
                    self._drop_caches()
                    self._maintained = MaintainedModel(
                        self.full_evaluator, self.full_ground.base
                    )
                stats = self._maintained.apply(engine_ops)
                self._drop_caches()
                self.__dict__["least_model"] = self._maintained.interpretation()
        except Exception:
            # The maintained state may be mid-mutation; drop it so the
            # next read recomputes from the mutated program.
            self._invalidate_all()
            raise
        finally:
            # The engine is seeded from the predecessor; every path
            # ends on the last successor.
            self.program = updates[-1].program
        if stats is None:
            # Without a visible ground-level change (facts outside C*,
            # or duplicate copies absorbed) every cache stays valid.
            rebuilt = bool(engine_ops or reground)
            if rebuilt:
                self._invalidate_all()
            told = [kind == ASSERT for update in updates for kind, _, _ in update.ops]
            stats = DeltaStats(
                asserted=sum(told),
                retracted=len(told) - sum(told),
                full_rebuild=rebuilt,
            )
        record_costs(
            delta_facts=sum(len(update.ops) for update in updates),
            delta_asserted=stats.asserted,
            delta_retracted=stats.retracted,
            rules_reevaluated=stats.rules_reevaluated,
            literals_deleted=stats.deleted,
            literals_rederived=stats.rederived,
            full_rebuilds=int(stats.full_rebuild),
        )
        return stats

    def _absorbs(self, ops: Sequence[tuple[str, str, Literal]]) -> bool:
        """Whether the delta engine can absorb ``ops``: there is a model
        to repair, every asserted atom lies in the engine's base (a cold
        view's :attr:`ground` has the same), and a cold view's seed, the
        full instantiation, fits the instance cap: Σ |HU|^|vars(r)| ≤ cap
        over the rules of ``C*``."""
        if self._maintained is not None:
            base = self._maintained.base
        elif "least_model" in self.__dict__:
            base = self.ground.base
            terms = len(self.ground.universe)
            instances = sum(
                terms ** len(r.variables())
                for name in self.scope
                for r in self.program.component(name).rules
            )
            if instances > self._grounding_options.instance_cap:
                return False
        else:
            return False
        return all(literal.atom in base for kind, _, literal in ops if kind == ASSERT)

    def _drop_caches(self) -> None:
        for name in self._CACHED:
            self.__dict__.pop(name, None)

    def _invalidate_all(self) -> None:
        self._maintained = None
        self._drop_caches()

    # ------------------------------------------------------------------
    # Definition 2 statuses (diagnostics)
    # ------------------------------------------------------------------
    def statuses(
        self, interp: Optional[Interpretation] = None
    ) -> list[StatusReport]:
        """Status report of every ground rule under ``interp`` (defaults
        to the least model)."""
        interp = interp if interp is not None else self.least_model
        return list(self.full_evaluator.reports(interp))

    # ------------------------------------------------------------------
    # Model checking and enumeration
    # ------------------------------------------------------------------
    def is_model(self, interp: Interpretation) -> bool:
        return self.checker.is_model(interp)

    def is_assumption_free_model(self, interp: Interpretation) -> bool:
        return self.checker.is_model(interp) and self.assumptions.is_assumption_free(
            interp
        )

    def is_stable_model(self, interp: Interpretation) -> bool:
        """Stable = assumption-free and not properly contained in another
        assumption-free model (Definition 9), so in no stable model:
        every AF model lies under a maximal one (the base is finite)."""
        if not self.is_assumption_free_model(interp):
            return False
        return not any(interp.literals < other.literals for other in self._stable)

    def models(self, limit: Optional[int] = None) -> list[Interpretation]:
        with get_instrumentation().span("semantics.models"):
            return self.enumerator.models(limit=limit)

    def total_models(self) -> list[Interpretation]:
        with get_instrumentation().span("semantics.total_models"):
            return self.enumerator.total_models()

    def exhaustive_models(self) -> list[Interpretation]:
        with get_instrumentation().span("semantics.exhaustive_models"):
            return self.enumerator.exhaustive_models()

    def assumption_free_models(
        self, limit: Optional[int] = None
    ) -> list[Interpretation]:
        with get_instrumentation().span("semantics.af_models"):
            return self.enumerator.assumption_free_models(limit=limit)

    def stable_models(self) -> list[Interpretation]:
        """The stable models, searched once per view value: a write
        drops them with every other cache.  The list is the caller's."""
        return list(self._stable)

    @cached_property
    def _stable(self) -> tuple[Interpretation, ...]:
        with get_instrumentation().span("semantics.stable_models"):
            return tuple(self.enumerator.stable_models())

    # ------------------------------------------------------------------
    # Consequence relations over the stable models
    # ------------------------------------------------------------------
    def skeptical_consequences(self) -> Interpretation:
        """The literals true in *every* stable model.

        Always a superset of the least model (which is contained in
        every AF model); the gap between the two measures how much the
        maximality of stable models decides beyond pure derivation.
        """
        stable = self.stable_models()
        literals = frozenset.intersection(*(m.literals for m in stable))
        return Interpretation(literals, self.ground.base)

    def credulous_consequences(self) -> Interpretation:
        """The literals true in *some* stable model.

        Note this union may be inconsistent as a set (different stable
        models choose differently); it is returned as a raw frozenset
        via :attr:`Interpretation.literals` semantics only when
        consistent — otherwise use :meth:`credulous_literals`.
        """
        return Interpretation(self.credulous_literals(), self.ground.base)

    def credulous_literals(self) -> frozenset[Literal]:
        """The union of all stable models' literal sets (possibly
        containing complementary pairs)."""
        stable = self.stable_models()
        result: frozenset[Literal] = frozenset()
        for m in stable:
            result |= m.literals
        return result

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A short multi-line description of the component's meaning."""
        lm = self.least_model
        lines = [
            f"component {self.component}: {len(self.full_ground.rules)} ground rules, "
            f"base of {len(self.full_ground.base)} atoms",
            f"least model ({len(lm)} literals): {lm}",
            f"undefined atoms: {sorted(map(str, lm.undefined_atoms()))}",
        ]
        return "\n".join(lines)
