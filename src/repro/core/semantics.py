"""The facade tying the ordered semantics together.

:class:`OrderedSemantics` fixes a program and a component, grounds
``C*`` once, and exposes every notion of Sections 2: statuses, the
``V_{P,C}`` transformation and the least model, Definition-3 model
checking, assumption analysis, and model / AF-model / stable-model
enumeration.

>>> from repro.workloads.paper import figure1
>>> sem = OrderedSemantics(figure1(), "c1")
>>> sem.holds("fly(pigeon)")
True
>>> sem.holds("-fly(penguin)")
True
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from ..grounding.grounder import Grounder, GroundingOptions, GroundProgram
from ..lang.errors import SemanticsError
from ..lang.literals import Literal
from ..lang.program import FactUpdate, OrderedProgram
from ..obs import get_instrumentation, record_costs
from .assumptions import AssumptionAnalyzer
from .interpretation import Interpretation, TruthValue
from .maintenance import (
    ASSERT,
    RETRACT,
    DeltaStats,
    DeltaUnsupported,
    MaintainedModel,
    MaintenanceConfig,
)
from .models import ModelChecker
from .solver import ModelEnumerator, SearchBudget
from .statuses import ComponentOrder, StatusEvaluator, StatusReport
from .transform import (
    AUTO_STRATEGY,
    SEMANTICS_STRATEGIES,
    OrderedTransform,
    engine_strategy,
    validate,
)

__all__ = ["OrderedSemantics"]


class OrderedSemantics:
    """The meaning of an ordered program in one of its components.

    Args:
        program: the ordered program ``P``.
        component: the component ``C`` whose point of view is taken.
        grounding: grounder options (depth bounds etc.).
        budget: search budget for the enumeration methods.
        strategy: fixpoint evaluation strategy — ``"auto"`` (default:
            the semi-naive kernel), ``"demand"`` (answers queries
            goal-directed through the magic-sets rewrite where sound,
            ``docs/query.md``, and otherwise behaves like ``"auto"``), or
            the engine names ``"seminaive"`` / ``"naive"``.  Every view's
            least model is ``V↑ω`` on the chosen engine; see
            ``docs/evaluation.md``.
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
    )

    def __init__(
        self,
        program: OrderedProgram,
        component: str,
        grounding: Optional[GroundingOptions] = None,
        budget: Optional[SearchBudget] = None,
        strategy: str = AUTO_STRATEGY,
        maintenance: Optional[MaintenanceConfig] = None,
    ) -> None:
        if component not in program:
            raise SemanticsError(f"no component named {component!r}")
        if grounding is None:
            grounding = GroundingOptions()
        if budget is None:
            budget = SearchBudget()
        if maintenance is None:
            maintenance = MaintenanceConfig()
        self.program = program
        self.component = component
        self._grounding_options = grounding
        self._budget = budget
        self.strategy = validate(strategy, SEMANTICS_STRATEGIES)
        self._engine_strategy = engine_strategy(self.strategy)
        self.maintenance = maintenance
        self._maintained: Optional[MaintainedModel] = None
        #: The grounding ``_maintained`` was built from.
        self._seed_ground: Optional[GroundProgram] = None
        #: component -> demand route compiled from :attr:`program`
        #: (``strategy="demand"``, docs/query.md); dropped with it.
        self.demand_routes: dict = {}

    # ------------------------------------------------------------------
    # Grounding and shared machinery (built lazily, cached)
    # ------------------------------------------------------------------
    @cached_property
    def ground(self) -> GroundProgram:
        """The relevance grounding of ``C*`` plus the Herbrand base of
        ``C*``: every instance the least model can depend on (see
        :mod:`repro.grounding.grounder`).  Sound for the least model
        only — whoever looks at more reads :attr:`full_ground`.

        A maintained view never re-grounds: after a delta this is the
        full seed grounding (same base, universe and id-stable atom
        table) over the engine's current rule multiset, derived on
        first read.
        """
        if self._maintained is not None and self._seed_ground is not None:
            return replace(
                self._seed_ground, rules=self._maintained.alive_rules()
            )
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
        if self._maintained is not None:
            return self.ground
        return Grounder(self._grounding_options).ground_component_star(
            self.program, self.component, full=True
        )

    @cached_property
    def evaluator(self) -> StatusEvaluator:
        return self._evaluator_over(self.ground)

    @cached_property
    def full_evaluator(self) -> StatusEvaluator:
        """Status evaluator over :attr:`full_ground`."""
        if self._maintained is not None:
            return self.evaluator
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
            self.evaluator, self.ground.base, strategy=self._engine_strategy
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
            strategy=self._engine_strategy,
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
    def apply_delta(
        self,
        assertions: Iterable[Union[Literal, str, tuple[str, Union[Literal, str]]]] = (),
        retractions: Iterable[Union[Literal, str, tuple[str, Union[Literal, str]]]] = (),
        component: Optional[str] = None,
    ) -> DeltaStats:
        """Assert/retract ground facts, maintaining the computed model.

        Each item is a ground fact literal (or its surface syntax), or a
        ``(component, literal)`` pair; bare literals go to ``component``
        (default: this view's component).  Retractions remove one told
        copy of the fact and raise :class:`SemanticsError` when the fact
        is not present.  See :class:`~repro.core.maintenance.MaintenanceConfig`
        for the fallback behaviour.
        """
        default = component if component is not None else self.component
        ops: list[tuple[str, str, Union[Literal, str]]] = []
        for kind, items in ((ASSERT, assertions), (RETRACT, retractions)):
            for item in items:
                if isinstance(item, tuple):
                    comp, lit = item
                    ops.append((kind, comp, lit))
                else:
                    ops.append((kind, default, item))
        return self.apply_ops(ops)

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

        Moves :attr:`program` to the last successor and repairs the
        cached least model through the delta engine when possible
        (:meth:`FactUpdate.seen_from` says which ops reach it and when
        only re-grounding can tell); falls back to invalidation +
        recomputation otherwise (maintenance disabled, or an asserted
        atom outside the grounded base).
        """
        engine_ops, reground = FactUpdate.seen_from(updates, self.component)
        self.demand_routes.clear()
        stats: Optional[DeltaStats] = None
        try:
            if (
                engine_ops
                and not reground
                and self.maintenance.enabled
                and (self._maintained is not None or "least_model" in self.__dict__)
            ):
                if self._maintained is None:
                    # A told fact can make an instance relevance dropped
                    # applicable, or flip a rule's prune-safety: seed the
                    # engine from the full grounding, once.  The relevance
                    # caches go first so the two never coexist.
                    self._drop_caches()
                    seed = self._seed_ground = self.full_ground
                    self._maintained = MaintainedModel(
                        self.full_evaluator, seed.base, self.maintenance
                    )
                stats = self._maintained.apply(engine_ops)
                self._drop_caches()
                self.__dict__["least_model"] = self._maintained.interpretation()
        except DeltaUnsupported:
            # e.g. an asserted atom outside the grounded base: the view
            # must be re-grounded from the mutated program.
            pass
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

    def _drop_caches(self) -> None:
        for name in self._CACHED:
            self.__dict__.pop(name, None)

    def _invalidate_all(self) -> None:
        self._maintained = self._seed_ground = None
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
        assumption-free model (Definition 9)."""
        if not self.is_assumption_free_model(interp):
            return False
        return all(
            interp.literals == other.literals or not (interp.literals < other.literals)
            for other in self.assumption_free_models()
        )

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
        with get_instrumentation().span("semantics.stable_models"):
            return self.enumerator.stable_models()

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
