"""Model enumeration for ground ordered programs.

Enumerating models is exponential in the worst case (the paper notes
that finding a total model is hard even for seminegative programs), so
the enumerator is an explicit-budget backtracking search rather than a
polynomial pretender:

* :meth:`ModelEnumerator.models` — all Definition-3 models, by
  generate-and-test: the search branches three ways (undefined / true /
  false) over every atom the least model leaves undefined, with no
  pruning at all, and each of the ``3^n`` leaves is built as an
  interpretation and handed to :class:`~repro.core.models.ModelChecker`
  (eight atoms are 6,561 leaves).  A search that propagates condition
  (a) over the decided atoms and cuts violating branches is not
  implemented (ROADMAP item 2).
* :meth:`ModelEnumerator.assumption_free_models` — branches only over
  *head* atoms: by Theorem 1(a) every literal of an assumption-free
  model is the head of an applied rule, so atoms that head no rule are
  necessarily undefined, and a sign is only tried when some rule
  actually derives it.
* :meth:`ModelEnumerator.stable_models` — the maximal assumption-free
  models (Definition 9).

Both are one depth-first search (:meth:`ModelEnumerator._search`) over
different choice lists, which records its leaves, models, branches and
backtracks once per search.  Budgets are enforced up front (estimated
leaf count) and during the search (visited leaves); exceeding either
raises
:class:`~repro.lang.errors.SearchBudgetExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, Iterator, Optional

from ..lang.errors import SearchBudgetExceeded
from ..lang.literals import Atom, Literal
from ..obs import Level, get_instrumentation, record_costs
from .assumptions import AssumptionAnalyzer
from .interpretation import Interpretation
from .models import ModelChecker
from .statuses import StatusEvaluator
from .transform import DEFAULT_STRATEGY, OrderedTransform

__all__ = ["SearchBudget", "ModelEnumerator"]


@dataclass(frozen=True)
class SearchBudget:
    """Limits for enumeration.

    Attributes:
        max_leaves: upper bound on the *estimated* number of leaves of
            the search tree — refuse to start a search bigger than this.
        max_visited: upper bound on leaves actually visited.
    """

    max_leaves: int = 50_000_000
    max_visited: int = 5_000_000


class ModelEnumerator:
    """Backtracking enumeration over a fixed evaluator/base."""

    def __init__(
        self,
        evaluator: StatusEvaluator,
        base,
        budget: SearchBudget = SearchBudget(),
        strategy: str = DEFAULT_STRATEGY,
    ) -> None:
        self._eval = evaluator
        self._base = frozenset(base)
        self._checker = ModelChecker(evaluator, self._base)
        self._analyzer = AssumptionAnalyzer(evaluator, self._base)
        self._budget = budget
        self._transform = OrderedTransform(evaluator, self._base, strategy=strategy)
        self._least: Optional[Interpretation] = None

    def _least_model(self) -> Interpretation:
        """``V↑ω(∅)`` — by Theorem 1(b) it is contained in every model,
        so its literals can be fixed up-front and the search branches
        only over the atoms it leaves undefined.

        Computed through the enumerator's one transform, so every
        fixpoint the search triggers shares the evaluator's
        :class:`~repro.core.compiled.index.CompiledRuleIndex` instead of
        rebuilding watch lists per call.
        """
        if self._least is None:
            self._least = self._transform.least_fixpoint()
        return self._least

    # ------------------------------------------------------------------
    # Raw interpretation space
    # ------------------------------------------------------------------
    def interpretations(self) -> Iterator[Interpretation]:
        """Every interpretation over the base (3^n of them) — intended
        for exhaustive property checks on small programs."""
        atoms = sorted(self._base, key=str)
        self._check_estimate(3 ** len(atoms))
        yield from self._expand(atoms, 0, [])

    def _expand(
        self, atoms: list[Atom], index: int, chosen: list[Literal]
    ) -> Iterator[Interpretation]:
        if index == len(atoms):
            yield Interpretation(chosen, self._base)
            return
        atom = atoms[index]
        yield from self._expand(atoms, index + 1, chosen)
        chosen.append(Literal(atom, True))
        yield from self._expand(atoms, index + 1, chosen)
        chosen[-1] = Literal(atom, False)
        yield from self._expand(atoms, index + 1, chosen)
        chosen.pop()

    # ------------------------------------------------------------------
    # Models (Definition 3)
    # ------------------------------------------------------------------
    def models(self, limit: Optional[int] = None) -> list[Interpretation]:
        """All models for ``P`` in ``C`` (optionally at most ``limit``).
        By Theorem 1(b) every model contains the least model, so only
        the atoms it leaves undefined are branched, 3 ways."""
        atoms = sorted(self._least_model().undefined_atoms(), key=str)
        choices = [(a, [None, Literal(a, True), Literal(a, False)]) for a in atoms]
        return self._search(
            "search.models", "model enumeration", choices, self._checker.is_model, limit
        )

    def total_models(self) -> list[Interpretation]:
        return [m for m in self.models() if m.is_total]

    def exhaustive_models(self) -> list[Interpretation]:
        """Models with no proper model superset (Definition 5b)."""
        all_models = self.models()
        literal_sets = [m.literals for m in all_models]
        result = []
        for m in all_models:
            if not any(m.literals < other for other in literal_sets):
                result.append(m)
        return result

    # ------------------------------------------------------------------
    # Assumption-free and stable models
    # ------------------------------------------------------------------
    def _head_choices(self) -> list[tuple[Atom, list[Optional[Literal]]]]:
        """Per-atom decision lists for AF-model search.

        Three sound restrictions compose:

        * only atoms *undefined in the least model* are branched
          (Theorem 1(b) fixes the rest);
        * a sign is only offered when it heads at least one ground rule
          (every AF-model literal is the head of an applied rule,
          Theorem 1(a));
        * a sign is only offered when it lies in the literal closure of
          *all* ground rules — an AF model is ``T↑ω`` of its enabled
          rules, which is contained in ``T↑ω`` of all rules, so
          literals outside that closure can never be T-supported.
        """
        from .assumptions import literal_closure

        undecided = self._least_model().undefined_atoms()
        possible = literal_closure(self._eval.rules)
        positive_heads: set[Atom] = set()
        negative_heads: set[Atom] = set()
        for r in self._eval.rules:
            if r.head.atom not in undecided:
                continue
            if r.head not in possible:
                continue
            if r.head.positive:
                positive_heads.add(r.head.atom)
            else:
                negative_heads.add(r.head.atom)
        choices = []
        for atom in sorted(positive_heads | negative_heads, key=str):
            options: list[Optional[Literal]] = [None]
            if atom in positive_heads:
                options.append(Literal(atom, True))
            if atom in negative_heads:
                options.append(Literal(atom, False))
            choices.append((atom, options))
        return choices

    def assumption_free_models(
        self, limit: Optional[int] = None
    ) -> list[Interpretation]:
        """All assumption-free models (Definition 7)."""
        checker, analyzer = self._checker, self._analyzer
        return self._search(
            "search.af_models",
            "AF-model search",
            self._head_choices(),
            lambda i: checker.is_model(i) and analyzer.is_assumption_free(i),
            limit,
        )

    def _search(
        self,
        span: str,
        what: str,
        choices: list[tuple[Atom, list[Optional[Literal]]]],
        accept: Callable[[Interpretation], bool],
        limit: Optional[int],
    ) -> list[Interpretation]:
        """Depth-first over ``choices`` — per atom, the literals to try,
        ``None`` leaving it undefined — on top of the least model; every
        leaf ``accept`` takes is a model found."""
        obs = get_instrumentation()
        estimate = prod(len(options) for _, options in choices)
        self._check_estimate(estimate)
        if obs.enabled:
            obs.gauge("search.branch_atoms", len(choices))
            obs.gauge("search.estimated_leaves", estimate)
        found: list[Interpretation] = []
        visited = 0
        branches = 0
        backtracks = 0
        seed = list(self._least_model().literals)

        def recurse(index: int, chosen: list[Literal]) -> bool:
            nonlocal visited, branches, backtracks
            if index == len(choices):
                visited += 1
                if visited > self._budget.max_visited:
                    raise self._budget_exhausted(what, visited - 1)
                interp = Interpretation(chosen, self._base)
                if accept(interp):
                    found.append(interp)
                    if limit is not None and len(found) >= limit:
                        return True
                return False
            for option in choices[index][1]:
                branches += 1
                if option is None:
                    if recurse(index + 1, chosen):
                        return True
                else:
                    chosen.append(option)
                    if recurse(index + 1, chosen):
                        return True
                    chosen.pop()
                    backtracks += 1
            return False

        try:
            with obs.span(span):
                recurse(0, seed)
        finally:
            record_costs(
                leaves_visited=visited,
                models_found=len(found),
                search_branches=branches,
                search_backtracks=backtracks,
            )
        return found

    def stable_models(self) -> list[Interpretation]:
        """Maximal assumption-free models (Definition 9)."""
        af_models = self.assumption_free_models()
        literal_sets = [m.literals for m in af_models]
        return [
            m
            for m in af_models
            if not any(m.literals < other for other in literal_sets)
        ]

    def least_model_check(self, candidate: Interpretation) -> bool:
        """True when ``candidate`` is contained in every model —
        a direct (exponential) verification of Theorem 1(b)."""
        return all(candidate.literals <= m.literals for m in self.models())

    # ------------------------------------------------------------------
    # Budget plumbing
    # ------------------------------------------------------------------
    def _check_estimate(self, estimate: int) -> None:
        if estimate > self._budget.max_leaves:
            obs = get_instrumentation()
            obs.count("search.budget_refusals")
            obs.event(
                "search.budget_refused",
                Level.WARN,
                estimate=estimate,
                max_leaves=self._budget.max_leaves,
            )
            raise SearchBudgetExceeded(
                f"search tree has about {estimate} leaves, over the budget "
                f"of {self._budget.max_leaves}; raise SearchBudget.max_leaves "
                "if you really want this",
                estimate=estimate,
                budget=self._budget.max_leaves,
            )

    def _budget_exhausted(self, what: str, visited: int) -> SearchBudgetExceeded:
        """Build the mid-search budget failure, reporting how far the
        search got (the ``visited`` count at the moment of failure)."""
        obs = get_instrumentation()
        obs.count("search.budget_exhaustions")
        obs.event(
            "search.budget_exhausted",
            Level.WARN,
            search=what,
            visited=visited,
            max_visited=self._budget.max_visited,
        )
        return SearchBudgetExceeded(
            f"{what} exceeded the visit budget after {visited} of at most "
            f"{self._budget.max_visited} visited candidates; raise "
            "SearchBudget.max_visited if you really want this",
            visited=visited,
            budget=self._budget.max_visited,
        )
