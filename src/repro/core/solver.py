"""Model enumeration for ground ordered programs.

Enumerating models is exponential in the worst case (the paper notes
that finding a total model is hard even for seminegative programs), so
the enumerator is an explicit-budget backtracking search rather than a
polynomial pretender:

* :meth:`ModelEnumerator.models` — all Definition-3 models, by
  generate-and-test: the search branches three ways (undefined / true /
  false) over every atom the least model leaves undefined, with no
  pruning at all, and checks every one of the ``3^n`` leaves (eight
  atoms are 6,561 leaves).  A search that propagates condition (a) over
  the decided atoms and cuts violating branches is not implemented
  (ROADMAP item 2).
* :meth:`ModelEnumerator.assumption_free_models` — branches only over
  *head* atoms: by Theorem 1(a) every literal of an assumption-free
  model is the head of an applied rule, so atoms that head no rule are
  necessarily undefined, and a sign is only tried when some rule
  actually derives it.
* :meth:`ModelEnumerator.stable_models` — the maximal assumption-free
  models (Definition 9).

All are one depth-first search (:meth:`ModelEnumerator._search`) over
different choice lists, in the id space of the evaluator's
:class:`~repro.core.compiled.index.CompiledRuleIndex`.  A leaf is a
``truth`` bytearray over literal ids, seeded with the least model.  Per
rule the search keeps how many body literals are true and how many body
complements are true: deciding a literal bumps them through the body
and block watch lists, and backtracking undoes that.  Definition 3 is
read off those counters, the flags and each rule's overrulers and
threats (the index's rule-axis threat lists); a model is assumption-free
when ``T↑ω`` of its enabled version, closed over ids, is the leaf itself
(Theorem 1(a)).  So no literal or interpretation is built per leaf:
the leaves taken are flag strings, decoded once through
:meth:`~repro.core.interpretation.Interpretation.over`.
:class:`~repro.core.models.ModelChecker` and
:class:`~repro.core.assumptions.AssumptionAnalyzer` stay the object
readings of Definitions 3 and 7 that the oracle matrix
(``tests/oracle``) holds this search to.

The search records its leaves, models, branches and backtracks once.
Budgets are enforced up front (estimated leaf count) and during the
search (visited leaves); exceeding either raises
:class:`~repro.lang.errors.SearchBudgetExceeded`.  :func:`interpretations`
is the one unpruned 3^n generator: the classical 3-valued and direct
(Definition 11) model sets filter it, under the same up-front refusal.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterable, Iterator, Optional

from ..lang.errors import SearchBudgetExceeded
from ..lang.literals import Literal
from ..obs import Level, get_instrumentation, record_costs
from .compiled.index import CompiledRuleIndex
from .interpretation import Interpretation
from .statuses import StatusEvaluator
from .transform import DEFAULT_STRATEGY, OrderedTransform

__all__ = ["SearchBudget", "ModelEnumerator", "interpretations"]


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


def interpretations(base, budget: SearchBudget = SearchBudget()) -> Iterator[Interpretation]:
    """Every interpretation over ``base``, 3^n of them: each atom, in
    ``str`` order with the first varying slowest, undefined, true, then
    false.  Refused up front (:func:`_check_estimate`) when 3^n is over
    ``budget.max_leaves``; for exhaustive checks on small programs."""
    base = frozenset(base)
    atoms = sorted(base, key=str)
    _check_estimate(3 ** len(atoms), budget)
    choices = [(None, Literal(atom, True), Literal(atom, False)) for atom in atoms]
    for picked in product(*choices):
        yield Interpretation([l for l in picked if l is not None], base)


def _check_estimate(estimate: int, budget: SearchBudget) -> None:
    """Refuse a search of about ``estimate`` leaves over
    ``budget.max_leaves``: counted, logged and raised."""
    if estimate > budget.max_leaves:
        obs = get_instrumentation()
        obs.count("search.budget_refusals")
        obs.event(
            "search.budget_refused",
            Level.WARN,
            estimate=estimate,
            max_leaves=budget.max_leaves,
        )
        raise SearchBudgetExceeded(
            f"search tree has about {estimate} leaves, over the budget "
            f"of {budget.max_leaves}; raise SearchBudget.max_leaves "
            "if you really want this",
            estimate=estimate,
            budget=budget.max_leaves,
        )


def _closure(index: CompiledRuleIndex, rules: Iterable[int], n_flags: int) -> bytearray:
    """``T↑ω(∅)`` over the given rule ids, literals taken atomically
    (Definition 8, Lemma 2): the flags of the literal ids derived."""
    heads, sizes = index.heads, index.body_sizes
    start, watching = index.body_watch_start, index.body_watch_rules
    derived = bytearray(n_flags)
    left: dict[int, int] = {}
    frontier: list[int] = []
    for i in rules:
        if sizes[i]:
            left[i] = sizes[i]
        elif not derived[heads[i]]:
            derived[heads[i]] = 1
            frontier.append(heads[i])
    while frontier:
        lit = frontier.pop()
        for i in watching[start[lit] : start[lit + 1]]:
            if i in left:
                left[i] -= 1
                if not left[i] and not derived[heads[i]]:
                    derived[heads[i]] = 1
                    frontier.append(heads[i])
    return derived


def _maximal(leaves: list[bytes]) -> list[bytes]:
    """The leaves whose literal set no other leaf strictly contains."""
    sets = [int.from_bytes(flags, "little") for flags in leaves]
    return [
        flags
        for flags, s in zip(leaves, sets)
        if not any(s & other == s and s != other for other in sets)
    ]


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
        self._budget = budget
        self._transform = OrderedTransform(evaluator, self._base, strategy=strategy)
        self._least: Optional[Interpretation] = None

    def _least_model(self) -> Interpretation:
        """``V↑ω(∅)`` — by Theorem 1(b) it is contained in every model,
        so its literals can be fixed up-front and the search branches
        only over the atoms it leaves undefined.

        Computed through the enumerator's one transform, over the index
        the search runs on.
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
        return interpretations(self._base, self._budget)

    # ------------------------------------------------------------------
    # Models (Definition 3)
    # ------------------------------------------------------------------
    def models(self, limit: Optional[int] = None) -> list[Interpretation]:
        """All models for ``P`` in ``C`` (optionally at most ``limit``).
        By Theorem 1(b) every model contains the least model, so only
        the atoms it leaves undefined are branched, 3 ways."""
        return self._decode(self._model_leaves(limit))

    def _model_leaves(self, limit: Optional[int]) -> list[bytes]:
        # A base atom no ground rule mentions (relevance grounding drops
        # instances) is interned after the compiled range: no watch list
        # reaches it, and the leaf still decodes through the table.
        table = self._eval.index.table
        atoms = sorted(self._least_model().undefined_atoms(), key=str)
        choices = [(None, 2 * a, 2 * a + 1) for a in map(table.intern, atoms)]
        return self._search("search.models", "model enumeration", choices, False, limit)

    def total_models(self) -> list[Interpretation]:
        return [m for m in self.models() if m.is_total]

    def exhaustive_models(self) -> list[Interpretation]:
        """Models with no proper model superset (Definition 5b)."""
        return self._decode(_maximal(self._model_leaves(None)))

    # ------------------------------------------------------------------
    # Assumption-free and stable models
    # ------------------------------------------------------------------
    def _head_choices(self) -> list[tuple[Optional[int], ...]]:
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
        index = self._eval.index
        defined = {lit >> 1 for lit in self._least_ids()}
        possible = _closure(index, range(index.n_rules), index.n_literals)
        heads = {h for h in index.heads if possible[h] and h >> 1 not in defined}
        atom = index.table.atom
        return [
            (None, *(lit for lit in (2 * a, 2 * a + 1) if lit in heads))
            for a in sorted({h >> 1 for h in heads}, key=lambda a: str(atom(a)))
        ]

    def assumption_free_models(
        self, limit: Optional[int] = None
    ) -> list[Interpretation]:
        """All assumption-free models (Definition 7)."""
        return self._decode(self._af_leaves(limit))

    def _af_leaves(self, limit: Optional[int]) -> list[bytes]:
        return self._search(
            "search.af_models", "AF-model search", self._head_choices(), True, limit
        )

    def stable_models(self) -> list[Interpretation]:
        """Maximal assumption-free models (Definition 9)."""
        return self._decode(_maximal(self._af_leaves(None)))

    # ------------------------------------------------------------------
    # The search, in id space
    # ------------------------------------------------------------------
    def _least_ids(self) -> list[int]:
        """The least model's literal ids."""
        table = self._eval.index.table
        return [table.literal_id(literal) for literal in self._least_model()]

    def _decode(self, leaves: list[bytes]) -> list[Interpretation]:
        table = self._eval.index.table
        return [Interpretation.over(table, flags, self._base) for flags in leaves]

    def _search(
        self,
        span: str,
        what: str,
        choices: list[tuple[Optional[int], ...]],
        assumption_free: bool,
        limit: Optional[int],
    ) -> list[bytes]:
        """Depth-first over ``choices`` — per atom, the literal ids to
        try, ``None`` leaving it undefined — on top of the least model;
        every leaf that is a model (and, with ``assumption_free``, an AF
        one) is returned as its literal-id flags."""
        obs = get_instrumentation()
        estimate = prod(map(len, choices))
        _check_estimate(estimate, self._budget)
        if obs.enabled:
            obs.gauge("search.branch_atoms", len(choices))
            obs.gauge("search.estimated_leaves", estimate)

        index = self._eval.index
        n, n_compiled = index.n_rules, index.n_literals
        heads, sizes = index.heads, index.body_sizes
        bw_start, bw_rules = index.body_watch_start, index.body_watch_rules
        blw_start, blw_rules = index.block_watch_start, index.block_watch_rules
        # Rule i's overrulers (Definition 3a asks for an applied one) and
        # all its threats (Definition 2's overruled or defeated: one of
        # them not blocked), unpacked from the index's threat lists.
        t_start, packed = index.threat_start, index.threats
        threats = [[p >> 1 for p in packed[t_start[i] : t_start[i + 1]]] for i in range(n)]
        overrulers = [
            [p >> 1 for p in packed[t_start[i] : t_start[i + 1]] if p & 1] for i in range(n)
        ]
        # Per rule: body literals true, and body complements true (the
        # rule is blocked while that is positive).
        truth = bytearray(2 * len(index.table))
        sat = [0] * n
        blk = [0] * n

        def watchers(lit: int) -> tuple[array, array]:
            """The rules with ``lit`` in their body, and those it blocks."""
            if lit >= n_compiled:
                return array("l"), array("l")
            return (
                bw_rules[bw_start[lit] : bw_start[lit + 1]],
                blw_rules[blw_start[lit] : blw_start[lit + 1]],
            )

        for lit in self._least_ids():
            truth[lit] = 1
            body, block = watchers(lit)
            for i in body:
                sat[i] += 1
            for i in block:
                blk[i] += 1
        watch = {lit: watchers(lit) for options in choices for lit in options if lit is not None}

        def is_model() -> bool:
            """Definition 3 at the current leaf."""
            for i in range(n):
                h = heads[i]
                if truth[h ^ 1]:
                    # (a): H(i)'s complement holds, so i is blocked or
                    # overruled by an applied (here: applicable) rule.
                    if not blk[i]:
                        for j in overrulers[i]:
                            if sat[j] == sizes[j]:
                                break
                        else:
                            return False
                elif not truth[h] and sat[i] == sizes[i]:
                    # (b): applicable over an undefined atom, so some
                    # threat is not blocked.
                    for j in threats[i]:
                        if not blk[j]:
                            break
                    else:
                        return False
            return True

        def is_assumption_free() -> bool:
            """Theorem 1(a): ``T↑ω`` of the enabled version — the applied
            rules whose every threat is blocked (see
            :meth:`AssumptionAnalyzer.enabled_version`) — is the leaf."""
            enabled = (
                i
                for i in range(n)
                if truth[heads[i]] and sat[i] == sizes[i] and all(blk[j] for j in threats[i])
            )
            return _closure(index, enabled, len(truth)) == truth

        found: list[bytes] = []
        visited = branches = backtracks = 0
        depth, max_visited = len(choices), self._budget.max_visited

        def recurse(k: int) -> bool:
            nonlocal visited, branches, backtracks
            if k == depth:
                visited += 1
                if visited > max_visited:
                    raise self._budget_exhausted(what, visited - 1)
                if is_model() and (not assumption_free or is_assumption_free()):
                    found.append(bytes(truth))
                    if limit is not None and len(found) >= limit:
                        return True
                return False
            for lit in choices[k]:
                branches += 1
                if lit is None:
                    if recurse(k + 1):
                        return True
                    continue
                body, block = watch[lit]
                truth[lit] = 1
                for i in body:
                    sat[i] += 1
                for i in block:
                    blk[i] += 1
                if recurse(k + 1):
                    return True
                truth[lit] = 0
                for i in body:
                    sat[i] -= 1
                for i in block:
                    blk[i] -= 1
                backtracks += 1
            return False

        try:
            with obs.span(span):
                recurse(0)
        finally:
            record_costs(
                leaves_visited=visited,
                models_found=len(found),
                search_branches=branches,
                search_backtracks=backtracks,
            )
        return found

    # ------------------------------------------------------------------
    # Budget plumbing
    # ------------------------------------------------------------------
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
