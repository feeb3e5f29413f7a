"""Abstract interpretation over the *non-ground* program: per-predicate
argument sorts, binding modes, and cardinality intervals.

The grounder and the fixpoint engines pay for every ground instance the
Herbrand universe admits, whether or not the instance can ever fire.
This module runs a whole-program **abstract fixpoint** over the signed
predicate dependency graph (SCC condensation order) and computes, for
every *signed* predicate ``(name, arity, sign)``:

* a **sort** per argument position — a finite set of ground terms
  (capped at :data:`VALUE_CAP`), a function-symbol skeleton with a term
  depth bound, or ⊤;
* **modes** per argument — ``b`` when every deriving rule builds the
  argument from body-bound variables, ``f`` when some rule leaves a
  head variable unconstrained (the unsafe-rule idiom);
* a **cardinality interval** ``[lo, hi]`` bounding the size of the
  predicate's relation in the least model (``hi = 0`` proves the
  predicate empty, ``hi = 1`` proves it at most a singleton).

Signs are tracked separately because the paper's ``¬`` is *classical*
negation: a negative body literal ``¬p(t)`` is true only when ``¬p(t)``
is a member of the interpretation, so it is derivable only through
negative-head rules (Definition 2; the closed-world idiom ``¬p(X).``
the reductions emit).

Soundness.  The abstract transformer ignores overruling and defeating
entirely, i.e. it assumes every non-blocked rule may fire.  Since
statuses only ever *remove* firings (``V_{P,C}`` fires a rule iff it is
applicable and neither overruled nor defeated), the computed sorts
over-approximate the derivable literals of the least model of every
rule subset — in particular of every component view ``C*`` drawn from
the analyzed rules.  ``lo`` is claimed only for uncontradicted
predicates backed by guard-free facts, which no status can suppress.

Termination.  Finite sorts grow at most to :data:`VALUE_CAP` before the
join widens them to a depth bound; on recursive SCCs a growing depth
bound is widened to ⊤ after :data:`WIDEN_AFTER` rounds, so every SCC
converges after a bounded number of rounds.  Widenings are counted on
the ``analysis.widenings.*`` counters.

Consumers: the magic-sets sips ordering and the demand engine's join
orders (:mod:`repro.query`), and the static analyzer
(:mod:`repro.analysis.static`: ``type-clash``, ``provably-empty``,
``dead-rule`` and the semantic ``function-growth`` check).  The grounder is not one: its relevance grounding joins against
the concrete possible-literal set (:mod:`repro.grounding.grounder`),
which is exact where these domains are widened.  See
``docs/analysis.md`` ("Abstract domains").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from ..grounding.herbrand import HerbrandUniverse, universe_of
from ..lang.builtins import Comparison
from ..lang.errors import GroundingError
from ..lang.literals import Literal
from ..lang.program import Component, OrderedProgram
from ..lang.rules import Rule
from ..lang.terms import Compound, Constant, Term, Variable, term_depth
from ..obs import get_instrumentation
from .graph import PredicateDependencyGraph

__all__ = [
    "VALUE_CAP",
    "WIDEN_AFTER",
    "Sort",
    "CardInterval",
    "PredicateFacts",
    "AbstractAnalysis",
    "analyze_rules",
    "analyze_view",
    "analyze_whole_program",
]

#: A signed predicate: ``(name, arity, positive?)``.
Signed = tuple[str, int, bool]

#: Largest finite sort kept extensionally; joins past this widen to a
#: depth-bounded sort.
VALUE_CAP = 64

#: Rounds of exact iteration on a recursive SCC before a still-growing
#: depth bound is widened to ⊤.
WIDEN_AFTER = 8


def _signed(literal: Literal) -> Signed:
    return (literal.predicate, len(literal.args), literal.positive)


def _complement(key: Signed) -> Signed:
    return (key[0], key[1], not key[2])


def signed_name(key: Signed) -> str:
    """Render a signed predicate key, e.g. ``¬fly/1``."""
    prefix = "" if key[2] else "¬"
    return f"{prefix}{key[0]}/{key[1]}"


@dataclass(frozen=True)
class Sort:
    """One argument position's abstract value.

    ``values`` is a finite enumeration of the ground terms the position
    can take (``frozenset()`` = ⊥, nothing derivable binds it).  When
    ``values`` is None the sort is infinite-or-widened: any ground term
    of depth ≤ ``depth`` (``depth=None`` = ⊤, any term at all).
    """

    values: Optional[frozenset[Term]] = frozenset()
    depth: Optional[int] = None

    @classmethod
    def bottom(cls) -> "Sort":
        return cls(frozenset(), None)

    @classmethod
    def top(cls) -> "Sort":
        return cls(None, None)

    @classmethod
    def of(cls, terms: Iterable[Term]) -> "Sort":
        values = frozenset(terms)
        if len(values) > VALUE_CAP:
            return cls(None, max(term_depth(t) for t in values))
        return cls(values, None)

    @property
    def is_bottom(self) -> bool:
        return self.values is not None and not self.values

    @property
    def is_finite(self) -> bool:
        return self.values is not None

    def depth_bound(self) -> Optional[int]:
        """An upper bound on the depth of admitted terms (None = ⊤)."""
        if self.values is None:
            return self.depth
        if not self.values:
            return 0
        return max(term_depth(t) for t in self.values)

    def admits(self, term: Term) -> bool:
        """Could a ground term occur at this position?"""
        if self.values is not None:
            return term in self.values
        if self.depth is None:
            return True
        return term_depth(term) <= self.depth

    def join(self, other: "Sort") -> "Sort":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        if self.values is not None and other.values is not None:
            union = self.values | other.values
            if len(union) <= VALUE_CAP:
                return Sort(union, None)
            return Sort(None, max(term_depth(t) for t in union))
        a, b = self.depth_bound(), other.depth_bound()
        depth = None if a is None or b is None else max(a, b)
        return Sort(None, depth)

    def meet(self, other: "Sort") -> "Sort":
        if self.values is not None and other.values is not None:
            return Sort(self.values & other.values, None)
        if self.values is not None:
            return Sort(frozenset(t for t in self.values if other.admits(t)), None)
        if other.values is not None:
            return Sort(frozenset(t for t in other.values if self.admits(t)), None)
        if self.depth is None:
            return other
        if other.depth is None:
            return self
        return Sort(None, min(self.depth, other.depth))

    def __str__(self) -> str:
        if self.values is not None:
            if not self.values:
                return "⊥"
            shown = sorted(map(str, self.values))
            if len(shown) > 6:
                shown = shown[:6] + [f"… ({len(self.values)} terms)"]
            return "{" + ", ".join(shown) + "}"
        if self.depth is None:
            return "⊤"
        return f"⊤(depth≤{self.depth})"


@dataclass(frozen=True)
class CardInterval:
    """Bounds on the relation size in the least model: ``lo ≤ |R| ≤ hi``
    (``hi=None`` = unbounded)."""

    lo: int = 0
    hi: Optional[int] = None

    @property
    def empty(self) -> bool:
        return self.hi == 0

    @property
    def singleton(self) -> bool:
        return self.hi == 1

    def __str__(self) -> str:
        hi = "∞" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {hi}]"


@dataclass(frozen=True)
class PredicateFacts:
    """Everything inferred about one signed predicate."""

    key: Signed
    derivable: bool
    sorts: tuple[Sort, ...]
    modes: tuple[str, ...]
    card: CardInterval
    recursive: bool

    @property
    def name(self) -> str:
        return signed_name(self.key)

    def depth_bound(self) -> Optional[int]:
        """Bound on the term depth of any argument (None = unbounded)."""
        bound = 0
        for sort in self.sorts:
            d = sort.depth_bound()
            if d is None:
                return None
            bound = max(bound, d)
        return bound

    def admits(self, literal: Literal) -> bool:
        """Could this ground literal be derivable?"""
        if not self.derivable:
            return False
        return all(s.admits(t) for s, t in zip(self.sorts, literal.args))

    def to_dict(self) -> dict[str, object]:
        return {
            "predicate": self.name,
            "derivable": self.derivable,
            "sorts": [str(s) for s in self.sorts],
            "modes": "".join(self.modes),
            "cardinality": {"lo": self.card.lo, "hi": self.card.hi},
            "recursive": self.recursive,
        }


class AbstractAnalysis:
    """The converged abstract interpretation of a rule set.

    Build via :func:`analyze_rules` / :func:`analyze_view` /
    :func:`analyze_whole_program`.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        universe: Optional[HerbrandUniverse] = None,
        edb: Iterable[object] = (),
    ) -> None:
        self.universe = universe
        self._rules = tuple(rules)
        self._edb_sizes: dict[Signed, int] = {}
        self._heads: set[Signed] = set()
        self._derivable: dict[Signed, bool] = {}
        self._sorts: dict[Signed, list[Sort]] = {}
        self._free: dict[Signed, list[bool]] = {}
        self._recursive: set[Signed] = set()
        self._cards: dict[Signed, CardInterval] = {}
        self._widenings_sort = 0
        self._widenings_depth = 0
        self.rounds = 0
        self._seed_edb(edb)
        self._run()
        self._finish_cards()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _ensure(self, key: Signed) -> None:
        if key not in self._sorts:
            self._sorts[key] = [Sort.bottom() for _ in range(key[1])]
            self._free[key] = [False] * key[1]
            self._derivable[key] = False

    def _seed_edb(self, edb: Iterable[object]) -> None:
        """Seed base relations (objects with ``name``/``arity``/``rows``)
        as derivable ground facts with exact cardinalities — the Datalog
        engine's EDB side."""
        for relation in edb:
            key = (relation.name, relation.arity, True)  # type: ignore[attr-defined]
            self._ensure(key)
            rows = relation.rows  # type: ignore[attr-defined]
            self._edb_sizes[key] = len(rows)
            if rows:
                self._derivable[key] = True
            for i in range(key[1]):
                column = Sort.of(row[i] for row in rows)
                self._sorts[key][i] = self._sorts[key][i].join(column)

    # ------------------------------------------------------------------
    # The fixpoint
    # ------------------------------------------------------------------
    def _run(self) -> None:
        by_head: dict[Signed, list[Rule]] = {}
        for r in self._rules:
            by_head.setdefault(_signed(r.head), []).append(r)
            for l in (r.head, *r.body_literals()):
                self._ensure(_signed(l))
        self._heads.update(by_head)
        self._rules_by_head = by_head
        graph = PredicateDependencyGraph(
            (("", r) for r in self._rules), key=_signed
        )
        self._recursive.update(graph.recursive & self._heads)
        obs = get_instrumentation()
        # Reversed, the graph's SCCs run callees first, so each SCC sees
        # converged inputs.
        sccs = graph.sccs[::-1]
        for scc in sccs:
            scc_rules = [r for key in sorted(scc) for r in by_head.get(key, ())]
            if not scc_rules:
                continue
            self._iterate(scc_rules)
        if obs.enabled:
            obs.count("analysis.sccs", len(sccs))
            obs.count("analysis.rounds", self.rounds)
            obs.count("analysis.widenings.sort", self._widenings_sort)
            obs.count("analysis.widenings.depth", self._widenings_depth)

    def _iterate(self, scc_rules: Sequence[Rule]) -> None:
        round_no = 0
        changed = True
        while changed:
            changed = False
            round_no += 1
            self.rounds += 1
            widen = round_no >= WIDEN_AFTER
            for r in scc_rules:
                if self._apply(r, widen=widen):
                    changed = True

    def _apply(self, r: Rule, widen: bool) -> bool:
        env = self._env_for(r)
        if env is None:
            return False
        key = _signed(r.head)
        changed = False
        if not self._derivable[key]:
            self._derivable[key] = True
            changed = True
        sorts = self._sorts[key]
        free = self._free[key]
        for i, arg in enumerate(r.head.args):
            if arg.variables() - env.keys() and not free[i]:
                free[i] = True
                changed = True
            contribution = self._eval_term(arg, env)
            joined = sorts[i].join(contribution)
            old = sorts[i]
            if joined == old:
                continue
            if old.is_finite and not joined.is_finite:
                self._widenings_sort += 1
            if widen and not joined.is_finite and not old.is_finite:
                # The depth bound grew on a recursive SCC: jump to ⊤.
                old_d, new_d = old.depth_bound(), joined.depth_bound()
                if old_d is None or new_d is None or new_d > old_d:
                    joined = Sort.top()
                    self._widenings_depth += 1
            sorts[i] = joined
            changed = True
        return changed

    def _env_for(self, r: Rule) -> Optional[dict[Variable, Sort]]:
        """Variable sorts under which the rule body is abstractly
        satisfiable; None when it provably is not."""
        env: dict[Variable, Sort] = {}
        for l in r.body_literals():
            key = _signed(l)
            if not self._derivable.get(key, False):
                return None
            sorts = self._sorts[key]
            for i, arg in enumerate(l.args):
                if isinstance(arg, Variable):
                    current = env.get(arg)
                    env[arg] = (
                        sorts[i] if current is None else current.meet(sorts[i])
                    )
                elif arg.is_ground and not sorts[i].admits(arg):
                    return None
                # Non-ground compound arguments are not inverted: no
                # refinement, no rejection (sound, less precise).
        for guard in r.guards():
            variables = guard.variables()
            if len(variables) != 1:
                continue
            (v,) = variables
            domain = env.get(v)
            if domain is None or not domain.is_finite:
                continue
            env[v] = Sort(
                frozenset(
                    t
                    for t in domain.values or ()
                    if self._guard_admits(guard, v, t)
                ),
                None,
            )
        if any(s.is_bottom for s in env.values()):
            return None
        return env

    @staticmethod
    def _guard_admits(guard: Comparison, v: Variable, term: Term) -> bool:
        """Mirror the grounder: a guard that cannot be evaluated drops
        the instance, so exclusion on error is exact, not just sound."""
        try:
            return guard.holds({v: term})
        except GroundingError:
            return False

    def _eval_term(self, t: Term, env: Mapping[Variable, Sort]) -> Sort:
        if isinstance(t, Variable):
            return env.get(t, Sort.top())
        if isinstance(t, Constant):
            return Sort(frozenset({t}), None)
        assert isinstance(t, Compound)
        subs = [self._eval_term(a, env) for a in t.args]
        if all(s.is_finite for s in subs):
            size = 1
            for s in subs:
                size *= len(s.values or ())
            if 0 < size <= VALUE_CAP:
                return Sort(
                    frozenset(
                        Compound(t.functor, combo)
                        for combo in itertools.product(
                            *(sorted(s.values or (), key=str) for s in subs)
                        )
                    ),
                    None,
                )
            if size == 0:
                return Sort.bottom()
        depths = [s.depth_bound() for s in subs]
        if any(d is None for d in depths):
            return Sort(None, None)
        return Sort(None, 1 + max([d for d in depths if d is not None], default=0))

    # ------------------------------------------------------------------
    # Cardinalities (after the sorts converge)
    # ------------------------------------------------------------------
    def _sort_size(self, sort: Sort) -> Optional[int]:
        if sort.values is not None:
            return len(sort.values)
        if self.universe is None:
            return None
        if sort.depth is None:
            return len(self.universe.terms)
        bound = sort.depth
        return sum(1 for t in self.universe.terms if term_depth(t) <= bound)

    def _instance_bound(self, r: Rule) -> Optional[int]:
        """Bound on the distinct head instances one rule contributes."""
        env = self._env_for(r)
        if env is None:
            return 0
        head_vars = r.head.variables()
        if not head_vars:
            return 1
        bound = 1
        for v in sorted(head_vars, key=str):
            size = self._sort_size(env.get(v, Sort.top()))
            if size is None:
                return None
            bound *= size
        return bound

    def _fact_lo(self, key: Signed) -> int:
        """Facts no status can suppress: guard-free fact rules for an
        uncontradicted signed predicate.  A contradicted predicate's
        facts can be overruled or defeated (Figure 1's ``fly(penguin)``),
        so they prove nothing."""
        if self._heads_complement(key):
            return 0
        lo = self._edb_sizes.get(key, 0)
        ground_heads: set[Literal] = set()
        for r in self._rules_by_head.get(key, ()):
            if r.body_literals() or r.guards():
                continue
            if r.head.is_ground:
                ground_heads.add(r.head)
            elif self.universe is not None and self.universe.terms:
                # A non-ground fact (the CWA idiom ¬p(X).) grounds to one
                # distinct head per assignment of its head variables.
                lo = max(lo, len(self.universe.terms) ** len(r.head.variables()))
        return max(lo, len(ground_heads))

    def _heads_complement(self, key: Signed) -> bool:
        return _complement(key) in self._heads or _complement(key) in self._edb_sizes

    def _finish_cards(self) -> None:
        for key in self._sorts:
            if not self._derivable[key]:
                self._cards[key] = CardInterval(0, 0)
                continue
            if key[1] == 0:
                self._cards[key] = CardInterval(self._fact_lo(key), 1)
                continue
            product: Optional[int] = 1
            for sort in self._sorts[key]:
                size = self._sort_size(sort)
                if size is None:
                    product = None
                    break
                product *= size
            total: Optional[int] = self._edb_sizes.get(key, 0)
            for r in self._rules_by_head.get(key, ()):
                contribution = self._instance_bound(r)
                if contribution is None:
                    total = None
                    break
                assert total is not None
                total += contribution
            if product is None:
                hi = total
            elif total is None:
                hi = product
            else:
                hi = min(product, total)
            self._cards[key] = CardInterval(self._fact_lo(key), hi)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def keys(self) -> tuple[Signed, ...]:
        return tuple(sorted(self._sorts))

    @property
    def signed_heads(self) -> frozenset[Signed]:
        """Signed predicates headed by at least one rule (or EDB fed)."""
        return frozenset(self._heads) | frozenset(self._edb_sizes)

    def fact_for(self, name: str, arity: int, positive: bool = True) -> PredicateFacts:
        key = (name, arity, positive)
        if key not in self._sorts:
            return PredicateFacts(
                key, False, tuple(Sort.bottom() for _ in range(arity)),
                ("b",) * arity, CardInterval(0, 0), False,
            )
        return PredicateFacts(
            key,
            self._derivable[key],
            tuple(self._sorts[key]),
            tuple("f" if f else "b" for f in self._free[key]),
            self._cards[key],
            key in self._recursive,
        )

    def literal_fact(self, literal: Literal) -> PredicateFacts:
        return self.fact_for(literal.predicate, len(literal.args), literal.positive)

    def proven_empty(self, literal: Literal) -> bool:
        """Is the literal's signed predicate underivable in the least
        model of any view drawn from the analyzed rules?"""
        return not self._derivable.get(_signed(literal), False)

    def admits(self, literal: Literal) -> bool:
        """Could this ground literal appear in a least model?"""
        return self.literal_fact(literal).admits(literal)

    def prune_safe(self, r: Rule) -> bool:
        """True when dropping underivable instances of ``r`` cannot
        change any least model: no rule heads the complement of ``r``'s
        head, so no instance of ``r`` can ever overrule or defeat
        another rule (statuses consult only complementary heads).  The
        grounder applies the same test to the view it grounds."""
        return not self._heads_complement(_signed(r.head))

    def dead_body_literal(self, r: Rule) -> Optional[Literal]:
        """A body literal whose signed predicate is proven empty, if any."""
        for l in r.body_literals():
            if self.proven_empty(l):
                return l
        return None

    def unmatchable_argument(self, r: Rule) -> Optional[tuple[Literal, int, Term]]:
        """A ground body argument outside the inferred sort of a
        *derivable* predicate — the call site can never match."""
        for l in r.body_literals():
            key = _signed(l)
            if not self._derivable.get(key, False):
                continue
            sorts = self._sorts.get(key)
            if sorts is None:
                continue
            for i, arg in enumerate(l.args):
                if arg.is_ground and not sorts[i].admits(arg):
                    return l, i, arg
        return None

    def rule_dead(self, r: Rule) -> bool:
        """Can the rule's body ever hold in a least model?"""
        return self._env_for(r) is None

    def to_dict(self) -> dict[str, object]:
        return {
            "universe_terms": None if self.universe is None else len(self.universe.terms),
            "predicates": [
                self.fact_for(*key).to_dict() for key in self.keys
            ],
        }

    def render(self) -> str:
        lines = []
        for key in self.keys:
            fact = self.fact_for(*key)
            flags = []
            if not fact.derivable:
                flags.append("empty")
            if fact.recursive:
                flags.append("recursive")
            suffix = f" ({', '.join(flags)})" if flags else ""
            sorts = ", ".join(map(str, fact.sorts)) if fact.sorts else "—"
            lines.append(
                f"  {fact.name}: card {fact.card}, modes "
                f"{''.join(fact.modes) or '—'}, sorts [{sorts}]{suffix}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def analyze_rules(
    rules: Iterable[Rule],
    universe: Optional[HerbrandUniverse] = None,
    edb: Iterable[object] = (),
) -> AbstractAnalysis:
    """Analyze a plain rule set (one component, optionally with EDB
    relations — the demand route's shape)."""
    obs = get_instrumentation()
    rules = tuple(rules)
    with obs.span("analysis.abstract", rules=len(rules)):
        return AbstractAnalysis(rules, universe=universe, edb=edb)


def analyze_view(
    program: OrderedProgram,
    component: str,
    max_depth: Optional[int] = None,
) -> AbstractAnalysis:
    """Analyze the view ``C*`` — exactly the rules the grounder sees,
    over the view's own Herbrand universe."""
    rules = tuple(r for _, r in program.visible_rules(component))
    star = Component("_star", rules)
    universe: Optional[HerbrandUniverse]
    try:
        universe = universe_of(star, max_depth=max_depth)
    except GroundingError:
        universe = None
    obs = get_instrumentation()
    with obs.span("analysis.abstract", rules=len(rules), view=component):
        return AbstractAnalysis(rules, universe=universe)


def analyze_whole_program(
    program: OrderedProgram, max_depth: Optional[int] = None
) -> AbstractAnalysis:
    """Analyze every rule of the program at once.

    Every view's rules are a subset of the whole program's, and the
    abstract derivability over-approximation is monotone in the rule
    set, so *negative* whole-program claims (a predicate is underivable,
    a call site never matches) are sound for every component view — the
    form the ``olp check`` diagnostics need.  Per-view ``lo`` bounds are
    not sound from here; use :func:`analyze_view` for those.
    """
    rules = tuple(r for comp in program.components() for r in comp.rules)
    star = Component("_star", rules)
    universe: Optional[HerbrandUniverse]
    try:
        universe = universe_of(star, max_depth=max_depth)
    except GroundingError:
        universe = None
    obs = get_instrumentation()
    with obs.span("analysis.abstract", rules=len(rules)):
        return AbstractAnalysis(rules, universe=universe)
