"""The demand (magic-sets) transformation over the ordered transform.

When no rule in a goal's cone has a negative head, nothing in the cone
can be blocked, overruled or defeated (Definition 2), so the least
ordered model restricted to the cone is the Horn closure of the cone's
positive-body rules (:func:`negative_head_taint` finds the goals for
which that fails).  That Horn subset is what this module rewrites:

1. **Cone** — the predicates reachable from the goal through rule
   bodies; rules outside the cone can never contribute to an answer.
2. **Eligibility** — every cone rule must be *safe* (head and guard
   variables bound by body literals; non-ground facts are unsafe), and
   no cone rule may build function terms in its head (the grounder's
   Herbrand depth bound has no analogue in goal-directed
   evaluation).  An ineligible cone falls back to materialization with
   a reason the caller turns into an obs counter and the
   ``demand-ineligible`` diagnostic.
3. **Sips** — per rule, body literals are ordered by the one greedy
   :func:`repro.grounding.joins.join_order`: literals connected to the
   already-bound variables first, then — the cost this module passes —
   the smallest cardinality estimate from the abstract interpretation
   (:func:`repro.analysis.abstract.analyze_rules` over the cone, with
   EDB relation sizes seeded from the fact sources).
4. **Adorn + magic** — standard magic sets: each intensional predicate
   splits per binding pattern into an adorned answer predicate guarded
   by a magic predicate; one magic rule per intensional body
   occurrence passes bindings sideways along the sips order.
   Extensional literals stay unadorned — the evaluator fetches their
   rows from a :class:`~repro.query.sources.FactSource` with whatever
   bindings the join prefix has produced.

The output :class:`MagicPlan` is consumed by
:class:`~repro.query.engine.DemandEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..grounding.joins import join_order
from ..lang.builtins import Comparison
from ..lang.literals import Literal
from ..lang.rules import Rule
from ..lang.terms import Compound, Term, Variable

__all__ = [
    "BodyAtom",
    "DemandRule",
    "MagicPlan",
    "DemandIneligible",
    "build_plan",
    "cone_ineligibility",
    "goal_adornment",
    "negative_head_taint",
]

#: Fallback / ineligibility reasons (stable: they name obs counters and
#: feed the ``demand-ineligible`` diagnostic).
UNSAFE_SIPS = "unsafe-sips"
FUNCTION_GROWTH = "function-growth"


class DemandIneligible(Exception):
    """The goal's cone cannot take the demand path.

    Attributes:
        reason: a stable token (``unsafe-sips`` / ``function-growth``).
        detail: a human-readable explanation naming the offender.
    """

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class BodyAtom:
    """One ordered body element of a rewritten rule.

    ``kind`` is ``"magic"`` (a demand guard), ``"idb"`` (an adorned
    intensional literal) or ``"edb"`` (an extensional literal fetched
    from a fact source).  ``adornment`` is empty for ``edb``.
    """

    kind: str
    predicate: str
    adornment: str
    args: tuple[Term, ...]

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.kind, self.predicate, self.adornment)


@dataclass(frozen=True)
class DemandRule:
    """One rewritten rule: adorned-or-magic head, sips-ordered body."""

    head_key: tuple[str, str, str]
    head_args: tuple[Term, ...]
    body: tuple[BodyAtom, ...]
    guards: tuple[Comparison, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        kind, pred, ad = self.head_key
        head = f"{kind}:{pred}^{ad}({', '.join(map(str, self.head_args))})"
        body = ", ".join(
            f"{b.kind}:{b.predicate}^{b.adornment}"
            f"({', '.join(map(str, b.args))})"
            for b in self.body
        )
        return f"{head} :- {body}."


@dataclass
class MagicPlan:
    """A compiled demand program for one goal."""

    goal: Literal
    adornment: str
    rules: tuple[DemandRule, ...]
    #: Extensional predicates (fetched from a fact source).
    edb: frozenset[str]
    #: Intensional predicates that *also* have extensional rows — the
    #: evaluator bridges source rows into the adorned store on demand.
    bridged: frozenset[str]
    #: The magic seed: the goal's bound arguments.
    seed: tuple[Term, ...] = field(default=())

    @property
    def answer_key(self) -> tuple[str, str, str]:
        return ("idb", self.goal.predicate, self.adornment)


def goal_adornment(goal: Literal) -> str:
    """``b``/``f`` per argument: bound when the argument is ground."""
    return "".join("b" if a.is_ground else "f" for a in goal.args)


def _safety_violation(rule: Rule) -> Optional[str]:
    """Why a Horn rule cannot be evaluated goal-directed, or None."""
    bound: frozenset[Variable] = frozenset()
    for lit in rule.body_literals():
        bound |= lit.variables()
    loose = rule.head.variables() - bound
    if loose:
        names = ", ".join(sorted(v.name for v in loose))
        return (
            f"head variable(s) {names} of `{rule}` are not bound by any "
            "body literal"
        )
    for guard in rule.guards():
        if guard.variables() - bound:
            return f"guard {guard} of `{rule}` has unbound variables"
    return None


def _head_grows_functions(rule: Rule) -> bool:
    return any(isinstance(a, Compound) for a in rule.head.args)


def _cone(
    goal_pred: Optional[str], rules_by_pred: dict[str, list[Rule]]
) -> tuple[frozenset[str], list[Rule]]:
    """Predicates and rules reachable from the goal through bodies.
    ``goal_pred=None`` means the whole program (every head predicate)."""
    seen: set[str] = set()
    stack = (
        [goal_pred] if goal_pred is not None else sorted(rules_by_pred)
    )
    cone_rules: list[Rule] = []
    while stack:
        pred = stack.pop()
        if pred in seen:
            continue
        seen.add(pred)
        for r in rules_by_pred.get(pred, ()):
            cone_rules.append(r)
            for lit in r.body_literals():
                if lit.predicate not in seen:
                    stack.append(lit.predicate)
    return frozenset(seen), cone_rules


def negative_head_taint(rules: Iterable[Rule]) -> dict[str, str]:
    """Every predicate whose cone reaches a rule with a negative head,
    mapped to one negative-head predicate it reaches (itself, when it
    heads one).  The cone runs over all of ``rules``, negative body
    literals included, and is keyed by predicate name as :func:`_cone`
    is: ``¬p`` heads and ``¬p`` body literals file under ``p``."""
    users: dict[str, set[str]] = {}
    taint: dict[str, str] = {}
    for r in rules:
        if not r.head.positive:
            taint[r.head.predicate] = r.head.predicate
        for lit in r.body_literals():
            users.setdefault(lit.predicate, set()).add(r.head.predicate)
    for origin in sorted(taint):
        stack = [origin]
        while stack:
            for user in users.get(stack.pop(), ()):
                if user not in taint:
                    taint[user] = origin
                    stack.append(user)
    return taint


def cone_ineligibility(
    goal_pred: Optional[str], rules: Sequence[Rule]
) -> Optional[DemandIneligible]:
    """The reason the goal's cone cannot take the demand path, or None.

    ``rules`` are the view's *intensional* Horn rules (ground facts
    excluded); ``goal_pred=None`` checks the whole program (the
    goal-independent form behind the ``demand-ineligible`` diagnostic).
    Checked: safety of every cone rule, and function growth in
    recursive cone predicates.
    """
    rules_by_pred: dict[str, list[Rule]] = {}
    for r in rules:
        rules_by_pred.setdefault(r.head.predicate, []).append(r)
    _, cone_rules = _cone(goal_pred, rules_by_pred)
    for r in cone_rules:
        violation = _safety_violation(r)
        if violation is not None:
            return DemandIneligible(UNSAFE_SIPS, violation)
    # Function growth: a rule that *builds* compound terms in its head
    # derives instances the depth-bounded Herbrand grounder may not
    # enumerate (and recursion makes the demanded set unbounded), so
    # answers could diverge from the materialized model.  Compound
    # *patterns* in bodies are fine — they only match existing data.
    for r in cone_rules:
        if _head_grows_functions(r):
            return DemandIneligible(
                FUNCTION_GROWTH,
                f"rule `{r}` builds function terms in its head",
            )
    return None


def _cardinality_cost(
    literals: Sequence[Literal], cardinality: Callable[[Literal], Optional[int]]
) -> Callable[[int, bool], float]:
    """The sips cost handed to ``join_order``: the smallest cardinality
    bound first, a literal without one last."""
    estimates = [cardinality(lit) for lit in literals]
    return lambda i, _: float("inf") if estimates[i] is None else estimates[i]


def _adorn(args: Sequence[Term], bound: set[Variable]) -> str:
    return "".join(
        "b" if a.is_ground or a.variables() <= bound else "f" for a in args
    )


def _bound_args(args: Sequence[Term], adornment: str) -> tuple[Term, ...]:
    return tuple(a for a, b in zip(args, adornment) if b == "b")


def build_plan(
    goal: Literal,
    rules: Sequence[Rule],
    edb_predicates: frozenset[str],
    cardinality: Callable[[Literal], Optional[int]],
) -> MagicPlan:
    """Compile the magic/adorned program demanded by one goal.

    Args:
        goal: the (positive) goal literal pattern.
        rules: the view's intensional Horn rules.
        edb_predicates: predicates with extensional rows in the fact
            source (told facts and/or an attached EDB store).
        cardinality: body-literal cardinality estimates driving sips.

    Raises:
        DemandIneligible: when the goal's cone is unsafe or grows
            function terms recursively.
    """
    rules_by_pred: dict[str, list[Rule]] = {}
    for r in rules:
        rules_by_pred.setdefault(r.head.predicate, []).append(r)
    ineligible = cone_ineligibility(goal.predicate, rules)
    if ineligible is not None:
        raise ineligible

    idb = set(rules_by_pred)
    adornment = goal_adornment(goal)
    out: list[DemandRule] = []
    todo: list[tuple[str, str]] = [(goal.predicate, adornment)]
    done: set[tuple[str, str]] = set()
    while todo:
        pred, ad = todo.pop()
        if (pred, ad) in done:
            continue
        done.add((pred, ad))
        for r in rules_by_pred.get(pred, ()):
            bound_vars: set[Variable] = set()
            for arg, b in zip(r.head.args, ad):
                if b == "b":
                    bound_vars |= arg.variables()
            literals = r.body_literals()
            order = join_order(
                [lit.variables() for lit in literals],
                range(len(literals)),
                bound_vars,
                _cardinality_cost(literals, cardinality),
            )
            magic_head = BodyAtom(
                "magic", pred, ad, _bound_args(r.head.args, ad)
            )
            body: list[BodyAtom] = [magic_head]
            seen = set(bound_vars)
            for i in order:
                lit = literals[i]
                if lit.predicate in idb:
                    sub_ad = _adorn(lit.args, seen)
                    # Magic rule: demand for this body occurrence is
                    # the join prefix before it.
                    out.append(
                        DemandRule(
                            ("magic", lit.predicate, sub_ad),
                            _bound_args(lit.args, sub_ad),
                            tuple(body),
                        )
                    )
                    todo.append((lit.predicate, sub_ad))
                    body.append(
                        BodyAtom("idb", lit.predicate, sub_ad, lit.args)
                    )
                else:
                    body.append(BodyAtom("edb", lit.predicate, "", lit.args))
                seen |= lit.variables()
            out.append(
                DemandRule(
                    ("idb", pred, ad),
                    tuple(r.head.args),
                    tuple(body),
                    r.guards(),
                )
            )
    bridged = frozenset(p for p, _ in done) & edb_predicates
    return MagicPlan(
        goal=goal,
        adornment=adornment,
        rules=tuple(out),
        edb=edb_predicates - idb,
        bridged=bridged,
        seed=_bound_args(goal.args, adornment),
    )
