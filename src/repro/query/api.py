"""The public demand-evaluation entry points.

A :class:`CompiledDemand` is the demand route of one view, compiled once
from an immutable program value; :func:`demand_read` is how a holder of
such a value (a server snapshot, a knowledge base, an
:class:`~repro.core.semantics.OrderedSemantics`) keeps and asks it, and
:func:`demand_answers` is the compile-then-ask-once form.  All three
answer a literal pattern against one view of an ordered program
*without materializing the least model*, when sound:

* the view must be seminegative and positive-or-stratified
  (:func:`~repro.analysis.static.classify_view`; single-component is
  *not* required — see :func:`_view_unroutable`), because only then
  does the ordered least model coincide with the Horn closure the
  magic-sets rewrite evaluates;
* the goal's cone must be safe and free of recursive function growth
  (:func:`~repro.query.magic.cone_ineligibility`);
* the mode must be cautious — skeptical/credulous entailment consults
  stable models, which demand evaluation does not enumerate.

Anything else returns ``DemandResult(used=False, reason=...)`` and the
caller falls back to full materialization; every fallback increments a
``query.demand.fallback.<reason>`` counter so operators can see *why*
the fast path declined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from ..analysis.abstract import analyze_rules
from ..analysis.static import classify_view
from ..kb.query import Answer
from ..lang.literals import Atom, Literal
from ..lang.parser import parse_literal
from ..lang.program import OrderedProgram
from ..lang.rules import Rule
from ..obs import get_instrumentation
from ..obs.trace import current_trace
from .engine import DemandEngine, JoinPlan
from .magic import DemandIneligible, build_plan, cone_ineligibility, goal_adornment
from .sources import FactSource, MemoryFactSource, UnionFactSource

__all__ = [
    "CompiledDemand",
    "DemandResult",
    "demand_answers",
    "demand_ineligibility",
    "demand_read",
]

#: Fallback reasons that are about the request, not the program.
REASON_MODE = "mode"
REASON_UNROUTABLE = "unroutable"


@dataclass(frozen=True)
class DemandResult:
    """Either the answers, or the reason the demand path declined."""

    answers: Optional[list[Answer]]
    used: bool
    reason: Optional[str] = None
    detail: Optional[str] = None
    #: ``"compiled"`` when this request compiled its goal shape's plan,
    #: ``"hit"`` when it found one, None when no plan was involved.
    plan: Optional[str] = None


def _partition(
    program: OrderedProgram, component: str
) -> tuple[list[Rule], MemoryFactSource]:
    """Split the view into the demandable rule set and the told facts.

    Ground positive facts become a :class:`MemoryFactSource`.  Rules
    carrying a negative body literal are dropped entirely: under the
    membership reading of a seminegative view no negative literal is
    ever derivable, so those rules never fire (see
    :func:`repro.classical.stratified.stratified_least_model`).
    Non-ground facts stay in the rule set so the safety check flags
    them.
    """
    facts = MemoryFactSource()
    rules: list[Rule] = []
    for comp in program.visible_components(component):
        for r in comp.rules:
            if r.is_fact and r.is_ground:
                facts.add(r.head.atom)
            elif all(l.positive for l in r.body_literals()):
                rules.append(r)
    return rules, facts


class _StubRows:
    """A fact source's relation viewed the way
    :meth:`repro.analysis.abstract.AbstractAnalysis._seed_edb` expects:
    ``len()`` is the true cardinality, iteration yields a small sample
    (sort inference only) — never a scan of a disk-backed store."""

    def __init__(self, count: int, sample: list[tuple]) -> None:
        self._count = count
        self._sample = sample

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self._sample)


class _StubRelation:
    def __init__(self, name: str, arity: int, rows: _StubRows) -> None:
        self.name = name
        self.arity = arity
        self.rows = rows


def _cardinality_estimator(rules: Sequence[Rule], source: FactSource):
    """Body-literal cardinality bounds from the abstract interpretation,
    with EDB sizes seeded from the fact sources (sampled, not scanned)."""
    stubs = []
    for name in sorted(source.predicates()):
        arity = source.arity(name)
        if arity is None:
            continue
        stubs.append(
            _StubRelation(
                name, arity, _StubRows(source.count(name), source.sample(name))
            )
        )
    try:
        analysis = analyze_rules(rules, edb=stubs)
    except Exception:
        return lambda literal: None

    def estimate(literal) -> Optional[int]:
        try:
            return analysis.literal_fact(literal).card.hi
        except Exception:
            return None

    return estimate


def _view_unroutable(program: OrderedProgram, component: str) -> Optional[str]:
    """Why the view's least model is not the Horn closure the demand
    rewrite evaluates, or None when it is.

    This is :attr:`~repro.analysis.static.ViewClassification.routable`
    minus the single-component requirement: a seminegative view derives
    no negative literals, hence has no contradictions, hence no
    overruling or defeating *between components either* — the component
    order is inert and ``V_{P,C}`` degenerates to the stratified Horn
    consequence operator over all visible rules, exactly as in
    :func:`repro.classical.stratified.stratified_least_model`.
    """
    info = classify_view(program, component)
    if not info.seminegative:
        return "the view contains negative-head rules"
    if info.classification not in ("positive", "stratified"):
        return f"the view is {info.classification}"
    return None


class CompiledDemand:
    """The demand route of one view, compiled from one program value.

    Everything a request would otherwise re-derive about the *program*
    is worked out here once: the routability verdict, the split into
    demandable rules and told facts (with their
    :class:`MemoryFactSource`), the cardinality estimates (abstract
    analysis seeded from the sources' ``count``/``sample``, read on the
    first plan) and, per goal shape ``(predicate, adornment)``, the
    :class:`~repro.query.engine.JoinPlan` or the reason that shape is
    ineligible.  :meth:`ask` parses the goal, looks the plan up, binds
    the seed and runs; per-run state lives in the
    :class:`~repro.query.engine.DemandEngine` it creates.

    The object is valid for exactly its inputs (:meth:`valid_for`):
    :class:`OrderedProgram` values are immutable, so identity of the
    program covers rules and told facts, and the extra sources must be
    the same objects holding the same ``predicate -> arity`` map.  Rows
    added to a known relation of an attached store are seen anyway —
    they are fetched at run time; only the row counts that order the
    joins may go stale.
    """

    def __init__(
        self,
        program: OrderedProgram,
        component: str,
        sources: Sequence[FactSource] = (),
    ) -> None:
        self.program = program
        self.sources = tuple(sources)
        self._schemas = [dict(source.schema()) for source in self.sources]
        self.unroutable = _view_unroutable(program, component)
        if self.unroutable is not None:
            return
        self.rules, facts = _partition(program, component)
        self.source = UnionFactSource((facts, *self.sources))
        self._schema = self.source.schema()
        self._idb = frozenset(r.head.predicate for r in self.rules)
        self._cardinality: Optional[Callable[[Literal], Optional[int]]] = None
        self._plans: dict[tuple[str, str], Union[JoinPlan, DemandIneligible]] = {}

    def valid_for(
        self, program: OrderedProgram, sources: Sequence[FactSource]
    ) -> bool:
        """Dictionary reads only: no SQL, no walk over the program."""
        return (
            program is self.program
            and len(sources) == len(self.sources)
            and all(
                new is old and new.schema() == schema
                for new, old, schema in zip(sources, self.sources, self._schemas)
            )
        )

    def ineligibility(self) -> Optional[tuple[str, str]]:
        """Why *no* goal against this view can take the demand path
        (``(reason, detail)``), or None."""
        if self.unroutable is not None:
            return (REASON_UNROUTABLE, self.unroutable)
        problem = cone_ineligibility(None, self.rules)
        if problem is not None:
            return (problem.reason, problem.detail)
        return None

    def _plan(self, goal: Literal) -> tuple[Union[JoinPlan, DemandIneligible], bool]:
        """The goal shape's plan (or why it has none), and whether this
        call compiled it."""
        shape = (goal.predicate, goal_adornment(goal))
        plan = self._plans.get(shape)
        if plan is not None:
            return plan, False
        if self._cardinality is None:
            self._cardinality = _cardinality_estimator(self.rules, self.source)
        try:
            plan = JoinPlan(
                build_plan(
                    goal, self.rules, frozenset(self._schema), self._cardinality
                ),
                self._schema.get,
            )
        except DemandIneligible as problem:
            plan = problem
        self._plans[shape] = plan
        return plan, True

    def ask(
        self, pattern: Union[Literal, str], mode: str = "cautious"
    ) -> DemandResult:
        """Answer one goal, or decline with a reason (counted on every
        request as ``query.demand.fallback.<reason>``)."""
        if isinstance(pattern, str):
            # Not through ``kb.query.goal``: a demand goal names one key
            # of a large extensional relation, so its text rarely comes
            # back (``point_query``: 5 % of requests) and remembering it
            # only pins memory.
            pattern = parse_literal(pattern)
        if mode != "cautious":
            return _declined(REASON_MODE, f"mode {mode!r} needs stable models")
        if self.unroutable is not None:
            return _declined(REASON_UNROUTABLE, self.unroutable)
        if not pattern.positive:
            # A routable (seminegative) view derives no negative literals:
            # the least model cannot match a negative pattern.
            return _served([])
        if pattern.predicate not in self._idb:
            # Purely extensional goal: answer straight from the sources.
            return _served(_extensional_answers(pattern, self.source))

        joins, compiled = self._plan(pattern)
        outcome = "compiled" if compiled else "hit"
        get_instrumentation().count(f"query.demand.plan.{outcome}")
        if isinstance(joins, DemandIneligible):
            return _declined(joins.reason, joins.detail, outcome)
        seed = tuple(a for a in pattern.args if a.is_ground)
        rows = DemandEngine(joins, self.source).run(seed)
        return _served(_filter_rows(pattern, rows), outcome)


def _served(answers: list[Answer], plan: Optional[str] = None) -> DemandResult:
    get_instrumentation().count("query.demand.served")
    return DemandResult(answers, True, plan=plan)


def _declined(
    reason: str, detail: Optional[str], plan: Optional[str] = None
) -> DemandResult:
    get_instrumentation().count(f"query.demand.fallback.{reason}")
    return DemandResult(None, False, reason, detail, plan)


def demand_ineligibility(
    program: OrderedProgram, component: str
) -> Optional[tuple[str, str]]:
    """Why *no* goal against this view can take the demand path, or None.

    Goal-independent: used by ``olp check`` for the ``demand-ineligible``
    diagnostic.  Returns ``(reason, detail)`` with reason one of
    ``unroutable`` (unstratified / negative heads), ``unsafe-sips`` or
    ``function-growth``.
    """
    return CompiledDemand(program, component).ineligibility()


def demand_answers(
    program: OrderedProgram,
    component: str,
    pattern: Union[Literal, str],
    mode: str = "cautious",
    *,
    sources: Sequence[FactSource] = (),
) -> DemandResult:
    """Answer a literal pattern goal-directed, or decline with a reason:
    compile the view's demand route, ask it once, drop it.  A caller
    that holds a program value across requests keeps the route instead
    (:func:`demand_read`).

    Args:
        program: the ordered program.
        component: the view to answer in.
        pattern: the goal literal (possibly non-ground).
        mode: only ``"cautious"`` is demandable.
        sources: extra fact sources (attached EDB stores); told ground
            facts of the view are always included.

    Answers are bit-identical to
    ``answers_in(semantics.least_model, pattern)`` whenever
    ``used=True``.
    """
    return CompiledDemand(program, component, sources).ask(pattern, mode)


def demand_read(
    routes: dict[str, CompiledDemand],
    program: OrderedProgram,
    component: str,
    pattern: Union[Literal, str],
    mode: str = "cautious",
    sources: Sequence[FactSource] = (),
) -> Optional[list[Answer]]:
    """Goal-directed answers for a holder of a program value, or None
    when the demand path declined (the caller then materializes).

    ``routes`` is the holder's ``view -> CompiledDemand`` map: the
    view's route is reused while it is valid for ``program`` and
    ``sources`` and replaced the moment it is not.  The active trace,
    if any, is told which route answered and why.
    """
    compiled = routes.get(component)
    if compiled is None or not compiled.valid_for(program, sources):
        compiled = routes[component] = CompiledDemand(program, component, sources)
    result = compiled.ask(pattern, mode)
    ctx = current_trace()
    if ctx is not None:
        fields = {"route": "demand" if result.used else "materialized"}
        if result.plan is not None:
            fields["demand.plan"] = result.plan
        if result.reason is not None:
            fields["demand.fallback"] = result.reason
        ctx.annotate(**fields)
    return result.answers if result.used else None


def _extensional_answers(pattern: Literal, source: FactSource) -> list[Answer]:
    if source.arity(pattern.predicate) != len(pattern.args):
        return []
    fetch_pattern = [a if a.is_ground else None for a in pattern.args]
    return _filter_rows(
        pattern, source.fetch(pattern.predicate, fetch_pattern)
    )


def _filter_rows(pattern: Literal, rows) -> list[Answer]:
    """Rows -> sorted answers, re-matched against the original pattern.

    The re-match is what makes repeated goal variables (``p(X, X)``) and
    compound argument patterns behave exactly like
    :func:`repro.kb.query.answers_in` over the materialized model.
    """
    from ..grounding.substitution import match_atom

    answers = []
    seen = set()
    for row in rows:
        atom = Atom(pattern.predicate, tuple(row))
        if atom in seen:
            continue
        seen.add(atom)
        bindings = match_atom(pattern.atom, atom)
        if bindings is None:
            continue
        answers.append(Answer(Literal(atom, True), bindings))
    return sorted(answers, key=lambda a: str(a.literal))
