"""The one oracle: naive ``V`` iterated from ∅ over the full
instantiation (Lemma 1, Theorem 1b), and the Definition 3/7/9 model
sets enumerated over the same ground program.

It is built by hand — :class:`StatusEvaluator` plus
:class:`OrderedTransform` with ``strategy="naive"`` over
``ground_component_star(..., full=True)`` — so no
:class:`OrderedSemantics` decides what it reads.  The model sets are
generate-and-test over objects: every leaf over the atoms the naive
least model leaves undefined (Theorem 1b) is an
:class:`Interpretation`, judged by :class:`ModelChecker` (Definition 3)
and :class:`AssumptionAnalyzer` (Definition 7), never by the
:class:`~repro.core.solver.ModelEnumerator` the search column tests.
:func:`of` computes the oracle once per (row, view) and every column
shares the result.  :func:`diagnose` is Definition 2 read over the same
objects, per rule heading a literal outside the least model.

The serving column's oracle is the serialized replay at the bottom:
the leader's recorded batches re-executed one op at a time through
:meth:`KnowledgeBase.apply_op`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product
from math import prod
from operator import mul

from repro.core.assumptions import AssumptionAnalyzer, literal_closure
from repro.core.interpretation import Interpretation
from repro.core.models import ModelChecker
from repro.core.solver import SearchBudget
from repro.core.statuses import ComponentOrder, StatusEvaluator
from repro.core.transform import OrderedTransform
from repro.grounding.grounder import Grounder
from repro.kb.query import answers_in
from repro.lang.literals import Literal

from .rows import OPTIONS, Row


@dataclass(frozen=True)
class Search:
    """What one generate-and-test found, and the shape of its tree: a
    depth-first search over the same choice lists visits ``leaves``,
    tries ``branches`` options and undoes ``backtracks`` decisions."""

    found: tuple[Interpretation, ...]
    leaves: int
    branches: int
    backtracks: int


def generate_and_test(least, base, choices, accept) -> Search:
    """Every leaf of ``choices`` — per atom, the literals to try,
    ``None`` leaving it undefined — on top of ``least``, in depth-first
    order (the first atom varies slowest); ``accept`` judges each.

    A tree of more leaves than ``SearchBudget().max_leaves``, the bound
    at which the facade's own search refuses, fails the cell before a
    leaf is built: an oracle that would run for hours shows a bug (a row
    left mostly undefined), not a result."""
    widths = list(map(len, choices))
    budget = SearchBudget().max_leaves
    if prod(widths) > budget:
        raise AssertionError(
            f"oracle search over {len(choices)} atoms has {prod(widths)} leaves, "
            f"over SearchBudget().max_leaves = {budget}"
        )
    found = tuple(
        leaf
        for picked in product(*choices)
        for leaf in [Interpretation(least | {l for l in picked if l is not None}, base)]
        if accept(leaf)
    )
    # Level k of the tree has prod(widths[:k]) nodes; each tries all
    # its options and undoes every one that decided a literal.
    above = [1, *accumulate(widths, mul)][:-1]
    decided = [sum(l is not None for l in options) for options in choices]
    return Search(
        found,
        prod(widths),
        sum(n * w for n, w in zip(above, widths)),
        sum(n * d for n, d in zip(above, decided)),
    )


class Oracle:
    """``V↑k(∅)`` for every stage ``k`` of one view, over its full
    instantiation.

    Only the stages, the instance count and (once asked for) the model
    searches outlive the iteration.  :func:`of` keeps every oracle for
    the session, so a column that reads the ground program itself — the
    instances, the evaluator — builds it again with :meth:`instantiate`
    and drops it when its cell is done."""

    def __init__(self, program, view: str, options=OPTIONS) -> None:
        self.program, self.view, self.options = program, view, options
        ground = self.instantiate()
        #: How many rule instances the full instantiation has.
        self.n_rules = len(ground.rules)
        transform = OrderedTransform(self.evaluator(ground), ground.base, strategy="naive")
        current = Interpretation((), ground.base)
        #: ``stages[k]`` is ``V↑k(∅)``; the last one is the least model.
        self.stages = [current]
        while True:
            nxt = transform.step(current)
            if nxt.literals == current.literals:
                break
            self.stages.append(nxt)
            current = nxt

    def instantiate(self):
        """The view's full instantiation, built afresh."""
        grounder = Grounder(self.options)
        return grounder.ground_component_star(self.program, self.view, full=True)

    def evaluator(self, ground=None) -> StatusEvaluator:
        ground = self.instantiate() if ground is None else ground
        order = ComponentOrder(self.program.order)
        return StatusEvaluator(ground.rules, order, atom_table=ground.atom_table)

    @cached_property
    def model_search(self) -> Search:
        """Definition 3: every leaf branched three ways (undefined, true,
        false) over the atoms the least model leaves undefined."""
        ground = self.instantiate()
        checker = ModelChecker(self.evaluator(ground), ground.base)
        choices = [
            (None, Literal(atom, True), Literal(atom, False))
            for atom in sorted(self.model.undefined_atoms(), key=str)
        ]
        return generate_and_test(self.literals, ground.base, choices, checker.is_model)

    @cached_property
    def af_search(self) -> Search:
        """Definition 7, over the head choices: an undefined atom is
        branched only on a sign some rule heads and the literal closure
        of all rules contains (Theorem 1a)."""
        ground = self.instantiate()
        evaluator = self.evaluator(ground)
        checker = ModelChecker(evaluator, ground.base)
        analyzer = AssumptionAnalyzer(evaluator, ground.base)
        undefined = self.model.undefined_atoms()
        possible = literal_closure(evaluator.rules)
        heads = {r.head for r in evaluator.rules if r.head in possible}
        choices = [
            (None, *(l for l in (Literal(atom, True), Literal(atom, False)) if l in heads))
            for atom in sorted({h.atom for h in heads} & undefined, key=str)
        ]
        return generate_and_test(
            self.literals,
            ground.base,
            choices,
            lambda leaf: checker.is_model(leaf) and analyzer.is_assumption_free(leaf),
        )

    @property
    def model(self) -> Interpretation:
        return self.stages[-1]

    @property
    def literals(self) -> frozenset:
        return self.model.literals

    def stage_of(self, literal) -> int:
        """The stage at which ``literal`` first holds."""
        return next(k for k, s in enumerate(self.stages) if literal in s)

    @cached_property
    def stable_models(self) -> list[Interpretation]:
        """Definition 9: the maximal assumption-free models."""
        found = self.af_search.found
        return [m for m in found if not any(m.literals < other.literals for other in found)]


#: Process-wide so that columns in different test modules share it: a
#: row's program never changes, and the oracle is a function of it.
_ORACLES: dict[tuple[str, str], Oracle] = {}


def of(row: Row, view: str) -> Oracle:
    """The oracle of ``row``'s ``view``, computed on first use.

    Raises :class:`InconsistencyError` where ``V`` itself does."""
    key = (row.label, view)
    if key not in _ORACLES:
        _ORACLES[key] = Oracle(row.program, view)
    return _ORACLES[key]


def diagnose(ev: StatusEvaluator, model: Interpretation, literal) -> list[tuple]:
    """Why each rule heading ``literal`` did not establish it in
    ``model``, as ``(reason, rule, witness)`` in rule order: Definition 2
    read over objects, the reference the ``why_not`` column holds the
    explainer to."""
    return [_failure(ev, r, model) for r in ev.rules_with_head(literal)]


def _failure(ev: StatusEvaluator, r, model: Interpretation) -> tuple:
    """A blocking body literal's complement, else a non-blocked
    contradictor strictly below, else one incomparable or equal, else an
    unmet body literal (bodies in literal order)."""
    for body_literal in sorted(r.body):
        if body_literal.complement() in model:
            return ("blocked", r, body_literal.complement())
    kinds = (("overruled", ev.order.strictly_below), ("defeated", ev.order.incomparable_or_equal))
    for reason, kind in kinds:
        for other in ev.contradictors(r):
            if kind(other.component, r.component) and not ev.blocked(other, model):
                return (reason, r, other)
    for body_literal in sorted(r.body):
        if body_literal not in model:
            return ("unmet-body", r, body_literal)
    return ("not fired (no failing condition found)", r, None)


# ----------------------------------------------------------------------
# Serialized replay (the serving column)
# ----------------------------------------------------------------------
def op(request) -> dict:
    """A recorded write request as the op ``KnowledgeBase.apply_op``
    replays."""
    return {
        "op": request.op,
        "view": request.view,
        "rules": request.rules or "",
        "isa": list(request.isa),
    }


def replay(history, kb):
    """Walk a leader's recorded ``(snapshot, batch)`` history, applying
    each batch to ``kb`` before yielding it."""
    for snapshot, batch in history:
        for request in batch:
            kb.apply_op(op(request))
        yield snapshot, batch


def encode(answers, mode: str = "cautious") -> dict:
    """A query reply's result, as the wire encodes it."""
    return {
        "answers": [
            {
                "literal": str(a.literal),
                "bindings": {str(v): str(t) for v, t in a.bindings.items()},
            }
            for a in answers
        ],
        "count": len(answers),
        "mode": mode,
    }


def read(kb, payload: dict) -> dict:
    """A cautious query/ask reply, as the wire encodes it, over the
    serialized knowledge base."""
    answers = answers_in(kb.view(payload["view"]).least_model, payload["pattern"])
    if payload["op"] == "ask":
        return {"holds": bool(answers)}
    return encode(answers)
