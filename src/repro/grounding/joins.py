"""The compiled join: one semi-naive join machine under two drivers.

The possible-literal set relevance grounding joins against is the least
fixpoint of the immediate-consequence operator ``T`` over the view read
as a positive program; the demand route evaluates that same ``T`` over
the magic-rewritten Horn fragment.  Both — and the instantiation of a
rule into ground instances — are a rule body joined against relations
of ground rows, so both run on the one machine defined here:

* :func:`compile_join` turns a rule into a :class:`Join`: variables
  numbered into slots, a :class:`Match` for the row that woke the rule,
  and the other body atoms as :class:`JoinStep` s in the order
  :func:`join_order` chose, each guard filed under the step that binds
  its last variable.
* :class:`JoinMachine` is one run: the row store and its indexes, the
  worklist, the recursive runner, guard evaluation, the probe counters.
  What happens to a completed binding is the driver's ``sink``.

:class:`~repro.query.engine.DemandEngine` drives it with magic seeds
and a fetch memo; :class:`~repro.grounding.grounder.Grounder`
drives it twice — the possible-literal fixpoint, then instantiation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, NamedTuple, Optional, Sequence

from ..lang.builtins import Comparison
from ..lang.errors import GroundingError
from ..lang.terms import Compound, Term, Variable

__all__ = [
    "Join",
    "JoinMachine",
    "JoinStep",
    "Match",
    "Scan",
    "compile_join",
    "join_order",
    "row_builder",
]

Row = tuple[Term, ...]
_NONE: dict = {}

# ----------------------------------------------------------------------
# Terms compiled against a rule's variable slots
# ----------------------------------------------------------------------
# A *builder* ``(kind, payload)`` produces a ground term from the slots:
_SLOT = 0  # payload: slot number
_CONST = 1  # payload: the ground term itself
_BUILD = 2  # payload: (functor, builders) of a compound with variables
# A *matcher* consumes one ground value.  A variable's first occurrence
# writes its slot (``Match.binds``); everything else is a check:
_SAME = 3  # payload: slot number the value must equal (repeated variable)
_EQUAL = 4  # payload: ground term the value must equal
_UNPACK = 5  # payload: (functor, arity, matchers) of a compound pattern
_BIND = 6  # payload: slot number (a first occurrence inside a compound)

Op = tuple[int, object]


def _builder(term: Term, slots: dict[Variable, int]) -> Op:
    if isinstance(term, Variable):
        return (_SLOT, slots[term])
    if term.is_ground:
        return (_CONST, term)
    assert isinstance(term, Compound)
    return (_BUILD, (term.functor, tuple(_builder(a, slots) for a in term.args)))


def _build(op: Op, env: list) -> Term:
    kind, payload = op
    if kind == _SLOT:
        return env[payload]
    if kind == _CONST:
        return payload
    functor, args = payload
    return Compound(functor, tuple(_build(a, env) for a in args))


def row_builder(
    terms: Sequence[Term], slots: dict[Variable, int]
) -> Callable[[list], Row]:
    """Compile building a row of ground terms from the slots.  A row of
    plain variables — what a join key or a head mostly is — is read
    straight out of the slots."""
    ops = tuple(_builder(term, slots) for term in terms)
    if not ops:
        return lambda env: ()
    if all(kind == _SLOT for kind, _ in ops):
        if len(ops) > 1:
            return itemgetter(*(slot for _, slot in ops))
        slot = ops[0][1]
        return lambda env: (env[slot],)
    return lambda env: tuple(
        [env[op[1]] if op[0] == _SLOT else _build(op, env) for op in ops]
    )


def _matcher(term: Term, slots: dict[Variable, int], bound: set[Variable]) -> Op:
    """Compile matching one value against ``term``; variables met for
    the first time join ``bound``."""
    if isinstance(term, Variable):
        if term in bound:
            return (_SAME, slots[term])
        bound.add(term)
        return (_BIND, slots[term])
    if term.is_ground:
        return (_EQUAL, term)
    assert isinstance(term, Compound)
    return (
        _UNPACK,
        (
            term.functor,
            len(term.args),
            tuple(_matcher(a, slots, bound) for a in term.args),
        ),
    )


def _check(op: Op, value: Term, env: list) -> bool:
    kind, payload = op
    if kind == _BIND:
        env[payload] = value
        return True
    if kind == _SAME:
        return env[payload] == value
    if kind == _EQUAL:
        return payload == value
    functor, arity, args = payload
    return (
        isinstance(value, Compound)
        and value.functor == functor
        and len(value.args) == arity
        and all(_check(a, v, env) for a, v in zip(args, value.args))
    )


@dataclass(frozen=True)
class Match:
    """Matching a row against some argument positions of a body atom:
    ``binds`` are ``(position, slot)`` first occurrences of a variable
    (written unconditionally), ``checks`` are ``(position, matcher)``
    for everything that can fail, in position order."""

    binds: tuple[tuple[int, int], ...]
    checks: tuple[tuple[int, Op], ...]

    @classmethod
    def compile(
        cls,
        args: Sequence[Term],
        positions: Sequence[int],
        slots: dict[Variable, int],
        bound: set[Variable],
    ) -> "Match":
        binds = []
        checks = []
        for position in positions:
            op = _matcher(args[position], slots, bound)
            if op[0] == _BIND:
                binds.append((position, op[1]))
            else:
                checks.append((position, op))
        return cls(tuple(binds), tuple(checks))

    def apply(self, row: Row, env: list) -> bool:
        for position, slot in self.binds:
            env[slot] = row[position]
        for position, op in self.checks:
            if not _check(op, row[position], env):
                return False
        return True


# ----------------------------------------------------------------------
# Compiled rules
# ----------------------------------------------------------------------
class Scan(NamedTuple):
    """One body atom as the compiler sees it: the relation it reads —
    a store key, or whatever the machine's ``fetch`` is keyed by when
    the rows come from a fact source — and its argument patterns."""

    relation: Hashable
    args: tuple[Term, ...]
    fetched: bool = False


#: Step kinds: where a step's candidate rows come from.
PROBE, MEMBER, FETCH, UNIVERSE = range(4)


@dataclass(frozen=True)
class JoinStep:
    """One binding step of a join, with its bound/free shape resolved.

    ``positions`` are the argument positions the join order has bound
    by the time the step runs and ``key`` builds their values; the free
    positions are matched by ``rest``.  A ``UNIVERSE`` step has no
    relation: its rows are the Herbrand universe, one term each, and
    ``rest`` binds the one variable it ranges.  ``guards`` are the
    comparisons whose last variable this step binds.
    """

    kind: int
    relation: Hashable
    positions: tuple[int, ...]
    key: Callable[[list], tuple]
    rest: Match
    guards: tuple[Comparison, ...]


@dataclass(frozen=True)
class Join:
    """A rule compiled for one way of waking it: by a new row arriving
    at one body atom (``trigger``), or by nothing (None)."""

    #: The relation the head belongs to, and the builder of its row.
    target: Hashable
    head: Callable[[list], Row]
    #: The rule's variables -> their slots, in slot order.
    slots: dict[Variable, int]
    trigger: Optional[Match]
    #: Guards decidable before the first step.
    first: tuple[Comparison, ...]
    steps: tuple[JoinStep, ...]


def join_order(
    variables: Sequence[frozenset[Variable]],
    candidates: Sequence[int],
    bound: set[Variable],
    cost: Callable[[int, bool], object],
) -> list[int]:
    """The one greedy ordering of body atoms: those sharing a variable
    with what is already bound (or having none) first, then the cheapest
    by the caller's ``cost(position, fully bound?)``, then textual
    position."""
    bound = set(bound)
    remaining = list(candidates)
    order = []
    while remaining:
        best = min(
            remaining,
            key=lambda i: (
                bool(variables[i]) and not variables[i] & bound,
                cost(i, variables[i] <= bound),
                i,
            ),
        )
        remaining.remove(best)
        order.append(best)
        bound |= variables[best]
    return order


def compile_join(
    target: Hashable,
    head: Sequence[Term],
    body: Sequence[Scan],
    guards: Sequence[Comparison],
    cost: Callable[[int, bool], object],
    trigger: Optional[int] = None,
    universe: Sequence[Variable] = (),
) -> Join:
    """Compile a rule woken through body position ``trigger`` (None: by
    nothing).  The other atoms of ``body`` are joined in
    :func:`join_order` under ``cost``; each of the ``universe`` variables
    they leave unbound then ranges over the Herbrand universe, in the
    order given."""
    slots: dict[Variable, int] = {}
    for scan in body:
        for arg in scan.args:
            for variable in sorted(arg.variables(), key=lambda v: v.name):
                slots.setdefault(variable, len(slots))
    for variable in universe:
        slots.setdefault(variable, len(slots))
    bound: set[Variable] = set()
    pending = list(guards)

    def due() -> tuple[Comparison, ...]:
        ready = tuple(g for g in pending if g.variables() <= bound)
        for g in ready:
            pending.remove(g)
        return ready

    woken = None
    if trigger is not None:
        args = body[trigger].args
        woken = Match.compile(args, range(len(args)), slots, bound)
    first = due()
    steps = []
    variables = [
        frozenset().union(*(a.variables() for a in scan.args)) for scan in body
    ]
    others = [i for i in range(len(body)) if i != trigger]
    for i in join_order(variables, others, bound, cost):
        relation, args, fetched = body[i]
        positions = tuple(p for p, arg in enumerate(args) if arg.variables() <= bound)
        free = [p for p in range(len(args)) if p not in positions]
        key = row_builder([args[p] for p in positions], slots)
        rest = Match.compile(args, free, slots, bound)
        kind = FETCH if fetched else PROBE if free else MEMBER
        steps.append(JoinStep(kind, relation, positions, key, rest, due()))
    for variable in universe:
        if variable not in bound:
            bound.add(variable)
            ranged = Match(((0, slots[variable]),), ())
            steps.append(
                JoinStep(UNIVERSE, None, (), row_builder((), slots), ranged, due())
            )
    return Join(target, row_builder(head, slots), slots, woken, first, tuple(steps))


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class JoinMachine:
    """The state of one run — stored relations with their indexes, the
    worklist of rows no rule has been woken with yet, the probe
    counters — and the runner of compiled joins against it.

    Args:
        universe: the terms ``UNIVERSE`` steps range over.
    """

    def __init__(self, universe: Sequence[Term] = ()) -> None:
        self.universe = tuple([(term,) for term in universe])
        #: relation -> its rows, in derivation order.
        self.rows: dict[Hashable, dict[Row, None]] = {}
        #: relation -> positions -> key values -> rows, in derivation order.
        self.index: dict[Hashable, dict[tuple, dict[tuple, list[Row]]]] = {}
        #: New ``(relation, row)`` pairs, for the driver to wake rules with.
        self.worklist: deque[tuple[Hashable, Row]] = deque()
        #: Candidate rows offered to a match (a trigger, a joined row, a
        #: universe term) — the grounder's ``substitutions_tried``.
        self.probes = 0
        self.guard_pruned = 0

    def add(self, relation: Hashable, row: Row) -> bool:
        """Insert and queue; False when the row was already there."""
        rows = self.rows.get(relation)
        if rows is None:
            rows = self.rows[relation] = {}
        elif row in rows:
            return False
        rows[row] = None
        self.worklist.append((relation, row))
        for positions, index in self.index.get(relation, _NONE).items():
            index.setdefault(tuple([row[p] for p in positions]), []).append(row)
        return True

    def fetch(self, relation: Any, positions: tuple, key: tuple) -> Sequence[Row]:
        """A ``FETCH`` step's rows: those a fact source holds with ``key``
        at ``positions``.  For the driver that compiles such steps."""
        raise NotImplementedError

    def derive(self, join: Join, env: list) -> None:
        """The sink of a fixpoint run: the head row joins its relation."""
        self.add(join.target, join.head(env))

    def _indexed(self, relation: Hashable, positions: tuple[int, ...]) -> dict:
        """Index the relation on ``positions``: on the first probe of
        that shape, from the rows so far; :meth:`add` keeps it current."""
        index = self.index.setdefault(relation, {})[positions] = {}
        for row in self.rows.get(relation, ()):
            index.setdefault(tuple([row[p] for p in positions]), []).append(row)
        return index

    def holds(
        self, guards: Sequence[Comparison], variables: Iterable[Variable], env: Sequence
    ) -> bool:
        """Evaluate guards under the slots' values.  A guard that cannot
        be evaluated (symbolic operand, division by zero) is false, so
        the instance is dropped rather than the run crashing on e.g.
        ``penguin > 11``; any other exception is a bug and surfaces."""
        bindings = dict(zip(variables, env))
        for guard in guards:
            try:
                if guard.holds(bindings):
                    continue
            except GroundingError:
                pass
            self.guard_pruned += 1
            return False
        return True

    def fire(self, join: Join, row: Row, sink: Callable) -> bool:
        """Wake ``join`` with ``row`` (ignored by a join without trigger)
        and hand ``sink(join, env)`` every completed binding; False when
        the row does not match the trigger."""
        env: list = [None] * len(join.slots)
        if join.trigger is not None:
            self.probes += 1
            if not join.trigger.apply(row, env):
                return False
        if not join.first or self.holds(join.first, join.slots, env):
            self._step(join, 0, env, sink)
        return True

    def _step(self, join: Join, depth: int, env: list, sink: Callable) -> None:
        """Run the join's steps from ``depth`` on, then the sink."""
        if depth == len(join.steps):
            sink(join, env)
            return
        step = join.steps[depth]
        kind = step.kind
        key = step.key(env)
        if kind == PROBE:
            # Rows a deeper sink appends to this bucket while it is being
            # walked are joined here too; they are on the worklist as
            # well, and derivation is idempotent.
            index = self.index.get(step.relation, _NONE).get(step.positions)
            if index is None:
                index = self._indexed(step.relation, step.positions)
            rows = index.get(key, ())
        elif kind == FETCH:
            rows = self.fetch(step.relation, step.positions, key)
        elif kind == MEMBER:
            if key in self.rows.get(step.relation, ()):
                self.probes += 1
                self._step(join, depth + 1, env, sink)
            return
        else:
            rows = self.universe
        self.probes += len(rows)
        rest = step.rest
        guards = step.guards
        depth += 1
        for row in rows:
            if rest.apply(row, env) and (
                not guards or self.holds(guards, join.slots, env)
            ):
                self._step(join, depth, env, sink)
