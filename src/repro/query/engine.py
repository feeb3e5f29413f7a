"""Semi-naive evaluation of a compiled :class:`~repro.query.magic.MagicPlan`.

Two halves with different lifetimes:

* :class:`JoinPlan` is compiled once per goal shape and shared by every
  request of that shape.  For each ``(rule, trigger position)`` — a
  stored (magic/idb) body atom a newly derived row can arrive at — it
  holds a :class:`Firing`: the rule's variables numbered into slots, a
  matcher for the delta row, and the remaining body atoms in a join
  order that *starts from the variables the delta row binds* (fully
  bound atoms first, then connected ones).  Each step knows at compile
  time which argument positions that order has bound, so a stored
  relation is probed through a hash index on exactly those positions
  and an extensional atom is fetched with exactly that pattern.
* :class:`DemandEngine` is one run: row sets, their indexes, the
  worklist, the fetch memo and the cost counters live here and die
  with it.

Extensional literals are never stored: each step fetches exactly the
rows its bound positions constrain from the
:class:`~repro.query.sources.FactSource`, each distinct pattern at most
once per run — a ground goal over a 10M-fact EDB touches the handful
of tuples its magic predicates request.

Bridging: an intensional predicate may *also* have extensional rows
(told facts, or an attached EDB store shadowing a derived relation).
When a magic row for such a predicate is derived, the matching source
rows are pulled straight into its adorned answer set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..lang.builtins import Comparison
from ..lang.errors import GroundingError
from ..lang.terms import Compound, Term, Variable
from ..obs import get_instrumentation
from ..obs.trace import current_trace
from .magic import BodyAtom, DemandRule, MagicPlan
from .sources import FactSource, Row

__all__ = ["DemandEngine", "JoinPlan"]

Key = tuple[str, str, str]

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


@dataclass(frozen=True)
class JoinStep:
    """One body atom of a firing, with its bound/free shape resolved.

    ``positions`` are the argument positions the join order has bound
    by the time the step runs and ``key`` builds their values; the free
    positions are matched by ``rest``.  ``stored`` is the relation key
    of a magic/idb atom (None for an extensional one).  A stored atom
    with every position bound is a membership test (``member``).
    """

    predicate: str
    arity: int
    stored: Optional[Key]
    positions: tuple[int, ...]
    key: tuple[Op, ...]
    rest: Match
    member: bool


@dataclass(frozen=True)
class Firing:
    """A rule fired by a delta row arriving at one stored body atom."""

    head_key: Key
    head: tuple[Op, ...]
    slots: int
    trigger: Match
    steps: tuple[JoinStep, ...]
    guards: tuple[Comparison, ...]
    #: Slot order, for the bindings a guard is evaluated under.
    variables: tuple[Variable, ...]


@dataclass(frozen=True)
class Bridge:
    """Source rows of a bridged predicate, pulled in per magic row."""

    predicate: str
    arity: int
    positions: tuple[int, ...]
    target: Key


def _join_order(body: Sequence[BodyAtom], trigger: int) -> list[int]:
    """The other body positions, delta-first: atoms the bound variables
    fully determine, then atoms sharing a variable with them — the magic
    guard last among those, since every variable of it occurs elsewhere
    in the body and it is a membership test once they are bound — the
    sips order breaking ties."""
    variables = [
        frozenset().union(*(a.variables() for a in atom.args)) for atom in body
    ]
    bound = set(variables[trigger])
    remaining = [i for i in range(len(body)) if i != trigger]
    order = []
    while remaining:
        best = min(
            remaining,
            key=lambda i: (
                not variables[i] <= bound,
                not variables[i] & bound,
                body[i].kind == "magic",
                i,
            ),
        )
        remaining.remove(best)
        order.append(best)
        bound |= variables[best]
    return order


class JoinPlan:
    """The join orders and index shapes of one :class:`MagicPlan`,
    compiled against the fact sources' ``predicate -> arity`` map.

    Immutable after construction and free of per-run state: any number
    of :class:`DemandEngine` runs may share it.
    """

    def __init__(
        self, plan: MagicPlan, arity: Callable[[str], Optional[int]]
    ) -> None:
        self.plan = plan
        self.goal_key: Key = ("magic", plan.goal.predicate, plan.adornment)
        triggers: dict[Key, list[Firing]] = {}
        indexes: dict[Key, set[tuple[int, ...]]] = {}
        for rule in plan.rules:
            if any(
                atom.kind == "edb" and arity(atom.predicate) != len(atom.args)
                for atom in rule.body
            ):
                # An extensional atom the sources hold at another arity
                # (or not at all) matches no row: the rule never fires.
                continue
            for position, atom in enumerate(rule.body):
                if atom.kind == "edb":
                    continue
                firing = self._firing(rule, position)
                triggers.setdefault(atom.key, []).append(firing)
                for step in firing.steps:
                    if step.stored is not None and not step.member:
                        indexes.setdefault(step.stored, set()).add(step.positions)
        #: stored key -> the firings a new row of that relation triggers.
        self.triggers = {key: tuple(fs) for key, fs in triggers.items()}
        #: stored key -> the position tuples its rows are indexed on.
        self.indexes = {key: tuple(sorted(ps)) for key, ps in indexes.items()}
        #: magic key -> the bridge its rows drive.
        self.bridges: dict[Key, Bridge] = {}
        heads = {rule.head_key for rule in plan.rules}
        for kind, predicate, adornment in heads | {self.goal_key}:
            if kind != "magic" or predicate not in plan.bridged:
                continue
            if arity(predicate) != len(adornment):
                continue
            self.bridges[(kind, predicate, adornment)] = Bridge(
                predicate,
                len(adornment),
                tuple(i for i, b in enumerate(adornment) if b == "b"),
                ("idb", predicate, adornment),
            )

    @staticmethod
    def _firing(rule: DemandRule, trigger: int) -> Firing:
        slots: dict[Variable, int] = {}
        for atom in rule.body:
            for arg in atom.args:
                for variable in sorted(arg.variables(), key=lambda v: v.name):
                    slots.setdefault(variable, len(slots))
        bound: set[Variable] = set()
        delta = rule.body[trigger]
        trigger_match = Match.compile(
            delta.args, range(len(delta.args)), slots, bound
        )
        steps = []
        for i in _join_order(rule.body, trigger):
            atom = rule.body[i]
            positions = tuple(
                p for p, arg in enumerate(atom.args) if arg.variables() <= bound
            )
            free = [p for p in range(len(atom.args)) if p not in positions]
            steps.append(
                JoinStep(
                    predicate=atom.predicate,
                    arity=len(atom.args),
                    stored=None if atom.kind == "edb" else atom.key,
                    positions=positions,
                    key=tuple(_builder(atom.args[p], slots) for p in positions),
                    rest=Match.compile(atom.args, free, slots, bound),
                    member=atom.kind != "edb" and not free,
                )
            )
        return Firing(
            head_key=rule.head_key,
            head=tuple(_builder(a, slots) for a in rule.head_args),
            slots=len(slots),
            trigger=trigger_match,
            steps=tuple(steps),
            guards=rule.guards,
            variables=tuple(slots),
        )


class DemandEngine:
    """One run of a :class:`JoinPlan` against a fact source: ``run(seed)``
    returns the answer rows of the goal whose bound arguments are
    ``seed``."""

    def __init__(self, joins: JoinPlan, source: FactSource) -> None:
        self.joins = joins
        self.source = source
        self.total: dict[Key, set[Row]] = {}
        #: (stored key, positions) -> key values -> rows, in derivation order.
        self.index: dict[tuple[Key, tuple[int, ...]], dict[tuple, list[Row]]] = {
            (key, positions): {}
            for key, shapes in joins.indexes.items()
            for positions in shapes
        }
        self.worklist: deque[tuple[Key, Row]] = deque()
        #: (predicate, positions, key values) -> the rows fetched for it.
        self.fetched: dict[tuple, tuple[Row, ...]] = {}
        self.rows_derived = 0
        self.rows_fetched = 0
        self.firings = 0

    def run(self, seed: Row) -> set[Row]:
        obs = get_instrumentation()
        joins = self.joins
        plan = joins.plan
        with obs.span(
            "query.demand",
            goal=plan.goal.predicate,
            adornment=plan.adornment or "()",
            rules=len(plan.rules),
        ):
            self._add(joins.goal_key, seed)
            worklist = self.worklist
            while worklist:
                key, row = worklist.popleft()
                bridge = joins.bridges.get(key)
                if bridge is not None:
                    for fetched in self._fetch(
                        bridge.predicate, bridge.arity, bridge.positions, row
                    ):
                        self._add(bridge.target, fetched)
                for firing in joins.triggers.get(key, ()):
                    env: list = [None] * firing.slots
                    if firing.trigger.apply(row, env):
                        self.firings += 1
                        self._join(firing, 0, env)
        if obs.enabled:
            obs.count("query.demand.rows", self.rows_derived)
            obs.count("query.demand.fetched", self.rows_fetched)
        ctx = current_trace()
        if ctx is not None:
            ctx.add_cost(
                demand_rows=self.rows_derived,
                demand_fetched=self.rows_fetched,
                demand_firings=self.firings,
            )
        return self.total.get(plan.answer_key, set())

    # -- derivation ----------------------------------------------------

    def _add(self, key: Key, row: Row) -> None:
        rows = self.total.get(key)
        if rows is None:
            rows = self.total[key] = set()
        elif row in rows:
            return
        rows.add(row)
        self.rows_derived += 1
        self.worklist.append((key, row))
        for positions in self.joins.indexes.get(key, ()):
            self.index[key, positions].setdefault(
                tuple([row[p] for p in positions]), []
            ).append(row)

    def _fetch(
        self, predicate: str, arity: int, positions: tuple[int, ...], key: tuple
    ) -> tuple[Row, ...]:
        """Source rows with ``key`` at ``positions``, fetched once per run."""
        memo = (predicate, positions, key)
        rows = self.fetched.get(memo)
        if rows is None:
            pattern: list[Optional[Term]] = [None] * arity
            for position, value in zip(positions, key):
                pattern[position] = value
            rows = self.fetched[memo] = tuple(self.source.fetch(predicate, pattern))
            self.rows_fetched += len(rows)
        return rows

    def _join(self, firing: Firing, depth: int, env: list) -> None:
        """Run the firing's steps from ``depth`` on, then emit."""
        if depth == len(firing.steps):
            self._emit(firing, env)
            return
        step = firing.steps[depth]
        key = tuple(
            [env[op[1]] if op[0] == _SLOT else _build(op, env) for op in step.key]
        )
        if step.stored is None:
            rows = self._fetch(step.predicate, step.arity, step.positions, key)
        elif step.member:
            if key in self.total.get(step.stored, ()):
                self._join(firing, depth + 1, env)
            return
        else:
            # Rows a deeper emit appends to this bucket while it is being
            # walked are joined here too; they are on the worklist as
            # well, and derivation is idempotent.
            rows = self.index[step.stored, step.positions].get(key, ())
        rest = step.rest
        for row in rows:
            if rest.apply(row, env):
                self._join(firing, depth + 1, env)

    def _emit(self, firing: Firing, env: list) -> None:
        if firing.guards:
            bindings = dict(zip(firing.variables, env))
            for guard in firing.guards:
                try:
                    if not guard.holds(bindings):
                        return
                except GroundingError:
                    # As in ``Grounder._guards_hold``: a guard that cannot
                    # be evaluated (``penguin > 11``) drops the instance.
                    return
        self._add(firing.head_key, tuple([_build(op, env) for op in firing.head]))
