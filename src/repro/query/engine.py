"""Semi-naive evaluation of a compiled :class:`~repro.query.magic.MagicPlan`
on the shared join machine (:mod:`repro.grounding.joins`).

Two halves with different lifetimes:

* :class:`JoinPlan` is compiled once per goal shape and shared by every
  request of that shape.  For each ``(rule, trigger position)`` — a
  stored (magic/idb) body atom a newly derived row can arrive at — it
  holds a :class:`~repro.grounding.joins.Join` ordered delta-first
  (:func:`_delta_first`).
* :class:`DemandEngine` is one run: a
  :class:`~repro.grounding.joins.JoinMachine` (row sets, their indexes
  and the worklist) with the fetch memo and the cost counters, which
  live here and die with it.

Extensional literals are never stored: each step fetches exactly the
rows its bound positions constrain from the
:class:`~repro.query.sources.FactSource`, each distinct pattern at most
once per run — a ground goal over a 10M-fact EDB touches the handful
of tuples its magic predicates request.

Bridging: an intensional predicate may *also* have extensional rows
(told facts, or an attached EDB store shadowing a derived relation).
A magic row for such a predicate wakes one more join, which fetches the
matching source rows straight into its adorned answer set.
"""

from __future__ import annotations

from typing import Callable, Collection, Optional, Sequence

from ..grounding.joins import Join, JoinMachine, Scan, compile_join
from ..lang.terms import Term, Variable
from ..obs import get_instrumentation, record_costs
from .magic import BodyAtom, DemandRule, MagicPlan
from .sources import FactSource, Row

__all__ = ["DemandEngine", "JoinPlan"]

Key = tuple[str, str, str]


def _delta_first(body: Sequence[Scan]) -> Callable[[int, bool], tuple[bool, bool]]:
    """The cost that makes ``join_order`` delta-first: atoms the bound
    variables fully determine, then atoms sharing a variable with them —
    the magic guard last among those, since every variable of it occurs
    elsewhere in the body and it is a membership test once they are
    bound — the sips order breaking ties."""
    return lambda i, fully: (
        not fully,
        not body[i].fetched and body[i].relation[0] == "magic",
    )


class JoinPlan:
    """The joins of one :class:`MagicPlan`, compiled against the fact
    sources' ``predicate -> arity`` map.

    Immutable after construction and free of per-run state: any number
    of :class:`DemandEngine` runs may share it.
    """

    def __init__(
        self, plan: MagicPlan, arity: Callable[[str], Optional[int]]
    ) -> None:
        self.plan = plan
        #: fetched predicate -> its arity (the width of a fetch pattern).
        self.arities: dict[str, int] = {}
        self.goal_key: Key = ("magic", plan.goal.predicate, plan.adornment)
        triggers: dict[Key, list[Join]] = {}
        # A bridge is a rule too: a magic row of a bridged predicate
        # fetches the source rows it asks for into the adorned answers.
        bridges = []
        heads = {rule.head_key for rule in plan.rules}
        for kind, predicate, adornment in heads | {self.goal_key}:
            if kind == "magic" and predicate in plan.bridged:
                args = tuple(Variable(f"_{i}") for i in range(len(adornment)))
                asked = tuple(a for a, b in zip(args, adornment) if b == "b")
                body = (
                    BodyAtom(kind, predicate, adornment, asked),
                    BodyAtom("edb", predicate, "", args),
                )
                bridges.append(DemandRule(("idb", predicate, adornment), args, body))
        for rule in (*bridges, *plan.rules):
            if any(
                atom.kind == "edb" and arity(atom.predicate) != len(atom.args)
                for atom in rule.body
            ):
                # An extensional atom the sources hold at another arity
                # (or not at all) matches no row: the rule never fires.
                continue
            self.arities.update(
                (atom.predicate, len(atom.args)) for atom in rule.body if atom.kind == "edb"
            )
            body = [
                Scan(atom.predicate, atom.args, fetched=True)
                if atom.kind == "edb"
                else Scan(atom.key, atom.args)
                for atom in rule.body
            ]
            # One join per stored body atom a delta row can arrive at.
            for position, atom in enumerate(rule.body):
                if atom.kind != "edb":
                    triggers.setdefault(atom.key, []).append(
                        compile_join(
                            rule.head_key,
                            rule.head_args,
                            body,
                            rule.guards,
                            _delta_first(body),
                            position,
                        )
                    )
        #: stored key -> the joins a new row of that relation wakes.
        self.triggers = {key: tuple(js) for key, js in triggers.items()}


class DemandEngine(JoinMachine):
    """One run of a :class:`JoinPlan` against a fact source: ``run(seed)``
    returns the answer rows of the goal whose bound arguments are
    ``seed``."""

    def __init__(self, joins: JoinPlan, source: FactSource) -> None:
        super().__init__()
        self.joins = joins
        self.source = source
        #: (relation, positions, key values) -> the rows fetched for it.
        self.fetched: dict[tuple, tuple[Row, ...]] = {}
        self.rows_fetched = 0
        self.firings = 0

    def run(self, seed: Row) -> Collection[Row]:
        obs = get_instrumentation()
        joins = self.joins
        plan = joins.plan
        with obs.span(
            "query.demand",
            goal=plan.goal.predicate,
            adornment=plan.adornment or "()",
            rules=len(plan.rules),
        ):
            self.add(joins.goal_key, seed)
            worklist = self.worklist
            fire = self.fire
            derive = self.derive
            while worklist:
                key, row = worklist.popleft()
                for join in joins.triggers.get(key, ()):
                    if fire(join, row, derive):
                        self.firings += 1
        record_costs(
            demand_rows=sum(map(len, self.rows.values())),
            demand_fetched=self.rows_fetched,
            demand_firings=self.firings,
        )
        return self.rows.get(plan.answer_key, ())

    def fetch(
        self, relation: str, positions: tuple[int, ...], key: tuple
    ) -> tuple[Row, ...]:
        """Source rows of the predicate ``relation`` with ``key`` at
        ``positions``, fetched once per run."""
        memo = (relation, positions, key)
        rows = self.fetched.get(memo)
        if rows is None:
            pattern: list[Optional[Term]] = [None] * self.joins.arities[relation]
            for position, value in zip(positions, key):
                pattern[position] = value
            rows = self.fetched[memo] = tuple(self.source.fetch(relation, pattern))
            self.rows_fetched += len(rows)
        return rows
