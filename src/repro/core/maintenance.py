"""Incremental knowledge-base maintenance: assert/retract deltas.

The KB shell of Section 5 treats an ordered program as a long-lived
artifact that is *queried and updated* repeatedly.  Recomputing
``V↑ω(∅)`` from scratch after every ``tell``/``retract`` throws away
almost all of the previous model: a single fact assertion typically
touches a handful of rules out of thousands.  This module maintains an
already-computed least model under ground-fact assertion and
retraction, in the delete-rederive (DRed) style of incremental Datalog
view maintenance, adapted to the ordered statuses of Definition 2.

The moving parts beyond classical DRed:

* an **asserted** fact is a new ground rule.  It can *overrule* or
  *defeat* existing rules with the complementary head (a fact in a more
  specific component silently un-derives the general default), so the
  assertion path must un-fire the newly threatened rules and
  delete-rederive their consequences — assertion is **not** monotone in
  ordered programs;
* a **retracted** fact can *un-overrule* or *un-defeat* rules in
  higher or incomparable components (removing the live threat releases
  them), and deleting a literal can *un-block* a rule, which turns it
  back into a live threat against rules in yet other components.  The
  deletion cascade therefore propagates along three edge kinds of the
  watch-list index — body support, blocking, and contradiction — and
  re-evaluates status for exactly the rules whose blockers or
  contradictors changed.

The maintained state **is** the dense kernel's: the satisfied /
blocked / live-overruler / live-defeater / fired / truth arrays of a
:class:`~repro.core.compiled.fixpoint.DenseFixpoint` over the view's
compiled CSR watch lists, kept alive across mutations.  This module
only moves them *backwards* (the deletion cascade); every forward step
— the initial build, rederivation, the rebuild fallback — is the
kernel's own stage loop resumed from the touched rules.  Soundness of
rederive-from-survivors: the overcounting cascade deletes a superset
of the literals that left the model, so the surviving interpretation
``S`` is contained in the new least fixpoint; ``V`` is monotone along
the chain from ``S`` (Lemma 1), so resuming the semi-naive iteration
from ``S`` converges to exactly ``V↑ω(∅)`` of the mutated program.
The differential property suite
(``tests/properties/test_maintenance_differential.py``) enforces
bit-identical agreement with from-scratch recomputation.

When a mutation dirties more of the program than the configured
*status frontier* allows (:attr:`MaintenanceConfig.frontier_threshold`),
the engine abandons the cascade and rebuilds the model from the empty
interpretation over the current rule multiset — still without
re-grounding anything.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import TYPE_CHECKING, Collection, Iterable, Sequence

from ..grounding.grounder import GroundRule
from ..lang.errors import SemanticsError
from ..lang.literals import Atom, Literal
from ..lang.program import ASSERT, RETRACT
from .compiled.fixpoint import DenseFixpoint
from .interpretation import Interpretation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .statuses import StatusEvaluator

__all__ = [
    "MaintenanceConfig",
    "DeltaStats",
    "DeltaOp",
    "DeltaUnsupported",
    "MaintainedModel",
    "ASSERT",
    "RETRACT",
]

#: One mutation: ``(kind, component, ground fact literal)``.
DeltaOp = tuple[str, str, Literal]


class DeltaUnsupported(SemanticsError):
    """The delta path cannot absorb this mutation (e.g. the asserted
    atom lies outside the view's grounded Herbrand base, so new ground
    instances of non-fact rules may exist).  Callers fall back to full
    recomputation."""


@dataclass(frozen=True)
class MaintenanceConfig:
    """Knobs for the incremental maintenance engine.

    Attributes:
        enabled: when False, every mutation invalidates and the next
            read recomputes from scratch (the pre-maintenance
            behaviour; used as the benchmark baseline).
        frontier_threshold: fraction of the (alive) ground rules that a
            single delta's status frontier may touch before the engine
            gives up on the cascade and rebuilds the model from ∅ over
            the current rules.  1.0 effectively disables the fallback;
            0.0 forces a rebuild on every delta.
    """

    enabled: bool = True
    frontier_threshold: float = 0.5


@dataclass
class DeltaStats:
    """What one :meth:`MaintainedModel.apply` call did.

    Attributes:
        asserted: facts added (after copy dedup).
        retracted: facts removed (after copy dedup).
        deleted: literals removed by the overcounting cascade.
        rederived: literals (re)derived by the forward phase —
            includes cascade survivors that were re-established.
        rules_reevaluated: rule-status updates performed (the *status
            frontier* of the delta).
        full_rebuild: the delta exceeded the frontier threshold (or was
            otherwise unsupported) and the model was recomputed from ∅.
    """

    asserted: int = 0
    retracted: int = 0
    deleted: int = 0
    rederived: int = 0
    rules_reevaluated: int = 0
    full_rebuild: bool = False


class _FrontierExceeded(Exception):
    """Internal: the cascade dirtied more than the threshold allows."""


@dataclass
class _Pending:
    """Work queued by the bookkeeping pass, consumed by the cascade:
    candidate rule ids and literal ids to delete."""

    candidates: set[int] = field(default_factory=set)
    to_delete: list[int] = field(default_factory=list)


class MaintainedModel:
    """A least model kept consistent under fact assertion/retraction.

    Built from a :class:`~repro.core.statuses.StatusEvaluator`, whose
    compiled index provides the shared, immutable watch lists, and
    brought to ``V↑ω(∅)`` by one kernel run.  Thereafter :meth:`apply`
    absorbs batches of ground-fact deltas; reads go through
    :meth:`interpretation`.

    Rule ids are stable.  A told fact is appended once per
    ``(component, literal)``; retracting it leaves a *tombstone* — a
    permanently blocked rule, which cannot fire and is no live threat,
    and whose counters stay maintained like any blocked rule's — and
    telling it again revives that same rule, so tell/retract cycles do
    not grow the arrays.
    """

    def __init__(
        self,
        evaluator: "StatusEvaluator",
        base: Iterable[Atom],
        config: MaintenanceConfig = MaintenanceConfig(),
    ) -> None:
        self.config = config
        self._order = evaluator.order
        self._base = frozenset(base)
        compiled = evaluator.index
        self._table = compiled.table
        # Per-rule component: the index's, then one per told fact.
        self._components: list[str] = list(compiled.components)
        self._alive = bytearray(b"\x01") * compiled.n_rules
        # Head literal id → ids of the told facts appended below; the
        # compiled rules' heads are the index's own ``by_head``.
        self._told_by_head: dict[int, list[int]] = {}
        # Every empty-body rule is a retractable fact: (component, head
        # id) → rule id, told while ``_alive`` (else a tombstone).  One
        # ground instance stands for all told copies; counting them is
        # the program's job (``OrderedProgram.update_facts`` forwards
        # only the first copy's assertion and the last copy's retraction).
        self._fact_ids: dict[tuple[str, int], int] = {
            (self._components[i], compiled.heads[i]): i for i in compiled.source_facts
        }
        # The counter state is a kernel's arrays; heads/body_sizes are
        # per-model copies because told facts get appended to them.
        self._fp = fp = DenseFixpoint(compiled)
        fp.heads = array("l", compiled.heads)
        fp.body_sizes = array("l", compiled.body_sizes)
        self._advance(compiled.source_facts)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def interpretation(self) -> Interpretation:
        """The maintained least model as of now
        (:meth:`DenseFixpoint.interpretation`)."""
        return self._fp.interpretation(self._base)

    def alive_rules(self) -> tuple[GroundRule, ...]:
        """The current ground rule multiset (original order, asserted
        facts appended, retracted facts omitted)."""
        return tuple(compress(self._decoded(), self._alive))

    def _decoded(self) -> list[GroundRule]:
        """Every rule id's rule, tombstones included, decoded now."""
        fp, literal = self._fp, self._table.literal
        told = range(fp.index.n_rules, len(fp.heads))
        facts = [GroundRule(literal(fp.heads[i]), frozenset(), self._components[i]) for i in told]
        return [*fp.index.rules.objects(), *facts]

    def alive_count(self) -> int:
        return self._alive.count(1)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, ops: Sequence[DeltaOp]) -> DeltaStats:
        """Absorb a batch of assert/retract ops, in order.

        The final model depends only on the final rule multiset, so the
        whole batch runs one deletion cascade and one rederive pass.

        Raises:
            SemanticsError: retracting a fact that is not present.
            DeltaUnsupported: an asserted atom is outside the base.
        """
        stats = DeltaStats()
        pending = _Pending()
        for kind, component, literal in ops:
            if kind == ASSERT:
                stats.asserted += 1
            elif kind == RETRACT:
                stats.retracted += 1
            else:
                raise ValueError(f"unknown delta op kind {kind!r}")
            self._tell(kind == ASSERT, component, literal, pending)
        try:
            stats.deleted, stats.rules_reevaluated = self._cascade(pending)
            stats.rederived = self._advance(pending.candidates)
        except _FrontierExceeded:
            self.rebuild()
            stats.full_rebuild = True
        return stats

    def rebuild(self) -> None:
        """Recompute the model from ∅ over the current rule multiset.

        No re-grounding happens — this is the engine-level fallback for
        deltas whose status frontier exceeds the configured threshold.
        """
        fp = self._fp
        fp.reset()
        released = _Pending()
        for i in self._fact_ids.values():
            if not self._alive[i]:
                fp.blocked[i] = 1
                self._set_threat(i, False, released)
        told = range(fp.index.n_rules, len(fp.heads))
        self._advance([*fp.index.source_facts, *told])

    def _advance(self, candidates: Collection[int]) -> int:
        """Resume the kernel's stage loop; returns literals derived."""
        stages = self._fp.advance(candidates, 2 * len(self._base) + 2)
        return sum(map(len, stages))

    def _rules_heading(self, h: int) -> Iterable[int]:
        """Ids of every rule, compiled or told since, whose head is the
        literal id ``h``."""
        compiled = self._fp.index.by_head.get(h, ())
        told = self._told_by_head.get(h)
        return chain(compiled, told) if told else compiled

    def _set_threat(self, j: int, live: bool, pending: _Pending) -> int:
        """Rule ``j`` became (or stopped being) a live threat: shift the
        live counters of the rules it contradicts, un-firing the newly
        threatened ones.  Returns the number of rules touched."""
        fp = self._fp
        step = 1 if live else -1
        touched = 0
        for packed in fp.watchers(j):
            w = packed >> 1
            if packed & 1:
                fp.live_overrulers[w] += step
            else:
                fp.live_defeaters[w] += step
            pending.candidates.add(w)
            touched += 1
            if live and fp.fired[w]:
                fp.fired[w] = 0
                pending.to_delete.append(fp.heads[w])
        return touched

    # ------------------------------------------------------------------
    # Bookkeeping: one op at a time (cheap, no cascade yet)
    # ------------------------------------------------------------------
    def _tell(
        self, told: bool, component: str, literal: Literal, pending: _Pending
    ) -> None:
        """Tell a ground fact (reviving its tombstone, appended on first
        sight) or retract it (leaving the tombstone).  Telling a fact
        that is already live — a further copy, or an instance some other
        source rule grounds to — changes nothing."""
        atom_id = self._table.id_of(literal.atom)
        key = (component, -1 if atom_id is None else 2 * atom_id + literal.negative)
        i = self._fact_ids.get(key)
        if told:
            if i is None:
                i = self._append_tombstone(component, literal)
                self._fact_ids[component, self._fp.heads[i]] = i
            elif self._alive[i]:
                return
        elif i is None or not self._alive[i]:
            raise SemanticsError(
                f"cannot retract {literal} from component {component!r}: "
                "no such told fact"
            )
        # A fact has an empty body, so while told it is never blocked: a
        # live threat to everything it watches.  Its tombstone is blocked.
        fp = self._fp
        self._alive[i] = told
        fp.blocked[i] = not told
        self._set_threat(i, told, pending)
        if told:
            pending.candidates.add(i)
        elif fp.fired[i]:
            fp.fired[i] = 0
            pending.to_delete.append(fp.heads[i])

    def _append_tombstone(self, component: str, literal: Literal) -> int:
        """Append a never-yet-told fact as a tombstone wired into the
        contradiction watches; returns its rule id."""
        if not literal.is_ground:
            raise DeltaUnsupported(
                f"only ground facts can be asserted incrementally: {literal}"
            )
        if literal.atom not in self._base:
            raise DeltaUnsupported(
                f"atom {literal.atom} is outside the grounded base; "
                "the view must be re-grounded"
            )
        fp = self._fp
        h = self._table.literal_id(literal)
        if h >= len(fp.truth):
            # In the base but mentioned by no ground rule: the atom was
            # interned just now, past the compiled literal-id range.
            grown = bytes((h | 1) + 1 - len(fp.truth))
            fp.truth.extend(grown)
            fp.support.extend(grown)
        i = len(fp.heads)
        self._components.append(component)
        self._alive.append(0)
        fp.heads.append(h)
        fp.body_sizes.append(0)
        fp.satisfied.append(0)
        fp.blocked.append(1)
        fp.fired.append(0)
        live_over = live_defeat = 0
        order = self._order
        extra = fp.contra_extra
        for j in self._rules_heading(h ^ 1):
            other = self._components[j]
            # The existing rule as a threat to the new fact...
            if order.strictly_below(other, component):
                extra.setdefault(j, []).append(i << 1 | 1)
                live_over += not fp.blocked[j]
            elif order.incomparable_or_equal(other, component):
                extra.setdefault(j, []).append(i << 1)
                live_defeat += not fp.blocked[j]
            # ... and the new fact as a threat to the existing rule
            # (counted when the tombstone is revived).
            if order.strictly_below(component, other):
                extra.setdefault(i, []).append(j << 1 | 1)
            elif order.incomparable_or_equal(component, other):
                extra.setdefault(i, []).append(j << 1)
        fp.live_overrulers.append(live_over)
        fp.live_defeaters.append(live_defeat)
        self._told_by_head.setdefault(h, []).append(i)
        return i

    # ------------------------------------------------------------------
    # Deletion cascade (the overcounting half of delete-rederive)
    # ------------------------------------------------------------------
    def _cascade(self, pending: _Pending) -> tuple[int, int]:
        """Overcount-delete everything whose derivation might have
        depended on the mutated facts; returns (deleted, reevals)."""
        threshold = self.config.frontier_threshold
        cap = max(4, int(threshold * max(1, self.alive_count())))
        fp = self._fp
        index = fp.index
        bw_start = index.body_watch_start
        blw_start = index.block_watch_start
        fired = fp.fired
        truth = fp.truth
        deleted = 0
        reevals = 0
        worklist = pending.to_delete
        candidates = pending.candidates
        recheck_blocked: list[int] = []
        while worklist:
            l = worklist.pop()
            if not truth[l]:
                continue
            truth[l] = 0
            deleted += 1
            # Un-fire every remaining deriver; the forward phase will
            # re-fire (and re-derive l) whatever is still supported.
            for i in self._rules_heading(l):
                if fired[i]:
                    fired[i] = 0
                    candidates.add(i)
                    reevals += 1
            if l < index.n_literals:  # else no compiled rule mentions l
                # Body support lost: consequences are overcount-deleted.
                for i in index.body_watch_rules[bw_start[l] : bw_start[l + 1]]:
                    fp.satisfied[i] -= 1
                    candidates.add(i)
                    reevals += 1
                    if fired[i]:
                        fired[i] = 0
                        worklist.append(fp.heads[i])
                # l may have been keeping some rule blocked.  Even when
                # another derived blocker remains, that blocker's own
                # justification may be cyclic through this very blockage
                # (blocked threat → undefeated rule → derived blocker),
                # so over-delete: treat the rule as unblocked, revive
                # its threats, and delete the watchers' heads.
                # Survivors are re-blocked after the cascade drains and
                # rederived by the forward phase.
                for j in index.block_watch_rules[blw_start[l] : blw_start[l + 1]]:
                    if fp.blocked[j]:
                        fp.blocked[j] = 0
                        recheck_blocked.append(j)
                        candidates.add(j)
                        reevals += 1 + self._set_threat(j, True, pending)
            if threshold < 1.0 and deleted + reevals > cap:
                raise _FrontierExceeded
        # Re-establish blockage that genuinely survived the deletion:
        # the surviving interpretation is contained in the new least
        # model, so a surviving blocker proves the rule stays blocked.
        start, body_ids = index.body_start, index.body_ids
        for j in recheck_blocked:
            reevals += 1
            if any(truth[b ^ 1] for b in body_ids[start[j] : start[j + 1]]):
                fp.blocked[j] = 1
                self._set_threat(j, False, pending)
        return deleted, reevals

    # ------------------------------------------------------------------
    # Auditing (tests)
    # ------------------------------------------------------------------
    def audit(self) -> None:
        """Assert counter soundness against Definition 2 from scratch.

        O(rules²) — test/debug use only.
        """
        fp = self._fp
        rules = self._decoded()
        derived = self.interpretation().literals
        fired_heads = set()
        for i, r in enumerate(rules):
            live_over = live_defeat = 0
            for j in self._rules_heading(fp.heads[i] ^ 1):
                if fp.blocked[j]:  # tombstones included
                    continue
                other = rules[j].component
                if self._order.strictly_below(other, r.component):
                    live_over += 1
                elif self._order.incomparable_or_equal(other, r.component):
                    live_defeat += 1
            assert fp.live_overrulers[i] == live_over, (i, str(r))
            assert fp.live_defeaters[i] == live_defeat, (i, str(r))
            if not self._alive[i]:
                assert fp.blocked[i] and not fp.fired[i], (i, str(r))
                continue
            satisfied = sum(1 for b in r.body if b in derived)
            assert fp.satisfied[i] == satisfied, (i, str(r))
            blocked = any(b.complement() in derived for b in r.body)
            assert fp.blocked[i] == blocked, (i, str(r))
            fires = (
                satisfied == len(r.body)
                and not blocked
                and not live_over
                and not live_defeat
            )
            assert fp.fired[i] == fires, (i, str(r))
            if fires:
                fired_heads.add(r.head)
        assert derived == fired_heads, sorted(map(str, derived ^ fired_heads))
