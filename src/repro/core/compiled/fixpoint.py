"""The integer semi-naive fixpoint kernel for ``V_{P,C}`` (Definition 4).

Naive iteration recomputes ``V(I)`` from scratch at every stage: it
rebuilds a :class:`~repro.core.statuses.StatusSnapshot` and rescans
every ground rule, so a fixpoint reached after ``k`` stages over ``n``
rules costs ``O(k · n)`` status evaluations even when each stage only
derives a literal or two.  :class:`DenseFixpoint` evaluates the same
fixpoint delta-driven, in the style of semi-naive Datalog evaluation,
adapted to the three extra moving parts of ordered programs: blocking,
overruling and defeating.

The key observation is Lemma 1 (monotonicity) specialised to the
ascending chain ``∅ ⊆ V(∅) ⊆ V²(∅) ⊆ …``: along that chain every
status flip is one-way.

* ``B(r) ⊆ I`` (*applicable*) flips false → true only, so it can be
  tracked by a per-rule **satisfied counter** incremented when a body
  literal enters the interpretation;
* *blocked* flips false → true only, triggered the first time the
  complement of a body literal is derived;
* *overruled* / *defeated* flip true → **false** only: a contradicting
  rule stops being a threat exactly when it becomes blocked, so a
  per-rule **live-contradictor counter** (decremented when a watched
  contradictor becomes blocked) reaches zero precisely when the rule is
  no longer overruled / defeated.

Because every flip is one-way, a rule's "fires under ``I``" verdict is
itself monotone along the chain, and only rules *watching* a literal of
the current delta can change verdict.  Each stage therefore touches
``O(|delta| · watchers)`` rules instead of all of them; the whole
fixpoint does ``O(total watch-list traffic)`` work, which is the
semi-naive bound.  The least model produced is literal-for-literal
identical to naive iteration, stage boundaries included — enforced by
``tests/properties/test_seminaive_differential.py`` and the
differential CI job.

The static watch lists are a
:class:`~repro.core.compiled.index.CompiledRuleIndex` (built once per
:class:`~repro.core.statuses.StatusEvaluator` and shared by every run —
the solver re-enters the fixpoint once per search tree); this module
holds the per-run counters.  A stage's delta is a list of literal ids;
propagation walks CSR slices and bumps ``array``/``bytearray`` cells,
so no literal object is hashed anywhere inside the loop.  The loop is
resumable (:meth:`DenseFixpoint.advance`): incremental maintenance
keeps the arrays alive across fact deltas and re-enters it after its
deletion cascade, so there is one forward engine, not two.

The model is the ``truth`` flags.  :meth:`DenseFixpoint.interpretation`
reads a copy of them through the atom table
(:meth:`~repro.core.interpretation.Interpretation.over`), the same for a
cold run and for a maintained one: a ground read is an id probe, and
literal objects exist only for what a reader takes out.  A cold
:meth:`DenseFixpoint.run` also returns the derived ids in derivation
order (:class:`DenseModelData`).  See ``docs/performance.md``.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import AbstractSet, Collection, Iterable

from ...lang.errors import InconsistencyError
from ...lang.literals import Atom, Literal
from ..interpretation import Interpretation
from .index import CompiledRuleIndex

__all__ = ["DenseFixpoint", "DenseModelData"]


class DenseModelData:
    """What a cold :meth:`DenseFixpoint.run` derived.

    Attributes:
        table: the atom table that decodes the ids.
        literal_ids: the derived literal ids, in derivation order.
    """

    __slots__ = ("table", "literal_ids")

    def __init__(self, table, literal_ids: array) -> None:
        self.table = table
        self.literal_ids = literal_ids

    def __len__(self) -> int:
        return len(self.literal_ids)

    def literals(self) -> tuple[Literal, ...]:
        """Decode to literal objects, in derivation order."""
        return tuple(map(self.table.literal, self.literal_ids))


class DenseFixpoint:
    """The ``V`` counter state over a compiled index, and the one loop
    that advances it.

    :meth:`run` is one cold ``V↑ω(∅)`` computation.  Incremental
    maintenance (:class:`~repro.core.maintenance.MaintainedModel`) keeps
    the same arrays alive across fact deltas and, after its deletion
    cascade, re-enters :meth:`advance` from the touched rules.  Rules
    appended after compilation are told facts: their bodies are empty,
    so the index's body/block CSRs never change — only ``heads``,
    ``body_sizes`` and the ``contra_extra`` overflow grow.

    Attributes:
        heads / body_sizes: per-rule head literal id and body length
            (the index's own arrays unless a model appends rules).
        contra_extra: rule id → packed contradiction-watch entries
            added after compilation (see :meth:`watchers`).
        satisfied: per-rule derived-body-literal counts (``array('l')``).
        blocked: per-rule blocked flags (``bytearray``).
        live_overrulers / live_defeaters: per-rule live-threat counts.
        fired: per-rule fired flags (``bytearray``).
        truth: per-literal-id membership flags of the growing model.
        support: per-literal-id rule id that set its ``truth`` flag (the
            literal's provenance; meaningful where ``truth`` is set).
        stage_ids: literal ids first derived at each stage of :meth:`run`.
        touched / applied / overruled / defeated: run totals of
            :meth:`advance` — candidates examined, and how many of them
            were found applied (fired), overruled or defeated
            (Definition 2), summed over every stage.
    """

    __slots__ = (
        "_index",
        "heads",
        "body_sizes",
        "contra_extra",
        "satisfied",
        "blocked",
        "live_overrulers",
        "live_defeaters",
        "fired",
        "truth",
        "support",
        "stage_ids",
        "touched",
        "applied",
        "overruled",
        "defeated",
    )

    def __init__(self, index: CompiledRuleIndex) -> None:
        self._index = index
        self.heads = index.heads
        self.body_sizes = index.body_sizes
        self.contra_extra: dict[int, list[int]] = {}
        self.stage_ids: list[list[int]] = []
        self.touched = self.applied = self.overruled = self.defeated = 0
        self.reset()

    @property
    def index(self) -> CompiledRuleIndex:
        return self._index

    def reset(self) -> None:
        """Fresh counters for the empty interpretation: nothing derived
        or blocked, every potential threat live."""
        index = self._index
        n = len(self.heads)
        pad = array("l", bytes(array("l").itemsize * (n - index.n_rules)))
        self.satisfied = array("l", bytes(array("l").itemsize * n))
        self.blocked = bytearray(n)
        self.live_overrulers = array("l", index.init_live_overrulers) + pad
        self.live_defeaters = array("l", index.init_live_defeaters) + pad
        self.fired = bytearray(n)
        self.truth = bytearray(2 * len(index.table))
        self.support = array("l", bytes(array("l").itemsize * len(self.truth)))
        for entries in self.contra_extra.values():
            for packed in entries:
                if packed & 1:
                    self.live_overrulers[packed >> 1] += 1
                else:
                    self.live_defeaters[packed >> 1] += 1

    def interpretation(self, base: AbstractSet[Atom]) -> Interpretation:
        """The current model as an immutable interpretation over ``base``,
        read in id space: a copy of the membership flags taken now.  A
        published snapshot pins the returned value, so it must not alias
        the ``truth`` array that later deltas mutate.
        """
        return Interpretation.over(self._index.table, bytes(self.truth), base)

    def watchers(self, j: int) -> Iterable[int]:
        """Packed ``(watcher << 1) | is_overruler`` entries of the rules
        whose live-threat counter tracks whether rule ``j`` is blocked."""
        index = self._index
        extra = self.contra_extra.get(j, ())
        if j >= index.n_rules:
            return extra
        start = index.contra_start
        compiled = index.contra_watchers[start[j] : start[j + 1]]
        return chain(compiled, extra) if extra else compiled

    def run(self, bound: int) -> DenseModelData:
        """Advance to the fixpoint; ``bound`` caps the stage count."""
        self.stage_ids += self.advance(self._index.source_facts, bound)
        derived = array("l")
        for ids in self.stage_ids:
            derived.extend(ids)
        return DenseModelData(self._index.table, derived)

    def advance(self, candidates: Collection[int], bound: int) -> list[list[int]]:
        """Resume the iteration on the current arrays from the given
        candidate rule ids; returns the literal ids derived per stage
        and adds to the run totals.

        The only code that moves the counters *forward*: cold runs,
        maintenance rederive and rebuilds all come through here.
        """
        index = self._index
        n_compiled = index.n_literals
        bw_start = index.body_watch_start
        bw_rules = index.body_watch_rules
        blw_start = index.block_watch_start
        blw_rules = index.block_watch_rules
        c_start = index.contra_start
        c_watchers = index.contra_watchers
        c_extra = self.contra_extra
        heads = self.heads
        body_sizes = self.body_sizes
        satisfied = self.satisfied
        blocked = self.blocked
        live_over = self.live_overrulers
        live_defeat = self.live_defeaters
        fired = self.fired
        truth = self.truth
        support = self.support

        queued = bytearray(len(heads))
        stage_ids: list[list[int]] = []
        touched = applied = overruled = defeated = 0
        while candidates:
            touched += len(candidates)
            new_ids: list[int] = []
            for i in candidates:
                queued[i] = 0
                if fired[i] or blocked[i]:
                    continue
                if satisfied[i] != body_sizes[i]:
                    continue
                threatened = False
                if live_over[i]:
                    overruled += 1
                    threatened = True
                if live_defeat[i]:
                    defeated += 1
                    threatened = True
                if threatened:
                    continue
                fired[i] = 1
                applied += 1
                h = heads[i]
                if truth[h]:
                    continue
                if truth[h ^ 1]:
                    head = index.table.literal(h)
                    raise InconsistencyError(
                        f"V produced both {head} and {head.complement()}; "
                        "the input interpretation was inconsistent or the "
                        "order is broken"
                    )
                truth[h] = 1
                support[h] = i
                new_ids.append(h)
            if not new_ids:
                break
            if len(stage_ids) >= bound:
                raise InconsistencyError(
                    "V failed to reach a fixpoint within the iteration "
                    "bound; this indicates non-monotone behaviour (a bug)"
                )
            stage_ids.append(new_ids)
            # Propagate the integer delta: advance satisfied counters,
            # flip blocked flags, release threatened watchers.  The
            # touched rules are the next stage's candidates (the queued
            # flags deduplicate within the stage).
            next_candidates: list[int] = []
            for h in new_ids:
                if h >= n_compiled:
                    continue  # told after compilation: no rule mentions it
                for i in bw_rules[bw_start[h] : bw_start[h + 1]]:
                    satisfied[i] += 1
                    if not queued[i]:
                        queued[i] = 1
                        next_candidates.append(i)
                for j in blw_rules[blw_start[h] : blw_start[h + 1]]:
                    if not blocked[j]:
                        blocked[j] = 1
                        if c_extra:
                            watchers = self.watchers(j)
                        else:
                            watchers = c_watchers[c_start[j] : c_start[j + 1]]
                        for packed in watchers:
                            i = packed >> 1
                            if packed & 1:
                                live_over[i] -= 1
                            else:
                                live_defeat[i] -= 1
                            if not queued[i]:
                                queued[i] = 1
                                next_candidates.append(i)
            candidates = next_candidates
        self.touched += touched
        self.applied += applied
        self.overruled += overruled
        self.defeated += defeated
        return stage_ids
