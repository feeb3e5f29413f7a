"""The literal→rule watch lists of one grounded view, as integer arrays.

Built straight from the grounder's integer instances
(:class:`~repro.grounding.grounder.GroundRules`), so no literal object
is built or hashed on the way; rule objects from anywhere else (a
hand-built program, a reduction, a test) are encoded into those arrays
first.  The fixpoint kernel advances with array indexing only, over CSR
(compressed sparse row) arrays on the literal-id axis:

* ``body_watch_start/body_watch_rules`` — literal id → rule ids with
  the literal in their body;
* ``block_watch_start/block_watch_rules`` — literal id → rule ids
  *blocked* when the literal is derived (its complement is in their
  body); complementation is ``id ^ 1``, so both CSRs share the axis;
* ``contra_start/contra_watchers`` — rule id ``j`` → packed
  ``(watcher << 1) | is_overruler`` entries: rules whose live-threat
  counter drops when ``j`` becomes blocked.  Rule ``j`` watches ``i``
  as overruler / defeater exactly when ``H(j) = ¬H(i)`` and ``C(j)`` is
  strictly below / incomparable-or-equal to ``C(i)`` (Definition 2).

The index is immutable and cached on its
:class:`~repro.core.statuses.StatusEvaluator`, so repeated fixpoint
runs — model enumeration in particular — and the maintained model of
the same view share one compilation.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, repeat
from operator import sub
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from ...grounding.grounder import AtomTable, GroundRule, GroundRules

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..statuses import ComponentOrder

__all__ = ["CompiledRuleIndex"]


def _csr(keys: Sequence[int], items: Sequence[int], n_keys: int) -> tuple[array, array]:
    """Counting-sort ``items`` by their ``keys``, stably: (start
    offsets, concatenated items)."""
    counts = [0] * (n_keys + 1)
    for key in keys:
        counts[key + 1] += 1
    start = list(accumulate(counts))
    fill = start[:-1]
    flat = [0] * len(keys)
    for key, item in zip(keys, items):
        at = fill[key]
        flat[at] = item
        fill[key] = at + 1
    return array("l", start), array("l", flat)


class CompiledRuleIndex:
    """One grounded view's watch lists as dense integer arrays.

    Attributes:
        rules: the ground rules as ids, positionally identified — every
            array below speaks in rule *ids* (indices here).
        table: the atom table addressing every literal id below (the
            grounding-time one when given, else a private one).
        n_rules / n_literals: array dimensions (``n_literals`` covers
            every atom interned in the table at compile time).
        heads: per-rule head literal id.
        body_sizes: per-rule body length (satisfied-counter target).
        components: per-rule component name (the paper's ``C(r)``).
        body_start / body_ids: per-rule body literal ids, as a CSR on
            the rule axis.
        by_head: head literal id → ids of the rules with that head, in
            rule order (who derives a literal; whom a new fact with the
            complementary head contradicts).
        init_live_overrulers / init_live_defeaters: per-rule initial
            live-threat counts (every potential threat starts live).
        source_facts: ids of empty-body rules — stage-1 candidates.
    """

    __slots__ = (
        "rules",
        "table",
        "n_rules",
        "n_literals",
        "heads",
        "body_sizes",
        "components",
        "body_start",
        "body_ids",
        "by_head",
        "body_watch_start",
        "body_watch_rules",
        "block_watch_start",
        "block_watch_rules",
        "contra_start",
        "contra_watchers",
        "init_live_overrulers",
        "init_live_defeaters",
        "source_facts",
    )

    def __init__(
        self,
        rules: Iterable[GroundRule],
        order: "ComponentOrder",
        table: Optional[AtomTable] = None,
    ) -> None:
        if not isinstance(rules, GroundRules) or table not in (None, rules.table):
            rules = GroundRules.encode(rules, AtomTable() if table is None else table)
        self.rules = rules
        self.table = rules.table
        self.heads = heads = rules.heads
        self.components = components = rules.components
        self.body_start = start = rules.body_start
        self.body_ids = body_ids = rules.body_ids
        self.n_rules = n = len(heads)
        self.body_sizes = sizes = array("l", map(sub, start[1:], start))

        by_head: dict[int, list[int]] = {}
        for i, h in enumerate(heads):
            by_head.setdefault(h, []).append(i)
        self.by_head: Mapping[int, Sequence[int]] = by_head
        self.n_literals = n_lits = 2 * len(self.table)
        owners = list(chain.from_iterable(map(repeat, range(n), sizes)))
        self.body_watch_start, self.body_watch_rules = _csr(body_ids, owners, n_lits)
        self.block_watch_start, self.block_watch_rules = _csr(
            [b ^ 1 for b in body_ids], owners, n_lits
        )

        # A rule of component a heading ¬H(r), r of component b: 1
        # overruler, 0 defeater, None neither; asked once per pair met.
        below, beside = order.strictly_below, order.incomparable_or_equal
        threat: dict[tuple[str, str], Optional[int]] = {}
        threatened: list[int] = []
        watchers: list[int] = []
        live_over = array("l", bytes(array("l").itemsize * n))
        live_defeat = array("l", live_over)
        for i, h in enumerate(heads):
            for j in by_head.get(h ^ 1, ()):
                pair = (components[j], components[i])
                if pair not in threat:
                    threat[pair] = 1 if below(*pair) else 0 if beside(*pair) else None
                kind = threat[pair]
                if kind is not None:
                    threatened.append(j)
                    watchers.append(i << 1 | kind)
                    (live_over if kind else live_defeat)[i] += 1
        self.contra_start, self.contra_watchers = _csr(threatened, watchers, n)
        self.init_live_overrulers = live_over
        self.init_live_defeaters = live_defeat
        self.source_facts = array("l", [i for i, size in enumerate(sizes) if size == 0])

    def __len__(self) -> int:
        return self.n_rules

    @property
    def compiled(self) -> "CompiledRuleIndex":
        """This index: ``evaluator.index.compiled`` is how the frozen
        end-to-end harness (``benchmarks/e2e``) spells
        ``evaluator.index``."""
        return self

    def body_watchers(self, literal_id: int) -> array:
        """Rule ids watching the literal in their bodies (tests/debug)."""
        s, e = (
            self.body_watch_start[literal_id],
            self.body_watch_start[literal_id + 1],
        )
        return self.body_watch_rules[s:e]

    def block_watchers(self, literal_id: int) -> array:
        """Rule ids blocked when the literal is derived (tests/debug)."""
        s, e = (
            self.block_watch_start[literal_id],
            self.block_watch_start[literal_id + 1],
        )
        return self.block_watch_rules[s:e]
