"""The literal→rule watch lists of one grounded view, as integer arrays.

Built in one pass straight from the ground rules, the component order
and the :class:`~repro.grounding.grounder.AtomTable`: no literal-keyed
intermediate exists, so the only hashing of literal objects is the
table lookup that turns each head and body literal into its id.  The
fixpoint kernel then advances with array indexing only, over CSR
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
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from ...grounding.grounder import AtomTable, GroundRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..statuses import ComponentOrder

__all__ = ["CompiledRuleIndex"]


def _zeros(n: int) -> array:
    return array("l", bytes(array("l").itemsize * n))


def _csr(buckets: dict[int, list[int]], n_keys: int) -> tuple[array, array]:
    """Pack id-keyed buckets into (start offsets, concatenated items)."""
    start = _zeros(n_keys + 1)
    for key, items in buckets.items():
        start[key + 1] = len(items)
    for k in range(n_keys):
        start[k + 1] += start[k]
    flat = _zeros(start[n_keys])
    for key, items in buckets.items():
        c = start[key]
        flat[c : c + len(items)] = array("l", items)
    return start, flat


class CompiledRuleIndex:
    """One grounded view's watch lists as dense integer arrays.

    Attributes:
        rules: the ground rules, positionally identified — every array
            below speaks in rule *ids* (indices here).
        table: the atom table addressing every literal id below (the
            grounding-time one when given, else a private one).
        n_rules / n_literals: array dimensions (``n_literals`` covers
            every atom interned in the table at compile time).
        heads: per-rule head literal id.
        body_sizes: per-rule body length (satisfied-counter target).
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
        self.table = table = table if table is not None else AtomTable()
        self.rules = rules = tuple(rules)
        self.n_rules = n = len(rules)
        literal_id = table.literal_id
        self.heads = heads = array("l", [literal_id(r.head) for r in rules])
        self.body_sizes = array("l", [len(r.body) for r in rules])

        by_head: dict[int, list[int]] = {}
        body_buckets: dict[int, list[int]] = {}
        block_buckets: dict[int, list[int]] = {}
        for i, r in enumerate(rules):
            by_head.setdefault(heads[i], []).append(i)
            for lit in r.body:
                b = literal_id(lit)
                body_buckets.setdefault(b, []).append(i)
                block_buckets.setdefault(b ^ 1, []).append(i)
        self.by_head: Mapping[int, Sequence[int]] = by_head
        self.n_literals = n_lits = 2 * len(table)
        self.body_watch_start, self.body_watch_rules = _csr(body_buckets, n_lits)
        self.block_watch_start, self.block_watch_rules = _csr(
            block_buckets, n_lits
        )

        contra_buckets: dict[int, list[int]] = {}
        live_over = _zeros(n)
        live_defeat = _zeros(n)
        strictly_below = order.strictly_below
        incomparable_or_equal = order.incomparable_or_equal
        for i, r in enumerate(rules):
            component = r.component
            for j in by_head.get(heads[i] ^ 1, ()):
                other = rules[j].component
                if strictly_below(other, component):
                    contra_buckets.setdefault(j, []).append(i << 1 | 1)
                    live_over[i] += 1
                elif incomparable_or_equal(other, component):
                    contra_buckets.setdefault(j, []).append(i << 1)
                    live_defeat[i] += 1
        self.contra_start, self.contra_watchers = _csr(contra_buckets, n)
        self.init_live_overrulers = live_over
        self.init_live_defeaters = live_defeat
        self.source_facts = array(
            "l", [i for i, size in enumerate(self.body_sizes) if size == 0]
        )

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
