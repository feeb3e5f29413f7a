"""Incremental maintenance vs a cold recompute after each write on the
``interactive_session`` workload (docs/maintenance.md).

Each round drives a fresh :class:`~repro.kb.knowledge_base.KnowledgeBase`
through the same deterministic tell/ask/retract stream twice over:

* ``strategy="delta"`` — the delta engine maintains every dirty view
  (assertions feed the watched-literal counters, retractions
  delete-rederive through the rule index);
* ``strategy="rebuild"`` — ``kb.rewind(kb.program())`` after every
  write drops the cached views, so every ask regrounds and recomputes
  the least model from ∅ (a cold recompute after each write).

Both modes must return identical answers — asserted per round via the
session checksum.  The benchmark CI job gates on the result:
``scripts/check_seminaive_speedup.py --experiment maintenance-session``
requires the delta mode to be ≥5x faster at the largest size, and
``scripts/check_bench_regression.py`` compares both against the
committed baseline.
"""

from collections import Counter

import pytest

from repro.workloads.sessions import build_session_kb, run_session, session_ops

from .conftest import capture_metrics, record

#: (size label, hierarchy depth, entity count, ops in the stream).
SIZES = [
    ("small", 4, 8, 40),
    ("medium", 8, 16, 80),
    ("large", 12, 32, 120),
]

#: Positive-answer checksums per size, delta vs rebuild (filled lazily).
_CHECKSUMS: dict[str, dict[str, int]] = {}


@pytest.mark.parametrize("mode", ["delta", "rebuild"])
@pytest.mark.parametrize(
    "size,depth,n_entities,n_ops", SIZES, ids=[s[0] for s in SIZES]
)
def test_interactive_session(benchmark, size, depth, n_entities, n_ops, mode):
    ops = session_ops(depth, n_entities, n_ops)

    def run():
        kb = build_session_kb(depth, n_entities)
        kb.ask("level0", "member(e0)")  # prime the bottom view
        if mode == "delta":
            return run_session(kb, ops)
        counts = Counter()
        for op in ops:
            counts.update(run_session(kb, [op]))
            if op[0] != "ask":
                kb.rewind(kb.program())  # drop every cached view
        return counts

    counts = benchmark(run)
    assert counts["tell"] + counts["retract"] + counts["ask"] == n_ops
    # Delta and rebuild modes must answer identically.
    _CHECKSUMS.setdefault(size, {})[mode] = counts["yes"]
    seen = _CHECKSUMS[size]
    if len(seen) == 2:
        assert seen["delta"] == seen["rebuild"], seen
    record(
        benchmark,
        experiment="maintenance-session",
        size={"small": 1, "medium": 2, "large": 3}[size],
        depth=depth,
        entities=n_entities,
        ops=n_ops,
        strategy=mode,
    )
    snapshot = capture_metrics(benchmark, run)
    counters = snapshot["counters"]
    if mode == "delta":
        assert counters.get("maintain.delta_facts", 0) > 0, counters
