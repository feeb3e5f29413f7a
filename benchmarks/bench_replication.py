"""Replication-layer benchmarks: WAL append overhead and follower
catch-up replay (docs/replication.md).

Two experiments, both gated by
``scripts/check_seminaive_speedup.py``:

* ``wal-overhead`` — the ``bench_server`` write stream (concurrent
  ``tell`` requests through the coalescing single-writer pipeline)
  with no journal (strategy ``no-wal``) vs a durable
  ``fsync="always"`` journal (strategy ``wal``).  Batch coalescing
  amortizes the fsync — one append covers a whole published batch —
  so the gate requires the WAL run to stay within **1.25x** of the
  bare pipeline (``--baseline no-wal --contender wal --min-speedup
  0.8``: speedup = no-wal/wal ≥ 0.8 ⇔ overhead ≤ 1.25x).
* ``replication-catchup`` — a follower replaying a journal of
  ``define``/``tell``/``retract`` entries while staying continuously
  serveable (one cautious probe per applied version).  Strategy
  ``replay`` applies entries through
  :meth:`~repro.server.replica.FollowerEngine.apply_entry` — the KB's
  incremental delta engine repairs the hot view per entry — vs
  strategy ``cold``, a KB that drops its cached views after every
  applied entry (``kb.rewind(kb.program())``) and so recomputes the
  probed view from scratch at every version (what a non-incremental
  follower would pay to serve reads while catching up).  The gate
  requires replay ≥ **5x** faster at the largest size (``--baseline
  cold --contender replay --min-speedup 5``).

Both catch-up strategies must answer every probe identically —
asserted per round via a positive-answer checksum.
"""

import asyncio
import itertools

import pytest

from repro.kb.knowledge_base import KnowledgeBase
from repro.server import ServerConfig, ServerEngine, parse_request
from repro.server.replica import FollowerEngine
from repro.server.wal import Wal
from repro.workloads.clients import build_server_kb
from repro.workloads.sessions import _level_rules, _root_rules, session_ops

from .conftest import capture_metrics, record

DEPTH = 4
ENTITIES = 8

#: (size label, concurrent tell requests per round) — mirrors the
#: ``server-write`` experiment so the two are comparable.
WRITE_SIZES = [("small", 32), ("large", 256)]

#: (size label, hierarchy depth, entity count, journal entries).
CATCHUP_SIZES = [("small", 4, 8, 40), ("large", 8, 16, 80)]

_dirs = itertools.count()

#: Positive-probe checksums per size, replay vs cold (filled lazily).
_CHECKSUMS: dict[str, dict[str, int]] = {}


def _tell(i: int):
    level = i % DEPTH
    return parse_request(
        {
            "id": i,
            "op": "tell",
            "view": f"level{level}",
            "rules": f"enrolled_{level}(e{i % ENTITIES}).",
        }
    )


# ----------------------------------------------------------------------
# WAL append overhead
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["no-wal", "wal"])
@pytest.mark.parametrize(
    "size,n_ops", WRITE_SIZES, ids=[s[0] for s in WRITE_SIZES]
)
def test_wal_append_overhead(benchmark, tmp_path, size, n_ops, mode):
    config = ServerConfig(max_queue=n_ops + 8, max_batch=64)

    async def scenario():
        wal = None
        if mode == "wal":
            wal = Wal(
                str(tmp_path / f"wal-{next(_dirs)}"),
                fsync="always",
                checkpoint_every=None,
            )
        engine = ServerEngine(build_server_kb(DEPTH, ENTITIES), config, wal=wal)
        async with engine:
            replies = await asyncio.gather(
                *(engine.handle(_tell(i)) for i in range(n_ops))
            )
            assert all(reply["ok"] for reply in replies)
            if wal is not None:
                assert wal.writer.appends == engine.version
                assert wal.writer.fsyncs >= 1
            return engine.version

    def run():
        return asyncio.run(scenario())

    versions = benchmark(run)
    assert 0 < versions <= n_ops
    record(
        benchmark,
        experiment="wal-overhead",
        size={"small": 1, "large": 2}[size],
        ops=n_ops,
        strategy=mode,
    )
    capture_metrics(benchmark, run)


# ----------------------------------------------------------------------
# Follower catch-up replay vs cold recompute
# ----------------------------------------------------------------------

def journal_entries(depth: int, n_entities: int, n_ops: int) -> list[list[dict]]:
    """A leader journal for the registry hierarchy: the defines (root
    down to ``level0``), then the session write stream — one entry
    (one op) per version, exactly what a follower receives."""
    entries = [
        [
            {
                "op": "define",
                "view": "root",
                "rules": _root_rules(depth, n_entities),
                "isa": [],
                "seers": ["root"],
            }
        ]
    ]
    for level in reversed(range(depth)):
        above = "root" if level == depth - 1 else f"level{level + 1}"
        entries.append(
            [
                {
                    "op": "define",
                    "view": f"level{level}",
                    "rules": _level_rules(level),
                    "isa": [above],
                    "seers": [f"level{level}"],
                }
            ]
        )
    for kind, view, fact in session_ops(depth, n_entities, n_ops):
        if kind == "ask":
            continue
        entries.append(
            [
                {
                    "op": kind,
                    "view": view,
                    "rules": fact,
                    "isa": [],
                    "seers": [view],
                }
            ]
        )
    return entries


@pytest.mark.parametrize("mode", ["cold", "replay"])
@pytest.mark.parametrize(
    "size,depth,n_entities,n_ops",
    CATCHUP_SIZES,
    ids=[s[0] for s in CATCHUP_SIZES],
)
def test_catchup_replay(benchmark, size, depth, n_entities, n_ops, mode):
    entries = journal_entries(depth, n_entities, n_ops)

    def run_replay():
        engine = FollowerEngine()
        yes = 0
        for version, ops in enumerate(entries, start=1):
            engine.apply_entry(version, ops, leader_version=len(entries))
            if "level0" in engine.kb.objects:
                yes += bool(engine.kb.ask("level0", "member(e0)"))
        assert engine.version == len(entries)
        assert engine.lag_versions == 0
        return yes

    def run_cold():
        kb = KnowledgeBase()
        yes = 0
        for ops in entries:
            for op in ops:
                kb.apply_op(op)
            kb.rewind(kb.program())  # drop every cached view
            if "level0" in kb.objects:
                yes += bool(kb.ask("level0", "member(e0)"))
        return yes

    run = run_replay if mode == "replay" else run_cold
    yes = benchmark(run)

    # Both strategies must serve identical answers at every version.
    _CHECKSUMS.setdefault(size, {})[mode] = yes
    seen = _CHECKSUMS[size]
    if len(seen) == 2:
        assert seen["replay"] == seen["cold"], seen
    record(
        benchmark,
        experiment="replication-catchup",
        size={"small": 1, "large": 2}[size],
        depth=depth,
        entities=n_entities,
        entries=len(entries),
        strategy=mode,
    )
    capture_metrics(benchmark, run)
