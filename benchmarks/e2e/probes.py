"""In-process layer probes of the server workloads.

Each probe times one layer's public functions from outside, over the very
requests, replies and writes the run produced — so the layer rows and the
end-to-end rows describe the same traffic.  Probes run only in traced
runs, after the measured window.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Sequence

from repro.kb.knowledge_base import KnowledgeBase
from repro.obs import instrumented
from repro.server.protocol import encode, parse_request
from repro.server.wal import Wal
from repro.workloads import session_program

from .common import median, ratio
from .harness import ClientLog

#: Most writes replayed by the maintenance and WAL probes.
WRITE_SAMPLE = 300


def maintenance(depth: int, n_entities: int,
                writes: Sequence[tuple[str, str, str]]) -> dict[str, float]:
    """Replay the acked write prefix through ``KnowledgeBase.tell/retract``
    and re-read every view the write can change, as the server's publish
    step does for its materialized views."""
    kb = KnowledgeBase.from_program(session_program(depth, n_entities))
    for level in range(depth):
        kb.view(f"level{level}").least_model
    sample = writes[:WRITE_SAMPLE]
    times = []
    with instrumented() as obs:
        for op, view, rules in sample:
            t0 = time.perf_counter()
            (kb.tell if op == "tell" else kb.retract)(view, rules)
            for level in range(int(view[len("level"):]) + 1):
                kb.view(f"level{level}").least_model
            times.append(time.perf_counter() - t0)
        counters = obs.snapshot()["counters"]
    return {
        "core.maintenance.apply_ms": median(times) * 1000.0,
        "core.maintenance.rules_reevaluated": ratio(
            counters.get("maintain.rules_reevaluated", 0), len(sample)
        ),
        "core.maintenance.full_rebuilds": counters.get("maintain.full_rebuilds", 0),
    }


def protocol(logs: Sequence[ClientLog]) -> dict[str, float]:
    """``parse_request`` over the requests sent and ``encode`` over the
    replies received (microseconds per call)."""
    lines = [request.prefix + b"}" for log in logs for request in log.sent[:1000]]
    replies = [reply for log in logs for reply in log.samples]
    t0 = time.perf_counter()
    for line in lines:
        parse_request(line)
    t1 = time.perf_counter()
    for reply in replies:
        encode(reply)
    t2 = time.perf_counter()
    return {
        "server.protocol.parse_us": ratio((t1 - t0) * 1e6, len(lines)),
        "server.protocol.encode_us": ratio((t2 - t1) * 1e6, len(replies)),
    }


def wal_append(directory: Path, fsync: str,
               writes: Sequence[tuple[str, str, str]]) -> dict[str, float]:
    """``Wal.append`` of one-op batches in the journal's own record shape."""
    wal = Wal(str(directory), fsync=fsync, checkpoint_every=None)
    try:
        wal.recover()
        times = []
        for version, (op, view, rules) in enumerate(writes[:WRITE_SAMPLE], start=1):
            record = [{"op": op, "view": view, "rules": rules, "isa": [], "seers": [view]}]
            t0 = time.perf_counter()
            wal.append(version, record)
            times.append(time.perf_counter() - t0)
    finally:
        wal.close()
    return {"server.wal.append_ms": median(times) * 1000.0}


def magic_rewrite(rules, edb_predicates: frozenset[str], goals: Sequence[str]) -> float:
    """Milliseconds per ``build_plan`` over the workload's goal shapes."""
    from repro.lang.parser import parse_literal
    from repro.query.magic import build_plan

    parsed = [parse_literal(goal) for goal in goals]
    rounds = 50
    t0 = time.perf_counter()
    for _ in range(rounds):
        for goal in parsed:
            build_plan(goal, rules, edb_predicates, lambda literal: None)
    return (time.perf_counter() - t0) * 1000.0 / (rounds * len(parsed))


def edb_fetch(path: Path, patterns: Sequence[tuple[str, tuple]]) -> float:
    """Milliseconds per ``EdbStore.fetch`` on the patterns the run issued."""
    from repro.db.edb import EdbStore

    with EdbStore(str(path)) as store:
        t0 = time.perf_counter()
        for name, pattern in patterns:
            for _ in store.fetch(name, pattern):
                pass
        elapsed = time.perf_counter() - t0
    return ratio(elapsed * 1000.0, len(patterns))
