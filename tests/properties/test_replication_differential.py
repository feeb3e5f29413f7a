"""Differential soak for follower replication (docs/replication.md).

One leader and two followers (one of them view-filtered) run over real
TCP inside one loop.  Randomized client traces drive the leader while
reader coroutines hammer the followers; afterwards a serialized oracle
replays the leader's recorded history and we assert:

* **Answer bit-identity** — every successful follower read, taken at
  the version stamped on its reply, equals the oracle's answer at that
  version.  A follower serving version ``v`` must be indistinguishable
  from the leader at ``v``.
* **Convergence** — once the stream drains, both followers'
  knowledge bases serialize to exactly the leader's
  (:func:`~repro.serialize.kb_signature` equality), and the filtered
  follower's applied version matches despite receiving empty entries
  for out-of-scope writes.

``REPLICATION_TRACES`` scales the number of randomized traces (the CI
replication lane runs more; the nightly soak more still).
"""

import asyncio
import json
import os
import random

from repro.kb.query import answers_in
from repro.serialize import kb_signature
from repro.server import QueryServer, ServerConfig, ServerEngine
from repro.server.replica import FollowerEngine, tail_leader
from repro.workloads.clients import build_server_kb, client_traces, replay_traces

from ..conftest import record_history

TRACES = int(os.environ.get("REPLICATION_TRACES", "2"))
DEPTH = 3
ENTITIES = 5
PATTERNS = ["member", "ok", "flagged", "-member", "-flagged"]


def oracle_read(kb, payload):
    answers = answers_in(kb.view(payload["view"]).least_model, payload["pattern"])
    if payload["op"] == "ask":
        return {"holds": bool(answers)}
    return {
        "answers": [
            {
                "literal": str(a.literal),
                "bindings": {str(v): str(t) for v, t in a.bindings.items()},
            }
            for a in answers
        ],
        "count": len(answers),
        "mode": "cautious",
    }


def apply_request(kb, request):
    if request.op == "tell":
        kb.tell(request.view, request.rules)
    elif request.op == "retract":
        kb.retract(request.view, request.rules)
    else:
        kb.define(request.view, request.rules, isa=request.isa)


async def follower_reader(port, n_reads, seed, views):
    """Issue ``n_reads`` random reads against a follower over TCP,
    returning every (payload, reply) pair."""
    rng = random.Random(seed)
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    out = []
    try:
        for index in range(n_reads):
            payload = {
                "id": f"r{seed}-{index}",
                "op": rng.choice(["query", "ask"]),
                "view": rng.choice(views),
                "pattern": (
                    f"{rng.choice(PATTERNS)}"
                    f"({rng.choice([f'e{i}' for i in range(ENTITIES)] + ['X'])})"
                ),
            }
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            line = await reader.readline()
            assert line, "follower closed mid-read"
            out.append((payload, json.loads(line)))
            if rng.random() < 0.5:
                await asyncio.sleep(0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
    return out


async def wait_for_version(engine, version, timeout_s=60.0):
    deadline = asyncio.get_event_loop().time() + timeout_s
    while engine.version < version:
        assert asyncio.get_event_loop().time() < deadline, (
            f"follower stuck at {engine.version}, want {version}"
        )
        await asyncio.sleep(0.02)


def run_trace(seed: int) -> None:
    rng = random.Random(seed)
    views = [f"level{i}" for i in range(DEPTH)] + ["root"]
    traces = client_traces(
        depth=DEPTH,
        n_entities=ENTITIES,
        n_clients=rng.randint(2, 3),
        ops_per_client=rng.randint(8, 18),
        seed=seed,
    )
    # level0's scope covers the whole ancestor chain, so the filtered
    # follower still applies every level0-relevant write.
    filter_views = ("level0",)

    async def scenario():
        leader_engine = record_history(
            ServerEngine(
                build_server_kb(DEPTH, ENTITIES),
                ServerConfig(max_batch=rng.choice([1, 4, 16])),
            )
        )
        full = FollowerEngine()
        filtered = FollowerEngine(views=filter_views)
        async with QueryServer(leader_engine, port=0) as leader:
            async with QueryServer(full, port=0) as full_server:
                async with QueryServer(filtered, port=0) as filtered_server:
                    tails = [
                        asyncio.ensure_future(
                            tail_leader(engine, "127.0.0.1", leader.port)
                        )
                        for engine in (full, filtered)
                    ]
                    try:
                        replay = replay_traces(
                            leader_engine, traces, seed=seed,
                            yield_probability=rng.random(),
                        )
                        reads = asyncio.gather(
                            follower_reader(
                                full_server.port, 30, seed * 3 + 1, views
                            ),
                            follower_reader(
                                filtered_server.port, 30, seed * 3 + 2,
                                ["level0"],
                            ),
                        )
                        _, (full_reads, filtered_reads) = await asyncio.gather(
                            replay, reads
                        )
                        await wait_for_version(full, leader_engine.version)
                        await wait_for_version(filtered, leader_engine.version)
                        return (
                            leader_engine,
                            (full, full_reads),
                            (filtered, filtered_reads),
                        )
                    finally:
                        for engine in (full, filtered):
                            engine.shutdown_requested.set()
                        for tail in tails:
                            tail.cancel()
                        await asyncio.gather(*tails, return_exceptions=True)

    leader_engine, full_pair, filtered_pair = asyncio.run(scenario())

    # Neither follower ever needed the corruption recovery of last
    # resort, and both converged to the leader's exact state.
    leader_signature = kb_signature(leader_engine.kb)
    for engine, _reads in (full_pair, filtered_pair):
        assert engine.resets == 0, f"seed {seed}: follower wiped state"
        assert engine.version == leader_engine.version
        assert kb_signature(engine.kb) == leader_signature, (
            f"seed {seed}: follower diverged from leader"
        )

    # Oracle replay: group follower reads by served version, then walk
    # the leader's history applying each batch and comparing answers.
    reads_at: dict[int, list[tuple[dict, dict]]] = {}
    for _engine, reads in (full_pair, filtered_pair):
        for payload, reply in reads:
            if reply["ok"]:
                reads_at.setdefault(reply["version"], []).append(
                    (payload, reply)
                )
            # Failed reads happen only before the first sync, while the
            # follower is still empty; never after.

    oracle = build_server_kb(DEPTH, ENTITIES)

    def check_reads(version):
        for payload, reply in reads_at.pop(version, []):
            assert reply["result"] == oracle_read(oracle, payload), (
                f"seed {seed}: follower read {payload['id']} diverges "
                f"at version {version}"
            )

    check_reads(0)
    for snapshot, batch in leader_engine.history:
        for request in batch:
            apply_request(oracle, request)
        check_reads(snapshot.version)
    assert not reads_at, (
        f"seed {seed}: follower replies at unrecorded versions "
        f"{sorted(reads_at)}"
    )


def test_followers_match_serialized_oracle():
    for seed in range(TRACES):
        run_trace(seed)
