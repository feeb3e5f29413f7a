"""The serving column: randomized concurrent client traces
(``workloads.clients``) against a live leader, and against followers
tailing it over TCP, each checked against one serialized oracle — the
leader's recorded batches replayed one op at a time through
``KnowledgeBase.apply_op`` (:func:`.oracle.replay`).

* **Leader** (:func:`leader`): at every published version the snapshot's
  program and every view's least model equal the oracle's, every read
  reply stamped with that version is the oracle's answer, and every ok
  write names the batch that applied it.
* **Followers** (:func:`followers`): one full and one view-filtered
  follower converge to the leader's exact state
  (:func:`~repro.serialize.kb_signature`) without a reset, and every
  read either served equals the oracle's answer at the version stamped
  on its reply.
* **REPL** (:func:`repl`): the leader's client traces, interleaved into
  one serial stream and typed as REPL lines (``focus``, ``assert V
  fact.``, ``retract V fact.``, ``query PATTERN cautious``, and ``why
  P`` / ``value P`` for a ground read), give the oracle's reply at
  every step, and the session ends on the oracle's program.
"""

from __future__ import annotations

import asyncio
import json
import random

from repro.core.semantics import OrderedSemantics
from repro.explain.trace import Explainer
from repro.lang.errors import SemanticsError
from repro.lang.parser import parse_literal, parse_rule
from repro.repl import ReplSession
from repro.serialize import interpretation_to_dict, kb_signature
from repro.server import QueryServer, ServerConfig, ServerEngine
from repro.server.replica import FollowerEngine, tail_leader
from repro.workloads.clients import build_server_kb, client_traces, replay_traces

from ..conftest import record_history
from . import oracle
from .scale import size

PATTERNS = ["member", "ok", "flagged", "-member", "-flagged"]


def views(depth: int) -> list[str]:
    return [f"level{i}" for i in range(depth)] + ["root"]


def check_reads(kb, reads, version, where):
    for payload, reply in reads.pop(version, []):
        assert reply["result"] == oracle.read(kb, payload), (
            f"{where}: read {payload['id']} diverges at version {version}"
        )


# ----------------------------------------------------------------------
# Leader
# ----------------------------------------------------------------------
#: The leader traces' session hierarchy.
DEPTH, ENTITIES = 4, 6


def leader(seed: int) -> None:
    rng = random.Random(seed)
    traces = client_traces(
        depth=DEPTH,
        n_entities=ENTITIES,
        n_clients=rng.randint(2, size("server_clients")),
        ops_per_client=rng.randint(10, size("server_ops")),
        seed=seed,
    )
    config = ServerConfig(max_batch=rng.choice([1, 4, 16, 64]))

    async def scenario():
        engine = record_history(ServerEngine(build_server_kb(DEPTH, ENTITIES), config))
        async with engine:
            results = await replay_traces(
                engine, traces, seed=seed, yield_probability=rng.random()
            )
        return engine, results

    engine, results = asyncio.run(scenario())

    # Replies grouped by the snapshot version they were served at.
    reads: dict[int, list[tuple[dict, dict]]] = {}
    applied: dict[int, set] = {}
    for pairs in results:
        for payload, reply in pairs:
            if not reply["ok"]:
                continue
            if payload["op"] in ("query", "ask"):
                reads.setdefault(reply["version"], []).append((payload, reply))
            else:
                applied.setdefault(reply["version"], set()).add(payload["id"])

    serial = build_server_kb(DEPTH, ENTITIES)
    where = f"seed {seed}"
    recorded = set()
    for snapshot, batch in oracle.replay(engine.history, serial):
        version = snapshot.version
        recorded.add(version)
        # Every ok write stamped with this version is in this batch, and
        # everything in the batch got an ok reply.
        assert applied.get(version, set()) == {r.id for r in batch}, (
            f"{where}: version {version} applied ids diverge"
        )
        assert snapshot.program == serial.program(), (
            f"{where}: program diverges at version {version}"
        )
        for view in views(DEPTH):
            model = snapshot.models.get(view)
            if model is None:
                model = OrderedSemantics(snapshot.program, view).least_model
            assert interpretation_to_dict(model) == interpretation_to_dict(
                serial.view(view).least_model
            ), f"{where}: view {view} diverges at version {version}"
        check_reads(serial, reads, version, where)
    # Every version with an ok write or read reply exists in history.
    assert set(applied) <= recorded
    assert not reads, f"{where}: replies at unrecorded versions {sorted(reads)}"


# ----------------------------------------------------------------------
# REPL
# ----------------------------------------------------------------------
def serialize(traces, rng: random.Random) -> list[dict]:
    """The clients' traces interleaved at random into one stream, each
    client's own order kept."""
    pending = [list(reversed(trace)) for trace in traces]
    stream = []
    while any(pending):
        stream.append(rng.choice([p for p in pending if p]).pop())
    return stream


def repl(seed: int) -> None:
    rng = random.Random(seed)
    traces = client_traces(
        depth=DEPTH,
        n_entities=ENTITIES,
        n_clients=rng.randint(2, size("server_clients")),
        ops_per_client=rng.randint(10, size("server_ops")),
        seed=seed,
    )
    session = ReplSession(build_server_kb(DEPTH, ENTITIES).program())
    serial = build_server_kb(DEPTH, ENTITIES)
    for step, payload in enumerate(serialize(traces, rng)):
        where = f"seed {seed}, step {step} ({payload['id']})"
        view = payload["view"]
        if payload["op"] in ("query", "ask"):
            if session.focus != view:
                assert session.execute(f"focus {view}") == f"focus = {view}", where
            got = session.execute(f"query {payload['pattern']} cautious")
            want = oracle.read(serial, {**payload, "op": "query"})["answers"]
            assert got == ("\n".join(a["literal"] for a in want) or "no"), where
            pattern = payload["pattern"]
            if parse_literal(pattern).is_ground:
                # why and value read the explain op's result.
                explained = Explainer(serial.view(view)).explain(pattern)
                assert session.execute(f"why {pattern}") == explained, where
                value = str(serial.value(view, pattern))
                assert session.execute(f"value {pattern}") == value, where
            continue
        command = "assert" if payload["op"] == "tell" else "retract"
        got = session.execute(f"{command} {view} {payload['rules']}")
        try:
            serial.apply_op(payload)
        except SemanticsError:
            assert got.startswith("error:"), where
            continue
        done = "retracted " if command == "retract" else ""
        assert got == f"[{view}] {done}{parse_rule(payload['rules'])}", where
    assert session.program() == serial.program(), f"seed {seed}: program diverges"


# ----------------------------------------------------------------------
# Followers
# ----------------------------------------------------------------------
#: The follower traces' (smaller) session hierarchy.
FOLLOWER_DEPTH, FOLLOWER_ENTITIES = 3, 5


async def follower_reader(port, n_reads, seed, views):
    """Issue ``n_reads`` random reads against a follower over TCP,
    returning every (payload, reply) pair."""
    rng = random.Random(seed)
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    entities = [f"e{i}" for i in range(FOLLOWER_ENTITIES)] + ["X"]
    out = []
    try:
        for index in range(n_reads):
            payload = {
                "id": f"r{seed}-{index}",
                "op": rng.choice(["query", "ask"]),
                "view": rng.choice(views),
                "pattern": f"{rng.choice(PATTERNS)}({rng.choice(entities)})",
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


def followers(seed: int) -> None:
    rng = random.Random(seed)
    all_views = views(FOLLOWER_DEPTH)
    traces = client_traces(
        depth=FOLLOWER_DEPTH,
        n_entities=FOLLOWER_ENTITIES,
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
                build_server_kb(FOLLOWER_DEPTH, FOLLOWER_ENTITIES),
                ServerConfig(max_batch=rng.choice([1, 4, 16])),
            )
        )
        full = FollowerEngine()
        filtered = FollowerEngine(views=filter_views)
        async with QueryServer(leader_engine, port=0) as leader_server:
            async with QueryServer(full, port=0) as full_server:
                async with QueryServer(filtered, port=0) as filtered_server:
                    tails = [
                        asyncio.ensure_future(
                            tail_leader(engine, "127.0.0.1", leader_server.port)
                        )
                        for engine in (full, filtered)
                    ]
                    try:
                        replay = replay_traces(
                            leader_engine, traces, seed=seed,
                            yield_probability=rng.random(),
                        )
                        reads = asyncio.gather(
                            follower_reader(full_server.port, 30, seed * 3 + 1, all_views),
                            follower_reader(
                                filtered_server.port, 30, seed * 3 + 2, list(filter_views)
                            ),
                        )
                        _, served = await asyncio.gather(replay, reads)
                        await wait_for_version(full, leader_engine.version)
                        await wait_for_version(filtered, leader_engine.version)
                        return leader_engine, (full, filtered), served
                    finally:
                        for engine in (full, filtered):
                            engine.shutdown_requested.set()
                        for tail in tails:
                            tail.cancel()
                        await asyncio.gather(*tails, return_exceptions=True)

    leader_engine, engines, served = asyncio.run(scenario())
    where = f"seed {seed}"

    # Neither follower needed the corruption recovery of last resort,
    # and both converged to the leader's exact state.
    leader_signature = kb_signature(leader_engine.kb)
    for engine in engines:
        assert engine.resets == 0, f"{where}: follower wiped state"
        assert engine.version == leader_engine.version
        assert kb_signature(engine.kb) == leader_signature, (
            f"{where}: follower diverged from leader"
        )

    # Failed reads happen only before the first sync, while a follower
    # is still empty; never after.
    reads: dict[int, list[tuple[dict, dict]]] = {}
    for payload, reply in (pair for pairs in served for pair in pairs):
        if reply["ok"]:
            reads.setdefault(reply["version"], []).append((payload, reply))
    serial = build_server_kb(FOLLOWER_DEPTH, FOLLOWER_ENTITIES)
    for snapshot, _batch in oracle.replay(leader_engine.history, serial):
        check_reads(serial, reads, snapshot.version, where)
    assert not reads, f"{where}: follower replies at unrecorded versions {sorted(reads)}"
