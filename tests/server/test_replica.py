"""Follower replication: the read-only engine contract, the subscribe
stream over TCP, and fleet routing."""

import asyncio
import json

import pytest

from repro.kb.knowledge_base import KnowledgeBase
from repro.obs import trace
from repro.serialize import kb_signature, kb_to_dict
from repro.server import (
    Backend,
    FleetServer,
    FollowerEngine,
    QueryServer,
    ReplicationError,
    ServerConfig,
    ServerEngine,
    parse_backend,
)
from repro.server.protocol import ProtocolError, parse_request
from repro.server.replica import tail_leader
from repro.server.wal import Wal
from repro.workloads.sessions import _level_rules, _root_rules, session_ops


def run(coro):
    return asyncio.run(coro)


def make_kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.define("bird", "fly(X) :- bird_of(X).\nbird_of(tweety).")
    kb.define(
        "penguin",
        "-fly(X) :- penguin_of(X).\nbird_of(X) :- penguin_of(X).",
        isa=["bird"],
    )
    return kb


def req(**fields):
    return parse_request(fields)


def entry_ops(rules="penguin_of(opus).", view="penguin"):
    return [
        {
            "op": "tell",
            "view": view,
            "rules": rules,
            "isa": [],
            "seers": [view],
        }
    ]


class Client:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def send(self, **payload):
        self.writer.write((json.dumps(payload) + "\n").encode())
        await self.writer.drain()

    async def recv(self):
        line = await self.reader.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    async def call(self, **payload):
        await self.send(**payload)
        return await self.recv()

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class TestSubscribeParsing:
    def test_subscribe_request_parses(self):
        request = req(
            id=1, op="subscribe", from_version=3, views=["bird", "penguin"]
        )
        assert request.from_version == 3
        assert request.views == ("bird", "penguin")

    def test_from_version_defaults_to_zero(self):
        assert req(op="subscribe").from_version == 0

    def test_negative_from_version_rejected(self):
        with pytest.raises(ProtocolError):
            req(op="subscribe", from_version=-1)

    def test_non_integer_from_version_rejected(self):
        with pytest.raises(ProtocolError):
            req(op="subscribe", from_version="three")

    def test_empty_views_rejected(self):
        with pytest.raises(ProtocolError):
            req(op="subscribe", views=[])

    def test_blank_view_name_rejected(self):
        with pytest.raises(ProtocolError):
            req(op="subscribe", views=["bird", ""])


class TestFollowerEngine:
    def test_writes_rejected_with_not_leader(self):
        async def scenario():
            async with FollowerEngine(leader="10.0.0.1:7777") as engine:
                reply = await engine.handle(
                    req(id=1, op="tell", view="bird", rules="bird_of(a).")
                )
                assert reply["ok"] is False
                assert reply["error"]["code"] == "not_leader"
                assert "10.0.0.1:7777" in reply["error"]["message"]

        run(scenario())

    def test_apply_entry_advances_and_serves(self):
        async def scenario():
            async with FollowerEngine() as engine:
                assert engine.apply_entry(
                    1,
                    [
                        {
                            "op": "define",
                            "view": "bird",
                            "rules": "fly(X) :- bird_of(X).\nbird_of(tweety).",
                            "isa": [],
                            "seers": ["bird"],
                        }
                    ],
                )
                assert engine.version == 1
                reply = await engine.handle(
                    req(id=1, op="ask", view="bird", pattern="fly(tweety)")
                )
                assert reply["ok"] and reply["result"]["holds"]
                assert reply["version"] == 1

        run(scenario())

    def test_duplicate_entry_skipped(self):
        async def scenario():
            async with FollowerEngine() as engine:
                define = {
                    "op": "define",
                    "view": "bird",
                    "rules": "",
                    "isa": [],
                    "seers": ["bird"],
                }
                assert engine.apply_entry(1, [define]) is True
                assert engine.apply_entry(1, [define]) is False
                assert engine.version == 1
                assert engine.entries_applied == 1

        run(scenario())

    def test_version_gap_raises(self):
        async def scenario():
            async with FollowerEngine() as engine:
                with pytest.raises(ReplicationError, match="gap"):
                    engine.apply_entry(2, entry_ops())

        run(scenario())

    def test_lag_tracks_leader_version(self):
        async def scenario():
            async with FollowerEngine() as engine:
                assert engine.lag_versions == 0
                engine.note_leader(5)
                assert engine.lag_versions == 5
                # A stale heartbeat never lowers the watermark.
                engine.note_leader(3)
                assert engine.leader_version == 5

        run(scenario())

    def test_load_snapshot_replaces_state(self):
        async def scenario():
            leader_kb = make_kb()
            async with FollowerEngine() as engine:
                engine.load_snapshot(kb_to_dict(leader_kb), 7)
                assert engine.version == 7
                assert engine.snapshots_loaded == 1
                assert kb_signature(engine.kb) == kb_signature(leader_kb)
                reply = await engine.handle(
                    req(id=1, op="ask", view="bird", pattern="fly(tweety)")
                )
                assert reply["ok"] and reply["result"]["holds"]

        run(scenario())

    def test_stats_and_exposition_report_replica_state(self):
        async def scenario():
            async with FollowerEngine(
                leader="h:1", views=("bird",)
            ) as engine:
                engine.note_leader(4)
                replica = engine.stats()["replica"]
                assert replica["leader"] == "h:1"
                assert replica["views"] == ["bird"]
                assert replica["lag_versions"] == 4
                text = engine.exposition()
                assert "repro_replica_lag_versions 4" in text
                assert "repro_replica_applied_version 0" in text
                assert "replica.lag_versions" in text  # help text anchor

        run(scenario())


class TestSubscribeStream:
    def test_catch_up_from_cold_journal_then_live_entries(self, tmp_path):
        async def scenario():
            # A leader that started EMPTY: every version (including the
            # defines) went through the journal, so a fresh follower
            # can catch up purely from entries.
            wal = Wal(str(tmp_path), fsync="never")
            kb, version = wal.recover()
            engine = ServerEngine(kb, wal=wal, initial_version=version)
            async with QueryServer(engine, port=0) as server:
                writer_client = await Client.connect(server.port)
                defined = await writer_client.call(
                    id=1, op="define", view="bird",
                    rules="fly(X) :- bird_of(X).",
                )
                assert defined["version"] == 1
                told = await writer_client.call(
                    id=2, op="tell", view="bird", rules="bird_of(tweety)."
                )
                assert told["version"] == 2

                sub = await Client.connect(server.port)
                await sub.send(id="s", op="subscribe", from_version=0)
                head = await sub.recv()
                assert head["ok"] and head["result"]["type"] == "subscribed"
                assert head["result"]["mode"] == "entries"
                first = await sub.recv()
                assert first["result"]["type"] == "entry"
                assert first["version"] == 1
                assert first["result"]["ops"][0]["op"] == "define"
                second = await sub.recv()
                assert second["version"] == 2
                assert second["result"]["ops"][0]["rules"] == "bird_of(tweety)."

                # A write published after subscription arrives live.
                await writer_client.call(
                    id=3, op="tell", view="bird", rules="bird_of(polly)."
                )
                third = await sub.recv()
                assert third["version"] == 3
                await sub.close()
                await writer_client.close()

        run(scenario())

    def test_seeded_version_zero_forces_snapshot(self, tmp_path):
        """A leader whose version 0 was a seeded KB (file / --restore)
        must never serve entries to a from_version=0 subscriber — no
        journal suffix reconstructs the seeded base state."""

        async def scenario():
            kb = make_kb()
            wal = Wal(str(tmp_path), fsync="never")
            wal.checkpoint(kb, 0)
            engine = ServerEngine(kb, wal=wal)
            async with QueryServer(engine, port=0) as server:
                sub = await Client.connect(server.port)
                await sub.send(id="s", op="subscribe", from_version=0)
                head = await sub.recv()
                assert head["result"]["mode"] == "snapshot"
                snapshot = await sub.recv()
                assert snapshot["result"]["type"] == "snapshot"
                assert snapshot["version"] == 0
                await sub.close()

        run(scenario())

    def test_catch_up_without_journal_sends_snapshot(self):
        async def scenario():
            engine = ServerEngine(make_kb())
            async with QueryServer(engine, port=0) as server:
                writer_client = await Client.connect(server.port)
                await writer_client.call(
                    id=1, op="tell", view="penguin", rules="penguin_of(opus)."
                )
                sub = await Client.connect(server.port)
                await sub.send(id="s", op="subscribe", from_version=0)
                head = await sub.recv()
                assert head["result"]["type"] == "subscribed"
                assert head["result"]["mode"] == "snapshot"
                snapshot = await sub.recv()
                assert snapshot["result"]["type"] == "snapshot"
                assert snapshot["version"] == 1
                assert "kb" in snapshot["result"]
                await sub.close()
                await writer_client.close()

        run(scenario())

    def test_view_filtered_stream_keeps_contiguous_versions(self, tmp_path):
        async def scenario():
            wal = Wal(str(tmp_path), fsync="never")
            kb, version = wal.recover()
            engine = ServerEngine(kb, wal=wal, initial_version=version)
            async with QueryServer(engine, port=0) as server:
                writer_client = await Client.connect(server.port)
                await writer_client.call(
                    id=1, op="define", view="bird",
                    rules="fly(X) :- bird_of(X).",
                )
                await writer_client.call(
                    id=2, op="define", view="penguin",
                    rules="-fly(X) :- penguin_of(X).", isa=["bird"],
                )

                sub = await Client.connect(server.port)
                await sub.send(
                    id="s", op="subscribe", from_version=2, views=["bird"]
                )
                head = await sub.recv()
                assert head["result"]["type"] == "subscribed"
                assert head["result"]["mode"] == "entries"

                # penguin-only fact: bird does not see it, but the
                # version must still be delivered (empty ops) so the
                # follower's applied version stays contiguous.
                await writer_client.call(
                    id=3, op="tell", view="penguin", rules="penguin_of(opus)."
                )
                await writer_client.call(
                    id=4, op="tell", view="bird", rules="bird_of(polly)."
                )
                first = await sub.recv()
                assert first["version"] == 3 and first["result"]["ops"] == []
                second = await sub.recv()
                assert second["version"] == 4
                assert second["result"]["ops"][0]["view"] == "bird"
                await sub.close()
                await writer_client.close()

        run(scenario())

    def test_drain_ends_stream_cleanly(self):
        async def scenario():
            # An unseeded engine: from_version=0 is entries mode with
            # no backlog, so the next frame is the drain's end marker.
            engine = ServerEngine()
            async with QueryServer(engine, port=0) as server:
                sub = await Client.connect(server.port)
                await sub.send(id="s", op="subscribe", from_version=0)
                head = await sub.recv()
                assert head["result"]["type"] == "subscribed"
                # The end frame is written during the server's drain, so
                # the drain must run concurrently with the stream read.
                drain = asyncio.ensure_future(server.serve_until_shutdown())
                admin = await Client.connect(server.port)
                await admin.call(id=1, op="shutdown")
                end = await sub.recv()
                assert end["result"]["type"] == "end"
                assert end["result"]["reason"] == "shutting_down"
                await drain
                await sub.close()
                await admin.close()

        run(scenario())


class TestFollowerOverTcp:
    def test_follower_tails_and_serves_reads(self):
        async def scenario():
            leader_engine = ServerEngine(make_kb())
            async with QueryServer(leader_engine, port=0) as leader:
                client = await Client.connect(leader.port)
                await client.call(
                    id=1, op="tell", view="penguin", rules="penguin_of(opus)."
                )
                follower = FollowerEngine(
                    leader=f"127.0.0.1:{leader.port}"
                )
                tail = asyncio.ensure_future(
                    tail_leader(follower, "127.0.0.1", leader.port)
                )
                try:
                    async with follower:
                        for _ in range(200):
                            if follower.version >= 1:
                                break
                            await asyncio.sleep(0.01)
                        assert follower.version == 1
                        reply = await follower.handle(
                            req(id=1, op="ask", view="penguin",
                                pattern="-fly(opus)")
                        )
                        assert reply["ok"] and reply["result"]["holds"]

                        # Live replication of a second write.
                        await client.call(
                            id=2, op="tell", view="penguin",
                            rules="penguin_of(pingu).",
                        )
                        for _ in range(200):
                            if follower.version >= 2:
                                break
                            await asyncio.sleep(0.01)
                        assert follower.version == 2
                        assert kb_signature(follower.kb) == kb_signature(
                            leader_engine.kb
                        )
                finally:
                    follower.shutdown_requested.set()
                    tail.cancel()
                    await asyncio.gather(tail, return_exceptions=True)
                await client.close()

        run(scenario())


class TestFleet:
    def test_parse_backend_specs(self):
        plain = parse_backend("127.0.0.1:9000")
        assert (plain.host, plain.port, plain.views) == ("127.0.0.1", 9000, None)
        scoped = parse_backend("10.1.2.3:9001=bird,penguin")
        assert scoped.views == frozenset({"bird", "penguin"})
        assert scoped.serves("bird") and not scoped.serves("owl")
        assert plain.serves("anything") and plain.serves(None) is True

    def test_parse_backend_rejects_garbage(self):
        for spec in ("nohost", "host:notaport", "h:1="):
            with pytest.raises(ValueError):
                parse_backend(spec)

    def test_fleet_routes_writes_to_leader_reads_to_follower(self):
        async def scenario():
            leader_engine = ServerEngine(make_kb())
            follower_engine = FollowerEngine()
            async with QueryServer(leader_engine, port=0) as leader:
                async with QueryServer(follower_engine, port=0) as follower:
                    tail = asyncio.ensure_future(
                        tail_leader(follower_engine, "127.0.0.1", leader.port)
                    )
                    fleet = FleetServer(
                        Backend("127.0.0.1", leader.port),
                        [Backend("127.0.0.1", follower.port)],
                        port=0,
                    )
                    await fleet.start()
                    try:
                        client = await Client.connect(fleet.port)
                        told = await client.call(
                            id=1, op="tell", view="penguin",
                            rules="penguin_of(opus).",
                        )
                        assert told["ok"] and told["version"] == 1
                        assert leader_engine.version == 1

                        for _ in range(200):
                            if follower_engine.version >= 1:
                                break
                            await asyncio.sleep(0.01)

                        reply = await client.call(
                            id=2, op="ask", view="penguin",
                            pattern="-fly(opus)",
                        )
                        assert reply["ok"] and reply["result"]["holds"]
                        assert fleet.routed_reads == 1
                        assert fleet.routed_writes == 1
                        # The read was served by the follower, not the
                        # leader: only the follower backend took it.
                        assert fleet.followers[0].requests == 1

                        sub = await client.call(id=3, op="subscribe")
                        assert sub["ok"] is False
                        assert sub["error"]["code"] == "bad_request"
                        assert str(leader.port) in sub["error"]["message"]

                        bye = await client.call(id=4, op="shutdown")
                        assert bye["ok"] and bye["result"]["draining"]
                        await client.close()
                    finally:
                        follower_engine.shutdown_requested.set()
                        tail.cancel()
                        await asyncio.gather(tail, return_exceptions=True)
                        await fleet.aclose()

        run(scenario())

    def test_dead_follower_falls_back_to_leader(self):
        async def scenario():
            leader_engine = ServerEngine(make_kb())
            async with QueryServer(leader_engine, port=0) as leader:
                # A follower backend pointed at a port nobody listens on.
                dead = Backend("127.0.0.1", 1)
                fleet = FleetServer(
                    Backend("127.0.0.1", leader.port), [dead], port=0
                )
                await fleet.start()
                try:
                    client = await Client.connect(fleet.port)
                    reply = await client.call(
                        id=1, op="ask", view="bird", pattern="fly(tweety)"
                    )
                    assert reply["ok"] and reply["result"]["holds"]
                    assert dead.failures == 1
                    await client.close()
                finally:
                    await fleet.aclose()

        run(scenario())

    def test_oversize_line_is_refused_by_the_fleet_front_end(self):
        """The fleet proxy reads request lines the way ``QueryServer``
        does: an oversize one gets ``bad_request`` and a closed
        connection — it used to kill the handler with no reply."""
        from repro.server.protocol import MAX_LINE_BYTES

        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            async with QueryServer(ServerEngine(make_kb()), port=0) as leader:
                backend = Backend("127.0.0.1", leader.port)
                fleet = FleetServer(backend, [], port=0)
                await fleet.start()
                try:
                    bystander = await Client.connect(fleet.port)
                    client = await Client.connect(fleet.port)
                    reply = await client.call(
                        id=1, op="ask", view="bird",
                        pattern="fly(" + "a" * 100_000 + ")",
                    )
                    assert reply["ok"] is False and reply["id"] is None
                    assert reply["error"]["code"] == "bad_request"
                    assert reply["error"]["message"] == (
                        f"request line exceeds {MAX_LINE_BYTES} bytes"
                    )
                    assert await client.reader.read() == b""
                    await client.close()
                    # Never forwarded; other connections still routed.
                    assert backend.requests == 0
                    asked = await bystander.call(
                        id=2, op="ask", view="bird", pattern="fly(tweety)"
                    )
                    assert asked["ok"] and asked["result"]["holds"] is True
                    await bystander.close()
                finally:
                    await fleet.aclose()
            assert unhandled == []

        run(scenario())

    @pytest.mark.parametrize(
        "frame",
        [b'{"op": []}\n', b"\xff\xfe\n", b"[" * 60_000 + b"\n"],
        ids=["unhashable-op", "not-utf8", "deep-nesting"],
    )
    def test_hostile_frame_is_refused_by_the_fleet_front_end(self, frame):
        """A well-framed line that is not a request object (or whose
        ``op`` cannot be looked up) used to kill the fleet's handler —
        or be forwarded to a backend whose handler then died."""

        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            async with QueryServer(ServerEngine(make_kb()), port=0) as leader:
                backend = Backend("127.0.0.1", leader.port)
                fleet = FleetServer(backend, [], port=0)
                await fleet.start()
                try:
                    client = await Client.connect(fleet.port)
                    client.writer.write(frame)
                    await client.writer.drain()
                    reply = await client.recv()
                    assert reply["ok"] is False
                    assert reply["error"]["code"] == "bad_request"
                    # Refused at the front end, never forwarded ...
                    assert backend.requests == 0
                    # ... and the same connection is still routed.
                    asked = await client.call(
                        id=2, op="ask", view="bird", pattern="fly(tweety)"
                    )
                    assert asked["ok"] and asked["result"]["holds"] is True
                    await client.close()
                finally:
                    await fleet.aclose()
            assert unhandled == []

        run(scenario())


# ----------------------------------------------------------------------
# What an incremental follower saves, in counts
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
            [{"op": kind, "view": view, "rules": fact, "isa": [], "seers": [view]}]
        )
    return entries


def test_catch_up_replay_repairs_the_hot_view_instead_of_recomputing_it():
    """A follower replaying a journal while serving a probe at every
    version repairs its hot view through the delta engine: a fifth of
    the rule work of a follower that recomputes the view from ∅ at
    every version (``kb.rewind`` after each entry), same answers."""
    entries = journal_entries(4, 8, 40)

    def probe(kb):
        return "level0" in kb.objects and kb.ask("level0", "member(e0)")

    engine = FollowerEngine()
    with trace("replay") as replay:
        replayed = []
        for version, ops in enumerate(entries, start=1):
            engine.apply_entry(version, ops, leader_version=len(entries))
            replayed.append(probe(engine.kb))
    assert engine.version == len(entries) and engine.lag_versions == 0

    kb = KnowledgeBase()
    with trace("cold") as cold:
        recomputed = []
        for ops in entries:
            for op in ops:
                kb.apply_op(op)
            kb.rewind(kb.program())  # drop every cached view
            recomputed.append(probe(kb))

    assert replayed == recomputed and any(replayed)
    work = replay.costs.get("rules_reevaluated", 0) + replay.costs.get("rules_touched", 0)
    assert 5 * work <= cold.costs["rules_touched"], (replay.costs, cold.costs)
    assert replay.costs["full_rebuilds"] == 0 and engine.resets == 0
