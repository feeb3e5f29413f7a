"""End-to-end TCP sessions: scripted client over a live QueryServer."""

import asyncio
import json

import pytest

from repro.kb.knowledge_base import KnowledgeBase
from repro.server import QueryServer, ServerConfig, ServerEngine, parse_request


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


class Client:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def call(self, **payload):
        self.writer.write((json.dumps(payload) + "\n").encode())
        await self.writer.drain()
        line = await self.reader.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    async def send_raw(self, raw: bytes):
        self.writer.write(raw)
        await self.writer.drain()
        line = await self.reader.readline()
        return json.loads(line) if line else None

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


def test_scripted_session_and_graceful_shutdown():
    async def scenario():
        engine = ServerEngine(make_kb(), ServerConfig(keep_history=True))
        async with QueryServer(engine, port=0) as server:
            client = await Client.connect(server.port)
            health = await client.call(id=1, op="health")
            assert health["ok"] and health["result"]["status"] == "ok"

            reply = await client.call(
                id=2, op="query", view="bird", pattern="fly(X)"
            )
            assert reply["ok"] and reply["version"] == 0
            assert reply["result"]["answers"][0]["literal"] == "fly(tweety)"
            assert reply["result"]["answers"][0]["bindings"] == {"X": "tweety"}

            told = await client.call(
                id=3, op="tell", view="penguin", rules="penguin_of(opus)."
            )
            assert told["ok"] and told["version"] == 1

            asked = await client.call(
                id=4, op="ask", view="penguin", pattern="-fly(opus)"
            )
            assert asked["ok"] and asked["result"]["holds"] is True

            stats = await client.call(id=5, op="stats")
            assert stats["result"]["version"] == 1
            assert stats["result"]["requests"]["tell"] == 1

            bye = await client.call(id=6, op="shutdown")
            assert bye["ok"] and bye["result"]["draining"] is True
            await server.serve_until_shutdown()
            await client.close()
        assert engine.version == 1

    run(scenario())


def test_malformed_lines_get_bad_request_replies():
    async def scenario():
        async with QueryServer(ServerEngine(make_kb()), port=0) as server:
            client = await Client.connect(server.port)
            bad_json = await client.send_raw(b"this is not json\n")
            assert bad_json["ok"] is False
            assert bad_json["error"]["code"] == "bad_request"
            # The id is still correlated when extractable.
            bad_op = await client.send_raw(b'{"id": 9, "op": "nope"}\n')
            assert bad_op["id"] == 9
            assert bad_op["error"]["code"] == "bad_request"
            # Blank lines are ignored, the session keeps working.
            ok = await client.send_raw(b'\n{"id": 10, "op": "health"}\n')
            assert ok["id"] == 10 and ok["ok"]
            await client.close()

    run(scenario())


def test_oversize_line_is_refused_without_killing_the_handler():
    """A request line over the stream limit used to raise ValueError out
    of ``readline``: the handler died with "Unhandled exception in
    client_connected_cb" and the client got EOF with no reply."""
    from repro.server.protocol import MAX_LINE_BYTES

    async def scenario():
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        async with QueryServer(ServerEngine(make_kb()), port=0) as server:
            bystander = await Client.connect(server.port)
            client = await Client.connect(server.port)
            request = {
                "id": 1,
                "op": "ask",
                "view": "bird",
                "pattern": "fly(" + "a" * 100_000 + ")",
            }
            reply = await client.send_raw((json.dumps(request) + "\n").encode())
            assert reply["ok"] is False and reply["id"] is None
            assert reply["error"]["code"] == "bad_request"
            assert reply["error"]["message"] == (
                f"request line exceeds {MAX_LINE_BYTES} bytes"
            )
            # ... and that reply was the connection's last.
            assert await client.reader.read() == b""
            await client.close()
            # A line of exactly the limit is still a request.
            fits = b'{"id": 2, "op": "health"}'
            fits += b" " * (MAX_LINE_BYTES - len(fits)) + b"\n"
            second = await Client.connect(server.port)
            ok = await second.send_raw(fits)
            assert ok["id"] == 2 and ok["ok"]
            await second.close()
            # Connections open before the oversize line are unaffected.
            asked = await bystander.call(
                id=3, op="ask", view="bird", pattern="fly(tweety)"
            )
            assert asked["ok"] and asked["result"]["holds"] is True
            await bystander.close()
        assert unhandled == []

    run(scenario())


#: Well-framed lines whose *content* used to escape ``parse_request`` as
#: something other than ``ProtocolError`` (TypeError from hashing a list,
#: UnicodeDecodeError, RecursionError inside ``json.loads``).
HOSTILE_FRAMES = {
    "unhashable-op": b'{"op": []}\n',
    "not-utf8": b"\xff\xfe\n",
    "deep-nesting": b"[" * 60_000 + b"\n",
}


@pytest.mark.parametrize("frame", HOSTILE_FRAMES.values(), ids=HOSTILE_FRAMES)
def test_hostile_frame_gets_bad_request_and_the_connection_survives(frame):
    """Each frame used to kill the connection handler ("Unhandled
    exception in client_connected_cb") and leave the peer with EOF."""

    async def scenario():
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        async with QueryServer(ServerEngine(make_kb()), port=0) as server:
            client = await Client.connect(server.port)
            reply = await client.send_raw(frame)
            assert reply is not None, "EOF instead of a reply"
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad_request"
            # The framing was fine: the same connection keeps serving.
            asked = await client.call(
                id=1, op="ask", view="bird", pattern="fly(tweety)"
            )
            assert asked["id"] == 1 and asked["result"]["holds"] is True
            await client.close()
        assert unhandled == []

    run(scenario())


#: A term nested far past the parser's bound, in 6 KB — well under
#: ``MAX_LINE_BYTES``.  It used to raise ``RecursionError`` out of
#: ``ServerEngine.handle`` on reads and come back as ``internal: writer
#: failure`` on a tell.
DEEP_TERM = "fly(" + "f(" * 3000 + "a" + ")" * 3000 + ")"
DEEP_TERM_REQUESTS = {
    "ask": {"op": "ask", "view": "bird", "pattern": DEEP_TERM},
    "query": {"op": "query", "view": "bird", "pattern": DEEP_TERM},
    "query-demand": {
        "op": "query",
        "view": "bird",
        "pattern": DEEP_TERM,
        "strategy": "demand",
    },
    "tell": {"op": "tell", "view": "bird", "rules": DEEP_TERM + "."},
}


@pytest.mark.parametrize(
    "request_fields", DEEP_TERM_REQUESTS.values(), ids=DEEP_TERM_REQUESTS
)
def test_deep_term_gets_semantics_error_and_the_connection_survives(request_fields):
    async def scenario():
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        engine = ServerEngine(make_kb())
        async with QueryServer(engine, port=0) as server:
            # An embedded caller gets a reply too, not the exception.
            direct = await engine.handle(parse_request({"id": 0, **request_fields}))
            assert direct["ok"] is False
            client = await Client.connect(server.port)
            reply = await client.call(id=1, **request_fields)
            assert reply == {**direct, "id": 1}
            assert reply["error"]["code"] == "semantics"
            assert "nesting deeper than" in reply["error"]["message"]
            asked = await client.call(
                id=2, op="ask", view="bird", pattern="fly(tweety)"
            )
            assert asked["id"] == 2 and asked["result"]["holds"] is True
            await client.close()
        assert unhandled == []

    run(scenario())


def test_concurrent_connections_interleave():
    async def scenario():
        async with QueryServer(ServerEngine(make_kb()), port=0) as server:
            readers = [await Client.connect(server.port) for _ in range(3)]
            writer = await Client.connect(server.port)

            async def read_loop(client, n):
                out = []
                for i in range(n):
                    reply = await client.call(
                        id=i, op="ask", view="bird", pattern="fly(tweety)"
                    )
                    out.append(reply)
                return out

            async def write_loop(client, n):
                out = []
                for i in range(n):
                    out.append(
                        await client.call(
                            id=f"w{i}",
                            op="tell",
                            view="penguin",
                            rules=f"penguin_of(p{i}).",
                        )
                    )
                return out

            results = await asyncio.gather(
                read_loop(readers[0], 5),
                read_loop(readers[1], 5),
                read_loop(readers[2], 5),
                write_loop(writer, 5),
            )
            for replies in results[:3]:
                assert all(r["ok"] and r["result"]["holds"] for r in replies)
            versions = [r["version"] for r in results[3]]
            assert versions == sorted(versions)
            assert versions[-1] == 5  # every write published
            for client in readers + [writer]:
                await client.close()

    run(scenario())


def test_run_server_entry_point(capsys):
    from repro.server.service import run_server

    async def scenario():
        ready = asyncio.Event()
        task = asyncio.ensure_future(
            run_server(make_kb(), port=0, config=ServerConfig(max_queue=8), ready=ready)
        )
        await ready.wait()
        banner = capsys.readouterr().out
        assert "olp serve: listening on 127.0.0.1:" in banner
        port = int(banner.rsplit(":", 1)[1])
        client = await Client.connect(port)
        told = await client.call(
            id=1, op="tell", view="penguin", rules="penguin_of(opus)."
        )
        assert told["ok"]
        bye = await client.call(id=2, op="shutdown")
        assert bye["ok"]
        await client.close()
        await task
        assert "drained and stopped at version 1" in capsys.readouterr().out

    run(scenario())
