"""The asyncio TCP front end of the query server.

One :class:`QueryServer` wraps a :class:`~repro.server.engine.ServerEngine`
behind ``asyncio.start_server``.  Each connection is an independent
newline-delimited-JSON session: requests are answered in order per
connection, while connections interleave freely (reads are lock-free
against published snapshots; writes serialize through the engine's
single-writer pipeline).

Shutdown is graceful: a ``shutdown`` request (or :meth:`QueryServer.aclose`)
stops the listener, lets in-flight connection handlers finish their
current request with a ``shutting_down`` reply for anything newly
admitted, drains the write queue, and publishes what was in flight
before the process exits.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Optional

from ..obs import get_instrumentation
from ..obs.exposition import CONTENT_TYPE
from . import protocol
from .engine import ServerConfig, ServerEngine
from .protocol import ProtocolError

__all__ = ["MetricsSidecar", "QueryServer", "run_server"]


class MetricsSidecar:
    """A minimal HTTP/1.0 sidecar serving ``/metrics`` and ``/healthz``.

    Scrapers (Prometheus, curl) speak plain HTTP; the NDJSON protocol
    does not.  The sidecar binds its own port next to the query
    listener and answers GETs from the engine's always-on instruments —
    it never blocks on the writer, so a wedged pipeline still exposes
    its queue depth and snapshot age.
    """

    def __init__(
        self, engine: ServerEngine, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "MetricsSidecar":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            # Drain the (ignored) request headers up to the blank line.
            while True:
                header = await reader.readline()
                if not header or header in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else "/"
            if path.startswith("/metrics"):
                body = self.engine.exposition().encode("utf-8")
                status, ctype = "200 OK", CONTENT_TYPE
            elif path.startswith("/healthz"):
                draining = self.engine.draining
                payload = "draining" if draining else "ok"
                body = (payload + "\n").encode("utf-8")
                status = "503 Service Unavailable" if draining else "200 OK"
                ctype = "text/plain; charset=utf-8"
            else:
                body = b"not found\n"
                status, ctype = "404 Not Found", "text/plain; charset=utf-8"
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                ).encode("latin-1")
            )
            writer.write(body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


class QueryServer:
    """NDJSON-over-TCP front end for a :class:`ServerEngine`."""

    def __init__(
        self,
        engine: ServerEngine,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.Task] = set()
        self._closed = False

    async def start(self) -> "QueryServer":
        await self.engine.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        get_instrumentation().event(
            "server.listening", host=self.host, port=self.port
        )
        return self

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def serve_until_shutdown(self) -> None:
        """Serve until a client sends ``shutdown`` (or the engine's
        shutdown event is set programmatically), then drain and stop."""
        await self.engine.shutdown_requested.wait()
        await self.aclose()

    async def aclose(self) -> None:
        """Graceful drain: stop accepting, finish open connections,
        drain the write pipeline."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # End live subscribe streams before waiting on connections —
        # a stream blocks on its entry queue, not on readline, so only
        # the end sentinel lets its handler finish cleanly.
        self.engine.close_subscribers()
        if self._connections:
            # Connections normally close themselves after their last
            # reply; cap the wait so an idle client that never hangs up
            # cannot stall the drain forever.
            done, pending = await asyncio.wait(
                set(self._connections), timeout=5.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        await self.engine.aclose()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    line = await protocol.read_request_line(reader)
                except ConnectionResetError:
                    break
                if line is None:
                    # The refusal is this connection's last reply.
                    refusal = protocol.oversize_line_response()
                    with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                        writer.write(protocol.encode(refusal))
                        await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                if b"subscribe" in line:
                    # Cheap pre-filter; the parse decides for real.  A
                    # subscribe dedicates the rest of the connection to
                    # the stream (one writer task, ordered entries).
                    handled = await self._maybe_subscribe(line, writer)
                    if handled:
                        break
                payload = await self._respond(line)
                try:
                    writer.write(protocol.encode(payload))
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
                # Once a drain has been requested the current reply is
                # the connection's last; closing lets aclose proceed.
                if self.engine.shutdown_requested.is_set():
                    break
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _maybe_subscribe(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> bool:
        """Run the ``subscribe`` stream if the line asks for one.

        Returns True when the connection was consumed by a stream (or
        the subscribe request was malformed and answered with an
        error); False when the line turned out to be some other op and
        the normal request/response path should handle it.
        """
        try:
            request = protocol.parse_request(line)
        except ProtocolError:
            return False  # let _respond produce the error reply
        if request.op != "subscribe":
            return False
        try:
            await self._serve_subscription(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        return True

    async def _serve_subscription(
        self, request: protocol.Request, writer: asyncio.StreamWriter
    ) -> None:
        """Stream journal entries to one subscriber until it falls
        behind, the server drains, or the peer hangs up.

        Framing (``docs/replication.md``): one ``subscribed`` ok line,
        then optionally one ``snapshot`` line (full KB when the
        requested range is not replayable), then ``entry`` lines — one
        per published version, in order, no gaps — and finally a
        ``lagging`` or ``end`` line.
        """
        engine = self.engine
        if engine.draining:
            writer.write(
                protocol.encode(
                    protocol.error_response(
                        request.id,
                        protocol.SHUTTING_DOWN,
                        "server is draining",
                    )
                )
            )
            await writer.drain()
            return
        # Registration and catch-up are back-to-back with no await:
        # publishes run synchronously on this loop, so the queue holds
        # exactly the entries published after the catch-up frontier.
        sub = engine.add_subscriber(request.views)
        try:
            kind, payload, current = engine.catch_up(
                request.from_version, request.views
            )
            applied = request.from_version
            writer.write(
                protocol.encode(
                    protocol.ok_response(
                        request.id,
                        current,
                        {
                            "type": "subscribed",
                            "mode": kind,
                            "from_version": request.from_version,
                            "leader_version": current,
                        },
                    )
                )
            )
            if kind == "snapshot":
                writer.write(
                    protocol.encode(
                        protocol.ok_response(
                            request.id,
                            current,
                            {
                                "type": "snapshot",
                                "kb": payload,
                                "leader_version": current,
                            },
                        )
                    )
                )
                applied = current
            else:
                for entry in payload:
                    writer.write(
                        protocol.encode(
                            protocol.ok_response(
                                request.id,
                                entry["version"],
                                {
                                    "type": "entry",
                                    "ops": entry["ops"],
                                    "leader_version": current,
                                },
                            )
                        )
                    )
                    applied = entry["version"]
            await writer.drain()
            while True:
                if sub.lagging and sub.queue.empty():
                    writer.write(
                        protocol.encode(
                            protocol.ok_response(
                                request.id,
                                engine.version,
                                {"type": "lagging"},
                            )
                        )
                    )
                    await writer.drain()
                    return
                entry = await sub.queue.get()
                if entry is None:  # STREAM_END: the server is draining
                    writer.write(
                        protocol.encode(
                            protocol.ok_response(
                                request.id,
                                engine.version,
                                {"type": "end", "reason": "shutting_down"},
                            )
                        )
                    )
                    await writer.drain()
                    return
                if entry["version"] <= applied:
                    continue  # already delivered by catch-up
                sub.delivered += 1
                applied = entry["version"]
                writer.write(
                    protocol.encode(
                        protocol.ok_response(
                            request.id,
                            entry["version"],
                            {
                                "type": "entry",
                                "ops": entry["ops"],
                                "leader_version": engine.version,
                            },
                        )
                    )
                )
                await writer.drain()
        finally:
            engine.remove_subscriber(sub)

    async def _respond(self, line: bytes) -> dict:
        try:
            request = protocol.parse_request(
                line,
                default_deadline_ms=self.engine.config.default_deadline_ms,
            )
        except ProtocolError as error:
            return protocol.error_response(
                protocol.request_id_of(line), protocol.BAD_REQUEST, str(error)
            )
        try:
            return await self.engine.handle(request)
        except Exception as error:  # defensive: a reply beats a hang
            return protocol.error_response(
                request.id, protocol.INTERNAL, f"unhandled failure: {error!r}"
            )


async def run_server(
    kb,
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServerConfig] = None,
    ready: Optional[asyncio.Event] = None,
    metrics_port: Optional[int] = None,
    wal=None,
    initial_version: int = 0,
) -> None:
    """Serve one knowledge base until a client requests shutdown.

    The CLI entry point (``olp serve``).  ``ready`` (if given) is set
    once the listener is bound — test harnesses use it to know when to
    connect.  ``metrics_port`` (if given; 0 picks a free port) starts a
    :class:`MetricsSidecar` on the same host.  ``wal`` (a
    :class:`~repro.server.wal.Wal`) makes every published version
    durable; ``initial_version`` is the recovered version the engine
    resumes counting from.
    """
    engine = ServerEngine(kb, config, wal=wal, initial_version=initial_version)
    server = QueryServer(engine, host, port)
    sidecar: Optional[MetricsSidecar] = None
    await server.start()
    if metrics_port is not None:
        sidecar = MetricsSidecar(engine, host, metrics_port)
        await sidecar.start()
    if ready is not None:
        ready.set()
    print(f"olp serve: listening on {server.host}:{server.port}", flush=True)
    if sidecar is not None:
        print(
            f"olp serve: metrics on {sidecar.host}:{sidecar.port}", flush=True
        )
    try:
        await server.serve_until_shutdown()
    finally:
        if sidecar is not None:
            await sidecar.aclose()
        await server.aclose()
    print(
        f"olp serve: drained and stopped at version {engine.version}", flush=True
    )
