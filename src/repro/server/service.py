"""The asyncio TCP front end of the query server.

:class:`ServingShell` is the listener every ``olp serve`` role shares:
one NDJSON connection loop, one lifecycle and drain, and (through
:func:`run_shell`) one bootstrap.  :class:`QueryServer` plugs a
:class:`~repro.server.engine.ServerEngine` (leader or follower) into
it; the fleet tier (:class:`~repro.server.replica.FleetServer`) plugs
in its router.  Each connection is an independent
newline-delimited-JSON session: requests are answered in order per
connection, while connections interleave freely (reads are lock-free
against published snapshots; writes serialize through the engine's
single-writer pipeline).

Shutdown is graceful: a ``shutdown`` request (or :meth:`ServingShell.aclose`)
stops the listener, lets in-flight connection handlers finish their
current request with a ``shutting_down`` reply for anything newly
admitted, drains the write queue, and publishes what was in flight
before the process exits.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Optional, Sequence

from ..obs import get_instrumentation
from ..obs.exposition import CONTENT_TYPE
from . import protocol
from .engine import ServerConfig, ServerEngine
from .protocol import ProtocolError

__all__ = ["MetricsSidecar", "QueryServer", "ServingShell", "run_server", "run_shell"]


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


class ServingShell:
    """One NDJSON-over-TCP listener and its lifecycle: the part every
    ``olp serve`` role (leader, follower, fleet) shares.

    The connection loop frames requests (:func:`protocol.read_request_line`),
    refuses an oversize line as the connection's last reply, skips blank
    lines and writes one reply per request; a role only answers a line
    (:meth:`_reply`).  The drain stops accepting, ends live streams,
    gives open connections :data:`DRAIN_TIMEOUT_S` to finish, cancels
    the rest, and only then waits for the listener and closes the role.
    """

    #: How long a drain waits for open connections before cancelling
    #: them — an idle client that never hangs up cannot stall it.
    DRAIN_TIMEOUT_S = 5.0

    def __init__(
        self, host: str, port: int, shutdown_requested: asyncio.Event
    ) -> None:
        self.host = host
        self.port = port
        self.shutdown_requested = shutdown_requested
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.Task] = set()
        self._closed = False

    async def start(self):
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

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def serve_until_shutdown(self) -> None:
        """Serve until a client sends ``shutdown`` (or the shutdown
        event is set programmatically), then drain and stop."""
        await self.shutdown_requested.wait()
        await self.aclose()

    async def aclose(self) -> None:
        """Graceful drain: stop accepting, end live streams, finish (or
        after :data:`DRAIN_TIMEOUT_S` cancel) open connections, then
        close the role."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
        # A stream blocks on its entry queue, not on a read, so only its
        # end sentinel lets the connection finish cleanly.
        self._end_streams()
        if self._connections:
            _done, pending = await asyncio.wait(
                set(self._connections), timeout=self.DRAIN_TIMEOUT_S
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        # Only now: from Python 3.12.1 wait_closed() also waits for
        # every open connection.
        if self._server is not None:
            await self._server.wait_closed()
        await self._close_role()

    # -- the role ------------------------------------------------------
    def _end_streams(self) -> None:
        """End every connection that streams rather than answers."""

    async def _close_role(self) -> None:
        """Stop what serves the requests (after the last connection)."""

    async def _reply(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> Optional[bytes]:
        """The encoded reply to one non-blank request line, or None when
        the line took the connection over (a ``subscribe`` stream)."""
        raise NotImplementedError

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
                    reply: Optional[bytes] = protocol.encode(
                        protocol.oversize_line_response()
                    )
                elif not line:
                    break
                elif not line.strip():
                    continue
                else:
                    reply = await self._reply(line, writer)
                    if reply is None:
                        break
                try:
                    writer.write(reply)
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
                # A refusal is the connection's last reply, and so is
                # any reply once a drain was requested (closing lets
                # aclose proceed).
                if line is None or self.shutdown_requested.is_set():
                    break
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


class QueryServer(ServingShell):
    """NDJSON-over-TCP front end for a :class:`ServerEngine` (leader or
    follower)."""

    def __init__(
        self,
        engine: ServerEngine,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port, engine.shutdown_requested)
        self.engine = engine

    async def start(self) -> "QueryServer":
        await self.engine.start()
        return await super().start()

    def _end_streams(self) -> None:
        self.engine.close_subscribers()

    async def _close_role(self) -> None:
        await self.engine.aclose()

    async def _reply(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> Optional[bytes]:
        # Cheap pre-filter; the parse decides for real.  A subscribe
        # dedicates the rest of the connection to the stream (one
        # writer task, ordered entries).
        if b"subscribe" in line and await self._maybe_subscribe(line, writer):
            return None
        try:
            request = protocol.parse_request(
                line,
                default_deadline_ms=self.engine.config.default_deadline_ms,
            )
        except ProtocolError as error:
            return protocol.encode(
                protocol.error_response(
                    protocol.request_id_of(line), protocol.BAD_REQUEST, str(error)
                )
            )
        try:
            payload = await self.engine.handle(request)
        except Exception as error:  # defensive: a reply beats a hang
            payload = protocol.error_response(
                request.id, protocol.INTERNAL, f"unhandled failure: {error!r}"
            )
        return protocol.encode(payload)

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
            return False  # let _reply produce the error reply
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

        def frame(version: int, result: dict) -> None:
            writer.write(
                protocol.encode(protocol.ok_response(request.id, version, result))
            )

        if engine.draining:
            writer.write(
                protocol.encode(
                    protocol.error_response(
                        request.id, protocol.SHUTTING_DOWN, "server is draining"
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
            frame(
                current,
                {
                    "type": "subscribed",
                    "mode": kind,
                    "from_version": request.from_version,
                    "leader_version": current,
                },
            )
            if kind == "snapshot":
                frame(
                    current,
                    {"type": "snapshot", "kb": payload, "leader_version": current},
                )
                applied = current
            else:
                for entry in payload:
                    frame(
                        entry["version"],
                        {
                            "type": "entry",
                            "ops": entry["ops"],
                            "leader_version": current,
                        },
                    )
                    applied = entry["version"]
            await writer.drain()
            while True:
                if sub.lagging and sub.queue.empty():
                    frame(engine.version, {"type": "lagging"})
                    await writer.drain()
                    return
                entry = await sub.queue.get()
                if entry is None:  # STREAM_END: the server is draining
                    frame(
                        engine.version, {"type": "end", "reason": "shutting_down"}
                    )
                    await writer.drain()
                    return
                if entry["version"] <= applied:
                    continue  # already delivered by catch-up
                sub.delivered += 1
                applied = entry["version"]
                frame(
                    entry["version"],
                    {
                        "type": "entry",
                        "ops": entry["ops"],
                        "leader_version": engine.version,
                    },
                )
                await writer.drain()
        finally:
            engine.remove_subscriber(sub)


async def run_shell(
    shell: ServingShell,
    banner: Callable[[], Sequence[str]],
    farewell: Callable[[], str],
    *,
    ready: Optional[asyncio.Event] = None,
    sidecar: Optional[MetricsSidecar] = None,
    companion: Optional[Callable[[], Awaitable[None]]] = None,
) -> None:
    """The one bootstrap of every ``olp serve`` role.

    Binds ``shell``, starts the optional metrics ``sidecar`` and
    ``companion`` task (a follower's tail), sets ``ready`` (test
    harnesses use it to know when to connect), prints the ``banner``
    lines and the sidecar's, serves until shutdown, drains, and prints
    the ``farewell`` line.
    """
    await shell.start()
    if sidecar is not None:
        await sidecar.start()
    task = asyncio.ensure_future(companion()) if companion is not None else None
    if ready is not None:
        ready.set()
    for line in banner():
        print(line, flush=True)
    if sidecar is not None:
        print(f"olp serve: metrics on {sidecar.host}:{sidecar.port}", flush=True)
    try:
        await shell.serve_until_shutdown()
    finally:
        if task is not None:
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
        if sidecar is not None:
            await sidecar.aclose()
        await shell.aclose()
    print(farewell(), flush=True)


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

    The CLI entry point (``olp serve``).  ``metrics_port`` (if given; 0
    picks a free port) starts a :class:`MetricsSidecar` on the same
    host.  ``wal`` (a :class:`~repro.server.wal.Wal`) makes every
    published version durable; ``initial_version`` is the recovered
    version the engine resumes counting from.
    """
    engine = ServerEngine(kb, config, wal=wal, initial_version=initial_version)
    server = QueryServer(engine, host, port)
    await run_shell(
        server,
        lambda: [f"olp serve: listening on {server.host}:{server.port}"],
        lambda: f"olp serve: drained and stopped at version {engine.version}",
        ready=ready,
        sidecar=(
            MetricsSidecar(engine, host, metrics_port)
            if metrics_port is not None
            else None
        ),
    )
