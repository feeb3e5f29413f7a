"""Follower replication and the read-fanout fleet tier.

Three pieces turn the leader's durable version stream
(:mod:`repro.server.wal`) into horizontally-scaled reads
(``docs/replication.md``):

* :class:`FollowerEngine` — a :class:`~repro.server.engine.ServerEngine`
  that never originates versions: writes are rejected with
  ``not_leader``, and state advances only through :meth:`apply_entry`
  (one journal entry = one leader version, applied through the KB's
  delta engine so cached views repair incrementally) or
  :meth:`load_snapshot` (full resync when the leader truncated the
  requested range).  Reads stay snapshot-isolated at the follower's
  applied version; :attr:`lag_versions` reports how far behind the
  leader it is.
* :func:`run_follower` — ``olp serve --follow <leader>``: serves the
  NDJSON protocol like a normal server while a tail task holds one
  ``subscribe`` stream to the leader, applying entries as they arrive
  and reconnecting (with backoff, from its applied version) after
  ``lagging`` cuts, leader drains, or connection loss.
* :class:`FleetServer` / :func:`run_fleet` — ``olp serve --fleet``: a
  thin NDJSON proxy that round-robins read ops across followers
  (honoring each follower's subscribed view subset) and routes writes
  and admin ops to the leader, forwarding replies verbatim.

A follower may subscribe to a view subset (``--views``): the leader
then delivers only ops whose ``seers`` intersect the subset (live) or
whose object falls in the subset's ``C*`` scope (catch-up) — every
version still arrives, possibly with no ops, so "applied v" always
means "consistent with the leader's v for the subscribed views".
"""

from __future__ import annotations

import asyncio
import json
import time
from operator import attrgetter
from typing import Any, Optional, Sequence

from ..obs import get_instrumentation
from ..serialize import kb_from_dict
from . import protocol
from .engine import Figure, ServerConfig, ServerEngine, Snapshot
from .protocol import Request
from .service import MetricsSidecar, QueryServer, ServingShell, run_shell

__all__ = [
    "Backend",
    "FleetServer",
    "FollowerEngine",
    "ReplicationError",
    "parse_backend",
    "run_fleet",
    "run_follower",
]


class ReplicationError(RuntimeError):
    """The replication stream violated its contract (a version gap, an
    unexpected frame, an error reply on the subscribe connection)."""


def _replica(attr: str, *export: Any) -> Figure:
    """The figure ``replica.<attr>``, read off the follower engine."""
    return Figure(f"replica.{attr}", attrgetter(attr), *export)


REPLICA_FIGURES = (
    _replica("leader"),
    Figure("replica.views", lambda f: None if f.views is None else list(f.views)),
    _replica("leader_version", "repro_replica_leader_version", "gauge",
             "Newest leader version observed on the stream."),
    Figure("replica.applied_version", attrgetter("version"), "repro_replica_applied_version",
           "gauge", "Last leader version applied by this follower."),
    _replica("lag_versions", "repro_replica_lag_versions", "gauge",
             "Replication lag (replica.lag_versions): leader version minus applied version."),
    _replica("entries_applied", "repro_replica_entries_total", "counter",
             "Journal entries applied from the stream."),
    _replica("ops_replicated", "repro_replica_ops_total", "counter",
             "Write ops replicated from the leader."),
    _replica("snapshots_loaded", "repro_replica_snapshots_total", "counter",
             "Full-snapshot resyncs performed."),
    _replica("reconnects", "repro_replica_reconnects_total", "counter",
             "Subscribe-stream reconnects."),
    _replica("resets", "repro_replica_resets_total", "counter",
             "Full state wipes after a mid-entry apply failure."),
)


class FollowerEngine(ServerEngine):
    """A read-only engine fed by a leader's ``subscribe`` stream."""

    FIGURES = ServerEngine.FIGURES + ((lambda f: f, REPLICA_FIGURES),)

    def __init__(
        self,
        kb=None,
        config: Optional[ServerConfig] = None,
        leader: str = "",
        views: Optional[tuple[str, ...]] = None,
    ) -> None:
        super().__init__(kb, config)
        self.leader = leader
        self.views = views
        self.leader_version = self.version
        self.entries_applied = 0
        self.ops_replicated = 0
        self.snapshots_loaded = 0
        self.reconnects = 0
        self.resets = 0
        self.last_entry_at: Optional[float] = None

    # -- state advances only through the stream ------------------------
    async def _write(self, request: Request) -> dict:
        return self._error(
            request,
            protocol.NOT_LEADER,
            f"read-only follower; send writes to the leader"
            + (f" at {self.leader}" if self.leader else ""),
        )

    @property
    def lag_versions(self) -> int:
        return max(0, self.leader_version - self.version)

    def note_leader(self, leader_version: int) -> None:
        if leader_version > self.leader_version:
            self.leader_version = leader_version

    def apply_entry(
        self, version: int, ops: list[dict], leader_version: Optional[int] = None
    ) -> bool:
        """Apply one streamed journal entry and publish at the leader's
        version.  Returns False for an already-applied version (catch-up
        overlap after reconnect); raises :class:`ReplicationError` on a
        gap — the tail loop answers a gap by resubscribing from the
        applied version.
        """
        if leader_version is not None:
            self.note_leader(max(leader_version, version))
        else:
            self.note_leader(version)
        if version <= self.version:
            return False
        if version != self.version + 1:
            raise ReplicationError(
                f"version gap in replication stream: applied "
                f"{self.version}, received {version}"
            )
        for op in ops:
            self.kb.apply_op(op)
        self._publish_ops(list(ops), version)
        self.entries_applied += 1
        self.ops_replicated += len(ops)
        self.last_entry_at = time.monotonic()
        return True

    def reset_for_resync(self) -> None:
        """Discard all replicated state and rejoin from version 0.

        The recovery of last resort: an entry failed to apply midway,
        so the KB may hold a partial batch no version describes.
        Resubscribing from 0 then rebuilds from either the journal
        (replayed onto this now-empty KB) or a leader snapshot."""
        from ..kb.knowledge_base import KnowledgeBase

        self.kb = KnowledgeBase()
        self._version = 0
        self._snapshot = Snapshot(0, self.kb.program())
        self.resets += 1
        get_instrumentation().event("replica.reset", resets=self.resets)

    def load_snapshot(self, kb_dict: dict, version: int) -> None:
        """Full resync: replace the KB wholesale and publish at the
        snapshot's version (nothing cached survives — the old state may
        be arbitrarily far behind)."""
        self.kb = kb_from_dict(kb_dict)
        self._version = version
        self._snapshot = Snapshot(version, self.kb.program())
        self.note_leader(version)
        self.snapshots_loaded += 1
        get_instrumentation().event("replica.snapshot_loaded", version=version)


# ----------------------------------------------------------------------
# The tail task: one subscribe stream, applied as it arrives
# ----------------------------------------------------------------------

async def _tail_once(
    engine: FollowerEngine, host: str, port: int
) -> str:
    """Hold one subscribe stream until it ends.

    Returns ``"end"`` (leader drained cleanly), ``"lagging"`` (the
    leader cut us; resubscribe immediately), or raises on connection
    loss / protocol violations.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        request: dict[str, Any] = {
            "op": "subscribe",
            "id": "follow",
            "from_version": engine.version,
        }
        if engine.views is not None:
            request["views"] = list(engine.views)
        writer.write(protocol.encode(request))
        await writer.drain()
        while not engine.draining:
            line = await reader.readline()
            if not line:
                raise ReplicationError("leader closed the stream")
            message = json.loads(line)
            if not message.get("ok"):
                raise ReplicationError(f"subscribe rejected: {message.get('error')}")
            result = message.get("result", {})
            kind = result.get("type")
            if kind == "subscribed":
                engine.note_leader(result.get("leader_version", 0))
            elif kind == "snapshot":
                engine.load_snapshot(result["kb"], message["version"])
            elif kind == "entry":
                engine.apply_entry(
                    message["version"],
                    result.get("ops", []),
                    result.get("leader_version"),
                )
            elif kind == "lagging":
                return "lagging"
            elif kind == "end":
                return "end"
            else:
                raise ReplicationError(f"unexpected stream frame {kind!r}")
        return "draining"
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def tail_leader(
    engine: FollowerEngine,
    host: str,
    port: int,
    *,
    backoff_s: float = 0.1,
    max_backoff_s: float = 2.0,
) -> None:
    """Keep the follower subscribed until it drains.

    Connection loss, leader drain, and ``lagging`` cuts all converge on
    the same recovery: resubscribe from the applied version (the leader
    replays the missed suffix from its journal, or sends a snapshot if
    it was truncated away).
    """
    delay = backoff_s
    obs = get_instrumentation()
    while not engine.draining and not engine.shutdown_requested.is_set():
        try:
            outcome = await _tail_once(engine, host, port)
        except (OSError, ReplicationError, json.JSONDecodeError) as error:
            # Connection loss or a stream-contract violation: both are
            # detected *before* any partial apply, so the follower's
            # state is intact — resubscribe from the applied version.
            obs.event("replica.stream_error", error=repr(error))
            outcome = "error"
        except Exception as error:  # noqa: BLE001 - apply died midway
            # An op failed to apply (e.g. the follower's state predates
            # a seed the stream assumes): the KB may hold a partial
            # entry, so wipe and rebuild from scratch.
            obs.event("replica.apply_error", error=repr(error))
            engine.reset_for_resync()
            outcome = "error"
        if engine.draining or engine.shutdown_requested.is_set():
            return
        engine.reconnects += 1
        if outcome == "lagging":
            delay = backoff_s  # the leader is alive; rejoin at once
        else:
            delay = min(delay * 2, max_backoff_s)
        try:
            await asyncio.wait_for(
                engine.shutdown_requested.wait(), timeout=delay
            )
            return
        except asyncio.TimeoutError:
            pass


async def run_follower(
    leader_host: str,
    leader_port: int,
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServerConfig] = None,
    views: Optional[tuple[str, ...]] = None,
    ready: Optional[asyncio.Event] = None,
    metrics_port: Optional[int] = None,
) -> None:
    """``olp serve --follow host:port``: serve snapshot-isolated reads
    that track a leader's version stream."""
    engine = FollowerEngine(
        None, config, leader=f"{leader_host}:{leader_port}", views=views
    )
    server = QueryServer(engine, host, port)
    await run_shell(
        server,
        lambda: [
            f"olp serve: following {leader_host}:{leader_port}"
            + (f" views={','.join(views)}" if views else ""),
            f"olp serve: listening on {server.host}:{server.port}",
        ],
        lambda: (
            f"olp serve: follower drained and stopped at version "
            f"{engine.version} (lag {engine.lag_versions})"
        ),
        ready=ready,
        sidecar=(
            MetricsSidecar(engine, host, metrics_port)
            if metrics_port is not None
            else None
        ),
        companion=lambda: tail_leader(engine, leader_host, leader_port),
    )


# ----------------------------------------------------------------------
# The fleet tier: fan reads out, funnel writes in
# ----------------------------------------------------------------------

class Backend:
    """One pooled upstream NDJSON connection (leader or follower).

    Requests are serialized per backend (one in flight at a time) —
    the fleet's parallelism comes from having many backends, not from
    pipelining into one.
    """

    def __init__(
        self, host: str, port: int, views: Optional[frozenset[str]] = None
    ) -> None:
        self.host = host
        self.port = port
        self.views = views
        self.requests = 0
        self.failures = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def serves(self, view: Optional[str]) -> bool:
        return self.views is None or (view is not None and view in self.views)

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def _close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._reader = self._writer = None

    async def call(self, line: bytes) -> bytes:
        """Forward one request line; return the one response line.

        A dead pooled connection is retried once on a fresh one before
        the failure propagates.
        """
        async with self._lock:
            for _attempt in (0, 1):
                try:
                    if self._writer is None:
                        await self._connect()
                    assert self._reader is not None and self._writer is not None
                    self._writer.write(line)
                    await self._writer.drain()
                    reply = await self._reader.readline()
                    if reply:
                        self.requests += 1
                        return reply
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass
                await self._close()
            self.failures += 1
            raise ConnectionError(f"backend {self.address} unavailable")

    async def aclose(self) -> None:
        async with self._lock:
            await self._close()


def parse_backend(spec: str) -> Backend:
    """``host:port`` or ``host:port=viewA,viewB`` (a view-subset
    follower that only serves those views)."""
    views: Optional[frozenset[str]] = None
    if "=" in spec:
        spec, _, raw = spec.partition("=")
        views = frozenset(v for v in raw.split(",") if v)
        if not views:
            raise ValueError(f"backend {spec!r}: empty view list")
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"backend spec {spec!r} is not host:port[=views]")
    return Backend(host, int(port), views)


class FleetServer(ServingShell):
    """``olp serve --fleet``: route reads across followers, writes and
    admin to the leader, replies forwarded verbatim (clients see
    follower versions on reads — snapshot isolation at whatever version
    the serving follower has applied)."""

    def __init__(
        self,
        leader: Backend,
        followers: Sequence[Backend],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port, asyncio.Event())
        self.leader = leader
        self.followers = list(followers)
        self.routed_reads = 0
        self.routed_writes = 0
        self._rr = 0

    async def _close_role(self) -> None:
        for backend in [self.leader, *self.followers]:
            await backend.aclose()

    def _pick_follower(self, view: Optional[str]) -> Optional[Backend]:
        """Round-robin over the followers that serve the view; None
        when no follower is eligible (the leader then serves the read)."""
        eligible = [b for b in self.followers if b.serves(view)]
        if not eligible:
            return None
        self._rr += 1
        return eligible[self._rr % len(eligible)]

    async def _reply(self, line: bytes, writer: asyncio.StreamWriter) -> bytes:
        """Route one request line; a backend's reply line is forwarded
        as it came."""
        try:
            data = protocol.decode_request(line)
        except protocol.ProtocolError as error:
            # Refused here, like a backend would; the framing was fine,
            # so the connection stays open.
            return protocol.encode(
                protocol.error_response(None, protocol.BAD_REQUEST, str(error))
            )
        op = data.get("op")
        request_id = data.get("id")
        if op == "shutdown":
            # Fleet-local: drain the proxy; backends are managed by
            # their own lifecycles (each accepts its own shutdown op).
            self.shutdown_requested.set()
            return protocol.encode(
                protocol.ok_response(request_id, None, {"draining": True})
            )
        if op == "subscribe":
            return protocol.encode(
                protocol.error_response(
                    request_id,
                    protocol.BAD_REQUEST,
                    f"subscribe directly to the leader at {self.leader.address}",
                )
            )
        backend: Optional[Backend] = None
        if op in protocol.READ_OPS:
            view = data.get("view")
            backend = self._pick_follower(
                view if isinstance(view, str) else None
            )
            self.routed_reads += 1
        else:
            self.routed_writes += 1
        if backend is None:
            backend = self.leader
        try:
            return await backend.call(line)
        except ConnectionError as error:
            if backend is not self.leader:
                # A dead follower must not fail reads: the leader can
                # always serve them.
                try:
                    return await self.leader.call(line)
                except ConnectionError as fallback_error:
                    error = fallback_error
            return protocol.encode(
                protocol.error_response(request_id, protocol.INTERNAL, str(error))
            )


async def run_fleet(
    leader: Backend,
    followers: Sequence[Backend],
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional[asyncio.Event] = None,
) -> None:
    """``olp serve --fleet``: one front address over a leader and its
    followers."""
    fleet = FleetServer(leader, followers, host, port)
    await run_shell(
        fleet,
        lambda: [
            f"olp serve: fleet listening on {fleet.host}:{fleet.port} "
            f"(leader {leader.address}, {len(fleet.followers)} followers)"
        ],
        lambda: (
            f"olp serve: fleet drained after {fleet.routed_reads} reads / "
            f"{fleet.routed_writes} writes"
        ),
        ready=ready,
    )
