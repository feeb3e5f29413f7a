"""The serving core: snapshot publication and the single-writer pipeline.

Concurrency model (``docs/server.md``):

* The engine owns the canonical :class:`~repro.kb.knowledge_base.KnowledgeBase`.
  Only the writer task mutates it, and every mutation block runs
  synchronously between two awaits, so readers never observe a
  half-applied batch.
* After each batch the writer *publishes* a new :class:`Snapshot`:
  an immutable program plus materialized least models
  (:class:`~repro.core.interpretation.Interpretation` instances, which
  are immutable) for the views the batch touched and structural sharing
  of every untouched view's model from the previous snapshot.  Readers
  capture ``engine.snapshot`` once and answer from it without ever
  waiting on the writer — a reader that is pre-empted by a publish
  keeps answering at its captured version (snapshot isolation).
* Writes are admitted into a bounded :class:`asyncio.Queue`; a full
  queue sheds the request with an ``overloaded`` error instead of
  building unbounded backlog.  The writer coalesces everything queued
  (up to ``max_batch`` requests) into one batch, applies it through the
  knowledge base's delta queue — so all of a batch's fact mutations
  reach ``OrderedSemantics.apply_ops`` as one coalesced op list per
  affected view — and bumps the published version once per batch.

The differential property suite
(``tests/properties/test_server_differential.py``) replays randomized
concurrent client traces and asserts the published snapshots and query
answers are bit-identical to a serialized oracle replaying the same
batches on a plain knowledge base.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from ..core.interpretation import Interpretation, TruthValue
from ..core.maintenance import MaintenanceConfig
from ..core.semantics import OrderedSemantics
from ..core.solver import SearchBudget
from ..explain.trace import Explainer
from ..grounding.grounder import GroundingOptions
from ..kb.knowledge_base import KnowledgeBase
from ..kb.query import answers_in, evaluate_query, holds_in
from ..lang.errors import ReproError
from ..lang.program import OrderedProgram
from ..obs import get_instrumentation
from ..obs import exposition
from ..obs.exposition import PrometheusWriter, write_registry
from ..obs.instruments import Histogram
from ..obs.trace import TraceContext, current_trace
from ..serialize import kb_to_dict
from . import protocol
from .protocol import Request
from .wal import Wal, WalCorruption

__all__ = ["ServerConfig", "Snapshot", "ServerEngine", "Subscriber"]

#: Second-scale buckets for serving latency (50us .. 10s).
LATENCY_BUCKETS = (
    50e-6, 100e-6, 250e-6, 500e-6,
    1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Millisecond-scale buckets for write-queue wait.
QUEUE_WAIT_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 5000.0,
)


@dataclass(frozen=True)
class ServerConfig:
    """Admission-control and pipeline knobs.

    Attributes:
        max_queue: bound of the write queue; a full queue sheds new
            writes with ``overloaded`` (admission control).
        max_batch: most write requests coalesced into one published
            version.  1 degenerates to the one-op-per-apply path (the
            benchmark baseline).
        default_deadline_ms: deadline applied to requests that do not
            carry their own ``deadline_ms``; None means unbounded.
        keep_history: record every published snapshot and the batch
            that produced it (``engine.history``) — the differential
            harness's oracle input.  Unbounded memory; tests only.
        slow_ms: requests at or above this many milliseconds are
            recorded (request, span tree, engine cost digest) in the
            slow-query ring buffer served by the ``slow`` op.  None
            disables the log — and with it the implicit per-request
            tracing it needs.
        slow_log_size: ring-buffer capacity of the slow-query log.
        subscriber_queue: bound of each live ``subscribe`` stream's
            entry buffer.  A subscriber that falls this many published
            versions behind is cut with a ``lagging`` sentinel and must
            reconnect (catch-up then comes from the journal, not RAM).
    """

    max_queue: int = 256
    max_batch: int = 64
    default_deadline_ms: Optional[float] = None
    keep_history: bool = False
    slow_ms: Optional[float] = None
    slow_log_size: int = 128
    subscriber_queue: int = 256


class Snapshot:
    """One published, immutable version of the knowledge base.

    Readers answer cautious queries from :attr:`models` (materialized
    least models).  A view missing from the map is materialized on
    first read — from the writer's incrementally-maintained view when
    this snapshot is still current, from :attr:`program` otherwise —
    and pinned, so every later read at this version is a lookup.

    :attr:`program` is the knowledge base's own program value at this
    version, held by reference: consecutive snapshots share the order
    and every component the batch did not touch.
    """

    __slots__ = (
        "version",
        "program",
        "published_at",
        "_grounding",
        "_budget",
        "models",
        "_sems",
        "demand_routes",
    )

    def __init__(
        self,
        version: int,
        program: OrderedProgram,
        grounding: GroundingOptions,
        budget: SearchBudget,
        models: Optional[dict[str, Interpretation]] = None,
        sems: Optional[dict[str, OrderedSemantics]] = None,
    ) -> None:
        self.version = version
        self.program = program
        self.published_at = time.monotonic()
        self._grounding = grounding
        self._budget = budget
        self.models: dict[str, Interpretation] = models if models is not None else {}
        self._sems: dict[str, OrderedSemantics] = sems if sems is not None else {}
        #: view -> demand route compiled from :attr:`program`
        #: (docs/query.md); lives and dies with this version.
        self.demand_routes: dict = {}

    def age(self, now: Optional[float] = None) -> float:
        return (now if now is not None else time.monotonic()) - self.published_at

    def semantics(self, view: str) -> OrderedSemantics:
        """Snapshot-local semantics of one view, built from the
        immutable program (never the writer's mutable state)."""
        sem = self._sems.get(view)
        if sem is None:
            sem = OrderedSemantics(
                self.program,
                view,
                grounding=self._grounding,
                budget=self._budget,
                maintenance=MaintenanceConfig(enabled=False),
            )
            self._sems[view] = sem
        return sem

    def materialize(self, view: str) -> Interpretation:
        """The least model of one view at this version (computed from
        the snapshot program on first call, then pinned)."""
        interp = self.models.get(view)
        if interp is None:
            interp = self.semantics(view).least_model
            self.models[view] = interp
        return interp


def _latency_dict(hist: Histogram) -> dict:
    """The always-on latency aggregate reported by ``stats``."""
    return {
        "count": hist.count,
        "mean_s": hist.mean,
        "max_s": hist.max or 0.0,
        "p50_s": hist.quantile(0.5),
        "p95_s": hist.quantile(0.95),
        "p99_s": hist.quantile(0.99),
        "buckets": [[le, n] for le, n in hist.bucket_pairs()],
    }


class _WriteItem:
    __slots__ = ("request", "future", "trace")

    def __init__(
        self,
        request: Request,
        future: "asyncio.Future[dict]",
        trace: Optional[TraceContext] = None,
    ) -> None:
        self.request = request
        self.future = future
        self.trace = trace


def _op_dict(request: Request) -> dict:
    """One write request as the op :meth:`KnowledgeBase.apply_op`
    replays — the leader applies it through the same path as WAL
    recovery and followers."""
    return {
        "op": request.op,
        "view": request.view,
        "rules": request.rules or "",
        "isa": list(request.isa),
    }


_SENTINEL = object()

#: Pushed into a subscriber's queue when the engine drains: the stream
#: ends cleanly instead of the connection being cancelled mid-read.
STREAM_END = None


class Subscriber:
    """One live ``subscribe`` stream's buffer between the publishing
    writer and the connection task draining it.

    The writer pushes one entry per published version (possibly with an
    empty op list when the subscriber's view filter drops everything —
    versions stay contiguous either way).  A full queue marks the
    subscriber :attr:`lagging`: the already-buffered prefix is still
    contiguous and is delivered, then the stream is cut and the
    subscriber re-subscribes from its applied version (served from the
    journal, which has no buffer bound).
    """

    __slots__ = ("queue", "views", "lagging", "delivered")

    def __init__(self, maxsize: int, views: Optional[frozenset[str]] = None) -> None:
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        self.views = views
        self.lagging = False
        self.delivered = 0

    def wants(self, op: dict) -> bool:
        if self.views is None:
            return True
        return bool(self.views.intersection(op.get("seers", ())))


class ServerEngine:
    """Serves protocol requests over one knowledge base.

    Use as an async context manager, or call :meth:`start` /
    :meth:`aclose` explicitly.  :meth:`handle` is the single entry
    point for every request (the TCP service, benchmarks and tests all
    drive it directly).
    """

    def __init__(
        self,
        kb: Optional[KnowledgeBase] = None,
        config: Optional[ServerConfig] = None,
        wal: Optional[Wal] = None,
        initial_version: int = 0,
    ) -> None:
        self.kb = kb if kb is not None else KnowledgeBase()
        self.config = config if config is not None else ServerConfig()
        self.wal = wal
        self.started_at = time.monotonic()
        self.shutdown_requested = asyncio.Event()
        self.history: list[tuple[Snapshot, list[Request]]] = []
        self._version = initial_version
        self._snapshot = Snapshot(
            initial_version, self.kb.program(), self.kb.grounding, self.kb.budget
        )
        self._subscribers: list[Subscriber] = []
        self._subscribers_total = 0
        self._subscribers_lagged = 0
        self._wal_broken = False
        # Whether this engine's version 0 was already a non-empty KB (a
        # file/--restore seed rather than the empty KB): a subscriber
        # catching up from version 0 can then never be served entries —
        # no journal suffix reconstructs the seeded base state.
        self._v0_nonempty = initial_version == 0 and bool(self.kb.objects)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._writer_task: Optional[asyncio.Task] = None
        self._draining = False
        self._closed = False
        # Always-on serving stats (the `stats` op must work with the
        # obs registry in its default disabled state).
        self._requests: dict[str, int] = {}
        self._errors: dict[str, int] = {}
        self._batches = 0
        self._ops_applied = 0
        self._max_batch_seen = 0
        self._read_latency = Histogram("server.latency.read", LATENCY_BUCKETS)
        self._write_latency = Histogram("server.latency.write", LATENCY_BUCKETS)
        self._queue_wait = Histogram("server.queue.wait_ms", QUEUE_WAIT_BUCKETS)
        self._view_refresh: dict[str, Histogram] = {}
        self._slow: deque[dict] = deque(maxlen=self.config.slow_log_size)
        self._slow_total = 0
        self._slow_max_ms = 0.0
        if self.config.keep_history:
            self.history.append((self._snapshot, []))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ServerEngine":
        if self._writer_task is None:
            self._writer_task = asyncio.ensure_future(self._writer_loop())
            get_instrumentation().event("server.start")
        return self

    async def aclose(self) -> None:
        """Graceful shutdown: stop admitting writes, drain the queue,
        publish what was in flight, stop the writer."""
        if self._closed:
            return
        self._draining = True
        self.close_subscribers()
        if self._writer_task is not None:
            await self._queue.put(_SENTINEL)
            await self._writer_task
            self._writer_task = None
        if self.wal is not None:
            self.wal.close()
        self._closed = True
        get_instrumentation().event("server.stop", version=self._version)

    async def __aenter__(self) -> "ServerEngine":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    @property
    def snapshot(self) -> Snapshot:
        """The latest published snapshot (atomically swapped)."""
        return self._snapshot

    @property
    def version(self) -> int:
        return self._version

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def handle(self, request: Request) -> dict:
        """Execute one validated request; returns the response payload."""
        self._requests[request.op] = self._requests.get(request.op, 0) + 1
        if request.op == "health":
            return self._health(request)
        if request.op == "stats":
            return protocol.ok_response(request.id, self._version, self.stats())
        if request.op == "metrics":
            return protocol.ok_response(
                request.id,
                self._version,
                {
                    "exposition": self.exposition(),
                    "content_type": exposition.CONTENT_TYPE,
                },
            )
        if request.op == "slow":
            return protocol.ok_response(request.id, self._version, self.slow_log())
        if request.op == "shutdown":
            self.shutdown_requested.set()
            return protocol.ok_response(
                request.id, self._version, {"draining": True}
            )
        if self._closed:
            return self._error(
                request, protocol.SHUTTING_DOWN, "server is shut down"
            )
        if request.op in protocol.STREAM_OPS:
            # The TCP service intercepts ``subscribe`` and owns the
            # stream; reaching the engine means the caller cannot hold
            # a streaming connection (tests, benchmarks, embedding).
            return self._error(
                request,
                protocol.BAD_REQUEST,
                "op 'subscribe' requires a streaming connection",
            )
        if request.op in protocol.WRITE_OPS:
            return await self._write(request)
        return self._read(request)

    def _error(
        self,
        request: Request,
        code: str,
        message: str,
        version: Optional[int] = None,
        **extra: Any,
    ) -> dict:
        self._errors[code] = self._errors.get(code, 0) + 1
        return protocol.error_response(request.id, code, message, version, **extra)

    # ------------------------------------------------------------------
    # Read path (lock-free: never touches the write queue)
    # ------------------------------------------------------------------
    def _read(self, request: Request) -> dict:
        snap = self._snapshot
        now = time.monotonic()
        if request.expired(now):
            return self._error(
                request, protocol.TIMEOUT, "deadline expired before execution"
            )
        view, pattern = request.view, request.pattern
        assert view is not None and pattern is not None  # parse_request guarantees
        ctx: Optional[TraceContext] = None
        if request.trace is not None or self.config.slow_ms is not None:
            trace = request.trace or {}
            ctx = TraceContext(
                trace_id=trace.get("id"),
                baggage=trace.get("baggage"),
                name=f"server.{request.op}",
                op=request.op,
                view=view,
                pattern=pattern,
            )
        t0 = time.perf_counter()
        try:
            if ctx is not None:
                with ctx.activate():
                    result = self._evaluate_read(snap, request, view, pattern)
            else:
                result = self._evaluate_read(snap, request, view, pattern)
        except ReproError as error:
            return self._error(
                request, protocol.SEMANTICS, str(error), snap.version
            )
        elapsed = time.perf_counter() - t0
        self._read_latency.observe(elapsed)
        if ctx is not None:
            ctx.annotate(version=snap.version)
            ctx.close()
            if (
                self.config.slow_ms is not None
                and elapsed * 1000.0 >= self.config.slow_ms
            ):
                self._record_slow(request, ctx, elapsed, snap.version)
            if request.trace is not None:
                result["trace"] = ctx.summary()
        return protocol.ok_response(request.id, snap.version, result)

    def _evaluate_read(
        self, snap: Snapshot, request: Request, view: str, pattern: str
    ) -> dict[str, Any]:
        """Evaluate one query/ask/explain against a captured snapshot."""
        with get_instrumentation().span(
            "server.read", op=request.op, view=view, mode=request.mode
        ):
            if request.op == "explain":
                return self._explain(snap, view, pattern)
            answers = None
            if request.strategy == "demand":
                answers = self._demand_read(snap, view, pattern, request.mode)
            if answers is not None:
                pass
            elif request.mode == "cautious":
                interp = self._model_at(snap, view)
                if request.op == "ask":
                    return {"holds": holds_in(interp, pattern)}
                answers = answers_in(interp, pattern)
            else:
                sem = self._semantics_at(snap, view)
                answers = evaluate_query(sem, pattern, request.mode)
        if request.op == "ask":
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
            "mode": request.mode,
        }

    def _demand_read(
        self, snap: Snapshot, view: str, pattern: str, mode: str
    ) -> Optional[list]:
        """Goal-directed answers against a captured snapshot, or None
        when the demand path declined (the caller then falls back to
        the materialized read path).

        The snapshot program is rules-only; attached EDB stores are
        read-only for the server's lifetime, so consulting the writer
        KB's stores is safe at any snapshot version.  This read never
        warms :attr:`Snapshot.models` — not materializing is the point.
        """
        from ..query import demand_read

        return demand_read(
            snap.demand_routes,
            snap.program,
            view,
            pattern,
            mode,
            self.kb.edb_sources(view),
        )

    def _explain(self, snap: Snapshot, view: str, pattern: str) -> dict[str, Any]:
        """The ``explain`` op: derivation (or failure analysis) of one
        ground literal against the captured snapshot."""
        ctx = current_trace()
        if ctx is not None:
            ctx.annotate(route="materialized")
        sem = self._semantics_at(snap, view)
        self._model_at(snap, view)  # force the least model first
        value = sem.value(pattern)
        return {
            "literal": pattern,
            "value": value.name.lower(),
            "derived": value is TruthValue.TRUE,
            "explanation": Explainer(sem).explain(pattern),
        }

    def _model_at(self, snap: Snapshot, view: str) -> Interpretation:
        interp = snap.models.get(view)
        if interp is not None:
            return interp
        if snap is self._snapshot:
            # Latest snapshot: warm the view through the writer KB so
            # it joins the incremental maintenance set, then pin the
            # (immutable) model into the snapshot.
            interp = self.kb.view(view).least_model
            snap.models[view] = interp
            return interp
        return snap.materialize(view)

    def _semantics_at(self, snap: Snapshot, view: str) -> OrderedSemantics:
        if snap is self._snapshot:
            return self.kb.view(view)
        return snap.semantics(view)

    def _health(self, request: Request) -> dict:
        return protocol.ok_response(
            request.id,
            self._version,
            {
                "status": "draining" if self._draining else "ok",
                "uptime_s": time.monotonic() - self.started_at,
                "snapshot_age_s": self._snapshot.age(),
                "queue_depth": self._queue.qsize(),
            },
        )

    def stats(self) -> dict:
        """The ``stats`` result: serving counters plus pipeline state."""
        payload = {
            "version": self._version,
            "uptime_s": time.monotonic() - self.started_at,
            "snapshot_age_s": self._snapshot.age(),
            "queue_depth": self._queue.qsize(),
            "draining": self._draining,
            "objects": len(self.kb.objects),
            "views_materialized": len(self._snapshot.models),
            "requests": dict(sorted(self._requests.items())),
            "errors": dict(sorted(self._errors.items())),
            "writes": {
                "batches": self._batches,
                "ops": self._ops_applied,
                "max_batch": self._max_batch_seen,
                "mean_batch": (
                    self._ops_applied / self._batches if self._batches else 0.0
                ),
            },
            "latency": {
                "read": _latency_dict(self._read_latency),
                "write": _latency_dict(self._write_latency),
            },
            "queue_wait_ms": self._queue_wait.as_dict(),
            "slow": {
                "threshold_ms": self.config.slow_ms,
                "total": self._slow_total,
                "logged": len(self._slow),
                "max_ms": self._slow_max_ms,
            },
            "views": {
                view: {
                    "refreshes": hist.count,
                    "mean_s": hist.mean,
                    "max_s": hist.max or 0.0,
                    "p95_s": hist.quantile(0.95),
                }
                for view, hist in sorted(self._view_refresh.items())
            },
            "replication": {
                "subscribers": len(self._subscribers),
                "subscribes_total": self._subscribers_total,
                "lagged_total": self._subscribers_lagged,
            },
        }
        if self.wal is not None:
            payload["wal"] = self.wal.stats()
        return payload

    def exposition(self) -> str:
        """Prometheus text-format exposition: the always-on serving
        instruments plus (when the registry is enabled) every registry
        instrument via :func:`~repro.obs.exposition.write_registry`."""
        writer = PrometheusWriter()
        writer.gauge(
            "repro_server_version", self._version, help="Published snapshot version."
        )
        writer.gauge(
            "repro_server_uptime_seconds",
            time.monotonic() - self.started_at,
            help="Seconds since the engine started.",
        )
        writer.gauge(
            "repro_server_queue_depth",
            self._queue.qsize(),
            help="Write requests waiting in the bounded queue.",
        )
        writer.gauge(
            "repro_server_snapshot_age_seconds",
            self._snapshot.age(),
            help="Age of the latest published snapshot.",
        )
        writer.gauge(
            "repro_server_draining",
            int(self._draining),
            help="1 while the server is draining.",
        )
        for op, n in sorted(self._requests.items()):
            writer.counter(
                "repro_server_requests_total",
                n,
                labels={"op": op},
                help="Requests handled, by op.",
            )
        for code, n in sorted(self._errors.items()):
            writer.counter(
                "repro_server_errors_total",
                n,
                labels={"code": code},
                help="Error replies, by code.",
            )
        writer.counter(
            "repro_server_batches_total",
            self._batches,
            help="Published write batches.",
        )
        writer.counter(
            "repro_server_ops_applied_total",
            self._ops_applied,
            help="Write requests applied.",
        )
        writer.counter(
            "repro_server_slow_queries_total",
            self._slow_total,
            help="Requests at or above the --slow-ms threshold.",
        )
        writer.histogram(
            "repro_server_read_latency_seconds",
            self._read_latency,
            help="Read latency (query/ask/explain).",
        )
        writer.histogram(
            "repro_server_write_latency_seconds",
            self._write_latency,
            help="Write latency (admission to publish).",
        )
        writer.histogram(
            "repro_server_queue_wait_ms",
            self._queue_wait,
            help="Write-queue wait in milliseconds.",
        )
        for view, hist in sorted(self._view_refresh.items()):
            writer.histogram(
                "repro_server_view_refresh_seconds",
                hist,
                labels={"view": view},
                help="Hot-view re-materialization cost at publish.",
            )
        writer.gauge(
            "repro_server_subscribers",
            len(self._subscribers),
            help="Live subscribe streams (replication followers).",
        )
        writer.counter(
            "repro_server_subscribers_lagged_total",
            self._subscribers_lagged,
            help="Subscribe streams cut for falling behind the buffer.",
        )
        if self.wal is not None:
            wal = self.wal.stats()
            writer.counter(
                "repro_wal_appends_total",
                wal["appends"],
                help="Journal records appended.",
            )
            writer.counter(
                "repro_wal_bytes_total",
                wal["bytes"],
                help="Journal bytes appended.",
            )
            writer.counter(
                "repro_wal_fsyncs_total",
                wal["fsyncs"],
                help="Journal fsyncs issued.",
            )
            writer.counter(
                "repro_wal_rotations_total",
                wal["rotations"],
                help="Journal segment rotations.",
            )
            writer.counter(
                "repro_wal_checkpoints_total",
                wal["checkpoints"],
                help="Checkpoints written.",
            )
            writer.gauge(
                "repro_wal_checkpoint_version",
                wal["checkpoint_version"],
                help="Version of the newest checkpoint.",
            )
        self._expose_extra(writer)
        write_registry(writer, get_instrumentation())
        return writer.render()

    def _expose_extra(self, writer: PrometheusWriter) -> None:
        """Subclass hook: extra always-on instruments in ``/metrics``
        (the follower engine adds its replication lag here)."""

    # ------------------------------------------------------------------
    # Slow-query log
    # ------------------------------------------------------------------
    def slow_log(self) -> dict:
        """The ``slow`` result: the ring buffer, newest last."""
        return {
            "threshold_ms": self.config.slow_ms,
            "total": self._slow_total,
            "entries": list(self._slow),
        }

    def _record_slow(
        self,
        request: Request,
        ctx: TraceContext,
        elapsed: float,
        version: int,
    ) -> None:
        elapsed_ms = round(elapsed * 1000.0, 3)
        self._slow_total += 1
        if elapsed_ms > self._slow_max_ms:
            self._slow_max_ms = elapsed_ms
        self._slow.append(
            {
                "at": time.time(),
                "id": request.id,
                "op": request.op,
                "view": request.view,
                "pattern": request.pattern,
                "rules": (request.rules or "")[:200] or None,
                "mode": request.mode,
                "elapsed_ms": elapsed_ms,
                "version": version,
                "trace_id": ctx.trace_id,
                "spans": ctx.root.to_dict(),
                "cost": dict(ctx.costs),
            }
        )
        get_instrumentation().event(
            "server.slow_query",
            op=request.op,
            view=request.view,
            elapsed_ms=elapsed_ms,
            trace_id=ctx.trace_id,
        )

    # ------------------------------------------------------------------
    # Write path (single-writer pipeline)
    # ------------------------------------------------------------------
    async def _write(self, request: Request) -> dict:
        if self._draining:
            return self._error(
                request, protocol.SHUTTING_DOWN, "server is draining"
            )
        if self._wal_broken:
            return self._error(
                request,
                protocol.INTERNAL,
                "write-ahead log failed; refusing writes the journal "
                "cannot make durable",
            )
        ctx: Optional[TraceContext] = None
        if request.trace is not None or self.config.slow_ms is not None:
            trace = request.trace or {}
            ctx = TraceContext(
                trace_id=trace.get("id"),
                baggage=trace.get("baggage"),
                name=f"server.{request.op}",
                op=request.op,
                view=request.view or "",
            )
        future: asyncio.Future[dict] = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait(_WriteItem(request, future, ctx))
        except asyncio.QueueFull:
            return self._error(
                request,
                protocol.OVERLOADED,
                f"write queue full ({self.config.max_queue} pending)",
                queue_depth=self._queue.qsize(),
            )
        return await future

    async def _writer_loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _SENTINEL:
                break
            c0 = time.perf_counter()
            batch = [item]
            stop = False
            while len(batch) < self.config.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _SENTINEL:
                    stop = True
                    break
                batch.append(nxt)
            coalesce_s = time.perf_counter() - c0
            try:
                self._apply_batch(batch, coalesce_s)
            except Exception as error:  # defensive: never strand futures
                for item in batch:
                    if not item.future.done():
                        item.future.set_result(
                            self._error(
                                item.request,
                                protocol.INTERNAL,
                                f"writer failure: {error!r}",
                            )
                        )
            if stop:
                break

    def _apply_batch(self, batch: list[_WriteItem], coalesce_s: float = 0.0) -> None:
        """Apply one coalesced batch and publish the next version.

        Runs synchronously (no awaits): readers and other writers never
        observe a half-applied batch.  Each request in the batch is
        applied independently — a rejected mutation, or one that fails
        in any other way, turns into an error reply to that request
        without poisoning the rest of the batch.
        """
        t0 = time.perf_counter()
        now = time.monotonic()
        applied: list[_WriteItem] = []
        errors: list[tuple[_WriteItem, dict]] = []
        for item in batch:
            request = item.request
            # Queue wait: admission (arrived_at) to the writer picking
            # the item up.  Observed per item, before shedding, so shed
            # requests still show up in the wait distribution.
            wait_s = max(0.0, now - request.arrived_at)
            self._queue_wait.observe(wait_s * 1000.0)
            if item.trace is not None:
                item.trace.record("queue.wait", wait_s, batch_size=len(batch))
                item.trace.record(
                    "coalesce", coalesce_s, batch_size=len(batch)
                )
            if request.expired(now):
                errors.append(
                    (
                        item,
                        self._error(
                            request,
                            protocol.TIMEOUT,
                            "deadline expired in the write queue",
                        ),
                    )
                )
                continue
            try:
                if item.trace is not None:
                    # Re-activate the request's context on the writer
                    # task: engine spans under apply join its span tree.
                    with item.trace.activate():
                        with get_instrumentation().span(
                            "apply", op=request.op, view=request.view or ""
                        ):
                            self.kb.apply_op(_op_dict(request))
                else:
                    self.kb.apply_op(_op_dict(request))
            except Exception as error:
                # Not ReproError alone: one request's failure is its
                # own, and letting it out of the loop would skip the
                # journal and the publish for the writes of this batch
                # the KB has already taken.
                if isinstance(error, ReproError):
                    code, message = protocol.SEMANTICS, str(error)
                else:
                    code, message = protocol.INTERNAL, f"unhandled failure: {error!r}"
                errors.append(
                    (item, self._error(request, code, message, self._version))
                )
            else:
                applied.append(item)
        pub_elapsed = 0.0
        pub_ctx: Optional[TraceContext] = None
        if applied:
            if any(item.trace is not None for item in applied):
                # Publish (hot-view refresh through the maintenance
                # engine) is batch-level work; collect its spans and
                # cost digest once and attribute them to every traced
                # item of the batch.
                pub_ctx = TraceContext(name="publish")
            pub_t0 = time.perf_counter()
            if pub_ctx is not None:
                with pub_ctx.activate():
                    self._publish([item.request for item in applied])
            else:
                self._publish([item.request for item in applied])
            pub_elapsed = time.perf_counter() - pub_t0
            if pub_ctx is not None:
                # What Interpretation._members recorded during the
                # publish, under the publish's own key (expected 0).
                costs = pub_ctx.costs
                costs["publish_decoded_literals"] = costs.pop("decoded_literals", 0)
        elapsed = time.perf_counter() - t0
        self._write_latency.observe(elapsed)
        version = self._version
        for item in applied:
            result: dict[str, Any] = {"applied": item.request.op}
            if item.trace is not None:
                ctx = item.trace
                node = ctx.record(
                    "publish", pub_elapsed, version=version, batch=len(applied)
                )
                if pub_ctx is not None:
                    node.children.extend(pub_ctx.root.children)
                    ctx.add_cost(**pub_ctx.costs)
                ctx.annotate(batch_version=version, batch_size=len(applied))
                ctx.close()
                if (
                    self.config.slow_ms is not None
                    and ctx.root.duration is not None
                    and ctx.root.duration * 1000.0 >= self.config.slow_ms
                ):
                    self._record_slow(
                        item.request, ctx, ctx.root.duration, version
                    )
                if item.request.trace is not None:
                    result["trace"] = ctx.summary()
            if not item.future.done():
                item.future.set_result(
                    protocol.ok_response(item.request.id, version, result)
                )
        for item, payload in errors:
            if not item.future.done():
                item.future.set_result(payload)

    def _publish(self, applied: list[Request]) -> None:
        """Atomically publish the next snapshot version.

        Each journal/stream op carries the ``seers`` downset at publish
        time (the views it can change — the replication filter's sole
        input)."""
        ops = [_op_dict(request) for request in applied]
        for op in ops:
            op["seers"] = sorted(self.kb.seers(op["view"]))
        snapshot = self._publish_ops(ops, self._version + 1)
        if self.config.keep_history:
            self.history.append((snapshot, list(applied)))

    def _publish_ops(self, ops: list[dict], version: int) -> Snapshot:
        """Publish one version from already-applied journal-shaped ops.

        The leader reaches this through :meth:`_publish` (version =
        next); a follower through ``apply_entry`` (version = the
        leader's).  Ordering is the durability contract: the WAL append
        happens *before* the snapshot swap, so a version a client can
        ever observe — let alone get an ack for — is already on disk.

        Untouched views share the previous snapshot's materialized
        models (structural sharing); touched hot views are repaired
        through the delta engine (``kb.view`` hands the batch's fact
        updates to each view in one ``apply_updates`` call) and their
        new model is pinned as it comes, in id space: publishing builds
        no literal (cost key ``publish_decoded_literals`` counts them).
        """
        prev = self._snapshot
        obs = get_instrumentation()
        affected: set[str] = set()
        for op in ops:
            if op["op"] == "define":
                affected.add(op["view"])
            else:
                affected.update(op["seers"])
        if self.wal is not None:
            try:
                with obs.span("wal.append"):
                    self.wal.append(version, ops)
            except OSError:
                # The KB has advanced past the durable log; admitting
                # more writes would ack state a restart cannot rebuild.
                self._wal_broken = True
                raise
        models = {
            view: m for view, m in prev.models.items() if view not in affected
        }
        sems = {
            view: s for view, s in prev._sems.items() if view not in affected
        }
        # Hot views — materialized in the previous snapshot and affected
        # by the batch — are repaired here, at publish time, so that
        # their reads never compute a model, only probe one.
        for view in prev.models:
            if view in affected and view in self.kb.objects:
                r0 = time.perf_counter()
                try:
                    models[view] = self.kb.view(view).least_model
                except ReproError:
                    # The view is now erroneous (e.g. inconsistent);
                    # readers get the error lazily instead of the
                    # publish failing the whole batch.
                    models.pop(view, None)
                refresh = time.perf_counter() - r0
                hist = self._view_refresh.get(view)
                if hist is None:
                    hist = Histogram(
                        f"server.view.refresh.{view}", LATENCY_BUCKETS
                    )
                    self._view_refresh[view] = hist
                hist.observe(refresh)
        self._version = version
        snapshot = Snapshot(
            version,
            self.kb.program(),
            self.kb.grounding,
            self.kb.budget,
            models,
            sems,
        )
        self._snapshot = snapshot
        self._batches += 1
        self._ops_applied += len(ops)
        if len(ops) > self._max_batch_seen:
            self._max_batch_seen = len(ops)
        with obs.span("notify", subscribers=len(self._subscribers)):
            self._notify_subscribers(version, ops)
        if obs.enabled:
            obs.observe("server.batch_size", len(ops))
            obs.event(
                "server.publish",
                version=version,
                batch=len(ops),
                affected_views=len(affected),
            )
        if self.wal is not None:
            self.wal.maybe_checkpoint(self.kb, version)
        return snapshot

    # ------------------------------------------------------------------
    # Replication: live subscribers and journal catch-up
    # ------------------------------------------------------------------
    def add_subscriber(
        self, views: Optional[tuple[str, ...]] = None
    ) -> Subscriber:
        """Register one live stream.  Must be called synchronously with
        :meth:`catch_up` (no await between them): publishes run
        synchronously on the same loop, so registration + catch-up is
        atomic with respect to version production and the stream misses
        nothing."""
        sub = Subscriber(
            self.config.subscriber_queue,
            frozenset(views) if views is not None else None,
        )
        self._subscribers.append(sub)
        self._subscribers_total += 1
        return sub

    def remove_subscriber(self, sub: Subscriber) -> None:
        try:
            self._subscribers.remove(sub)
        except ValueError:
            pass

    def close_subscribers(self) -> None:
        """End every live stream cleanly (server drain)."""
        for sub in list(self._subscribers):
            try:
                sub.queue.put_nowait(STREAM_END)
            except asyncio.QueueFull:
                # The buffered prefix still ends the stream: the drain
                # loop sees ``lagging`` once the buffer is empty.
                sub.lagging = True

    def _notify_subscribers(self, version: int, ops: list[dict]) -> None:
        """Push one entry per published version into every live stream.

        A view-filtered subscriber still receives the version (with the
        surviving ops only, possibly none): version contiguity is what
        lets a follower equate "applied v" with "consistent with the
        leader's v" for its subscribed subset.
        """
        for sub in self._subscribers:
            if sub.lagging:
                continue
            filtered = [op for op in ops if sub.wants(op)]
            entry = {"version": version, "ops": filtered}
            try:
                sub.queue.put_nowait(entry)
            except asyncio.QueueFull:
                sub.lagging = True
                self._subscribers_lagged += 1

    def catch_up(
        self,
        from_version: int,
        views: Optional[tuple[str, ...]] = None,
    ) -> tuple[str, Any, int]:
        """What a new subscriber at ``from_version`` must replay first.

        Returns ``("entries", [entry, ...], current_version)`` when the
        journal (or nothing) covers the gap, or ``("snapshot", kb_dict,
        current_version)`` when it cannot — no journal, a truncated
        range, or an unreadable journal — and the subscriber must load
        the full KB before tailing.

        Synchronous by design: called between :meth:`add_subscriber`
        and the first queue read, it sees a frozen version frontier.
        """
        current = self._version
        if from_version == 0 and (
            self._v0_nonempty
            or (self.wal is not None and self.wal.seeded_at_zero)
        ):
            # Version 0 here was a seeded KB, not the empty one a fresh
            # follower holds — only a snapshot can align it.
            return "snapshot", kb_to_dict(self.kb), current
        if from_version >= current:
            return "entries", [], current
        if self.wal is not None and from_version >= self.wal.oldest_available:
            try:
                records = self.wal.read_after(from_version)
            except WalCorruption:
                return "snapshot", kb_to_dict(self.kb), current
            if views is None:
                keep = None
            else:
                # Historical records carry publish-time ``seers`` that
                # cannot know views defined later, so catch-up filters
                # against the *current* poset: a view's scope (C*) is
                # fixed at its define time, making "op.view in the
                # subscription's scope" time-independent.  The raw
                # seers check additionally admits the define of a
                # subscribed view itself.
                scope: set[str] = set(views)
                for v in views:
                    if v in self.kb.objects:
                        scope |= self.kb.scope(v)
                wanted = frozenset(views)

                def keep(op: dict) -> bool:
                    return op["view"] in scope or bool(
                        wanted.intersection(op.get("seers", ()))
                    )

            entries = [
                {
                    "version": record.version,
                    "ops": [op for op in record.ops if keep is None or keep(op)],
                }
                for record in records
            ]
            return "entries", entries, current
        return "snapshot", kb_to_dict(self.kb), current
