"""Server subprocesses and the closed-loop load generator.

Load shape of every server workload: one asyncio generator process, one
connection, no threads; the client sends its next request only after the
previous reply arrived (closed loop — how the REPL, ``olp top`` and
follower clients behave).  The request stream is a deterministic function
of ``--seed``, generated request by request just before the send (about
3 µs, inside the timed send → reply interval) and cut by time.

One caller, not one per processor: the sandbox is a few virtual processors
of a shared host, and with two callers the generator and the server are
busy at once, so a run measured how the two happened to be scheduled (ten
seeds spread 33 % on ``serve_read_heavy``).  With one caller the server and
the generator take turns, and both are pinned to one processor (``pin``).

Between a reply and the next send the generator times one speed probe
(``common.spin``, 20 µs: 4 % of the cheapest round trip measured here) —
how fast the processor is running right now, while the server is idle.  The
end-to-end readings of a round are its wall-clock times divided by how much
slower than ``SPIN_REFERENCE`` the probe ran during the round
(``summarize``).
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import time
from contextlib import ExitStack, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Protocol, Sequence

from .common import (
    SERVING_CPU,
    SPIN_REFERENCE,
    BenchmarkError,
    child_env,
    cpu_seconds,
    median,
    percentile,
    pin,
    python_executable,
    ratio,
    spin,
)

#: Closed-loop connections.
CLIENTS = 1

#: Seconds of load discarded before the measured window.
WARMUP_SECONDS = 2.0

READ, WRITE = 0, 1

_BANNER = "listening on "
_BOOT_TIMEOUT = 60.0
_TRACE_SUFFIX = b',"trace":true}\n'
_PLAIN_SUFFIX = b"}\n"
_REPLY_SAMPLES = 256


# ----------------------------------------------------------------------
# Server subprocesses
# ----------------------------------------------------------------------
class ServerProc:
    """One ``python -m repro.cli serve`` subprocess, located by its
    ``listening on`` banner.  Output goes to a log file in the scratch
    directory so a full pipe can never stall the server."""

    def __init__(self, args: Sequence[str], log_path: Path, cpu: int = SERVING_CPU) -> None:
        self.args = list(args)
        self.log_path = log_path
        self.cpu = cpu
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.boot_s = 0.0
        #: Seconds each speed probe took, one per poll for the banner.
        self.boot_probes: list[float] = []

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def start(self) -> "ServerProc":
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [python_executable(), "-m", "repro.cli", "serve", "--port", "0", *self.args],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=child_env(),
            )
        pin(self.proc.pid, self.cpu)
        deadline = t0 + _BOOT_TIMEOUT
        while True:
            text = self.log_path.read_text(errors="replace")
            for line in text.split("\n")[:-1]:  # complete lines only
                if _BANNER in line:
                    self.port = int(line.rsplit(":", 1)[1])
                    self.boot_s = time.perf_counter() - t0
                    return self
            if self.proc.poll() is not None:
                raise BenchmarkError(
                    f"olp serve {' '.join(self.args)} exited with "
                    f"{self.proc.returncode}: {text.strip()[-400:]}"
                )
            if time.perf_counter() > deadline:
                self.stop()
                raise BenchmarkError(f"olp serve did not boot in {_BOOT_TIMEOUT}s")
            time.sleep(0.002)
            spin()  # untimed: refills the caches the booting server emptied
            probe_start = time.perf_counter()
            spin()
            self.boot_probes.append(time.perf_counter() - probe_start)

    def stop(self) -> None:
        """Terminate and reap; safe to call twice."""
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def boot_slowdown(*servers: ServerProc) -> float:
    """How much slower than ``SPIN_REFERENCE`` the speed probe ran while
    ``servers`` booted (one probe per poll for the banner, every 2 ms): a
    set-up's wall-clock time ÷ this is the set-up at reference speed."""
    probes = [probe for server in servers for probe in server.boot_probes]
    return ratio(sum(probes), len(probes)) / SPIN_REFERENCE


def spawn(stack: ExitStack, args: Sequence[str], log_path: Path,
          cpu: int = SERVING_CPU) -> ServerProc:
    """Start a server whose reaping is tied to ``stack`` (every exit path,
    ``KeyboardInterrupt`` and oracle failure included)."""
    server = ServerProc(args, log_path, cpu)
    stack.callback(server.stop)
    return server.start()


# ----------------------------------------------------------------------
# Connections
# ----------------------------------------------------------------------
class Connection:
    """One NDJSON protocol connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        # Query replies over ``X`` exceed asyncio's 64 KiB default line limit
        # only on much larger KBs; leave generous headroom anyway.
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        return cls(reader, writer)

    async def call(self, payload: dict) -> dict:
        self.writer.write(json.dumps(payload).encode() + b"\n")
        line = await self.reader.readline()
        if not line:
            raise BenchmarkError(f"server closed the connection on {payload.get('op')!r}")
        return json.loads(line)

    async def result(self, payload: dict) -> dict:
        """``call`` that insists on ``ok`` and returns the ``result``."""
        reply = await self.call(payload)
        if not reply.get("ok"):
            raise BenchmarkError(f"{payload.get('op')!r} failed: {reply.get('error')}")
        return reply["result"]

    async def close(self) -> None:
        self.writer.close()
        with suppress(ConnectionError, OSError):
            await self.writer.wait_closed()


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One generated request.  ``prefix`` is the JSON line without its
    closing brace, so the traced variant costs one concatenation."""

    prefix: bytes
    kind: int
    #: The request id the reply must echo.
    rid: str
    #: What the reply must say, in the stream's own vocabulary (None =
    #: only ``ok`` and the echoed id are checked).
    expect: object = None
    #: The write this request performs, for replaying the acked prefix.
    write: object = None


class Stream(Protocol):
    def next(self) -> Request: ...

    def check(self, request: Request, reply: dict) -> bool: ...


@dataclass
class Phase:
    name: str
    seconds: float
    traced: bool = False


@dataclass
class ClientLog:
    #: ``(phase index, sent, done, kind, good, spin)`` per completed request.
    rows: list[tuple[int, float, float, int, bool, float]] = field(default_factory=list)
    #: The requests sent, in order (the acked prefix of the stream).
    sent: list[Request] = field(default_factory=list)
    #: ``result.trace`` objects of traced replies, with the request kind.
    traces: list[tuple[int, dict]] = field(default_factory=list)
    #: The first replies, kept whole for the protocol encode probe.
    samples: list[dict] = field(default_factory=list)
    dropped: bool = False


@dataclass
class Boundary:
    """Readings taken between phases, on a control connection."""

    #: When the boundary was due, and when it was actually read.
    planned: float
    at: float
    generator_cpu: float
    cpu: dict[str, float]
    stats: dict[str, dict]


async def _client(port: int, stream: Stream, phases: Sequence[Phase],
                  start: float, log: ClientLog) -> None:
    conn = await Connection.open(port)
    try:
        await asyncio.sleep(max(0.0, start - time.perf_counter()))
        ends = []
        t = start
        for phase in phases:
            t += phase.seconds
            ends.append(t)
        clock = time.perf_counter
        for phase_index, phase in enumerate(phases):
            end = ends[phase_index]
            suffix = _TRACE_SUFFIX if phase.traced else _PLAIN_SUFFIX
            while True:
                sent = clock()
                if sent >= end:
                    break
                request = stream.next()
                conn.writer.write(request.prefix + suffix)
                line = await conn.reader.readline()
                done = clock()
                if not line:
                    log.dropped = True
                    return
                reply = json.loads(line)
                try:
                    good = (
                        reply.get("ok") is True
                        and reply.get("id") == request.rid
                        and stream.check(request, reply)
                    )
                except (KeyError, TypeError):  # an ok reply of the wrong shape
                    good = False
                if len(log.samples) < _REPLY_SAMPLES:
                    log.samples.append(reply)
                spin_start = clock()
                spin()
                log.rows.append(
                    (phase_index, sent, done, request.kind, good, clock() - spin_start)
                )
                log.sent.append(request)
                if phase.traced and good:
                    trace = reply["result"].get("trace")
                    if trace is not None:
                        log.traces.append((request.kind, trace))
    finally:
        await conn.close()


async def _controller(servers: dict[str, ServerProc], phases: Sequence[Phase],
                      start: float, boundaries: list[Boundary]) -> None:
    """Read ``stats`` and CPU clocks at every phase boundary."""
    conns = {name: await Connection.open(server.port) for name, server in servers.items()}
    try:
        at = start
        for phase in [None, *phases]:
            if phase is not None:
                at += phase.seconds
            await asyncio.sleep(max(0.0, at - time.perf_counter()))
            boundaries.append(Boundary(
                planned=at,
                at=time.perf_counter(),
                generator_cpu=time.process_time(),
                cpu={name: cpu_seconds(server.pid) for name, server in servers.items()},
                stats={name: await conn.result({"id": "ctl", "op": "stats"})
                       for name, conn in conns.items()},
            ))
    finally:
        for conn in conns.values():
            await conn.close()


async def drive(target: ServerProc, observed: dict[str, ServerProc],
                streams: Sequence[Stream], phases: Sequence[Phase]
                ) -> tuple[list[ClientLog], list[Boundary]]:
    """Run every client against ``target`` through ``phases``.

    Returns the per-client logs and ``len(phases) + 1`` boundary readings
    of the ``observed`` servers (boundary ``i`` precedes phase ``i``).
    """
    logs = [ClientLog() for _ in streams]
    boundaries: list[Boundary] = []
    start = time.perf_counter() + 0.05
    tasks = [
        asyncio.ensure_future(_client(target.port, stream, phases, start, logs[i]))
        for i, stream in enumerate(streams)
    ]
    tasks.append(asyncio.ensure_future(_controller(observed, phases, start, boundaries)))
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
    return logs, boundaries


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
#: Requests in a round.  Every stream repeats its mix with a period that
#: divides ``ROUND``, so any ``ROUND`` consecutive requests are the same work.
ROUND = 60


@dataclass
class PhaseSummary:
    #: ``ROUND`` ÷ the median round duration at reference speed.
    throughput_ops_s: float
    #: The median over rounds of the round's median read latency, in ms at
    #: reference speed.
    read_p50_ms: float
    #: The median over rounds of how much slower than ``SPIN_REFERENCE`` the
    #: speed probe ran: the two readings above, times this, are wall-clock.
    host_slowdown: float
    reads: list[float]
    writes: list[float]
    attempted: int
    failed: int
    #: Good replies completed in each whole second of the phase.
    per_second: list[int] = field(default_factory=list)
    #: Wall-clock seconds each round took and its slowdown, in running order.
    round_seconds: list[float] = field(default_factory=list)
    round_slowdowns: list[float] = field(default_factory=list)

    def latency_values(self, prefix: str = "") -> dict[str, float]:
        """Wall-clock percentiles over every sample of the phase, in ms."""
        values = {}
        for kind, samples in (("read", self.reads), ("write", self.writes)):
            for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                values[f"{prefix}{kind}_{label}_ms"] = percentile(samples, q) * 1000.0
        return values

    def notes(self) -> list[str]:
        latency = self.latency_values()
        lines = [
            f"rounds n={len(self.round_seconds)}; speed probe ran "
            f"{self.host_slowdown:.2f}x its reference time (median round; "
            f"fastest {min(self.round_slowdowns, default=0.0):.2f}x, "
            f"slowest {max(self.round_slowdowns, default=0.0):.2f}x)",
            f"wall clock, whole window: median second {median(self.per_second):g} replies; "
            f"reads n={len(self.reads)} p50={latency['read_p50_ms']:.3f} "
            f"p95={latency['read_p95_ms']:.3f} p99={latency['read_p99_ms']:.3f} ms",
        ]
        if self.writes:
            lines.append(
                f"writes n={len(self.writes)} p50={latency['write_p50_ms']:.3f} "
                f"p95={latency['write_p95_ms']:.3f} p99={latency['write_p99_ms']:.3f} ms"
            )
        return lines


def summarize(logs: Sequence[ClientLog], phases: Sequence[Phase],
              boundaries: Sequence[Boundary], phase_index: int) -> PhaseSummary:
    """Throughput and latencies of one phase.

    A client's requests of the phase are cut into rounds of ``ROUND``
    consecutive requests — equal work, since the stream's mix is periodic —
    each timed from its first send to the next round's first send.  A
    round's *slowdown* is the mean time of its ``ROUND`` speed probes ÷
    ``SPIN_REFERENCE``; its duration and its median read latency are divided
    by it, which states them at reference speed.  ``throughput_ops_s`` is
    ``ROUND`` ÷ the median of those durations and ``read_p50_ms`` the median
    of those latencies.

    Why not the wall clock as it reads: the host changes speed under the
    run (``common.spin``), whole runs land in a slow spell, and ten runs of the
    same code then spread 18–27 % on either reading whatever order statistic
    of the rounds is taken, against 3–7 % at reference speed.  The probe and
    the server are both CPython running on the same processor in turns, and
    a neighbour on the core slows both alike; time that is not the
    processor's (the WAL's ``fsync``) is over-corrected, by its share of a
    round.  The wall-clock figures are printed beside these and are the
    ``client.*`` rows of the traced run.
    """
    begin = boundaries[phase_index].planned
    whole_seconds = int(phases[phase_index].seconds)
    per_second = [0] * max(whole_seconds, 1)
    reads: list[float] = []
    writes: list[float] = []
    round_seconds: list[float] = []
    round_slowdowns: list[float] = []
    round_read_p50s: list[float] = []
    attempted = failed = 0
    for log in logs:
        rows = [row for row in log.rows if row[0] == phase_index]
        attempted += len(rows)
        for _, sent, done, kind, good, _ in rows:
            if not good:
                failed += 1
                continue
            (reads if kind == READ else writes).append(done - sent)
            second = int(done - begin)
            if 0 <= second < len(per_second):
                per_second[second] += 1
        if log.dropped:
            attempted += 1
            failed += 1
        for first in range(0, len(rows) - ROUND, ROUND):
            chunk = rows[first:first + ROUND]
            if not all(row[4] for row in chunk):
                continue
            round_seconds.append(rows[first + ROUND][1] - chunk[0][1])
            round_slowdowns.append(sum(row[5] for row in chunk) / ROUND / SPIN_REFERENCE)
            round_read_p50s.append(median(
                done - sent for _, sent, done, kind, _, _ in chunk if kind == READ
            ))
    at_reference = [t / slow for t, slow in zip(round_seconds, round_slowdowns)]
    return PhaseSummary(
        ratio(ROUND, median(at_reference)),
        median(p50 / slow for p50, slow in zip(round_read_p50s, round_slowdowns)) * 1000.0,
        median(round_slowdowns),
        reads, writes, attempted, failed, per_second, round_seconds, round_slowdowns,
    )


def window_phases(seconds: float, trace: bool) -> list[Phase]:
    """Warm-up, then the measured window.  A traced run splits the window:
    an untraced half (phase 1, as in an untraced run) and a traced half
    (phase 2), so one run yields the tracing overhead too."""
    warmup = Phase("warmup", min(WARMUP_SECONDS, seconds / 3.0))
    if not trace:
        return [warmup, Phase("measured", seconds)]
    return [warmup, Phase("untraced", seconds / 2.0),
            Phase("traced", seconds / 2.0, traced=True)]


def client_values(main: PhaseSummary, traced: PhaseSummary,
                  boundaries: Sequence[Boundary]) -> dict[str, float]:
    """The ``client.*`` rows and ``trace.overhead_ratio`` of a traced run."""
    values = main.latency_values("client.")
    values["client.reads"] = len(main.reads)
    values["client.writes"] = len(main.writes)
    values["client.generator_cpu_ratio"] = generator_ratio(boundaries, 1, 2)
    values["host.slowdown_ratio"] = main.host_slowdown
    values["trace.overhead_ratio"] = ratio(main.throughput_ops_s, traced.throughput_ops_s)
    return values


def busy_ratio(boundaries: Sequence[Boundary], first: int, last: int, name: str) -> float:
    """CPU seconds of one observed server ÷ wall, between two boundaries."""
    wall = boundaries[last].at - boundaries[first].at
    return ratio(boundaries[last].cpu[name] - boundaries[first].cpu[name], wall)


def generator_ratio(boundaries: Sequence[Boundary], first: int, last: int) -> float:
    wall = boundaries[last].at - boundaries[first].at
    return ratio(boundaries[last].generator_cpu - boundaries[first].generator_cpu, wall)


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------
def span_self_times(tree: dict, into: dict[str, list[float]]) -> None:
    """Accumulate each span's self time (its duration minus its children's)
    under its name, one sample per occurrence."""
    children = tree.get("children", ())
    own = tree.get("duration_ms", 0.0) - sum(c.get("duration_ms", 0.0) for c in children)
    into.setdefault(tree["name"], []).append(max(own, 0.0))
    for child in children:
        span_self_times(child, into)


def span_durations(tree: dict, into: dict[str, list[float]]) -> None:
    """Accumulate each span's full duration under its name."""
    into.setdefault(tree["name"], []).append(tree.get("duration_ms", 0.0))
    for child in tree.get("children", ()):
        span_durations(child, into)
