"""Workloads ``serve_mixed`` and ``serve_read_heavy``: reads and writes
over TCP against a leader with a durable WAL and one follower.

Deployment: ``olp serve kb.olp --wal DIR --wal-fsync always`` plus one
``olp serve --follow`` follower; KB = ``session_program(6, 32)``, every
view warmed by one read before the clock.  One closed-loop client (client
``i`` of ``CLIENTS`` writes only entities ``e_j`` with ``j mod CLIENTS = i``,
so the final state would not depend on how several interleaved); the oracle
is a plain replay of the acked prefix.

The two workloads differ only in the mix (every 2nd vs every 20th request
a write): the same
``server.engine`` used both ways round, so a write-path gain paid for with
snapshot-read cost (or the reverse) regresses exactly one of the pair.
"""

from __future__ import annotations

import asyncio
import random
import time
from contextlib import ExitStack
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from repro.core.semantics import OrderedSemantics
from repro.kb.query import answers_in
from repro.lang.parser import parse_rules
from repro.lang.printer import render_program
from repro.lang.program import Component, OrderedProgram
from repro.workloads import session_program

from . import probes
from .common import (
    FOLLOWER_CPU,
    SERVING_CPU,
    median,
    peak_rss_mb,
    percentile,
    pin,
    ratio,
    scratch_dir,
)
from .harness import (
    CLIENTS,
    READ,
    WRITE,
    ClientLog,
    Connection,
    Request,
    ServerProc,
    boot_slowdown,
    busy_ratio,
    client_values,
    drive,
    span_durations,
    span_self_times,
    spawn,
    summarize,
    window_phases,
)

DEPTH = 6
ENTITIES = 32
FSYNC = "always"

#: Every how many requests one is a write (50 % / 5 % writes); the rest are
#: reads.  A fixed period, not a coin per request, so that every round of
#: ``harness.ROUND`` requests is the same work.
WRITE_EVERY = {"serve_mixed": 2, "serve_read_heavy": 20}

#: Share of tells among writes while the registry holds fewer than
#: ``TOLD_TARGET`` told facts (30 % tell / 20 % retract of all requests in
#: ``serve_mixed``, 3 % / 2 % in ``serve_read_heavy``); above the target the
#: shares swap, so the told set hovers there.  A 3:2 mix cannot run for ever on a finite
#: registry, and a write costs more the more facts are told (3.0 → 5.1 ms
#: in-process from an empty to a full registry): a stream that kept filling
#: it would drift through the window, and the point it reached would depend
#: on how fast the commit under test is.
TELL_SHARE = 0.6
TOLD_TARGET = 32

PATTERNS = ("member", "ok", "flagged", "-member", "-flagged")
FACT_KINDS = ("enrolled", "sus")

#: Set-ups (boot leader + follower, warm every view) timed per run.
SETUP_REPEATS = 5


# ----------------------------------------------------------------------
# The request stream
# ----------------------------------------------------------------------
class SessionStream:
    """One client's deterministic request stream over the session registry.

    The stream tracks which facts of the client's own entity slice are told,
    so it can (a) only ever tell an untold fact or retract a told one — no
    request fails — and (b) state, at generation time, what a read about
    the client's own entities must answer: the client's writes are acked
    before its next request, and no other client touches those entities.
    """

    def __init__(self, seed: int, client: int, write_every: int) -> None:
        self.rng = random.Random(f"{seed}:session:{client}")
        self.client = client
        self.write_every = write_every
        self.own = [j for j in range(ENTITIES) if j % CLIENTS == client]
        self.own_names = frozenset(f"e{j}" for j in self.own)
        self.args = [f"e{j}" for j in range(ENTITIES)] + ["X"]
        #: told[kind][entity][level]
        self.told = [[[False] * DEPTH for _ in range(ENTITIES)] for _ in FACT_KINDS]
        self.told_facts: list[tuple[int, int, int]] = []
        self.untold_facts = [
            (kind, j, level)
            for kind in range(len(FACT_KINDS))
            for j in self.own
            for level in range(DEPTH)
        ]
        self.count = 0

    # -- semantics of the registry, in closed form ---------------------
    def holds(self, pred: str, entity: int, level: int) -> bool:
        """Whether ``pred(e<entity>)`` is in the least model of ``level<level>``:
        a view sees the facts told at its own level and above."""
        enrolled = any(self.told[0][entity][level:])
        sus = any(self.told[1][entity][level:])
        if pred in ("member", "ok"):
            return enrolled
        if pred == "flagged":
            return sus
        if pred == "-member":
            return not enrolled
        return enrolled and not sus  # -flagged

    # -- generation ----------------------------------------------------
    def next(self) -> Request:
        rid = f"c{self.client}-{self.count}"
        self.count += 1
        if self.count % self.write_every:
            return self._read(rid)
        return self._write(rid)

    def _read(self, rid: str) -> Request:
        rng = self.rng
        level = rng.randrange(DEPTH)
        pred = rng.choice(PATTERNS)
        arg = rng.choice(self.args)
        op = rng.choice(("query", "ask"))
        expect = None
        if arg == "X":
            expect = (op, frozenset(
                f"e{j}" for j in self.own if self.holds(pred, j, level)
            ))
        elif arg in self.own_names:
            expect = (op, self.holds(pred, int(arg[1:]), level))
        prefix = (
            f'{{"id":"{rid}","op":"{op}","view":"level{level}",'
            f'"pattern":"{pred}({arg})"'
        ).encode()
        return Request(prefix, READ, rid, expect)

    def _write(self, rid: str) -> Request:
        rng = self.rng
        filling = len(self.told_facts) < TOLD_TARGET // CLIENTS
        tell = rng.random() < (TELL_SHARE if filling else 1.0 - TELL_SHARE)
        if not self.told_facts:
            tell = True
        source, sink = (
            (self.untold_facts, self.told_facts) if tell else (self.told_facts, self.untold_facts)
        )
        at = rng.randrange(len(source))
        source[at], source[-1] = source[-1], source[at]
        fact = source.pop()
        sink.append(fact)
        kind, entity, level = fact
        self.told[kind][entity][level] = tell
        op = "tell" if tell else "retract"
        rules = f"{FACT_KINDS[kind]}_{level}(e{entity})."
        prefix = (
            f'{{"id":"{rid}","op":"{op}","view":"level{level}","rules":"{rules}"'
        ).encode()
        return Request(prefix, WRITE, rid, None, (op, f"level{level}", rules))

    # -- checking ------------------------------------------------------
    def check(self, request: Request, reply: dict) -> bool:
        if request.expect is None:
            return True
        op, want = request.expect
        result = reply["result"]
        if isinstance(want, bool):
            got = result["holds"] if op == "ask" else result["count"] == 1
            return got == want
        if op == "ask":
            return result["holds"] or not want
        mine = {a["bindings"]["X"] for a in result["answers"]} & self.own_names
        return mine == want


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------
class Deployment(NamedTuple):
    leader: ServerProc
    follower: ServerProc
    wal_dir: Path


def leader_args(kb_path: Optional[Path], wal_dir: Path) -> list[str]:
    args = [] if kb_path is None else [str(kb_path)]
    return [*args, "--wal", str(wal_dir), "--wal-fsync", FSYNC]


async def _warm(port: int) -> None:
    conn = await Connection.open(port)
    try:
        for level in range(DEPTH):
            await conn.result({"id": "warm", "op": "query", "view": f"level{level}",
                               "pattern": "member(X)"})
    finally:
        await conn.close()


def deploy(stack: ExitStack, tmp: Path, tag: str) -> Deployment:
    """Boot leader + follower in ``tmp`` and warm every view on both."""
    kb_path = tmp / f"kb-{tag}.olp"
    kb_path.write_text(render_program(session_program(DEPTH, ENTITIES)))
    wal_dir = tmp / f"wal-{tag}"
    leader = spawn(stack, leader_args(kb_path, wal_dir), tmp / f"leader-{tag}.log")
    follower = spawn(stack, ["--follow", f"127.0.0.1:{leader.port}"],
                     tmp / f"follower-{tag}.log", FOLLOWER_CPU)
    asyncio.run(_warm(leader.port))
    asyncio.run(_warm(follower.port))
    return Deployment(leader, follower, wal_dir)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def probe_keys() -> list[tuple[str, str]]:
    return [(f"level{level}", f"{pred}(X)") for level in range(DEPTH) for pred in PATTERNS]


async def probe_server(port: int) -> dict[tuple[str, str], list[str]]:
    conn = await Connection.open(port)
    try:
        out = {}
        for view, pattern in probe_keys():
            result = await conn.result({"id": "probe", "op": "query", "view": view,
                                        "pattern": pattern})
            out[(view, pattern)] = sorted(a["literal"] for a in result["answers"])
        return out
    finally:
        await conn.close()


def acked_writes(logs: Sequence[ClientLog]) -> list[tuple[str, str, str]]:
    """Every client's acked writes, merged in send order."""
    stamped = []
    for log in logs:
        for row, request in zip(log.rows, log.sent):
            if request.write is not None and row[4]:
                stamped.append((row[1], request.write))
    stamped.sort(key=lambda pair: pair[0])
    return [write for _, write in stamped]


def final_facts(writes: Sequence[tuple[str, str, str]]) -> dict[str, list[str]]:
    told: dict[tuple[str, str], int] = {}
    for op, view, rules in writes:
        told[(view, rules)] = told.get((view, rules), 0) + (1 if op == "tell" else -1)
    facts: dict[str, list[str]] = {}
    for (view, rules), copies in sorted(told.items()):
        facts.setdefault(view, []).extend([rules] * copies)
    return facts


def probe_oracle(writes: Sequence[tuple[str, str, str]]) -> dict[tuple[str, str], list[str]]:
    """The probe answers by naive ``V`` iteration over the base program plus
    exactly the facts the acked writes leave told — no server, no
    maintenance engine, no dense kernel."""
    base = session_program(DEPTH, ENTITIES)
    facts = final_facts(writes)
    program = OrderedProgram(
        [
            Component(c.name, [*c.rules, *parse_rules("\n".join(facts.get(c.name, ())))])
            for c in base.components()
        ],
        base.order.pairs(),
    )
    out = {}
    for level in range(DEPTH):
        view = f"level{level}"
        model = OrderedSemantics(program, view, strategy="naive").least_model
        for pred in PATTERNS:
            pattern = f"{pred}(X)"
            out[(view, pattern)] = sorted(str(a.literal) for a in answers_in(model, pattern))
    return out


async def converge(leader_port: int, follower_port: int, timeout: float = 30.0) -> float:
    """Seconds until the follower's version equals the leader's."""
    leader = await Connection.open(leader_port)
    follower = await Connection.open(follower_port)
    try:
        t0 = time.perf_counter()
        want = (await leader.call({"id": "v", "op": "health"}))["version"]
        while True:
            have = (await follower.call({"id": "v", "op": "health"}))["version"]
            if have >= want:
                return time.perf_counter() - t0
            if time.perf_counter() - t0 > timeout:
                return float("inf")
            await asyncio.sleep(0.001)
    finally:
        await leader.close()
        await follower.close()


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    with scratch_dir() as tmp_name, ExitStack() as stack:
        return _run(stack, Path(tmp_name), name, seed, seconds, trace, quick)


def _run(stack: ExitStack, tmp: Path, name: str, seed: int, seconds: float,
         trace: bool, quick: bool) -> dict:
    pin(0, SERVING_CPU)
    setup_times = []
    deployment = None
    repeats = 1 if quick else SETUP_REPEATS
    for rep in range(repeats):
        if deployment is not None:
            deployment.follower.stop()
            deployment.leader.stop()
        t0 = time.perf_counter()
        deployment = deploy(stack, tmp, str(rep))
        wall = time.perf_counter() - t0
        setup_times.append(wall / boot_slowdown(deployment.leader, deployment.follower))
    leader, follower = deployment.leader, deployment.follower

    streams = [SessionStream(seed, i, WRITE_EVERY[name]) for i in range(CLIENTS)]
    phases = window_phases(seconds, trace)
    observed = {"leader": leader, "follower": follower}
    logs, boundaries = asyncio.run(drive(leader, observed, streams, phases))

    main = summarize(logs, phases, boundaries, 1)
    attempted, failed = main.attempted, main.failed
    mismatches: list[str] = []
    if trace:
        traced = summarize(logs, phases, boundaries, 2)
        attempted += traced.attempted
        failed += traced.failed

    # Oracle: the same probes on leader, follower, restarted leader and a
    # naive in-process evaluation of the acked prefix.
    converge_s = asyncio.run(converge(leader.port, follower.port))
    writes = acked_writes(logs)
    answers = {
        "leader": asyncio.run(probe_server(leader.port)),
        "follower": asyncio.run(probe_server(follower.port)),
    }
    rss = peak_rss_mb(leader.pid)
    follower_stats = boundaries[-1].stats["follower"]
    follower.stop()
    leader.stop()
    restarted = spawn(stack, leader_args(None, deployment.wal_dir), tmp / "restarted.log")
    answers["restarted"] = asyncio.run(probe_server(restarted.port))
    restarted.stop()
    want = probe_oracle(writes)
    for where, got in answers.items():
        for key in probe_keys():
            attempted += 1
            if got[key] != want[key]:
                failed += 1
                mismatches.append(
                    f"{where} {key[0]} {key[1]}: {len(got[key])} answers, "
                    f"oracle has {len(want[key])}"
                )
    if converge_s == float("inf"):
        attempted += 1
        failed += 1
        mismatches.append("follower never reached the leader's version")
        converge_s = 0.0

    values: dict[str, float] = {
        "setup_s": median(setup_times),
        "throughput_ops_s": main.throughput_ops_s,
        "read_p50_ms": main.read_p50_ms,
        "peak_rss_mb": rss,
    }
    detail: dict = {
        "mismatches": mismatches,
        "samples": {"reads": len(main.reads), "writes": len(main.writes)},
        "host_slowdown": main.host_slowdown,
        "latency_ms": main.latency_values(),
        "per_second": main.per_second,
        "round_seconds": main.round_seconds,
        "round_slowdowns": main.round_slowdowns,
        "notes": [
            *main.notes(),
            f"acked writes {len(writes)}; follower converged in {converge_s * 1000:.1f} ms; "
            f"leader recovered from WAL in {restarted.boot_s:.3f} s",
        ],
    }
    if trace:
        values.update(_layer_metrics(tmp, logs, boundaries, main, traced, writes,
                                     converge_s, restarted.boot_s, follower_stats, detail))
    return {
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "detail": detail,
        "fsync": FSYNC,
    }


def _layer_metrics(tmp, logs, boundaries, main, traced, writes, converge_s, recover_s,
                   follower_stats, detail) -> dict[str, float]:
    values = client_values(main, traced, boundaries)

    # Span trees of the traced half, by span name.
    self_ms: dict[str, list[float]] = {}
    full_ms: dict[str, list[float]] = {}
    read_roots: list[float] = []
    costs: dict[str, float] = {}
    traced_writes = 0
    for log in logs:
        for kind, trace_obj in log.traces:
            tree = trace_obj["spans"]
            span_self_times(tree, self_ms)
            span_durations(tree, full_ms)
            if kind == READ:
                read_roots.append(tree["duration_ms"])
            else:
                traced_writes += 1
                for key, amount in trace_obj.get("costs", {}).items():
                    costs[key] = costs.get(key, 0.0) + amount
    values["server.engine.read_ms"] = median(read_roots)
    for span, metric in (("queue.wait", "queue_wait_ms"), ("coalesce", "coalesce_ms"),
                         ("apply", "apply_ms"), ("publish", "publish_ms")):
        values[f"server.engine.{metric}"] = median(full_ms.get(span, ()))
    values["server.service.rtt_overhead_ms"] = (
        median(traced.reads) * 1000.0 - values["server.engine.read_ms"]
    )

    # ``stats`` deltas over the untraced half.
    before, after = boundaries[1].stats["leader"], boundaries[2].stats["leader"]
    acked = after["writes"]["ops"] - before["writes"]["ops"]
    versions = after["version"] - before["version"]
    values["server.engine.batch_size_mean"] = ratio(acked, versions)
    shed = sum(
        after["errors"].get(code, 0) - before["errors"].get(code, 0)
        for code in ("overloaded", "timeout")
    )
    values["server.engine.shed"] = shed
    values["server.engine.cpu_busy_ratio"] = busy_ratio(boundaries, 1, 2, "leader")
    values["follower.cpu_busy_ratio"] = busy_ratio(boundaries, 1, 2, "follower")
    wal_before, wal_after = before["wal"], after["wal"]
    values["server.wal.bytes_per_write"] = ratio(wal_after["bytes"] - wal_before["bytes"], acked)
    values["server.wal.fsyncs_per_write"] = ratio(
        wal_after["fsyncs"] - wal_before["fsyncs"], acked
    )
    values["server.wal.checkpoints"] = wal_after["checkpoints"] - wal_before["checkpoints"]
    values["server.wal.recover_s"] = recover_s
    values["server.replica.converge_ms"] = converge_s * 1000.0
    values["server.replica.resets"] = follower_stats["replica"]["resets"]

    # In-process probes over what the run itself sent and received.
    values.update(probes.maintenance(DEPTH, ENTITIES, writes))
    values.update(probes.protocol(logs))
    values.update(probes.wal_append(tmp / "wal-probe", FSYNC, writes))

    detail["spans"] = {
        "self_ms": {name: _spread(samples) for name, samples in sorted(self_ms.items())},
        "duration_ms": {name: _spread(samples) for name, samples in sorted(full_ms.items())},
        "write_costs_per_write": {
            key: ratio(amount, traced_writes) for key, amount in sorted(costs.items())
        },
        "sample": [trace_obj for log in logs for _, trace_obj in log.traces[:50]],
    }
    return values


def _spread(samples: Sequence[float]) -> dict[str, float]:
    return {
        "count": len(samples),
        "p50": percentile(samples, 0.50),
        "p95": percentile(samples, 0.95),
        "sum": sum(samples),
    }
