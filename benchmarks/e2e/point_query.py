"""Workload ``point_query``: demand-driven point queries over a disk EDB.

Deployment: one ``olp serve rules.olp --edb forest.edb`` (no WAL, no
follower).  The store holds ``N_TREES`` disjoint ownership trees built in
set-up — far more than the process caches per request — while each goal's
cone is one tree of seven nodes.  100 % reads with ``"strategy":
"demand"``: two bindings goals ``ancestor(n<i>_0, X)`` to each ground goal
``owns(p<i>, n<i>_6)``, over uniformly random trees.

``query.magic`` + ``query.engine`` + ``db.edb`` do the work; grounder,
dense kernel, maintenance and WAL are bypassed, so the prediction for a
grounder, kernel or WAL change is *no change* here.

Oracle: the subtree below a root is arithmetic in ``(i, depth)``.
"""

from __future__ import annotations

import asyncio
import random
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Optional

from repro.db.edb import EdbStore
from repro.lang.printer import render_program
from repro.lang.terms import Constant
from repro.workloads import load_forest_edb
from repro.workloads.point_query import forest_rules

from . import probes
from .common import SERVING_CPU, median, peak_rss_mb, pin, ratio, scratch_dir
from .harness import (
    CLIENTS,
    READ,
    Connection,
    Request,
    ServerProc,
    boot_slowdown,
    busy_ratio,
    client_values,
    drive,
    span_durations,
    spawn,
    summarize,
    window_phases,
)

N_TREES = 10_000
N_TREES_QUICK = 2_000
DEPTH = 3
N_NODES = 2**DEPTH - 1

#: Replies after which the server's peak RSS is read.  Its term cache grows
#: with the distinct trees visited and doubles its table in steps of up to
#: 5 MB (at 3,480 and 6,620 trees), so memory at the end of a *timed* window
#: says how many requests the run got through: 54 or 60 MB.
RSS_AFTER = 6_000
RSS_AFTER_QUICK = 600

#: Set-ups (EDB bulk load, server boot, first query) timed per run.
SETUP_REPEATS = 5


class PointStream:
    """Two bindings goals, then a ground goal, over random trees.

    Not one and one: a bindings goal costs twice a ground one, and the
    median of an even mix of the two sits in the gap between them, where it
    moves by half with nothing changed.  At two to one it is a bindings goal.
    """

    def __init__(self, seed: int, client: int, n_trees: int,
                 server_pid: int, rss_after: int) -> None:
        self.rng = random.Random(f"{seed}:point:{client}")
        self.client = client
        self.n_trees = n_trees
        self.count = 0
        self.trees: list[int] = []
        self.server_pid = server_pid
        self.rss_after = rss_after
        #: The server's ``VmHWM`` when request ``rss_after`` was generated.
        self.rss_mb: Optional[float] = None

    def next(self) -> Request:
        if self.count == self.rss_after:
            self.rss_mb = peak_rss_mb(self.server_pid)
        rid = f"c{self.client}-{self.count}"
        tree = self.rng.randrange(self.n_trees)
        self.trees.append(tree)
        if self.count % 3 != 2:
            op, pattern = "query", f"ancestor(n{tree}_0, X)"
            expect = frozenset(f"n{tree}_{j}" for j in range(1, N_NODES))
        else:
            op, pattern = "ask", f"owns(p{tree}, n{tree}_{N_NODES - 1})"
            expect = True
        self.count += 1
        prefix = (
            f'{{"id":"{rid}","op":"{op}","view":"main","pattern":"{pattern}",'
            f'"strategy":"demand"'
        ).encode()
        return Request(prefix, READ, rid, expect)

    def check(self, request: Request, reply: dict) -> bool:
        result = reply["result"]
        if request.expect is True:
            return result["holds"] is True
        return (
            result["count"] == len(request.expect)
            and {a["bindings"]["X"] for a in result["answers"]} == request.expect
        )


async def _first_queries(port: int) -> None:
    conn = await Connection.open(port)
    try:
        await conn.result({"id": "warm", "op": "query", "view": "main",
                           "pattern": "ancestor(n0_0, X)", "strategy": "demand"})
        await conn.result({"id": "warm", "op": "ask", "view": "main",
                           "pattern": f"owns(p0, n0_{N_NODES - 1})", "strategy": "demand"})
    finally:
        await conn.close()


def deploy(stack: ExitStack, tmp: Path, tag: str, n_trees: int) -> tuple[ServerProc, Path]:
    edb_path = tmp / f"forest-{tag}.edb"
    with EdbStore(str(edb_path)) as store:
        program = load_forest_edb(store, n_trees, depth=DEPTH)
    rules_path = tmp / f"rules-{tag}.olp"
    rules_path.write_text(render_program(program))
    server = spawn(stack, [str(rules_path), "--edb", str(edb_path)], tmp / f"server-{tag}.log")
    asyncio.run(_first_queries(server.port))
    return server, edb_path


def run(seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    with scratch_dir() as tmp_name, ExitStack() as stack:
        return _run(stack, Path(tmp_name), seed, seconds, trace, quick)


def _run(stack: ExitStack, tmp: Path, seed: int, seconds: float, trace: bool,
         quick: bool) -> dict:
    pin(0, SERVING_CPU)
    n_trees = N_TREES_QUICK if quick else N_TREES
    setup_times = []
    server = edb_path = None
    for rep in range(1 if quick else SETUP_REPEATS):
        if server is not None:
            server.stop()
            edb_path.unlink()
        t0 = time.perf_counter()
        server, edb_path = deploy(stack, tmp, str(rep), n_trees)
        setup_times.append((time.perf_counter() - t0) / boot_slowdown(server))

    rss_after = RSS_AFTER_QUICK if quick else RSS_AFTER
    streams = [PointStream(seed, i, n_trees, server.pid, rss_after) for i in range(CLIENTS)]
    phases = window_phases(seconds, trace)
    logs, boundaries = asyncio.run(drive(server, {"server": server}, streams, phases))
    # A run too slow to get that far reads the peak it did reach.
    rss = streams[0].rss_mb or peak_rss_mb(server.pid)
    server.stop()

    main = summarize(logs, phases, boundaries, 1)
    attempted, failed = main.attempted, main.failed
    if trace:
        traced = summarize(logs, phases, boundaries, 2)
        attempted += traced.attempted
        failed += traced.failed

    values: dict[str, float] = {
        "setup_s": median(setup_times),
        "throughput_ops_s": main.throughput_ops_s,
        "read_p50_ms": main.read_p50_ms,
        "peak_rss_mb": rss,
    }
    detail: dict = {
        "mismatches": [f"{failed} replies did not match the arithmetic subtree"] if failed else [],
        "samples": {"reads": len(main.reads)},
        "host_slowdown": main.host_slowdown,
        "latency_ms": main.latency_values(),
        "per_second": main.per_second,
        "round_seconds": main.round_seconds,
        "round_slowdowns": main.round_slowdowns,
        "notes": [
            *main.notes(),
            f"peak RSS read at request {rss_after}; "
            f"EDB {n_trees} trees = {n_trees * N_NODES} facts, "
            f"{edb_path.stat().st_size / 1e6:.1f} MB",
        ],
    }
    if trace:
        values.update(_layer_metrics(logs, boundaries, main, traced, streams, edb_path, detail))
    return {
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "detail": detail,
        "fsync": None,
    }


def _layer_metrics(logs, boundaries, main, traced, streams, edb_path, detail) -> dict[str, float]:
    values = client_values(main, traced, boundaries)
    values["server.engine.cpu_busy_ratio"] = busy_ratio(boundaries, 1, 2, "server")

    full_ms: dict[str, list[float]] = {}
    roots: list[float] = []
    served = fallbacks = fetched = answers = 0
    for log in logs:
        for _, trace_obj in log.traces:
            tree = trace_obj["spans"]
            spans: dict[str, list[float]] = {}
            span_durations(tree, spans)
            for name, samples in spans.items():
                full_ms.setdefault(name, []).extend(samples)
            roots.append(tree["duration_ms"])
            if "query.demand" in spans:
                served += 1
            else:
                fallbacks += 1
            fetched += trace_obj.get("costs", {}).get("demand_fetched", 0)
    # Answers returned by the traced replies: 6 per bindings goal, 1 per ground goal.
    for log in logs:
        for row, request in zip(log.rows, log.sent):
            if row[0] == 2 and row[4]:
                answers += 1 if request.expect is True else len(request.expect)
    values["server.engine.read_ms"] = median(roots)
    values["server.service.rtt_overhead_ms"] = (
        median(traced.reads) * 1000.0 - values["server.engine.read_ms"]
    )
    values["query.engine.eval_ms"] = median(full_ms.get("query.demand", ()))
    values["query.demand.served"] = served
    values["query.demand.fallbacks"] = fallbacks
    values["db.edb.rows_fetched_per_answer"] = ratio(fetched, answers)
    values.update(probes.protocol(logs))

    sample_trees = [tree for stream in streams for tree in stream.trees[:500]]
    goals = ["ancestor(n0_0, X)", f"owns(p0, n0_{N_NODES - 1})"]
    values["query.magic.rewrite_ms"] = probes.magic_rewrite(
        forest_rules(), frozenset({"parent", "owner"}), goals
    )
    patterns = [("parent", (Constant(f"n{tree}_0"), None)) for tree in sample_trees]
    patterns += [("owner", (Constant(f"p{tree}"), None)) for tree in sample_trees]
    values["db.edb.fetch_ms"] = probes.edb_fetch(edb_path, patterns)
    detail["spans"] = {
        "duration_ms_p50": {name: median(samples) for name, samples in sorted(full_ms.items())},
        "sample": [trace_obj for log in logs for _, trace_obj in log.traces[:50]],
    }
    return values
