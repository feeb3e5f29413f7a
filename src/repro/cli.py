"""Command-line interface: run ``.olp`` programs under any semantics.

Installed as ``olp`` (also ``python -m repro``).  Subcommands:

* ``olp run FILE -c COMPONENT`` — print the least model; ``--semantics``
  selects stable / assumption-free / all-models enumeration instead.
* ``olp query FILE -c COMPONENT -q 'fly(X)'`` — answer a literal
  pattern under cautious / skeptical / credulous entailment.
* ``olp explain FILE -c COMPONENT`` — Definition-2 status of every
  ground rule under the least model, plus the conflict summary.
* ``olp stats FILE`` — structural statistics of the program.
* ``olp check FILE...`` — static analysis: safety, undefined predicates,
  arity clashes, defeat traps, stratification classification and more
  (``docs/analysis.md``); ``--max-severity`` controls the exit code.
* ``olp profile FILE -c COMPONENT`` — run with instrumentation on and
  print a per-phase timing / counter breakdown.
* ``olp serve [FILE]`` — serve queries and mutations over TCP with
  snapshot-isolated reads and a single-writer delta pipeline
  (``docs/server.md``); ``--metrics-port`` adds a Prometheus
  ``/metrics`` + ``/healthz`` HTTP sidecar, ``--slow-ms`` a slow-query
  log.
* ``olp top HOST:PORT`` — poll a running server: qps, latency
  percentiles, queue depth, snapshot age, per-view refresh cost.
* ``olp slow HOST:PORT`` — dump a running server's slow-query log
  (span trees and engine cost digests).

Observability flags (every subcommand): ``-v`` / ``-vv`` stream INFO /
DEBUG events to stderr, ``--quiet`` silences events entirely,
``--events-jsonl PATH`` appends the event stream as JSON lines, and
``--metrics`` (run / query) prints a metrics report after the result.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .analysis.conflicts import conflict_summary
from .analysis.stats import program_stats
from .core.semantics import OrderedSemantics
from .core.transform import DEFAULT_STRATEGY, STRATEGIES
from .grounding.grounder import GroundingOptions
from .kb.knowledge_base import OPS, READ, KnowledgeBase, ops_of
from .kb.query import MODES
from .lang.errors import ReproError
from .lang.parser import parse_program
from .lang.program import OrderedProgram
from .obs import (
    JsonLinesSink,
    Level,
    Sink,
    TextSink,
    get_instrumentation,
    instrumented,
    render_report,
)

__all__ = ["main", "build_parser"]

#: ``--semantics``: the ``OrderedSemantics`` attribute each name reads —
#: the least model, or an enumeration (``olp profile`` takes the first four).
SEMANTICS = {
    "least": "least_model", "stable": "stable_models", "af": "assumption_free_models",
    "models": "models", "total": "total_models", "exhaustive": "exhaustive_models",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olp",
        description="Ordered logic programming (Laenens, Sacca & Vermeir, SIGMOD 1990)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compute the meaning of a component")
    _add_common(run)
    run.add_argument(
        "--semantics",
        choices=list(SEMANTICS),
        default="least",
        help="which models to compute (default: the least model)",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit the result as JSON (see repro.serialize for the schema)",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="print an instrumentation report after the result",
    )
    run.add_argument(
        "--strategy",
        choices=list(STRATEGIES),
        default=DEFAULT_STRATEGY,
        help="fixpoint engine: 'seminaive' (default) the semi-naive "
        "kernel, 'naive' the reference iteration of V",
    )

    query = sub.add_parser("query", help=OPS["query"].help)
    _add_common(query)
    query.add_argument("-q", "--query", required=True, help="literal pattern, e.g. 'fly(X)'")
    query.add_argument("--mode", choices=MODES, default=MODES[0])
    query.add_argument(
        "--metrics",
        action="store_true",
        help="print an instrumentation report after the result",
    )

    explain = sub.add_parser(
        "explain", help="rule statuses under the least model + conflicts"
    )
    _add_common(explain)

    why = sub.add_parser("why", help=OPS["explain"].help)
    _add_common(why)
    why.add_argument("-q", "--query", required=True, help="ground literal")

    stats = sub.add_parser("stats", help="structural program statistics")
    stats.add_argument("file", help="path to an .olp file")
    _add_output_flags(stats)

    lint = sub.add_parser(
        "lint",
        help="find conclusions that can never fire (closure gaps)",
    )
    lint.add_argument("file", help="path to an .olp file")
    lint.add_argument(
        "-c",
        "--component",
        default=None,
        help="lint a single component view (default: every view)",
    )
    lint.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="Herbrand-universe depth bound (needed with function symbols)",
    )
    _add_output_flags(lint)

    check = sub.add_parser(
        "check",
        help="static analysis over the non-ground program (no solving): "
        "safety, undefined predicates, arity clashes, defeat traps, "
        "stratification",
    )
    check.add_argument("files", nargs="+", help="paths to .olp files")
    check.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON report per file",
    )
    check.add_argument(
        "--sarif",
        action="store_true",
        help="emit one SARIF 2.1.0 log covering every file (for code "
        "review tooling; mutually exclusive with --json)",
    )
    check.add_argument(
        "--facts",
        action="store_true",
        help="also print the abstract interpretation's inferred "
        "types/modes/cardinalities per file (text output only)",
    )
    check.add_argument(
        "--max-severity",
        choices=["info", "warning", "error"],
        default="info",
        help="highest severity that still exits 0 (default: info — any "
        "warning or error fails the check)",
    )
    check.add_argument(
        "--metrics",
        action="store_true",
        help="print an instrumentation report after the result",
    )
    _add_output_flags(check)

    profile = sub.add_parser(
        "profile",
        help="run a program with instrumentation on; print the per-phase "
        "timing and counter breakdown",
    )
    _add_common(profile)
    profile.add_argument(
        "--semantics",
        choices=list(SEMANTICS)[:4],
        default="least",
        help="how far to take the run (default: ground + least model)",
    )
    profile.add_argument(
        "--json",
        action="store_true",
        help="emit the metrics snapshot as JSON",
    )

    repl = sub.add_parser("repl", help="interactive ordered-logic shell")
    repl.add_argument("file", nargs="?", default=None, help="optional .olp to load")
    _add_output_flags(repl)

    serve = sub.add_parser(
        "serve",
        help="serve queries and mutations over TCP (newline-delimited "
        "JSON; see docs/server.md)",
    )
    serve.add_argument(
        "file",
        nargs="?",
        default=None,
        help="optional .olp program to preload as the knowledge base",
    )
    serve.add_argument(
        "--restore",
        metavar="PATH",
        default=None,
        help="restore the knowledge base from a serialized snapshot "
        "(repro.serialize.dumps_kb JSON) instead of an .olp file",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7411)
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="bound of the write queue; a full queue sheds writes with "
        "an 'overloaded' reply (default: 256)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="most write requests coalesced into one published snapshot "
        "version (default: 64)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline; requests not started before "
        "it expires are shed with a 'timeout' reply",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve Prometheus /metrics and /healthz over HTTP on "
        "this port (0 picks a free one)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="record requests at or above MS milliseconds (span tree + "
        "engine cost digest) in the slow-query log served by 'olp slow'",
    )
    serve.add_argument(
        "--wal",
        metavar="DIR",
        default=None,
        help="durable write-ahead log directory: boot recovers the KB "
        "from the newest checkpoint + journal replay, every published "
        "version is journaled, and followers can subscribe "
        "(docs/replication.md)",
    )
    serve.add_argument(
        "--wal-fsync",
        choices=["always", "batch", "never"],
        default="always",
        help="journal durability: 'always' fsyncs each published batch "
        "before acking (default), 'batch' group-commits on an interval, "
        "'never' leaves flushing to the OS",
    )
    serve.add_argument(
        "--segment-bytes",
        type=int,
        default=64 * 1024 * 1024,
        metavar="N",
        help="rotate journal segments at N bytes (default: 64 MiB)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=256,
        metavar="N",
        help="checkpoint the KB and truncate sealed segments every N "
        "versions; 0 disables periodic checkpoints (default: 256)",
    )
    serve.add_argument(
        "--edb",
        metavar="PATH",
        default=None,
        help="attach a disk-backed EDB store (SQLite, built with "
        "repro.db.EdbStore) as the extensional fact base of the view "
        "it names; demand queries fetch only the tuples they need "
        "(docs/query.md)",
    )
    serve.add_argument(
        "--follow",
        metavar="HOST:PORT",
        default=None,
        help="run as a read-only follower tailing this leader's "
        "subscribe stream (writes are rejected with 'not_leader')",
    )
    serve.add_argument(
        "--views",
        metavar="V1,V2",
        default=None,
        help="with --follow: subscribe to this view subset only "
        "(comma-separated object names)",
    )
    serve.add_argument(
        "--fleet",
        action="store_true",
        help="run the fleet front tier: fan reads across --follower "
        "backends, route writes to --leader",
    )
    serve.add_argument(
        "--leader",
        metavar="HOST:PORT",
        default=None,
        help="with --fleet: the write backend",
    )
    serve.add_argument(
        "--follower",
        metavar="HOST:PORT[=V1,V2]",
        action="append",
        default=None,
        help="with --fleet: a read backend, repeatable; '=V1,V2' marks "
        "a view-subset follower that only serves those views",
    )
    _add_output_flags(serve)

    top = sub.add_parser(
        "top",
        help="poll a running server's stats: qps, latency percentiles, "
        "queue depth, snapshot age, per-view refresh cost",
    )
    top.add_argument("address", help="server address, host:port")
    top.add_argument(
        "-i",
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (default: 2)",
    )
    top.add_argument(
        "-n",
        "--count",
        type=int,
        default=None,
        help="stop after N polls (default: run until interrupted)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of redrawing the screen",
    )
    _add_output_flags(top)

    slow = sub.add_parser(
        "slow",
        help="dump a running server's slow-query log (requires "
        "'olp serve --slow-ms')",
    )
    slow.add_argument("address", help="server address, host:port")
    slow.add_argument(
        "--json",
        action="store_true",
        help="emit the raw slow-log entries as JSON",
    )
    _add_output_flags(slow)
    return parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", help="path to an .olp file")
    sub.add_argument(
        "-c",
        "--component",
        default=None,
        help="component whose point of view to take (default: the unique "
        "minimal component)",
    )
    sub.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="Herbrand-universe depth bound (needed with function symbols)",
    )
    _add_output_flags(sub)


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="stream engine events to stderr (-v: INFO, -vv: DEBUG)",
    )
    sub.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the event stream entirely",
    )
    sub.add_argument(
        "--events-jsonl",
        metavar="PATH",
        default=None,
        help="append structured events to PATH, one JSON object per line",
    )


def _load(path: str) -> OrderedProgram:
    with open(path) as handle:
        return parse_program(handle.read())


def _pick_component(program: OrderedProgram, requested: Optional[str]) -> str:
    if requested is not None:
        return requested
    minimal = sorted(program.order.minimal_elements())
    if len(minimal) == 1:
        return minimal[0]
    raise ReproError(
        f"program has several minimal components {minimal}; pick one with -c"
    )


def _session(args: argparse.Namespace) -> tuple[KnowledgeBase, str]:
    """The file as a knowledge base, and the component to read it at."""
    program = _load(args.file)
    component = _pick_component(program, args.component)
    kb = KnowledgeBase.from_program(
        program, grounding=GroundingOptions(max_depth=args.max_depth)
    )
    return kb, component


def _semantics(args: argparse.Namespace) -> OrderedSemantics:
    kb, component = _session(args)
    return kb.view(component)


def _print_metrics(args: argparse.Namespace) -> None:
    if getattr(args, "metrics", False):
        print(render_report(get_instrumentation().snapshot()))


def _cmd_run(args: argparse.Namespace) -> int:
    sem = _semantics(args)
    if args.semantics == "least":
        if args.strategy == DEFAULT_STRATEGY:
            models = [sem.least_model]
        else:
            models = [sem.transform.least_fixpoint(strategy=args.strategy)]
    else:
        models = getattr(sem, SEMANTICS[args.semantics])()
    if args.json:
        from .serialize import interpretation_to_dict

        payload = {
            "component": sem.component,
            "semantics": args.semantics,
            "models": [interpretation_to_dict(m) for m in models],
        }
        if args.metrics:
            payload["metrics"] = get_instrumentation().snapshot()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.semantics == "least":
        model = models[0]
        print(f"least model of component {sem.component}:")
        for literal in sorted(model):
            print(f"  {literal}")
        undefined = sorted(map(str, model.undefined_atoms()))
        if undefined:
            print(f"undefined: {', '.join(undefined)}")
        _print_metrics(args)
        return 0
    print(f"{len(models)} {args.semantics} model(s) of component {sem.component}:")
    for i, model in enumerate(models):
        print(f"  [{i}] {model}")
    _print_metrics(args)
    return 0


def _cmd_read(args: argparse.Namespace) -> int:
    """``olp query`` / ``olp why``: one ``query`` / ``explain`` op,
    answered by the knowledge base's read dispatch and printed as the
    REPL prints it; a query without an answer exits 1."""
    from .repl import render_read

    kb, component = _session(args)
    op = {
        "op": "query" if args.command == "query" else "explain",
        "view": component,
        "pattern": args.query,
        "mode": getattr(args, "mode", MODES[0]),
    }
    result = kb.answer(op)
    print(render_read(op, result))
    _print_metrics(args)
    return 1 if result.get("count") == 0 else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    obs = get_instrumentation()
    with obs.span("profile", file=args.file, semantics=args.semantics):
        with obs.span("parse"):
            program = _load(args.file)
        component = _pick_component(program, args.component)
        sem = KnowledgeBase.from_program(
            program, grounding=GroundingOptions(max_depth=args.max_depth)
        ).view(component)
        _ = sem.ground  # grounding phase (span "ground")
        model = sem.least_model  # fixpoint phase
        counts = {"least": len(model.literals)}
        if args.semantics != "least":
            counts[args.semantics] = len(getattr(sem, SEMANTICS[args.semantics])())
    snapshot = obs.snapshot()
    if args.json:
        payload = {
            "file": args.file,
            "component": component,
            "semantics": args.semantics,
            "results": counts,
            "metrics": snapshot,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"profile of {args.file} (component {component}, "
        f"semantics {args.semantics}):"
    )
    for name, value in counts.items():
        label = "literals in least model" if name == "least" else f"{name} model(s)"
        print(f"  {value} {label}")
    print(render_report(snapshot, title="per-phase breakdown"))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .analysis.hasse import render_hasse

    sem = _semantics(args)
    print("component hierarchy (most general on top):")
    print(render_hasse(sem.program))
    print()
    print(sem.describe())
    print("rule statuses under the least model:")
    for report in sem.statuses():
        print(f"  {report}")
    summary = conflict_summary(sem)
    print(
        f"conflicts: {summary['overrule']} overruling pair(s), "
        f"{summary['defeat']} defeating pair(s)"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    program = _load(args.file)
    print(program_stats(program))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.lint import lint_program

    program = _load(args.file)
    findings = lint_program(
        program,
        component=args.component,
        grounding=GroundingOptions(max_depth=args.max_depth),
    )
    if not findings:
        print("no findings")
        return 0
    for warning in findings:
        print(warning)
        print()
    print(f"{len(findings)} finding(s)")
    return 1


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis.static import Severity, analyze_program

    if args.json and args.sarif:
        raise ReproError("--json and --sarif are mutually exclusive")
    gate = Severity.parse(args.max_severity)
    payloads = []
    reports = []
    failed = False
    for path in args.files:
        program = _load(path)
        report = analyze_program(program)
        gating = report.gating(gate)
        if gating:
            failed = True
        if args.sarif:
            reports.append((path, report))
        elif args.json:
            payload = report.to_dict()
            payload["file"] = path
            payload["gating"] = len(gating)
            payloads.append(payload)
        else:
            print(f"{path}:")
            print(report.render())
            if args.facts and report.abstract is not None:
                print("  inferred facts:")
                for line in report.abstract.render().splitlines():
                    print(f"  {line}")
            if gating:
                print(
                    f"  FAIL: {len(gating)} diagnostic(s) above "
                    f"--max-severity={args.max_severity}"
                )
    if args.sarif:
        from .analysis.sarif import sarif_log

        print(json.dumps(sarif_log(reports), indent=2, sort_keys=True))
    elif args.json:
        print(json.dumps(payloads, indent=2, sort_keys=True))
    _print_metrics(args)
    return 1 if failed else 0


def _cmd_repl(args: argparse.Namespace) -> int:
    from .repl import run

    return run(args.file)


def _seed_kb(args: argparse.Namespace) -> KnowledgeBase:
    """The knowledge base ``olp serve`` starts from: the ``--restore``
    dump, the .olp file, or an empty one."""
    if args.restore is not None:
        from .serialize import loads_kb

        with open(args.restore) as handle:
            return loads_kb(handle.read())
    if args.file is not None:
        return KnowledgeBase.from_program(_load(args.file))
    return KnowledgeBase()


def _cmd_serve(args: argparse.Namespace) -> int:
    from .server import ServerConfig, run_server

    config = ServerConfig(
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        default_deadline_ms=args.deadline_ms,
        slow_ms=args.slow_ms,
    )

    if args.fleet:
        from .server import parse_backend, run_fleet

        if args.edb is not None:
            raise ReproError("--edb applies to the serving backend, not --fleet")
        if args.leader is None:
            raise ReproError("--fleet requires --leader HOST:PORT")
        try:
            leader = parse_backend(args.leader)
            followers = [parse_backend(spec) for spec in (args.follower or [])]
        except ValueError as error:
            raise ReproError(str(error)) from error
        return _serve_until_interrupted(
            run_fleet(leader, followers, host=args.host, port=args.port)
        )

    if args.follow is not None:
        from .server import run_follower

        if args.edb is not None:
            raise ReproError(
                "--edb applies to the leader; followers replicate its journal"
            )

        leader_host, leader_port = _parse_address(args.follow)
        views = (
            tuple(v for v in args.views.split(",") if v)
            if args.views is not None
            else None
        )
        return _serve_until_interrupted(
            run_follower(
                leader_host,
                leader_port,
                host=args.host,
                port=args.port,
                config=config,
                views=views,
                metrics_port=args.metrics_port,
            )
        )

    if args.file is not None and args.restore is not None:
        raise ReproError("pass an .olp file or --restore, not both")
    wal = None
    initial_version = 0
    if args.wal is not None:
        from .server import Wal

        wal = Wal(
            args.wal,
            fsync=args.wal_fsync,
            segment_bytes=args.segment_bytes,
            checkpoint_every=args.checkpoint_every or None,
        )
        kb, initial_version = wal.recover()
        print(
            f"olp serve: recovered version {initial_version} from {args.wal} "
            f"(checkpoint {wal.checkpoint_version}, "
            f"replayed {wal.replayed} journal records)",
            flush=True,
        )
        if args.file is not None or args.restore is not None:
            if initial_version:
                raise ReproError(
                    "--wal directory already holds state; "
                    "drop the .olp/--restore seed or point --wal elsewhere"
                )
            # Seed a fresh WAL directory from the given program/dump.
            kb = _seed_kb(args)
            wal.checkpoint(kb, 0)
    else:
        kb = _seed_kb(args)
    if args.edb is not None:
        from .db.edb import EdbStore

        store = EdbStore(args.edb)
        target = store.object_name
        if target == "edb" and target not in kb.objects:
            # A store built without an explicit object name lands on the
            # program's sole object (the common
            # `olp serve rules.olp --edb facts.edb` case).
            objects = sorted(kb.objects)
            if len(objects) == 1:
                target = objects[0]
        kb.attach_edb(target, store)
        print(
            f"olp serve: attached EDB {args.edb} to view {target!r} "
            f"({store.total_facts()} facts, {len(list(store.names()))} relations)",
            flush=True,
        )
    return _serve_until_interrupted(
        run_server(
            kb,
            host=args.host,
            port=args.port,
            config=config,
            metrics_port=args.metrics_port,
            wal=wal,
            initial_version=initial_version,
        )
    )


def _serve_until_interrupted(role) -> int:
    """Run one ``olp serve`` role to its drain; Ctrl-C exits 130."""
    import asyncio

    try:
        asyncio.run(role)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("olp serve: interrupted", file=sys.stderr)
        return 130
    return 0


def _parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"expected host:port, got {address!r}")
    return host, int(port)


def _ndjson_request(host: str, port: int, payload: dict, timeout: float = 5.0) -> dict:
    """One request/one reply over a fresh NDJSON connection."""
    import socket

    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    reply = json.loads(buf.decode("utf-8"))
    if not reply.get("ok"):
        error = reply.get("error", {})
        raise ReproError(
            f"server error [{error.get('code')}]: {error.get('message')}"
        )
    return reply


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.2f}ms"


def _render_top_frame(
    stats: dict, prev: Optional[dict], interval: float, address: str
) -> str:
    lines = [
        f"olp top {address} — version {stats['version']}, "
        f"uptime {stats['uptime_s']:.1f}s, "
        f"queue {stats['queue_depth']}, "
        f"draining {'yes' if stats['draining'] else 'no'}"
    ]
    if prev is not None and interval > 0:
        reads_now = sum(stats["requests"].get(op, 0) for op in ops_of(READ))
        reads_before = sum(prev["requests"].get(op, 0) for op in ops_of(READ))
        writes_now = stats["writes"]["ops"]
        writes_before = prev["writes"]["ops"]
        lines.append(
            f"  qps: read {(reads_now - reads_before) / interval:.1f} "
            f"write {(writes_now - writes_before) / interval:.1f} "
            f"(over {interval:.1f}s)"
        )
    for kind in ("read", "write"):
        lat = stats["latency"][kind]
        lines.append(
            f"  {kind:5s} p50 {_fmt_ms(lat['p50_s'])} "
            f"p95 {_fmt_ms(lat['p95_s'])} p99 {_fmt_ms(lat['p99_s'])} "
            f"max {_fmt_ms(lat['max_s'])} (n={lat['count']})"
        )
    wait = stats.get("queue_wait_ms", {})
    if wait.get("count"):
        lines.append(
            f"  queue wait p50 {wait['p50']:.2f}ms p95 {wait['p95']:.2f}ms "
            f"(n={wait['count']})"
        )
    lines.append(
        f"  snapshot age {stats['snapshot_age_s']:.2f}s, "
        f"{stats['views_materialized']} view(s) materialized"
    )
    slow = stats.get("slow", {})
    if slow.get("threshold_ms") is not None:
        lines.append(
            f"  slow (>= {slow['threshold_ms']:g}ms): {slow['total']} total, "
            f"{slow['logged']} logged, max {slow['max_ms']:.2f}ms"
        )
    views = stats.get("views", {})
    if views:
        lines.append("  view refresh cost at publish:")
        for view, cost in views.items():
            lines.append(
                f"    {view}: n={cost['refreshes']} "
                f"mean {_fmt_ms(cost['mean_s'])} p95 {_fmt_ms(cost['p95_s'])} "
                f"max {_fmt_ms(cost['max_s'])}"
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    host, port = _parse_address(args.address)
    prev: Optional[dict] = None
    polls = 0
    try:
        while True:
            reply = _ndjson_request(host, port, {"op": "stats", "id": "top"})
            stats = reply["result"]
            frame = _render_top_frame(
                stats, prev, args.interval if prev is not None else 0.0, args.address
            )
            if not args.no_clear and polls:
                print("\033[2J\033[H", end="")
            print(frame, flush=True)
            polls += 1
            prev = stats
            if args.count is not None and polls >= args.count:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0
    except ConnectionError as error:
        raise ReproError(f"cannot reach {args.address}: {error}") from error


def _cmd_slow(args: argparse.Namespace) -> int:
    host, port = _parse_address(args.address)
    try:
        reply = _ndjson_request(host, port, {"op": "slow", "id": "slow"})
    except ConnectionError as error:
        raise ReproError(f"cannot reach {args.address}: {error}") from error
    result = reply["result"]
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    threshold = result.get("threshold_ms")
    if threshold is None:
        print("slow-query log disabled (start the server with --slow-ms)")
        return 1
    entries = result.get("entries", [])
    print(
        f"slow-query log (>= {threshold:g}ms): {result.get('total', 0)} "
        f"recorded, showing {len(entries)}"
    )
    for entry in entries:
        target = entry.get("pattern") or entry.get("rules") or ""
        print(
            f"\n[{entry.get('trace_id')}] {entry.get('op')} "
            f"{entry.get('view')} {target!r} — "
            f"{entry.get('elapsed_ms')}ms at version {entry.get('version')}"
        )
        cost = entry.get("cost") or {}
        if cost:
            rendered = ", ".join(
                f"{key}={cost[key]:g}" for key in sorted(cost)
            )
            print(f"  cost: {rendered}")
        spans = entry.get("spans")
        if spans:
            _print_span(spans, depth=1)
    return 0


def _print_span(node: dict, depth: int) -> None:
    fields = node.get("fields") or {}
    rendered = (
        " [" + ", ".join(f"{k}={v}" for k, v in sorted(fields.items())) + "]"
        if fields
        else ""
    )
    print(f"{'  ' * depth}{node['name']}: {node['duration_ms']}ms{rendered}")
    for child in node.get("children", ()):
        _print_span(child, depth + 1)


_COMMANDS = {
    "run": _cmd_run,
    "query": _cmd_read,
    "explain": _cmd_explain,
    "why": _cmd_read,
    "stats": _cmd_stats,
    "lint": _cmd_lint,
    "check": _cmd_check,
    "profile": _cmd_profile,
    "repl": _cmd_repl,
    "serve": _cmd_serve,
    "top": _cmd_top,
    "slow": _cmd_slow,
}


def _event_sinks(args: argparse.Namespace) -> tuple[bool, list[Sink]]:
    """(enable instrumentation?, sinks) implied by the output flags."""
    sinks: list[Sink] = []
    verbose = getattr(args, "verbose", 0)
    quiet = getattr(args, "quiet", False)
    jsonl = getattr(args, "events_jsonl", None)
    wants_obs = (
        verbose > 0
        or jsonl is not None
        or getattr(args, "metrics", False)
        or args.command == "profile"
    )
    if not wants_obs:
        return False, sinks
    level = Level.from_verbosity(verbose, quiet)
    if level is not None:
        sinks.append(TextSink(sys.stderr, min_level=level))
    if jsonl is not None:
        sinks.append(JsonLinesSink(jsonl))
    return True, sinks


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        enable, sinks = _event_sinks(args)
        if enable:
            with instrumented(*sinks):
                return _COMMANDS[args.command](args)
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
