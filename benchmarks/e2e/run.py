"""The benchmark command (``BENCHMARK.json`` → ``command``).

    python3 benchmarks/e2e/run.py --workload serve_mixed --seed 7
    python3 benchmarks/e2e/run.py --workload cold_eval --seed 7 --trace 1
    python3 benchmarks/e2e/run.py --selfcheck [--quick]

A run sets the workload up, measures it for ``--seconds``, checks the
outputs against the workload's oracle and prints a human-readable table
followed — as the last line of standard output — by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` (the
default) reports the end-to-end metrics of ``BENCHMARK.json`` from an
untraced run; ``--trace 1`` reports the per-layer metrics.  The exit code
is 0 only when every output matched its oracle.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script: make ``benchmarks.e2e`` importable, and keep this
    # directory's module names (common, trend, ...) from shadowing anything.
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e import SRC  # noqa: E402
from benchmarks.e2e.common import (  # noqa: E402
    OUT,
    BenchmarkError,
    environment,
    load_spec,
    metric_payload,
    ratio,
    write_json,
)

#: Measured seconds of a ``--quick`` run (smoke test, not a measurement).
QUICK_SECONDS = 3


def _workload(name: str):
    """Import the workload's module on demand: ``cold_eval`` needs no
    asyncio machinery and the server workloads no staged-pass imports."""
    if name == "cold_eval":
        from benchmarks.e2e import cold_eval

        return cold_eval.run
    if name in ("serve_mixed", "serve_read_heavy"):
        from benchmarks.e2e import serving

        return lambda **kw: serving.run(name, **kw)
    if name == "point_query":
        from benchmarks.e2e import point_query

        return point_query.run
    raise BenchmarkError(f"unknown workload {name!r}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Run one workload and return its full result record."""
    spec = load_spec()
    outcome = _workload(name)(seed=seed, seconds=seconds, trace=trace, quick=quick)
    failed, attempted = outcome["failed"], outcome["attempted"]
    record = {
        "workload": name,
        "trace": trace,
        "quick": quick,
        "seconds": seconds,
        "environment": environment(seed, outcome["fsync"]),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": ratio(failed, attempted),
        "values": outcome["values"],
        "detail": outcome["detail"],
        "metrics": metric_payload(spec, trace, outcome["values"]),
    }
    kind = "trace" if trace else "result"
    write_json(OUT / f"{kind}-{name}.json", record)
    return record


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"# workload {record['workload']}  trace={int(record['trace'])}  "
          f"seconds={record['seconds']}  quick={int(record['quick'])}")
    print("# " + "  ".join(f"{key}={value}" for key, value in env.items()))
    for name, metric in record["metrics"].items():
        print(f"{name:44s} {metric['value']:>16.4f} {metric['unit']}")
    for line in record["detail"].get("notes", ()):
        print(f"# {line}")
    for line in record["detail"].get("mismatches", ())[:20]:
        print(f"! {line}")
    print(f"{'error_rate':44s} {record['error_rate']:>16.6f} "
          f"({record['failed']} failed of {record['attempted']})")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def parse_args(argv=None) -> argparse.Namespace:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured window (default {spec['run_seconds']}, "
                             f"or {QUICK_SECONDS} with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and short windows: a smoke run")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload twice on one seed and compare")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required (or --selfcheck)")
    return args


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmarks/e2e: no sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    # A terminated run unwinds like an interrupted one: the ``with`` blocks
    # reap the server subprocesses and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.selfcheck:
        from benchmarks.e2e.selfcheck import selfcheck

        return selfcheck(args.seed, args.seconds, args.quick)
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.quick)
    except BenchmarkError as error:
        print(f"benchmarks/e2e: {error}", file=sys.stderr)
        return 2
    print_record(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
