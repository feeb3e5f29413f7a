#!/usr/bin/env python
"""Gate: compare per-request read p50s between two benchmark strategies.

Usage:
    python scripts/check_server_read_latency.py BENCH.json
    python scripts/check_server_read_latency.py BENCH.json --max-ratio 3
    python scripts/check_server_read_latency.py BENCH.json \
        --experiment server-trace --baseline untraced \
        --contender traced --max-overhead-us 23

Reads one experiment from a pytest-benchmark JSON payload
(``benchmarks/bench_server.py``) and fails (exit 1) unless the p50 of
the *contender* strategy stays within ``--max-ratio`` of the *baseline*
strategy's p50.  The defaults gate snapshot isolation: reads with a
busy background writer (``busy``) must stay within 3x of reads with an
idle writer (``idle``), because readers answer from the published
snapshot and never wait on the write pipeline.

``--max-overhead-us`` gates the *difference* of the two p50s instead
of their ratio.  It is how tracing is gated (``server-trace``:
``traced`` minus ``untraced``): what tracing adds to a request is a
constant — one context, one span, the annotations, the summary — so a
ratio gate tightens every time the untraced read under it gets faster,
without tracing having changed at all.

The p50s come from ``extra_info`` (measured per request inside the
benchmark) because the benchmark's own mean times the whole read loop —
which, in the busy mode, *does* include interleaved writer work.  An
entry is either one strategy's ``strategy``/``p50_s``/``p95_s`` or
carries several under ``strategies`` — timed interleaved inside one
test, so that host drift cancels out of their ratio
(``server-read-scaling``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="read-latency ratio gate over a benchmark payload"
    )
    parser.add_argument("payload", help="pytest-benchmark JSON file")
    parser.add_argument(
        "--experiment",
        default="server-read",
        help="extra_info experiment name to gate",
    )
    parser.add_argument(
        "--baseline",
        default="idle",
        help="strategy whose p50 is the denominator",
    )
    parser.add_argument(
        "--contender",
        default="busy",
        help="strategy whose p50 is the numerator",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=float(os.environ.get("SERVER_READ_MAX_RATIO", "3.0")),
        help="largest allowed contender-p50 / baseline-p50 ratio",
    )
    parser.add_argument(
        "--max-overhead-us",
        type=float,
        default=None,
        help="gate contender-p50 minus baseline-p50 (microseconds) "
        "instead of the ratio",
    )
    args = parser.parse_args(argv[1:])

    with open(args.payload) as handle:
        payload = json.load(handle)

    p50s: dict[str, float] = {}
    p95s: dict[str, float] = {}
    for bench in payload["benchmarks"]:
        info = bench.get("extra_info", {})
        if info.get("experiment") != args.experiment:
            continue
        # One entry per strategy, or one entry that timed several
        # strategies interleaved (``strategies``: name -> p50_s/p95_s).
        timings = info.get("strategies") or {info["strategy"]: info}
        for strategy, timing in timings.items():
            p50s[strategy] = float(timing["p50_s"])
            p95s[strategy] = float(timing["p95_s"])

    missing = {args.baseline, args.contender} - set(p50s)
    if missing:
        print(
            f"{args.experiment} benchmarks missing strategies: "
            f"{sorted(missing)}"
        )
        return 1

    ratio = p50s[args.contender] / p50s[args.baseline]
    overhead_us = (p50s[args.contender] - p50s[args.baseline]) * 1e6
    for strategy in (args.baseline, args.contender):
        print(
            f"{strategy}: p50={p50s[strategy] * 1e6:.1f}us "
            f"p95={p95s[strategy] * 1e6:.1f}us"
        )
    if args.max_overhead_us is not None:
        ok = overhead_us <= args.max_overhead_us
        print(
            f"{args.contender} - {args.baseline} p50 overhead: "
            f"{overhead_us:.1f}us ({ratio:.2f}x) "
            f"[gate <= {args.max_overhead_us}us: {'ok' if ok else 'FAIL'}]"
        )
    else:
        ok = ratio <= args.max_ratio
        print(
            f"{args.contender}/{args.baseline} p50 ratio: {ratio:.2f} "
            f"[gate <= {args.max_ratio}: {'ok' if ok else 'FAIL'}]"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
