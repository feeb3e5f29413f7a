"""Shared plumbing: the metric spec, order statistics, ``/proc`` readers,
the environment stamp and the scratch directory.

Everything a run writes lands under ``benchmarks/e2e/out/`` (git-ignored):
the driver runs the benchmark in a bare checkout and allows no write
outside it, so temporary WAL directories and EDB files live there too,
not in ``/tmp``.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import ROOT, SRC

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing sources, a server that did
    not boot, a dropped connection): exit non-zero without a result."""


# ----------------------------------------------------------------------
# Metric spec (BENCHMARK.json is the single source of names and units)
# ----------------------------------------------------------------------
def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def metric_payload(spec: dict, trace: bool, values: dict[str, float]) -> dict:
    """The ``metrics`` object of the result line: every declared metric of
    the requested kind, by name, with its unit.

    An end-to-end metric must have been measured (a missing or zero one is
    a benchmark bug); a per-layer metric that does not apply to the
    workload reads 0.
    """
    declared = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for entry in declared:
        name = entry["name"]
        value = values.get(name)
        if value is None:
            if not trace:
                raise BenchmarkError(f"end-to-end metric {name!r} was not measured")
            value = 0.0
        if not math.isfinite(value):
            raise BenchmarkError(f"metric {name!r} is not finite: {value!r}")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds one ``spin`` takes on the reference sandbox (Xeon 2.1 GHz,
#: CPython 3.11) while nothing else runs on the physical core.
SPIN_REFERENCE = 20e-6

def spin() -> None:
    """The speed probe: a fixed piece of interpreter-bound arithmetic.

    The sandbox's processors are hyperthreads of a shared host.  Whenever a
    neighbour is busy on the same physical core — for milliseconds or for
    minutes — everything on the processor, this loop and the program under
    test alike, runs 1.2 to 1.7 times slower; the CPU clocks of the
    processes count the slowed time in full and no steal time is reported,
    so nothing but a known piece of work can tell.  Every time this
    benchmark reports as an end-to-end metric is the wall-clock time divided
    by how much slower than ``SPIN_REFERENCE`` the probe ran during it.
    """
    x = 0
    for i in range(400):
        x += i * i % 7


class SpeedSampler(threading.Thread):
    """Times one speed probe every few milliseconds, from a thread of the
    measuring process, while that process computes.

    The interpreter lock makes this sound: the thread asks for the lock
    when its 2 ms sleep ends, gets it within the 5 ms switch interval, and
    holds it for the whole 20 µs probe, so the probe is timed undisturbed by
    the computation — on the processor, and at the moment, the computation
    is using.  A probe that took ten times its reference was interrupted
    (another process, the hypervisor): it says how long that lasted, not how
    fast the processor is, and is dropped.

    Why not a burst of probes before and after each pass: the host changes
    speed several times a second at its worst, and what it did around a
    0.1–0.9 s pass says little about what it did during it (ten runs spread
    11–12 % that way in such a spell, as without any probe; 2 % this way).
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._halt = threading.Event()
        self._at: list[float] = []
        self._took: list[float] = []

    def run(self) -> None:
        clock = time.perf_counter
        while not self._halt.wait(0.002):
            t0 = clock()
            spin()
            took = clock() - t0
            if took < 10.0 * SPIN_REFERENCE:
                self._at.append(t0)
                self._took.append(took)

    def __enter__(self) -> "SpeedSampler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._halt.set()
        self.join()

    def slowdown(self, start: float, end: float) -> float:
        """Mean time of the probes taken between two ``perf_counter``
        readings ÷ the reference."""
        first = bisect.bisect_left(self._at, start)
        last = bisect.bisect_right(self._at, end)
        if first == last:
            raise BenchmarkError(f"no speed probe ran in {end - start:.4f} s of computation")
        return sum(self._took[first:last]) / (last - first) / SPIN_REFERENCE


# ----------------------------------------------------------------------
# Processor placement
# ----------------------------------------------------------------------
#: Which of the processors this process may run on (in numeric order) the
#: measured path is pinned to — the generator and the server under load,
#: which take turns, or the in-process evaluation — and which one a follower
#: gets.
SERVING_CPU, FOLLOWER_CPU = 0, 1

#: The processors the run may use, read before anything is pinned (pinning
#: this process narrows what it and its children are allowed).
_ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(pid: int, index: int) -> None:
    """Pin process ``pid`` (0 = this one) to the ``index``-th allowed
    processor (the last one, if there are fewer); processes and threads it
    starts afterwards inherit the placement.

    Left to the scheduler, the server and the generator wander between
    sharing a processor (a context switch per message) and sitting on two
    (a cross-processor wake-up per message, whose cost on a virtual
    processor depends on the host); the placements differ by a third in
    throughput and a run reads whichever prevailed.  One processor also
    means the speed probes run where the measured work runs.  A follower
    applies every write while the next request is served, so it gets a
    processor of its own where there is one.
    """
    if _ALLOWED_CPUS:
        os.sched_setaffinity(pid, {_ALLOWED_CPUS[min(index, len(_ALLOWED_CPUS) - 1)]})


# ----------------------------------------------------------------------
# /proc readers (Linux; 0.0 elsewhere so the run still completes)
# ----------------------------------------------------------------------
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError:
        return 0.0
    for line in lines:
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process, in seconds."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------
def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int, fsync: Optional[str]) -> dict:
    from repro.core.compiled.backend import backend_name

    try:
        load_1m = os.getloadavg()[0]
    except OSError:
        load_1m = -1.0
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "dense_backend": backend_name(),
        "wal_fsync": fsync,
        "seed": seed,
        "git_commit": git_commit(),
        "load_1m_at_start": load_1m,
    }


# ----------------------------------------------------------------------
# Scratch space and child processes
# ----------------------------------------------------------------------
def scratch_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory inside the checkout, removed on exit from
    the ``with`` block whatever the exit path."""
    OUT.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT)


def child_env() -> dict[str, str]:
    """Environment of ``olp serve`` subprocesses: this checkout's sources."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def python_executable() -> str:
    return sys.executable or "python3"


def invoke(workload: str, seed: int, seconds: float, trace: bool = False,
           quick: bool = False) -> dict:
    """Run one workload in a fresh interpreter, exactly as the driver does,
    and return the result object of its last output line."""
    command = [
        python_executable(), str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchmarkError(
            f"{workload} exited with {done.returncode}: {done.stderr.strip()[-400:]}"
        )
    return json.loads(lines[-1])
