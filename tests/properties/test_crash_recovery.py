"""Randomized crash-recovery fault injection for the WAL
(docs/replication.md).

Two lanes, one property: **whatever the server acknowledged before the
crash is on disk, and recovery rebuilds a state bit-identical to a
serialized oracle replay of the surviving journal.**

* The failpoint lane kills the write path in-process with
  :class:`SimulatedCrash` at randomized points — before the append, a
  torn partial record, after the write but before the fsync, mid- and
  post-checkpoint, and during recovery replay itself (a double crash).
  ``ORACLE_SCALE`` sets the number of randomized kill points
  (``tests/oracle/scale.py``).
* The subprocess lane boots real ``olp serve --wal`` processes over
  TCP and ``kill -9``\\ s them at a random moment mid-workload, then
  restarts and checks the recovered version and answers against an
  oracle rebuilt from the surviving journal.  ``ORACLE_SCALE`` sets
  the number of kills too (slow: each boots two server processes).

Bit-identity is :func:`repro.serialize.kb_signature` equality — the
same predicate the config round-trip and replication differential
suites use.
"""

import json
import os
import random
import socket
import subprocess
import sys
import time

import pytest

from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.query import answers_in
from repro.serialize import kb_signature
from repro.server.wal import SimulatedCrash, Wal, latest_checkpoint, read_journal

from ..oracle.scale import size

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Every stage the writer and checkpointer can die at.  ``append.torn``
#: additionally flushes a *prefix* of the record first — the classic
#: torn write a power loss leaves behind.
STAGES = (
    "append.start",
    "append.torn",
    "append.pre_fsync",
    "append.done",
    "checkpoint.start",
    "checkpoint.written",
)


def op_stream(rng, length):
    """A replayable protocol-op stream: one define, then ground-fact
    tells and retracts of previously told facts."""
    entities = [f"e{i}" for i in range(6)]
    ops = [
        {
            "op": "define",
            "view": "reg",
            "rules": "ok(X) :- member(X).",
            "isa": [],
            "seers": ["reg"],
        }
    ]
    told = []
    while len(ops) < length:
        if told and rng.random() < 0.3:
            fact = told.pop(rng.randrange(len(told)))
            ops.append(
                {"op": "retract", "view": "reg", "rules": fact,
                 "isa": [], "seers": ["reg"]}
            )
        else:
            fact = f"member({rng.choice(entities)})."
            ops.append(
                {"op": "tell", "view": "reg", "rules": fact,
                 "isa": [], "seers": ["reg"]}
            )
            told.append(fact)
    return ops


def oracle_at(ops, version):
    """The KB an oracle reaches after serially applying the first
    ``version`` ops (one op per version in this harness)."""
    oracle = KnowledgeBase()
    for one in ops[:version]:
        oracle.apply_op(one)
    return oracle


class CrashAt:
    """Failpoint: die with :class:`SimulatedCrash` on the ``hits``-th
    time ``stage`` is reached; for a torn append, flush a random prefix
    of the record first."""

    def __init__(self, rng, stage, hits):
        self.rng = rng
        self.stage = stage
        self.remaining = hits

    def __call__(self, stage, record=None, handle=None, **_extra):
        if stage != self.stage:
            return
        self.remaining -= 1
        if self.remaining > 0:
            return
        if stage == "append.torn" and record is not None and handle is not None:
            cut = self.rng.randrange(1, len(record))
            handle.write(record[:cut])
            handle.flush()
            os.fsync(handle.fileno())
        raise SimulatedCrash(stage)


def run_crash_point(seed: int, directory: str) -> None:
    rng = random.Random(seed)
    ops = op_stream(rng, rng.randint(5, 40))
    stage = rng.choice(STAGES)
    # Arm the failpoint somewhere inside the run (stage hit counts are
    # per-append for append.* and per-checkpoint for checkpoint.*).
    failpoint = CrashAt(rng, stage, rng.randint(1, len(ops)))
    wal = Wal(
        directory,
        fsync=rng.choice(["always", "batch"]),
        segment_bytes=rng.choice([200, 1000, 64 * 1024]),
        checkpoint_every=rng.choice([2, 5, None]),
        failpoint=failpoint,
    )
    kb, _ = wal.recover()
    acked = 0
    crashed = False
    try:
        for version, one in enumerate(ops, start=1):
            kb.apply_op(one)
            wal.append(version, [one])
            acked = version  # append returned -> fsynced (or batched)
            wal.maybe_checkpoint(kb, version)
    except SimulatedCrash:
        crashed = True
    # No close(): the process is dead.  Recovery must cope with
    # whatever bytes made it to disk.
    wal2 = Wal(directory, fsync="never")
    recovered, recovered_version = wal2.recover()
    wal2.close()

    # Durability: with fsync="always" every acked version survives; a
    # batched fsync may lose a suffix but never an fsynced prefix, and
    # this harness flushes on every append, so the bytes are there.
    assert recovered_version >= acked, (
        f"seed {seed} stage {stage}: acked {acked} but recovered "
        f"{recovered_version}"
    )
    # The recovered version never exceeds what was attempted.
    assert recovered_version <= len(ops)
    # Bit-identity with the serialized oracle at the recovered version.
    assert kb_signature(recovered) == kb_signature(
        oracle_at(ops, recovered_version)
    ), f"seed {seed} stage {stage}: state diverges at {recovered_version}"
    if not crashed:
        # The failpoint never fired (hits > appends): the full stream
        # must have survived verbatim.
        assert recovered_version == len(ops)


def test_randomized_failpoint_crashes(tmp_path):
    for seed in range(size("crash_points")):
        directory = tmp_path / f"crash-{seed}"
        directory.mkdir()
        run_crash_point(seed, str(directory))


def test_double_crash_during_recovery(tmp_path):
    """A crash during recovery replay must not damage the journal:
    recovering again succeeds and reaches the same state."""
    rng = random.Random(0xD0)
    ops = op_stream(rng, 12)
    directory = str(tmp_path)
    wal = Wal(directory, fsync="always", checkpoint_every=None)
    kb, _ = wal.recover()
    for version, one in enumerate(ops, start=1):
        kb.apply_op(one)
        wal.append(version, [one])
    # Crash the process (no close), then crash again mid-recovery.
    crash_during_replay = CrashAt(rng, "recover.record", 5)
    with pytest.raises(SimulatedCrash):
        Wal(directory, fsync="never", failpoint=crash_during_replay).recover()
    recovered, version = Wal(directory, fsync="never").recover()
    assert version == len(ops)
    assert kb_signature(recovered) == kb_signature(oracle_at(ops, version))


def test_crash_between_checkpoint_and_truncate_keeps_replayability(tmp_path):
    """Dying after the checkpoint rename but before segment truncation
    leaves both the checkpoint and the full journal — recovery must
    replay only the suffix and reach the same state."""
    rng = random.Random(0xD1)
    ops = op_stream(rng, 9)
    directory = str(tmp_path)
    failpoint = CrashAt(rng, "checkpoint.written", 1)
    wal = Wal(directory, fsync="always", checkpoint_every=4, failpoint=failpoint)
    kb, _ = wal.recover()
    crashed_at = None
    try:
        for version, one in enumerate(ops, start=1):
            kb.apply_op(one)
            wal.append(version, [one])
            wal.maybe_checkpoint(kb, version)
    except SimulatedCrash:
        crashed_at = version
    assert crashed_at is not None
    recovered, version = Wal(directory, fsync="never").recover()
    assert version == crashed_at
    assert kb_signature(recovered) == kb_signature(oracle_at(ops, version))


# ----------------------------------------------------------------------
# The real-process lane: kill -9 a serving ``olp serve --wal``
# ----------------------------------------------------------------------

def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_server(wal_dir, port):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", str(port),
            "--wal", str(wal_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        cwd=REPO_ROOT,
    )
    banner = []
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise AssertionError(
                f"server died during boot: {''.join(banner)}"
            )
        banner.append(line)
        if "listening on" in line:
            return process, "".join(banner)
    raise AssertionError(f"server never came up: {''.join(banner)}")


class LineClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.file = self.sock.makefile("rwb")

    def call(self, **payload):
        self.file.write((json.dumps(payload) + "\n").encode())
        self.file.flush()
        line = self.file.readline()
        assert line, "server closed the connection"
        return json.loads(line)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def run_kill9(seed: int, wal_dir) -> None:
    rng = random.Random(seed)
    port = _free_port()
    process, _banner = _spawn_server(wal_dir, port)
    acked = 0
    try:
        client = LineClient(port)
        reply = client.call(
            id="d", op="define", view="reg", rules="ok(X) :- member(X)."
        )
        assert reply["ok"], reply
        acked = reply["version"]
        kill_after = rng.randint(1, 12)
        for index in range(kill_after):
            reply = client.call(
                id=f"w{index}", op="tell", view="reg",
                rules=f"member(e{rng.randrange(6)}).",
            )
            assert reply["ok"], reply
            acked = reply["version"]
        client.close()
    finally:
        # The actual fault: SIGKILL, no drain, no close.
        process.kill()
        process.wait(timeout=30)
        process.stdout.close()

    # Oracle: rebuild from the surviving on-disk bytes directly.
    checkpoint_version, oracle = latest_checkpoint(str(wal_dir))
    if oracle is None:
        oracle = KnowledgeBase()
    records, _info = read_journal(str(wal_dir), after_version=checkpoint_version)
    for record in records:
        for one in record.ops:
            oracle.apply_op(one)
    disk_version = records[-1].version if records else checkpoint_version
    assert disk_version >= acked, (
        f"seed {seed}: acked {acked} but only {disk_version} on disk"
    )

    # Restart on the same directory: the banner must report exactly the
    # on-disk version, and answers must match the oracle.
    port = _free_port()
    process, banner = _spawn_server(wal_dir, port)
    try:
        assert f"recovered version {disk_version} from" in banner, banner
        client = LineClient(port)
        stats = client.call(id="s", op="stats")
        assert stats["result"]["version"] == disk_version
        expected = {
            str(a.literal)
            for a in answers_in(oracle.view("reg").least_model, "ok(X)")
        }
        reply = client.call(id="q", op="query", view="reg", pattern="ok(X)")
        assert reply["ok"] and reply["version"] == disk_version
        served = {a["literal"] for a in reply["result"]["answers"]}
        assert served == expected, f"seed {seed}: answers diverge"
        bye = client.call(id="x", op="shutdown")
        assert bye["ok"]
        client.close()
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()


@pytest.mark.slow
def test_kill9_recovers_acked_writes(tmp_path):
    for seed in range(size("crash_kills")):
        wal_dir = tmp_path / f"kill-{seed}"
        wal_dir.mkdir()
        run_kill9(seed, wal_dir)
