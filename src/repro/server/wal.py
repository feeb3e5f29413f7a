"""Durable write-ahead delta log for the query server.

The single-writer pipeline (``docs/server.md``) publishes one immutable
snapshot version per coalesced batch.  This module makes that version
stream *durable and replayable* (``docs/replication.md``):

* :class:`WalWriter` appends one record per published version to a
  segmented journal.  A record is a single line::

      <length>:<crc32 hex>:<payload JSON>\\n

  where ``length`` is the byte length of the UTF-8 payload and the
  CRC32 covers exactly those bytes.  The payload is
  ``{"v": version, "ops": [op, ...]}`` with each op a protocol-shaped
  write (``op``/``view``/``rules``/``isa`` plus the ``seers`` set the
  leader computed at publish time, which lets filtered followers skip
  irrelevant entries without re-deriving the poset).
* Segments rotate at ``segment_bytes``; a segment file is named by the
  first version it may contain (``wal-<version 12 digits>.log``), so
  the reader orders segments lexicographically.
* :func:`read_journal` validates every record (length prefix, CRC,
  monotonically increasing contiguous versions).  A torn *tail* — the
  crash-interrupted final record of the final segment — is tolerated
  and reported; corruption anywhere else raises :class:`WalCorruption`.
* :class:`Wal` ties writer + checkpoints together: ``recover()`` loads
  the newest readable checkpoint (a ``dumps_kb`` snapshot + version,
  written atomically via tmp-file + rename) and replays the journal
  suffix through the knowledge base's delta engine; ``maybe_checkpoint``
  snapshots every ``checkpoint_every`` versions and deletes sealed
  segments wholly covered by the checkpoint.

Durability contract: with ``fsync="always"`` (the default) an append
returns only after ``os.fsync``, so a write acknowledged by the server
survives ``kill -9``.  The batch-coalescing pipeline already amortizes
this — one append (one fsync) covers up to ``max_batch`` client writes.
``fsync="batch"`` trades the guarantee for group commit across
publishes (at most one fsync per ``fsync_interval_s``); ``"never"``
leaves it to the OS (benchmarks and tests).

The randomized fault-injection suite
(``tests/properties/test_crash_recovery.py``) kills servers at
arbitrary points — mid-batch, mid-fsync, mid-checkpoint, torn final
record — and asserts recovery is bit-identical to a serialized oracle
replay of the surviving records.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import time
import zlib
from typing import Any, Callable, Optional

from ..lang.errors import ReproError
from ..obs import get_instrumentation
from ..serialize import FORMAT_VERSION, kb_from_dict, kb_to_dict

__all__ = [
    "Wal",
    "WalCorruption",
    "WalRecord",
    "WalWriter",
    "CHECKPOINT_FORMAT",
    "SEGMENT_PATTERN",
    "checkpoint_path",
    "encode_record",
    "decode_line",
    "latest_checkpoint",
    "list_segments",
    "read_journal",
    "segment_path",
    "write_checkpoint",
]

#: Format tag of checkpoint payloads (bumped together with the
#: serialize module's FORMAT_VERSION when either schema changes).
CHECKPOINT_FORMAT = f"olp-checkpoint/{FORMAT_VERSION}"

SEGMENT_PATTERN = re.compile(r"^wal-(\d{12})\.log$")
CHECKPOINT_PATTERN = re.compile(r"^checkpoint-(\d{12})\.json$")

#: Failpoint stage names, in the order a single append hits them.
APPEND_STAGES = ("append.start", "append.torn", "append.pre_fsync", "append.done")


class WalCorruption(ReproError):
    """An unreadable journal: bad length prefix or CRC away from the
    tail, a duplicate version, or a gap in the version sequence."""


class SimulatedCrash(BaseException):
    """Raised by fault-injection failpoints.  Derives from
    ``BaseException`` so production ``except Exception`` recovery paths
    cannot swallow a simulated crash."""


@dataclasses.dataclass(frozen=True)
class WalRecord:
    """One decoded journal record: a published version and the
    protocol-shaped write ops that produced it."""

    version: int
    ops: tuple[dict, ...]


def encode_record(version: int, ops: list[dict]) -> bytes:
    """``<length>:<crc32 hex>:<payload>\\n`` for one record."""
    payload = json.dumps(
        {"v": version, "ops": ops}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"%d:%08x:%s\n" % (len(payload), crc, payload)


def decode_line(line: bytes) -> WalRecord:
    """Decode one complete journal line.

    Raises:
        WalCorruption: if the length prefix, CRC, or payload shape is
            invalid.  The caller decides whether the position (tail of
            the last segment vs anywhere else) makes that tolerable.
    """
    if not line.endswith(b"\n"):
        raise WalCorruption("record is missing its trailing newline (torn write)")
    body = line[:-1]
    head, sep, rest = body.partition(b":")
    if not sep or not head.isdigit():
        raise WalCorruption(f"unparsable length prefix {head[:32]!r}")
    crc_hex, sep, payload = rest.partition(b":")
    if not sep or len(crc_hex) != 8:
        raise WalCorruption(f"unparsable checksum field {crc_hex[:32]!r}")
    length = int(head)
    if length != len(payload):
        raise WalCorruption(
            f"length prefix {length} != payload length {len(payload)} (torn write)"
        )
    try:
        crc = int(crc_hex, 16)
    except ValueError as error:
        raise WalCorruption(f"non-hex checksum {crc_hex!r}") from error
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if crc != actual:
        raise WalCorruption(f"checksum mismatch: header {crc:08x}, payload {actual:08x}")
    try:
        data = json.loads(payload)
        version = data["v"]
        ops = data["ops"]
    except (json.JSONDecodeError, KeyError, TypeError) as error:
        raise WalCorruption(f"bad record payload: {error}") from error
    if not isinstance(version, int) or not isinstance(ops, list):
        raise WalCorruption(f"bad record payload shape: {payload[:64]!r}")
    return WalRecord(version, tuple(ops))


def segment_path(directory: str, first_version: int) -> str:
    return os.path.join(directory, f"wal-{first_version:012d}.log")


def checkpoint_path(directory: str, version: int) -> str:
    return os.path.join(directory, f"checkpoint-{version:012d}.json")


def list_segments(directory: str) -> list[tuple[int, str]]:
    """``(first_version, path)`` of every segment, oldest first."""
    segments = []
    for name in os.listdir(directory):
        match = SEGMENT_PATTERN.match(name)
        if match:
            segments.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(segments)


def _fsync_directory(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def read_journal(
    directory: str, after_version: int = 0
) -> tuple[list[WalRecord], dict[str, Any]]:
    """Every valid record with ``version > after_version``, in order.

    Returns ``(records, info)`` where ``info`` reports what recovery
    needs to log: segments read, records decoded, and whether a torn
    tail was dropped (``torn_tail``, with the byte offset a writer
    should truncate the final segment to).

    Raises:
        WalCorruption: for any damage other than an incomplete or
            checksum-failing *final* record of the *final* segment
            (the expected shape of a crash mid-append), and for
            duplicate or gapped versions anywhere.
    """
    segments = list_segments(directory)
    records: list[WalRecord] = []
    info: dict[str, Any] = {
        "segments": len(segments),
        "records": 0,
        "torn_tail": False,
        "truncate_to": None,
    }
    last_version: Optional[int] = None
    for index, (first_version, path) in enumerate(segments):
        final_segment = index == len(segments) - 1
        offset = 0
        with open(path, "rb") as handle:
            raw = handle.read()
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            line = raw[offset : newline + 1] if newline != -1 else raw[offset:]
            try:
                record = decode_line(line)
            except WalCorruption as error:
                # Only the crash-interrupted final record of the final
                # segment is tolerable; a later complete line after the
                # damage means interior corruption, never a torn tail.
                if final_segment and newline == -1:
                    info["torn_tail"] = True
                    info["truncate_to"] = (path, offset)
                    break
                raise WalCorruption(f"{path} at byte {offset}: {error}") from error
            if last_version is not None and record.version <= last_version:
                raise WalCorruption(
                    f"{path} at byte {offset}: duplicate version "
                    f"{record.version} (already saw {last_version})"
                )
            if last_version is not None and record.version > last_version + 1:
                raise WalCorruption(
                    f"{path} at byte {offset}: gap in versions "
                    f"({last_version} -> {record.version})"
                )
            if record.version < first_version:
                raise WalCorruption(
                    f"{path} at byte {offset}: version {record.version} below "
                    f"the segment's first version {first_version}"
                )
            last_version = record.version
            offset = newline + 1
            if record.version > after_version:
                records.append(record)
                info["records"] += 1
    return records, info


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

def write_checkpoint(directory: str, kb, version: int) -> str:
    """Atomically persist a full-KB checkpoint at one version.

    Written to a tmp file, fsynced, then renamed into place — a crash
    mid-checkpoint leaves either the old checkpoint set or the new one,
    never a half-written file under a checkpoint name.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": version,
        "kb": kb_to_dict(kb),
        "written_at": time.time(),
    }
    target = checkpoint_path(directory, version)
    tmp = target + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    _fsync_directory(directory)
    return target


def latest_checkpoint(directory: str):
    """``(version, kb)`` from the newest *readable* checkpoint.

    A corrupt newest checkpoint (crash mid-write before the rename, or
    damaged bytes) falls back to the next older one; with no readable
    checkpoint at all, returns ``(0, None)`` and recovery replays the
    journal from the beginning.
    """
    candidates = []
    for name in os.listdir(directory):
        match = CHECKPOINT_PATTERN.match(name)
        if match:
            candidates.append((int(match.group(1)), os.path.join(directory, name)))
    for version, path in sorted(candidates, reverse=True):
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("format") != CHECKPOINT_FORMAT:
                continue
            if payload.get("version") != version:
                continue
            return version, kb_from_dict(payload["kb"])
        except (OSError, ValueError, KeyError, ReproError):
            continue
    return 0, None


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------

class WalWriter:
    """Appends records to the journal with segment rotation.

    ``failpoint`` (tests only) is called with a stage name at each
    point of the append path — raising :class:`SimulatedCrash` there
    models a process death at exactly that point.  ``append.torn``
    additionally receives the encoded record so the failpoint can
    write a prefix of it before dying (a torn write).
    """

    def __init__(
        self,
        directory: str,
        *,
        fsync: str = "always",
        segment_bytes: int = 64 * 1024 * 1024,
        fsync_interval_s: float = 0.05,
        failpoint: Optional[Callable[..., None]] = None,
    ) -> None:
        if fsync not in ("always", "batch", "never"):
            raise ValueError(f"unknown fsync mode {fsync!r}")
        self.directory = directory
        self.fsync = fsync
        self.segment_bytes = segment_bytes
        self.fsync_interval_s = fsync_interval_s
        self.failpoint = failpoint
        self.appends = 0
        self.bytes_written = 0
        self.fsyncs = 0
        self.rotations = 0
        self._handle = None
        self._segment_size = 0
        self._last_fsync = 0.0
        self._pending_sync = False

    # -- segment lifecycle ---------------------------------------------
    def _open_segment(self, first_version: int) -> None:
        path = segment_path(self.directory, first_version)
        self._handle = open(path, "ab")
        self._segment_size = self._handle.tell()
        _fsync_directory(self.directory)

    def resume(self) -> None:
        """Open the newest segment for appending, truncating a torn
        tail first (called once by recovery, before any append)."""
        segments = list_segments(self.directory)
        if not segments:
            return
        _, info = read_journal(self.directory)
        if info["torn_tail"]:
            path, offset = info["truncate_to"]
            with open(path, "r+b") as handle:
                handle.truncate(offset)
                handle.flush()
                os.fsync(handle.fileno())
            get_instrumentation().event(
                "wal.truncate_torn_tail", path=path, offset=offset
            )
        first_version, _path = segments[-1]
        self._open_segment(first_version)

    def append(self, version: int, ops: list[dict]) -> int:
        """Durably append one record; returns its encoded size."""
        record = encode_record(version, ops)
        self._fail("append.start")
        if self._handle is None:
            self._open_segment(version)
        elif (
            self._segment_size
            and self._segment_size + len(record) > self.segment_bytes
        ):
            self._seal()
            self._open_segment(version)
            self.rotations += 1
        assert self._handle is not None
        if self.failpoint is not None:
            self._fail("append.torn", record=record, handle=self._handle)
        self._handle.write(record)
        self._handle.flush()
        self._fail("append.pre_fsync")
        self._maybe_fsync()
        self._segment_size += len(record)
        self.appends += 1
        self.bytes_written += len(record)
        self._fail("append.done")
        return len(record)

    def _maybe_fsync(self) -> None:
        assert self._handle is not None
        if self.fsync == "never":
            return
        now = time.monotonic()
        if self.fsync == "batch" and now - self._last_fsync < self.fsync_interval_s:
            self._pending_sync = True
            return
        os.fsync(self._handle.fileno())
        self._last_fsync = now
        self._pending_sync = False
        self.fsyncs += 1

    def _seal(self) -> None:
        if self._handle is None:
            return
        self._handle.flush()
        if self.fsync != "never":
            os.fsync(self._handle.fileno())
            self.fsyncs += 1
        self._handle.close()
        self._handle = None
        self._segment_size = 0
        self._pending_sync = False

    def close(self) -> None:
        self._seal()

    def _fail(self, stage: str, **extra) -> None:
        if self.failpoint is not None:
            self.failpoint(stage, **extra)


# ----------------------------------------------------------------------
# The facade the server engine drives
# ----------------------------------------------------------------------

class Wal:
    """Journal + checkpoints of one serving directory.

    The engine calls :meth:`append` once per published version and
    :meth:`maybe_checkpoint` after each publish; boot calls
    :meth:`recover` once, before the engine starts.
    """

    def __init__(
        self,
        directory: str,
        *,
        fsync: str = "always",
        segment_bytes: int = 64 * 1024 * 1024,
        checkpoint_every: Optional[int] = 256,
        keep_checkpoints: int = 2,
        failpoint: Optional[Callable[..., None]] = None,
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.checkpoint_every = checkpoint_every
        self.keep_checkpoints = max(1, keep_checkpoints)
        self.writer = WalWriter(
            directory,
            fsync=fsync,
            segment_bytes=segment_bytes,
            failpoint=failpoint,
        )
        self.failpoint = failpoint
        self.checkpoints = 0
        self.checkpoint_version = 0
        self.replayed = 0
        self.recovered_version = 0
        self.truncated_segments = 0
        #: True when version 0 is a checkpointed (seeded) KB rather than
        #: the empty one — subscribers from version 0 then need a
        #: snapshot, not journal entries.
        self.seeded_at_zero = False

    # -- boot ----------------------------------------------------------
    def recover(self):
        """``(kb, version)`` rebuilt from checkpoint + journal replay.

        Returns a fresh :class:`~repro.kb.knowledge_base.KnowledgeBase`
        (empty when the directory is) and the version it represents.
        Also arms the writer: the torn tail, if any, is truncated and
        the newest segment reopened for appending.
        """
        from ..kb.knowledge_base import KnowledgeBase

        checkpoint_version, kb = latest_checkpoint(self.directory)
        if checkpoint_version == 0 and kb is not None:
            self.seeded_at_zero = True
        if kb is None:
            kb = KnowledgeBase()
        self.checkpoint_version = checkpoint_version
        records, info = read_journal(self.directory, after_version=checkpoint_version)
        for record in records:
            self._fail("recover.record", record=record)
            for op in record.ops:
                kb.apply_op(op)
        self.writer.resume()
        version = records[-1].version if records else checkpoint_version
        self.replayed = len(records)
        self.recovered_version = version
        get_instrumentation().event(
            "wal.recover",
            checkpoint=checkpoint_version,
            replayed=len(records),
            version=version,
            torn_tail=info["torn_tail"],
        )
        return kb, version

    # -- steady state --------------------------------------------------
    def append(self, version: int, ops: list[dict]) -> None:
        self.writer.append(version, ops)

    def maybe_checkpoint(self, kb, version: int) -> bool:
        if (
            self.checkpoint_every is None
            or version - self.checkpoint_version < self.checkpoint_every
        ):
            return False
        self.checkpoint(kb, version)
        return True

    def checkpoint(self, kb, version: int) -> None:
        """Snapshot the KB, then truncate history it covers."""
        self._fail("checkpoint.start")
        write_checkpoint(self.directory, kb, version)
        self._fail("checkpoint.written")
        if version == 0:
            self.seeded_at_zero = True
        self.checkpoint_version = version
        self.checkpoints += 1
        self._truncate(version)
        get_instrumentation().event("wal.checkpoint", version=version)

    def _truncate(self, version: int) -> None:
        """Delete sealed segments wholly covered by the checkpoint and
        all but the newest ``keep_checkpoints`` checkpoint files."""
        segments = list_segments(self.directory)
        for index, (first_version, path) in enumerate(segments):
            is_active = index == len(segments) - 1
            next_first = (
                segments[index + 1][0] if index + 1 < len(segments) else None
            )
            # A segment's records all precede the next segment's first
            # version; it is disposable once that bound is <= version+1.
            if is_active or next_first is None or next_first > version + 1:
                continue
            os.remove(path)
            self.truncated_segments += 1
        checkpoints = sorted(
            (
                int(match.group(1))
                for name in os.listdir(self.directory)
                if (match := CHECKPOINT_PATTERN.match(name))
            ),
            reverse=True,
        )
        for old in checkpoints[self.keep_checkpoints :]:
            os.remove(checkpoint_path(self.directory, old))
        _fsync_directory(self.directory)

    def read_after(self, after_version: int) -> list[WalRecord]:
        """Journal records with ``version > after_version`` (the
        subscribe catch-up source).  ``None`` semantics: if the range
        has been truncated below a checkpoint, the caller must fall
        back to a full snapshot."""
        records, _info = read_journal(self.directory, after_version=after_version)
        return records

    @property
    def oldest_available(self) -> int:
        """The version from which the journal can replay contiguously:
        the newest checkpoint version (0 with no checkpoint — the
        journal covers everything from the start)."""
        return self.checkpoint_version

    def stats(self) -> dict[str, Any]:
        return {
            "directory": self.directory,
            "fsync": self.writer.fsync,
            "appends": self.writer.appends,
            "bytes": self.writer.bytes_written,
            "fsyncs": self.writer.fsyncs,
            "rotations": self.writer.rotations,
            "checkpoints": self.checkpoints,
            "checkpoint_version": self.checkpoint_version,
            "replayed_on_boot": self.replayed,
            "recovered_version": self.recovered_version,
            "truncated_segments": self.truncated_segments,
        }

    def close(self) -> None:
        self.writer.close()

    def _fail(self, stage: str, **extra) -> None:
        if self.failpoint is not None:
            self.failpoint(stage, **extra)
