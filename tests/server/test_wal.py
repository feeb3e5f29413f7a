"""Journal codec and recovery semantics: torn writes, corrupt
checksums, duplicate/gapped versions, segment rotation, checkpoint
fallback, and bit-identical checkpoint + replay recovery."""

import json
import os
import zlib

import pytest

from repro.kb.knowledge_base import KnowledgeBase
from repro.serialize import kb_signature
from repro.server.wal import (
    Wal,
    WalCorruption,
    checkpoint_path,
    decode_line,
    encode_record,
    latest_checkpoint,
    list_segments,
    read_journal,
    segment_path,
    write_checkpoint,
)


def op(kind="tell", view="bird", rules="bird_of(a).", seers=("bird",)):
    return {
        "op": kind,
        "view": view,
        "rules": rules,
        "isa": [],
        "seers": list(seers),
    }


def version_ops(v):
    """A replayable op stream: version 1 defines the view every later
    version tells into (recovery replays through ``kb.apply_op``, which
    rejects tells against undefined objects)."""
    if v == 1:
        return [op(kind="define", rules="fly(X) :- bird_of(X).")]
    return [op(rules=f"bird_of(c{v}).")]


def write_versions(directory, n, start=1, **wal_kwargs):
    wal_kwargs.setdefault("fsync", "never")
    wal = Wal(directory, **wal_kwargs)
    wal.recover()
    for v in range(start, start + n):
        wal.append(v, version_ops(v))
    wal.close()
    return wal


class TestRecordCodec:
    def test_round_trip(self):
        ops = [op(), op(kind="retract", rules="p(b).")]
        record = decode_line(encode_record(7, ops))
        assert record.version == 7
        assert list(record.ops) == ops

    def test_crc_covers_payload(self):
        line = encode_record(1, [op()])
        head, crc, payload = line.split(b":", 2)
        computed = zlib.crc32(payload[:-1]) & 0xFFFFFFFF
        assert crc == b"%08x" % computed

    def test_missing_newline_is_torn(self):
        with pytest.raises(WalCorruption, match="torn"):
            decode_line(encode_record(1, [op()])[:-1])

    def test_truncated_payload_is_torn(self):
        line = encode_record(1, [op()])
        with pytest.raises(WalCorruption, match="torn"):
            decode_line(line[: len(line) // 2] + b"\n")

    def test_truncated_length_prefix(self):
        with pytest.raises(WalCorruption, match="length prefix"):
            decode_line(b"12\n")

    def test_non_numeric_length_prefix(self):
        with pytest.raises(WalCorruption, match="length prefix"):
            decode_line(b"xx:00000000:{}\n")

    def test_bad_crc(self):
        line = encode_record(1, [op()])
        head, _, rest = line.partition(b":")
        corrupted = head + b":00000000:" + rest.split(b":", 1)[1]
        with pytest.raises(WalCorruption, match="checksum mismatch"):
            decode_line(corrupted)

    def test_non_hex_crc(self):
        payload = b'{"ops":[],"v":1}'
        line = b"%d:zzzzzzzz:%s\n" % (len(payload), payload)
        with pytest.raises(WalCorruption):
            decode_line(line)

    def test_flipped_payload_byte_fails_crc(self):
        line = bytearray(encode_record(3, [op()]))
        line[-5] ^= 0x01
        with pytest.raises(WalCorruption):
            decode_line(bytes(line))

    def test_non_object_payload(self):
        payload = b"[1,2]"
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        line = b"%d:%08x:%s\n" % (len(payload), crc, payload)
        with pytest.raises(WalCorruption, match="bad record payload"):
            decode_line(line)


class TestJournalReader:
    def test_empty_directory(self, tmp_path):
        records, info = read_journal(str(tmp_path))
        assert records == [] and info["segments"] == 0

    def test_reads_in_order_after_version(self, tmp_path):
        write_versions(str(tmp_path), 5)
        records, _ = read_journal(str(tmp_path), after_version=2)
        assert [r.version for r in records] == [3, 4, 5]

    def test_torn_tail_tolerated_and_reported(self, tmp_path):
        write_versions(str(tmp_path), 3)
        _, path = list_segments(str(tmp_path))[-1]
        with open(path, "ab") as handle:
            handle.write(encode_record(4, [op()])[:-7])
        records, info = read_journal(str(tmp_path))
        assert [r.version for r in records] == [1, 2, 3]
        assert info["torn_tail"] is True
        assert info["truncate_to"][0] == path

    def test_interior_corruption_raises(self, tmp_path):
        write_versions(str(tmp_path), 3)
        _, path = list_segments(str(tmp_path))[-1]
        raw = open(path, "rb").read()
        lines = raw.splitlines(keepends=True)
        # Flip a payload byte of the *middle* record: damage followed
        # by a complete record is interior corruption, never a tail.
        middle = bytearray(lines[1])
        middle[-5] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(lines[0] + bytes(middle) + lines[2])
        with pytest.raises(WalCorruption):
            read_journal(str(tmp_path))

    def test_duplicate_version_raises(self, tmp_path):
        path = segment_path(str(tmp_path), 1)
        with open(path, "wb") as handle:
            handle.write(encode_record(1, [op()]))
            handle.write(encode_record(1, [op()]))
        with pytest.raises(WalCorruption, match="duplicate version"):
            read_journal(str(tmp_path))

    def test_version_gap_raises(self, tmp_path):
        path = segment_path(str(tmp_path), 1)
        with open(path, "wb") as handle:
            handle.write(encode_record(1, [op()]))
            handle.write(encode_record(3, [op()]))
        with pytest.raises(WalCorruption, match="gap"):
            read_journal(str(tmp_path))

    def test_version_below_segment_name_raises(self, tmp_path):
        path = segment_path(str(tmp_path), 10)
        with open(path, "wb") as handle:
            handle.write(encode_record(2, [op()]))
        with pytest.raises(WalCorruption, match="below"):
            read_journal(str(tmp_path))

    def test_gap_across_segments_raises(self, tmp_path):
        with open(segment_path(str(tmp_path), 1), "wb") as handle:
            handle.write(encode_record(1, [op()]))
        with open(segment_path(str(tmp_path), 5), "wb") as handle:
            handle.write(encode_record(5, [op()]))
        with pytest.raises(WalCorruption, match="gap"):
            read_journal(str(tmp_path))

    def test_torn_tail_in_sealed_segment_raises(self, tmp_path):
        # A torn record is only tolerable at the end of the *final*
        # segment; a later segment existing proves the damage is not a
        # crash tail.
        with open(segment_path(str(tmp_path), 1), "wb") as handle:
            handle.write(encode_record(1, [op()]))
            handle.write(encode_record(2, [op()])[:-9])
        with open(segment_path(str(tmp_path), 3), "wb") as handle:
            handle.write(encode_record(3, [op()]))
        with pytest.raises(WalCorruption):
            read_journal(str(tmp_path))


class TestWriterRotation:
    def test_segments_rotate_at_size(self, tmp_path):
        wal = write_versions(str(tmp_path), 10, segment_bytes=150)
        segments = list_segments(str(tmp_path))
        assert len(segments) > 1
        assert wal.writer.rotations == len(segments) - 1
        records, _ = read_journal(str(tmp_path))
        assert [r.version for r in records] == list(range(1, 11))

    def test_segment_names_are_first_versions(self, tmp_path):
        write_versions(str(tmp_path), 6, segment_bytes=150)
        for first_version, path in list_segments(str(tmp_path)):
            records, _ = read_journal(os.path.dirname(path))
            in_segment = [
                r.version
                for r in records
                if r.version >= first_version
            ]
            assert in_segment[0] == first_version

    def test_resume_appends_to_last_segment(self, tmp_path):
        write_versions(str(tmp_path), 3)
        write_versions(str(tmp_path), 2, start=4)
        records, _ = read_journal(str(tmp_path))
        assert [r.version for r in records] == [1, 2, 3, 4, 5]

    def test_resume_truncates_torn_tail(self, tmp_path):
        write_versions(str(tmp_path), 3)
        _, path = list_segments(str(tmp_path))[-1]
        with open(path, "ab") as handle:
            handle.write(b"999:00000000:torn")
        wal = Wal(str(tmp_path), fsync="never")
        wal.recover()
        wal.append(4, [op()])
        wal.close()
        records, info = read_journal(str(tmp_path))
        assert [r.version for r in records] == [1, 2, 3, 4]
        assert info["torn_tail"] is False


class TestCheckpoints:
    def make_kb(self):
        kb = KnowledgeBase()
        kb.define("bird", "fly(X) :- bird_of(X).\nbird_of(tweety).")
        return kb

    def test_checkpoint_round_trip(self, tmp_path):
        kb = self.make_kb()
        write_checkpoint(str(tmp_path), kb, 5)
        version, restored = latest_checkpoint(str(tmp_path))
        assert version == 5
        assert kb_signature(restored) == kb_signature(kb)

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        kb = self.make_kb()
        write_checkpoint(str(tmp_path), kb, 3)
        kb.tell("bird", "bird_of(polly).")
        write_checkpoint(str(tmp_path), kb, 6)
        with open(checkpoint_path(str(tmp_path), 6), "w") as handle:
            handle.write('{"half": ')
        version, restored = latest_checkpoint(str(tmp_path))
        assert version == 3
        assert restored is not None

    def test_no_readable_checkpoint(self, tmp_path):
        version, restored = latest_checkpoint(str(tmp_path))
        assert version == 0 and restored is None

    def test_checkpoint_truncates_sealed_segments(self, tmp_path):
        wal = Wal(str(tmp_path), fsync="never", segment_bytes=150,
                  checkpoint_every=None)
        kb, _ = wal.recover()
        kb.define("bird", "")
        wal.append(1, [{"op": "define", "view": "bird", "rules": "",
                        "isa": [], "seers": ["bird"]}])
        for v in range(2, 9):
            kb.apply_op(op(rules=f"p(c{v})."))
            wal.append(v, [op(rules=f"p(c{v}).")])
        before = len(list_segments(str(tmp_path)))
        assert before > 1
        wal.checkpoint(kb, 8)
        after = list_segments(str(tmp_path))
        assert len(after) < before
        # Recovery still reaches version 8 from checkpoint + suffix.
        wal2 = Wal(str(tmp_path), fsync="never")
        kb2, version = wal2.recover()
        assert version == 8
        assert kb_signature(kb2) == kb_signature(kb)
        wal.close()
        wal2.close()

    def test_recovers_from_checkpoint_with_legacy_grounding_key(self, tmp_path):
        # A checkpoint written while GroundingOptions still had the
        # domain_pruning field.  latest_checkpoint skips what it cannot
        # load, so rejecting the key would silently recover an older
        # state — here, with the journal truncated, an empty KB.
        kb = self.make_kb()
        path = write_checkpoint(str(tmp_path), kb, 5)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["kb"]["config"]["grounding"]["domain_pruning"] = True
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        wal = Wal(str(tmp_path), fsync="never")
        recovered, version = wal.recover()
        wal.close()
        assert version == 5
        assert kb_signature(recovered) == kb_signature(kb)
        assert recovered.ask("bird", "fly(tweety)")

    def test_keep_checkpoints_bound(self, tmp_path):
        wal = Wal(str(tmp_path), fsync="never", keep_checkpoints=2,
                  checkpoint_every=None)
        kb, _ = wal.recover()
        kb.define("bird", "")
        wal.append(1, [{"op": "define", "view": "bird", "rules": "",
                        "isa": [], "seers": ["bird"]}])
        for v in (1, 2, 3):
            wal.checkpoint(kb, v)
        names = sorted(
            name for name in os.listdir(str(tmp_path))
            if name.startswith("checkpoint-")
        )
        assert len(names) == 2
        assert names[-1].endswith("000000000003.json")
        wal.close()


class TestRecovery:
    def test_bit_identical_replay(self, tmp_path):
        wal = Wal(str(tmp_path), fsync="never", checkpoint_every=None)
        kb, version = wal.recover()
        assert version == 0
        ops_log = [
            {"op": "define", "view": "bird",
             "rules": "fly(X) :- bird_of(X).\nbird_of(tweety).",
             "isa": [], "seers": ["bird"]},
            {"op": "define", "view": "penguin",
             "rules": "-fly(X) :- penguin_of(X).",
             "isa": ["bird"], "seers": ["penguin"]},
            {"op": "tell", "view": "bird", "rules": "bird_of(polly).",
             "isa": [], "seers": ["bird", "penguin"]},
            {"op": "retract", "view": "bird", "rules": "bird_of(polly).",
             "isa": [], "seers": ["bird", "penguin"]},
        ]
        for v, one in enumerate(ops_log, start=1):
            kb.apply_op(one)
            wal.append(v, [one])
        wal.close()

        oracle = KnowledgeBase()
        for one in ops_log:
            oracle.apply_op(one)

        wal2 = Wal(str(tmp_path), fsync="never")
        recovered, version = wal2.recover()
        assert version == len(ops_log)
        assert wal2.replayed == len(ops_log)
        assert kb_signature(recovered) == kb_signature(oracle)
        assert kb_signature(recovered) == kb_signature(kb)
        wal2.close()

    def test_recover_tolerates_torn_tail(self, tmp_path):
        write_versions(str(tmp_path), 4)
        _, path = list_segments(str(tmp_path))[-1]
        with open(path, "ab") as handle:
            handle.write(encode_record(5, [op()])[:-3])
        wal = Wal(str(tmp_path), fsync="never")
        kb, version = wal.recover()
        assert version == 4
        wal.close()

    def test_recover_raises_on_interior_corruption(self, tmp_path):
        write_versions(str(tmp_path), 3)
        _, path = list_segments(str(tmp_path))[-1]
        raw = open(path, "rb").read()
        lines = raw.splitlines(keepends=True)
        damaged = bytearray(lines[0])
        damaged[-4] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(damaged) + lines[1] + lines[2])
        with pytest.raises(WalCorruption):
            Wal(str(tmp_path), fsync="never").recover()

    def test_fsync_always_counts_syncs(self, tmp_path):
        wal = Wal(str(tmp_path), fsync="always", checkpoint_every=None)
        wal.recover()
        wal.append(1, [op()])
        wal.append(2, [op()])
        assert wal.writer.fsyncs >= 2
        wal.close()

    def test_stats_shape(self, tmp_path):
        wal = write_versions(str(tmp_path), 2)
        stats = wal.stats()
        assert stats["appends"] == 2
        assert stats["bytes"] > 0
        assert stats["fsync"] == "never"


def test_checkpoint_file_is_json(tmp_path):
    kb = KnowledgeBase()
    kb.define("bird", "bird_of(tweety).")
    path = write_checkpoint(str(tmp_path), kb, 1)
    payload = json.load(open(path))
    assert payload["version"] == 1
    assert payload["format"].startswith("olp-checkpoint/")
