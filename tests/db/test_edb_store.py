"""Unit tests for the disk-backed extensional store."""

import pytest

from repro.db.edb import EdbError, EdbStore
from repro.lang.terms import Compound, Constant


@pytest.fixture
def store(tmp_path):
    with EdbStore(str(tmp_path / "facts.edb"), object_name="world") as s:
        yield s


ROWS = [
    (Constant("a"), Constant("b")),
    (Constant("b"), Constant("c")),
    (Constant("b"), Constant("d")),
]


class TestRoundTrip:
    def test_bulk_load_and_fetch(self, store):
        store.bulk_load("edge", 2, ROWS)
        assert store.count("edge") == 3
        assert store.arity("edge") == 2
        assert sorted(map(str, store.names())) == ["edge"]
        assert set(store.fetch("edge", [None, None])) == set(ROWS)

    def test_indexed_point_fetch(self, store):
        store.bulk_load("edge", 2, ROWS)
        got = set(store.fetch("edge", [Constant("b"), None]))
        assert got == {ROWS[1], ROWS[2]}
        assert set(store.fetch("edge", [None, Constant("b")])) == {ROWS[0]}
        assert set(store.fetch("edge", [Constant("a"), Constant("b")])) == {
            ROWS[0]
        }
        assert list(store.fetch("edge", [Constant("z"), None])) == []

    def test_duplicate_rows_collapse(self, store):
        store.bulk_load("edge", 2, ROWS)
        store.bulk_load("edge", 2, ROWS)
        assert store.count("edge") == 3

    def test_count_scans_once_per_load(self, store):
        store.bulk_load("edge", 2, ROWS[:2])
        statements = []
        store._conn.set_trace_callback(statements.append)
        assert store.count("edge") == 2
        scans = len(statements)
        assert scans == 1
        assert store.count("edge") == 2 and store.total_facts() == 2
        assert len(statements) == scans
        store.bulk_load("edge", 2, ROWS[2:])
        assert store.count("edge") == 3 and store.total_facts() == 3

    def test_compound_terms_round_trip(self, store):
        row = (Compound("pair", (Constant("a"), Constant(1))),)
        store.bulk_load("box", 1, [row])
        assert list(store.fetch("box", [None])) == [row]
        assert list(store.fetch("box", [row[0]])) == [row]

    def test_integers_round_trip(self, store):
        store.bulk_load("age", 2, [(Constant("ann"), Constant(41))])
        ((who, age),) = store.fetch("age", [None, Constant(41)])
        assert age.value == 41 and who.value == "ann"

    def test_reopen_persists(self, tmp_path):
        path = str(tmp_path / "keep.edb")
        with EdbStore(path, object_name="world") as s:
            s.bulk_load("edge", 2, ROWS)
        with EdbStore(path) as s:
            assert s.object_name == "world"
            assert s.count("edge") == 3
            assert s.total_facts() == 3

    def test_facts_expand_to_ground_rules(self, store):
        store.bulk_load("edge", 2, ROWS[:1])
        (rule,) = store.facts()
        assert rule.is_fact and rule.is_ground
        assert str(rule.head.atom) == "edge(a, b)"


class TestValidation:
    def test_arity_clash_rejected(self, store):
        store.bulk_load("edge", 2, ROWS)
        with pytest.raises(EdbError):
            store.bulk_load("edge", 3, [(Constant("x"),) * 3])

    def test_unknown_relation(self, store):
        assert store.arity("nope") is None
        assert store.count("nope") == 0
        assert list(store.fetch("nope", [None])) == []

    def test_sample_is_bounded(self, store):
        store.bulk_load(
            "n", 1, [(Constant(f"c{i}"),) for i in range(100)]
        )
        assert len(store.sample("n")) <= 32
