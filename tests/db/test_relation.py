"""Unit tests for relations and the database."""

import pytest

from repro.db.database import Database
from repro.db.relation import Relation, RelationError
from repro.lang.literals import Atom
from repro.lang.parser import parse_rules
from repro.lang.terms import Constant


@pytest.fixture
def parent():
    return Relation(
        "parent", 2, [("adam", "cain"), ("adam", "abel"), ("cain", "enoch")]
    )


class TestRelation:
    def test_construction_and_membership(self, parent):
        assert len(parent) == 3
        assert (Constant("adam"), Constant("cain")) in parent
        assert ("adam", "cain") in parent  # coercion
        assert ("cain", "adam") not in parent

    def test_arity_checked(self):
        with pytest.raises(RelationError):
            Relation("p", 2, [("a",)])

    def test_non_ground_rejected(self):
        from repro.lang.terms import Variable

        with pytest.raises(RelationError):
            Relation("p", 1, [(Variable("X"),)])

    def test_atoms(self, parent):
        atoms = parent.atoms()
        assert Atom("parent", (Constant("adam"), Constant("cain"))) in atoms
        assert len(atoms) == 3

    def test_select_eq(self, parent):
        adams = parent.select_eq(0, "adam")
        assert len(adams) == 2

    def test_project(self, parent):
        children = parent.project([1])
        assert len(children) == 3
        assert (Constant("enoch"),) in children

    def test_project_reorders(self, parent):
        flipped = parent.project([1, 0])
        assert ("cain", "adam") in flipped

    def test_union_difference_intersection(self, parent):
        extra = Relation("parent", 2, [("eve", "cain"), ("adam", "cain")])
        assert len(parent.union(extra)) == 4
        assert len(parent.difference(extra)) == 2
        assert len(parent.intersection(extra)) == 1

    def test_shape_mismatch(self, parent):
        with pytest.raises(RelationError):
            parent.union(Relation("q", 1, [("a",)]))

    def test_integers(self):
        r = Relation("score", 2, [("ana", 7), ("bob", 3)])
        high = r.select(lambda row: row[1].value > 5)
        assert len(high) == 1

    def test_immutability(self, parent):
        with pytest.raises(AttributeError):
            parent.name = "other"


class TestDatabase:
    def test_insert_creates_relation(self):
        db = Database()
        db.insert("parent", ("adam", "cain"))
        db.insert("parent", ("adam", "abel"))
        assert len(db.relation("parent")) == 2

    def test_arity_conflict(self):
        db = Database()
        db.insert("p", ("a",))
        with pytest.raises(RelationError):
            db.add_relation(Relation("p", 2))

    def test_unknown_relation(self):
        with pytest.raises(RelationError):
            Database().relation("nope")

    def test_facts_round_trip(self):
        facts = parse_rules("parent(adam, cain). parent(adam, abel). age(adam, 930).")
        db = Database.from_facts(facts)
        assert {r.head for r in db.facts()} == {f.head for f in facts}

    def test_from_facts_rejects_rules(self):
        with pytest.raises(RelationError):
            Database.from_facts(parse_rules("p(X) :- q(X)."))

    def test_as_component(self):
        db = Database.from_facts(parse_rules("p(a). q(b)."))
        comp = db.as_component("edb")
        assert comp.name == "edb"
        assert len(comp) == 2

    def test_copy_is_independent(self):
        db = Database()
        db.insert("p", ("a",))
        clone = db.copy()
        clone.insert("p", ("b",))
        assert len(db.relation("p")) == 1
        assert len(clone.relation("p")) == 2
