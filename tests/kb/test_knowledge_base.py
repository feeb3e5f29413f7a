"""Unit tests for the knowledge-base shell."""

import pytest

from repro.core.interpretation import TruthValue
from repro.core.semantics import OrderedSemantics
from repro.kb.knowledge_base import KnowledgeBase
from repro.lang.errors import OrderError, SemanticsError
from repro.lang.rules import fact
from repro.lang.literals import pos
from repro.obs.trace import trace


@pytest.fixture
def tweety_kb():
    kb = KnowledgeBase()
    # The Figure-1 closure pattern: the general object also states the
    # default absence of the exceptional property, so that the penguin
    # exception is *blocked* (not merely inapplicable) for other birds.
    kb.define(
        "bird",
        """
        fly(X) :- bird_of(X).
        -penguin_of(X) :- bird_of(X).
        """,
    )
    kb.define(
        "penguin",
        """
        -fly(X) :- penguin_of(X).
        bird_of(X) :- penguin_of(X).
        """,
        isa=["bird"],
    )
    kb.tell("penguin", "penguin_of(tweety).")
    kb.tell("bird", "bird_of(woody).")
    return kb


class TestDefinition:
    def test_objects(self, tweety_kb):
        assert tweety_kb.objects == {"bird", "penguin"}
        assert tweety_kb.parents("penguin") == {"bird"}

    def test_duplicate_define_rejected(self, tweety_kb):
        with pytest.raises(SemanticsError):
            tweety_kb.define("bird")

    def test_unknown_parent_rejected(self):
        kb = KnowledgeBase()
        with pytest.raises(SemanticsError):
            kb.define("a", isa=["nope"])

    def test_isa_cycle_rejected(self):
        kb = KnowledgeBase()
        kb.define("a")
        kb.define("b", isa=["a"])
        with pytest.raises(OrderError):
            kb.isa("a", "b")

    def test_tell_accepts_rule_objects(self):
        kb = KnowledgeBase()
        kb.define("o")
        kb.tell("o", [fact(pos("p", "a"))])
        assert kb.ask("o", "p(a)")

    def test_program_snapshot(self, tweety_kb):
        program = tweety_kb.program()
        assert program.order.less("penguin", "bird")


class TestInheritanceAndOverriding:
    def test_exception_wins_at_specific_object(self, tweety_kb):
        assert tweety_kb.ask("penguin", "-fly(tweety)")
        assert not tweety_kb.ask("penguin", "fly(tweety)")

    def test_default_applies_to_ordinary_birds(self, tweety_kb):
        assert tweety_kb.ask("penguin", "fly(woody)")

    def test_general_object_unaffected(self, tweety_kb):
        # The bird object does not see penguin knowledge.
        assert tweety_kb.value("bird", "fly(tweety)") is TruthValue.UNDEFINED

    def test_mutation_invalidates_cache(self, tweety_kb):
        assert not tweety_kb.ask("penguin", "fly(piper)")
        tweety_kb.tell("bird", "bird_of(piper).")
        assert tweety_kb.ask("penguin", "fly(piper)")


class TestDatabaseBridge:
    def test_tell_facts_loads_relations(self):
        from repro.db import Database

        db = Database()
        db.insert("parent", ("adam", "cain"))
        db.insert("parent", ("cain", "enoch"))
        kb = KnowledgeBase()
        kb.define(
            "family",
            """
            anc(X, Y) :- parent(X, Y).
            anc(X, Y) :- parent(X, Z), anc(Z, Y).
            """,
        )
        kb.tell_facts("family", db)
        assert kb.ask("family", "anc(adam, enoch)")

    def test_tell_facts_requires_object(self):
        from repro.db import Database

        kb = KnowledgeBase()
        with pytest.raises(SemanticsError):
            kb.tell_facts("nope", Database())


class TestVersioning:
    def test_derive_creates_overriding_version(self, tweety_kb):
        tweety_kb.derive("penguin_v2", "penguin", "fly(X) :- penguin_of(X), rocket(X).")
        tweety_kb.tell("penguin_v2", "rocket(tweety).")
        # The new version sees the old knowledge ...
        assert tweety_kb.ask("penguin_v2", "penguin_of(tweety)")
        # ... and its local rule overrules the penguin exception.
        assert tweety_kb.ask("penguin_v2", "fly(tweety)")
        # The old version is unchanged.
        assert tweety_kb.ask("penguin", "-fly(tweety)")


class TestQueryModes:
    @pytest.fixture
    def choice_kb(self):
        kb = KnowledgeBase()
        kb.define("top", "a. b. c.")
        kb.define(
            "me",
            """
            -a :- b, c.
            -b :- a.
            """,
            isa=["top"],
        )
        return kb

    def test_cautious_is_least_model(self, choice_kb):
        assert choice_kb.ask("me", "c")
        assert not choice_kb.ask("me", "a")

    def test_credulous_accepts_either_choice(self, choice_kb):
        assert choice_kb.ask("me", "a", mode="credulous")
        assert choice_kb.ask("me", "b", mode="credulous")

    def test_skeptical_requires_all_stable_models(self, choice_kb):
        assert choice_kb.ask("me", "c", mode="skeptical")
        assert not choice_kb.ask("me", "a", mode="skeptical")

    def test_query_bindings(self, tweety_kb):
        answers = tweety_kb.query("penguin", "fly(X)")
        assert [str(a.literal) for a in answers] == ["fly(woody)"]

    def test_stable_models_access(self, choice_kb):
        stable = choice_kb.stable_models("me")
        assert len(stable) == 2

    def test_a_warm_view_searches_its_stable_models_once(self, choice_kb):
        choice_kb.ask("me", "c")
        with trace("alone") as alone:
            OrderedSemantics(choice_kb.program(), "me").stable_models()
        with trace("reads") as reads:
            assert all(choice_kb.ask("me", "c", mode="skeptical") for _ in range(5))
        assert reads.costs["leaves_visited"] == alone.costs["leaves_visited"] > 0
        # The caller's list is a copy of what the view keeps.
        choice_kb.view("me").stable_models().clear()
        assert len(choice_kb.stable_models("me")) == 2
        # A write drops the kept models: the next read searches again.
        choice_kb.tell("me", "c.")
        with trace("after a tell") as after:
            assert choice_kb.ask("me", "c", mode="skeptical")
        assert after.costs["leaves_visited"] == alone.costs["leaves_visited"]
