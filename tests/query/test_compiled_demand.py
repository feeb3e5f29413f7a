"""Reuse and staleness of compiled demand routes (docs/query.md, "What is
compiled, when, and what invalidates it").

A holder of a program value compiles a view's demand route once and asks
it many times; the route must be reused while the program value and the
fact sources' schema stand, and replaced the moment either moves.
"""

import pytest

import repro.query.api as api
from repro.core.semantics import OrderedSemantics
from repro.db.edb import EdbStore
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.query import answers_in
from repro.lang.parser import parse_rules
from repro.lang.program import OrderedProgram
from repro.lang.terms import Constant
from repro.obs import instrumented
from repro.query import CompiledDemand, MemoryFactSource, demand_answers
from repro.workloads.point_query import (
    FOREST_RULES,
    forest_program,
    load_forest_edb,
)

DEPTH = 3
LEAF = 2**DEPTH - 2


def literals(answers):
    return [str(a.literal) for a in answers]


def c(*names):
    return tuple(Constant(n) for n in names)


@pytest.fixture
def store(tmp_path):
    with EdbStore(str(tmp_path / "forest.edb"), object_name="main") as s:
        yield s


@pytest.fixture
def forest_kb(store):
    kb = KnowledgeBase.from_program(load_forest_edb(store, 8, depth=DEPTH))
    kb.attach_edb("main", store)
    return kb


class Spy:
    """Counts calls to one attribute of an object or module."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


class TestPlanReuse:
    def test_same_shape_goals_compile_once(self, forest_kb, monkeypatch):
        spies = [
            Spy(monkeypatch, api, "negative_head_taint"),
            Spy(monkeypatch, api, "analyze_rules"),
            Spy(monkeypatch, api, "build_plan"),
            Spy(monkeypatch, EdbStore, "count"),
            Spy(monkeypatch, EdbStore, "sample"),
        ]
        shapes = [
            [f"ancestor(n{i}_0, X)" for i in range(8)],
            [f"owns(p{i}, n{i}_{LEAF})" for i in range(8)],
        ]
        with instrumented() as obs:
            for goals in shapes:
                assert forest_kb.query("main", goals[0], strategy="demand")
            assert all(spy.calls for spy in spies)
            for spy in spies:
                spy.calls = 0
            for goals in shapes:
                for goal in goals[1:]:
                    assert forest_kb.query("main", goal, strategy="demand")
            counters = obs.snapshot()["counters"]
        assert [spy.calls for spy in spies] == [0] * len(spies)
        assert counters["query.demand.plan.compiled"] == len(shapes)
        assert counters["query.demand.plan.hit"] == 14
        assert counters["query.demand.served"] == 16

    def test_ineligible_shape_is_cached_with_its_reason(self):
        program = OrderedProgram.single(
            tuple(parse_rules("n(z). n(s(X)) <- n(X). m(X) <- n(X), k(X).")),
            name="main",
        )
        compiled = CompiledDemand(program, "main")
        with instrumented() as obs:
            for _ in range(3):
                result = compiled.ask("m(X)")
                assert not result.used and result.reason == "function-growth"
            counters = obs.snapshot()["counters"]
        assert counters["query.demand.plan.compiled"] == 1
        assert counters["query.demand.plan.hit"] == 2
        assert counters["query.demand.fallback.function-growth"] == 3


class TestStaleness:
    def test_tell_and_retract_reach_the_next_query(self, forest_kb):
        goal = "ancestor(n3_0, X)"
        before = literals(forest_kb.query("main", goal, strategy="demand"))
        forest_kb.tell("main", f"parent(n3_{LEAF}, fresh).")
        told = literals(forest_kb.query("main", goal, strategy="demand"))
        assert told == sorted(before + ["ancestor(n3_0, fresh)"])
        forest_kb.retract("main", f"parent(n3_{LEAF}, fresh).")
        assert literals(forest_kb.query("main", goal, strategy="demand")) == before

    def test_unroutable_view_flips_to_counted_fallback(self):
        kb = KnowledgeBase()
        kb.define("main", FOREST_RULES + "parent(a, b). parent(b, c).")
        goal = "ancestor(a, X)"
        served = literals(kb.query("main", goal, strategy="demand"))
        assert served == ["ancestor(a, b)", "ancestor(a, c)"]
        kb.define("doubt", "-ancestor(X, Y) <- parent(Y, X).")
        kb.isa("main", "doubt")
        with instrumented() as obs:
            for _ in range(3):
                assert literals(kb.query("main", goal, strategy="demand")) == served
            counters = obs.snapshot()["counters"]
        assert counters["query.demand.fallback.unroutable"] == 3
        assert "query.demand.served" not in counters
        result = demand_answers(kb.program(), "main", goal)
        assert result.reason == "unroutable" and "negative-head" in result.detail

    def test_attach_after_first_query(self, store):
        kb = KnowledgeBase.from_program(load_forest_edb(store, 2, depth=DEPTH))
        assert kb.query("main", "ancestor(n1_0, X)", strategy="demand") == []
        kb.attach_edb("main", store)
        assert len(kb.query("main", "ancestor(n1_0, X)", strategy="demand")) == LEAF

    def test_bulk_load_into_attached_store(self, store):
        kb = KnowledgeBase()
        kb.define("main", FOREST_RULES)
        kb.attach_edb("main", store)
        store.bulk_load("parent", 2, [c("a", "b")])
        assert kb.query("main", "owns(ann, X)", strategy="demand") == []
        route = kb._demand_routes["main"]
        # Rows of a known relation are fetched at run time: no recompile.
        store.bulk_load("parent", 2, [c("b", "d")])
        assert len(kb.query("main", "ancestor(a, X)", strategy="demand")) == 2
        assert kb._demand_routes["main"] is route
        # A new relation changes the schema the route was compiled against.
        store.bulk_load("owner", 2, [c("ann", "a")])
        assert literals(kb.query("main", "owns(ann, X)", strategy="demand")) == [
            "owns(ann, b)",
            "owns(ann, d)",
        ]
        assert kb._demand_routes["main"] is not route

    def test_validity_is_identity_and_schema(self):
        program = forest_program(1, depth=DEPTH)
        extra = MemoryFactSource()
        compiled = CompiledDemand(program, "main", (extra,))
        assert compiled.valid_for(program, (extra,))
        assert not compiled.valid_for(program, ())
        assert not compiled.valid_for(program, (MemoryFactSource(),))
        assert not compiled.valid_for(forest_program(1, depth=DEPTH), (extra,))
        extra.add(parse_rules("owner(zed, n0_0).")[0].head.atom)
        assert not compiled.valid_for(program, (extra,))


class CountingSource(MemoryFactSource):
    def __init__(self, atoms):
        super().__init__(atoms)
        self.fetches = []

    def fetch(self, predicate, pattern):
        self.fetches.append((predicate, tuple(pattern)))
        return super().fetch(predicate, pattern)


class TestFetchCounts:
    def test_each_pattern_is_fetched_once(self):
        facts = forest_program(1, depth=DEPTH).components()[0].rules
        source = CountingSource(r.head.atom for r in facts if r.is_fact)
        rules_only = OrderedProgram.single(
            tuple(parse_rules(FOREST_RULES)), name="main"
        )
        result = demand_answers(
            rules_only, "main", "ancestor(n0_0, X)", sources=(source,)
        )
        assert len(result.answers) == LEAF
        assert len(source.fetches) <= 12
        assert len(set(source.fetches)) == len(source.fetches)


class TestGuardErrors:
    GUARDED = """
        age(tom, 12). age(penguin, penguin). age(ann, 40).
        adult(X) <- age(X, A), A > 11.
    """

    def test_unevaluable_guard_drops_the_instance_on_both_paths(self):
        program = OrderedProgram.single(
            tuple(parse_rules(self.GUARDED)), name="main"
        )
        result = demand_answers(program, "main", "adult(X)")
        materialized = answers_in(
            OrderedSemantics(program, "main").least_model, "adult(X)"
        )
        assert result.used
        assert literals(result.answers) == literals(materialized)
        assert literals(result.answers) == ["adult(ann)", "adult(tom)"]

    def test_a_broken_guard_is_not_an_empty_answer(self, monkeypatch):
        from repro.lang.builtins import Comparison

        def broken(self, bindings):
            raise RuntimeError("bug in a guard")

        monkeypatch.setattr(Comparison, "holds", broken)
        program = OrderedProgram.single(
            tuple(parse_rules(self.GUARDED)), name="main"
        )
        with pytest.raises(RuntimeError):
            demand_answers(program, "main", "adult(X)")
