"""Regressions for :meth:`KnowledgeBase.query` answer shape.

Repeated-variable patterns (``path(X, X)``) and zero-arity goals are
the two places a goal-directed rewrite can silently diverge from
matching against the materialized model: the demand engine joins on
positional rows, so a repeated goal variable must be re-checked after
the fact, and a 0-ary goal has the empty adornment ``""``.  These tests
pin both paths to byte-identical answers (literals, bindings *and*
sort order) so routing a query through ``strategy="demand"`` can never
change what the caller sees.
"""

import pytest

from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.query import QueryMode, answers_in
from repro.lang.errors import QueryError
from repro.obs import instrumented

PROGRAM = """
edge(a, a). edge(a, b). edge(b, b). edge(b, c). edge(c, a).
path(X, Y) <- edge(X, Y).
path(X, Z) <- edge(X, Y), path(Y, Z).
ok <- edge(a, b).
missing <- edge(c, c).
"""


@pytest.fixture
def kb():
    kb = KnowledgeBase()
    kb.define("m", rules=PROGRAM)
    return kb


def shape(answers):
    return [(str(a.literal), dict(a.bindings.items())) for a in answers]


class TestRepeatedVariables:
    def test_demand_matches_materialized(self, kb):
        demand = kb.query("m", "path(X, X)", strategy="demand")
        materialized = kb.query("m", "path(X, X)", strategy="auto")
        assert shape(demand) == shape(materialized)
        # Every node sits on the a -> b -> c -> a cycle plus two self
        # loops, so every node reaches itself.
        assert [s for s, _ in shape(demand)] == [
            "path(a, a)",
            "path(b, b)",
            "path(c, c)",
        ]

    def test_matches_answers_in(self, kb):
        model = kb.view("m").least_model
        assert shape(kb.query("m", "path(X, X)", strategy="demand")) == shape(
            answers_in(model, "path(X, X)")
        )

    def test_no_duplicate_answers(self, kb):
        # path(a, a) is derivable through many different edge chains;
        # the answer list must still carry it exactly once.
        answers = kb.query("m", "path(X, X)", strategy="demand")
        literals = [str(a.literal) for a in answers]
        assert len(literals) == len(set(literals))

    def test_bindings_carry_the_repeated_variable_once(self, kb):
        for answer in kb.query("m", "path(X, X)", strategy="demand"):
            assert [str(v) for v in answer.bindings.as_dict()] == ["X"]


class TestZeroArityGoals:
    def test_entailed(self, kb):
        demand = kb.query("m", "ok", strategy="demand")
        materialized = kb.query("m", "ok", strategy="auto")
        assert shape(demand) == shape(materialized) == [("ok", {})]
        assert kb.ask("m", "ok", strategy="demand")

    def test_not_entailed(self, kb):
        assert kb.query("m", "missing", strategy="demand") == []
        assert kb.query("m", "missing", strategy="auto") == []
        assert not kb.ask("m", "missing", strategy="demand")

    def test_all_modes_agree_on_seminegative_views(self, kb):
        # On a negation-free program every mode's answer set coincides,
        # whichever strategy served it.
        for mode in QueryMode:
            assert shape(kb.query("m", "ok", mode, strategy="demand")) == [
                ("ok", {})
            ]


class TestStrategyValidation:
    def test_unknown_strategy_rejected(self, kb):
        with pytest.raises(QueryError):
            kb.query("m", "ok", strategy="bogus")

    def test_seminaive_is_not_a_query_strategy(self, kb):
        # Engine strategies (seminaive/naive) configure materialization,
        # not the per-query read path.
        with pytest.raises(QueryError):
            kb.query("m", "ok", strategy="seminaive")

    def test_invalid_mode_is_refused_before_routing(self, kb):
        # Validated once, before the demand route is asked: a refused
        # read leaves no demand counter behind.
        with instrumented() as obs:
            with pytest.raises(QueryError):
                kb.query("m", "path(a, X)", mode="bogus", strategy="demand")
            counters = obs.snapshot()["counters"]
        assert not [name for name in counters if name.startswith("query.demand.")]
