"""Unit tests for model enumeration (models / AF / stable) and budgets
— anchored on Example 5 of the paper."""

import functools

import pytest

from repro.classical.threevalued import three_valued_models
from repro.core.interpretation import Interpretation
from repro.core.semantics import OrderedSemantics
from repro.core.solver import SearchBudget
from repro.grounding.grounder import Grounder
from repro.lang.errors import SearchBudgetExceeded
from repro.lang.literals import Literal
from repro.lang.parser import parse_rules
from repro.obs import instrumented
from repro.obs.trace import trace
from repro.reductions.direct import direct_assumption_free_models, direct_models
from repro.workloads import diamond
from repro.workloads.paper import example3, example5, figure2

from ..conftest import semantics_of


def literal_sets(models):
    return {frozenset(map(str, m.literals)) for m in models}


class TestExample5:
    @pytest.fixture
    def sem(self):
        return OrderedSemantics(example5(), "c1")

    def test_stable_models(self, sem):
        assert literal_sets(sem.stable_models()) == {
            frozenset({"a", "-b", "c"}),
            frozenset({"-a", "b", "c"}),
        }

    def test_c_alone_assumption_free_but_not_stable(self, sem):
        af = literal_sets(sem.assumption_free_models())
        assert frozenset({"c"}) in af
        assert frozenset({"c"}) not in literal_sets(sem.stable_models())

    def test_af_models_exactly(self, sem):
        assert literal_sets(sem.assumption_free_models()) == {
            frozenset({"c"}),
            frozenset({"a", "-b", "c"}),
            frozenset({"-a", "b", "c"}),
        }

    def test_is_stable_model_checker(self, sem):
        assert sem.is_stable_model(sem.interpretation(["a", "-b", "c"]))
        assert not sem.is_stable_model(sem.interpretation(["c"]))
        assert not sem.is_stable_model(sem.interpretation(["a", "c"]))

    def test_least_model_in_every_af_model(self, sem):
        lm = sem.least_model
        for m in sem.assumption_free_models():
            assert lm.literals <= m.literals


class TestFigure2:
    def test_empty_is_unique_af_model(self):
        sem = OrderedSemantics(figure2(), "c1")
        assert literal_sets(sem.assumption_free_models()) == {frozenset()}
        assert literal_sets(sem.stable_models()) == {frozenset()}

    def test_no_total_model_exists(self):
        # The paper: "no total model exists for the program P2 ... in C".
        sem = OrderedSemantics(figure2(), "c1")
        assert sem.total_models() == []


class TestLimitsAndBudgets:
    def test_limit_stops_enumeration(self):
        sem = OrderedSemantics(example3(), "c")
        assert len(sem.models(limit=2)) == 2

    def test_af_limit(self):
        sem = OrderedSemantics(example5(), "c1")
        assert len(sem.assumption_free_models(limit=1)) == 1

    def test_estimate_budget(self):
        sem = OrderedSemantics(
            example5(), "c1", budget=SearchBudget(max_leaves=2)
        )
        with pytest.raises(SearchBudgetExceeded):
            sem.assumption_free_models()

    def test_visit_budget(self):
        sem = OrderedSemantics(
            example3(), "c", budget=SearchBudget(max_visited=3)
        )
        with pytest.raises(SearchBudgetExceeded):
            sem.models()

    def test_interpretation_count(self):
        sem = OrderedSemantics(example3(), "c")
        # Base {a, b}: 3^2 = 9 interpretations.
        assert len(list(sem.enumerator.interpretations())) == 9

    def test_visit_budget_error_reports_progress(self):
        sem = OrderedSemantics(
            example3(), "c", budget=SearchBudget(max_visited=3)
        )
        with pytest.raises(SearchBudgetExceeded) as exc_info:
            sem.models()
        error = exc_info.value
        assert error.visited == 3
        assert error.budget == 3
        assert error.estimate is None
        assert "after 3" in str(error)

    def test_af_visit_budget_error_reports_progress(self):
        sem = OrderedSemantics(
            example5(), "c1", budget=SearchBudget(max_visited=2)
        )
        with pytest.raises(SearchBudgetExceeded) as exc_info:
            sem.assumption_free_models()
        error = exc_info.value
        assert error.visited == 2
        assert error.budget == 2

    def test_estimate_budget_error_reports_estimate(self):
        sem = OrderedSemantics(
            example5(), "c1", budget=SearchBudget(max_leaves=2)
        )
        with pytest.raises(SearchBudgetExceeded) as exc_info:
            sem.assumption_free_models()
        error = exc_info.value
        assert error.estimate is not None and error.estimate > 2
        assert error.budget == 2
        assert error.visited is None


def facts(n: int):
    """``p0. .. p(n-1).``, grounded: its rules and base."""
    g = Grounder().ground_rules(parse_rules(" ".join(f"p{i}." for i in range(n))))
    return g.rules, g.base


def example3_enumerator(max_leaves: int):
    return OrderedSemantics(example3(), "c", budget=SearchBudget(max_leaves)).enumerator


#: Every caller of the 3^n enumerator, over a base one atom past its
#: bound: (the call, the estimate it refuses, the bound).
REFUSALS = {
    "enumerator": (lambda: example3_enumerator(8).interpretations(), 3**2, 8),
    "three_valued_models": (lambda: three_valued_models(*facts(15)), 3**15, 3**14),
    "direct_models": (lambda: direct_models(*facts(13)), 3**13, 3**12),
    "direct_af_models": (lambda: direct_assumption_free_models(*facts(13)), 3**13, 3**12),
}


@pytest.mark.parametrize("caller", sorted(REFUSALS))
def test_every_enumerator_refuses_through_one_path(caller):
    call, estimate, bound = REFUSALS[caller]
    with instrumented() as obs:
        with pytest.raises(SearchBudgetExceeded) as exc_info:
            list(call())
        assert obs.snapshot()["counters"]["search.budget_refusals"] == 1
    error = exc_info.value
    assert (error.estimate, error.budget, error.visited) == (estimate, bound, None)


class TestHeadRestriction:
    def test_non_head_atoms_stay_undefined_in_af_models(self):
        # q heads no rule: it cannot be true or false in an AF model.
        sem = semantics_of("component c { a :- q. }", "c")
        for m in sem.assumption_free_models():
            assert all(l.predicate != "q" for l in m)


class TestIdSpaceSearch:
    """The search decides Definitions 3 and 7 on the compiled index's
    counters: no literal and no interpretation is built per leaf."""

    @staticmethod
    def built(n: int, monkeypatch) -> tuple[int, int, int]:
        """``(Literal, Interpretation, models)`` built by ``sem.models()``
        on a cold ``diamond(n)`` view (``3**n`` leaves)."""
        sem = OrderedSemantics(diamond(n), "bottom")
        counts = {Literal: 0, Interpretation: 0}

        def counted(cls, make):
            @functools.wraps(make)
            def wrapper(*args, **kwargs):
                counts[cls] += 1
                return make(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Literal, "__init__", counted(Literal, Literal.__init__))
        # Every interpretation is made by the constructor or by deferred.
        init = counted(Interpretation, Interpretation.__init__)
        deferred = counted(Interpretation, Interpretation.deferred.__func__)
        monkeypatch.setattr(Interpretation, "__init__", init)
        monkeypatch.setattr(Interpretation, "deferred", classmethod(deferred))
        with trace("models") as ctx:
            models = sem.models()
        monkeypatch.undo()
        assert ctx.costs["leaves_visited"] == 3**n
        return counts[Literal], counts[Interpretation], len(models)

    def test_no_literal_or_interpretation_per_leaf(self, monkeypatch):
        small = self.built(4, monkeypatch)
        large = self.built(8, monkeypatch)
        # Literals: the least model's, decoded once, never one per leaf.
        assert large[0] <= 2 * small[0] < 3**4
        # Interpretations: the least model and each model returned.
        for _, interpretations, models in (small, large):
            assert interpretations == models + 1
