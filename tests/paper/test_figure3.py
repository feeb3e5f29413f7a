"""Experiment F3 — Figure 3 of the paper: the loan program.  The four
scenarios walked through in the introduction:

1. empty ``myself`` — "as no rule can be actually fired, no inference
   is possible at myself level";
2. ``inflation(12)`` — "it is possible to infer from Expert2 that
   take_loan is true";
3. ``inflation(12), loan_rate(16)`` — "both pieces of information are
   defeated and nothing can be said about taking loans";
4. ``inflation(19), loan_rate(16)`` — "the rule of Expert4 is overruled
   by the rule of Expert3 ... take_loan is inferred at myself level".
"""

import pytest

from repro.core.interpretation import TruthValue
from repro.core.semantics import OrderedSemantics
from repro.workloads.paper import figure3, scaled_figure3


def loan_semantics(*facts):
    return OrderedSemantics(figure3(facts), "c1")


class TestScenarios:
    def test_scenario_0_nothing_inferable(self):
        sem = loan_semantics()
        assert sem.undefined("take_loan")
        assert len(sem.least_model) == 0

    def test_scenario_1_expert2_fires(self):
        sem = loan_semantics("inflation(12).")
        assert sem.holds("take_loan")

    def test_scenario_2_mutual_defeat(self):
        sem = loan_semantics("inflation(12).", "loan_rate(16).")
        assert sem.undefined("take_loan")
        # The facts themselves are known.
        assert sem.holds("inflation(12)")
        assert sem.holds("loan_rate(16)")

    def test_scenario_3_expert3_overrules_expert4(self):
        sem = loan_semantics("inflation(19).", "loan_rate(16).")
        assert sem.holds("take_loan")

    def test_scenario_boundary_guard_not_met(self):
        # inflation 11 does not satisfy X > 11.
        sem = loan_semantics("inflation(11).")
        assert sem.undefined("take_loan")

    def test_neg_take_loan_is_never_derivable(self):
        # A reproduction finding (documented in EXPERIMENTS.md): by
        # Definition 2 a defeater need only be *non-blocked*, not
        # applicable.  Expert2 always has a non-blocked ground instance
        # (e.g. take_loan <- inflation(16)), so Expert4's conclusion is
        # always defeated and -take_loan never enters the least model.
        for facts in [("loan_rate(16).",), ("loan_rate(20).",),
                      ("inflation(5).", "loan_rate(20).")]:
            sem = loan_semantics(*facts)
            assert sem.undefined("take_loan"), facts

    def test_high_inflation_alone_is_self_defeating(self):
        # inflation(19) puts the constant 19 in the universe, creating a
        # non-blocked Expert4 instance over loan_rate(19) that defeats
        # Expert2 — another guard-constant sensitivity of Definition 2.
        sem = loan_semantics("inflation(19).")
        assert sem.undefined("take_loan")

    def test_scenario_rate_below_threshold_inert(self):
        sem = loan_semantics("loan_rate(14).")
        assert sem.undefined("take_loan")

    def test_expert3_guard_boundary(self):
        # X > Y + 2 exactly at the boundary (18 = 16 + 2) does not fire;
        # Expert2 and Expert4 still defeat each other.
        sem = loan_semantics("inflation(18).", "loan_rate(16).")
        assert sem.undefined("take_loan")


class TestStatuses:
    def test_scenario_3_rule_statuses(self):
        sem = loan_semantics("inflation(19).", "loan_rate(16).")
        model = sem.least_model
        ev = sem.evaluator
        expert4 = [r for r in sem.ground.rules if r.component == "c4"]
        fired_expert4 = [r for r in expert4 if ev.applicable(r, model)]
        assert fired_expert4, "Expert4's rule instance should be applicable"
        assert all(ev.overruled(r, model) for r in fired_expert4)

    def test_scenario_2_defeat_statuses(self):
        sem = loan_semantics("inflation(12).", "loan_rate(16).")
        model = sem.least_model
        ev = sem.evaluator
        applicable_conflicting = [
            r
            for r in sem.ground.rules
            if r.head.predicate == "take_loan" and ev.applicable(r, model)
        ]
        assert len(applicable_conflicting) == 2
        assert all(ev.defeated(r, model) for r in applicable_conflicting)


def expected_take_loan(inflation: int, rate: int) -> TruthValue:
    """The formal Definition-2 semantics (see
    test_neg_take_loan_is_never_derivable): take_loan is TRUE when
    Expert3 fires, or when Expert2 fires with no constant above 14 in
    the universe (which would create a non-blocked defeating Expert4
    instance); -take_loan is never derivable; everything else is
    undefined."""
    expert3 = inflation > rate + 2
    expert2_undefeated = inflation > 11 and inflation <= 14 and rate <= 14
    return TruthValue.TRUE if expert3 or expert2_undefeated else TruthValue.UNDEFINED


def assert_surface(inflations, rates):
    scenarios = {f"i{i}_r{r}": (i, r) for i in inflations for r in rates}
    programs = scaled_figure3(scenarios)
    for name, (inflation, rate) in scenarios.items():
        value = OrderedSemantics(programs[name], "c1").value("take_loan")
        assert value is expected_take_loan(inflation, rate), (name, value)


class TestScaledSweep:
    def test_decision_surface(self):
        assert_surface((10, 12, 15, 19, 25), (10, 14, 16, 20))

    @pytest.mark.parametrize("grid", [3, 5, 7])
    def test_decision_surface_grid(self, grid):
        # Inflation and loan rate both sweep 10, 12, ..., 10 + 2(grid-1).
        steps = [10 + 2 * i for i in range(grid)]
        assert_surface(steps, steps)
