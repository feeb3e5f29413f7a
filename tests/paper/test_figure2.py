"""Experiment F2 — Figure 2 of the paper: ordered program P2 with
defeating.  The paper's claims:

* "we cannot establish whether mimmo is to receive a free ticket as
  from the point of view of C1, C3 cannot be trusted better than C2 or
  vice versa" — rich/poor defeat each other and free_ticket stays
  undefined;
* I2 = {rich(mimmo), poor(mimmo)} is a (non-total) interpretation but
  NOT a model for P2 in C1 (Example 3);
* the two ground facts defeat each other (Example 2);
* the empty set is an assumption-free model for P2 in C1 (Example 4)
  and no total model exists (after Definition 5).
"""

import pytest

from repro.core.semantics import OrderedSemantics
from repro.workloads.paper import figure2, scaled_figure2


@pytest.fixture
def c1():
    return OrderedSemantics(figure2(), "c1")


class TestPaperClaims:
    def test_everything_defeated(self, c1):
        assert len(c1.least_model) == 0
        assert c1.undefined("rich(mimmo)")
        assert c1.undefined("poor(mimmo)")
        assert c1.undefined("free_ticket(mimmo)")

    def test_i2_is_interpretation_but_not_model(self, c1):
        # I2 = {rich(mimmo), poor(mimmo)} — consistent, hence an
        # interpretation; Example 3 shows it is not a model.
        i2 = c1.interpretation(["rich(mimmo)", "poor(mimmo)"])
        assert not i2.is_total
        assert not c1.is_model(i2)

    def test_facts_defeat_each_other(self, c1):
        i2 = c1.interpretation(["rich(mimmo)", "poor(mimmo)"])
        rich_fact = next(
            r for r in c1.ground.rules if str(r.head) == "rich(mimmo)" and r.is_fact
        )
        poor_fact = next(
            r for r in c1.ground.rules if str(r.head) == "poor(mimmo)" and r.is_fact
        )
        # Each fact is contradicted by the applied rule derived from the
        # other expert: -rich(X) <- poor(X) and -poor(X) <- rich(X).
        assert c1.evaluator.defeated(rich_fact, i2)
        assert c1.evaluator.defeated(poor_fact, i2)

    def test_empty_is_assumption_free_model(self, c1):
        empty = c1.interpretation([])
        assert c1.is_model(empty)
        assert c1.is_assumption_free_model(empty)

    def test_no_total_model_exists(self, c1):
        assert c1.total_models() == []

    def test_empty_is_the_only_stable_model(self, c1):
        stable = c1.stable_models()
        assert len(stable) == 1 and len(stable[0]) == 0

    def test_in_c2_mimmo_is_poor(self):
        c2 = OrderedSemantics(figure2(), "c2")
        assert c2.holds("poor(mimmo)")
        assert c2.holds("-rich(mimmo)")

    def test_in_c3_mimmo_is_rich(self):
        c3 = OrderedSemantics(figure2(), "c3")
        assert c3.holds("rich(mimmo)")
        assert c3.holds("-poor(mimmo)")


class TestScaled:
    @pytest.mark.parametrize(
        "n_people,n_contested",
        [(5, 2), (10, 4), (6, 2), (12, 4), (24, 8), (48, 16)],
    )
    def test_only_uncontested_get_tickets(self, n_people, n_contested):
        sem = OrderedSemantics(scaled_figure2(n_people, n_contested), "c1")
        for i in range(n_people):
            if i < n_contested:
                assert sem.undefined(f"free_ticket(p{i})")
                assert sem.undefined(f"rich(p{i})")
                assert sem.undefined(f"poor(p{i})")
            else:
                assert sem.holds(f"free_ticket(p{i})")
