"""Experiment F1 — Figure 1 of the paper: ordered program P1 with
overruling.  The paper's claims, verbatim:

* "the penguin does not fly since some rules in C2 are overruled in C1";
* "C1 can inherit a rule from C2 to infer that the pigeon flies"
  (Example 1);
* "to the best of the knowledge of C1, the penguin is not a ground
  animal and flies" is contradicted in C1 — but holds in C2;
* the interpretation I1 is a total model for P1 in C1 (Examples 2–3)
  and assumption-free (Example 4).
"""

import pytest

from repro.core.semantics import OrderedSemantics
from repro.workloads.paper import figure1, scaled_figure1


@pytest.fixture
def c1():
    return OrderedSemantics(figure1(), "c1")


@pytest.fixture
def c2():
    return OrderedSemantics(figure1(), "c2")


I1 = [
    "bird(pigeon)",
    "bird(penguin)",
    "ground_animal(penguin)",
    "-ground_animal(pigeon)",
    "fly(pigeon)",
    "-fly(penguin)",
]


class TestPaperClaims:
    def test_penguin_does_not_fly_in_c1(self, c1):
        assert c1.holds("-fly(penguin)")

    def test_pigeon_flies_in_c1_by_inheritance(self, c1):
        assert c1.holds("fly(pigeon)")

    def test_penguin_is_ground_animal_in_c1(self, c1):
        assert c1.holds("ground_animal(penguin)")
        assert c1.holds("-ground_animal(pigeon)")

    def test_in_c2_the_penguin_flies(self, c2):
        # C2 does not see C1's rules: the general knowledge stands.
        assert c2.holds("fly(penguin)")
        assert c2.holds("-ground_animal(penguin)")

    def test_i1_is_total_model_in_c1(self, c1):
        i1 = c1.interpretation(I1)
        assert i1.is_total
        assert c1.is_model(i1)

    def test_i1_is_assumption_free(self, c1):
        assert c1.is_assumption_free_model(c1.interpretation(I1))

    def test_i1_is_the_least_model(self, c1):
        assert c1.least_model == c1.interpretation(I1)

    def test_i1_is_stable(self, c1):
        assert c1.is_stable_model(c1.interpretation(I1))


class TestScaled:
    @pytest.mark.parametrize(
        "n_birds,n_penguins",
        [(4, 1), (8, 3), (12, 6), (5, 2), (10, 4), (20, 8), (40, 16)],
    )
    def test_exactly_non_penguins_fly(self, n_birds, n_penguins):
        sem = OrderedSemantics(scaled_figure1(n_birds, n_penguins), "c1")
        for i in range(n_birds):
            if i < n_penguins:
                assert sem.holds(f"-fly(b{i})")
            else:
                assert sem.holds(f"fly(b{i})")
        assert sem.least_model.is_total

    def test_least_model_total_at_scale(self):
        sem = OrderedSemantics(scaled_figure1(10, 4), "c1")
        assert sem.least_model.is_total
