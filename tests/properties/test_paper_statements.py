"""Property tests for the smaller assertions the paper states in
passing (Section 2's background facts about classical programs).  The
positive-program statement is the ``positive_least`` claims column of
the oracle matrix (``tests/oracle/test_claims.py``), over rows that are
positive by construction."""

from hypothesis import given, settings

from repro.classical.common import total_interpretation
from repro.classical.threevalued import is_three_valued_model
from repro.grounding.grounder import Grounder
from repro.lang.program import Component

from .strategies import ground_rules

SETTINGS = settings(max_examples=40, deadline=None)

seminegative = ground_rules(min_rules=1, max_rules=6, seminegative=True)


def ground(rules):
    return Grounder().ground_rules(rules)


@SETTINGS
@given(seminegative)
def test_total_model_exists_for_seminegative_programs(rules):
    # "It is known that a total model exists for every positive or
    # seminegative program" — the all-true interpretation witnesses it.
    g = ground(rules)
    everything_true = total_interpretation(g.base, g.base)
    assert is_three_valued_model(g.rules, everything_true)


@SETTINGS
@given(seminegative)
def test_herbrand_base_always_model_classically_but_not_ordered(rules):
    # For classical seminegative programs the all-true interpretation is
    # always a model; Example 3 shows this *fails* for ordered programs
    # with negative heads — the contrast the paper draws.
    g = ground(rules)
    everything_true = total_interpretation(g.base, g.base)
    assert is_three_valued_model(g.rules, everything_true)
    component = Component("c", rules)
    assert component.is_seminegative
