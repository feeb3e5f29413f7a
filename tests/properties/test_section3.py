"""Property-based verification of Section 3: Proposition 5(b–d) and the
well-founded model, relating the models of ``OV(C)`` / ``EV(C)`` in
``C`` to the classical founded / stable models of a seminegative
program ``C``.  Propositions 3, 4 and 5(a), Corollary 1 and the total
[SZ]-stable = [GL]-stable statement are claims columns of the oracle
matrix (``tests/oracle/test_claims.py``), which also checks every
statement here on the seeded ``seminegative`` rows."""

from hypothesis import given, settings

from repro.classical.stable import stable_models as sz_stable_models
from repro.classical.wellfounded import well_founded
from repro.grounding.grounder import Grounder
from repro.reductions.extended_version import extended_version
from repro.reductions.ordered_version import ordered_version

from .strategies import ground_rules

SETTINGS = settings(max_examples=30, deadline=None)

seminegative = ground_rules(min_rules=1, max_rules=5, seminegative=True)


def classical_and_ov(rules):
    ground = Grounder().ground_rules(rules)
    sem = ordered_version(rules).semantics()
    assert sem.ground.base == ground.base
    return ground, sem


def classical_and_ev(rules):
    ground = Grounder().ground_rules(rules)
    sem = extended_version(rules).semantics()
    assert sem.ground.base == ground.base
    return ground, sem


@SETTINGS
@given(seminegative)
def test_proposition5b_af_ov_subset_af_ev(rules):
    _, ov = classical_and_ov(rules)
    _, ev = classical_and_ev(rules)
    af_ov = {m.literals for m in ov.assumption_free_models()}
    af_ev = {m.literals for m in ev.assumption_free_models()}
    assert af_ov <= af_ev


@SETTINGS
@given(seminegative)
def test_proposition5c_af_ev_below_some_af_ov(rules):
    _, ov = classical_and_ov(rules)
    _, ev = classical_and_ev(rules)
    af_ov = [m.literals for m in ov.assumption_free_models()]
    for m in ev.assumption_free_models():
        assert any(m.literals <= other for other in af_ov)


@SETTINGS
@given(seminegative)
def test_proposition5d_stable_models_coincide(rules):
    _, ov = classical_and_ov(rules)
    _, ev = classical_and_ev(rules)
    assert {m.literals for m in ov.stable_models()} == {
        m.literals for m in ev.stable_models()
    }


@SETTINGS
@given(seminegative)
def test_well_founded_model_is_founded_and_least(rules):
    # [P3]: the well-founded model is the least 3-valued stable (founded)
    # model — it must be founded and contained in every founded model
    # that extends it... at minimum it is founded and contained in every
    # SZ-stable model.
    ground = Grounder().ground_rules(rules)
    wf = well_founded(ground.rules, ground.base)
    interp = wf.as_interpretation(ground.base)
    from repro.classical.stable import is_founded

    assert is_founded(ground.rules, interp)
    for m in sz_stable_models(ground.rules, ground.base):
        assert interp.literals <= m.literals


@SETTINGS
@given(seminegative)
def test_ov_least_model_positive_part_inside_wf_true(rules):
    # The ordered least model is assumption-free, hence inside every
    # stable model; compare its positive part with the WF true set.
    ground, sem = classical_and_ov(rules)
    wf = well_founded(ground.rules, ground.base)
    interp = wf.as_interpretation(ground.base)
    assert sem.least_model.literals <= interp.literals
