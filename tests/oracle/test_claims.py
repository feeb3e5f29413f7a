"""The paper's claims as columns of the oracle matrix: each checks one
statement of Sections 2–4 on every row it is eligible for, reading the
row's ``V`` stages and Definition 3/7/9 model sets from the shared
oracle (:func:`.oracle.of`) instead of enumerating them again; the
search column holds the facade to the same sets on the same rows.
Section 2 runs on the paper and workload rows and the ``ordered``
family (its background statements on the ``positive`` and
``seminegative`` families), Section 3 on the ``seminegative`` family
and the named ``OV``/``EV`` rows, Theorem 2 on the ``negative`` family
and the named ``3V`` rows.  A column returns the (row, view) cells it
checked; docs/evaluation.md ("Paper claims") has the table.
"""

from __future__ import annotations

from functools import cache, cached_property

import pytest

from repro.classical.common import total_interpretation
from repro.classical.positive import minimal_model
from repro.classical.stable import founded_models, gl_stable_models, is_founded
from repro.classical.stable import stable_models as sz_stable_models
from repro.classical.threevalued import is_three_valued_model, three_valued_models
from repro.classical.wellfounded import well_founded
from repro.core.assumptions import AssumptionAnalyzer
from repro.core.models import ModelChecker
from repro.core.solver import interpretations
from repro.core.transform import OrderedTransform
from repro.grounding.grounder import Grounder
from repro.lang.program import Component, OrderedProgram
from repro.reductions.direct import (
    direct_assumption_free_models,
    direct_models,
    direct_stable_models,
)

from . import oracle
from .columns import enumerable
from .rows import ENUMERATION_BASE, EV, OPTIONS, OV, PAPER, REDUCED, TV, WORKLOADS
from .rows import Row, family, reduced


def literal_sets(models) -> set:
    return {m.literals for m in models}


#: Claims that check each model run where a view has at most this many
#: (``figure3_conflict`` and ``figure3_overrule`` have 6,561 in ``c1``).
PER_MODEL = 1_000

#: The ``enumeration`` column filters all 3^n interpretations, so it runs
#: where the base has at most this many atoms.
FILTERED_BASE = 4

#: Section 2 claims read the full instantiation through object checkers,
#: so they run where it has at most this many rules (all but ``forest``).
INSTANCES = 1_000


class View:
    """One view of a row: its oracle, and its full instantiation read
    through the object-level Definition 3 and 7 checkers and naive
    ``V``."""

    def __init__(self, row: Row, view: str) -> None:
        self.row, self.view, self.where = row, view, f"{row}/{view}"
        self.expected = oracle.of(row, view)
        self.least = self.expected.model
        self.enumerable = enumerable(row, self.expected)

    @cached_property
    def per_model(self) -> bool:
        return self.enumerable and len(self.models) <= PER_MODEL

    @property
    def models(self):
        return self.expected.model_search.found

    @property
    def af_models(self):
        return self.expected.af_search.found

    @cached_property
    def ground(self):
        return self.expected.instantiate()

    @cached_property
    def evaluator(self):
        return self.expected.evaluator(self.ground)

    @cached_property
    def checker(self) -> ModelChecker:
        return ModelChecker(self.evaluator, self.ground.base)

    @cached_property
    def analyzer(self) -> AssumptionAnalyzer:
        return AssumptionAnalyzer(self.evaluator, self.ground.base)

    @cached_property
    def transform(self) -> OrderedTransform:
        return OrderedTransform(self.evaluator, self.ground.base, strategy="naive")


def section2(eligible=lambda v: True):
    """A Section 2 column: ``check(view)`` on every ``eligible`` view of
    the row."""

    def wrap(check):
        def column(row: Row) -> int:
            views = (View(row, view) for view in row.views)
            small = (v for v in views if v.expected.n_rules <= INSTANCES)
            return sum(check(v) is None for v in small if eligible(v))

        column.__name__, column.__doc__ = check.__name__, check.__doc__
        return column

    return wrap


@section2()
def proposition1(v: View) -> None:
    """Proposition 1: ``V↑ω(∅)`` is a model."""
    assert v.checker.is_model(v.least), f"{v.where}: {v.checker.why_not_model(v.least)}"


@section2()
def lemma1(v: View) -> None:
    """Lemma 1: the iterates of ``V`` from ∅ chain upward to a fixpoint,
    where every applicable rule neither overruled nor defeated has its
    head; where each model is checked, ``V(L) ⊆ V(M)`` for the least
    model ``L`` and every model ``M``."""
    stages = v.expected.stages
    assert all(a.literals < b.literals for a, b in zip(stages, stages[1:])), v.where
    assert v.transform.is_fixpoint(v.least), v.where
    ev = v.evaluator
    for r in v.ground.rules:
        if ev.applicable(r, v.least) and not ev.overruled(r, v.least):
            assert ev.defeated(r, v.least) or r.head in v.least, f"{v.where}: {r}"
    if v.per_model:
        after = v.transform.step(v.least).literals
        for m in v.models:
            assert after <= v.transform.step(m).literals, f"{v.where}: {m}"


@section2(lambda v: v.per_model)
def theorem1a(v: View) -> None:
    """Theorem 1(a): a model is assumption-free (Definition 7) exactly
    when ``T↑ω`` of its enabled version is itself, and the AF search's
    list is the models that are."""
    af = []
    for m in v.models:
        direct = v.analyzer.is_assumption_free(m)
        assert direct == v.analyzer.is_assumption_free_via_theorem1(m), f"{v.where}: {m}"
        af += [m.literals] if direct else []
    assert af == [m.literals for m in v.af_models], v.where


@section2()
def theorem1b(v: View) -> None:
    """Theorem 1(b): ``V↑ω(∅)`` is assumption-free; where enumerable, it
    is the intersection of all models, and every model is a
    pre-fixpoint of ``V`` (the proof's load-bearing half)."""
    assert v.analyzer.is_assumption_free(v.least), v.where
    if v.enumerable:
        assert v.models, f"{v.where}: no model (Proposition 1)"
        meet = frozenset.intersection(*(m.literals for m in v.models))
        assert meet == v.least.literals, v.where
    for m in v.models if v.per_model else ():
        assert v.transform.is_prefixpoint(m), f"{v.where}: {m}"


@section2(lambda v: v.enumerable)
def definition9(v: View) -> None:
    """Definition 9: stable models, the maximal assumption-free models,
    exist, and every assumption-free model is below one."""
    af = [m.literals for m in v.af_models]
    stable = [m.literals for m in v.expected.stable_models]
    assert stable, f"{v.where}: the least model is AF, so a stable model exists"
    for m in af:
        assert any(m <= s for s in stable), v.where


@section2(lambda v: v.per_model and len(v.least.base) <= ENUMERATION_BASE)
def proposition2(v: View) -> None:
    """Definition 5 and Proposition 2: every model extends to an
    exhaustive model, one with no proper model extension; the
    exhaustive models are the maximal models, and every total model is
    one.  (Each extension search is exponential in the base.)"""
    found = [m.literals for m in v.models]
    maximal = {m for m in found if not any(m < other for other in found)}
    for m in v.models:
        extended = v.checker.extend_to_exhaustive(m).literals
        assert m.literals <= extended and extended in maximal, f"{v.where}: {m}"
        exhaustive = extended == m.literals
        assert exhaustive == (m.literals in maximal), f"{v.where}: {m}"
        assert exhaustive or not m.is_total, f"{v.where}: {m}"


@section2(lambda v: v.enumerable and len(v.least.base) <= FILTERED_BASE)
def enumeration(v: View) -> None:
    """Every interpretation of the base (:func:`interpretations`, the one
    3^n enumerator) filtered by Definition 3, and by Definitions 3 and
    7, is the oracle's model list, and its AF list: the least-model seed
    and the head restriction of the searches lose no model."""
    models = [i for i in interpretations(v.least.base) if v.checker.is_model(i)]
    assert literal_sets(models) == literal_sets(v.models), v.where
    af = [m for m in models if v.analyzer.is_assumption_free(m)]
    assert literal_sets(af) == literal_sets(v.af_models), v.where


def sees_every_rule(v: View) -> bool:
    program = v.row.program
    everything = sum(len(c.rules) for c in program.components())
    minimal = v.view in program.order.minimal_elements()
    return minimal and len(program.visible_rules(v.view)) == everything


@section2(sees_every_rule)
def flattening(v: View) -> None:
    """Example 2's flattening: a minimal component that sees every rule
    has the Herbrand base of the single-component merge."""
    merged = [r for c in v.row.program.components() for r in c.rules]
    flat = OrderedProgram.single(merged, name="flat")
    flat_base = Grounder(OPTIONS).ground_component_star(flat, "flat", full=True).base
    assert v.least.base == flat_base, v.where


SECTION2 = (proposition1, lemma1, theorem1a, theorem1b, definition9, proposition2,
            enumeration, flattening)


# ----------------------------------------------------------------------
# The classical side: Section 2's background, Sections 3 and 4
# ----------------------------------------------------------------------
class Classical:
    """A row's source program ``C`` grounded in full, with its classical
    model sets computed on first use."""

    def __init__(self, row: Row) -> None:
        ground = Grounder(OPTIONS).ground_rules(row.source)
        self.rules, self.base = ground.rules, ground.base
        self.enumerable = len(self.base) <= ENUMERATION_BASE

    @cached_property
    def stable(self):
        return sz_stable_models(self.rules, self.base)


@cache
def classical(row: Row) -> Classical:
    return Classical(row)


def version(row: Row, via) -> tuple[Row, oracle.Oracle]:
    """``row``'s source through ``via``, and its oracle in the view that
    defines the source's meaning, checked to share ``C``'s base."""
    reduced_row = reduced(row, via)
    expected = oracle.of(reduced_row, via.view)
    assert expected.model.base == classical(row).base, f"{reduced_row}: base"
    return reduced_row, expected


def total_model(row: Row) -> int:
    """Section 2: a seminegative (or positive) program has a total model
    — the Herbrand base, all true."""
    c = classical(row)
    assert Component("c", row.source).is_seminegative, row
    assert is_three_valued_model(c.rules, total_interpretation(c.base, c.base)), row
    return 1


def positive_least(row: Row) -> int:
    """Section 2: a positive program's minimal model is its least total
    model — a model, and inside every other one."""
    c = classical(row)
    least = minimal_model(c.rules)
    assert is_three_valued_model(c.rules, total_interpretation(least, c.base)), row
    for i in interpretations(c.base):
        if i.is_total and is_three_valued_model(c.rules, i):
            assert least <= i.true_atoms(), f"{row}: {i}"
    return 1


def section3(*needs: str):
    """A Section 3 column: the claim, ``claim(row, c, ov, ev)``, on every
    ``OV``/``EV`` row, where the model sets it ``needs`` enumerate —
    ``"c"`` those of ``C``, ``"ov"`` / ``"ev"`` those of ``OV(C)`` /
    ``EV(C)`` in ``C``."""

    def wrap(claim):
        def column(row: Row) -> int:
            if row.via not in (OV, EV):
                return 0
            c = classical(row)
            (ov_row, ov), (ev_row, ev) = version(row, OV), version(row, EV)
            ok = {"c": c.enumerable, "ov": enumerable(ov_row, ov), "ev": enumerable(ev_row, ev)}
            if not all(ok[need] for need in needs):
                return 0
            claim(row, c, ov, ev)
            return 1

        column.__name__, column.__doc__ = claim.__name__, claim.__doc__
        return column

    return wrap


@section3("ov")
def proposition3(row, c, ov, ev):
    """Proposition 3: every model of ``OV(C)`` in ``C`` is a 3-valued
    model of ``C``."""
    for m in ov.model_search.found:
        assert is_three_valued_model(c.rules, m), f"{row}: {m}"


@section3("c", "ov")
def proposition4(row, c, ov, ev):
    """Proposition 4: the assumption-free models of ``OV(C)`` are the
    founded models of ``C``."""
    assert literal_sets(ov.af_search.found) == literal_sets(founded_models(c.rules, c.base)), row


@section3("c", "ov")
def corollary1(row, c, ov, ev):
    """Corollary 1: the stable models of ``OV(C)`` are the ([SZ])
    stable models of ``C``."""
    assert literal_sets(ov.stable_models) == literal_sets(c.stable), row


@section3("c", "ev")
def proposition5a(row, c, ov, ev):
    """Proposition 5(a): the models of ``EV(C)`` are exactly the
    3-valued models of ``C``."""
    three_valued = three_valued_models(c.rules, c.base)
    assert literal_sets(ev.model_search.found) == literal_sets(three_valued), row


@section3("ov", "ev")
def proposition5bcd(row, c, ov, ev):
    """Proposition 5(b–d): every AF model of ``OV(C)`` is one of
    ``EV(C)``, every AF model of ``EV(C)`` is below one of ``OV(C)``,
    and the two have the same stable models."""
    af_ov = literal_sets(ov.af_search.found)
    assert af_ov <= literal_sets(ev.af_search.found), row
    for m in ev.af_search.found:
        assert any(m.literals <= other for other in af_ov), f"{row}: {m}"
    assert literal_sets(ov.stable_models) == literal_sets(ev.stable_models), row


@section3("c")
def gl_stable(row, c, ov, ev):
    """Section 3: the total [SZ]-stable models of ``C`` are its
    Gelfond–Lifschitz stable models."""
    total = {m.literals for m in c.stable if m.is_total}
    assert total == literal_sets(gl_stable_models(c.rules, c.base)), row


@section3()
def wf_model(row, c, ov, ev):
    """Section 3 ([P3], [VRS]): the well-founded model of ``C`` is
    founded and holds the least model of ``OV(C)``; where ``C``
    enumerates, it is inside every stable model."""
    wf = well_founded(c.rules, c.base).as_interpretation(c.base)
    assert is_founded(c.rules, wf), row
    assert ov.literals <= wf.literals, row
    for m in c.stable if c.enumerable else ():
        assert wf.literals <= m.literals, f"{row}: {m}"


SECTION3 = (proposition3, proposition4, corollary1, proposition5a, proposition5bcd,
            gl_stable, wf_model)


def theorem2(row: Row) -> int:
    """Theorem 2: the models, assumption-free models and stable models
    of ``3V(C)`` in ``C−`` (Definition 10) are those of the direct
    semantics (Definition 11, reconstructed)."""
    if row.via is not TV:
        return 0
    c, (_, tv) = classical(row), version(row, TV)
    if not (c.enumerable and enumerable(row, tv)):
        return 0
    direct = (direct_models, direct_assumption_free_models, direct_stable_models)
    mine = (tv.model_search.found, tv.af_search.found, tv.stable_models)
    for models, semantics in zip(mine, direct):
        assert literal_sets(models) == literal_sets(semantics(c.rules, c.base)), row
    return 1


# ----------------------------------------------------------------------
# The matrix: (claim column, row family)
# ----------------------------------------------------------------------
NAMED_ROWS = {"paper": PAPER, "workloads": WORKLOADS, "reductions": REDUCED}
CELLS = [
    *((claim, rows) for claim in SECTION2 for rows in ("paper", "workloads", "ordered")),
    (total_model, "positive"),
    (total_model, "seminegative"),
    (positive_least, "positive"),
    *((claim, rows) for claim in SECTION3 for rows in ("seminegative", "reductions")),
    (theorem2, "negative"),
    (theorem2, "reductions"),
]


@pytest.mark.parametrize(
    "claim, rows", CELLS, ids=[f"{claim.__name__}-{rows}" for claim, rows in CELLS]
)
def test_claim(claim, rows):
    found = NAMED_ROWS[rows] if rows in NAMED_ROWS else family(rows)
    assert sum(claim(row) for row in found) > 0
