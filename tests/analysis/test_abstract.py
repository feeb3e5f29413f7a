"""Unit tests for the abstract interpreter (sorts, modes, cardinality
intervals, widening, and the consumer-facing rule restrictions)."""

from __future__ import annotations

import pytest

from repro.analysis.abstract import (
    VALUE_CAP,
    CardInterval,
    Sort,
    analyze_rules,
    analyze_view,
    analyze_whole_program,
    signed_name,
)
from repro.analysis.static import analyze_program
from repro.lang.parser import parse_rule, parse_rules
from repro.lang.terms import Compound, Constant
from repro.obs import instrumented
from repro.workloads.paper import figure1


def constants(*names):
    return [Constant(n) for n in names]


class TestSortLattice:
    def test_bottom_and_top(self):
        assert Sort.bottom().is_bottom
        assert not Sort.top().is_finite
        assert Sort.top().admits(Constant("a"))
        assert not Sort.bottom().admits(Constant("a"))

    def test_join_of_finite_sorts_unions(self):
        a = Sort.of(constants("a"))
        b = Sort.of(constants("b"))
        joined = a.join(b)
        assert joined.values == frozenset(constants("a", "b"))

    def test_join_past_cap_widens_to_depth(self):
        a = Sort.of(Constant(f"k{i}") for i in range(VALUE_CAP))
        b = Sort.of(constants("extra"))
        joined = a.join(b)
        assert not joined.is_finite
        assert joined.depth_bound() == 0

    def test_meet_restricts(self):
        a = Sort.of(constants("a", "b"))
        b = Sort.of(constants("b", "c"))
        assert a.meet(b).values == frozenset(constants("b"))
        deep = Sort(None, 0)
        f_a = Compound("f", (Constant("a"),))
        assert not deep.admits(f_a)
        assert Sort.of([f_a]).meet(deep).is_bottom

    def test_bottom_is_join_identity(self):
        a = Sort.of(constants("a"))
        assert a.join(Sort.bottom()) == a
        assert Sort.bottom().join(a) == a

    def test_depth_join_takes_max(self):
        assert Sort(None, 1).join(Sort(None, 3)).depth == 3
        assert Sort(None, 1).join(Sort.top()).depth is None


class TestCardInterval:
    def test_flags(self):
        assert CardInterval(0, 0).empty
        assert CardInterval(1, 1).singleton
        assert not CardInterval(0, None).empty
        assert str(CardInterval(0, None)) == "[0, ∞]"


class TestInference:
    def test_figure1_penguin_sorts(self):
        analysis = analyze_view(figure1(), "c1")
        fly = analysis.fact_for("fly", 1)
        assert fly.derivable
        assert fly.sorts[0].values == frozenset(constants("pigeon", "penguin"))
        # fly is contradicted by the ¬fly rule, so no lower bound.
        assert fly.card.lo == 0

    def test_uncontradicted_facts_prove_lower_bounds(self):
        analysis = analyze_rules(parse_rules("p(a). p(b). q(X) :- p(X)."))
        p = analysis.fact_for("p", 1)
        assert p.card.lo == 2
        assert p.card.hi == 2
        q = analysis.fact_for("q", 1)
        assert q.card.lo == 0  # derived, statuses could suppress
        assert q.card.hi == 2

    def test_underivable_predicate_is_proven_empty(self):
        analysis = analyze_rules(parse_rules("p(X) :- q(X). r(a)."))
        rule = parse_rule("p(X) :- q(X).")
        assert analysis.proven_empty(rule.body_literals()[0])
        assert analysis.fact_for("p", 1).card.empty
        assert analysis.rule_dead(rule)

    def test_guard_refinement(self):
        analysis = analyze_rules(
            parse_rules("v(1). v(5). v(9). big(X) :- v(X), X > 4.")
        )
        big = analysis.fact_for("big", 1)
        assert big.sorts[0].values == frozenset([Constant(5), Constant(9)])
        assert big.card.hi == 2

    def test_free_head_variable_mode(self):
        analysis = analyze_rules(parse_rules("q. p(X) :- q."))
        assert analysis.fact_for("p", 1).modes == ("f",)
        assert analysis.fact_for("p", 1).sorts[0] == Sort.top()

    def test_negative_literals_are_tracked_separately(self):
        analysis = analyze_rules(parse_rules("-p(a). q(X) :- -p(X)."))
        assert analysis.fact_for("p", 1, positive=False).derivable
        assert not analysis.fact_for("p", 1, positive=True).derivable
        assert signed_name(("p", 1, False)) == "¬p/1"

    def test_recursive_flag(self):
        analysis = analyze_rules(
            parse_rules("e(a, b). t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).")
        )
        assert analysis.fact_for("t", 2).recursive
        assert not analysis.fact_for("e", 2).recursive

    def test_callees_converge_before_callers(self):
        # d must be fully known before p's recursive SCC runs, or the
        # analysis unsoundly misses p(f(a)).
        analysis = analyze_rules(
            parse_rules("d(a). d(b). p(a). p(f(X)) :- p(X), d(X).")
        )
        p = analysis.fact_for("p", 1)
        f_a = Compound("f", (Constant("a"),))
        assert p.sorts[0].admits(f_a)
        assert p.depth_bound() == 1


class TestWidening:
    def test_unbounded_recursion_widens_to_top(self):
        with instrumented() as obs:
            analysis = analyze_rules(parse_rules("p(a). p(f(X)) :- p(X)."))
            snapshot = obs.snapshot()
        p = analysis.fact_for("p", 1)
        assert p.depth_bound() is None
        assert snapshot["counters"]["analysis.widenings.depth"] >= 1

    def test_bounded_recursion_keeps_finite_depth(self):
        analysis = analyze_rules(
            parse_rules("d(a). p(a). p(f(X)) :- p(X), d(X).")
        )
        assert analysis.fact_for("p", 1).depth_bound() == 1

    def test_sort_widening_counter(self):
        facts = " ".join(f"p(k{i})." for i in range(VALUE_CAP + 1))
        with instrumented() as obs:
            analyze_rules(parse_rules(facts + " q(X) :- p(X)."))
            snapshot = obs.snapshot()
        assert snapshot["counters"]["analysis.widenings.sort"] >= 1


class TestRestrictions:
    def test_contradicted_head_is_not_prune_safe(self):
        analysis = analyze_rules(
            parse_rules("p(a) :- q(a). -p(a). q(a).")
        )
        rule = parse_rule("p(a) :- q(a).")
        assert not analysis.prune_safe(rule)
        assert analysis.prune_safe(parse_rule("q(a)."))

    def test_dead_rule_restriction(self):
        analysis = analyze_rules(parse_rules("p(X) :- q(X). r(a)."))
        assert analysis.rule_dead(parse_rule("p(X) :- q(X)."))
        assert not analysis.rule_dead(parse_rule("r(a)."))

    def test_finite_domains(self):
        analysis = analyze_rules(
            parse_rules("active(a). active(b). d(c). pair(X, Y) :- active(X), active(Y).")
        )
        rule = parse_rule("pair(X, Y) :- active(X), active(Y).")
        assert not analysis.rule_dead(rule)
        sorts = analysis.fact_for("pair", 2).sorts
        assert [set(map(str, s.values)) for s in sorts] == [{"a", "b"}, {"a", "b"}]

    def test_unmatchable_argument(self):
        analysis = analyze_rules(parse_rules("p(a). q :- p(b)."))
        found = analysis.unmatchable_argument(parse_rule("q :- p(b)."))
        assert found is not None
        literal, index, term = found
        assert literal.predicate == "p" and index == 0 and str(term) == "b"


class TestFunctionGrowthRegression:
    """The semantic depth bound must silence the syntactic heuristic on
    bounded recursion and keep firing on unbounded recursion."""

    def test_bounded_recursion_no_warning(self):
        program = parse_program_text(
            "component main { d(a). d(b). p(a). p(f(X)) :- p(X), d(X). }"
        )
        report = analyze_program(program)
        assert not [d for d in report.diagnostics if d.code == "function-growth"]

    def test_unbounded_recursion_still_warns(self):
        program = parse_program_text(
            "component main { p(a). p(f(X)) :- p(X). }"
        )
        report = analyze_program(program)
        assert [d for d in report.diagnostics if d.code == "function-growth"]


def parse_program_text(text):
    from repro.lang.parser import parse_program

    return parse_program(text)


class TestDiagnostics:
    def test_provably_empty_and_dead_rule(self):
        program = parse_program_text(
            "component main { v(1). none(X) :- v(X), X > 9. use(X) :- none(X), v(X). }"
        )
        report = analyze_program(program)
        codes = {d.code for d in report.diagnostics}
        assert "provably-empty" in codes
        assert "dead-rule" in codes
        assert report.abstract is not None

    def test_type_clash_warning(self):
        program = parse_program_text(
            "component main { p(a). q :- p(b). }"
        )
        report = analyze_program(program)
        clashes = [d for d in report.diagnostics if d.code == "type-clash"]
        assert clashes and clashes[0].severity.name == "WARNING"


class TestWholeProgram:
    def test_negative_claims_cover_every_view(self):
        analysis = analyze_whole_program(figure1())
        # Both signs of fly are derivable somewhere in the program.
        assert analysis.fact_for("fly", 1, True).derivable
        assert analysis.fact_for("fly", 1, False).derivable

    def test_to_dict_and_render(self):
        analysis = analyze_rules(parse_rules("p(a)."))
        payload = analysis.to_dict()
        assert payload["predicates"][0]["predicate"] == "p/1"
        assert "p/1" in analysis.render()

    def test_unknown_predicate_fact(self):
        analysis = analyze_rules(parse_rules("p(a)."))
        ghost = analysis.fact_for("ghost", 2)
        assert not ghost.derivable
        assert ghost.card.empty


class TestEdbSeeding:
    def test_relations_seed_sorts_and_cards(self):
        from repro.db.relation import Relation

        rel = Relation("edge", 2, [("a", "b"), ("b", "c")])
        analysis = analyze_rules(
            parse_rules("path(X, Y) :- edge(X, Y)."), edb=[rel]
        )
        edge = analysis.fact_for("edge", 2)
        assert edge.card.lo == 2 and edge.card.hi == 2
        # The abstraction treats the two columns independently, so the
        # bound is the 2x2 sort product, not the true size.
        path = analysis.fact_for("path", 2)
        assert path.card.hi == 4


@pytest.mark.parametrize("bad", ["p(a)."])
def test_analyze_rules_is_deterministic(bad):
    first = analyze_rules(parse_rules(bad)).to_dict()
    second = analyze_rules(parse_rules(bad)).to_dict()
    assert first == second
