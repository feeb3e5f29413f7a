"""Unit tests for the demand evaluation entry point and fact sources."""

from repro.analysis.static import analyze_program
from repro.core.semantics import OrderedSemantics
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.query import answers_in
from repro.lang.parser import parse_rules
from repro.lang.program import OrderedProgram
from repro.lang.literals import Atom
from repro.lang.terms import Constant
from repro.obs import trace
from repro.query import (
    CompiledDemand,
    MemoryFactSource,
    UnionFactSource,
    demand_answers,
    demand_ineligibility,
)
from repro.workloads import forest_program
from repro.workloads.paper import figure1


def program(text: str) -> OrderedProgram:
    return OrderedProgram.single(tuple(parse_rules(text)), name="main")


ANCESTOR = program(
    """
    parent(tom, bob). parent(bob, ann). parent(bob, joe).
    ancestor(X, Y) <- parent(X, Y).
    ancestor(X, Z) <- parent(X, Y), ancestor(Y, Z).
    """
)


def literals(result):
    return [str(a.literal) for a in result.answers]


class TestServedGoals:
    def test_bound_goal(self):
        result = demand_answers(ANCESTOR, "main", "ancestor(tom, X)")
        assert result.used
        assert literals(result) == [
            "ancestor(tom, ann)",
            "ancestor(tom, bob)",
            "ancestor(tom, joe)",
        ]

    def test_matches_materialized_model(self):
        model = OrderedSemantics(ANCESTOR, "main").least_model
        for goal in ("ancestor(X, Y)", "ancestor(X, ann)", "parent(bob, X)"):
            result = demand_answers(ANCESTOR, "main", goal)
            assert result.used
            assert literals(result) == [
                str(a.literal) for a in answers_in(model, goal)
            ]

    def test_guards_filter(self):
        guarded = program(
            """
            num(1). num(2). num(3).
            big(X) <- num(X), X > 1.
            """
        )
        result = demand_answers(guarded, "main", "big(X)")
        assert result.used
        assert literals(result) == ["big(2)", "big(3)"]

    def test_unknown_predicate_is_empty(self):
        result = demand_answers(ANCESTOR, "main", "nope(X)")
        assert result.used and result.answers == []

    def test_negative_pattern_on_routable_view(self):
        result = demand_answers(ANCESTOR, "main", "~ancestor(tom, X)")
        assert result.used and result.answers == []


class TestFallbacks:
    def test_non_cautious_mode(self):
        result = demand_answers(
            ANCESTOR, "main", "ancestor(tom, X)", mode="credulous"
        )
        assert not result.used and result.reason == "mode"

    def test_unstratified_view(self):
        tangled = program(
            """
            p(X) <- thing(X), ~q(X).
            q(X) <- thing(X), ~p(X).
            thing(a).
            """
        )
        # No rule heads a negative literal, so no ~q(a) or ~p(a) is ever
        # derived: the negative-body rules never fire, and the goal is
        # answered on demand however the view classifies.
        result = demand_answers(tangled, "main", "p(a)")
        model = OrderedSemantics(tangled, "main").least_model
        assert result.used
        assert literals(result) == [str(a.literal) for a in answers_in(model, "p(a)")]
        assert demand_ineligibility(tangled, "main") == []

    def test_function_growth_cone(self):
        growing = program(
            """
            n(z).
            n(s(X)) <- n(X).
            """
        )
        result = demand_answers(growing, "main", "n(X)")
        assert not result.used and result.reason == "function-growth"

    def test_eligible_view_reports_no_problem(self):
        assert demand_ineligibility(ANCESTOR, "main") == []


class TestPerGoalEligibility:
    def test_figure1_serves_the_horn_cone_and_declines_the_tainted_one(self):
        kb = KnowledgeBase.from_program(figure1())
        with trace("bird") as ctx:
            kb.query("c1", "bird(X)", strategy="demand")
        assert ctx.root.fields["route"] == "demand"
        with trace("fly") as ctx:
            kb.query("c1", "fly(X)", strategy="demand")
        assert ctx.root.fields["route"] == "materialized"
        assert ctx.root.fields["demand.fallback"] == "unroutable"
        result = demand_answers(figure1(), "c1", "fly(X)")
        assert not result.used and result.reason == "unroutable"
        assert "fly" in result.detail and "negative-head" in result.detail

    def test_a_negative_fact_is_never_a_positive_row(self):
        view = program("-s(a). t(b).")
        compiled = CompiledDemand(view, "main")
        assert compiled.ask("t(X)").used
        assert compiled.source.count("s") == 0
        for goal in ("s(a)", "s(X)"):
            result = compiled.ask(goal)
            assert not result.used and result.reason == "unroutable"

    def test_every_reason_a_goal_declines_with_is_reported(self):
        # The taint of q does not hide the unsafe rule in p's cone.
        view = program("-q(a). r(b). p(X) <- r(Y).")
        assert demand_answers(view, "main", "p(X)").reason == "unsafe-sips"
        problems = demand_ineligibility(view, "main")
        assert [reason for reason, _ in problems] == ["unroutable", "unsafe-sips"]
        assert "of each of q" in problems[0][1] and "p(X)" in problems[1][1]
        diagnostics = [
            d for d in analyze_program(view).diagnostics if d.code == "demand-ineligible"
        ]
        assert ["(unroutable)" in d.message for d in diagnostics] == [True, False]
        assert ["(unsafe-sips)" in d.message for d in diagnostics] == [False, True]
        assert diagnostics[0].fix_hint != diagnostics[1].fix_hint

    def test_a_tainted_cone_alone_hides_nothing_else(self):
        # An unsafe rule only tainted goals reach is never asked about.
        view = program("-q(a). q(X) <- r(Y). r(b).")
        assert demand_ineligibility(view, "main") == [
            ("unroutable", "the cone of each of q holds negative-head rules")
        ]


class TestExtraSources:
    def test_source_rows_union_with_told_facts(self):
        source = MemoryFactSource()
        source.add(Atom("parent", (Constant("ann"), Constant("zoe"))))
        result = demand_answers(
            ANCESTOR, "main", "ancestor(bob, X)", sources=(source,)
        )
        assert result.used
        assert "ancestor(bob, zoe)" in literals(result)

    def test_bridged_predicate(self):
        # ancestor is intensional *and* has extensional rows in a
        # source: demanded keys must pull those rows in too.
        source = MemoryFactSource()
        source.add(Atom("ancestor", (Constant("eve"), Constant("tom"))))
        result = demand_answers(
            ANCESTOR, "main", "ancestor(eve, X)", sources=(source,)
        )
        assert result.used
        assert literals(result) == ["ancestor(eve, tom)"]

    def test_bridged_row_feeds_recursion(self):
        # A bridged row must join back into the recursive rule: tom's
        # parent edge composes with the extensional ancestor row.
        source = MemoryFactSource()
        source.add(Atom("ancestor", (Constant("joe"), Constant("zoe"))))
        result = demand_answers(
            ANCESTOR, "main", "ancestor(bob, X)", sources=(source,)
        )
        assert result.used
        assert "ancestor(bob, zoe)" in literals(result)


class TestSources:
    def test_memory_source_point_fetch(self):
        source = MemoryFactSource()
        source.add(Atom("edge", (Constant("a"), Constant("b"))))
        source.add(Atom("edge", (Constant("a"), Constant("c"))))
        got = set(source.fetch("edge", [Constant("a"), None]))
        assert len(got) == 2
        assert set(source.fetch("edge", [Constant("b"), None])) == set()

    def test_union_source_dedups(self):
        row = (Constant("a"), Constant("b"))
        first, second = MemoryFactSource(), MemoryFactSource()
        first.add(Atom("edge", row))
        second.add(Atom("edge", row))
        union = UnionFactSource((first, second))
        assert list(union.fetch("edge", [None, None])) == [row]
        assert union.count("edge") == 2  # upper bound, not exact
        assert union.arity("edge") == 2


class TestDemandWork:
    """A point query's demand run does work proportional to the one
    tree it touches; materializing the view grounds the whole forest."""

    DEPTH = 3
    GOAL = "ancestor(n0_0, X)"

    def costs(self, route, n_trees):
        forest = forest_program(n_trees, depth=self.DEPTH)
        with trace("point query") as ctx:
            if route == "demand":
                result = demand_answers(forest, "main", self.GOAL)
                assert result.used, result.reason
                # The demand route neither grounds nor runs V.
                spans = {span.name for span in ctx.root.children}
                assert "query.demand" in spans and not spans & {"ground", "fixpoint"}
                answers = result.answers
            else:
                answers = answers_in(OrderedSemantics(forest, "main").least_model, self.GOAL)
        # Every proper descendant of the root.
        assert len(answers) == 2**self.DEPTH - 2
        return ctx.costs

    def test_demand_work_does_not_grow_with_the_forest(self):
        demand = [self.costs("demand", n) for n in (2, 8, 32)]
        assert demand[0] == demand[1] == demand[2]
        assert demand[0]["demand_fetched"] > 0
        grounded = [self.costs("materialize", n)["ground_substitutions_tried"] for n in (2, 8)]
        assert grounded[1] >= 4 * grounded[0]
