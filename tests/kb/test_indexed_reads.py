"""Materialized reads are probes, not scans (docs/server.md, "Read path").

A ground goal is answered by one membership test and a non-ground goal
is matched against the literals of its own signed predicate, read from
an index the model value builds for itself on its first open-goal read.

* **Differential** — the reads column of the oracle matrix
  (``tests/oracle/columns.py``): on every row, ``answers_in`` /
  ``holds_in`` / ``evaluate_query`` (cautious, skeptical, credulous)
  over the kernel's model equal the full-model scan they replaced, run
  over the oracle's model: same literals, same bindings, same order, on
  every goal shape (ground true / false / undefined, fully open,
  partially bound, repeated variable, compound argument, negative,
  0-ary, unknown predicate, known symbol at the wrong arity).
* **Id space vs decoded** — a kernel model, cold or maintained, is the
  membership flags read through the atom table
  (``Interpretation.over``).  For the cold least model of every view and
  after every step of a random tell/retract trace, that value and the
  interpretation built from its decoded literals are indistinguishable.
* **Staleness** — the index is a cache on an immutable value, so it can
  never be stale: reads after every write of a warm maintained view
  equal cold evaluation, a pinned snapshot keeps answering from its own
  version, and the ``Interpretation`` value protocol does not see it.
* **Goal memo** — text is parsed once per distinct goal, errors are not
  remembered, and the memo stays inside its bound.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.interpretation import Interpretation
from repro.core.semantics import OrderedSemantics
from repro.grounding.grounder import GroundingOptions
from repro.kb import query as kbq
from repro.kb.query import answers_in, goal, holds_in
from repro.lang.errors import ParseError
from repro.lang.parser import parse_program
from repro.lang.terms import Constant
from repro.server import ServerEngine, parse_request
from repro.workloads import build_session_kb, session_ops

from ..oracle import columns
from ..oracle.oracle import Oracle
from ..oracle.rows import PAPER, WORKLOADS, family


# ----------------------------------------------------------------------
# The reads column
# ----------------------------------------------------------------------
SHAPES_PROGRAM = """
component top {
    nat(a).
    nat(s(a)).
    edge(a, a).
    edge(a, b).
    owns(s(a), b).
    owns(s(b), a).
    -edge(b, a).
    -nat(b).
    flag.
    -off.
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
    loop(X) :- reach(X, X).
    -loop(X) :- nat(X).
}
component bottom {
    -reach(a, b).
    maybe :- maybe.
}
order bottom < top.
"""


def test_every_shape_on_a_program_that_has_them_all():
    program = parse_program(SHAPES_PROGRAM)
    rng = random.Random(0x5AFE)
    options = GroundingOptions(max_depth=1)
    for component in ("top", "bottom"):
        semantics = OrderedSemantics(program, component, grounding=options)
        expected = Oracle(program, component, options)
        shapes = columns.goal_shapes(rng, expected.model)
        # The fixture is what makes no shape vacuous.
        for needed in (
            "ground-true",
            "ground-false",
            "ground-undefined",
            "open:reach/2",
            "open-negative:nat/1",
            "partially-bound",
            "repeated:edge/2",
            "compound",
            "nullary:flag",
            "nullary-negative:off",
            "unknown-open",
            "wrong-arity:nat/1",
            "wrong-arity-ground",
        ):
            assert needed in shapes, needed
        assert columns.assert_reads_match_scan(
            semantics, expected, rng, columns.MODES
        ) >= len(shapes)
    top = OrderedSemantics(program, "top", grounding=options).least_model
    # Spot checks in the surface syntax, so the lane cannot pass by
    # reference and implementation agreeing on nothing.
    assert [str(a.literal) for a in answers_in(top, "reach(X, X)")] == ["reach(a, a)"]
    assert [str(a) for a in answers_in(top, "nat(s(X))")] == ["nat(s(a))  {X -> a}"]
    assert [str(a) for a in answers_in(top, "owns(s(X), Y)")] == [
        "owns(s(a), b)  {X -> a, Y -> b}",
        "owns(s(b), a)  {X -> b, Y -> a}",
    ]
    assert answers_in(top, "flag")[0].bindings == answers_in(top, "-off")[0].bindings
    assert len(answers_in(top, "flag")[0].bindings) == 0
    assert answers_in(top, "-flag") == answers_in(top, "flag(X)") == []


@pytest.mark.parametrize("row", PAPER, ids=str)
def test_paper_programs(row):
    assert columns.reads(row)
    # A trace whose every step forces a re-grounding (a retracted fact
    # held a constant's last occurrence) maintains nothing: draw again.
    assert columns.id_space(row, rounds=4)


@pytest.mark.parametrize("row", WORKLOADS, ids=str)
def test_workload_generators(row):
    assert columns.reads(row)
    assert columns.id_space(row, rounds=4)


def test_random_program_sweep():
    assert columns.sweep(columns.reads, "first_order") >= len(family("first_order"))


def test_random_ordered_program_sweep():
    assert columns.sweep(columns.reads, "ordered") >= len(family("ordered"))


def test_random_program_sweep_maintained_models_in_id_space():
    rows = family("first_order")
    assert columns.sweep(columns.id_space, "first_order") >= 2 * len(rows)


def test_cautious_ask_stops_at_the_first_match():
    """``ask`` used to build, sort and discard every answer."""
    kb = build_session_kb(1, 64)
    for i in range(64):
        kb.tell("level0", f"enrolled_0(e{i}).")
    from repro.obs.trace import trace

    for pattern, candidates in (("member(X)", 1), ("member(e9)", 1), ("sus_0(X)", 0)):
        with trace("test") as ctx:
            holds = kb.ask("level0", pattern)
        assert holds == bool(kb.query("level0", pattern))
        assert ctx.costs["read_candidates"] == candidates, pattern
        assert ctx.root.fields["route"] == "materialized"
    with trace("test") as ctx:
        assert len(kb.query("level0", "member(X)")) == 64
    assert ctx.costs == {"read_candidates": 64, "read_answers": 64}
    assert ctx.root.fields["read.probe"] == "relation"
    # Undefined, unknown-predicate and non-cautious asks answer as before.
    kb.define("open", "p :- q.", isa=[])
    assert kb.ask("open", "p") is False and kb.ask("open", "-p") is False
    assert kb.ask("level0", "zz_unknown(X)") is False
    for mode in ("skeptical", "credulous"):
        assert kb.ask("level0", "member(e3)", mode) is True
        assert kb.ask("level0", "-member(X)", mode) is False


# ----------------------------------------------------------------------
# Staleness: the index is a cache on an immutable value
# ----------------------------------------------------------------------
def test_reads_on_a_warm_maintained_view_equal_cold_evaluation():
    depth, entities = 3, 5
    kb = build_session_kb(depth, entities)
    views = [f"level{j}" for j in range(depth)]
    goals = [
        f"{pred}({arg})"
        for pred in ("member", "ok", "flagged", "-member", "-flagged", "-sus_1")
        for arg in ("X", "e1", "e3")
    ]
    for view in views:
        kb.query(view, "member(X)")  # warm: maintained from here on, index built
    writes = 0
    for kind, obj, payload in session_ops(depth, entities, 90, seed=0x57A1E):
        if kind == "ask":
            assert isinstance(kb.ask(obj, payload), bool)
            continue
        getattr(kb, kind)(obj, payload)
        writes += 1
        for view in views:
            cold = OrderedSemantics(kb.program(), view, strategy="naive").least_model
            for pattern in goals:
                expected = columns.scan_answers_in(cold, goal(pattern))
                assert kb.query(view, pattern) == expected, (writes, view, pattern)
                assert kb.ask(view, pattern) == bool(expected), (writes, view, pattern)
    assert writes >= 30


@pytest.mark.parametrize("index_built", ["before-publish", "after-publish"])
def test_pinned_snapshot_answers_from_its_own_version(index_built):
    def names(model, pattern):
        return [str(a.literal) for a in answers_in(model, pattern)]

    async def scenario():
        async with ServerEngine(build_session_kb(2, 4)) as engine:
            warm = parse_request(
                {"id": 0, "op": "ask", "view": "level0", "pattern": "member(e1)"}
            )
            assert (await engine.handle(warm))["result"]["holds"] is False
            pinned = engine.snapshot
            model = pinned.models["level0"]
            if index_built == "before-publish":
                assert names(model, "member(X)") == []
                assert model._relations is not None
            tell = parse_request(
                {"id": 1, "op": "tell", "view": "level0", "rules": "enrolled_0(e1)."}
            )
            assert (await engine.handle(tell))["version"] == pinned.version + 1
            fresh = engine.snapshot.models["level0"]
            # A hot view is neither decoded nor indexed at publish.
            assert fresh is not model and fresh._relations is None
            assert names(fresh, "member(X)") == ["member(e1)"]
            assert not holds_in(fresh, "-member(e1)")
            # The reader that captured v keeps reading v.
            assert pinned.models["level0"] is model
            assert names(model, "member(X)") == []
            assert holds_in(model, "-member(e1)")
            assert names(model, "-member(X)") == [f"-member(e{i})" for i in range(4)]

    asyncio.run(scenario())


def test_interpretation_value_protocol_ignores_the_index():
    literals = [goal(t) for t in ("p(a)", "p(b)", "-q(a)", "r(a, b)", "t")]
    base = {l.atom for l in literals} | {goal("q(b)").atom}
    indexed, plain = Interpretation(literals, base), Interpretation(literals, base)
    assert [str(l) for l in indexed.relation("p", 1, True)] == ["p(a)", "p(b)"]
    assert indexed.relation("p", 1, False) == indexed.relation("p", 2, True) == ()
    assert indexed.relation("t", 0, True) == (goal("t"),)
    assert indexed._relations is not None and plain._relations is None
    assert indexed == plain and hash(indexed) == hash(plain)
    assert len({indexed, plain}) == 1
    extra = [goal("q(b)")]
    assert indexed.with_literals(extra) == plain.with_literals(extra)
    assert indexed.with_literals(extra).relation("q", 1, True) == (goal("q(b)"),)
    keep = {goal("p(a)").atom, goal("q(a)").atom}
    assert indexed.restricted_to(keep) == plain.restricted_to(keep)
    assert indexed.restricted_to(keep).relation("p", 1, True) == (goal("p(a)"),)
    assert indexed.without_literals(extra) == plain
    with pytest.raises(AttributeError):
        indexed._relations = None


def test_id_space_versions_share_one_index_that_grows_with_the_table():
    from repro.grounding.grounder import AtomTable

    atoms = [goal(t).atom for t in ("p(b)", "q(a)", "p(d)", "p(c)")]
    table = AtomTable(atoms[:3])
    old = Interpretation.over(table, bytes([1, 0, 0, 1, 0, 0]), atoms[:3])
    assert [str(l) for l in old.relation("p", 1, True)] == ["p(b)"]
    assert [str(l) for l in old.relation("q", 1, False)] == ["-q(a)"]
    index = table.predicate_ids("p", 1)
    assert list(index) == [0, 4]
    # A told atom grows the table; it sorts between the two it found.
    table.intern(atoms[3])
    new = Interpretation.over(table, bytes([1, 0, 0, 1, 1, 0, 0, 1]), atoms)
    assert [str(l) for l in new.relation("p", 1, True)] == ["p(b)", "p(d)"]
    assert [str(l) for l in new.relation("p", 1, False)] == ["-p(c)"]
    assert table.predicate_ids("p", 1) is index and list(index) == [0, 6, 4]
    # The version published before the atom existed does not see it.
    assert goal("-p(c)") in new and goal("-p(c)") not in old
    assert old.relation("p", 1, False) == ()
    assert len(old) == 2 and len(new) == 4
    assert old._literals is None and new._literals is None
    assert old == Interpretation([goal("p(b)"), goal("-q(a)")], atoms[:3])


def test_deferred_thunk_runs_once_however_the_model_is_read():
    calls = []

    def thunk():
        calls.append(1)
        return [goal("p(a)"), goal("-p(b)")]

    base = {goal("p(a)").atom, goal("p(b)").atom}
    lazy = Interpretation.deferred(thunk, base)
    assert not calls
    assert [str(l) for l in lazy.relation("p", 1, False)] == ["-p(b)"]
    assert holds_in(lazy, "p(a)") and not holds_in(lazy, "p(b)")
    assert [str(a.literal) for a in answers_in(lazy, "p(X)")] == ["p(a)"]
    assert lazy == Interpretation([goal("p(a)"), goal("-p(b)")], base)
    assert calls == [1]


# ----------------------------------------------------------------------
# The goal memo
# ----------------------------------------------------------------------
def test_goal_text_is_parsed_once_and_errors_are_not_remembered():
    kbq._parse_goal.cache_clear()
    first = goal("fly(tweety)")
    assert goal("fly(tweety)") is first
    assert kbq._parse_goal.cache_info().hits == 1
    assert goal(first) is first  # literals pass through
    spaced = goal("  fly( tweety )  ")
    assert spaced == first and spaced is not first
    assert goal("-owns(p3,N)") == goal("- owns( p3 , N )")
    for _ in range(3):
        with pytest.raises(ParseError):
            goal("fly(tweety")
    with pytest.raises(ParseError):
        goal("")
    # Four distinct texts parsed; none of the failures took a slot.
    assert kbq._parse_goal.cache_info().currsize == 4


def test_goal_memo_stays_inside_its_bound():
    kbq._parse_goal.cache_clear()
    bound = kbq.GOAL_MEMO_SIZE
    assert kbq._parse_goal.cache_info().maxsize == bound
    for i in range(10 * bound):
        assert goal(f"member(e{i})").args[0] == Constant(f"e{i}")
    assert kbq._parse_goal.cache_info().currsize == bound
    # Least recently used goes first: the newest goals are still held.
    hits = kbq._parse_goal.cache_info().hits
    goal(f"member(e{10 * bound - 1})")
    assert kbq._parse_goal.cache_info().hits == hits + 1


def test_overlong_goal_text_is_parsed_but_takes_no_memo_slot():
    # Goal text comes off the network: a remembered entry pins its key
    # and its whole parse tree, so only short text is remembered.
    kbq._parse_goal.cache_clear()
    limit = kbq.GOAL_MEMO_MAX_CHARS
    args = ",".join(f"a{i}" for i in range(limit))
    wide = f"p({args})"
    assert len(wide) > limit
    first = goal(wide)
    assert len(first.args) == limit
    assert goal(wide) == first and goal(wide) is not first
    assert kbq._parse_goal.cache_info().currsize == 0
    with pytest.raises(ParseError):
        goal(wide[:-1])
    # The boundary: text of exactly the limit is remembered.
    edge = "q(" + "x" * (limit - 3) + ")"
    assert len(edge) == limit
    assert goal(edge) is goal(edge)
    assert kbq._parse_goal.cache_info().currsize == 1
    # And an over-length goal answers like any other.
    model = Interpretation([first])
    assert holds_in(model, wide)
    assert [a.literal for a in answers_in(model, wide)] == [first]
