"""Materialized reads are probes, not scans (docs/server.md, "Read path").

A ground goal is answered by one membership test and a non-ground goal
is matched against the literals of its own signed predicate, read from
an index the model value builds for itself on its first open-goal read.
The full-model scan those two replaced is kept *here* as the reference:

* **Differential** — on the paper figures, every workload generator and
  a seeded sweep of random first-order programs, ``answers_in`` /
  ``holds_in`` / ``evaluate_query`` (cautious, skeptical, credulous)
  equal the scan: same literals, same bindings, same order, on every
  goal shape (ground true / false / undefined, fully open, partially
  bound, repeated variable, compound argument, negative, 0-ary, unknown
  predicate, known symbol at the wrong arity).
* **Staleness** — the index is a cache on an immutable value, so it can
  never be stale: reads after every write of a warm maintained view
  equal cold evaluation, a pinned snapshot keeps answering from its own
  version, and the ``Interpretation`` value protocol does not see it.
* **Id space vs decoded** — a kernel model, cold or maintained, is the
  membership flags read through the atom table
  (``Interpretation.over``).  On the same programs, for the cold least
  model of every view and after every step of
  a random tell/retract trace, that value and the interpretation built
  from its decoded literals are indistinguishable: ``in``, ``len``,
  ``value``, ``relation`` contents *and order*, ``answers_in`` /
  ``holds_in`` — all without building a member — then ``==``, ``hash``,
  ``sorted`` and ``undefined_atoms``.
* **Goal memo** — text is parsed once per distinct goal, errors are not
  remembered, and the memo stays inside its bound.

The random sweep is also a row of the demand differential lane
(``tests/properties/test_demand_differential.py``), which scales it with
``DEMAND_PROGRAMS``.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.interpretation import Interpretation
from repro.core.maintenance import MaintenanceConfig
from repro.core.semantics import OrderedSemantics
from repro.grounding.grounder import GroundingOptions
from repro.grounding.substitution import match_atom
from repro.kb import query as kbq
from repro.kb.query import Answer, answers_in, evaluate_query, goal, holds_in
from repro.lang.errors import InconsistencyError, ParseError, SemanticsError
from repro.lang.literals import Atom, Literal
from repro.lang.parser import parse_program
from repro.lang.terms import Compound, Constant, Variable
from repro.obs.trace import trace as trace_context
from repro.server import ServerEngine, parse_request
from repro.workloads import build_session_kb, session_ops

from ..properties.test_abstract_differential import (
    ENUMERATION_BASE,
    OPTIONS,
    PAPER_PROGRAMS,
    WORKLOAD_PROGRAMS,
    random_first_order_program,
)
from ..properties.test_maintenance_differential import told_facts

#: Random programs swept by this file's own lane (the acceptance floor).
N_RANDOM_PROGRAMS = 100

MODES = ("cautious", "skeptical", "credulous")


# ----------------------------------------------------------------------
# The reference: the scan the read path used to be
# ----------------------------------------------------------------------
def scan_matches(interp, pattern):
    """``kb/query.py::_matches`` as it was: every literal of the model,
    one-sided unification against each."""
    for literal in interp:
        if literal.positive != pattern.positive:
            continue
        bindings = match_atom(pattern.atom, literal.atom)
        if bindings is not None:
            yield literal, bindings


def scan_answers_in(interp, pattern):
    answers = [Answer(l, b) for l, b in scan_matches(interp, pattern)]
    return sorted(answers, key=lambda a: str(a.literal))


def scan_evaluate(models, pattern, mode):
    """The materialized tail of ``evaluate_query`` over the scan."""
    answers = []
    for literal, bindings in scan_matches(models[0], pattern):
        if mode == "skeptical" and not all(literal in m for m in models):
            continue
        answers.append(Answer(literal, bindings))
    if mode == "credulous":
        seen = {a.literal for a in answers}
        for m in models[1:]:
            for literal, bindings in scan_matches(m, pattern):
                if literal not in seen:
                    seen.add(literal)
                    answers.append(Answer(literal, bindings))
    return sorted(answers, key=lambda a: str(a.literal))


# ----------------------------------------------------------------------
# Goal shapes
# ----------------------------------------------------------------------
X, Y = Variable("X"), Variable("Y")


def _open_term(term):
    """The term with every constant below a function symbol replaced by
    a fresh-enough variable: ``f(a, g(b))`` -> ``f(X, g(Y))``."""
    names = iter("XYZUVW")

    def walk(t):
        if isinstance(t, Compound):
            return Compound(t.functor, tuple(walk(a) for a in t.args))
        return Variable(next(names, "T"))

    return walk(term)


def goal_shapes(rng: random.Random, interp: Interpretation) -> dict[str, Literal]:
    """One goal per shape the read path distinguishes, drawn from the
    model's own base where the shape needs something to exist."""
    shapes: dict[str, Literal] = {}
    members = sorted(interp, key=str)
    base = sorted(interp.base, key=str)
    if members:
        hit = rng.choice(members)
        shapes["ground-true"] = hit
        shapes["ground-false"] = hit.complement()
    undefined = sorted(interp.undefined_atoms(), key=str)
    if undefined:
        atom = rng.choice(undefined)
        shapes["ground-undefined"] = Literal(atom, True)
        shapes["ground-undefined-negative"] = Literal(atom, False)
    signatures = sorted({a.signature for a in base})
    for predicate, arity in signatures:
        variables = tuple(Variable(f"V{i}") for i in range(arity))
        if arity == 0:
            shapes[f"nullary:{predicate}"] = Literal(Atom(predicate), True)
            shapes[f"nullary-negative:{predicate}"] = Literal(Atom(predicate), False)
            continue
        shapes[f"open:{predicate}/{arity}"] = Literal(Atom(predicate, variables), True)
        shapes[f"open-negative:{predicate}/{arity}"] = Literal(
            Atom(predicate, variables), False
        )
        shapes[f"wrong-arity:{predicate}/{arity}"] = Literal(
            Atom(predicate, variables + (Variable("Extra"),)), rng.random() < 0.5
        )
        if arity >= 2:
            shapes[f"repeated:{predicate}/{arity}"] = Literal(
                Atom(predicate, (X,) * arity), rng.random() < 0.5
            )
    wide = [a for a in base if len(a.args) >= 2]
    if wide:
        atom = rng.choice(wide)
        hole = rng.randrange(len(atom.args))
        args = tuple(X if i == hole else t for i, t in enumerate(atom.args))
        shapes["partially-bound"] = Literal(Atom(atom.predicate, args), True)
        shapes["partially-bound-negative"] = Literal(Atom(atom.predicate, args), False)
    nested = [a for a in base if any(isinstance(t, Compound) for t in a.args)]
    if nested:
        atom = rng.choice(nested)
        args = tuple(_open_term(t) if isinstance(t, Compound) else t for t in atom.args)
        shapes["compound"] = Literal(Atom(atom.predicate, args), True)
    else:
        for predicate, arity in signatures:
            if arity:  # a function symbol the base does not have
                args = (Compound("f", (X,)),) + (Y,) * (arity - 1)
                shapes["compound-absent"] = Literal(Atom(predicate, args), True)
                break
    shapes["unknown-open"] = Literal(Atom("zz_unknown", (X,)), True)
    shapes["unknown-ground"] = Literal(Atom("zz_unknown", (Constant("a"),)), False)
    shapes["unknown-nullary"] = Literal(Atom("zz_unknown"), True)
    if members:
        wrong = rng.choice(members)
        shapes["wrong-arity-ground"] = Literal(
            Atom(wrong.predicate, wrong.args + (Constant("a"),)), wrong.positive
        )
    return shapes


def assert_reads_match_scan(
    semantics: OrderedSemantics, rng: random.Random, modes=("cautious",)
) -> int:
    """Every goal shape, through every public read, against the scan;
    returns the number of goals checked."""
    least = semantics.least_model
    stable = semantics.stable_models() if len(modes) > 1 else []
    shapes = goal_shapes(rng, least)
    for label, pattern in shapes.items():
        expected = scan_answers_in(least, pattern)
        where = f"{label}: {pattern} in view {semantics.component!r}"
        assert answers_in(least, pattern) == expected, where
        assert holds_in(least, pattern) == bool(expected), where
        text = str(pattern)
        if goal(text) == pattern:  # the surface syntax round-trips
            assert answers_in(least, text) == expected, where
        for mode in modes:
            models = [least] if mode == "cautious" or not stable else stable
            assert evaluate_query(semantics, pattern, mode) == scan_evaluate(
                models, pattern, mode
            ), f"{mode} {where}"
    return len(shapes)


#: Steps of the random tell/retract trace each view is maintained over.
TRACE_LENGTH = 6

LATE = Atom("zz_late", (Constant("a"),))


def assert_id_space_matches_decoded(model: Interpretation, rng: random.Random) -> None:
    """A flags-backed model against the object-backed interpretation of
    the literals its flags decode to."""
    table, flags = model._table, model._flags
    decoded = Interpretation(
        [table.literal(i) for i, flag in enumerate(flags) if flag], model.base
    )
    assert len(model) == len(decoded)
    table.intern(LATE)  # the table outgrows the version: not a member
    probes = [Literal(atom, sign) for atom in model.base for sign in (True, False)]
    probes += [l.complement() for l in decoded]
    probes += [Literal(LATE, True), Literal(LATE, False)]
    probes += [goal("zz_never(a)"), goal("-zz_never(a)"), goal("zz_never(X)")]
    for literal in probes:
        assert (literal in model) == (literal in decoded), literal
        assert model.value(literal) is decoded.value(literal), literal
    for junk in ("p(a)", LATE, None, 7, ("p", "a")):
        assert junk not in model and junk not in decoded
    signatures = {a.signature for a in model.base} | {LATE.signature}
    signatures |= {("zz_never", 1)} | {(p, n + 1) for p, n in signatures}
    for predicate, arity in sorted(signatures):
        for sign in (True, False):
            got = model.relation(predicate, arity, sign)
            assert got == decoded.relation(predicate, arity, sign)
            assert model.relation(predicate, arity, sign) is got
    for label, pattern in goal_shapes(rng, decoded).items():
        assert answers_in(model, pattern) == answers_in(decoded, pattern), label
        assert holds_in(model, pattern) == holds_in(decoded, pattern), label
    assert model._literals is None  # every read so far stayed in id space
    assert model == decoded and decoded == model
    assert hash(model) == hash(decoded) and len({model, decoded}) == 1
    assert sorted(model) == sorted(decoded)
    assert model.undefined_atoms() == decoded.undefined_atoms()
    assert model.literals == decoded.literals


def assert_maintained_models_read_in_id_space(
    program, component: str, rng: random.Random
) -> int:
    """Maintain one view over a random tell/retract trace; returns how
    many of its versions were id-space values (all that the delta
    engine produced, each checked)."""
    semantics = OrderedSemantics(program, component, grounding=OPTIONS)
    base = sorted(semantics.least_model.base, key=str)
    told = told_facts(program)
    checked = 0
    for _step in range(TRACE_LENGTH if base else 0):
        if told and rng.random() < 0.45:
            op = ("retract", *rng.choice(told))
        else:
            literal = Literal(rng.choice(base), rng.random() < 0.7)
            op = ("assert", rng.choice(sorted(program.component_names)), literal)
        try:
            semantics.apply_ops([op])
            model = semantics.least_model
        except InconsistencyError:
            break  # the mutated program has no least model
        except SemanticsError:
            continue  # retracted a copy an earlier step already took
        (told.append if op[0] == "assert" else told.remove)(op[1:])
        if model._flags is not None and model._literals is None:
            # (a step that changes nothing visible keeps the version)
            assert_id_space_matches_decoded(model, rng)
            checked += 1
    return checked


def assert_cold_model_reads_in_id_space(
    program, component: str, rng: random.Random
) -> None:
    """The least model of a cold kernel run is the same kind of value as
    a maintained version: computing it and asking it ground goals, under
    a trace, decodes nothing."""
    semantics = OrderedSemantics(
        program, component, grounding=OPTIONS, strategy="seminaive"
    )
    with trace_context("cold") as ctx:
        cold = semantics.least_model
        for atom in sorted(cold.base, key=str):
            for literal in (Literal(atom, True), Literal(atom, False)):
                held = evaluate_query(semantics, literal, "cautious")
                assert [a.literal for a in held] == [literal] * (literal in cold)
    assert "decoded_literals" not in ctx.costs
    assert cold._flags is not None and cold._literals is None
    assert_id_space_matches_decoded(cold, rng)


def check_views(program, rng, enumerate_models):
    checked = maintained = 0
    for component in sorted(program.component_names):
        semantics = OrderedSemantics(program, component, grounding=OPTIONS)
        modes = MODES if enumerate_models else ("cautious",)
        checked += assert_reads_match_scan(semantics, rng, modes)
        assert_cold_model_reads_in_id_space(program, component, rng)
    # A trace whose every step forces a re-grounding (a retracted fact
    # held a constant's last occurrence) maintains nothing: draw again.
    for _round in range(4):
        for component in sorted(program.component_names):
            maintained += assert_maintained_models_read_in_id_space(
                program, component, rng
            )
        if maintained:
            break
    assert maintained  # the delta engine absorbed some step of some view
    return checked


# ----------------------------------------------------------------------
# Differential lanes
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
        shapes = goal_shapes(rng, semantics.least_model)
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
        assert assert_reads_match_scan(semantics, rng, MODES) >= len(shapes)
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


@pytest.mark.parametrize(
    "program", [p for _, p in PAPER_PROGRAMS], ids=[n for n, _ in PAPER_PROGRAMS]
)
def test_paper_programs(program):
    assert check_views(program, random.Random(0x1990), enumerate_models=True)


@pytest.mark.parametrize(
    "program,enumerate_models",
    [(p, e) for _, p, e in WORKLOAD_PROGRAMS],
    ids=[n for n, _, _ in WORKLOAD_PROGRAMS],
)
def test_workload_generators(program, enumerate_models):
    assert check_views(program, random.Random(0xC0DE), enumerate_models)


def sweep_random_programs(n_programs: int, seed: int) -> int:
    """``n_programs`` random first-order programs, every view, every
    mode where the base is small enough to enumerate stable models."""
    rng = random.Random(seed)
    checked = 0
    for _trial in range(n_programs):
        program = random_first_order_program(rng)
        for component in sorted(program.component_names):
            semantics = OrderedSemantics(program, component, grounding=OPTIONS)
            small = len(semantics.ground.base) <= ENUMERATION_BASE
            checked += assert_reads_match_scan(
                semantics, rng, MODES if small else ("cautious",)
            )
    return checked


def test_random_program_sweep():
    assert sweep_random_programs(N_RANDOM_PROGRAMS, 0x1DE8) >= N_RANDOM_PROGRAMS


def test_random_program_sweep_maintained_models_in_id_space():
    rng = random.Random(0x1D5)
    versions = 0
    for _trial in range(N_RANDOM_PROGRAMS):
        program = random_first_order_program(rng)
        for component in sorted(program.component_names):
            versions += assert_maintained_models_read_in_id_space(program, component, rng)
    assert versions >= 2 * N_RANDOM_PROGRAMS


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
            cold = OrderedSemantics(
                kb.program(),
                view,
                strategy="naive",
                maintenance=MaintenanceConfig(enabled=False),
            ).least_model
            for pattern in goals:
                expected = scan_answers_in(cold, goal(pattern))
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
