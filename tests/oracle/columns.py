"""The columns of the oracle matrix: one engine configuration each,
every cell checked against :mod:`.oracle` on one row, in every view
the column's eligibility predicate admits (docs/evaluation.md, "Oracle
matrix", has the table).  Each column takes a :class:`~.rows.Row` and
returns how many of its views it checked (the trace columns: how many
versions).  The serving column is :mod:`.serving`.
"""

from __future__ import annotations

import random

from repro.analysis.abstract import analyze_view, signed_name
from repro.analysis.static import classify_view
from repro.classical.stratified import stratified_least_model
from repro.core.compiled import CompiledRuleIndex, DenseFixpoint
from repro.core.interpretation import Interpretation
from repro.core.semantics import OrderedSemantics
from repro.core.statuses import ComponentOrder
from repro.explain.trace import Explainer
from repro.grounding.grounder import Grounder, GroundRules
from repro.grounding.substitution import match_atom
from repro.kb.query import Answer, answers_in, evaluate_query, goal, holds_in
from repro.lang.errors import InconsistencyError, SemanticsError
from repro.lang.literals import Atom, Literal
from repro.lang.terms import Compound, Constant, Variable
from repro.obs.trace import trace as trace_context
from repro.query import CompiledDemand, demand_answers

from ..conftest import dense_run
from . import oracle
from .oracle import Oracle
from .rows import ENUMERATION_BASE, OPTIONS, Row, family


def semantics(program, view: str, **kwargs) -> OrderedSemantics:
    return OrderedSemantics(program, view, grounding=OPTIONS, **kwargs)


def enumerable(row: Row, expected: Oracle) -> bool:
    """Whether Definition 3/7/9 model sets are enumerated on this view."""
    if row.models is not None:
        return row.models
    return len(expected.model.base) <= ENUMERATION_BASE


def told_facts(program) -> list[tuple[str, Literal]]:
    """Every (component, literal) copy of a told ground fact."""
    return [
        (comp.name, rule.head)
        for comp in program.components()
        for rule in comp.rules
        if rule.is_fact and rule.is_ground
    ]


def sweep(column, name: str) -> int:
    """``column`` over every row of the random family ``name``; returns
    the number of cells it checked."""
    return sum(column(row) for row in family(name))


def diff(mine, want) -> str:
    return (
        f"extra={sorted(map(str, mine - want))} "
        f"missing={sorted(map(str, want - mine))}"
    )


# ----------------------------------------------------------------------
# The dense kernel
# ----------------------------------------------------------------------
def kernel(row: Row) -> int:
    """Dense kernel and naive ``V`` over the relevance grounding equal
    the oracle, each is a fixpoint of the other's ``V``, and the kernel
    derives the oracle's literals stage for stage."""
    for view in row.views:
        expected = oracle.of(row, view)
        where = f"{row}/{view}"
        dense = semantics(row.program, view)
        naive = semantics(row.program, view, strategy="naive")
        for sem in (dense, naive):
            mine = sem.least_model.literals
            assert mine == expected.literals, (
                f"{where} {sem.strategy}: {diff(mine, expected.literals)}"
            )
        assert naive.transform.is_fixpoint(dense.least_model), where
        assert dense.transform.is_fixpoint(naive.least_model), where
        _, _, deltas = dense_run(dense)
        stages = expected.stages
        assert deltas == [b.literals - a.literals for a, b in zip(stages, stages[1:])], where
    return len(row.views)


# ----------------------------------------------------------------------
# Relevance grounding, the stratified closure, abstract facts
# ----------------------------------------------------------------------
def instances(ground) -> set:
    return {(r.component, r.head, r.body) for r in ground.rules}


def relevance(row: Row) -> int:
    """Relevance grounding keeps a subset of the full instances over the
    same base; where enumerable, the facade's full grounding, which its
    model search runs over (never-applicable rules still constrain
    total models), is the full instantiation."""
    for view in row.views:
        expected = oracle.of(row, view)
        where = f"{row}/{view}"
        sem = semantics(row.program, view)
        full = expected.instantiate()
        assert instances(sem.ground) <= instances(full), where
        assert sem.ground.base == full.base, where
        if enumerable(row, expected):
            assert instances(sem.full_ground) == instances(full), where
    return len(row.views)


def searched(enumerate_models) -> tuple[list, tuple[int, int, int]]:
    """What one facade enumeration returns, and its recorded tree."""
    with trace_context("search") as ctx:
        found = enumerate_models()
    shape = tuple(ctx.costs[k] for k in ("leaves_visited", "search_branches", "search_backtracks"))
    return found, shape


def search(row: Row) -> int:
    """Where enumerable, the facade's models, assumption-free models and
    stable models are the oracle's generate-and-test lists, in the same
    order over the same base, and its search visits the same leaves,
    branches and backtracks.  Returns how many views it checked."""
    checked = 0
    for view in row.views:
        expected = oracle.of(row, view)
        if not enumerable(row, expected):
            continue
        where = f"{row}/{view}"
        sem = semantics(row.program, view)
        cells = (
            (sem.models, expected.model_search.found, expected.model_search),
            (sem.assumption_free_models, expected.af_search.found, expected.af_search),
            (sem.stable_models, expected.stable_models, expected.af_search),
        )
        for mine, want, tree in cells:
            found, shape = searched(mine)
            assert [m.literals for m in found] == [m.literals for m in want], where
            assert all(m.base == expected.model.base for m in found), where
            assert shape == (tree.leaves, tree.branches, tree.backtracks), where
        checked += 1
    return checked


def stratified(row: Row) -> int:
    """The classical stratified closure equals the oracle where the
    analyzer routes the view to it."""
    cells = 0
    for view in row.views:
        if not classify_view(row.program, view).routable:
            continue
        expected = oracle.of(row, view)
        rules = [r for c in row.program.visible_components(view) for r in c.rules]
        atoms = stratified_least_model(rules, expected.instantiate().rules)
        assert frozenset(Literal(a, True) for a in atoms) == expected.literals, (
            f"{row}/{view}: stratified closure diverges"
        )
        cells += 1
    return cells


def soundness(row: Row) -> int:
    """Every signed predicate the abstract interpretation calls
    underivable has no literal in the oracle's model, every cardinality
    interval holds the true relation size, every inferred sort admits
    every derived literal."""
    for view in row.views:
        expected = oracle.of(row, view)
        analysis = analyze_view(row.program, view, max_depth=OPTIONS.max_depth)
        assert analysis is not None, f"{row}/{view}: universe construction failed"
        sizes: dict[tuple[str, int, bool], int] = {}
        for literal in expected.literals:
            key = (literal.predicate, len(literal.args), literal.positive)
            sizes[key] = sizes.get(key, 0) + 1
        for key in analysis.keys:
            fact = analysis.fact_for(*key)
            true_size = sizes.get(key, 0)
            label = f"{row}/{view}, {signed_name(key)}"
            assert fact.derivable or true_size == 0, f"{label}: underivable but {true_size}"
            assert fact.card.lo <= true_size, f"{label}: {fact.card.lo} > {true_size}"
            assert fact.card.hi is None or true_size <= fact.card.hi, (
                f"{label}: {true_size} > {fact.card.hi}"
            )
        for literal in expected.literals:
            assert analysis.admits(literal), f"{row}/{view}: sorts exclude {literal}"
    return len(row.views)


# ----------------------------------------------------------------------
# The explainer: kernel provenance and why_not
# ----------------------------------------------------------------------
def provenance(row: Row) -> int:
    """Every node of every derivation the explainer reads off the kernel
    names the oracle's stage of its literal and a rule with that head
    whose body is the node's premises, applicable and neither overruled
    nor defeated one stage earlier."""
    for view in row.views:
        expected = oracle.of(row, view)
        explainer = Explainer(semantics(row.program, view))
        ev = expected.evaluator()
        seen: set[Literal] = set()
        for root in sorted(expected.literals):
            stack = [explainer.why(root)]
            while stack:
                node = stack.pop()
                if node.literal in seen:
                    continue
                seen.add(node.literal)
                # Locals, not node attributes, in the asserts: a failure
                # report must not render a whole (possibly deep) tree.
                literal, rule, stage = node.literal, node.rule, node.stage
                where = f"{row}/{view}: {literal}"
                assert stage == expected.stage_of(literal), where
                assert rule.head == literal, where
                assert rule.body == frozenset(p.literal for p in node.premises), where
                before = expected.stages[stage - 1]
                assert ev.applicable(rule, before), where
                assert not ev.overruled(rule, before), where
                assert not ev.defeated(rule, before), where
                stack.extend(node.premises)
        assert seen == expected.literals, f"{row}/{view}"
    return len(row.views)


def why_not(row: Row) -> int:
    """For every literal of the base outside the least model, the
    explainer's failures — reason, rule and witness, in order — are
    :func:`.oracle.diagnose` over the oracle's full instantiation and
    least model."""
    for view in row.views:
        expected = oracle.of(row, view)
        explainer = Explainer(semantics(row.program, view))
        ev = expected.evaluator()
        for atom in sorted(expected.model.base, key=str):
            for literal in (Literal(atom, True), Literal(atom, False)):
                if literal in expected.model:
                    continue
                where = f"{row}/{view}: {literal}"
                report = explainer.why_not(literal)
                assert report.value is expected.model.value(literal), where
                mine = [(f.reason, f.rule, f.witness) for f in report.failures]
                assert mine == oracle.diagnose(ev, expected.model, literal), where
    return len(row.views)


# ----------------------------------------------------------------------
# Grounder ids vs encoded rules
# ----------------------------------------------------------------------
#: The watch-list arrays of a :class:`CompiledRuleIndex`.
WATCH_ARRAYS = (
    "heads",
    "body_sizes",
    "body_watch_start",
    "body_watch_rules",
    "block_watch_start",
    "block_watch_rules",
    "contra_start",
    "contra_watchers",
    "init_live_overrulers",
    "init_live_defeaters",
    "source_facts",
)

#: Every array of a :class:`CompiledRuleIndex`: the watch lists and each
#: rule's threats.
ARRAYS = (*WATCH_ARRAYS, "threat_start", "threats")


def grounder_ids(row: Row) -> int:
    """Under relevance and full grounding, the index built from the
    grounder's integer instances equals the one built by encoding the
    decoded rules, and the kernel over either equals the oracle."""
    order = ComponentOrder(row.program.order)
    for view in row.views:
        expected = oracle.of(row, view)
        for full in (False, True):
            where = f"{row}/{view} full={full}"
            ground = Grounder(OPTIONS).ground_component_star(row.program, view, full=full)
            assert isinstance(ground.rules, GroundRules), where
            by_ids = CompiledRuleIndex(ground.rules, order, ground.atom_table)
            decoded = list(ground.rules)
            by_objects = CompiledRuleIndex(decoded, order, ground.atom_table)
            assert by_objects.rules is not ground.rules
            for name in (*ARRAYS, "components"):
                assert list(getattr(by_ids, name)) == list(getattr(by_objects, name)), (
                    f"{where}: {name}"
                )
            assert by_ids.by_head == by_objects.by_head, where
            assert by_ids.n_literals == by_objects.n_literals, where
            wanted = [sorted(map(ground.atom_table.literal_id, r.body)) for r in decoded]
            for index in (by_ids, by_objects):
                start, ids = index.body_start, index.body_ids
                bodies = [sorted(ids[start[i] : start[i + 1]]) for i in range(index.n_rules)]
                assert bodies == wanted, where
                run = DenseFixpoint(index)
                run.run(2 * len(ground.base) + 2)
                assert run.interpretation(ground.base).literals == expected.literals, where
    return len(row.views)


# ----------------------------------------------------------------------
# Maintained views
# ----------------------------------------------------------------------
def assert_maintained(sem: OrderedSemantics, want: frozenset, where: str) -> None:
    mine = sem.least_model.literals
    assert mine == want, f"{where}: {diff(mine, want)}"
    if sem._maintained is not None:
        sem._maintained.audit()


#: The maintained column recomputes the oracle after every step, so it
#: runs where the view's full instantiation has at most this many rules.
MAINTAINED_RULES = 1_000


def retract_reassert(row: Row) -> int:
    """Retracting any told fact and telling it back round-trips through
    the delta engine to exactly the oracle at both stops."""
    facts = told_facts(row.program)
    checked = 0
    for view in row.views if facts else ():
        try:
            expected = oracle.of(row, view)
        except InconsistencyError:
            continue  # the view itself is inconsistent; nothing to maintain
        if expected.n_rules > MAINTAINED_RULES:
            continue
        sem = semantics(row.program, view)
        assert_maintained(sem, expected.literals, f"{row}/{view}")
        for comp, lit in facts:
            sem.apply_ops([("retract", comp, lit)])
            want = Oracle(sem.program, view).literals
            assert_maintained(sem, want, f"{row}/{view}: retract {lit} from {comp}")
            sem.apply_ops([("assert", comp, lit)])
            assert_maintained(sem, expected.literals, f"{row}/{view}: re-assert {lit}")
        checked += 1
    return checked


#: Mutation steps per random trace.
TRACE_LENGTH = 10


def mutations(sem: OrderedSemantics, rng: random.Random, steps: int):
    """Drive ``sem`` through a random tell/retract trace: ~45 % retract
    a told fact, else tell a random literal of the base into a random
    component.  Yields each applied op; stops where the mutated program
    has no least model (the caller's check decides whether that was
    right)."""
    base = sorted(sem.least_model.base, key=str)
    comps = sorted(sem.program.component_names)
    told = told_facts(sem.program)
    for _step in range(steps if base else 0):
        if told and rng.random() < 0.45:
            op = ("retract", *told[rng.randrange(len(told))])
        else:
            op = ("assert", rng.choice(comps), Literal(rng.choice(base), rng.random() < 0.7))
        try:
            sem.apply_ops([op])
        except SemanticsError as error:
            if isinstance(error, InconsistencyError):
                yield op, error
                return
            continue  # e.g. retracted a copy an earlier step already took
        (told.append if op[0] == "assert" else told.remove)(op[1:])
        yield op, None


def trace(row: Row) -> int:
    """One random mutation trace of the row's first view, each step
    against the oracle of the mutated program."""
    rng = random.Random(f"trace/{row}")
    view = row.views[0]
    sem = semantics(row.program, view)
    try:
        sem.least_model
    except InconsistencyError:
        return 0
    checked = 0
    for op, error in mutations(sem, rng, TRACE_LENGTH):
        where = f"{row}/{view} step {checked} {op}"
        try:
            want = Oracle(sem.program, view).literals
        except InconsistencyError:
            # The mutated program's own least model is inconsistent:
            # the engine must have said so.
            if error is None:
                try:
                    sem.least_model
                except InconsistencyError:
                    return checked
                raise AssertionError(f"{where}: engine missed an inconsistency")
            return checked
        assert error is None, f"{where}: engine raised {error!r}, oracle did not"
        assert_maintained(sem, want, where)
        checked += 1
    return checked


# ----------------------------------------------------------------------
# Demand vs materialized answers
# ----------------------------------------------------------------------
def shape(answers) -> list:
    return [
        (str(a.literal), sorted((str(v), str(t)) for v, t in a.bindings.items()))
        for a in answers
    ]


def open_goals(model: Interpretation) -> list[Literal]:
    """One fully open positive goal per predicate of the base."""
    signatures = sorted({a.signature for a in model.base})
    return [
        Literal(Atom(p, tuple(Variable(f"V{i}") for i in range(n))), True)
        for p, n in signatures
    ]


def demand(row: Row) -> tuple[int, int]:
    """Every goal of the row (or one open goal per predicate), asked
    once through a fresh route and then, in shuffled order and twice,
    through one compiled route (a row set, index, worklist, fetch memo
    or counter surviving a run would show as a wrong answer), answers
    bit-identically to the oracle's materialized model — literals,
    bindings and order — wherever the demand route serves.  The
    compiled route serves exactly the goals the fresh one does.
    Returns (served, asked) over the fresh asks."""
    served = asked = 0
    rng = random.Random(f"demand/{row}")
    for view in row.views:
        expected = oracle.of(row, view)
        goals = list(row.goals) or open_goals(expected.model)
        fresh = {}
        for pattern in goals:
            result = demand_answers(row.program, view, pattern)
            want = shape(answers_in(expected.model, pattern))
            if result.used:
                assert shape(result.answers) == want, f"{row}/{view}: {pattern}"
                served += 1
            asked += 1
            fresh[str(pattern)] = (result.used, want)
        reused = goals * 2
        rng.shuffle(reused)
        compiled = CompiledDemand(row.program, view)
        for pattern in reused:
            result = compiled.ask(pattern)
            used, want = fresh[str(pattern)]
            where = f"{row}/{view}: compiled {pattern}"
            assert result.used == used, where
            if used:
                assert shape(result.answers) == want, where
    return served, asked


# ----------------------------------------------------------------------
# Indexed reads vs the reference scan
# ----------------------------------------------------------------------
MODES = ("cautious", "skeptical", "credulous")


def scan_matches(interp, pattern):
    """The reference read: every literal of the model, one-sided
    unification against each."""
    for literal in interp:
        if literal.positive != pattern.positive:
            continue
        bindings = match_atom(pattern.atom, literal.atom)
        if bindings is not None:
            yield literal, bindings


def scan_answers_in(interp, pattern) -> list[Answer]:
    answers = [Answer(l, b) for l, b in scan_matches(interp, pattern)]
    return sorted(answers, key=lambda a: str(a.literal))


def scan_evaluate(models, pattern, mode) -> list[Answer]:
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
    """One goal per shape the read path distinguishes (ground true,
    false, undefined; open, partially bound, repeated variable,
    compound, negative, 0-ary, unknown predicate, wrong arity), drawn
    from the model's own base where the shape needs something to
    exist."""
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
    sem: OrderedSemantics, expected: Oracle, rng: random.Random, modes, extra=()
) -> int:
    """Every goal shape (plus ``extra`` goals), through every public
    read of the engine's model, against the scan of the oracle's;
    returns the number of goals checked."""
    least = sem.least_model
    stable = expected.stable_models if len(modes) > 1 else []
    shapes = goal_shapes(rng, expected.model)
    shapes.update((f"goal:{text}", goal(text)) for text in extra)
    for label, pattern in shapes.items():
        want = scan_answers_in(expected.model, pattern)
        where = f"{label}: {pattern} in view {sem.component!r}"
        assert answers_in(least, pattern) == want, where
        assert holds_in(least, pattern) == bool(want), where
        text = str(pattern)
        if goal(text) == pattern:  # the surface syntax round-trips
            assert answers_in(least, text) == want, where
        for mode in modes:
            models = [expected.model] if mode == "cautious" or not stable else stable
            assert evaluate_query(sem, pattern, mode) == scan_evaluate(
                models, pattern, mode
            ), f"{mode} {where}"
    return len(shapes)


#: An atom interned after a version was published.
LATE = Atom("zz_late", (Constant("a"),))


def assert_id_space_matches_decoded(model: Interpretation, rng: random.Random) -> None:
    """A flags-backed model against the object-backed interpretation of
    the literals its flags decode to: ``in``, ``len``, ``value``,
    ``relation`` contents and order, ``answers_in``/``holds_in`` — all
    without building a member — then ``==``, ``hash``, ``sorted`` and
    ``undefined_atoms``."""
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


def assert_cold_model_reads_in_id_space(
    sem: OrderedSemantics, rng: random.Random
) -> None:
    """The least model of a cold kernel run is the same kind of value as
    a maintained version: computing it and asking it ground goals, under
    a trace, decodes nothing."""
    with trace_context("cold") as ctx:
        cold = sem.least_model
        for atom in sorted(cold.base, key=str):
            for literal in (Literal(atom, True), Literal(atom, False)):
                held = evaluate_query(sem, literal, "cautious")
                assert [a.literal for a in held] == [literal] * (literal in cold)
    assert "decoded_literals" not in ctx.costs
    assert cold._flags is not None and cold._literals is None
    assert_id_space_matches_decoded(cold, rng)


def reads(row: Row) -> int:
    """Probe reads of the kernel's model against the scan of the
    oracle's, on every goal shape and the row's own goals, in every mode
    the view enumerates."""
    rng = random.Random(f"reads/{row}")
    for view in row.views:
        expected = oracle.of(row, view)
        modes = MODES if enumerable(row, expected) else ("cautious",)
        assert_reads_match_scan(semantics(row.program, view), expected, rng, modes, row.goals)
    return len(row.views)


#: Steps of the random tell/retract trace each view's id-space reads
#: are checked over.
ID_SPACE_TRACE = 6


def id_space(row: Row, rounds: int = 1) -> int:
    """The cold least model of every view, and every version a
    maintained view publishes over a random trace, is an id-space value
    indistinguishable from its decoded literals.  Returns how many
    maintained versions were checked; a trace whose every step forces a
    re-grounding maintains nothing, so up to ``rounds`` traces are drawn
    until one does."""
    rng = random.Random(f"id_space/{row}")
    for view in row.views:
        assert_cold_model_reads_in_id_space(semantics(row.program, view), rng)
    checked = 0
    for _round in range(rounds):
        for view in row.views:
            sem = semantics(row.program, view)
            try:
                sem.least_model
            except InconsistencyError:
                continue
            for _op, error in mutations(sem, rng, ID_SPACE_TRACE):
                try:
                    if error is not None:
                        raise error
                    model = sem.least_model
                except InconsistencyError:
                    break  # the mutated program has no least model
                if model._flags is not None and model._literals is None:
                    # (a step that changes nothing visible keeps the version)
                    assert_id_space_matches_decoded(model, rng)
                    checked += 1
        if checked:
            break
    return checked
