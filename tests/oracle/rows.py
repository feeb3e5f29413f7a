"""The row table: every program a column of the oracle matrix checks.

A row is a ``(generator, arguments)`` pair, optionally passed through a
reduction (OV, EV, 3V) or wrapped as a one-component program, and built
on first use; :func:`reduced` builds a reduction row's siblings over
its source rules.  Named rows are the paper's figures and examples
(:data:`PAPER`) and the workload generators (:data:`WORKLOADS`); the
seeded random program families are built by :func:`family`, sized by
``ORACLE_SCALE`` (:mod:`.scale`).  The serving column's client traces
are drawn per seed by :mod:`.serving` from ``workloads.clients``.

A row's label is its pytest id.  ``models`` says whether Definition
3/7/9 model sets are enumerated on it: ``None`` (every random row)
enumerates exactly where the view's Herbrand base has at most
:data:`ENUMERATION_BASE` atoms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Optional

from repro.grounding.grounder import GroundingOptions
from repro.lang.builtins import Comparison
from repro.lang.literals import Atom, Literal
from repro.lang.parser import parse_rules
from repro.lang.program import Component, OrderedProgram
from repro.lang.rules import Rule
from repro.lang.terms import Constant, Variable
from repro.reductions import extended_version, ordered_version, three_level_version
from repro.reductions.ordered_version import PROGRAM_COMPONENT
from repro.reductions.three_level import NEGATIVE_COMPONENT
from repro.workloads import classic, experts, hierarchies, paper, point_query, sessions
from repro.workloads.random_programs import (
    random_negative_rules,
    random_ordered_program,
    random_rules,
    random_seminegative_rules,
    random_stratified_program,
)

from .scale import size

#: Term-depth cap shared by every column and the oracle, so that all of
#: them describe the same ground program.
OPTIONS = GroundingOptions(max_depth=3)

#: Largest Herbrand base a row with ``models=None`` enumerates over.
ENUMERATION_BASE = 8


@dataclass(frozen=True)
class Reduction:
    """A reduction as a row's ``via``: the ordered program it builds
    from the source rules ``C``, and the view whose meaning is ``C``'s."""

    name: str
    reduce: Callable
    view: str

    def __call__(self, rules) -> OrderedProgram:
        return self.reduce(rules).program


OV = Reduction("ov", ordered_version, PROGRAM_COMPONENT)
EV = Reduction("ev", extended_version, PROGRAM_COMPONENT)
TV = Reduction("3v", three_level_version, NEGATIVE_COMPONENT)
SINGLE = OrderedProgram.single


@dataclass(eq=False)
class Row:
    label: str
    generator: Callable
    args: tuple = ()
    via: Optional[Callable] = None
    models: Optional[bool] = None
    #: Goals the demand column asks (rows of the ``stratified`` and
    #: ``fo_stratified`` families draw their own).
    goals: tuple[str, ...] = ()

    @cached_property
    def source(self):
        """What the generator built: the program, or the rules ``via``
        turns into one."""
        return self.generator(*self.args)

    @cached_property
    def program(self) -> OrderedProgram:
        return self.source if self.via is None else self.via(self.source)

    @property
    def views(self) -> list[str]:
        return sorted(self.program.component_names)

    def __str__(self) -> str:
        return self.label


PAPER = [
    Row("figure1", paper.figure1, models=True),
    Row("figure1_flat", paper.figure1_flat, models=True),
    Row("figure2", paper.figure2, models=True),
    Row("figure3_empty", paper.figure3, models=True),
    Row("figure3_inflation", paper.figure3, (["inflation(12)."],)),
    Row("figure3_conflict", paper.figure3, (["inflation(12).", "loan_rate(16)."],), models=True),
    Row("figure3_overrule", paper.figure3, (["inflation(19).", "loan_rate(16)."],), models=True),
    Row("example3", paper.example3, models=True),
    Row("example4", paper.example4, models=True),
    Row("example4_extended", paper.example4_extended, models=True),
    Row("example5", paper.example5, models=True),
    Row("example6", paper.example6_ancestor, via=OV, models=True),
    Row("example7", paper.example7, via=OV, models=True),
    Row("example8", paper.example8_birds, via=TV, models=True),
    Row("example9", paper.example9_colored, via=TV, models=True),
    Row("scaled_figure1", paper.scaled_figure1, (6, 3), models=True),
    Row("scaled_figure1_8x3", paper.scaled_figure1, (8, 3)),
    Row("scaled_figure2", paper.scaled_figure2, (4, 2), models=True),
    Row("scaled_figure2_6x2", paper.scaled_figure2, (6, 2)),
    Row("scaled_figure2_20x5", paper.scaled_figure2, (20, 5)),
    Row("scaled_figure3_boom", paper.figure3, (["inflation(12).", "loan_rate(10)."],)),
    Row("scaled_figure3_bust", paper.figure3, (["inflation(9).", "loan_rate(16)."],)),
]

WORKLOADS = [
    Row("override_chain", hierarchies.override_chain, (4,), models=True),
    Row("override_chain_5", hierarchies.override_chain, (5,)),
    Row("override_chain_even", hierarchies.override_chain, (6,)),
    Row("override_chain_odd", hierarchies.override_chain, (7,)),
    Row("diamond", hierarchies.diamond, (2,), models=True),
    Row("diamond_3", hierarchies.diamond, (3,)),
    Row("diamond_4", hierarchies.diamond, (4,)),
    Row("taxonomy", hierarchies.taxonomy, (6, 2), models=True),
    Row("taxonomy_8x2", hierarchies.taxonomy, (8, 2)),
    Row("taxonomy_12x3", hierarchies.taxonomy, (12, 3)),
    Row("release_chain", hierarchies.release_chain, (3,), models=True),
    Row("release_chain_4", hierarchies.release_chain, (4,)),
    Row("release_chain_6", hierarchies.release_chain, (6,)),
    Row("release_chain_64", hierarchies.release_chain, (64,)),
    Row("expert_panel", experts.expert_panel, (2, 2), models=True),
    Row("expert_panel_3x3", experts.expert_panel, (3, 3)),
    Row("contradicting_panel", experts.contradicting_panel, (3,), models=True),
    Row("contradicting_panel_4", experts.contradicting_panel, (4,)),
    Row("ov_ancestor", classic.ancestor_chain, (4,), via=OV, models=True),
    Row("ov_ancestor_5", classic.ancestor_chain, (5,), via=OV),
    Row("ov_win_move", classic.win_move, (4, 2), via=OV, models=True),
    Row("ov_win_move_5x3", classic.win_move, (5, 3), via=OV),
    Row("ev_even_odd", classic.even_odd, (4,), via=EV, models=False),
    Row("ev_even_odd_6", classic.even_odd, (6,), via=EV, models=False),
    Row("3v_two_stable", classic.two_stable, (2,), via=TV, models=True),
    Row("sparse_pairs", classic.sparse_pairs, (12, 3), via=SINGLE, models=False),
    Row("ancestor_chain", classic.ancestor_chain, (6,), via=SINGLE, models=False),
    Row("win_move", classic.win_move, (4, 2), via=SINGLE, models=False),
    Row("even_odd", classic.even_odd, (4,), via=SINGLE, models=False),
    Row("two_stable", classic.two_stable, (2,), via=SINGLE, models=True),
    Row("forest", point_query.forest_program, (2, 3), models=False),
    Row("session", sessions.session_program, (3, 4), models=False),
    Row("session_2x8", sessions.session_program, (2, 8), models=False),
    Row("interactive_session", sessions.interactive_session, (3, 4), models=False),
    Row("random_ordered", random_ordered_program, (random.Random(14),), models=True),
    Row("random_stratified", random_stratified_program, (random.Random(14),), models=True),
]

NAMED = PAPER + WORKLOADS

#: The named rows built by a reduction, with the source rules kept.
REDUCED = [row for row in NAMED if isinstance(row.via, Reduction)]


@cache
def reduced(row: Row, via: Reduction) -> Row:
    """``row``'s source rules through ``via``: the row itself, or a
    sibling labelled ``{row}/{via.name}`` with an oracle of its own."""
    if row.via is via:
        return row
    return Row(f"{row}/{via.name}", lambda: row.source, via=via)


# ----------------------------------------------------------------------
# Seeded random families
# ----------------------------------------------------------------------
def draw_ordered(rng: random.Random) -> OrderedProgram:
    """The propositional ordered family's one parameter draw."""
    return random_ordered_program(
        rng,
        n_atoms=rng.randint(2, 6),
        n_components=rng.randint(1, 4),
        n_rules=rng.randint(1, 14),
        max_body=rng.randint(0, 3),
        neg_head_prob=rng.uniform(0.1, 0.6),
        neg_body_prob=rng.uniform(0.1, 0.6),
        order_density=rng.uniform(0.0, 1.0),
    )


FO_CONSTANTS = [Constant("a"), Constant("b"), Constant(1), Constant(2)]
FO_VARIABLES = [Variable("X"), Variable("Y")]
FO_SIGNATURES = [("p", 1), ("q", 1), ("s", 1), ("r", 2), ("t", 0)]


def _random_literal(rng, neg_prob, var_prob, constants):
    predicate, arity = rng.choice(FO_SIGNATURES)
    args = tuple(
        rng.choice(FO_VARIABLES) if rng.random() < var_prob else rng.choice(constants)
        for _ in range(arity)
    )
    return Literal(Atom(predicate, args), rng.random() >= neg_prob)


def draw_first_order(rng: random.Random) -> OrderedProgram:
    """Facts, rules with shared, head-only and body-only variables,
    contradicting heads and the odd guard, spread over an isa order."""
    constants = FO_CONSTANTS[: rng.randint(1, len(FO_CONSTANTS))]
    neg_head = rng.uniform(0.0, 0.5)
    neg_body = rng.uniform(0.0, 0.4)
    names = [f"c{i}" for i in range(rng.randint(1, 3))]
    buckets: dict[str, list[Rule]] = {name: [] for name in names}
    for _ in range(rng.randint(1, 9)):
        if rng.random() < 0.4:
            r = Rule(_random_literal(rng, neg_head, 0.0, constants))
        else:
            body = [
                _random_literal(rng, neg_body, 0.7, constants)
                for _ in range(rng.randint(1, 3))
            ]
            if rng.random() < 0.25:
                op = rng.choice(["!=", "<", "="])
                right = rng.choice([FO_VARIABLES[1], Constant(2)])
                body.append(Comparison(op, FO_VARIABLES[0], right))
            r = Rule(_random_literal(rng, neg_head, 0.7, constants), body)
        buckets[rng.choice(names)].append(r)
    pairs = [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
        if rng.random() < 0.6
    ]
    return OrderedProgram([Component(n, rs) for n, rs in buckets.items()], pairs)


FO_STRATIFIED_CONSTANTS = [f"c{i}" for i in range(6)]


def draw_fo_stratified(rng: random.Random) -> OrderedProgram:
    """A random stratified first-order program over small binary/unary
    EDB relations: transitive closures, joins, projections, an optional
    negation stratum and an optional comparison guard."""
    constants = FO_STRATIFIED_CONSTANTS
    lines = [
        f"e({rng.choice(constants)}, {rng.choice(constants)})."
        for _ in range(rng.randint(6, 16))
    ]
    lines += [f"mark({rng.choice(constants)})." for _ in range(rng.randint(2, 5))]
    lines.append("t(X, Y) <- e(X, Y).")
    if rng.random() < 0.8:
        # Randomly left- or right-linear recursion.
        if rng.random() < 0.5:
            lines.append("t(X, Z) <- e(X, Y), t(Y, Z).")
        else:
            lines.append("t(X, Z) <- t(X, Y), e(Y, Z).")
    lines.append("q(X) <- t(X, Y), mark(Y).")
    if rng.random() < 0.4:
        lines.append("p(X, Y) <- t(X, Y), X != Y.")
    if rng.random() < 0.4:
        # A stratum with negation: demand must drop these rules, the
        # assumption-free least model never fires them either.
        lines.append("lone(X) <- mark(X), ~q(X).")
    if rng.random() < 0.3:
        lines.append("some <- q(X).")
    if rng.random() < 0.5:
        # A variable repeated inside one body atom: the only shape the
        # compiled join checks (rather than binds or probes by).
        lines.append("loop(X) <- t(X, X).")
    return OrderedProgram.single(tuple(parse_rules("\n".join(lines))), name="main")


def draw_fo_goals(rng: random.Random, program: OrderedProgram) -> tuple[str, ...]:
    """Open, partially bound and ground goals over a
    :func:`draw_fo_stratified` program."""
    a = rng.choice(FO_STRATIFIED_CONSTANTS)
    b = rng.choice(FO_STRATIFIED_CONSTANTS)
    goals = ["t(X, Y)", "q(X)", "e(X, X)", f"t({a}, X)", f"t(X, {b})"]
    goals += [f"t({a}, {b})", f"q({b})", "t(X, X)"]
    heads = {r.head.predicate for r in program.components()[0].rules}
    optional = {"some": "some", "lone": "lone(X)", "p": f"p(X, {a})", "loop": "loop(X)"}
    goals += [goal for head, goal in optional.items() if head in heads]
    return tuple(goals)


def _stratified_row(i: int) -> Row:
    rng = random.Random(i)
    program = random_stratified_program(rng)
    atoms = sorted({r.head.predicate for c in program.components() for r in c.rules})
    goals = tuple(rng.sample(atoms, min(3, len(atoms))))
    return Row(f"stratified/{i}", lambda: program, goals=goals)


def _fo_stratified_row(i: int) -> Row:
    rng = random.Random(10_000 + i)
    program = draw_fo_stratified(rng)
    return Row(f"fo_stratified/{i}", lambda: program, goals=draw_fo_goals(rng, program))


def _sequential(name: str, seed: int, draw: Callable, **fields) -> Callable[[int], Row]:
    rng = random.Random(seed)

    def row(i: int) -> Row:
        program = draw(rng)
        return Row(f"{name}/{i}", lambda: program, **fields)

    return row


def draw_classical(kind: str) -> Callable[[random.Random], list[Rule]]:
    """The classical families' one parameter draw: ground rules over at
    most five atoms, positive, seminegative or negative by construction."""

    def draw(rng: random.Random) -> list[Rule]:
        shape = dict(n_atoms=rng.randint(1, 5), n_rules=rng.randint(1, 7), max_body=2)
        if kind == "positive":
            return random_rules(rng, **shape, neg_head_prob=0.0, neg_body_prob=0.0)
        if kind == "seminegative":
            return random_seminegative_rules(rng, **shape, neg_body_prob=rng.uniform(0.2, 0.6))
        return random_negative_rules(rng, **shape, neg_head_prob=rng.uniform(0.2, 0.6))

    return draw


#: The classical families: each row is its source ``C`` through the
#: first reduction, and the claims read the rest as :func:`reduced`
#: siblings.
CLASSICAL = {"positive": (OV, EV), "seminegative": (OV, EV), "negative": (TV,)}


@cache
def family(name: str) -> tuple[Row, ...]:
    """The seeded random family ``name`` at this ``ORACLE_SCALE``:
    ``ordered`` (propositional ordered programs), ``stratified``
    (propositional stratified), ``first_order`` (first-order ordered),
    ``fo_stratified`` (first-order stratified, with goals), or one of
    the classical :data:`CLASSICAL` families of ground rules."""
    make = {
        "ordered": _sequential("ordered", 0x5EED, draw_ordered),
        "first_order": _sequential("first_order", 0xAB57, draw_first_order),
        "stratified": _stratified_row,
        "fo_stratified": _fo_stratified_row,
        "positive": _sequential("positive", 0x9051, draw_classical("positive"), via=OV),
        "seminegative": _sequential(
            "seminegative", 0x5E41, draw_classical("seminegative"), via=OV
        ),
        "negative": _sequential("negative", 0x4E6A, draw_classical("negative"), via=TV),
    }[name]
    return tuple(make(i) for i in range(size(name)))
