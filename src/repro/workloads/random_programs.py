"""Seeded random program generators for property tests and fuzzing.

All generators are deterministic given a seed and produce *ground
propositional* programs: small Herbrand bases keep the exhaustive
(3^n) verification of the paper's theorems tractable, and propositional
programs already exercise every definition in the paper (grounding is
tested separately on first-order workloads).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..lang.literals import Atom, Literal
from ..lang.program import Component, OrderedProgram
from ..lang.rules import Rule
from ..lang.terms import Compound, Constant, Variable

__all__ = [
    "random_rules",
    "random_seminegative_rules",
    "random_negative_rules",
    "random_ordered_program",
    "random_clean_program",
    "random_stratified_program",
    "seeded_defect_program",
    "DEFECT_KINDS",
    "InjectedDefect",
    "DefectSeededProgram",
]


def _atoms(n_atoms: int) -> list[Atom]:
    return [Atom(f"p{i}") for i in range(n_atoms)]


def random_rules(
    rng: random.Random,
    n_atoms: int,
    n_rules: int,
    max_body: int = 2,
    neg_head_prob: float = 0.3,
    neg_body_prob: float = 0.3,
) -> list[Rule]:
    """Random ground rules over ``n_atoms`` propositional atoms."""
    atoms = _atoms(n_atoms)
    rules = []
    for _ in range(n_rules):
        head_atom = rng.choice(atoms)
        head = Literal(head_atom, rng.random() >= neg_head_prob)
        body_size = rng.randint(0, max_body)
        body = []
        for _ in range(body_size):
            atom = rng.choice(atoms)
            body.append(Literal(atom, rng.random() >= neg_body_prob))
        rules.append(Rule(head, tuple(body)))
    return rules


def random_seminegative_rules(
    rng: random.Random,
    n_atoms: int,
    n_rules: int,
    max_body: int = 2,
    neg_body_prob: float = 0.4,
) -> list[Rule]:
    """Random ground seminegative rules (positive heads)."""
    return random_rules(
        rng,
        n_atoms,
        n_rules,
        max_body=max_body,
        neg_head_prob=0.0,
        neg_body_prob=neg_body_prob,
    )


def random_negative_rules(
    rng: random.Random,
    n_atoms: int,
    n_rules: int,
    max_body: int = 2,
    neg_head_prob: float = 0.35,
) -> list[Rule]:
    """Random ground negative-program rules, guaranteed to contain at
    least one negative-head rule when ``n_rules > 0``."""
    rules = random_rules(
        rng, n_atoms, n_rules, max_body=max_body, neg_head_prob=neg_head_prob
    )
    if rules and all(r.head.positive for r in rules):
        first = rules[0]
        rules[0] = Rule(first.head.complement(), first.body)
    return rules


def random_ordered_program(
    rng: random.Random,
    n_atoms: int = 4,
    n_components: int = 3,
    n_rules: int = 8,
    max_body: int = 2,
    neg_head_prob: float = 0.35,
    neg_body_prob: float = 0.3,
    order_density: float = 0.5,
    component_names: Optional[Sequence[str]] = None,
    seed_defects: Optional[Sequence[str]] = None,
) -> OrderedProgram:
    """A random ground ordered program.

    Rules are distributed uniformly over the components; each pair
    ``(c_i, c_j)`` with ``i < j`` is put in the order with probability
    ``order_density`` (taking ``c_i < c_j``, which keeps the relation
    acyclic by construction).

    With ``seed_defects`` (a sequence of :data:`DEFECT_KINDS` entries),
    the program is first repaired into a warning-clean version and then
    the named defect patterns are injected under fresh ``seeded_*``
    predicate names; use :func:`seeded_defect_program` to also get the
    clean twin and the defect manifest.
    """
    names = list(component_names or (f"c{i}" for i in range(n_components)))
    rules = random_rules(
        rng,
        n_atoms,
        n_rules,
        max_body=max_body,
        neg_head_prob=neg_head_prob,
        neg_body_prob=neg_body_prob,
    )
    buckets: dict[str, list[Rule]] = {name: [] for name in names}
    for r in rules:
        buckets[rng.choice(names)].append(r)
    pairs = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if rng.random() < order_density:
                pairs.append((names[i], names[j]))
    program = OrderedProgram(
        [Component(name, bucket) for name, bucket in buckets.items()], pairs
    )
    if seed_defects is not None:
        program, _ = _inject_defects(rng, _repair(program), seed_defects)
    return program


# ----------------------------------------------------------------------
# Defect seeding (the static-analyzer property-test oracle)
# ----------------------------------------------------------------------

#: Defect patterns :func:`seeded_defect_program` can inject, with the
#: diagnostic code each one must trigger in ``repro.analysis.static``.
DEFECT_KINDS: Sequence[str] = (
    "unsafe",
    "undefined",
    "defeat",
    "arity",
    "growth",
    "unreachable",
)

_DEFECT_CODES = {
    "unsafe": "unsafe-rule",
    "undefined": "undefined-predicate",
    "defeat": "potential-defeat",
    "arity": "arity-clash",
    "growth": "function-growth",
    "unreachable": "unreachable-component",
}


@dataclass(frozen=True)
class InjectedDefect:
    """One injected defect: the pattern kind, the diagnostic code it
    must trigger, a marker string that must appear in the diagnostic's
    location or message, and the component it was planted in."""

    kind: str
    code: str
    marker: str
    component: str


@dataclass(frozen=True)
class DefectSeededProgram:
    """A warning-clean program, its defective twin, and the manifest."""

    clean: OrderedProgram
    defective: OrderedProgram
    defects: tuple[InjectedDefect, ...]


def _repair(program: OrderedProgram) -> OrderedProgram:
    """Make a random program warning-clean: relate isolated components
    to the rest of the order, then add defining facts for body atoms no
    view can otherwise see.  (Defeat patterns between unordered
    components remain — those are informational, not warnings.)"""
    order = program.order
    names = sorted(program.component_names)
    pairs = set(order.pairs())
    if pairs and len(names) >= 2:
        related = {c for pair in pairs for c in pair}
        anchor = sorted(related)[0]
        for name in names:
            if name not in related:
                pairs.add((name, anchor))
    buckets = {c.name: list(c.rules) for c in program.components()}
    repaired = OrderedProgram(
        [Component(name, buckets[name]) for name in names], pairs
    )
    # Visibility rule: a body atom of component X is defined when it is
    # headed in upset(C) for some C <= X (some view that contains X).
    heads = {
        name: {l.atom for l in repaired.component(name).head_literals()}
        for name in names
    }
    view_heads = {
        name: set().union(*(heads[c] for c in repaired.order.upset(name)))
        for name in names
    }
    for name in names:
        defined = set().union(
            *(view_heads[c] for c in repaired.order.downset(name))
        )
        missing = {
            l.atom
            for r in buckets[name]
            for l in r.body_literals()
            if l.atom not in defined
        }
        for atom in sorted(missing, key=str):
            buckets[name].append(Rule(Literal(atom, True)))
    return OrderedProgram(
        [Component(name, buckets[name]) for name in names], pairs
    )


def _inject_defects(
    rng: random.Random,
    program: OrderedProgram,
    kinds: Sequence[str],
) -> tuple[OrderedProgram, tuple[InjectedDefect, ...]]:
    names = sorted(program.component_names)
    buckets = {c.name: list(c.rules) for c in program.components()}
    pairs = set(program.order.pairs())
    defects: list[InjectedDefect] = []

    def plant(kind: str) -> None:
        target = rng.choice(names)
        marker: str
        if kind == "unsafe":
            marker = "seeded_unsafe"
            buckets[target].append(
                Rule(Literal(Atom(marker, (Variable("U0"),))))
            )
        elif kind == "undefined":
            marker = "seeded_missing"
            buckets[target].append(
                Rule(
                    Literal(Atom("seeded_undef")),
                    (Literal(Atom(marker)),),
                )
            )
        elif kind == "defeat":
            marker = "seeded_clash"
            buckets[target].append(Rule(Literal(Atom(marker))))
            buckets[target].append(Rule(Literal(Atom(marker), False)))
        elif kind == "arity":
            marker = "seeded_arity"
            buckets[target].append(Rule(Literal(Atom(marker))))
            buckets[target].append(
                Rule(Literal(Atom(marker, (Constant("k0"),))))
            )
        elif kind == "growth":
            marker = "seeded_grow"
            z = Variable("Z0")
            buckets[target].append(
                Rule(Literal(Atom(marker, (Constant("k0"),))))
            )
            buckets[target].append(
                Rule(
                    Literal(Atom(marker, (Compound("f", (z,)),))),
                    (Literal(Atom(marker, (z,))),),
                )
            )
        elif kind == "unreachable":
            marker = "seeded_stray"
            target = marker
            if not pairs:
                # An isolated component only counts as unreachable when
                # the rest of the program does use the order.
                if len(names) >= 2:
                    pairs.add((names[0], names[1]))
                else:
                    buckets.setdefault("seeded_anchor", []).append(
                        Rule(Literal(Atom("seeded_anchor_mark")))
                    )
                    pairs.add(("seeded_anchor", names[0]))
            buckets[target] = [Rule(Literal(Atom(f"{marker}_mark")))]
        else:
            raise ValueError(
                f"unknown defect kind {kind!r}; "
                f"expected one of {', '.join(DEFECT_KINDS)}"
            )
        defects.append(
            InjectedDefect(kind, _DEFECT_CODES[kind], marker, target)
        )

    for kind in kinds:
        plant(kind)
    return (
        OrderedProgram(
            [Component(name, rules) for name, rules in sorted(buckets.items())],
            pairs,
        ),
        tuple(defects),
    )


def random_clean_program(
    rng: random.Random, **kwargs
) -> OrderedProgram:
    """A random ordered program repaired to be warning-clean under
    ``repro.analysis.static.analyze_program`` (informational notes such
    as potential defeats may remain)."""
    return _repair(random_ordered_program(rng, **kwargs))


def seeded_defect_program(
    rng: random.Random,
    kinds: Sequence[str] = DEFECT_KINDS,
    **kwargs,
) -> DefectSeededProgram:
    """A warning-clean random program plus a defective twin with the
    requested defect patterns injected (fresh ``seeded_*`` predicates),
    and the manifest of what was planted where.  The property suite uses
    this as the analyzer's oracle: every manifest entry must be
    reported, and the clean twin must stay warning-free."""
    clean = random_clean_program(rng, **kwargs)
    defective, defects = _inject_defects(rng, clean, kinds)
    return DefectSeededProgram(clean, defective, defects)


def random_stratified_program(
    rng: random.Random,
    n_atoms: int = 6,
    n_rules: int = 10,
    max_body: int = 3,
    neg_body_prob: float = 0.35,
    component_name: str = "main",
) -> OrderedProgram:
    """A random *stratified seminegative* single-component program —
    a view whose least model is the stratified Horn closure
    (:func:`repro.classical.stratified.stratified_least_model`).

    Stratified by construction: atom ``p_i`` lives on stratum ``i``;
    positive body atoms are drawn from ``p_0 .. p_i`` and negative body
    atoms from ``p_0 .. p_{i-1}`` (strictly below the head), so no
    cycle can pass through a negative edge.
    """
    atoms = _atoms(n_atoms)
    rules = []
    for _ in range(n_rules):
        i = rng.randrange(n_atoms)
        head = Literal(atoms[i], True)
        body = []
        for _ in range(rng.randint(0, max_body)):
            if i > 0 and rng.random() < neg_body_prob:
                body.append(Literal(atoms[rng.randrange(i)], False))
            else:
                body.append(Literal(atoms[rng.randrange(i + 1)], True))
        rules.append(Rule(head, tuple(body)))
    return OrderedProgram.single(rules, name=component_name)
