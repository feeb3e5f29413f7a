"""Hypothesis strategies for random programs.

Ground programs are propositional over a small atom pool so that
exhaustive (3^n) model enumeration stays cheap inside property tests;
the definitions being verified are insensitive to arity (grounding is
tested separately).  The first-order strategies at the bottom (terms,
guards, rules and programs with variables) feed the parse, unification
and serialization round trips.
"""

from __future__ import annotations

import string

from hypothesis import strategies as st

from repro.lang.builtins import BinaryOp, Comparison
from repro.lang.literals import Atom, Literal
from repro.lang.parser import DEFAULT_COMPONENT
from repro.lang.program import Component, OrderedProgram
from repro.lang.rules import Rule
from repro.lang.terms import Compound, Constant, Variable

ATOM_POOL = [Atom(f"p{i}") for i in range(4)]

atoms = st.sampled_from(ATOM_POOL)
literals = st.builds(Literal, atoms, st.booleans())


@st.composite
def ground_rules(draw, min_rules=1, max_rules=6, max_body=2, seminegative=False):
    """A list of ground propositional rules."""
    count = draw(st.integers(min_rules, max_rules))
    rules = []
    for _ in range(count):
        if seminegative:
            head = Literal(draw(atoms), True)
        else:
            head = draw(literals)
        body_size = draw(st.integers(0, max_body))
        body = tuple(draw(literals) for _ in range(body_size))
        rules.append(Rule(head, body))
    return rules


@st.composite
def negative_programs(draw):
    """A ground negative program guaranteed to have a negative rule."""
    rules = draw(ground_rules(min_rules=1, max_rules=5))
    if all(r.head.positive for r in rules):
        first = rules[0]
        rules[0] = Rule(first.head.complement(), first.body)
    return rules


@st.composite
def ordered_programs(draw, max_components=3, max_rules=7):
    """A random ground ordered program with an acyclic order."""
    n_components = draw(st.integers(1, max_components))
    names = [f"c{i}" for i in range(n_components)]
    rules = draw(ground_rules(min_rules=1, max_rules=max_rules))
    buckets = {name: [] for name in names}
    for r in rules:
        buckets[draw(st.sampled_from(names))].append(r)
    pairs = []
    for i in range(n_components):
        for j in range(i + 1, n_components):
            if draw(st.booleans()):
                pairs.append((names[i], names[j]))
    return OrderedProgram(
        [Component(name, bucket) for name, bucket in buckets.items()], pairs
    )


# ----------------------------------------------------------------------
# First-order strategies (parse round trips, unification, serialization)
# ----------------------------------------------------------------------

constant_names = st.text(string.ascii_lowercase, min_size=1, max_size=4)
variable_names = st.sampled_from(["X", "Y", "Z", "W"])

terms = st.recursive(
    st.one_of(
        st.builds(Constant, constant_names),
        st.builds(Constant, st.integers(-50, 50)),
        st.builds(Variable, variable_names),
    ),
    lambda children: st.builds(
        lambda f, args: Compound(f, tuple(args)),
        constant_names,
        st.lists(children, min_size=1, max_size=2),
    ),
    max_leaves=5,
)

#: ``order`` and ``component`` are predicate names wherever no component
#: name follows them.
predicate_names = st.one_of(
    constant_names, st.sampled_from(["order", "component", "p", "fly"])
)
fo_atoms = st.builds(
    lambda p, args: Atom(p, tuple(args)),
    predicate_names,
    st.lists(terms, max_size=2),
)
fo_literals = st.builds(Literal, fo_atoms, st.booleans())

#: Guard expressions: nested ``+ - * /`` (parenthesised when nested)
#: over variables and integers, negative ones included.
expressions = st.recursive(
    st.one_of(
        st.builds(Constant, st.integers(-50, 50)),
        st.builds(Variable, variable_names),
    ),
    lambda children: st.builds(BinaryOp, st.sampled_from("+-*/"), children, children),
    max_leaves=6,
)
comparisons = st.builds(
    Comparison, st.sampled_from(["<", "<=", ">", ">=", "=", "!="]), expressions, expressions
)
fo_rules = st.builds(
    lambda head, body: Rule(head, tuple(body)),
    fo_literals,
    st.lists(st.one_of(fo_literals, comparisons), max_size=3),
)


@st.composite
def fo_programs(draw, main=False):
    """Components ``c0``.. (and ``main``, with at least one rule) under a
    random order."""
    names = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    if main:
        names.insert(draw(st.integers(0, len(names))), DEFAULT_COMPONENT)
    comps = []
    for name in names:
        comp_rules = draw(st.lists(fo_rules, min_size=int(name == DEFAULT_COMPONENT), max_size=4))
        comps.append(Component(name, comp_rules))
    pairs = []
    for i, low in enumerate(names):
        for high in names[i + 1 :]:
            if draw(st.booleans()):
                pairs.append((low, high))
    return OrderedProgram(comps, pairs)
