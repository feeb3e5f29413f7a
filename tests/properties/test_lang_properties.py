"""Property-based tests of the language layer: parser/printer round
trips (over guards with nested arithmetic, the keywords as predicate
names, and bare top-level rules), substitution laws, unification, and
partial-order laws."""

import string

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.grounding.substitution import Substitution, match, unify
from repro.lang.builtins import BinaryOp, Comparison
from repro.lang.literals import Atom, Literal
from repro.lang.parser import DEFAULT_COMPONENT, parse_program, parse_rule
from repro.lang.poset import PartialOrder
from repro.lang.printer import render_component, render_program
from repro.lang.program import Component, OrderedProgram
from repro.lang.rules import Rule
from repro.lang.terms import Compound, Constant, Term, Variable

SETTINGS = settings(max_examples=60, deadline=None)

# ----------------------------------------------------------------------
# Term strategies (first-order, for parse round trips and unification)
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
atoms = st.builds(
    lambda p, args: Atom(p, tuple(args)),
    predicate_names,
    st.lists(terms, max_size=2),
)
literals = st.builds(Literal, atoms, st.booleans())

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
rules = st.builds(
    lambda head, body: Rule(head, tuple(body)),
    literals,
    st.lists(st.one_of(literals, comparisons), max_size=3),
)


@st.composite
def programs(draw, main=False):
    """Components ``c0``.. (and ``main``, with at least one rule) under a
    random order."""
    names = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    if main:
        names.insert(draw(st.integers(0, len(names))), DEFAULT_COMPONENT)
    comps = []
    for name in names:
        comp_rules = draw(st.lists(rules, min_size=int(name == DEFAULT_COMPONENT), max_size=4))
        comps.append(Component(name, comp_rules))
    pairs = []
    for i, low in enumerate(names):
        for high in names[i + 1 :]:
            if draw(st.booleans()):
                pairs.append((low, high))
    return OrderedProgram(comps, pairs)


def render_main_at_top_level(program):
    """Like ``render_program``, but ``main``'s rules are bare top-level
    rules rather than a ``component main { ... }`` block."""
    parts = [
        "\n".join(str(r) for r in program.component(name).rules)
        if name == DEFAULT_COMPONENT
        else render_component(program.component(name))
        for name in program.order.topological()
    ]
    parts += [f"order {low} < {high}." for low, high in sorted(program.order.covering_pairs())]
    return "\n\n".join(parts) + "\n"


#: Guard expression text as a person writes it: unary minus on anything
#: (``-X``, ``--3``, ``-(X + 1)``) and redundant parentheses, which the
#: printer never produces.
expression_texts = st.recursive(
    st.one_of(st.integers(-50, 50).map(str), variable_names),
    lambda children: st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(" ".join),
        children.map("({})".format),
        children.map("-{}".format),
    ),
    max_leaves=6,
)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------

@SETTINGS
@given(rules)
def test_rule_parse_render_round_trip(r):
    assert parse_rule(str(r)) == r


@SETTINGS
@given(programs())
def test_program_parse_render_round_trip(program):
    assert parse_program(render_program(program)) == program


@SETTINGS
@given(programs(main=True))
def test_top_level_rules_round_trip(program):
    assert parse_program(render_main_at_top_level(program)) == program


@SETTINGS
@given(expression_texts, st.sampled_from(["<", "<=", ">", ">=", "=", "!="]), expression_texts)
def test_written_guards_parse_render_round_trip(left, op, right):
    r = parse_rule(f"t :- p(X, Y, Z, W), {left} {op} {right}.")
    assert parse_rule(str(r)) == r


# ----------------------------------------------------------------------
# Substitutions and unification
# ----------------------------------------------------------------------

ground_terms = terms.filter(lambda t: t.is_ground)


@SETTINGS
@given(terms, st.dictionaries(st.builds(Variable, variable_names), ground_terms, max_size=4))
def test_substitution_grounds_covered_variables(term, mapping):
    theta = Substitution(mapping)
    applied = theta.apply_term(term)
    remaining = applied.variables()
    assert remaining == term.variables() - set(mapping)


@SETTINGS
@given(terms, st.dictionaries(st.builds(Variable, variable_names), ground_terms, min_size=4, max_size=4))
def test_match_recovers_instance(pattern, mapping):
    theta = Substitution(mapping)
    target = theta.apply_term(pattern)
    assume(target.is_ground)
    found = match(pattern, target)
    assert found is not None
    assert found.apply_term(pattern) == target


@SETTINGS
@given(terms, terms)
def test_unify_produces_common_instance(a, b):
    theta = unify(a, b)
    if theta is not None:
        assert theta.apply_term(a) == theta.apply_term(b)


@SETTINGS
@given(terms, terms)
def test_unify_symmetric_in_success(a, b):
    assert (unify(a, b) is None) == (unify(b, a) is None)


# ----------------------------------------------------------------------
# Partial orders
# ----------------------------------------------------------------------

@st.composite
def posets(draw):
    n = draw(st.integers(1, 6))
    po = PartialOrder(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                po.add_pair(i, j)
    return po


@SETTINGS
@given(posets())
def test_poset_is_strict_order(po):
    for a in po:
        assert not po.less(a, a)
        for b in po:
            if po.less(a, b):
                assert not po.less(b, a)
            for c in po:
                if po.less(a, b) and po.less(b, c):
                    assert po.less(a, c)


@SETTINGS
@given(posets())
def test_poset_trichotomy(po):
    for a in po:
        for b in po:
            if a == b:
                continue
            states = [po.less(a, b), po.less(b, a), po.incomparable(a, b)]
            assert sum(states) == 1


@SETTINGS
@given(posets())
def test_covering_pairs_regenerate_closure(po):
    rebuilt = PartialOrder(po.elements, po.covering_pairs())
    assert rebuilt.pairs() == po.pairs()


@SETTINGS
@given(posets())
def test_topological_respects_order(po):
    order = po.topological()
    for low, high in po.pairs():
        assert order.index(high) < order.index(low)
