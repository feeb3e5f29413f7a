"""Property-based tests of the language layer: parser/printer round
trips (over guards with nested arithmetic, the keywords as predicate
names, and bare top-level rules) and partial-order laws."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.parser import DEFAULT_COMPONENT, parse_program, parse_rule
from repro.lang.poset import PartialOrder
from repro.lang.printer import render_component, render_program

from .strategies import fo_programs, fo_rules, variable_names

SETTINGS = settings(max_examples=60, deadline=None)

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
@given(fo_rules)
def test_rule_parse_render_round_trip(r):
    assert parse_rule(str(r)) == r


@SETTINGS
@given(fo_programs())
def test_program_parse_render_round_trip(program):
    assert parse_program(render_program(program)) == program


@SETTINGS
@given(fo_programs(main=True))
def test_top_level_rules_round_trip(program):
    assert parse_program(render_main_at_top_level(program)) == program


@SETTINGS
@given(expression_texts, st.sampled_from(["<", "<=", ">", ">=", "=", "!="]), expression_texts)
def test_written_guards_parse_render_round_trip(left, op, right):
    r = parse_rule(f"t :- p(X, Y, Z, W), {left} {op} {right}.")
    assert parse_rule(str(r)) == r


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
