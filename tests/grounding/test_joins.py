"""The compiled join (``repro.grounding.joins``) on its own: what both
the grounder and the demand engine rely on, asserted once against the
machine they share."""

from __future__ import annotations

import pytest

from repro.grounding.joins import (
    FETCH,
    MEMBER,
    PROBE,
    UNIVERSE,
    JoinMachine,
    Scan,
    compile_join,
    join_order,
)
from repro.lang.builtins import Comparison
from repro.lang.parser import parse_rule, parse_term


def rows(*texts):
    """``"a b"`` -> the row ``(a, b)``."""
    return [tuple(parse_term(t) for t in text.split()) for text in texts]


def compiled(rule_text, trigger=None, universe=(), sizes=None, fetched=()):
    """Compile a rule's body literals as scans of relations named after
    their predicates; every rule variable may range over the universe."""
    rule = parse_rule(rule_text)
    body = [
        Scan(l.predicate, l.args, l.predicate in fetched) for l in rule.body_literals()
    ]
    sizes = sizes or {}
    return compile_join(
        rule.head.predicate,
        rule.head.args,
        body,
        rule.guards(),
        lambda i, fully: sizes.get(body[i].relation, 0),
        trigger,
        sorted(rule.variables(), key=str) if universe else (),
    )


def run(join, machine, row=()):
    """Fire once; the head rows of the completed bindings, in order."""
    out = []
    machine.fire(join, row, lambda j, env: out.append(j.head(env)))
    return out


def machine_with(universe=(), **relations):
    machine = JoinMachine([parse_term(t) for t in universe])
    for name, texts in relations.items():
        for row in rows(*texts):
            machine.add(name, row)
    return machine


class TestMatching:
    def test_repeated_variable_must_agree(self):
        machine = machine_with(e=["a a", "a b", "b b"])
        assert run(compiled("loop(X) :- e(X, X)."), machine) == rows("a", "b")
        # ... also when the first occurrence was bound by the trigger.
        join = compiled("back(X, Y) :- e(X, Y), e(Y, X).", trigger=0)
        assert run(join, machine, rows("a b")[0]) == []
        assert run(join, machine, rows("a a")[0]) == rows("a a")

    def test_repeated_variable_in_the_trigger(self):
        join = compiled("loop(X) :- e(X, X).", trigger=0)
        machine = machine_with()
        assert machine.fire(join, rows("a b")[0], lambda j, env: None) is False
        assert run(join, machine, rows("a a")[0]) == rows("a")

    def test_compound_unpack_binds_inside(self):
        machine = machine_with(p=["f(a,b)", "f(b,b)", "g(a,a)", "c"], q=["b"])
        # X and Y are first met inside the compound; Y is then a key.
        join = compiled("r(X, Y) :- p(f(X, Y)), q(Y).")
        assert run(join, machine) == rows("a b", "b b")
        # A bound compound argument is part of the probe key instead.
        join = compiled("r(X) :- q(X), p(f(X, X)).", sizes={"p": 9})
        assert [s.kind for s in join.steps] == [PROBE, MEMBER]
        assert run(join, machine) == rows("b")


class TestStepKinds:
    def test_universe_step_ranges_unbound_variables(self):
        machine = machine_with(universe=["a", "b", "c"], q=["a"])
        join = compiled("p(X, Y) :- q(X).", universe=True)
        assert [s.kind for s in join.steps] == [PROBE, UNIVERSE]
        assert run(join, machine) == rows("a a", "a b", "a c")
        # One probe for q's row, one per universe term.
        assert machine.probes == 4

    def test_fully_bound_atom_is_a_membership_test(self):
        machine = machine_with(q=["a", "b"], r=["b"])
        join = compiled("p(X) :- q(X), r(X).", sizes={"r": 5})
        assert [s.kind for s in join.steps] == [PROBE, MEMBER]
        assert run(join, machine) == rows("b")
        # q's two rows, and the one r-membership that held.
        assert machine.probes == 3
        assert "r" not in machine.index

    def test_fetch_step_asks_with_the_bound_positions(self):
        asked = []

        class Fetching(JoinMachine):
            def fetch(self, relation, positions, key):
                asked.append((relation, positions, key))
                return rows("a z")

        machine = Fetching()
        machine.add("q", rows("a")[0])
        join = compiled("p(Y) :- q(X), edge(X, Y).", fetched={"edge"})
        assert [s.kind for s in join.steps] == [PROBE, FETCH]
        assert run(join, machine) == rows("z")
        assert asked == [("edge", (0,), rows("a")[0])]

    def test_index_built_on_first_probe_is_kept_current(self):
        machine = machine_with(e=["a b"])
        join = compiled("t(X, Z) :- e(X, Y), e(Y, Z).", trigger=0)
        assert run(join, machine, rows("a b")[0]) == []
        machine.add("e", rows("b c")[0])
        assert run(join, machine, rows("a b")[0]) == rows("a c")
        assert machine.add("e", rows("b c")[0]) is False
        assert list(machine.worklist) == [("e", r) for r in rows("a b", "b c")]


class TestOrdering:
    def test_connected_first_then_cost_then_position(self):
        x, y, z = (frozenset(parse_term(v).variables()) for v in "XYZ")
        variables = [z, x | y, y, frozenset(), x]
        cost = {0: 0, 1: 5, 2: 1, 3: 9, 4: 5}
        order = join_order(variables, range(5), set(x), lambda i, fully: cost[i])
        # Connected to X at first: 1 and 4 (a tie on cost, so position
        # decides) and the ground atom 3.  Taking 1 binds Y, which
        # connects the cheaper 2.  The atom over Z alone is cheapest of
        # all and still last.
        assert order == [1, 2, 4, 3, 0]

    def test_smallest_relation_leads_a_triggerless_join(self):
        join = compiled("p(X) :- big(X), small(X).", sizes={"big": 9, "small": 1})
        assert [s.relation for s in join.steps] == ["small", "big"]


class TestGuards:
    RULE = "big(X, Y) :- n(X), n(Y), X > 4."

    def test_guard_fires_at_the_step_binding_its_last_variable(self):
        machine = machine_with(n=["1", "5", "9"])
        join = compiled(self.RULE)
        assert [len(s.guards) for s in join.steps] == [1, 0]
        assert len(run(join, machine)) == 6
        # Three rows for X; only the two that pass probe three rows for Y.
        assert machine.probes == 3 + 2 * 3
        assert machine.guard_pruned == 1

    def test_guard_decided_by_the_trigger_runs_before_any_step(self):
        machine = machine_with(n=["1", "5"])
        join = compiled(self.RULE, trigger=0)
        assert len(join.first) == 1 and not any(s.guards for s in join.steps)
        assert run(join, machine, rows("1")[0]) == []
        assert machine.probes == 1  # the trigger match itself
        assert len(run(join, machine, rows("5")[0])) == 2

    def test_variable_free_false_guard_costs_no_probe(self):
        machine = machine_with(universe=["a", "b"], q=["a", "b"])
        join = compiled("p(X, Y) :- q(X), 1 > 2.", universe=True)
        assert run(join, machine) == []
        assert (machine.probes, machine.guard_pruned) == (0, 1)

    def test_unevaluable_guard_drops_the_instance(self):
        machine = machine_with(p=["penguin", "12"])
        assert run(compiled("t(X) :- p(X), X > 11."), machine) == rows("12")
        assert machine.guard_pruned == 1

    def test_a_broken_guard_surfaces(self, monkeypatch):
        def broken(self, bindings):
            raise RuntimeError("bug in a guard")

        monkeypatch.setattr(Comparison, "holds", broken)
        machine = machine_with(p=["12"])
        with pytest.raises(RuntimeError):
            run(compiled("t(X) :- p(X), X > 11."), machine)
