"""The compiled (dense-integer) evaluation path: atom interning and
the CSR watch-list index.

The end-to-end guarantee (dense ≡ naive on random programs) lives in
``tests/properties/test_seminaive_differential.py``; this file covers
the building blocks directly.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.core.compiled import CompiledRuleIndex, DenseFixpoint, DenseModelData
from repro.core.semantics import OrderedSemantics
from repro.grounding.grounder import AtomTable
from repro.lang.literals import Atom, Literal
from repro.lang.terms import Constant
from repro.workloads import paper

from ..properties.strategies import ordered_programs
from ..properties.test_seminaive_differential import (
    PAPER_PROGRAMS,
    WORKLOAD_PROGRAMS,
)


def atom(name: str, *args: str) -> Atom:
    return Atom(name, tuple(Constant(a) for a in args))


class TestAtomTable:
    def test_intern_is_idempotent_and_dense(self):
        table = AtomTable()
        a, b = atom("p", "x"), atom("q", "y")
        assert table.intern(a) == 0
        assert table.intern(b) == 1
        assert table.intern(a) == 0  # stable on re-intern
        assert len(table) == 2
        assert table.atoms() == (a, b)
        assert a in table and atom("r") not in table
        assert table.id_of(b) == 1
        assert table.id_of(atom("r")) is None

    def test_literal_id_encoding_and_decode(self):
        table = AtomTable()
        a = atom("p", "x")
        pos, neg = Literal(a, True), Literal(a, False)
        pid = table.literal_id(pos)
        nid = table.literal_id(neg)
        assert pid == table.id_of(a) * 2
        assert nid == pid + 1
        assert nid == pid ^ 1  # complementation is a bit flip
        assert table.literal(pid) == pos
        assert table.literal(nid) == neg

    def test_ids_stable_across_later_interning(self):
        table = AtomTable()
        first = [table.intern(atom("p", str(i))) for i in range(5)]
        table.intern(atom("extra"))
        assert [table.id_of(atom("p", str(i))) for i in range(5)] == first

    def test_grounding_interns_every_rule_atom(self):
        sem = OrderedSemantics(paper.figure1(), "c1")
        table = sem.ground.atom_table
        assert table is not None
        for rule in sem.ground.rules:
            assert rule.head.atom in table
            for lit in rule.body:
                assert lit.atom in table

    def test_ids_stable_across_maintained_deltas(self):
        sem = OrderedSemantics(paper.figure1(), "c1")
        _ = sem.least_model
        # The engine's table is the full seed grounding's, built on the
        # first maintained write.
        sem.apply_delta(assertions=[("c1", "ground_animal(pigeon)")])
        table = sem.ground.atom_table
        penguin = atom("bird", "penguin")
        before = table.id_of(penguin)
        sem.apply_delta(retractions=[("c2", "bird(penguin)")])
        # The maintained ground view keeps the same (append-only) table:
        # no atom is re-interned, no id moves.
        assert sem.ground.atom_table is table
        assert table.id_of(penguin) == before
        sem.apply_delta(assertions=[("c2", "bird(penguin)")])
        assert sem.ground.atom_table is table
        assert table.id_of(penguin) == before


def assert_index_is_definition_2(sem: OrderedSemantics) -> None:
    """Every array of the view's index, against Definition 2 read off
    the ground rules directly (O(rules²): small programs only)."""
    ev = sem.evaluator
    index, rules, order = ev.index, ev.rules, ev.order
    table = index.table
    assert index.rules.objects() == rules
    assert index.n_rules == len(index) == len(rules)
    assert list(index.heads) == [table.literal_id(r.head) for r in rules]
    assert list(index.body_sizes) == [len(r.body) for r in rules]
    assert list(index.source_facts) == [
        i for i, r in enumerate(rules) if not r.body
    ]
    assert index.n_literals == 2 * len(table)
    # Body / block watchers of literal l: exactly the rules with l /
    # its complement in their body.
    for l in range(index.n_literals):
        lit = table.literal(l)
        assert list(index.body_watchers(l)) == [
            i for i, r in enumerate(rules) if lit in r.body
        ]
        assert list(index.block_watchers(l)) == [
            i for i, r in enumerate(rules) if lit.complement() in r.body
        ]
        assert list(index.by_head.get(l, ())) == [
            i for i, r in enumerate(rules) if r.head == lit
        ]
    # Rule j watches i as overruler / defeater iff H(j) = ¬H(i) and
    # C(j) is strictly below / incomparable-or-equal to C(i).
    live_over = [0] * len(rules)
    live_defeat = [0] * len(rules)
    for j, threat in enumerate(rules):
        expected = []
        for i, r in enumerate(rules):
            if threat.head != r.head.complement():
                continue
            if order.strictly_below(threat.component, r.component):
                expected.append(i << 1 | 1)
                live_over[i] += 1
            elif order.incomparable_or_equal(threat.component, r.component):
                expected.append(i << 1)
                live_defeat[i] += 1
        s, e = index.contra_start[j], index.contra_start[j + 1]
        assert list(index.contra_watchers[s:e]) == expected
    assert list(index.init_live_overrulers) == live_over
    assert list(index.init_live_defeaters) == live_defeat


class TestCompiledRuleIndex:
    @pytest.fixture()
    def semantics(self):
        return OrderedSemantics(paper.figure1(), "c1")

    @pytest.mark.parametrize(
        "program",
        [p for _, p in PAPER_PROGRAMS + WORKLOAD_PROGRAMS],
        ids=[n for n, _ in PAPER_PROGRAMS + WORKLOAD_PROGRAMS],
    )
    def test_index_is_definition_2(self, program):
        for component in sorted(program.component_names):
            assert_index_is_definition_2(OrderedSemantics(program, component))

    @given(ordered_programs())
    @settings(max_examples=60, deadline=None)
    def test_index_is_definition_2_on_random_programs(self, program):
        for component in sorted(program.component_names):
            assert_index_is_definition_2(OrderedSemantics(program, component))

    def test_compiled_index_is_cached(self, semantics):
        index = semantics.evaluator.index
        assert index is semantics.evaluator.index
        # ``.compiled`` is the end-to-end harness's spelling of the same
        # object, not a second compilation.
        assert index.compiled is index

    def test_compiled_reuses_grounding_table(self, semantics):
        assert semantics.evaluator.index.compiled.table is (
            semantics.ground.atom_table
        )

    def test_compiles_without_a_table(self, semantics):
        # An index built from rules with no atom table (e.g. an
        # evaluator constructed directly in tests) interns a private one.
        ev = semantics.evaluator
        compiled = CompiledRuleIndex(ev.rules, ev.order)
        assert len(compiled.table) > 0
        assert compiled.n_rules == len(ev.rules)

    def test_dense_fixpoint_matches_least_model(self, semantics):
        compiled = semantics.evaluator.index.compiled
        data = DenseFixpoint(compiled).run(bound=100)
        assert frozenset(data.literals()) == semantics.least_model.literals
        # The run's record is the derived ids and their decoder; the
        # model's dense form is the kernel's flags, nothing kept here.
        assert DenseModelData.__slots__ == ("table", "literal_ids")
        assert len(data) == len(semantics.least_model)


def test_importing_the_package_leaves_numpy_out():
    """No layer needs numpy: a process that serves and queries never
    pays for importing it, installed or not."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.server, repro.query, sys; "
            "assert 'numpy' not in sys.modules",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
