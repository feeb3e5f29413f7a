"""The search column of the oracle matrix (``tests/oracle``): on every
enumerable view of every row, the facade's Definition 3 models,
assumption-free models and stable models are the oracle's object-level
generate-and-test lists, in the same order, and the facade's search
tree has the same leaves, branches and backtracks.  An oracle tree over
the facade's leaf budget fails its cell before enumerating."""

from __future__ import annotations

import time

import pytest

from repro.lang.parser import parse_program

from ..oracle import columns
from ..oracle.rows import CLASSICAL, PAPER, WORKLOADS, Row, family, reduced

#: The random families with views small enough to enumerate (every
#: ``fo_stratified`` base has dozens of atoms).
FAMILIES = ("ordered", "stratified", "first_order")


@pytest.mark.parametrize("row", PAPER, ids=str)
def test_paper_programs(row):
    columns.search(row)


@pytest.mark.parametrize("row", WORKLOADS, ids=str)
def test_workload_generators(row):
    columns.search(row)


@pytest.mark.parametrize("name", FAMILIES + tuple(CLASSICAL))
def test_random_family_sweep(name):
    # A classical source program through every reduction its claims read.
    vias = CLASSICAL.get(name, (None,))
    rows = [reduced(row, via) if via else row for row in family(name) for via in vias]
    assert sum(map(columns.search, rows)) >= len(rows)


def test_oracle_refuses_a_tree_over_the_leaf_budget():
    # Seventeen mutually defeated facts leave 17 atoms undefined: 3^17
    # leaves, over SearchBudget().max_leaves (5 * 10^7).
    source = "\n".join(f"a{i}. -a{i}." for i in range(17))
    row = Row("undefined_17", lambda: parse_program(source), models=True)
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="has 129140163 leaves, over SearchBudget"):
        columns.search(row)
    assert time.perf_counter() - start < 10
