"""The search column of the oracle matrix (``tests/oracle``): on every
enumerable view of every row, the facade's Definition 3 models,
assumption-free models and stable models are the oracle's object-level
generate-and-test lists, in the same order, and the facade's search
tree has the same leaves, branches and backtracks."""

from __future__ import annotations

import pytest

from ..oracle import columns
from ..oracle.rows import CLASSICAL, PAPER, WORKLOADS, family, reduced

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
