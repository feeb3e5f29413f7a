"""The relevance, stratified and abstract-fact columns of the oracle
matrix (``tests/oracle``).

* **Relevance** — relevance grounding keeps a subset of the full
  instances over the same base, and where the view is enumerable the
  facade's full grounding, which its model search runs over
  (never-applicable rules still constrain total models), is the full
  instantiation.  The model lists themselves are the search column's
  (test_search_differential.py).
* **Stratified** — where the analyzer routes a view, the classical
  stratified closure is the oracle's least model.
* **Fact soundness** — every signed predicate the abstract
  interpretation claims underivable has no literal in the oracle's
  model, every cardinality interval contains the true relation size,
  and every inferred sort admits every derived literal.

The least-model half of relevance invisibility (every strategy over
the relevance grounding equals the oracle) is the kernel column's, on
the same rows (test_seminaive_differential.py).
"""

from __future__ import annotations

import pytest

from ..oracle import columns, oracle
from ..oracle.rows import PAPER, WORKLOADS, family

COLUMNS = (columns.relevance, columns.stratified, columns.soundness)


def check(rows) -> int:
    return sum(column(row) for row in rows for column in COLUMNS)


@pytest.mark.parametrize("row", PAPER, ids=str)
def test_paper_programs(row):
    assert check([row])


@pytest.mark.parametrize("row", WORKLOADS, ids=str)
def test_workload_generators(row):
    assert check([row])


def test_random_program_sweep():
    rows = family("first_order")
    assert check(rows)
    views = [(row, view) for row in rows for view in row.views]
    pruned = sum(
        len(columns.semantics(row.program, view).ground.rules) < oracle.of(row, view).n_rules
        for row, view in views
    )
    enumerated = sum(columns.enumerable(row, oracle.of(row, view)) for row, view in views)
    # The sweep must exercise what it is for: views where relevance
    # drops instances, and views small enough to enumerate.
    assert len(views) >= len(rows)
    assert pruned >= len(views) // 10
    assert enumerated >= len(views) // 10
