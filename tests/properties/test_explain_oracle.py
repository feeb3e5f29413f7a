"""The explainer's columns of the oracle matrix (``tests/oracle``).

* **Provenance** — every node of every derivation the explainer reads
  off the dense kernel agrees with the oracle's ``V`` replay over the
  full instantiation: the literal's stage, a rule with that head whose
  body is the node's premises, applicable and neither overruled nor
  defeated one stage earlier; and every literal of the least model is
  explained.
* **why_not** — for every literal of the base outside the least model,
  the failures the explainer reads off the full view's compiled index
  are Definition 2 read over objects (``oracle.diagnose``): the same
  reasons, rules and witnesses, in the same order.
"""

from __future__ import annotations

import pytest

from ..oracle import columns
from ..oracle.rows import NAMED, family


@pytest.mark.parametrize("row", NAMED, ids=str)
def test_named_programs_agree_with_replay(row):
    assert columns.provenance(row)


def test_random_programs_agree_with_replay():
    assert columns.sweep(columns.provenance, "ordered") >= len(family("ordered"))


@pytest.mark.parametrize("row", NAMED, ids=str)
def test_why_not_on_named_programs_agrees_with_objects(row):
    assert columns.why_not(row)


def test_why_not_on_random_programs_agrees_with_objects():
    assert columns.sweep(columns.why_not, "ordered") >= len(family("ordered"))
