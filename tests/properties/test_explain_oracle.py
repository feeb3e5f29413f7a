"""The provenance column of the oracle matrix (``tests/oracle``): every
node of every derivation the explainer reads off the dense kernel
agrees with the oracle's ``V`` replay over the full instantiation —
the literal's stage, a rule with that head whose body is the node's
premises, applicable and neither overruled nor defeated one stage
earlier — and every literal of the least model is explained."""

from __future__ import annotations

import pytest

from ..oracle import columns
from ..oracle.rows import NAMED, family


@pytest.mark.parametrize("row", NAMED, ids=str)
def test_named_programs_agree_with_replay(row):
    assert columns.provenance(row)


def test_random_programs_agree_with_replay():
    assert columns.sweep(columns.provenance, "ordered") >= len(family("ordered"))
