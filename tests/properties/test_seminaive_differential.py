"""The kernel column of the oracle matrix (``tests/oracle``): on every
view of every row, the dense kernel and naive ``V`` over the relevance
grounding equal naive ``V`` over the full instantiation, each is a
fixpoint of the other's ``V``, and the kernel derives the oracle's
literals stage for stage."""

from __future__ import annotations

import pytest

from ..oracle import columns
from ..oracle.rows import PAPER, WORKLOADS, family


@pytest.mark.parametrize("row", PAPER, ids=str)
def test_paper_programs_agree(row):
    assert columns.kernel(row)


@pytest.mark.parametrize("row", WORKLOADS, ids=str)
def test_workload_generators_agree(row):
    assert columns.kernel(row)


def test_random_program_sweep_agrees():
    assert columns.sweep(columns.kernel, "ordered") >= len(family("ordered"))


def test_random_first_order_sweep_agrees():
    # The first-order family is where relevance grounding prunes
    # instances (test_abstract_differential.py counts how often).
    assert columns.sweep(columns.kernel, "first_order") >= len(family("first_order"))


def test_stage_counts_agree_on_random_programs():
    # The stratified family: the stage-for-stage check is part of every
    # kernel cell.
    assert columns.sweep(columns.kernel, "stratified") >= len(family("stratified"))
