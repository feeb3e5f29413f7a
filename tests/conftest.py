"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Optional

import pytest

from repro.core.compiled import DenseFixpoint
from repro.core.interpretation import Interpretation
from repro.core.semantics import OrderedSemantics
from repro.lang.literals import Literal
from repro.lang.parser import parse_program


def semantics_of(source: str, component: str) -> OrderedSemantics:
    """Build an :class:`OrderedSemantics` directly from ``.olp`` source."""
    return OrderedSemantics(parse_program(source), component)


def dense_run(
    sem: OrderedSemantics, max_iterations: Optional[int] = None
) -> tuple[DenseFixpoint, Interpretation, list[frozenset[Literal]]]:
    """One cold kernel run over the view's watch-list index: the kernel
    (its counter arrays are what the audits read), the least model, and
    the literals first derived at each stage."""
    run = DenseFixpoint(sem.evaluator.index.compiled)
    bound = (
        max_iterations
        if max_iterations is not None
        else 2 * len(sem.ground.base) + 2
    )
    data = run.run(bound)
    decode = run.index.table.literal
    stage_deltas = [frozenset(decode(i) for i in ids) for ids in run.stage_ids]
    return run, Interpretation(data.literals(), sem.ground.base), stage_deltas


@pytest.fixture
def figure1_semantics():
    from repro.workloads.paper import figure1

    return OrderedSemantics(figure1(), "c1")


@pytest.fixture
def figure2_semantics():
    from repro.workloads.paper import figure2

    return OrderedSemantics(figure2(), "c1")
