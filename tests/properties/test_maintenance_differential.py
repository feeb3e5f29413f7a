"""The maintained column of the oracle matrix (``tests/oracle``): after
every assertion and retraction the maintained least model is
bit-identical to naive ``V`` over the full instantiation of the mutated
program (Definition 4 on the new program text — delete-rederive is an
optimization, never a semantics change), and the maintained state
passes its own audit.

* Every named row with told facts retracts and re-asserts each of them
  in every view.
* Every row of the propositional ordered family runs a random
  tell/retract trace under a status-frontier threshold of 1.0, 0.5 or
  0.0 (the cascade cap trips regularly under the last two).
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.kb import KnowledgeBase
from repro.workloads import sessions

from ..oracle import columns
from ..oracle.oracle import Oracle
from ..oracle.rows import NAMED, family
from ..oracle.scale import size


@pytest.mark.parametrize("row", NAMED, ids=str)
def test_retract_reassert_every_told_fact(row):
    if not columns.retract_reassert(row):
        pytest.skip("no told ground fact in a view the column maintains")


def test_random_mutation_traces_agree():
    # Most traces survive several steps; make sure the sweep actually
    # exercised the engine rather than skipping everything.
    assert columns.sweep(columns.trace, "ordered") >= 2 * len(family("ordered"))


# ----------------------------------------------------------------------
# Multi-object: constants that survive only where the view cannot look
# ----------------------------------------------------------------------
def test_invisible_objects_do_not_pin_a_views_universe():
    """Retracting the last occurrence of a constant in ``C*`` shrinks
    that view's Herbrand universe even while an object outside ``C*``
    still mentions the constant: the closed-world instances over it
    must leave the maintained model exactly as they leave a cold one."""
    rng = random.Random(0xC57A4)
    constants = ["a0", "k0", "k1", "k2"]
    for trial in range(size("ordered") // 5):
        kb = KnowledgeBase()
        kb.define("top", "-q(X). r(a0).")
        kb.define("mid", "t(X) :- p(X).", isa=["top"])
        kb.define("view", isa=["mid"])
        kb.define("aside", " ".join(f"s({c})." for c in constants))
        told: list[tuple[str, str]] = []
        for step in range(columns.TRACE_LENGTH):
            if told and rng.random() < 0.5:
                obj, fact = told.pop(rng.randrange(len(told)))
                kb.retract(obj, fact)
                op = ("retract", obj, fact)
            else:
                obj = rng.choice(["view", "mid", "aside"])
                fact = f"p({rng.choice(constants)})."
                kb.tell(obj, fact)
                told.append((obj, fact))
                op = ("tell", obj, fact)
            for name in ("view", "mid"):
                mine = kb.least_model(name).literals
                fresh = Oracle(kb.program(), name).literals
                assert mine == fresh, (
                    f"trial {trial} step {step} {op} at {name}: {columns.diff(mine, fresh)}"
                )


# ----------------------------------------------------------------------
# KB-level session equivalence
# ----------------------------------------------------------------------
def test_session_delta_and_rebuild_answer_identically():
    depth, entities, n_ops = 4, 6, 60
    ops = sessions.session_ops(depth, entities, n_ops)
    delta_kb = sessions.build_session_kb(depth, entities)
    rebuild_kb = sessions.build_session_kb(depth, entities)
    delta_counts = sessions.run_session(delta_kb, ops)
    # The rebuild baseline: every cached view is dropped after each
    # write, so every ask recomputes the current program cold.
    rebuild_counts = Counter()
    for op in ops:
        rebuild_counts.update(sessions.run_session(rebuild_kb, [op]))
        if op[0] != "ask":
            rebuild_kb.rewind(rebuild_kb.program())
    assert delta_counts == rebuild_counts
    # The maintained views also answer per-literal identically at the end.
    for level in ("level0", f"level{depth - 1}", "root"):
        assert delta_kb.ask(level, "member(e0)") == rebuild_kb.ask(
            level, "member(e0)"
        )
