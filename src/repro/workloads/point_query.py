"""Large-EDB point-query workloads: a wide forest of small ownership
trees.

The shape is deliberately *wide*, not deep: ``n_trees`` disjoint
complete binary trees of ``depth`` levels, each root owned by one
person.  A ground or half-ground goal (``ancestor(r17_0, X)``,
``owns(p17, n)``) touches exactly one tree, so goal-directed (demand)
evaluation does work proportional to one tree while full
materialization grounds and closes the whole forest — the demand
speedup grows linearly with ``n_trees``.  A deep chain would *not*
show this: transitive closure from a chain node is inherently
quadratic in the suffix, whichever strategy runs it.

``forest_program`` builds the in-memory program;
``load_forest_edb`` bulk-loads the same facts into a disk-backed
:class:`~repro.db.edb.EdbStore` and returns the rules-only program
(the ``olp serve --edb`` / 10M-fact path).
"""

from __future__ import annotations

import random
from typing import Iterator

from ..lang.literals import Atom, Literal
from ..lang.parser import parse_rules
from ..lang.program import Component, OrderedProgram
from ..lang.rules import Rule
from ..lang.terms import Constant

__all__ = [
    "FOREST_RULES",
    "forest_facts",
    "forest_program",
    "forest_rules",
    "load_forest_edb",
    "point_goals",
]

#: The intensional part: reachability inside a tree plus ownership of
#: every node under an owned root.
FOREST_RULES = """
ancestor(X, Y) <- parent(X, Y).
ancestor(X, Z) <- parent(X, Y), ancestor(Y, Z).
owns(P, N) <- owner(P, R), ancestor(R, N).
"""


def forest_rules() -> tuple[Rule, ...]:
    return tuple(parse_rules(FOREST_RULES))


def forest_facts(
    n_trees: int, depth: int = 4
) -> Iterator[tuple[str, tuple[Constant, ...]]]:
    """``(predicate, row)`` pairs for the forest: ``parent`` edges of
    each complete binary tree and one ``owner`` fact per root.

    A tree of ``depth`` levels has ``2**depth - 1`` nodes; node ``j``
    of tree ``i`` is the constant ``n<i>_<j>`` (``j = 0`` is the root).
    """
    n_nodes = 2**depth - 1
    for i in range(n_trees):
        yield "owner", (Constant(f"p{i}"), Constant(f"n{i}_0"))
        for j in range(1, n_nodes):
            parent = Constant(f"n{i}_{(j - 1) // 2}")
            yield "parent", (parent, Constant(f"n{i}_{j}"))


def forest_program(n_trees: int, depth: int = 4) -> OrderedProgram:
    """The forest as a single-component in-memory program."""
    rules = list(forest_rules())
    for predicate, row in forest_facts(n_trees, depth):
        rules.append(Rule(Literal(Atom(predicate, row))))
    return OrderedProgram([Component("main", rules)], ())


def load_forest_edb(store, n_trees: int, depth: int = 4) -> OrderedProgram:
    """Bulk-load the forest facts into an :class:`~repro.db.edb.EdbStore`
    and return the rules-only program to pair it with."""
    parents = []
    owners = []
    for predicate, row in forest_facts(n_trees, depth):
        (parents if predicate == "parent" else owners).append(row)
    store.bulk_load("parent", 2, parents)
    store.bulk_load("owner", 2, owners)
    return OrderedProgram([Component("main", list(forest_rules()))], ())


def point_goals(
    rng: random.Random, n_trees: int, depth: int = 4, count: int = 1
) -> list[str]:
    """Point-query goals, each touching one random tree: the subtree
    below a root and one membership check of a deepest-level node."""
    n_nodes = 2**depth - 1
    goals = []
    for _ in range(count):
        i = rng.randrange(n_trees)
        goals.append(f"ancestor(n{i}_0, X)")
        goals.append(f"owns(p{i}, n{i}_{n_nodes - 1})")
    return goals[:count] if count == 1 else goals
