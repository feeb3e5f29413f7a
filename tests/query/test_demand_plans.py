"""The sips orders the cardinality estimator picks on the point-query
forest, pinned.

Body literals of a demand rule are ordered by the abstract
interpretation's cardinality bounds, with the EDB relation sizes seeded
from the fact sources (``query/api.py::_cardinality_estimator``).
Ordering by source counts alone, with no estimate for intensional
literals, puts ``owner`` first at every forest size; on ``point_query``
that raised ``db.edb.rows_fetched_per_answer`` from 1.46 to 2.00.  These
plans and fetch counts hold the estimator's choices in place, so a
simpler-looking replacement has to show the same plans or explain the
difference.
"""

from repro.db.edb import EdbStore
from repro.lang.parser import parse_literal
from repro.obs import trace
from repro.query import CompiledDemand, EdbFactSource
from repro.query.magic import goal_adornment
from repro.workloads.point_query import load_forest_edb

DEPTH = 3

ANCESTOR_BF = (
    "idb:ancestor^bf(X, Y) :- magic:ancestor^bf(X), edb:parent^(X, Y).",
    "magic:ancestor^bf(Y) :- magic:ancestor^bf(X), edb:parent^(X, Y).",
    "idb:ancestor^bf(X, Z) :- magic:ancestor^bf(X), edb:parent^(X, Y), "
    "idb:ancestor^bf(Y, Z).",
)
ANCESTOR_FB = (
    "idb:ancestor^fb(X, Y) :- magic:ancestor^fb(Y), edb:parent^(X, Y).",
    "magic:ancestor^fb(Z) :- magic:ancestor^fb(Z).",
    "idb:ancestor^fb(X, Z) :- magic:ancestor^fb(Z), idb:ancestor^fb(Y, Z), "
    "edb:parent^(X, Y).",
)


def owns_via_ancestor(ad):
    """``owns`` with the goal's node bound: the ancestor chain is walked
    upward from the node, and ``owner`` is fetched last."""
    return (
        f"magic:ancestor^fb(N) :- magic:owns^{ad}({'P, N' if ad == 'bb' else 'N'}).",
        f"idb:owns^{ad}(P, N) :- magic:owns^{ad}({'P, N' if ad == 'bb' else 'N'}), "
        "idb:ancestor^fb(R, N), edb:owner^(P, R).",
        *ANCESTOR_FB,
    )


#: goal -> (rewritten rules in plan order, answers, rows fetched).
AT_2000 = {
    "ancestor(n0_0, X)": (ANCESTOR_BF, 6, 8),
    "owns(p0, n0_6)": (owns_via_ancestor("bb"), 1, 3),
    "owns(P, n0_6)": (owns_via_ancestor("fb"), 1, 3),
    "ancestor(X, n0_6)": (ANCESTOR_FB, 2, 2),
}

#: With fewer trees the bound ``owner`` fetch is estimated cheaper than
#: the upward walk, and the plan starts from the owner instead.
OWNS_BB_AT_200 = (
    (
        "magic:ancestor^bb(R, N) :- magic:owns^bb(P, N), edb:owner^(P, R).",
        "idb:owns^bb(P, N) :- magic:owns^bb(P, N), edb:owner^(P, R), "
        "idb:ancestor^bb(R, N).",
        "idb:ancestor^bb(X, Y) :- magic:ancestor^bb(X, Y), edb:parent^(X, Y).",
        "magic:ancestor^bb(Y, Z) :- magic:ancestor^bb(X, Z), edb:parent^(X, Y).",
        "idb:ancestor^bb(X, Z) :- magic:ancestor^bb(X, Z), edb:parent^(X, Y), "
        "idb:ancestor^bb(Y, Z).",
    ),
    1,
    10,
)


def route(tmp_path, n_trees):
    store = EdbStore(str(tmp_path / "forest.edb"), object_name="main")
    program = load_forest_edb(store, n_trees, depth=DEPTH)
    return store, CompiledDemand(program, "main", [EdbFactSource(store)])


def asked(compiled, goal):
    """The plan's rules, the answer count and the rows fetched."""
    with trace(goal) as ctx:
        result = compiled.ask(goal)
    assert result.used, result.reason
    literal = parse_literal(goal)
    joins = compiled._plans[literal.predicate, goal_adornment(literal)]
    rules = tuple(str(rule) for rule in joins.plan.rules)
    return rules, len(result.answers), ctx.costs["demand_fetched"]


def test_plans_at_2000_trees(tmp_path):
    store, compiled = route(tmp_path, 2000)
    with store:
        for goal, expected in AT_2000.items():
            assert asked(compiled, goal) == expected, goal


def test_bound_owns_plan_at_200_trees(tmp_path):
    store, compiled = route(tmp_path, 200)
    with store:
        assert asked(compiled, "owns(p0, n0_6)") == OWNS_BB_AT_200
