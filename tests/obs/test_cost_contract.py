"""Engine costs: each recorded once, and both views agree.

An engine phase reports its work with one ``record_costs`` call; the
active trace's digest takes the keys as they are and the registry folds
them through ``COST_COUNTERS``.  Each fact used to be recorded twice,
under two names, with neither copy complete: the grounder told only the
registry, a read only the trace.  These tests scan ``src/`` for the
one-call-site rule, then run the cold evaluation programs, maintained
and fallback writes, a model search and a demand read with the registry
enabled and a trace active, and require the two views to match key for
key.
"""

import ast
from pathlib import Path

import pytest

from repro.core.semantics import OrderedSemantics
from repro.kb import KnowledgeBase
from repro.kb.query import answers_in
from repro.obs import COST_COUNTERS, instrumented
from repro.obs.trace import trace
from repro.workloads import diamond, forest_program, release_chain, session_program
from repro.workloads.paper import figure1, scaled_figure2

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Names the end-to-end benchmark harness reads with ``.get(name, 0)``,
#: where a rename reads as a silent 0: registry counters
#: (``benchmarks/e2e/cold_eval.py``, ``benchmarks/e2e/probes.py``) and
#: a digest key (``benchmarks/e2e/point_query.py``).
HARNESS_COUNTERS = {
    "ground.substitutions_tried",
    "search.leaves_visited",
    "maintain.rules_reevaluated",
    "maintain.full_rebuilds",
}
HARNESS_COSTS = {"demand_fetched"}

#: The demand router's decisions (``query/api.py``): a count of choices,
#: not of work, with no digest twin — a traced read names its route on
#: the root span instead.
ROUTER_COUNTERS = ("query.demand.served", "query.demand.plan.", "query.demand.fallback.")

#: Registry families an engine cost folds into.
ENGINE_FAMILIES = {name.rsplit(".", 1)[0] for name in COST_COUNTERS.values()}


def calls(attr: str):
    """``(path, call)`` for every call of a function or method named
    ``attr`` under ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == attr:
                    yield path.relative_to(SRC).as_posix(), node


class TestOneCallSite:
    def test_add_cost_only_in_obs_and_the_publish_graft(self):
        sites = [path for path, _ in calls("add_cost") if not path.startswith("obs/")]
        assert sites == ["server/engine.py"]

    def test_no_registry_call_names_a_cost_counter(self):
        counters = set(COST_COUNTERS.values())
        named = [
            (path, node.args[0].value)
            for kind in ("count", "gauge", "observe")
            for path, node in calls(kind)
            if node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in counters
        ]
        assert named == []

    def test_each_cost_key_has_one_recording_site(self):
        sites: dict[str, list[str]] = {}
        for path, node in calls("record_costs"):
            if path.startswith("obs/"):
                continue
            for keyword in node.keywords:
                assert keyword.arg is not None, f"{path}:{node.lineno} passes **counts"
                sites.setdefault(keyword.arg, []).append(f"{path}:{node.lineno}")
        assert set(sites) == set(COST_COUNTERS)
        assert {k: v for k, v in sites.items() if len(v) != 1} == {}

    def test_harness_names_are_in_the_fold(self):
        assert HARNESS_COUNTERS <= set(COST_COUNTERS.values())
        assert HARNESS_COSTS <= set(COST_COUNTERS)


# ----------------------------------------------------------------------
# Both views of one run
# ----------------------------------------------------------------------
def cold(build, view, goal):
    def scenario():
        sem = OrderedSemantics(build(), view)
        if goal is None:
            sem.models()
        else:
            answers_in(sem.least_model, goal)

    return scenario


def maintained_tell():
    kb = KnowledgeBase.from_program(session_program(4, 32))
    kb.view("level0").least_model
    return lambda: (kb.tell("level0", "enrolled_0(e3)."), kb.view("level0").least_model)


def fallback_tell():
    sem = OrderedSemantics(figure1(), "c1")
    sem.least_model
    # ostrich is outside the grounded base: only re-grounding can tell.
    return lambda: sem.apply_delta(assertions=[("c2", "bird(ostrich)")])


def demand_read():
    kb = KnowledgeBase()
    kb.define(
        "tree",
        "anc(X, Y) :- par(X, Y).\nanc(X, Z) :- par(X, Y), anc(Y, Z).\n"
        "par(a, b).\npar(b, c).\npar(c, d).",
    )
    return lambda: kb.query("tree", "anc(a, X)", strategy="demand")


#: The ``cold_eval`` programs at ``--quick`` size, then the write, search
#: and read paths of a serving view.
SCENARIOS = {
    "forest_2x3": lambda: cold(lambda: forest_program(2, depth=3), "main", "owns(P, N)"),
    "session_8x256": lambda: cold(lambda: session_program(8, 256), "level0", "-member(X)"),
    "release_chain_1024": lambda: cold(lambda: release_chain(1024), "threats", "p(X)"),
    "figure2_x2000": lambda: cold(lambda: scaled_figure2(2000, 500), "c1", "free_ticket(X)"),
    "diamond_8.models": lambda: cold(lambda: diamond(8), "bottom", None),
    "maintained_tell": maintained_tell,
    "fallback_tell": fallback_tell,
    "diamond_4.models": lambda: cold(lambda: diamond(4), "bottom", None),
    "demand_read": demand_read,
}


def both_views(name):
    run = SCENARIOS[name]()
    with instrumented() as obs, trace("contract") as ctx:
        run()
        counters = obs.snapshot()["counters"]
    return ctx.costs, counters


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_digest_and_registry_agree(name):
    costs, counters = both_views(name)
    assert costs
    assert {k: costs[k] for k in costs} == {
        k: counters.get(COST_COUNTERS[k], 0) for k in costs
    }
    engine = {
        n
        for n in counters
        if n.rsplit(".", 1)[0] in ENGINE_FAMILIES and not n.startswith(ROUTER_COUNTERS)
    }
    assert engine <= {COST_COUNTERS[k] for k in costs}


def test_harness_names_carry_their_figures():
    _, counters = both_views("forest_2x3")
    assert counters["ground.substitutions_tried"] > 0
    _, counters = both_views("diamond_8.models")
    assert counters["search.leaves_visited"] == 3**8
    _, counters = both_views("maintained_tell")
    assert counters["maintain.rules_reevaluated"] > 0
    _, counters = both_views("fallback_tell")
    assert counters["maintain.full_rebuilds"] == 1
    costs, _ = both_views("demand_read")
    assert costs["demand_fetched"] > 0


# ----------------------------------------------------------------------
# Facts the digest used to miss
# ----------------------------------------------------------------------
def test_first_tell_carries_the_seed_grounding():
    """The first maintained write on a view seeds the engine from the
    full grounding, inside the write: its digest says so."""
    kb = KnowledgeBase.from_program(session_program(4, 32))
    kb.view("level0").least_model
    with trace("tell") as ctx:
        kb.tell("level0", "enrolled_0(e3).")
        kb.view("level0").least_model
    seed = OrderedSemantics(session_program(4, 32), "level0").full_ground
    assert ctx.costs["ground_instances_kept"] == len(seed.rules)
    assert ctx.costs["ground_substitutions_tried"] > 0
    assert ctx.costs["rules_reevaluated"] > 0
    assert ctx.costs["full_rebuilds"] == 0


def test_invalidation_fallback_reports_a_rebuild():
    run = fallback_tell()
    with trace("tell") as ctx:
        run()
    assert ctx.costs["full_rebuilds"] == 1
    assert ctx.costs["delta_asserted"] == 1


def test_model_search_reports_its_leaves():
    sem = OrderedSemantics(diamond(4), "bottom")
    with trace("models") as ctx:
        sem.models()
    assert ctx.costs["leaves_visited"] == 81
    assert ctx.costs["models_found"] == 1
