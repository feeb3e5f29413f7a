"""The demand column of the oracle matrix (``tests/oracle``):
goal-directed answers (:func:`repro.query.demand_answers` and one
:class:`~repro.query.CompiledDemand` route reused across every goal)
equal matching the goal against the oracle's materialized model —
literals, bindings and sort order — wherever the demand route serves.

The rows are the random stratified families (propositional and
first-order, with negation, recursion and guards, each with its own
ground and non-ground goals), the named rows and the propositional
ordered family (one open goal per predicate).  The knowledge base and the
wire front end are held to each other and to the oracle on the same
rows.
"""

from __future__ import annotations

import asyncio

from repro.db.edb import EdbStore
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.query import answers_in
from repro.lang.errors import ReproError
from repro.obs.trace import trace
from repro.server import ServerEngine, parse_request
from repro.workloads.point_query import load_forest_edb

from ..oracle import columns, oracle
from ..oracle.rows import NAMED, family


class TestPropositionalSweep:
    def test_random_stratified_programs(self):
        rows = family("stratified")
        served = sum(columns.demand(row)[0] for row in rows)
        # Stratified seminegative views are always demand-eligible;
        # a silent mass fallback would hollow the sweep out.
        assert served >= len(rows)


class TestFirstOrderSweep:
    def test_random_first_order_programs(self):
        for row in family("fo_stratified"):
            served, asked = columns.demand(row)
            assert served == asked, f"{row}: every generated view is demand-eligible"


class TestMaterializedOracle:
    def test_probe_reads_equal_the_scan(self):
        """The read path the demand column's expectation goes through,
        ``answers_in``, on this family's own goals and every goal shape
        the read path distinguishes, against the scan of the oracle."""
        assert columns.sweep(columns.reads, "fo_stratified") >= len(family("fo_stratified"))


class TestCompiledReuse:
    def test_one_compiled_route_serves_every_goal(self):
        """Every named row's open goals, asked in shuffled order and
        twice through ONE compiled route per view: a row set, index,
        worklist, fetch memo or counter surviving a run would show as a
        wrong answer."""
        served = sum(columns.demand(row)[0] for row in NAMED)
        assert served


def test_random_ordered_programs():
    assert sum(columns.demand(row)[1] for row in family("ordered"))


class TestServedFloors:
    """A goal is declined only when its cone reaches a negative head, so
    the ordered rows are mostly served (at ``pr``: 176 of the 438
    named-row goals, 674 of the 1,264 ``ordered``-family goals)."""

    def test_named_rows(self):
        assert sum(columns.demand(row)[0] for row in NAMED) >= 150

    def test_ordered_family(self):
        assert sum(columns.demand(row)[0] for row in family("ordered")) >= 600


#: Every (op, mode, strategy) a read may carry; None is the unforced
#: read each front end defaults.
READS = [
    (op, mode, strategy)
    for op in ("query", "ask")
    for mode in ("cautious", "skeptical", "credulous")
    for strategy in (None, "auto", "demand")
]


def _route(fields: dict) -> tuple:
    return fields.get("route"), fields.get("demand.fallback")


def library_read(kb, view, goal, op, mode, strategy):
    """``KnowledgeBase.query``/``ask`` as the wire would encode it, with
    the route the traced read took."""
    with trace("library") as ctx:
        try:
            if op == "ask":
                result = {"holds": kb.ask(view, goal, mode, strategy)}
            else:
                result = oracle.encode(kb.query(view, goal, mode, strategy), mode)
        except ReproError:
            return "error", None
    return result, _route(ctx.root.fields)


def wire_read(loop, engine, view, goal, op, mode, strategy):
    """The same read through ``ServerEngine.handle``."""
    fields = {"id": 1, "op": op, "view": view, "pattern": goal, "mode": mode}
    if strategy is not None:
        fields["strategy"] = strategy
    fields["trace"] = True
    reply = loop.run_until_complete(engine.handle(parse_request(fields)))
    if not reply["ok"]:
        return "error", None
    result = dict(reply["result"])
    spans = result.pop("trace")["spans"]
    return result, _route(spans["fields"])


class TestKnowledgeBaseParity:
    def test_kb_query_strategies_agree(self):
        for row in family("fo_stratified")[::10]:
            kb = KnowledgeBase.from_program(row.program)
            model = oracle.of(row, "main").model
            for goal in row.goals[:4]:
                want = columns.shape(answers_in(model, goal))
                assert columns.shape(kb.query("main", goal, strategy="demand")) == want
                assert columns.shape(kb.query("main", goal, strategy="auto")) == want

    def test_library_and_wire_read_alike(self, tmp_path):
        """One read, two front ends: ``KnowledgeBase.query``/``ask`` and
        ``ServerEngine.handle`` (over its own knowledge base of the same
        program) return the same answer by the same route — ``route``
        and ``demand.fallback`` of the traced read — for every op, mode
        and strategy, on a cold view and on a warm one."""
        cases = []
        # Every fourth row of the parity sweep above (skeptical and
        # credulous reads enumerate stable models, on both front ends,
        # cold and warm): its four open goals plus its ground ones.
        for row in family("fo_stratified")[::40]:
            goals = list(row.goals)
            ground = [g for g in goals[4:] if "X" not in g and "Y" not in g]
            cases.append((row.program, None, goals[:4] + ground))
        store = EdbStore(str(tmp_path / "forest.edb"), object_name="main")
        forest = load_forest_edb(store, 2, depth=2)
        cases.append(
            (
                forest,
                store,
                ["owns(p1, n1_2)", "owns(p0, X)", "ancestor(n0_0, n0_1)",
                 "ancestor(n1_0, X)", "ancestor(n1_1, n0_2)"],
            )
        )
        loop = asyncio.new_event_loop()

        def fresh_pair(program, attached):
            kbs = []
            for _ in range(2):
                kb = KnowledgeBase.from_program(program)
                if attached is not None:
                    kb.attach_edb("main", attached)
                kbs.append(kb)
            return kbs[0], ServerEngine(kbs[1])

        routes = set()
        try:
            for program, attached, goals in cases:
                warm_kb, warm_engine = fresh_pair(program, attached)
                warm_kb.least_model("main")
                warm_engine.kb.least_model("main")
                for goal in goals:
                    for read in READS:
                        cold_kb, cold_engine = fresh_pair(program, attached)
                        for kb, engine in (
                            (cold_kb, cold_engine),
                            (warm_kb, warm_engine),
                        ):
                            library = library_read(kb, "main", goal, *read)
                            wire = wire_read(loop, engine, "main", goal, *read)
                            assert wire == library, (goal, read)
                            routes.add(library[1])
        finally:
            loop.close()
            store.close()
        # The sweep reaches both routes and a counted fallback.
        assert ("demand", None) in routes
        assert ("materialized", None) in routes
        assert ("materialized", "mode") in routes
