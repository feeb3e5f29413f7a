"""Tracing, metrics exposition, slow-query log and the explain op."""

import asyncio

import pytest

from repro.kb.knowledge_base import KnowledgeBase
from repro.lang.parser import parse_program
from repro.obs import get_instrumentation, instrumented
from repro.obs.trace import current_trace
from repro.obs.trace import trace as trace_context
from repro.server import ServerConfig, ServerEngine, parse_request


def run(coro):
    return asyncio.run(coro)


def make_kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.define("bird", "fly(X) :- bird_of(X).\nbird_of(tweety).")
    kb.define(
        "penguin",
        "-fly(X) :- penguin_of(X).\nbird_of(X) :- penguin_of(X).",
        isa=["bird"],
    )
    return kb


def req(**fields):
    return parse_request(fields)


async def roundtrip(engine, **fields):
    reply = await engine.handle(req(**fields))
    assert reply["ok"], reply
    return reply


def span_names(tree: dict) -> list:
    return [child["name"] for child in tree.get("children", ())]


class TestTracedReads:
    def test_untraced_read_has_no_trace_key(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                reply = await roundtrip(
                    engine, op="query", view="bird", pattern="fly(X)", id=1
                )
                assert "trace" not in reply["result"]

        run(scenario())

    def test_traced_read_reply_carries_span_tree(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                reply = await roundtrip(
                    engine,
                    op="query",
                    view="penguin",
                    pattern="fly(X)",
                    trace=True,
                    id=1,
                )
                trace = reply["result"]["trace"]
                assert len(trace["trace_id"]) == 16
                root = trace["spans"]
                assert root["name"] == "server.query"
                assert root["fields"]["view"] == "penguin"
                assert root["fields"]["version"] == 0
                assert "server.read" in span_names(root)
                # The cold read ran the fixpoint under the trace, so
                # the engine deposited its semantic cost digest.
                assert trace["costs"]["rules_fired"] >= 1
                assert trace["costs"]["literals_derived"] >= 1
                assert trace["costs"]["fixpoint_stages"] >= 1

        run(scenario())

    def test_trace_id_and_baggage_are_honored(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                reply = await roundtrip(
                    engine,
                    op="ask",
                    view="bird",
                    pattern="fly(tweety)",
                    trace={"id": "cafe0123", "baggage": {"tenant": "t1"}},
                    id=1,
                )
                trace = reply["result"]["trace"]
                assert trace["trace_id"] == "cafe0123"
                assert trace["baggage"] == {"tenant": "t1"}

        run(scenario())

    def test_tracing_works_with_registry_disabled(self):
        async def scenario():
            obs = get_instrumentation()
            assert not obs.enabled
            before = obs.snapshot()["spans"]
            async with ServerEngine(make_kb()) as engine:
                reply = await roundtrip(
                    engine,
                    op="query",
                    view="penguin",
                    pattern="bird_of(X)",
                    trace=True,
                    id=1,
                )
                assert reply["result"]["trace"]["spans"]["children"]
            # The trace-only bridge records nothing in the registry.
            assert obs.snapshot()["spans"] == before

        run(scenario())

    def test_no_trace_context_leaks_after_requests(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                await roundtrip(
                    engine, op="query", view="bird", pattern="fly(X)",
                    trace=True, id=1,
                )
                await roundtrip(
                    engine, op="tell", view="penguin",
                    rules="penguin_of(opus).", trace=True, id=2,
                )
                assert current_trace() is None

        run(scenario())


class TestTracedWrites:
    def test_write_decomposes_into_pipeline_phases(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                reply = await roundtrip(
                    engine,
                    op="tell",
                    view="penguin",
                    rules="penguin_of(opus).",
                    trace=True,
                    id=1,
                )
                trace = reply["result"]["trace"]
                root = trace["spans"]
                assert root["name"] == "server.tell"
                # The span tree crosses the admitting-task / writer-task
                # boundary and still forms one tree.
                assert span_names(root) == [
                    "queue.wait",
                    "coalesce",
                    "apply",
                    "publish",
                ]
                assert root["fields"]["batch_version"] == 1
                assert root["fields"]["batch_size"] == 1

        run(scenario())

    def test_write_cost_digest_covers_hot_view_maintenance(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                # Materialize the view so the next publish repairs it
                # through the incremental maintenance engine.
                await roundtrip(
                    engine, op="query", view="penguin", pattern="fly(X)", id=1
                )
                # An in-universe constant keeps the mutation on the
                # incremental path (a new constant would force the
                # regrounding fallback).
                reply = await roundtrip(
                    engine,
                    op="tell",
                    view="penguin",
                    rules="penguin_of(tweety).",
                    trace=True,
                    id=2,
                )
                trace = reply["result"]["trace"]
                assert trace["costs"]["delta_asserted"] >= 1
                assert trace["costs"]["literals_rederived"] >= 1
                publish = trace["spans"]["children"][-1]
                assert publish["name"] == "publish"
                repair_names = span_names(publish)
                assert "kb.view.repair" in repair_names

        run(scenario())

    def test_publish_names_its_children_and_counts_its_decodes(self, tmp_path):
        from repro.server.wal import Wal

        async def scenario():
            wal = Wal(str(tmp_path), fsync="never")
            async with ServerEngine(make_kb(), wal=wal) as engine:
                await roundtrip(
                    engine, op="query", view="penguin", pattern="fly(X)", id=1
                )
                reply = await roundtrip(
                    engine,
                    op="tell",
                    view="penguin",
                    rules="penguin_of(tweety).",
                    trace=True,
                    id=2,
                )
                trace = reply["result"]["trace"]
                publish = trace["spans"]["children"][-1]
                # Nothing of a publish is left to its self time but the
                # snapshot swap: the journal, each repair, the fan-out.
                assert span_names(publish) == ["wal.append", "kb.view.repair", "notify"]
                assert trace["costs"]["publish_decoded_literals"] == 0
                assert "decoded_literals" not in trace["costs"]
                # A reader that takes the members out pays for them, and
                # its trace says so.
                model = engine.snapshot.models["penguin"]
                with trace_context("test") as ctx:
                    assert len(model) == len(list(model))
                assert ctx.costs == {"decoded_literals": len(model)}

        run(scenario())

    def test_coalesced_batch_links_every_traced_item(self):
        async def scenario():
            engine = ServerEngine(make_kb(), ServerConfig(max_batch=8))
            async with engine:
                replies = await asyncio.gather(
                    *(
                        engine.handle(
                            req(
                                op="tell",
                                view="penguin",
                                rules=f"penguin_of(p{i}).",
                                trace=True,
                                id=i,
                            )
                        )
                        for i in range(4)
                    )
                )
                assert all(r["ok"] for r in replies)
                batch_sizes = {
                    r["result"]["trace"]["spans"]["fields"]["batch_size"]
                    for r in replies
                }
                # Every item knows the batch it rode in; at least the
                # items behind the first must have coalesced (>1).
                assert max(batch_sizes) > 1
                trace_ids = {
                    r["result"]["trace"]["trace_id"] for r in replies
                }
                assert len(trace_ids) == 4  # one tree per request

        run(scenario())


class TestAlwaysOnInstruments:
    def test_queue_wait_and_latency_in_stats(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                await roundtrip(
                    engine, op="tell", view="penguin",
                    rules="penguin_of(opus).", id=1,
                )
                await roundtrip(
                    engine, op="query", view="bird", pattern="fly(X)", id=2
                )
                stats = (await roundtrip(engine, op="stats", id=3))["result"]
                assert stats["queue_wait_ms"]["count"] == 1
                read = stats["latency"]["read"]
                assert read["count"] == 1
                assert read["p50_s"] <= read["p95_s"] <= read["p99_s"]
                assert read["buckets"][-1][0] is None  # +Inf closes it

        run(scenario())

    def test_view_refresh_cost_per_view(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                await roundtrip(
                    engine, op="query", view="penguin", pattern="fly(X)", id=1
                )
                await roundtrip(
                    engine, op="tell", view="penguin",
                    rules="penguin_of(opus).", id=2,
                )
                stats = (await roundtrip(engine, op="stats", id=3))["result"]
                assert stats["views"]["penguin"]["refreshes"] == 1
                assert stats["views"]["penguin"]["mean_s"] >= 0

        run(scenario())

    def test_snapshot_age_gauge_with_registry_enabled(self):
        async def scenario():
            with instrumented():
                async with ServerEngine(make_kb()) as engine:
                    await roundtrip(
                        engine, op="query", view="bird", pattern="fly(X)", id=1
                    )
                    await roundtrip(
                        engine, op="tell", view="penguin",
                        rules="penguin_of(opus).", id=2,
                    )
                    # Recorded once, in the always-on instruments.
                    stats = engine.stats()
                    text = engine.exposition()
                    assert stats["snapshot_age_s"] >= 0
                    assert "repro_server_snapshot_age_seconds " in text
                    assert stats["queue_wait_ms"]["count"] == 1
                    assert "repro_server_queue_wait_ms_count 1" in text

        run(scenario())


class TestMetricsOp:
    def test_exposition_format_and_content(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                await roundtrip(
                    engine, op="query", view="bird", pattern="fly(X)", id=1
                )
                await roundtrip(
                    engine, op="tell", view="penguin",
                    rules="penguin_of(opus).", id=2,
                )
                reply = await roundtrip(engine, op="metrics", id=3)
                assert reply["result"]["content_type"].startswith("text/plain")
                text = reply["result"]["exposition"]
                assert "# TYPE repro_server_requests_total counter" in text
                assert 'repro_server_requests_total{op="query"} 1' in text
                assert "repro_server_version 1" in text
                assert "repro_server_read_latency_seconds_count 1" in text
                assert "repro_server_queue_wait_ms_count 1" in text
                assert 'repro_server_view_refresh_seconds' not in text  # cold view

        run(scenario())

    def test_registry_instruments_join_the_exposition(self):
        async def scenario():
            with instrumented():
                async with ServerEngine(make_kb()) as engine:
                    await roundtrip(
                        engine, op="query", view="penguin", pattern="fly(X)", id=1
                    )
                    text = (await roundtrip(engine, op="metrics", id=2))[
                        "result"
                    ]["exposition"]
                    assert "repro_fixpoint_stages_total" in text
                    assert "repro_span_duration_seconds" in text

        run(scenario())


class TestDemandRoute:
    """A ``"strategy": "demand"`` read says which route answered and,
    when it materialized, why."""

    def test_trace_names_route_plan_and_fallback(self):
        async def scenario():
            kb = make_kb()
            kb.define("tree", "anc(X, Y) :- par(X, Y).\npar(a, b).")
            config = ServerConfig(slow_ms=0.0)
            with instrumented() as obs:
                async with ServerEngine(kb, config) as engine:
                    plans = []
                    for rid in (1, 2):
                        reply = await roundtrip(
                            engine, op="query", view="tree", pattern="anc(a, X)",
                            strategy="demand", trace=True, id=rid,
                        )
                        fields = reply["result"]["trace"]["spans"]["fields"]
                        assert fields["route"] == "demand"
                        plans.append(fields["demand.plan"])
                    assert plans == ["compiled", "hit"]
                    # The penguin view has negative heads: demand declines.
                    await roundtrip(
                        engine, op="query", view="penguin", pattern="fly(X)",
                        strategy="demand", id=3,
                    )
                    entry = (await roundtrip(engine, op="slow", id=4))[
                        "result"
                    ]["entries"][-1]
                    assert entry["id"] == 3
                    assert entry["spans"]["fields"]["route"] == "materialized"
                    assert entry["spans"]["fields"]["demand.fallback"] == "unroutable"
                counters = obs.snapshot()["counters"]
            assert counters["query.demand.plan.compiled"] == 1
            assert counters["query.demand.plan.hit"] == 1
            assert counters["query.demand.fallback.unroutable"] == 1

        run(scenario())


class TestMaterializedRoute:
    """Every read's root span names its route; a materialized read also
    says how the model was read (``read.probe``) and what that looked
    at (cost keys ``read_candidates`` / ``read_answers``)."""

    def test_trace_tells_a_probe_from_a_relation_walk(self):
        from repro.workloads import build_session_kb

        members = 512
        kb = build_session_kb(1, members)
        kb.tell("level0", "\n".join(f"enrolled_0(e{i})." for i in range(members)))

        async def traced(engine, op, pattern, **extra):
            reply = await roundtrip(
                engine, op=op, view="level0", pattern=pattern, trace=True, id=1, **extra
            )
            trace = reply["result"].pop("trace")
            fields = trace["spans"]["fields"]
            assert trace["spans"]["name"] == f"server.{op}"
            assert "server.read" in span_names(trace["spans"])
            assert fields["route"] == "materialized"
            return reply["result"], fields.get("read.probe"), trace.get("costs", {})

        async def scenario():
            async with ServerEngine(kb) as engine:
                await roundtrip(engine, op="ask", view="level0", pattern="ok(e0)", id=0)
                result, probe, costs = await traced(engine, "query", "member(X)")
                assert result["count"] == members and probe == "relation"
                assert costs == {"read_candidates": members, "read_answers": members}
                # A cautious ask stops at the first match instead of
                # building, sorting and discarding all 512 answers.
                result, probe, costs = await traced(engine, "ask", "member(X)")
                assert result == {"holds": True} and probe == "relation"
                assert costs == {"read_candidates": 1, "read_answers": 1}
                result, probe, costs = await traced(engine, "ask", "member(e7)")
                assert result == {"holds": True} and probe == "member"
                assert costs == {"read_candidates": 1, "read_answers": 1}
                # False, undefined-relation and unknown-predicate goals
                # hold exactly as they did.
                for pattern, probe_kind in (
                    ("-member(e7)", "member"),
                    ("-member(X)", "relation"),
                    ("sus_0(X)", "relation"),
                    ("zz_unknown(X)", "relation"),
                    ("zz_unknown(e7)", "member"),
                ):
                    result, probe, costs = await traced(engine, "ask", pattern)
                    assert result == {"holds": False} and probe == probe_kind
                    assert costs["read_answers"] == 0
                    assert costs["read_candidates"] == (probe_kind == "member")
                # Skeptical asks keep the full evaluation.
                result, probe, costs = await traced(
                    engine, "ask", "member(X)", mode="skeptical"
                )
                assert result == {"holds": True}
                assert costs["read_candidates"] == members
                # An explain is a materialized read too (no probe: it
                # replays the derivation).
                result, probe, _ = await traced(engine, "explain", "member(e7)")
                assert result["derived"] is True and probe is None

        run(scenario())


class TestSlowQueryLog:
    def test_disabled_by_default(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                await roundtrip(
                    engine, op="query", view="bird", pattern="fly(X)", id=1
                )
                result = (await roundtrip(engine, op="slow", id=2))["result"]
                assert result["threshold_ms"] is None
                assert result["entries"] == []
                # Untraced request replies stay trace-free.
                reply = await roundtrip(
                    engine, op="query", view="bird", pattern="fly(X)", id=3
                )
                assert "trace" not in reply["result"]

        run(scenario())

    def test_slow_read_records_span_tree_and_cost_digest(self):
        async def scenario():
            config = ServerConfig(slow_ms=0.0)  # everything is slow
            async with ServerEngine(make_kb(), config) as engine:
                await roundtrip(
                    engine, op="query", view="penguin", pattern="fly(X)", id=7
                )
                result = (await roundtrip(engine, op="slow", id=8))["result"]
                assert result["total"] == 1
                (entry,) = result["entries"]
                assert entry["op"] == "query"
                assert entry["view"] == "penguin"
                assert entry["pattern"] == "fly(X)"
                assert entry["id"] == 7
                assert entry["elapsed_ms"] >= 0
                assert entry["spans"]["name"] == "server.query"
                # The digest names the work that made it slow.
                assert entry["cost"]["rules_fired"] >= 1
                stats = (await roundtrip(engine, op="stats", id=9))["result"]
                assert stats["slow"]["total"] == 1
                assert stats["slow"]["max_ms"] >= entry["elapsed_ms"]

        run(scenario())

    def test_slow_write_names_responsible_view(self):
        async def scenario():
            config = ServerConfig(slow_ms=0.0)
            async with ServerEngine(make_kb(), config) as engine:
                await roundtrip(
                    engine, op="query", view="penguin", pattern="fly(X)", id=1
                )
                await roundtrip(
                    engine, op="tell", view="penguin",
                    rules="penguin_of(tweety).", id=2,
                )
                entries = (await roundtrip(engine, op="slow", id=3))["result"][
                    "entries"
                ]
                write_entries = [e for e in entries if e["op"] == "tell"]
                assert write_entries
                entry = write_entries[0]
                assert entry["view"] == "penguin"
                assert entry["rules"] == "penguin_of(tweety)."
                assert entry["cost"]["delta_asserted"] >= 1
                phases = [c["name"] for c in entry["spans"]["children"]]
                assert phases == ["queue.wait", "coalesce", "apply", "publish"]

        run(scenario())

    def test_fast_requests_not_recorded(self):
        async def scenario():
            config = ServerConfig(slow_ms=10_000.0)
            async with ServerEngine(make_kb(), config) as engine:
                await roundtrip(
                    engine, op="query", view="bird", pattern="fly(X)", id=1
                )
                result = (await roundtrip(engine, op="slow", id=2))["result"]
                assert result["total"] == 0 and result["entries"] == []

        run(scenario())

    def test_ring_buffer_is_bounded(self):
        async def scenario():
            config = ServerConfig(slow_ms=0.0, slow_log_size=2)
            async with ServerEngine(make_kb(), config) as engine:
                for i in range(5):
                    await roundtrip(
                        engine, op="ask", view="bird",
                        pattern="fly(tweety)", id=i,
                    )
                result = (await roundtrip(engine, op="slow", id=99))["result"]
                assert result["total"] == 5
                assert len(result["entries"]) == 2
                assert [e["id"] for e in result["entries"]] == [3, 4]

        run(scenario())


class TestExplainOp:
    def test_explain_derived_literal(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                reply = await roundtrip(
                    engine,
                    op="explain",
                    view="bird",
                    pattern="fly(tweety)",
                    id=1,
                )
                result = reply["result"]
                assert result["derived"] is True
                assert result["value"] == "true"
                assert "fly(tweety)" in result["explanation"]
                assert "bird_of(tweety)" in result["explanation"]

        run(scenario())

    def test_explain_sees_current_snapshot(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                before = await roundtrip(
                    engine, op="explain", view="penguin",
                    pattern="-fly(opus)", id=1,
                )
                assert before["result"]["derived"] is False
                await roundtrip(
                    engine, op="tell", view="penguin",
                    rules="penguin_of(opus).", id=2,
                )
                after = await roundtrip(
                    engine, op="explain", view="penguin",
                    pattern="-fly(opus)", id=3,
                )
                assert after["result"]["derived"] is True
                assert after["version"] == 1
                assert "penguin_of(opus)" in after["result"]["explanation"]

        run(scenario())

    def test_explain_bad_literal_is_semantics_error(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                reply = await engine.handle(
                    req(op="explain", view="nope", pattern="fly(tweety)", id=1)
                )
                assert not reply["ok"]
                assert reply["error"]["code"] == "semantics"

        run(scenario())

    def test_explain_non_ground_pattern_is_semantics_error(self):
        async def scenario():
            async with ServerEngine(make_kb()) as engine:
                reply = await engine.handle(
                    req(op="explain", view="bird", pattern="fly(X)", id=1)
                )
                assert not reply["ok"]
                assert reply["error"]["code"] == "semantics"
                assert "ground" in reply["error"]["message"]

        run(scenario())

    def test_explain_deep_derivation(self):
        # p(1024) is derived at stage 2049 through a 1025-node chain:
        # deeper than the interpreter's recursion limit.
        from repro.workloads import release_chain

        kb = KnowledgeBase.from_program(release_chain(1024))

        async def scenario():
            async with ServerEngine(kb) as engine:
                reply = await roundtrip(
                    engine, op="explain", view="threats", pattern="p(1024)", id=1
                )
                result = reply["result"]
                assert result["derived"] is True
                assert "p(1024)  [stage 2049]" in result["explanation"]
                assert "p(0)  [stage 1]" in result["explanation"]

        run(scenario())


@pytest.mark.parametrize(
    "example,literal,derived,needle",
    [
        ("examples/figure1.olp", "-fly(penguin)", True, "ground_animal(penguin)"),
        ("examples/figure1.olp", "fly(pigeon)", True, "bird(pigeon)"),
        ("examples/figure2.olp", "free_ticket(mimmo)", False, "poor(mimmo)"),
        ("examples/figure2.olp", "poor(mimmo)", False, "defeated"),
        ("examples/figure3.olp", "take_loan", True, "inflation(19)"),
    ],
)
def test_explain_op_on_paper_figures(example, literal, derived, needle):
    with open(example) as handle:
        kb = KnowledgeBase.from_program(parse_program(handle.read()))

    async def scenario():
        async with ServerEngine(kb) as engine:
            reply = await roundtrip(
                engine, op="explain", view="c1", pattern=literal, id=1
            )
            result = reply["result"]
            assert result["derived"] is derived
            assert needle in result["explanation"]

    run(scenario())
