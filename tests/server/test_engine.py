"""Engine semantics: batching, snapshot isolation, admission control,
deadlines, stats/obs threading, graceful drain."""

import asyncio
import sys
import time

import pytest

from repro.core.semantics import OrderedSemantics
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.query import answers_in
from repro.obs import instrumented
from repro.server import ServerConfig, ServerEngine, parse_request
from repro.serialize import kb_signature
from repro.server import protocol
from repro.server.wal import Wal, read_journal
from repro.workloads import build_session_kb, session_program

from ..conftest import chain_program, record_history


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


async def started(config=None, kb=None) -> ServerEngine:
    engine = ServerEngine(kb if kb is not None else make_kb(), config)
    return await engine.start()


def test_read_answers_and_version_zero():
    async def scenario():
        async with ServerEngine(make_kb()) as engine:
            reply = await engine.handle(
                req(id=1, op="query", view="penguin", pattern="bird_of(X)")
            )
            assert reply["ok"] and reply["version"] == 0
            assert [a["literal"] for a in reply["result"]["answers"]] == [
                "bird_of(tweety)"
            ]
            ask = await engine.handle(
                req(id=2, op="ask", view="bird", pattern="fly(tweety)")
            )
            assert ask["ok"] and ask["result"]["holds"] is True

    run(scenario())


def test_write_bumps_version_and_read_sees_it():
    async def scenario():
        async with ServerEngine(make_kb()) as engine:
            reply = await engine.handle(
                req(id="w", op="tell", view="penguin", rules="penguin_of(opus).")
            )
            assert reply["ok"] and reply["version"] == 1
            ask = await engine.handle(
                req(id="r", op="ask", view="penguin", pattern="-fly(opus)")
            )
            assert ask["ok"] and ask["version"] == 1
            assert ask["result"]["holds"] is True

    run(scenario())


def test_define_creates_view_and_semantics_error_reply():
    async def scenario():
        async with ServerEngine(make_kb()) as engine:
            reply = await engine.handle(
                req(
                    id=1,
                    op="define",
                    view="superpenguin",
                    rules="fly(X) :- super(X).\nsuper(clark).\npenguin_of(clark).",
                    isa=["penguin"],
                )
            )
            assert reply["ok"]
            ask = await engine.handle(
                req(id=2, op="ask", view="superpenguin", pattern="fly(clark)")
            )
            assert ask["result"]["holds"] is True
            dup = await engine.handle(
                req(id=3, op="define", view="superpenguin")
            )
            assert not dup["ok"]
            assert dup["error"]["code"] == protocol.SEMANTICS
            unknown = await engine.handle(
                req(id=4, op="query", view="nope", pattern="p(X)")
            )
            assert not unknown["ok"]
            assert unknown["error"]["code"] == protocol.SEMANTICS

    run(scenario())


def test_batch_coalescing_publishes_once():
    async def scenario():
        config = ServerConfig(max_batch=16)
        async with record_history(ServerEngine(make_kb(), config)) as engine:
            writes = [
                engine.handle(
                    req(id=i, op="tell", view="penguin", rules=f"penguin_of(p{i}).")
                )
                for i in range(10)
            ]
            replies = await asyncio.gather(*writes)
            # All ten submitted before the writer ran once: one batch,
            # one published version, every reply stamped with it.
            assert {r["version"] for r in replies} == {1}
            assert engine.version == 1
            snapshot, batch = engine.history[-1]
            assert snapshot.version == 1
            assert len(batch) == 10

    run(scenario())


def test_per_op_batches_when_max_batch_is_one():
    async def scenario():
        async with ServerEngine(make_kb(), ServerConfig(max_batch=1)) as engine:
            writes = [
                engine.handle(
                    req(id=i, op="tell", view="penguin", rules=f"penguin_of(q{i}).")
                )
                for i in range(5)
            ]
            replies = await asyncio.gather(*writes)
            assert sorted(r["version"] for r in replies) == [1, 2, 3, 4, 5]

    run(scenario())


def test_snapshot_isolation_reader_at_old_version():
    async def scenario():
        async with ServerEngine(make_kb()) as engine:
            old = engine.snapshot
            await engine.handle(
                req(id="w", op="tell", view="penguin", rules="penguin_of(opus).")
            )
            assert engine.snapshot is not old
            # The old snapshot's program still means what it meant.
            stale = OrderedSemantics(old.program, "penguin").least_model
            from repro.kb.query import answers_in

            assert not answers_in(stale, "penguin_of(X)")
            fresh = engine.snapshot.models.get("penguin") or engine.kb.view(
                "penguin"
            ).least_model
            assert answers_in(fresh, "penguin_of(X)")

    run(scenario())


def test_hot_view_refreshed_at_publish():
    async def scenario():
        async with ServerEngine(make_kb()) as engine:
            await engine.handle(
                req(id=1, op="query", view="penguin", pattern="bird_of(X)")
            )
            assert "penguin" in engine.snapshot.models
            await engine.handle(
                req(id=2, op="tell", view="penguin", rules="penguin_of(opus).")
            )
            # Eagerly re-materialized: the read is a pure lookup.
            assert "penguin" in engine.snapshot.models
            reply = await engine.handle(
                req(id=3, op="query", view="penguin", pattern="penguin_of(X)")
            )
            assert reply["result"]["count"] == 1

    run(scenario())


def test_unaffected_view_model_shared_across_versions():
    async def scenario():
        kb = KnowledgeBase()
        kb.define("left", "a(1).")
        kb.define("right", "b(2).")
        async with ServerEngine(kb) as engine:
            await engine.handle(req(id=1, op="query", view="left", pattern="a(X)"))
            left_model = engine.snapshot.models["left"]
            await engine.handle(req(id=2, op="tell", view="right", rules="b(3)."))
            # 'left' cannot see 'right': its materialized model is the
            # very same object in the next snapshot (structural sharing).
            assert engine.snapshot.models["left"] is left_model

    run(scenario())


def test_overload_shedding():
    async def scenario():
        config = ServerConfig(max_queue=2)
        async with ServerEngine(make_kb(), config) as engine:
            writes = [
                engine.handle(
                    req(id=i, op="tell", view="penguin", rules=f"penguin_of(r{i}).")
                )
                for i in range(6)
            ]
            replies = await asyncio.gather(*writes)
            shed = [r for r in replies if not r["ok"]]
            accepted = [r for r in replies if r["ok"]]
            assert len(accepted) == 2
            assert len(shed) == 4
            assert {r["error"]["code"] for r in shed} == {protocol.OVERLOADED}
            assert engine.stats()["errors"][protocol.OVERLOADED] == 4

    run(scenario())


def test_deadline_sheds_queued_write_and_stale_read():
    async def scenario():
        async with ServerEngine(make_kb()) as engine:
            expired_write = await engine.handle(
                req(id=1, op="tell", view="penguin", rules="penguin_of(x).",
                    deadline_ms=0)
            )
            assert expired_write["error"]["code"] == protocol.TIMEOUT
            expired_read = await engine.handle(
                req(id=2, op="ask", view="bird", pattern="fly(tweety)",
                    deadline_ms=0)
            )
            assert expired_read["error"]["code"] == protocol.TIMEOUT
            # The expired write was never applied.
            assert engine.version == 0

    run(scenario())


def test_skeptical_mode_served():
    async def scenario():
        async with ServerEngine(make_kb()) as engine:
            reply = await engine.handle(
                req(id=1, op="query", view="bird", pattern="fly(X)",
                    mode="skeptical")
            )
            assert reply["ok"]
            assert [a["literal"] for a in reply["result"]["answers"]] == [
                "fly(tweety)"
            ]

    run(scenario())


def test_graceful_drain_applies_queued_writes_then_rejects():
    async def scenario():
        engine = await started(ServerConfig(max_batch=4))
        writes = [
            engine.handle(
                req(id=i, op="tell", view="penguin", rules=f"penguin_of(s{i}).")
            )
            for i in range(3)
        ]
        gathered = asyncio.gather(*writes)
        await asyncio.sleep(0)  # let every write reach the queue
        await engine.aclose()
        replies = await gathered
        assert all(r["ok"] for r in replies)
        assert engine.version >= 1
        late = await engine.handle(
            req(id="late", op="tell", view="penguin", rules="penguin_of(z).")
        )
        assert late["error"]["code"] == protocol.SHUTTING_DOWN
        late_read = await engine.handle(
            req(id="lr", op="ask", view="bird", pattern="fly(tweety)")
        )
        assert late_read["error"]["code"] == protocol.SHUTTING_DOWN
        # stats/health still answer after shutdown.
        health = await engine.handle(req(id="h", op="health"))
        assert health["ok"] and health["result"]["status"] == "draining"

    run(scenario())


def test_shutdown_request_sets_event():
    async def scenario():
        async with ServerEngine(make_kb()) as engine:
            assert not engine.shutdown_requested.is_set()
            reply = await engine.handle(req(id=1, op="shutdown"))
            assert reply["ok"] and reply["result"]["draining"] is True
            assert engine.shutdown_requested.is_set()

    run(scenario())


def test_stats_and_obs_threading():
    async def scenario():
        with instrumented() as obs:
            async with ServerEngine(make_kb()) as engine:
                await engine.handle(
                    req(id=1, op="query", view="bird", pattern="fly(X)")
                )
                await engine.handle(
                    req(id=2, op="tell", view="penguin", rules="penguin_of(o).")
                )
                stats = engine.stats()
                assert stats["requests"] == {"query": 1, "tell": 1}
                assert stats["writes"]["batches"] == 1
                assert stats["writes"]["ops"] == 1
                assert stats["latency"]["read"]["count"] == 1
                assert stats["latency"]["write"]["count"] == 1
                text = engine.exposition()
            snapshot = obs.snapshot()
        # Serving facts are recorded once, in the always-on instruments
        # (``stats`` and the exposition read them); the registry keeps
        # only what has no always-on twin, such as the batch sizes.
        assert sum(stats["requests"].values()) == 2
        assert 'repro_server_requests_total{op="query"} 1' in text
        assert 'repro_server_requests_total{op="tell"} 1' in text
        assert "repro_server_batches_total 1" in text
        assert snapshot["histograms"]["server.batch_size"]["count"] == 1
        assert "repro_server_read_latency_seconds_count 1" in text
        assert stats["snapshot_age_s"] >= 0
        assert "repro_server_snapshot_age_seconds " in text
        assert stats["version"] == 1
        assert "repro_server_version 1" in text

    run(scenario())


def test_error_inside_batch_does_not_poison_rest():
    async def scenario():
        async with ServerEngine(make_kb(), ServerConfig(max_batch=8)) as engine:
            writes = [
                engine.handle(
                    req(id="good1", op="tell", view="penguin",
                        rules="penguin_of(a).")
                ),
                engine.handle(
                    req(id="bad", op="retract", view="penguin",
                        rules="penguin_of(never).")
                ),
                engine.handle(
                    req(id="good2", op="tell", view="penguin",
                        rules="penguin_of(b).")
                ),
            ]
            replies = await asyncio.gather(*writes)
            by_id = {r["id"]: r for r in replies}
            assert by_id["good1"]["ok"] and by_id["good2"]["ok"]
            assert by_id["bad"]["error"]["code"] == protocol.SEMANTICS
            ask = await engine.handle(
                req(id="r", op="query", view="penguin", pattern="penguin_of(X)")
            )
            assert ask["result"]["count"] == 2

    run(scenario())


def test_unhandled_failure_inside_batch_is_that_requests_alone(tmp_path, monkeypatch):
    """A write that dies of something other than a ``ReproError`` is
    answered ``internal``; the writes coalesced around it are applied,
    journalled and published — the KB never runs ahead of the log."""
    wal = Wal(str(tmp_path), fsync="never", checkpoint_every=None)
    kb, _ = wal.recover()
    kb_tell = kb.tell

    def tell(view, rules):
        if "poison" in rules:
            raise ValueError("boom")
        return kb_tell(view, rules)

    monkeypatch.setattr(kb, "tell", tell)

    async def scenario():
        config = ServerConfig(max_batch=8)
        async with ServerEngine(kb, config, wal=wal) as engine:
            await engine.handle(req(id="d", op="define", view="v", rules="q(1)."))
            replies = await asyncio.gather(
                *(
                    engine.handle(req(id=rules, op="tell", view="v", rules=rules))
                    for rules in ("q(2).", "poison(0).", "q(3).")
                )
            )
            by_id = {r["id"]: r for r in replies}
            assert by_id["q(2)."]["ok"] and by_id["q(3)."]["ok"]
            assert by_id["q(2)."]["version"] == by_id["q(3)."]["version"] == 2
            error = by_id["poison(0)."]["error"]
            assert error["code"] == protocol.INTERNAL and "boom" in error["message"]
            assert engine.version == 2
            ask = await engine.handle(req(id="r", op="query", view="v", pattern="q(X)"))
            assert ask["version"] == 2 and ask["result"]["count"] == 3

    run(scenario())
    records, _ = read_journal(str(tmp_path))
    assert [(r.version, [o["rules"] for o in r.ops]) for r in records] == [
        (1, ["q(1)."]),
        (2, ["q(2).", "q(3)."]),
    ]
    again = Wal(str(tmp_path), fsync="never")
    recovered, version = again.recover()
    again.close()
    assert version == 2
    assert kb_signature(recovered) == kb_signature(kb)


class FailingWal:
    """A journal whose every append fails, as on a full disk."""

    def append(self, version, ops):
        raise OSError("no space left on device")

    def close(self):
        pass


def test_a_write_the_journal_refused_never_reaches_readers():
    """The WAL append fails after the KB has taken the batch: the write
    is refused, and a later read of a view nobody had warmed answers
    from the published version, not from the refused write."""
    kb = KnowledgeBase()
    kb.define("b", "y(1).")

    async def scenario():
        async with ServerEngine(kb, wal=FailingWal()) as engine:
            told = await engine.handle(req(id=1, op="tell", view="b", rules="y(2)."))
            assert not told["ok"] and told["error"]["code"] == protocol.INTERNAL
            reply = await engine.handle(
                req(id=2, op="query", view="b", pattern="y(X)")
            )
            assert reply["ok"] and reply["version"] == 0
            assert [a["literal"] for a in reply["result"]["answers"]] == ["y(1)"]
            assert engine.kb.program() is engine.snapshot.program

    run(scenario())


@pytest.mark.parametrize(
    "fields",
    [
        dict(op="query", pattern="p(²)"),
        dict(op="ask", pattern="p(²)"),
        dict(op="tell", rules="p(²)."),
    ],
    ids=lambda fields: fields["op"],
)
def test_a_digit_the_language_lacks_is_a_semantics_error(fields):
    async def scenario():
        async with ServerEngine(make_kb()) as engine:
            reply = await engine.handle(req(id=1, view="bird", **fields))
            assert reply["error"]["code"] == protocol.SEMANTICS
            assert "unexpected character '²'" in reply["error"]["message"]
            assert engine.version == 0

    run(scenario())


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter reads integers of any length",
)
@pytest.mark.parametrize("op", ["query", "ask", "tell"])
def test_an_integer_past_the_digit_limit_is_a_semantics_error(op):
    """4,400 digits fit in a frame; ``int()`` refuses them.  That is the
    request's error, not an unhandled failure."""
    digits = "9" * (sys.get_int_max_str_digits() + 100)
    fields = dict(rules=f"p({digits}).") if op == "tell" else dict(pattern=f"p({digits})")

    async def scenario():
        async with ServerEngine(make_kb()) as engine:
            reply = await engine.handle(req(id=1, op=op, view="bird", **fields))
            assert reply["error"]["code"] == protocol.SEMANTICS
            limit = sys.get_int_max_str_digits()
            assert f"integer literal longer than {limit} digits" in reply["error"]["message"]
            assert engine.version == 0

    run(scenario())


def test_every_published_version_stays_what_it_was_when_published():
    """A version is a copy of the engine's membership flags read through
    indexes every version shares.  Keep every version a 200-write trace
    publishes — on the leader and on a follower fed by ``apply_entry`` —
    and only then hold each against naive ``V`` on that version's own
    program: a version that aliased live state, or read a shared index
    without its own flags, has drifted by then."""
    import random

    from repro.core.semantics import OrderedSemantics
    from repro.kb.query import answers_in
    from repro.server import FollowerEngine

    depth, entities, n_writes = 3, 5, 200
    views = [f"level{i}" for i in range(depth)]
    goals = ["member(X)", "-member(X)", "flagged(X)", "-flagged(X)", "ok(X)", "ok(e1)"]
    rng = random.Random(0x91E)

    # (role, version, program, {view: model}); kept out here because
    # asyncio.run reprs a task's result, which would decode every model.
    kept = []

    async def scenario():
        leader = await started(kb=build_session_kb(depth, entities))
        follower = await FollowerEngine(build_session_kb(depth, entities)).start()
        stream = leader.add_subscriber()
        told = []
        for engine in (leader, follower):
            for i, view in enumerate(views):
                await engine.handle(req(id=i, op="query", view=view, pattern="member(X)"))
        for i in range(n_writes):
            if told and rng.random() < 0.45:
                op, (view, rules) = "retract", told.pop(rng.randrange(len(told)))
            else:
                level = rng.randrange(depth)
                kind = rng.choice(["enrolled", "sus"])
                view = f"level{level}"
                rules = f"{kind}_{level}(e{rng.randrange(entities)})."
                op = "tell"
                told.append((view, rules))
            reply = await leader.handle(req(id=i, op=op, view=view, rules=rules))
            assert reply["ok"], reply
            entry = stream.queue.get_nowait()
            assert follower.apply_entry(entry["version"], entry["ops"])
            for role, engine in (("leader", leader), ("follower", follower)):
                snap = engine.snapshot
                assert snap.version == i + 1 and set(snap.models) == set(views)
                if i % 3 == 0:  # some versions serve an open goal while current
                    answers_in(snap.models[rng.choice(views)], "member(X)")
                kept.append((role, snap.version, snap.program, dict(snap.models)))
        await leader.aclose()
        await follower.aclose()

    run(scenario())
    assert len(kept) == 2 * n_writes
    oracle = {}

    def naive(version, program, view):
        if (version, view) not in oracle:
            oracle[version, view] = OrderedSemantics(
                program, view, strategy="naive"
            ).least_model
        return oracle[version, view]

    # First in id space (nothing has decoded any version yet) ...
    for role, version, program, models in kept:
        for view, model in models.items():
            want = naive(version, program, view)
            where = f"{role} v{version} {view}"
            for pattern in goals:
                got = [str(a.literal) for a in answers_in(model, pattern)]
                assert got == [str(a.literal) for a in answers_in(want, pattern)], (
                    f"{where}: {pattern}"
                )
            assert len(model) == len(want), where
            assert model._literals is None, where
    # ... then member for member.
    for role, version, program, models in kept:
        for view, model in models.items():
            assert model == naive(version, program, view), f"{role} v{version} {view}"


@pytest.mark.parametrize("entities,literals", [(32, 448), (512, 7168)])
def test_publishing_builds_no_literal_whatever_the_size_of_the_model(
    monkeypatch, entities, literals
):
    """Counts, not clocks: a hundred writes with ground reads between
    them decode no model (``AtomTable.flagged_literals`` is the only way
    from flags to objects) at 32 or at 512 entities, and each write
    evaluates ``update_facts`` once however many hot views see the
    written object."""
    from repro.grounding.grounder import AtomTable
    from repro.lang.program import OrderedProgram

    depth, n_writes = 6, 100
    calls = {"decode": 0, "update_facts": 0}

    def spy(cls, name, key):
        real = getattr(cls, name)

        def counted(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(cls, name, counted)

    async def scenario():
        kb = KnowledgeBase.from_program(session_program(depth, entities))
        async with ServerEngine(kb) as engine:
            for level in range(depth):
                warm = await engine.handle(
                    req(id=level, op="query", view=f"level{level}", pattern="known(X)")
                )
                assert warm["ok"]
            assert len(engine.snapshot.models["level0"]) == literals
            spy(AtomTable, "flagged_literals", "decode")
            spy(OrderedProgram, "update_facts", "update_facts")
            for i in range(n_writes):
                level, entity = i % depth, (7 * i) % entities
                fact = f"enrolled_{level}(e{entity})."
                told = await engine.handle(
                    req(id=i, op="tell", view=f"level{level}", rules=fact)
                )
                assert told["ok"] and told["version"] == i + 1
                for view in ("level0", f"level{level}"):
                    ask = await engine.handle(
                        req(id=i, op="ask", view=view, pattern=f"member(e{entity})")
                    )
                    assert ask["result"]["holds"] is True
                    gone = await engine.handle(
                        req(id=i, op="query", view=view, pattern=f"-member(e{entity})")
                    )
                    assert gone["result"]["count"] == 0
            assert all(m._literals is None for m in engine.snapshot.models.values())

    run(scenario())
    assert calls == {"decode": 0, "update_facts": n_writes}


def test_the_serve_path_grounds_each_view_once_for_its_seed():
    """A warm session deployment serves a seeded query/ask/tell/retract
    mix without grounding anything but the one seed grounding each
    view's first write performs: a maintained view keeps its model, and
    nothing on the serve path reads the grounding a cold view would
    recompute."""
    import random

    depth, entities, n_requests = 8, 64, 240
    views = ["root"] + [f"level{i}" for i in range(depth)]
    rng = random.Random(0x5EED)

    async def scenario():
        kb = KnowledgeBase.from_program(session_program(depth, entities))
        async with ServerEngine(kb) as engine:
            for i, view in enumerate(views):
                warm = await engine.handle(req(id=i, op="query", view=view, pattern="ok(X)"))
                assert warm["ok"]
            told = []
            with instrumented() as obs:
                for i in range(n_requests):
                    roll = rng.random()
                    entity = f"e{rng.randrange(entities)}"
                    if roll < 0.3:
                        level = rng.randrange(depth)
                        kind = rng.choice(["enrolled", "sus"])
                        view, rules = f"level{level}", f"{kind}_{level}({entity})."
                        told.append((view, rules))
                        request = req(id=i, op="tell", view=view, rules=rules)
                    elif roll < 0.45 and told:
                        view, rules = told.pop(rng.randrange(len(told)))
                        request = req(id=i, op="retract", view=view, rules=rules)
                    else:
                        op = rng.choice(["query", "ask"])
                        pattern = rng.choice(["member(X)", "-flagged(X)", f"ok({entity})"])
                        request = req(id=i, op=op, view=rng.choice(views), pattern=pattern)
                    reply = await engine.handle(request)
                    assert reply["ok"], reply
                spans = obs.snapshot()["spans"]
            grounds = sum(
                stats["count"]
                for path, stats in spans.items()
                if path == "ground" or path.endswith(".ground")
            )
            maintained = [v for v in views if engine.kb.view(v)._maintained is not None]
            return grounds, maintained

    grounds, maintained = run(scenario())
    assert maintained == views[1:]  # no write reaches the root's view
    assert grounds == len(maintained)



def test_a_view_too_large_to_seed_stays_pinned_through_its_writes():
    """A view whose full instantiation exceeds the instance cap never
    seeds a delta engine: each tell re-grounds it cold at publish, in
    milliseconds, and the next snapshot still pins its model."""
    from repro.grounding.grounder import GroundingOptions

    async def scenario():
        kb = KnowledgeBase.from_program(
            chain_program(40), grounding=GroundingOptions(instance_cap=300_000)
        )
        async with ServerEngine(kb) as engine:
            warm = await engine.handle(req(id=0, op="query", view="main", pattern="p(X)"))
            assert warm["result"]["count"] == 37
            for i, fact in enumerate(["q(k5, k7).", "q(k9, k12).", "q(k20, k30)."], 1):
                start = time.perf_counter()
                told = await engine.handle(req(id=i, op="tell", view="main", rules=fact))
                assert told["ok"] and time.perf_counter() - start < 0.5
                assert "main" in engine.snapshot.models
            read = await engine.handle(req(id=9, op="query", view="main", pattern="p(X)"))
            cold = OrderedSemantics(engine.kb.program(), "main").least_model
            assert read["result"]["count"] == len(answers_in(cold, "p(X)"))

    run(scenario())


def test_a_read_looks_at_the_same_candidates_whatever_the_size_of_the_model():
    """Counts, not clocks: a ground goal is one membership probe and an
    open goal walks only its own relation, so neither looks at more of
    the model at 512 entities (7,168 literals) than at 32 (448)."""

    async def candidates(entities):
        kb = KnowledgeBase.from_program(session_program(6, entities))
        looked = {}
        async with ServerEngine(kb) as engine:
            # No entity is enrolled: every -member(e<j>) holds and
            # member is an empty relation.
            for pattern, count in (("-member(e7)", 1), ("member(X)", 0)):
                pinned = await engine.handle(req(id=0, op="query", view="level0", pattern=pattern))
                assert pinned["result"]["count"] == count
                reply = await engine.handle(
                    req(id=1, op="query", view="level0", pattern=pattern, trace=True)
                )
                looked[pattern] = reply["result"]["trace"]["costs"]["read_candidates"]
        return looked

    assert run(candidates(32)) == run(candidates(512)) == {"-member(e7)": 1, "member(X)": 0}


def span_names(tree: dict):
    yield tree["name"]
    for child in tree.get("children", ()):
        yield from span_names(child)


def test_reads_during_a_write_stream_ground_and_evaluate_nothing():
    """Snapshot isolation in counts: while a client streams writes,
    every read answers from a published snapshot.  Its trace holds no
    grounding and no fixpoint, and its digest only the read's own
    costs."""
    depth, entities, n_reads = 4, 8, 50

    async def scenario():
        async with ServerEngine(build_session_kb(depth, entities)) as engine:
            await engine.handle(req(id="warm", op="ask", view="level0", pattern="known(X)"))
            writing = True

            async def stream_writes():
                i = 0
                while writing:
                    level = i % depth
                    rules = f"enrolled_{level}(e{i % entities})."
                    told = await engine.handle(req(id=i, op="tell", view=f"level{level}", rules=rules))
                    assert told["ok"]
                    i += 1

            writer = asyncio.ensure_future(stream_writes())
            versions = set()
            for i in range(n_reads):
                await asyncio.sleep(0)  # let the writer interleave
                # ``known(e0)`` is a root fact: it holds at every version.
                reply = await engine.handle(
                    req(id=f"r{i}", op="ask", view="level0", pattern="known(e0)", trace=True)
                )
                assert reply["result"]["holds"] is True
                trace = reply["result"]["trace"]
                names = set(span_names(trace["spans"]))
                assert not names & {"ground", "fixpoint"}, names
                assert set(trace["costs"]) <= {"read_candidates", "read_answers"}
                versions.add(reply["version"])
            writing = False
            await writer
            return versions

    assert len(run(scenario())) > 1  # the reads saw the writer move


def test_a_durable_batch_costs_one_append_one_fsync_and_one_repair(tmp_path):
    """Coalescing in counts: concurrent tells publish ⌈ops / max_batch⌉
    versions, and each version is one journal append, one fsync and one
    repair of the hot view, however many tells it holds."""
    depth, entities, n_ops, max_batch = 4, 8, 64, 16
    config = ServerConfig(max_queue=n_ops + 8, max_batch=max_batch)

    async def scenario():
        wal = Wal(str(tmp_path), fsync="always")
        async with ServerEngine(build_session_kb(depth, entities), config, wal=wal) as engine:
            # level0 sees every level: each tell reaches this hot view.
            await engine.handle(req(id="warm", op="ask", view="level0", pattern="known(X)"))
            with instrumented() as obs:
                replies = await asyncio.gather(
                    *(
                        engine.handle(
                            req(
                                id=i,
                                op="tell",
                                view=f"level{i % depth}",
                                rules=f"enrolled_{i % depth}(e{i % entities}).",
                            )
                        )
                        for i in range(n_ops)
                    )
                )
                repairs = obs.snapshot()["spans"]["kb.view.repair"]["count"]
            assert all(reply["ok"] for reply in replies)
            return engine.stats(), repairs

    stats, repairs = run(scenario())
    # Every request is queued before the writer wakes: full batches.
    versions = n_ops // max_batch
    assert stats["version"] == stats["writes"]["batches"] == versions
    assert stats["wal"]["fsyncs"] == stats["wal"]["appends"] == versions
    assert repairs == versions
