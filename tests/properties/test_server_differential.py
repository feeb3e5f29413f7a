"""Differential gate for the query server (docs/server.md).

Randomized concurrent client traces run against a live
:class:`~repro.server.engine.ServerEngine`; the engine records every
published snapshot with the batch that produced it.  A serialized
oracle then replays exactly those batches, one request at a time, on a
plain single-threaded :class:`KnowledgeBase`, and we assert:

* **Snapshot bit-identity** — at every version, every view's least
  model (materialized from the published snapshot's immutable program,
  or already pinned by the serving path) serializes to exactly the
  oracle's model dict.
* **Read answers** — every query/ask reply the concurrent clients saw
  is reproduced by the oracle at the version stamped on the reply.
* **Write attribution** — every successful write reply's version names
  a recorded batch containing that request id.

``SERVER_TRACES`` scales the number of randomized traces (CI runs 200,
the nightly soak more; the local default keeps the suite quick).
"""

import asyncio
import os
import random

from repro.core.semantics import OrderedSemantics
from repro.kb.query import answers_in
from repro.serialize import interpretation_to_dict
from repro.server import ServerConfig, ServerEngine
from repro.workloads.clients import build_server_kb, client_traces, replay_traces

from ..conftest import record_history

TRACES = int(os.environ.get("SERVER_TRACES", "25"))
#: Upper bounds of the per-seed randomized scale; the nightly soak
#: raises both to stress bigger batches and longer interleavings.
MAX_CLIENTS = int(os.environ.get("SERVER_CLIENTS", "5"))
MAX_OPS = int(os.environ.get("SERVER_OPS", "25"))
DEPTH = 4
ENTITIES = 6


def oracle_read(kb, payload):
    """Mirror the engine's cautious read path on a plain KB."""
    answers = answers_in(kb.view(payload["view"]).least_model, payload["pattern"])
    if payload["op"] == "ask":
        return {"holds": bool(answers)}
    return {
        "answers": [
            {
                "literal": str(a.literal),
                "bindings": {str(v): str(t) for v, t in a.bindings.items()},
            }
            for a in answers
        ],
        "count": len(answers),
        "mode": "cautious",
    }


def apply_request(kb, request):
    if request.op == "tell":
        kb.tell(request.view, request.rules)
    elif request.op == "retract":
        kb.retract(request.view, request.rules)
    else:
        kb.define(request.view, request.rules, isa=request.isa)


def run_trace(seed: int) -> None:
    rng = random.Random(seed)
    n_clients = rng.randint(2, MAX_CLIENTS)
    ops = rng.randint(10, MAX_OPS)
    max_batch = rng.choice([1, 4, 16, 64])
    traces = client_traces(
        depth=DEPTH,
        n_entities=ENTITIES,
        n_clients=n_clients,
        ops_per_client=ops,
        seed=seed,
    )
    config = ServerConfig(max_batch=max_batch)

    async def scenario():
        engine = record_history(ServerEngine(build_server_kb(DEPTH, ENTITIES), config))
        async with engine:
            results = await replay_traces(
                engine, traces, seed=seed, yield_probability=rng.random()
            )
        return engine, results

    engine, results = asyncio.run(scenario())

    # Serialized oracle replay of the recorded batches.
    oracle = build_server_kb(DEPTH, ENTITIES)
    views = [f"level{i}" for i in range(DEPTH)] + ["root"]

    # Reads grouped by the snapshot version their reply was served at.
    reads_at: dict[int, list[tuple[dict, dict]]] = {}
    applied_ids: dict[int, set] = {}
    for pairs in results:
        for payload, response in pairs:
            if payload["op"] in ("query", "ask") and response["ok"]:
                reads_at.setdefault(response["version"], []).append(
                    (payload, response)
                )
            elif payload["op"] not in ("query", "ask") and response["ok"]:
                applied_ids.setdefault(response["version"], set()).add(
                    payload["id"]
                )

    for snapshot, batch in engine.history:
        version = snapshot.version
        for request in batch:
            apply_request(oracle, request)
        # Write attribution: every ok write stamped with this version is
        # in this batch, and everything in the batch got an ok reply.
        batch_ids = {request.id for request in batch}
        assert applied_ids.get(version, set()) == batch_ids, (
            f"seed {seed}: version {version} applied ids diverge"
        )
        # Snapshot bit-identity against the serialized oracle.
        assert snapshot.program == oracle.program(), (
            f"seed {seed}: program diverges at version {version}"
        )
        for view in views:
            model = snapshot.models.get(view)
            if model is None:
                model = OrderedSemantics(snapshot.program, view).least_model
            served = interpretation_to_dict(model)
            serial = interpretation_to_dict(oracle.view(view).least_model)
            assert served == serial, (
                f"seed {seed}: view {view} diverges at version {version}"
            )
        # Every read served at this version is bit-identical too.
        for payload, response in reads_at.get(version, []):
            assert response["result"] == oracle_read(oracle, payload), (
                f"seed {seed}: read {payload['id']} diverges at {version}"
            )

    # Every version with an ok write or read reply must exist in history.
    recorded = {snapshot.version for snapshot, _ in engine.history}
    assert set(applied_ids) <= recorded
    assert set(reads_at) <= recorded


def test_concurrent_traces_match_serialized_oracle():
    for seed in range(TRACES):
        run_trace(seed)


def test_single_trace_is_deterministic():
    """Same seed, same interleaving, same history — the replay harness
    itself must be reproducible or the differential gate is noise."""

    def history_signature(seed):
        traces = client_traces(
            depth=DEPTH, n_entities=ENTITIES, n_clients=3, ops_per_client=12,
            seed=seed,
        )

        async def scenario():
            engine = record_history(
                ServerEngine(build_server_kb(DEPTH, ENTITIES), ServerConfig(max_batch=8))
            )
            async with engine:
                await replay_traces(engine, traces, seed=seed)
            return [
                (snapshot.version, [request.id for request in batch])
                for snapshot, batch in engine.history
            ]

        return asyncio.run(scenario())

    assert history_signature(7) == history_signature(7)
