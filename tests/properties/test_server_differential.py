"""The serving column of the oracle matrix (``tests/oracle/serving.py``),
leader side (docs/server.md).

Randomized concurrent client traces run against a live
:class:`~repro.server.engine.ServerEngine` that records every published
snapshot with the batch that produced it; the serialized oracle replays
exactly those batches through ``KnowledgeBase.apply_op`` and every
version's program, view models, read replies and write attribution
must match it.  The REPL column types the same traces, serialized, as
REPL lines and checks every reply against the same oracle.
``ORACLE_SCALE`` sets the number of traces and their
upper bounds of clients and ops.
"""

import asyncio

from repro.server import ServerConfig, ServerEngine
from repro.workloads.clients import build_server_kb, client_traces, replay_traces

from ..conftest import record_history
from ..oracle import serving
from ..oracle.scale import size


def test_concurrent_traces_match_serialized_oracle():
    for seed in range(size("server_traces")):
        serving.leader(seed)


def test_repl_replay_matches_serialized_oracle():
    for seed in range(size("server_traces")):
        serving.repl(seed)


def test_single_trace_is_deterministic():
    """Same seed, same interleaving, same history — the replay harness
    itself must be reproducible or the serving column is noise."""
    depth, entities = serving.DEPTH, serving.ENTITIES

    def history_signature(seed):
        traces = client_traces(
            depth=depth, n_entities=entities, n_clients=3, ops_per_client=12,
            seed=seed,
        )

        async def scenario():
            engine = record_history(
                ServerEngine(build_server_kb(depth, entities), ServerConfig(max_batch=8))
            )
            async with engine:
                await replay_traces(engine, traces, seed=seed)
            return [
                (snapshot.version, [request.id for request in batch])
                for snapshot, batch in engine.history
            ]

        return asyncio.run(scenario())

    assert history_signature(7) == history_signature(7)
