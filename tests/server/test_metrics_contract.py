"""``/metrics`` and ``stats``: each serving fact recorded once, and the
contract the harness and dashboards read pinned.

The engine's always-on instruments are the record of every serving
fact; the registry (``olp serve -v``) adds only what has no always-on
twin.  A fact recorded in both used to reach the exposition twice — a
duplicate ``repro_server_version`` sample, an unlabelled
``repro_server_requests_total`` beside the ``{op=...}`` series, split
families — so these tests scrape a leader and a follower with the
registry enabled and check the exposition's shape, then pin the
``stats`` key paths and the always-on families to their literal sets.
"""

import asyncio
from collections import Counter

from repro.obs import get_instrumentation, instrumented
from repro.obs.exposition import render_registry
from repro.server import FollowerEngine, ServerEngine, Wal, parse_request

#: Maps keyed by a runtime name (op, error code, view): a key path ends
#: at the map.
_OPEN_MAPS = {"requests", "errors", "views"}

SERVER_STATS = {
    "draining", "errors", "objects", "queue_depth", "requests",
    "snapshot_age_s", "uptime_s", "version", "views", "views_materialized",
    *(
        f"latency.{kind}.{key}"
        for kind in ("read", "write")
        for key in (
            "buckets", "count", "max_s", "mean_s", "p50_s", "p95_s", "p99_s"
        )
    ),
    *(
        f"queue_wait_ms.{key}"
        for key in (
            "buckets", "count", "max", "mean", "min", "p50", "p95", "p99", "sum"
        )
    ),
    "replication.lagged_total", "replication.subscribers",
    "replication.subscribes_total",
    "slow.logged", "slow.max_ms", "slow.threshold_ms", "slow.total",
    "writes.batches", "writes.max_batch", "writes.mean_batch", "writes.ops",
}

WAL_STATS = {
    f"wal.{key}"
    for key in (
        "appends", "bytes", "checkpoint_version", "checkpoints", "directory",
        "fsync", "fsyncs", "recovered_version", "replayed_on_boot",
        "rotations", "truncated_segments",
    )
}

REPLICA_STATS = {
    f"replica.{key}"
    for key in (
        "applied_version", "entries_applied", "lag_versions", "leader",
        "leader_version", "ops_replicated", "reconnects", "resets",
        "snapshots_loaded", "views",
    )
}

#: family -> (type, label names other than ``le``)
SERVER_FAMILIES = {
    "repro_server_batches_total": ("counter", ()),
    "repro_server_draining": ("gauge", ()),
    "repro_server_errors_total": ("counter", ("code",)),
    "repro_server_ops_applied_total": ("counter", ()),
    "repro_server_queue_depth": ("gauge", ()),
    "repro_server_queue_wait_ms": ("histogram", ()),
    "repro_server_read_latency_seconds": ("histogram", ()),
    "repro_server_requests_total": ("counter", ("op",)),
    "repro_server_slow_queries_total": ("counter", ()),
    "repro_server_snapshot_age_seconds": ("gauge", ()),
    "repro_server_subscribers": ("gauge", ()),
    "repro_server_subscribers_lagged_total": ("counter", ()),
    "repro_server_uptime_seconds": ("gauge", ()),
    "repro_server_version": ("gauge", ()),
    "repro_server_view_refresh_seconds": ("histogram", ("view",)),
    "repro_server_write_latency_seconds": ("histogram", ()),
}

WAL_FAMILIES = {
    "repro_wal_appends_total": ("counter", ()),
    "repro_wal_bytes_total": ("counter", ()),
    "repro_wal_checkpoint_version": ("gauge", ()),
    "repro_wal_checkpoints_total": ("counter", ()),
    "repro_wal_fsyncs_total": ("counter", ()),
    "repro_wal_rotations_total": ("counter", ()),
}

REPLICA_FAMILIES = {
    "repro_replica_applied_version": ("gauge", ()),
    "repro_replica_entries_total": ("counter", ()),
    "repro_replica_lag_versions": ("gauge", ()),
    "repro_replica_leader_version": ("gauge", ()),
    "repro_replica_ops_total": ("counter", ()),
    "repro_replica_reconnects_total": ("counter", ()),
    "repro_replica_resets_total": ("counter", ()),
    "repro_replica_snapshots_total": ("counter", ()),
}

#: The registry's only serving-layer family: the batch-size
#: distribution has no always-on twin (``stats`` keeps max and mean).
REGISTRY_SERVING_FAMILIES = {"repro_server_batch_size"}


def run(coro):
    return asyncio.run(coro)


def req(**fields):
    return parse_request(fields)


def key_paths(payload: dict, prefix: str = "") -> set:
    paths = set()
    for key, value in payload.items():
        if isinstance(value, dict) and key not in _OPEN_MAPS:
            paths |= key_paths(value, f"{prefix}{key}.")
        else:
            paths.add(prefix + key)
    return paths


def parse_exposition(text: str):
    """``(families, samples, strays)``: family -> (type, label names),
    every sample's (name, labels) key in order, and the samples that
    appear outside their family's block."""
    families: dict[str, tuple[str, set]] = {}
    samples, strays = [], []
    current = None
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, current, kind = line.split()
            families[current] = (kind, set())
            continue
        if not line or line.startswith("#"):
            continue
        key = line.rsplit(" ", 1)[0]
        samples.append(key)
        name, _, labels = key.partition("{")
        family = next(
            (
                f
                for f in families
                if name in (f, f + "_bucket", f + "_sum", f + "_count")
            ),
            None,
        )
        if family != current:
            strays.append(key)
        if family is not None and labels:
            families[family][1].update(
                part.split("=", 1)[0]
                for part in labels.rstrip("}").split(",")
                if not part.startswith("le=")
            )
    return (
        {f: (kind, tuple(sorted(labels))) for f, (kind, labels) in families.items()},
        samples,
        strays,
    )


def assert_one_sample_per_series(text: str) -> dict:
    families, samples, strays = parse_exposition(text)
    duplicates = sorted(k for k, n in Counter(samples).items() if n > 1)
    assert duplicates == []
    assert strays == []
    return families


def registry_serving_families(obs) -> set:
    families, _, _ = parse_exposition(render_registry(obs))
    return {
        f
        for f in families
        if f.startswith(("repro_server_", "repro_replica_", "repro_wal_"))
    }


async def leader_scrapes(tmp_path):
    """A leader with a WAL (checkpoint every version) after a query, a
    tell and its checkpoint, a failed retract and a subscriber."""
    wal = Wal(str(tmp_path / "wal"), checkpoint_every=1)
    kb, version = wal.recover()
    kb.define("bird", "fly(X) :- bird_of(X).\nbird_of(tweety).")
    async with ServerEngine(kb, wal=wal, initial_version=version) as engine:
        await engine.handle(req(id=1, op="query", view="bird", pattern="fly(X)"))
        await engine.handle(req(id=2, op="tell", view="bird", rules="bird_of(a)."))
        await engine.handle(
            req(id=3, op="retract", view="bird", rules="bird_of(ghost).")
        )
        engine.remove_subscriber(engine.add_subscriber())
        assert engine.wal.checkpoints == 1
        return engine.stats(), engine.exposition()


async def follower_scrapes():
    """A follower after one entry, and again after a second entry, a
    read and a refused write."""
    define = {
        "op": "define", "view": "bird", "rules": "fly(X) :- bird_of(X).",
        "isa": [], "seers": ["bird"],
    }
    tell = {
        "op": "tell", "view": "bird", "rules": "bird_of(a).",
        "isa": [], "seers": ["bird"],
    }
    async with FollowerEngine(leader="127.0.0.1:1") as follower:
        follower.apply_entry(1, [define], leader_version=2)
        after_one = follower.exposition()
        await follower.handle(req(id=1, op="query", view="bird", pattern="fly(X)"))
        follower.apply_entry(2, [tell])
        await follower.handle(
            req(id=2, op="tell", view="bird", rules="bird_of(b).")
        )
        return after_one, follower.stats(), follower.exposition()


def test_registry_enabled_metrics_have_one_sample_per_series(tmp_path):
    with instrumented() as obs:
        _, leader = run(leader_scrapes(tmp_path))
        after_one, _, follower = run(follower_scrapes())
        for text in (leader, after_one, follower):
            assert_one_sample_per_series(text)
        # No serving fact reaches the registry as well: its serving
        # families are the ones with no always-on twin.
        assert registry_serving_families(obs) == REGISTRY_SERVING_FAMILIES
    assert "repro_server_requests_total 2" not in leader
    assert 'repro_server_requests_total{op="tell"} 1' in leader


def test_stats_paths_and_always_on_families_are_pinned(tmp_path):
    # Registry off and empty: the exposition is the always-on part only
    # (a disabled registry still renders what an earlier scope kept).
    get_instrumentation().reset()
    leader_stats, leader = run(leader_scrapes(tmp_path))
    _, follower_stats, follower = run(follower_scrapes())
    assert key_paths(leader_stats) == SERVER_STATS | WAL_STATS
    assert key_paths(follower_stats) == SERVER_STATS | REPLICA_STATS
    assert assert_one_sample_per_series(leader) == {
        **SERVER_FAMILIES, **WAL_FAMILIES
    }
    assert assert_one_sample_per_series(follower) == {
        **SERVER_FAMILIES, **REPLICA_FAMILIES
    }
    # The figures the benchmark harness reads off ``stats``.
    assert leader_stats["writes"]["ops"] == 1
    assert leader_stats["errors"] == {"semantics": 1}
    assert leader_stats["wal"]["appends"] == 1
    assert leader_stats["wal"]["checkpoints"] == 1
    assert follower_stats["replica"]["resets"] == 0
    assert follower_stats["errors"] == {"not_leader": 1}
