#!/usr/bin/env python
"""End-to-end smoke of ``olp serve``: spawn the server, drive a
scripted NDJSON session over TCP, request shutdown, verify the drain.

Usage (from the repo root; the CI smoke job runs exactly this):

    PYTHONPATH=src python scripts/server_smoke_client.py

Spawns ``python -m repro.cli serve --port 0 --metrics-port 0
--slow-ms 0`` as a subprocess, parses the listening and metrics
banners for the bound ports, then checks every serving path a
deployment depends on: health, define, query, coalesced concurrent
tells, a traced write that decomposes into queue-wait / coalesce /
apply / publish, snapshot versioning, a semantics rejection, stats,
the Prometheus ``/metrics`` + ``/healthz`` sidecar, the ``olp top``
and ``olp slow`` clients against the live server, and a clean
``shutdown`` drain (subprocess must exit 0 and print its "drained and
stopped" line).  Exits non-zero on the first surprise.

A second phase smokes the replication topology from
``docs/replication.md``: a leader with ``--wal`` journals writes and
is drained, a restarted leader recovers the journaled version from
disk (booted with ``-v``, so the event registry is on: its
``/metrics`` must still carry each series once), a ``--follow``
follower catches up over ``subscribe`` from that cold journal and then
tracks a live write, its ``/metrics`` sidecar exposes
``repro_replica_lag_versions``, an ``olp serve --fleet`` front end
routes one write to the leader and one read to the follower, and the
fleet, the leader (with the follower still subscribed) and the follower
each drain cleanly while an idle client connection is open to it.

A third phase smokes goal-directed answering (``docs/query.md``): a
server booted with ``--edb`` over a disk-backed forest answers a
traced ``strategy="demand"`` point query whose span tree shows demand
grounding (``query.demand``) and *no* materialization
(``semantics.least_model`` / ``ground``), an unforced ground ``ask``
takes the same route, and a ``tell`` through the delta pipeline is
visible to the next demand read.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import time
import urllib.request

HOST = "127.0.0.1"
BANNER = re.compile(r"olp serve: listening on ([\d.]+):(\d+)")
METRICS_BANNER = re.compile(r"olp serve: metrics on ([\d.]+):(\d+)")
RECOVERED_BANNER = re.compile(r"olp serve: recovered version (\d+) from")
FLEET_BANNER = re.compile(r"olp serve: fleet listening on ([\d.]+):(\d+)")


def fail(message: str):
    print(f"smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


class Session:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=10)
        self.file = self.sock.makefile("rwb")

    def call(self, **payload) -> dict:
        self.file.write(json.dumps(payload).encode() + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            fail(f"connection closed answering {payload!r}")
        return json.loads(line)

    def expect_ok(self, **payload) -> dict:
        reply = self.call(**payload)
        if not reply.get("ok"):
            fail(f"{payload!r} -> {reply!r}")
        return reply

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def main() -> int:
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--metrics-port", "0", "--slow-ms", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        assert server.stdout is not None
        port = None
        metrics_port = None
        deadline = time.monotonic() + 15
        while (port is None or metrics_port is None) and time.monotonic() < deadline:
            line = server.stdout.readline()
            if not line:
                fail("server exited before printing its banners")
            if match := BANNER.search(line):
                port = int(match.group(2))
            elif match := METRICS_BANNER.search(line):
                metrics_port = int(match.group(2))
        if port is None or metrics_port is None:
            fail("missing listening or metrics banner")
        print(f"smoke: server up on port {port}, metrics on {metrics_port}")

        session = Session(port)
        health = session.expect_ok(id=1, op="health")
        if health["result"]["status"] != "ok":
            fail(f"unhealthy at startup: {health!r}")

        session.expect_ok(
            id=2, op="define", view="bird",
            rules="fly(X) :- bird_of(X).\nbird_of(tweety).",
        )
        session.expect_ok(
            id=3, op="define", view="penguin",
            rules="-fly(X) :- penguin_of(X).\nbird_of(X) :- penguin_of(X).",
            isa=["bird"],
        )
        reply = session.expect_ok(
            id=4, op="query", view="bird", pattern="fly(X)"
        )
        if [a["literal"] for a in reply["result"]["answers"]] != ["fly(tweety)"]:
            fail(f"unexpected answers: {reply!r}")

        # A second connection writes concurrently with the first.
        other = Session(port)
        for i in range(10):
            session.expect_ok(
                id=f"a{i}", op="tell", view="penguin",
                rules=f"penguin_of(p{i}).",
            )
            other.expect_ok(
                id=f"b{i}", op="tell", view="bird", rules=f"bird_of(b{i})."
            )
        count = session.expect_ok(
            id=5, op="query", view="penguin", pattern="-fly(X)"
        )
        if count["result"]["count"] != 10:
            fail(f"expected 10 grounded penguins: {count!r}")

        # A traced write decomposes into the pipeline phases.
        traced = session.expect_ok(
            id="t1", op="tell", view="bird", rules="bird_of(watched).",
            trace=True,
        )
        trace = traced["result"].get("trace")
        if trace is None:
            fail(f"traced tell returned no trace: {traced!r}")
        phases = [s["name"] for s in trace["spans"].get("children", [])]
        if phases != ["queue.wait", "coalesce", "apply", "publish"]:
            fail(f"unexpected write decomposition: {phases!r}")
        print(
            "smoke: traced write id={id} phases={phases}".format(
                id=trace["trace_id"], phases=",".join(phases)
            )
        )

        rejected = session.call(
            id=6, op="retract", view="penguin", rules="penguin_of(ghost)."
        )
        if rejected.get("ok") or rejected["error"]["code"] != "semantics":
            fail(f"bogus retract not rejected: {rejected!r}")

        stats = session.expect_ok(id=7, op="stats")["result"]
        if stats["version"] < 3 or stats["writes"]["ops"] != 23:
            fail(f"surprising stats: {stats!r}")
        print(
            "smoke: version={version} batches={batches} mean_batch={mean:.2f}".format(
                version=stats["version"],
                batches=stats["writes"]["batches"],
                mean=stats["writes"]["mean_batch"],
            )
        )
        if stats["slow"]["total"] < 1:
            fail(f"slow log (threshold 0ms) recorded nothing: {stats['slow']!r}")

        # The Prometheus sidecar answers plain HTTP GETs.
        with urllib.request.urlopen(
            f"http://{HOST}:{metrics_port}/metrics", timeout=10
        ) as response:
            exposition = response.read().decode()
            if response.status != 200:
                fail(f"/metrics returned {response.status}")
            if not response.headers["Content-Type"].startswith("text/plain"):
                fail(f"bad /metrics content type: {response.headers['Content-Type']}")
        for needle in (
            'repro_server_requests_total{op="tell"}',
            "repro_server_read_latency_seconds_bucket",
            "repro_server_queue_wait_ms_count",
            "repro_server_snapshot_age_seconds",
        ):
            if needle not in exposition:
                fail(f"/metrics missing {needle!r}")
        with urllib.request.urlopen(
            f"http://{HOST}:{metrics_port}/healthz", timeout=10
        ) as response:
            if response.read().decode() != "ok\n":
                fail("/healthz did not answer ok")
        print(f"smoke: /metrics serves {len(exposition.splitlines())} lines, /healthz ok")

        # The live-view CLI clients run against the same server.
        top = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "top",
                f"{HOST}:{port}", "-n", "1", "--no-clear",
            ],
            capture_output=True, text=True, timeout=30, env=env,
        )
        if top.returncode != 0 or "read  p50" not in top.stdout:
            fail(f"olp top failed: {top.returncode} {top.stdout!r} {top.stderr!r}")
        slow = subprocess.run(
            [sys.executable, "-m", "repro.cli", "slow", f"{HOST}:{port}"],
            capture_output=True, text=True, timeout=30, env=env,
        )
        if slow.returncode != 0 or "slow-query log" not in slow.stdout:
            fail(f"olp slow failed: {slow.returncode} {slow.stdout!r} {slow.stderr!r}")
        if "cost:" not in slow.stdout:
            fail(f"olp slow entries carry no cost digest: {slow.stdout!r}")
        print("smoke: olp top + olp slow ok against live server")

        other.close()
        bye = session.expect_ok(id=8, op="shutdown")
        if bye["result"]["draining"] is not True:
            fail(f"shutdown not acknowledged: {bye!r}")
        session.close()

        try:
            code = server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            fail("server did not exit after shutdown")
        tail = server.stdout.read()
        if code != 0:
            fail(f"server exited {code}: {tail!r}")
        if "drained and stopped" not in tail:
            fail(f"no drain banner in {tail!r}")
        print(f"smoke: clean exit — {tail.strip().splitlines()[-1]}")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def spawn_serve(env: dict, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def read_banners(server: subprocess.Popen, *patterns: re.Pattern) -> list:
    """Read stdout lines until every pattern has matched once; returns
    the match objects in pattern order."""
    found: dict[re.Pattern, re.Match] = {}
    deadline = time.monotonic() + 20
    assert server.stdout is not None
    while len(found) < len(patterns) and time.monotonic() < deadline:
        line = server.stdout.readline()
        if not line:
            fail("server exited before printing its banners")
        for pattern in patterns:
            if pattern not in found and (match := pattern.search(line)):
                found[pattern] = match
    missing = [p.pattern for p in patterns if p not in found]
    if missing:
        fail(f"missing banners: {missing}")
    return [found[p] for p in patterns]


def scrape(port: int) -> str:
    with urllib.request.urlopen(f"http://{HOST}:{port}/metrics", timeout=10) as response:
        return response.read().decode()


def duplicate_series(exposition: str) -> list[str]:
    """Samples whose (name, labels) appear more than once."""
    seen: set[str] = set()
    duplicates = []
    for line in exposition.splitlines():
        if line and not line.startswith("#"):
            series = line.rsplit(" ", 1)[0]
            if series in seen:
                duplicates.append(series)
            seen.add(series)
    return duplicates


def drain(
    server: subprocess.Popen,
    session: Session,
    banner: str,
    idle: Session | None = None,
) -> None:
    """Request shutdown, then verify exit 0 and the drain banner.  An
    ``idle`` connection, open and silent throughout, must not keep the
    server from exiting."""
    bye = session.expect_ok(id="drain", op="shutdown")
    if bye["result"]["draining"] is not True:
        fail(f"shutdown not acknowledged: {bye!r}")
    session.close()
    try:
        code = server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        fail("server did not exit after shutdown")
    assert server.stdout is not None
    tail = server.stdout.read()
    if code != 0:
        fail(f"server exited {code}: {tail!r}")
    if banner not in tail:
        fail(f"no {banner!r} banner in {tail!r}")
    if idle is not None:
        idle.close()


def replication_smoke() -> None:
    """Leader with a WAL -> drain -> recover -> follower catch-up from
    the cold journal -> live tracking -> lag metric -> clean drains."""
    import shutil
    import tempfile

    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    wal_dir = tempfile.mkdtemp(prefix="olp-smoke-wal-")
    leader = follower = fleet = None
    try:
        # First incarnation: journal a few versions, then drain.
        leader = spawn_serve(env, "--wal", wal_dir)
        recovered, banner = read_banners(leader, RECOVERED_BANNER, BANNER)
        if recovered.group(1) != "0":
            fail(f"fresh WAL dir recovered version {recovered.group(1)}")
        session = Session(int(banner.group(2)))
        session.expect_ok(
            id=1, op="define", view="bird",
            rules="fly(X) :- bird_of(X).\nbird_of(tweety).",
        )
        session.expect_ok(
            id=2, op="define", view="penguin",
            rules="-fly(X) :- penguin_of(X).\nbird_of(X) :- penguin_of(X).",
            isa=["bird"],
        )
        for i in range(5):
            session.expect_ok(
                id=f"w{i}", op="tell", view="penguin",
                rules=f"penguin_of(p{i}).",
            )
        journaled = session.expect_ok(id=3, op="stats")["result"]["version"]
        drain(leader, session, "drained and stopped")
        print(f"smoke: leader journaled version {journaled} and drained")

        # Second incarnation recovers the journal (with the event
        # registry on); a follower catches up from it over subscribe
        # (nothing is in leader memory yet).
        leader = spawn_serve(env, "-v", "--metrics-port", "0", "--wal", wal_dir)
        recovered, banner, leader_metrics = read_banners(
            leader, RECOVERED_BANNER, BANNER, METRICS_BANNER
        )
        if int(recovered.group(1)) != journaled:
            fail(f"recovered {recovered.group(1)}, journaled {journaled}")
        leader_port = int(banner.group(2))
        follower = spawn_serve(
            env, "--metrics-port", "0",
            "--follow", f"{HOST}:{leader_port}",
        )
        banner, metrics = read_banners(follower, BANNER, METRICS_BANNER)
        follower_session = Session(int(banner.group(2)))
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            stats = follower_session.expect_ok(id="s", op="stats")["result"]
            if stats["version"] >= journaled:
                break
            time.sleep(0.05)
        else:
            fail(f"follower stuck at {stats['version']}, want {journaled}")
        print(f"smoke: follower caught up to version {stats['version']} from cold journal")

        # A live write flows through; the follower rejects writes.
        leader_session = Session(leader_port)
        leader_session.expect_ok(
            id=4, op="tell", view="penguin", rules="penguin_of(live)."
        )
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            reply = follower_session.expect_ok(
                id="q", op="ask", view="penguin", pattern="-fly(live)"
            )
            if reply["result"]["holds"]:
                break
            time.sleep(0.05)
        else:
            fail("live write never reached the follower")
        rejected = follower_session.call(
            id="x", op="tell", view="penguin", rules="penguin_of(nope)."
        )
        if rejected.get("ok") or rejected["error"]["code"] != "not_leader":
            fail(f"follower accepted a write: {rejected!r}")

        exposition = scrape(int(metrics.group(2)))
        for needle in (
            "repro_replica_lag_versions",
            "repro_replica_entries_total",
        ):
            if needle not in exposition:
                fail(f"follower /metrics missing {needle!r}")
        print("smoke: follower /metrics exposes replication lag")

        # Each serving fact is recorded once, registry on or off.
        leader_exposition = scrape(int(leader_metrics.group(2)))
        for name, text in (("leader", leader_exposition), ("follower", exposition)):
            if duplicates := duplicate_series(text):
                fail(f"{name} /metrics repeats series {duplicates!r}")
        print(
            f"smoke: leader -v /metrics serves {len(leader_exposition.splitlines())} "
            "lines, no series repeated"
        )

        # The fleet front end: writes to the leader, reads to the follower.
        follower_port = int(banner.group(2))
        fleet = spawn_serve(
            env, "--fleet", "--leader", f"{HOST}:{leader_port}",
            "--follower", f"{HOST}:{follower_port}",
        )
        (fleet_banner,) = read_banners(fleet, FLEET_BANNER)
        fleet_port = int(fleet_banner.group(2))
        fleet_session = Session(fleet_port)
        fleet_session.expect_ok(
            id="fw", op="tell", view="penguin", rules="penguin_of(routed)."
        )
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            reply = fleet_session.expect_ok(
                id="fr", op="ask", view="penguin", pattern="-fly(routed)"
            )
            if reply["result"]["holds"]:
                break
            time.sleep(0.05)
        else:
            fail("a write routed through the fleet never became readable")
        print("smoke: fleet routed a write to the leader and a read to the follower")

        # Drains with an idle connection (one answered request, then
        # silence) open to each process; the leader drains while the
        # follower is still subscribed to it.
        idle = {}
        for port in (fleet_port, leader_port, follower_port):
            idle[port] = Session(port)
            idle[port].expect_ok(id="idle", op="health")
        drain(fleet, fleet_session, "fleet drained after", idle[fleet_port])
        fleet = None
        drain(leader, leader_session, "drained and stopped", idle[leader_port])
        leader = None
        drain(
            follower, follower_session, "follower drained and stopped",
            idle[follower_port],
        )
        follower = None
        print("smoke: fleet, leader and follower drained cleanly")
    finally:
        for proc in (leader, follower, fleet):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(wal_dir, ignore_errors=True)


def span_names(node: dict) -> list[str]:
    names = [node["name"]]
    for child in node.get("children", []):
        names.extend(span_names(child))
    return names


def demand_smoke() -> None:
    """``olp serve --edb`` -> traced demand point query -> spans show
    demand grounding, not materialization -> a write through the delta
    pipeline reaches the next demand read."""
    import shutil
    import tempfile

    sys.path.insert(0, os.environ.get("PYTHONPATH", "src"))
    from repro.db.edb import EdbStore
    from repro.workloads.point_query import FOREST_RULES, load_forest_edb

    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    work_dir = tempfile.mkdtemp(prefix="olp-smoke-edb-")
    server = None
    try:
        edb_path = os.path.join(work_dir, "forest.edb")
        with EdbStore(edb_path, object_name="main") as store:
            load_forest_edb(store, n_trees=200, depth=4)
            facts = store.total_facts()
        rules_path = os.path.join(work_dir, "forest.olp")
        with open(rules_path, "w") as handle:
            handle.write(FOREST_RULES)

        server = spawn_serve(env, rules_path, "--edb", edb_path)
        (banner,) = read_banners(server, BANNER)
        session = Session(int(banner.group(2)))

        reply = session.expect_ok(
            id=1, op="query", view="main", pattern="ancestor(n17_0, X)",
            strategy="demand", trace=True,
        )
        answers = [a["literal"] for a in reply["result"]["answers"]]
        if len(answers) != 14:  # the 14 proper descendants of root 17
            fail(f"expected the full subtree, got {answers!r}")
        trace = reply["result"].get("trace")
        if trace is None:
            fail(f"traced demand query returned no trace: {reply!r}")
        spans = span_names(trace["spans"])
        if "query.demand" not in spans:
            fail(f"no demand-grounding span in {spans!r}")
        materializers = {"semantics.least_model", "ground"} & set(spans)
        if materializers:
            fail(f"demand read materialized the model: {spans!r}")
        print(
            f"smoke: demand point query over {facts}-fact EDB "
            f"answered {len(answers)} tuples, spans={','.join(spans)}"
        )

        # An unforced cautious ground read over a view with a store
        # attached takes the demand route too (the one ``auto`` rule
        # the library and the wire share), never materializing the store.
        owned = session.expect_ok(
            id=5, op="ask", view="main", pattern="owns(p17, n17_3)", trace=True,
        )
        if not owned["result"]["holds"]:
            fail(f"ownership of a stored node not derived: {owned!r}")
        trace = owned["result"]["trace"]
        route = trace["spans"]["fields"].get("route")
        if route != "demand":
            fail(f"unforced ground ask took route {route!r}: {trace!r}")
        spans = span_names(trace["spans"])
        materializers = {"semantics.least_model", "ground"} & set(spans)
        if materializers:
            fail(f"unforced ground ask materialized the model: {spans!r}")
        print("smoke: unforced ground ask over the EDB answered by demand")

        # Writes keep flowing through the delta pipeline and are
        # unioned with the store on the next demand read.
        session.expect_ok(
            id=2, op="tell", view="main", rules="parent(n17_14, extra)."
        )
        grown = session.expect_ok(
            id=3, op="query", view="main", pattern="ancestor(n17_0, X)",
            strategy="demand",
        )
        if grown["result"]["count"] != 15:
            fail(f"told fact invisible to demand read: {grown!r}")
        held = session.expect_ok(
            id=4, op="ask", view="main", pattern="owns(p17, extra)",
            strategy="demand",
        )
        if not held["result"]["holds"]:
            fail(f"ownership of the told node not derived: {held!r}")
        print("smoke: delta-pipeline write visible to demand reads")

        drain(server, session, "drained and stopped")
        server = None
    finally:
        if server is not None and server.poll() is None:
            server.kill()
            server.wait()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    start = time.monotonic()
    code = main()
    replication_smoke()
    demand_smoke()
    print(f"smoke: ok in {time.monotonic() - start:.2f}s")
    sys.exit(code)
