"""Sharded serving: routing, the embedded router, worker processes, and
the scatter-gather executor.

Layers covered, bottom up:

* :func:`repro.shard.routing.shard_of` stability and the derivable
  global<->local :class:`ShardMap` (append, route, recovery);
* :class:`ShardRouter` edge cases: empty shards, all-documents-one-shard
  skew, remove-then-readd id stability, reshard to fewer/more shards
  preserving every differential-oracle answer, crash-stale manifests;
* the frame protocol (roundtrip, truncation, error rehydration);
* the worker's frame server in process: heartbeats answered while a
  query runs, a fresh guard per ``query`` frame, a failed frame leaving
  the connection serving;
* :class:`ShardedExecutor` end-to-end over real worker processes:
  answers equal the embedded router's, per-shard failures are captured
  per outcome (not fatal);
* the cross-shard differential-oracle hammer: K client threads fan
  verified queries over every worker process; every answer must equal
  the single-directory reference and every shard must check and scrub
  clean after.

The worker-process tests spawn real interpreters; the small
configurations run in tier-1 and the full hammer sweep is ``slow``.
"""

from __future__ import annotations

import json
import socket
import threading
from contextlib import contextmanager
from zlib import crc32

import pytest

from repro.doc.model import XmlNode
from repro.errors import (
    IndexStateError,
    QueryBudgetExceededError,
    ShardError,
    ShardQueryError,
)
from repro.sequence.transform import SequenceEncoder
from repro.shard import (
    MANIFEST_FILE,
    ShardMap,
    ShardRouter,
    ShardedExecutor,
    is_sharded,
    reshard_db,
    shard_of,
)
from repro.shard.protocol import (
    FrameError,
    recv_frame,
    rehydrate_error,
    send_frame,
)
from repro.testing.generator import DocQueryGenerator
from repro.testing.invariants import assert_invariants
from repro.testing.reference import reference_results

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _doc(i: int, label: str = "a") -> XmlNode:
    root = XmlNode("r")
    root.element(label, text=f"v{i}")
    return root


def _all_to_shard(target: int):
    """A hash override that routes every document to one shard."""
    return lambda payload: target


# ---------------------------------------------------------------------------
# routing units


class TestShardOf:
    def test_stable_across_calls_and_orderings(self):
        first = [shard_of(g, 5) for g in range(200)]
        again = [shard_of(g, 5) for g in range(200)]
        assert first == again

    def test_matches_documented_rule(self):
        # the on-disk contract: crc32 of the 8-byte little-endian id
        for g in (0, 1, 7, 12345, 2**40):
            assert shard_of(g, 7) == crc32(g.to_bytes(8, "little")) % 7

    def test_spread_is_not_degenerate(self):
        counts = [0] * 4
        for g in range(400):
            counts[shard_of(g, 4)] += 1
        assert min(counts) > 0  # every shard gets something at this scale

    def test_single_shard_takes_all(self):
        assert {shard_of(g, 1) for g in range(50)} == {0}


class TestShardMap:
    def test_append_route_globals_roundtrip(self):
        m = ShardMap(3)
        placed = [m.append_next() for _ in range(30)]
        for g, s, local in placed:
            assert m.route(g) == (s, local)
            assert m.global_of(s, local) == g
        assert sum(m.shard_counts()) == 30

    def test_locals_are_dense_per_shard(self):
        m = ShardMap(4)
        for _ in range(40):
            m.append_next()
        for s in range(4):
            globals_ = m.globals_of(s)
            assert [m.route(g)[1] for g in globals_] == list(range(len(globals_)))

    @pytest.mark.parametrize("nshards", [1, 2, 3])
    @pytest.mark.parametrize("skew", [False, True])
    def test_route_inverts_global_of(self, nshards, skew):
        # route() is the routing rule plus a bisect into the shard's ids:
        # it inverts global_of for every id ever assigned, however the
        # ids spread (skew: every id but each seventh lands on shard 0)
        hash_fn = (lambda g: 0 if g % 7 else g) if skew else None
        m = ShardMap(nshards, next_doc_id=50, hash_fn=hash_fn)
        m.recover([count + 5 * (nshards == 1) for count in m.shard_counts()])
        assert m.next_doc_id == (55 if nshards == 1 else 50)
        for s in range(nshards):
            for local, g in enumerate(m.globals_of(s)):
                assert m.global_of(s, local) == g
                assert m.route(g) == (s, local)
        assert sorted(g for s in range(nshards) for g in m.globals_of(s)) == list(
            range(m.next_doc_id)
        )
        for never in (-1, m.next_doc_id, m.next_doc_id + 1, 10**30):
            with pytest.raises(IndexStateError, match="never assigned"):
                m.route(never)

    def test_recover_replays_unaccounted_ids(self):
        for nshards in (3, 1):  # one shard recovers without the hash
            live = ShardMap(nshards)
            for _ in range(20):
                live.append_next()
            bounds = list(live.shard_counts())
            stale = ShardMap(nshards, next_doc_id=12)  # manifest lagged the stores
            assert stale.recover(bounds) == 8
            assert stale.next_doc_id == 20
            assert list(stale.shard_counts()) == bounds
            assert [stale.route(g) for g in range(20)] == [live.route(g) for g in range(20)]

    def test_recover_rejects_unexplainable_drift(self):
        m = ShardMap(3, next_doc_id=10)
        bounds = list(m.shard_counts())
        bounds[0] -= 1  # a shard holding fewer slots than routed to it
        with pytest.raises(IndexStateError):
            ShardMap(3, next_doc_id=10).recover(bounds)


# ---------------------------------------------------------------------------
# embedded router


class TestShardRouter:
    def test_add_query_remove_roundtrip(self, tmp_path):
        with ShardRouter(tmp_path / "db", 3) as router:
            ids = [router.add(_doc(i)) for i in range(10)]
            assert ids == list(range(10))
            assert sorted(router.query("//a")) == ids
            router.remove(4)
            assert sorted(router.query("//a")) == [g for g in ids if g != 4]
            assert len(router) == 9

    def test_reopen_preserves_everything(self, tmp_path):
        with ShardRouter(tmp_path / "db", 3) as router:
            for i in range(8):
                router.add(_doc(i))
            router.remove(2)
        with ShardRouter(tmp_path / "db") as router:
            assert router.nshards == 3
            assert sorted(router.query("//a")) == [0, 1, 3, 4, 5, 6, 7]
            assert router.add(_doc(99)) == 8  # ids continue, never reused

    def test_empty_shard_is_fine(self, tmp_path):
        # more shards than documents: some shards never see a record but
        # queries, stats, and invariants must all work
        with ShardRouter(tmp_path / "db", 6) as router:
            ids = [router.add(_doc(i)) for i in range(3)]
            counts = router.map.shard_counts()
            assert 0 in counts
            assert sorted(router.query("//a")) == ids
            for shard in router.shards:
                assert_invariants(shard)
        with ShardRouter(tmp_path / "db") as router:
            assert sorted(router.query("//a")) == ids

    def test_all_docs_one_shard_skew(self, tmp_path):
        hash_fn = _all_to_shard(2)
        with ShardRouter(tmp_path / "db", 4, hash_fn=hash_fn) as router:
            ids = [router.add(_doc(i)) for i in range(12)]
            assert router.map.shard_counts() == [0, 0, 12, 0]
            assert sorted(router.query("//a")) == ids
            router.remove(5)
        with ShardRouter(tmp_path / "db", hash_fn=hash_fn) as router:
            assert sorted(router.query("//a")) == [g for g in ids if g != 5]

    def test_remove_then_readd_routing_stability(self, tmp_path):
        with ShardRouter(tmp_path / "db", 3) as router:
            ids = [router.add(_doc(i)) for i in range(9)]
            routes_before = {g: router.map.route(g) for g in ids}
            router.remove(3)
            router.remove(7)
            new_ids = [router.add(_doc(100 + i)) for i in range(2)]
            # fresh ids, never a reuse of the tombstoned ones
            assert new_ids == [9, 10]
            # and the surviving documents still route exactly as before
            for g in ids:
                assert router.map.route(g) == routes_before[g]
            expected = sorted(set(ids) - {3, 7}) + new_ids
            assert sorted(router.query("//a")) == expected
        with ShardRouter(tmp_path / "db") as router:
            assert sorted(router.query("//a")) == expected

    def test_query_nodes_maps_to_global_ids(self, tmp_path):
        with ShardRouter(tmp_path / "db", 3) as router:
            ids = [router.add(_doc(i)) for i in range(6)]
            nodes = router.query_nodes("//a")
            assert sorted(nodes) == ids
            assert all(positions for positions in nodes.values())

    def test_stale_manifest_is_recovered_on_open(self, tmp_path):
        dbdir = tmp_path / "db"
        with ShardRouter(dbdir, 3) as router:
            for i in range(10):
                router.add(_doc(i))
        # simulate the crash window: stores persisted, manifest lagging
        manifest = json.loads((dbdir / MANIFEST_FILE).read_text())
        manifest["next_doc_id"] = 4
        (dbdir / MANIFEST_FILE).write_text(json.dumps(manifest))
        with ShardRouter(dbdir) as router:
            assert router.map.next_doc_id == 10
            assert sorted(router.query("//a")) == list(range(10))
        # and the recovery was persisted
        assert json.loads((dbdir / MANIFEST_FILE).read_text())["next_doc_id"] == 10

    def test_read_only_session_leaves_the_manifest_alone(self, tmp_path):
        """Every map change wrote the manifest when it was made, so a
        session that only reads (then flushes and closes) writes none."""
        dbdir = tmp_path / "db"
        with ShardRouter(dbdir, 3) as router:
            router.add_all([_doc(i) for i in range(6)])
        before = (dbdir / MANIFEST_FILE).stat()
        with ShardRouter(dbdir) as router:
            assert sorted(router.query("//a")) == list(range(6))
            router.flush()
        after = (dbdir / MANIFEST_FILE).stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_manifest_waits_for_the_commit_of_an_uncommitted_batch(self, tmp_path):
        """``durability="none"`` commits no shard, so the manifest waits for
        the flush: a crash before it leaves a lagging manifest, which the
        next open recovers, never one ahead of the stores, which no open
        can explain."""
        dbdir = tmp_path / "db"

        def manifest_next():
            return json.loads((dbdir / MANIFEST_FILE).read_text())["next_doc_id"]

        with ShardRouter(dbdir, 2) as router:
            router.add_batch([_doc(i) for i in range(4)])
            assert manifest_next() == 4
            router.add_batch([_doc(i) for i in range(4, 8)], durability="none")
            assert manifest_next() == 4
            router.flush()
            assert manifest_next() == 8

    def test_nshards_mismatch_is_loud(self, tmp_path):
        with ShardRouter(tmp_path / "db", 3) as router:
            router.add(_doc(0))
        with pytest.raises(IndexStateError, match="reshard"):
            ShardRouter(tmp_path / "db", 5)

    def test_metrics_nest_per_shard(self, tmp_path):
        with ShardRouter(tmp_path / "db", 3) as router:
            for i in range(6):
                router.add(_doc(i))
            snapshot = router.metrics.snapshot()
            assert set(snapshot["shard"]) == {"0", "1", "2"}
            routing = snapshot["routing"]
            assert routing["nshards"] == 3
            assert sum(routing["routed"]) == 6


class _Oracle:
    """Seeded corpus + queries + single-process reference answers."""

    def __init__(self, seed: int, docs: int, queries: int) -> None:
        generator = DocQueryGenerator(seed)
        self.corpus = generator.corpus(docs, 12)
        self.queries = [generator.query(self.corpus) for _ in range(queries)]
        hasher = SequenceEncoder().hasher
        self.expected = [
            reference_results(self.corpus, query, hasher)
            for query in self.queries
        ]


class TestReshard:
    @pytest.mark.parametrize("new_nshards", [1, 2, 5])
    def test_reshard_preserves_oracle_answers(self, tmp_path, new_nshards):
        oracle = _Oracle(seed=7, docs=10, queries=8)
        dbdir = tmp_path / "db"
        with ShardRouter(dbdir, 3) as router:
            ids = router.add_all(oracle.corpus)
            router.remove(ids[4])  # a tombstone must survive the move
            before = [
                sorted(router.query(q, verify=True)) for q in oracle.queries
            ]
        report = reshard_db(dbdir, new_nshards)
        assert report["old_nshards"] == 3
        assert report["new_nshards"] == new_nshards
        assert report["documents"] == len(oracle.corpus) - 1
        assert report["tombstones"] == 1
        with ShardRouter(dbdir) as router:
            assert router.nshards == new_nshards
            after = [
                sorted(router.query(q, verify=True)) for q in oracle.queries
            ]
            assert after == before
            # global ids still advance from where the old layout stopped
            assert router.add(_doc(0)) == len(oracle.corpus)
            for shard in router.shards:
                assert_invariants(shard)

    def test_reshard_answers_match_reference(self, tmp_path):
        oracle = _Oracle(seed=13, docs=8, queries=6)
        dbdir = tmp_path / "db"
        with ShardRouter(dbdir, 2) as router:
            router.add_all(oracle.corpus)
        reshard_db(dbdir, 4)
        with ShardRouter(dbdir) as router:
            for query, want in zip(oracle.queries, oracle.expected):
                assert sorted(router.query(query, verify=True)) == want

    def test_reshard_leaves_no_scaffolding(self, tmp_path):
        dbdir = tmp_path / "db"
        with ShardRouter(dbdir, 2) as router:
            router.add_all([_doc(i) for i in range(6)])
        reshard_db(dbdir, 3)
        leftovers = {p.name for p in dbdir.iterdir()}
        assert "reshard.tmp" not in leftovers
        assert "reshard.old" not in leftovers
        assert is_sharded(dbdir)


# ---------------------------------------------------------------------------
# frame protocol


class _FakeSock:
    """Just enough socket for send_frame/recv_frame."""

    def __init__(self) -> None:
        self.buffer = b""
        self.pos = 0

    def sendall(self, data: bytes) -> None:
        self.buffer += data

    def recv(self, n: int) -> bytes:
        chunk = self.buffer[self.pos : self.pos + n]
        self.pos += len(chunk)
        return chunk


class TestProtocol:
    def test_roundtrip(self):
        sock = _FakeSock()
        send_frame(sock, {"op": "query", "xpath": "//a", "id": 7})
        send_frame(sock, "bare string")
        assert recv_frame(sock) == {"op": "query", "xpath": "//a", "id": 7}
        assert recv_frame(sock) == "bare string"
        assert recv_frame(sock) is None  # clean EOF

    def test_mid_frame_eof_is_an_error(self):
        sock = _FakeSock()
        send_frame(sock, {"op": "ping"})
        sock.buffer = sock.buffer[:-2]  # lose the tail of the payload
        with pytest.raises(FrameError):
            recv_frame(sock)

    def test_oversized_frame_rejected(self):
        sock = _FakeSock()
        sock.buffer = (64 * 1024 * 1024 + 1).to_bytes(4, "big")
        with pytest.raises(FrameError):
            recv_frame(sock)

    def test_rehydrate_known_error_class(self):
        exc = rehydrate_error({
            "error": "query exceeded its matcher-step budget (9 > 1)",
            "error_type": "QueryBudgetExceededError",
        })
        assert isinstance(exc, QueryBudgetExceededError)
        assert "matcher-step budget" in str(exc)

    def test_rehydrate_unknown_class_degrades_to_shard_error(self):
        exc = rehydrate_error({"error": "boom", "error_type": "WeirdError"})
        assert isinstance(exc, ShardError)
        assert "WeirdError" in str(exc)

    def test_rehydrate_never_builds_non_errors(self):
        # a hostile/buggy worker naming a non-exception type must not
        # make the client instantiate it
        exc = rehydrate_error({"error": "x", "error_type": "ShardMap"})
        assert isinstance(exc, ShardError)

    def test_frame_errors_are_protocol_errors(self):
        # the typed taxonomy: framing damage is ProtocolError (exit code
        # 7), never a raw ValueError/JSONDecodeError
        from repro.errors import ProtocolError, ReproError

        assert issubclass(FrameError, ProtocolError)
        assert issubclass(ProtocolError, ReproError)
        sock = _FakeSock()
        sock.buffer = (64 * 1024 * 1024 + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            recv_frame(sock)

    def test_undecodable_payload_is_typed(self):
        sock = _FakeSock()
        bad = b"\xff\xfe not json"
        sock.buffer = len(bad).to_bytes(4, "big") + bad
        with pytest.raises(FrameError, match="undecodable"):
            recv_frame(sock)

    def test_send_frame_unserialisable_payload_is_typed(self):
        sock = _FakeSock()
        circular: dict = {}
        circular["self"] = circular
        with pytest.raises(FrameError, match="JSON"):
            send_frame(sock, circular)
        # ...and nothing was half-written to the wire
        assert sock.buffer == b""

    def test_rehydrate_non_dict_response_degrades(self):
        for junk in (None, "boom", 7, ["err"]):
            exc = rehydrate_error(junk)
            assert isinstance(exc, ShardError)

    def test_rehydrate_missing_fields_degrades(self):
        exc = rehydrate_error({})
        assert isinstance(exc, ShardError)
        assert "unknown worker error" in str(exc)


# ---------------------------------------------------------------------------
# the worker's frame server, in process over a socketpair


def _tiny_index():
    from repro.doc.parser import parse_document
    from repro.index.vist import VistIndex

    index = VistIndex()
    for i in range(4):
        index.add(
            parse_document(
                f"<site><item><location>US</location>"
                f"<name>v{i}</name></item></site>"
            )
        )
    return index


class _BlockingIndex:
    """A stub index whose queries wait until ``release`` is set."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def query(self, xpath, *, verify=False, guard=None):
        self.entered.set()
        assert self.release.wait(10)
        return [0]


@contextmanager
def _serving(index):
    """A worker ``_ShardServer`` on one end of a socketpair; yields the
    other end, then hangs up and closes the server."""
    from repro.shard.worker import _ShardServer

    server = _ShardServer(index)
    ours, theirs = socket.socketpair()
    reader = threading.Thread(target=server.handle_connection, args=(theirs,))
    reader.start()
    try:
        ours.settimeout(10)
        yield ours
    finally:
        ours.close()
        reader.join(10)
        server.close()
    assert not reader.is_alive()


class TestShardServer:
    def test_ping_answers_while_a_query_runs(self):
        """Heartbeats stay on the connection thread: a ping sent behind
        a blocked query is answered first, and the query still answers."""
        index = _BlockingIndex()
        with _serving(index) as sock:
            send_frame(sock, {"id": 1, "op": "query", "xpath": "//a"})
            assert index.entered.wait(10)
            send_frame(sock, {"id": 2, "op": "ping"})
            sock.settimeout(1.0)
            try:
                assert recv_frame(sock) == {"id": 2, "ok": True}
                assert not index.release.is_set()  # the query is still blocked
            finally:
                index.release.set()
            sock.settimeout(10)
            reply = recv_frame(sock)
        assert reply["id"] == 1 and reply["ok"] and reply["result"] == [0]

    def test_exhausted_guard_fails_only_its_frame(self):
        index = _tiny_index()
        want = sorted(index.query("/site//item"))
        with _serving(index) as sock:
            send_frame(sock, {
                "id": 1, "op": "query", "xpath": "/site//item",
                "guard": {"max_steps": 1},
            })
            send_frame(sock, {"id": 2, "op": "query", "xpath": "/site//item"})
            first, second = recv_frame(sock), recv_frame(sock)
        assert first["id"] == 1 and not first["ok"]
        assert first["error_type"] == "QueryBudgetExceededError"
        assert second["id"] == 2 and second["ok"]
        assert sorted(second["result"]) == want

    def test_each_frame_gets_its_own_guard(self, monkeypatch):
        import repro.shard.worker as worker
        from repro.index.guard import QueryGuard

        built: list[QueryGuard] = []

        class RecordingGuard(QueryGuard):
            def __init__(self, **kwargs) -> None:
                super().__init__(**kwargs)
                built.append(self)

        monkeypatch.setattr(worker, "QueryGuard", RecordingGuard)
        with _serving(_tiny_index()) as sock:
            for i in range(3):
                send_frame(sock, {
                    "id": i, "op": "query", "xpath": "/site//item",
                    "guard": {"max_steps": 10_000},
                })
            replies = [recv_frame(sock) for _ in range(3)]
        assert [reply["ok"] for reply in replies] == [True] * 3
        assert len(built) == 3
        assert len({id(guard) for guard in built}) == 3


# ---------------------------------------------------------------------------
# worker processes + scatter-gather executor


@pytest.fixture
def sharded_db(tmp_path):
    dbdir = tmp_path / "db"
    with ShardRouter(dbdir, 3) as router:
        ids = [router.add(_doc(i)) for i in range(9)]
    return dbdir, ids


class TestShardedExecutor:
    def test_answers_match_embedded_router(self, sharded_db):
        dbdir, ids = sharded_db
        with ShardedExecutor(dbdir) as executor:
            outcome = executor.submit("//a").result(30)
        assert outcome.ok
        assert outcome.result == ids

    def test_batch_preserves_submission_order(self, sharded_db):
        dbdir, ids = sharded_db
        with ShardedExecutor(dbdir) as executor:
            outcomes = executor.run(["//a"] * 8)
        assert [o.position for o in outcomes] == list(range(8))
        assert all(o.result == ids for o in outcomes)

    def test_workers_mismatch_is_loud(self, sharded_db):
        dbdir, _ = sharded_db
        with pytest.raises(ShardError, match="reshard"):
            ShardedExecutor(dbdir, workers=5)

    def test_guard_errors_are_captured_not_fatal(self, sharded_db):
        dbdir, ids = sharded_db
        with ShardedExecutor(dbdir, guard_spec={"max_steps": 1}) as executor:
            outcome = executor.submit("//a").result(30)
            assert not outcome.ok
            assert isinstance(outcome.error, ShardQueryError)
            assert all(
                isinstance(cause, QueryBudgetExceededError)
                for cause in outcome.error.shard_errors.values()
            )
            # the executor survives: an unguarded submission still answers
            ok = executor.submit("//a", verify=True).result(30)
            assert ok.error is not None  # guard_spec applies executor-wide
        with ShardedExecutor(dbdir) as executor:
            assert executor.submit("//a").result(30).result == ids

    def test_answered_rpcs_release_their_deadline_timers(self, sharded_db):
        """An rpc deadline sits on the supervisor heap for the whole
        timeout (60 s); once the rpc is answered it must hold nothing —
        not its closures, future and decoded reply, request after request."""
        dbdir, ids = sharded_db
        with ShardedExecutor(dbdir) as executor:
            for _ in range(25):
                assert executor.submit("//a").result(30).result == ids
            with executor._supervisor._cond:
                entries = [entry for _when, _seq, entry in executor._supervisor._heap]
            assert len(entries) >= 25 * 3  # one deadline per shard rpc
            live = [entry for entry in entries if entry[0] is not None]
            assert len(live) <= 1  # the heartbeat tick, when enabled

    def test_stats_carry_per_shard_snapshots(self, sharded_db):
        dbdir, ids = sharded_db
        with ShardedExecutor(dbdir) as executor:
            executor.submit("//a").result(30)
            stats = executor.stats()
        assert set(stats["shard"]) == {"0", "1", "2"}
        assert stats["routing"]["next_doc_id"] == len(ids)
        assert all(isinstance(s, dict) for s in stats["shard"].values())

    def test_closed_executor_refuses_submissions(self, sharded_db):
        dbdir, _ = sharded_db
        executor = ShardedExecutor(dbdir)
        executor.close()
        with pytest.raises(ShardError):
            executor.submit("//a")


# ---------------------------------------------------------------------------
# the cross-shard differential-oracle hammer


def _run_cross_shard_hammer(
    tmp_path, *, seed, docs, nshards, client_threads, submissions
):
    """K client threads of verified scatter-gather vs the reference."""
    from repro.repair import scrub_db
    from repro.testing.invariants import check_index

    oracle = _Oracle(seed, docs, 10)
    dbdir = tmp_path / "db"
    with ShardRouter(dbdir, nshards) as router:
        router.add_all(oracle.corpus)

    workload = [
        oracle.queries[i % len(oracle.queries)] for i in range(submissions)
    ]
    outcomes: dict[int, object] = {}
    outcomes_lock = threading.Lock()
    errors: list[BaseException] = []

    with ShardedExecutor(dbdir, verify=True) as executor:

        def client(offset: int) -> None:
            try:
                for pos in range(offset, len(workload), client_threads):
                    outcome = executor.submit(
                        workload[pos].to_xpath(), position=pos
                    ).result(60)
                    with outcomes_lock:
                        outcomes[pos] = outcome
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(k,))
            for k in range(client_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive(), "hammer thread hung"
        assert not errors, f"hammer thread failed: {errors[0]!r}"

        assert len(outcomes) == len(workload)
        for pos, outcome in sorted(outcomes.items()):
            assert outcome.ok, (
                f"query #{pos} {workload[pos].to_xpath()!r} "
                f"raised: {outcome.error!r}"
            )
            got = outcome.result
            want = oracle.expected[pos % len(oracle.queries)]
            assert got == want, (
                f"query #{pos} {workload[pos].to_xpath()!r}: "
                f"scatter-gather={got} reference={want}"
            )

    # afterwards: `repro check`/`scrub` semantics hold on every shard
    with ShardRouter(dbdir) as router:
        for k, shard in enumerate(router.shards):
            for report in check_index(shard):
                assert report.ok, f"shard {k}: {report.summary()}"
    report = scrub_db(dbdir)
    assert report.ok, report.summary()


def test_cross_shard_hammer_first_config(tmp_path):
    """Tier-1 hammer: 3 shards, 3 client threads."""
    _run_cross_shard_hammer(
        tmp_path,
        seed=21,
        docs=8,
        nshards=3,
        client_threads=3,
        submissions=24,
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "seed,nshards,client_threads,submissions",
    [
        (22, 2, 4, 60),
        (23, 4, 4, 60),
        (24, 5, 8, 90),
    ],
)
def test_cross_shard_hammer_sweep(tmp_path, seed, nshards, client_threads, submissions):
    _run_cross_shard_hammer(
        tmp_path,
        seed=seed,
        docs=12,
        nshards=nshards,
        client_threads=client_threads,
        submissions=submissions,
    )
