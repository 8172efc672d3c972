"""Sharded serving: routing, the embedded router, worker processes, and
the scatter-gather executor.

Layers covered, bottom up:

* :func:`repro.shard.routing.shard_of` stability and the derivable
  global<->local :class:`ShardMap` (append, route, recovery);
* :class:`ShardRouter` edge cases: empty shards, all-documents-one-shard
  skew, remove-then-readd id stability, reshard to fewer/more shards
  preserving every differential-oracle answer, crash-stale manifests;
* the frame protocol (roundtrip, truncation, error rehydration);
* :class:`ShardedExecutor` end-to-end over real worker processes:
  answers equal the embedded router's, per-shard failures are captured
  per outcome (not fatal), routed writes land where the router says;
* the cross-shard differential-oracle hammer: K client threads fan
  verified queries over every worker process while a writer interleaves
  adds/removes through the same executor; every answer must equal the
  single-directory reference and every shard must scrub clean after.

The worker-process tests spawn real interpreters; the small
configurations run in tier-1 and the full hammer sweep is ``slow``.
"""

from __future__ import annotations

import json
import random
import threading
import time
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

    def test_recover_replays_unaccounted_ids(self):
        live = ShardMap(3)
        for _ in range(20):
            live.append_next()
        bounds = list(live.shard_counts())
        stale = ShardMap(3, next_doc_id=12)  # manifest lagged the stores
        assert stale.recover(bounds) == 8
        assert stale.next_doc_id == 20
        assert list(stale.shard_counts()) == bounds

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

    def test_routed_writes_land_and_persist(self, sharded_db):
        dbdir, ids = sharded_db
        with ShardedExecutor(dbdir) as executor:
            new_id = executor.add(_doc(100, label="b"))
            assert new_id == len(ids)
            executor.remove(ids[2])
            outcome = executor.submit("//a").result(30)
            assert outcome.result == [g for g in ids if g != ids[2]]
            assert executor.submit("//b").result(30).result == [new_id]
        # the embedded view agrees after the workers are gone
        with ShardRouter(dbdir) as router:
            assert sorted(router.query("//b")) == [new_id]
            assert sorted(router.query("//a")) == [g for g in ids if g != ids[2]]

    def test_query_between_worker_add_and_map_append(self, sharded_db):
        """add() tells the worker first and the routing map second; a
        query answered in between carries a local id the map cannot
        translate yet.  It must resolve — without the unacknowledged
        document — not die inside the reply callback."""
        from repro.shard.routing import shard_of

        dbdir, ids = sharded_db
        with ShardedExecutor(dbdir) as executor:
            g = executor.map.next_doc_id
            s = shard_of(g, executor.nshards, executor.map.hash_fn)
            expect_local = len(executor.map.globals_of(s))
            executor._write_call(  # the first half of add()
                s,
                {"op": "add", "xml": _doc(g).to_xml(), "expect_local": expect_local},
            )
            outcome = executor.submit("//a").result(30)
            assert outcome.ok and outcome.result == ids
            executor.map.append_next()  # the second half
            assert executor.submit("//a").result(30).result == ids + [g]

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


def _noise_doc(i: int) -> XmlNode:
    # labels disjoint from DocQueryGenerator's alphabet, as in the
    # thread-hammer: wildcard hits are filtered by the seeded projection
    root = XmlNode("z1")
    root.element("z2", text=f"n{i}")
    return root


def _run_cross_shard_hammer(
    tmp_path, *, seed, docs, nshards, client_threads, submissions, writer_ops
):
    """K client threads of verified scatter-gather vs the reference."""
    from repro.repair import scrub_db
    from repro.testing.invariants import check_index

    oracle = _Oracle(seed, docs, 10)
    dbdir = tmp_path / "db"
    with ShardRouter(dbdir, nshards) as router:
        seeded_ids = set(router.add_all(oracle.corpus))

    workload = [
        oracle.queries[i % len(oracle.queries)] for i in range(submissions)
    ]
    outcomes: dict[int, object] = {}
    outcomes_lock = threading.Lock()
    noise_live: list[int] = []
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

        def writer() -> None:
            try:
                rng = random.Random(seed + 1)
                for i in range(writer_ops):
                    noise_live.append(executor.add(_noise_doc(i)))
                    if len(noise_live) > 2 and rng.random() < 0.4:
                        executor.remove(noise_live.pop(0))
                    time.sleep(0.001)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(k,))
            for k in range(client_threads)
        ] + [threading.Thread(target=writer)]
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
            got = sorted(g for g in outcome.result if g in seeded_ids)
            want = oracle.expected[pos % len(oracle.queries)]
            assert got == want, (
                f"query #{pos} {workload[pos].to_xpath()!r}: "
                f"scatter-gather={got} reference={want}"
            )

        # surviving noise documents are really indexed, cross-shard
        live = executor.submit("/z1").result(60)
        assert live.ok and live.result == sorted(noise_live)

    # afterwards: `repro check`/`scrub` semantics hold on every shard
    with ShardRouter(dbdir) as router:
        assert sorted(router.query("/z1")) == sorted(noise_live)
        for k, shard in enumerate(router.shards):
            for report in check_index(shard):
                assert report.ok, f"shard {k}: {report.summary()}"
    report = scrub_db(dbdir)
    assert report.ok, report.summary()


def test_cross_shard_hammer_first_config(tmp_path):
    """Tier-1 hammer: 3 shards, 3 client threads, interleaved writer."""
    _run_cross_shard_hammer(
        tmp_path,
        seed=21,
        docs=8,
        nshards=3,
        client_threads=3,
        submissions=24,
        writer_ops=15,
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "seed,nshards,client_threads,submissions,writer_ops",
    [
        (22, 2, 4, 60, 40),
        (23, 4, 4, 60, 40),
        (24, 5, 8, 90, 60),
    ],
)
def test_cross_shard_hammer_sweep(
    tmp_path, seed, nshards, client_threads, submissions, writer_ops
):
    _run_cross_shard_hammer(
        tmp_path,
        seed=seed,
        docs=12,
        nshards=nshards,
        client_threads=client_threads,
        submissions=submissions,
        writer_ops=writer_ops,
    )
