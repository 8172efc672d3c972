"""The concurrent read path: locks, shared caches, and the oracle hammer.

Layers covered, bottom up:

* :class:`repro.exec.locks.RWLock` unit semantics (reentrancy, writer
  exclusion, the upgrade refusal, writer preference);
* the B+Tree reader-vs-split hammer: ``get``/``range`` from reader
  threads racing an inserting writer must never lose a committed key
  (the leaf-chain walk of ``_seek`` recovers a reader that reached a
  leaf a split has since divided);
* the shared file handle of :class:`WalPager` under concurrent
  ``read()`` (node-cache misses of concurrent queries land there with
  nothing in between);
* shared caches under contention: :class:`PostingCache`, the metrics
  registry;
* the multi-threaded differential-oracle hammer: K plain threads split M
  seeded queries (``verify=True``) against one shared ViST index while a
  writer thread interleaves inserts and removes of noise documents;
  every verified result must equal the single-threaded reference
  evaluator's answer and the index must pass ``repro check``'s
  invariants afterwards — over the in-memory pager and over a
  :class:`WalPager`.

The first hammer configuration of each pager runs in tier-1; the full
sweep (over :class:`WalPager`) is marked ``slow`` and runs in the CI
concurrency job.
"""

from __future__ import annotations

import random
import sys
from functools import partial
import threading
import time

import pytest

from repro.doc.model import XmlNode
from repro.exec import RWLock
from repro.index.postings import PostingCache, PostingGroup
from repro.index.vist import VistIndex
from repro.obs.metrics import MetricsRegistry
from repro.sequence.transform import SequenceEncoder
from repro.storage.bptree import BPlusTree
from repro.storage.docstore import FileDocStore
from repro.storage.pager import MemoryPager
from repro.storage.wal import WalPager
from repro.testing.generator import DocQueryGenerator
from repro.testing.invariants import assert_invariants
from repro.testing.reference import reference_results


def _run_threads(targets, timeout=60.0):
    """Start every target, join all, and re-raise the first exception."""
    errors: list[BaseException] = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), "thread did not finish (deadlock?)"
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# RWLock semantics


class TestRWLock:
    def test_concurrent_readers_overlap(self):
        lock = RWLock()
        barrier = threading.Barrier(3, timeout=10)

        def reader():
            with lock.read():
                barrier.wait()  # only passes if all 3 hold the lock at once

        _run_threads([reader] * 3)

    def test_writer_is_exclusive(self):
        lock = RWLock()
        active = {"readers": 0, "writers": 0}
        violations: list[str] = []

        def reader():
            for _ in range(200):
                with lock.read():
                    active["readers"] += 1
                    if active["writers"]:
                        violations.append("reader overlapped a writer")
                    active["readers"] -= 1

        def writer():
            for _ in range(100):
                with lock.write():
                    active["writers"] += 1
                    if active["writers"] != 1 or active["readers"]:
                        violations.append("writer was not exclusive")
                    active["writers"] -= 1

        _run_threads([reader, reader, writer, writer])
        assert not violations

    def test_read_reentrancy(self):
        lock = RWLock()
        with lock.read():
            with lock.read():
                pass
        # fully released: a writer can get in from this same thread
        with lock.write():
            pass

    def test_write_reentrancy_and_read_within_write(self):
        lock = RWLock()
        with lock.write():
            with lock.write():
                with lock.read():  # query_nodes -> query under remove etc.
                    pass

    def test_upgrade_raises_instead_of_deadlocking(self):
        lock = RWLock()
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()
        with lock.write():  # the failed upgrade left the lock usable
            pass

    def test_release_write_by_non_holder_raises(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_release_read_without_acquire_raises(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()

    def test_writer_preference_over_queued_reader(self):
        lock = RWLock()
        order: list[str] = []
        reader_holding = threading.Event()
        release_reader = threading.Event()

        def first_reader():
            with lock.read():
                reader_holding.set()
                assert release_reader.wait(10)

        def writer():
            with lock.write():
                order.append("writer")

        def late_reader():
            with lock.read():
                order.append("reader")

        t1 = threading.Thread(target=first_reader)
        t1.start()
        assert reader_holding.wait(10)
        tw = threading.Thread(target=writer)
        tw.start()
        while not lock._writers_waiting:  # writer is registered as waiting
            time.sleep(0.001)
        tr = threading.Thread(target=late_reader)
        tr.start()
        time.sleep(0.02)  # give the late reader a chance to (wrongly) enter
        assert order == []  # both blocked behind the first reader
        release_reader.set()
        for thread in (t1, tw, tr):
            thread.join(10)
        assert order[0] == "writer"  # the waiting writer beat the reader


# ---------------------------------------------------------------------------
# B+Tree readers racing an inserting writer


def test_bptree_descent_race_get_and_range_vs_insert():
    """Hammer for readers descending while a writer splits nodes.

    The committed region uses ``a``-prefixed keys; the writer appends
    ``w``-prefixed keys, so leaves and internal nodes keep splitting
    while the readers' own keys stay put.  Committed keys must always be
    found and range scans over the committed region must always be
    complete — a descent that trusted a pre-split leaf without walking
    the chain breaks both.
    """
    tree = BPlusTree()
    committed = [f"a{i:06d}".encode() for i in range(1500)]
    for key in committed:
        tree.insert(key, b"v")
    committed_set = set(committed)
    done = threading.Event()

    def writer():
        try:
            for i in range(6000):
                tree.insert(f"w{i:08d}".encode(), b"x")
        finally:
            done.set()

    def point_reader():
        rng = random.Random(7)
        while not done.is_set():
            key = rng.choice(committed)
            assert tree.get(key) == b"v", f"committed key lost: {key!r}"
        for key in committed:  # one full pass after the writer stopped
            assert tree.get(key) == b"v"

    def range_reader():
        while not done.is_set():
            seen = {key for key, _ in tree.range(b"a", b"b")}
            assert seen == committed_set
        assert {key for key, _ in tree.range(b"a", b"b")} == committed_set

    _run_threads([writer, point_reader, range_reader])
    assert len(tree) == 1500 + 6000


# ---------------------------------------------------------------------------
# shared caches under contention


def test_pager_concurrent_reads_return_the_page_asked_for(tmp_path):
    """seek()+read() on the one shared handle must not interleave: every
    slot carries a valid CRC for itself, so a reader handed another
    page's slot would not notice — and a B+Tree would decode the wrong
    node."""
    path = tmp_path / "pages.db"
    pager = WalPager(path, page_size=256)
    pids = [pager.allocate() for _ in range(64)]
    for pid in pids:
        pager.write(pid, bytes([pid % 251]) * pager.page_size)
    pager.close()  # committed, so reads below go to the file

    pager = WalPager(path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:

        def reader(seed):
            rng = random.Random(seed)
            for _ in range(20_000):
                pid = rng.choice(pids)
                assert pager.read(pid) == bytes([pid % 251]) * pager.page_size

        _run_threads([partial(reader, seed) for seed in range(4)])
    finally:
        sys.setswitchinterval(interval)
        pager.close()


def test_posting_cache_concurrent_lookup_single_install():
    cache = PostingCache(capacity=4)
    load_calls = []
    gate = threading.Barrier(4, timeout=10)
    results: list[PostingGroup] = []

    def loader():
        load_calls.append(1)
        time.sleep(0.005)  # widen the miss window
        return iter([(("x",), 1, 11)])

    def worker():
        gate.wait()
        results.append(cache.lookup("sym", 1, ("x",), loader))

    _run_threads([worker] * 4)
    assert len(results) == 4
    # first install wins: everyone ends up holding the same resident group
    assert len({id(group) for group in results}) == 1
    assert len(cache) == 1
    stats = cache.stats
    assert stats.hits + stats.misses == 4
    assert 0.0 <= stats.hit_rate <= 1.0


def test_metrics_registry_snapshot_under_load():
    registry = MetricsRegistry()
    counter = registry.counter("work.items")

    def incrementer():
        for _ in range(20_000):
            counter.inc()

    def registrar():
        for i in range(200):
            registry.register(f"late.source{i}", lambda i=i: i)

    def snapshotter():
        for _ in range(300):
            snapshot = registry.snapshot()  # must not blow up mid-register
            assert "work" in snapshot

    _run_threads([incrementer, incrementer, registrar, snapshotter, snapshotter])
    assert registry.snapshot()["work"]["items"] == 40_000


# ---------------------------------------------------------------------------
# the multi-threaded differential-oracle hammer


def _noise_doc(i: int) -> XmlNode:
    # labels disjoint from DocQueryGenerator's alphabet ("a".."d"), so no
    # seeded query can match a noise document except through a wildcard —
    # and wildcard hits are filtered out by the seeded-id projection below
    root = XmlNode("z1")
    root.element("z2", text=f"n{i}")
    return root


def _run_hammer(
    tmp_path, make_pager, *, seed, docs, threads, submissions, writer_ops
):
    """K threads share M verified queries (thread k takes positions
    k, k+K, ...) vs the reference, writer interleaved."""
    generator = DocQueryGenerator(seed)
    corpus = generator.corpus(docs, 12)
    queries = [generator.query(corpus) for _ in range(12)]
    hasher = SequenceEncoder().hasher
    expected = {
        pos: reference_results(corpus, query, hasher)
        for pos, query in enumerate(queries)
    }

    index = VistIndex(
        SequenceEncoder(),
        docstore=FileDocStore(tmp_path / "docs.dat"),
        pager=make_pager(tmp_path / "vist.db"),
    )
    try:
        ids = index.add_all(corpus)
        index.flush()
        for tree in (index.tree, index.docid_tree):
            tree.checkpoint(clear_cache=True)  # the query threads start cold
        id_to_pos = {doc_id: pos for pos, doc_id in enumerate(ids)}
        seeded_ids = set(ids)

        noise_live: list[int] = []
        writer_done = threading.Event()
        writer_errors: list[BaseException] = []

        def writer():
            try:
                rng = random.Random(seed + 1)
                for i in range(writer_ops):
                    noise_live.append(index.add(_noise_doc(i)))
                    if len(noise_live) > 2 and rng.random() < 0.4:
                        index.remove(noise_live.pop(0))
                    time.sleep(0.001)  # spread writes across the query window
            except BaseException as exc:  # noqa: BLE001 - asserted below
                writer_errors.append(exc)
            finally:
                writer_done.set()

        def snapshotter():
            while not writer_done.is_set():
                snapshot = index.metrics.snapshot()
                assert "queries" in snapshot
            index.metrics.snapshot()

        workload = [queries[i % len(queries)] for i in range(submissions)]
        # position -> result, or the exception that query raised
        answers: dict[int, object] = {}

        def query_lane(offset: int) -> None:
            for pos in range(offset, submissions, threads):
                try:
                    answers[pos] = index.query(workload[pos], verify=True)
                except Exception as exc:  # noqa: BLE001 - asserted below
                    answers[pos] = exc

        writer_thread = threading.Thread(target=writer)
        stats_thread = threading.Thread(target=snapshotter)
        writer_thread.start()
        stats_thread.start()
        _run_threads([partial(query_lane, k) for k in range(threads)])
        writer_thread.join(60)
        stats_thread.join(60)
        assert not writer_thread.is_alive() and not stats_thread.is_alive()
        assert not writer_errors, f"writer thread failed: {writer_errors[0]!r}"

        assert sorted(answers) == list(range(submissions))
        for pos, answer in sorted(answers.items()):
            assert not isinstance(answer, Exception), (
                f"query #{pos} {workload[pos].to_xpath()!r} raised: {answer!r}"
            )
            got = sorted(
                id_to_pos[doc_id]
                for doc_id in answer
                if doc_id in seeded_ids
            )
            want = expected[pos % len(queries)]
            assert got == want, (
                f"query #{pos} {workload[pos].to_xpath()!r}: "
                f"verified={got} reference={want}"
            )

        # the writer's surviving noise documents are really indexed
        live = sorted(index.query("/z1", verify=True))
        assert live == sorted(noise_live)

        # `repro check` semantics: every structural invariant still holds
        assert_invariants(index)
    finally:
        index.flush()
        index.close()
        index.docstore.close()


_FIRST_CONFIG = dict(seed=11, docs=10, threads=4, submissions=36, writer_ops=30)


def test_oracle_hammer_first_config(tmp_path):
    """Tier-1 hammer: 4 threads, 36 verified queries, interleaved writer,
    over the in-memory pager — the trees and caches alone, no file."""
    _run_hammer(tmp_path, lambda path: MemoryPager(), **_FIRST_CONFIG)


def test_oracle_hammer_first_config_wal(tmp_path):
    """The same over a WalPager: misses of concurrent queries read the
    main file through its shared handle, the writer's pages sit in the
    overlay until the final flush commits them."""
    _run_hammer(tmp_path, WalPager, **_FIRST_CONFIG)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [23, 37, 59])
def test_oracle_hammer_full_sweep(tmp_path, seed):
    """CI sweep: more seeds, more submissions, longer writer interleaving."""
    _run_hammer(
        tmp_path,
        WalPager,
        seed=seed,
        docs=14,
        threads=4,
        submissions=200,
        writer_ops=120,
    )
