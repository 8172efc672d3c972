"""Crash/fault coverage of the write paths: ingest, insert, remove, flush.

Four layers of failure are proven here:

* **a failed insert** — a docstore or source-store append that raises,
  through ``add`` or mid-chunk through ``add_batch``, or a scope
  underflow mid-chunk: one undo takes the insert back before the
  exception escapes (no orphan sequence, no leaked node, contiguous doc
  ids, clean invariants);
* **process crash** at any durability primitive of a batch commit
  (``sweep_commit_faults``): recovery always lands on a batch boundary,
  trailing docstore records past the committed tree state are truncated
  at reopen;
* **process crash** at any durability primitive of a DBDIR flush after
  adds and removes, after removes alone, and after a shard worker's
  ``add`` ops: every crash point leaves a directory ``scrub`` passes
  whose answers are the pre- or the post-commit ones — removal
  tombstones reach the stores only after the commit that detaches the
  documents;
* **partial sharded chunk**: the router burns positional tombstones for
  planned ids that never landed, so ``ShardMap.recover`` can always
  explain the directory on the next open; a chunk no shard landed any
  of burns nothing.
"""

import pytest

from repro.datasets.dblp import DblpConfig, DblpGenerator
from repro.errors import IndexStateError, ScopeUnderflowError, StorageError
from repro.index.naive import NaiveIndex
from repro.index.vist import VistIndex
from repro.repair import DOC_FILE, SOURCE_FILE, TREE_FILE, salvage_db, scrub_db
from repro.sequence.transform import SequenceEncoder
from repro.shard.router import ShardRouter
from repro.storage.docstore import FileDocStore, MemoryDocStore
from repro.storage.wal import WalPager
from repro.testing.faults import sweep_commit_faults
from repro.testing.generator import DocQueryGenerator
from repro.testing.invariants import assert_invariants, check_index
from tests.conftest import ExplodingStore

QUERIES = ["//book", "//article", "//author", "//phdthesis/year"]


def _records(count, seed=4):
    return list(DblpGenerator(DblpConfig(seed=seed)).records(count))


def _answers(index):
    return {q: sorted(index.query(q)) for q in QUERIES}


def _assert_clean(index):
    for report in check_index(index):
        assert report.ok, report.summary()


class TestSourceFailureRollback:
    @pytest.mark.parametrize("path", ["add", "add_batch"])
    @pytest.mark.parametrize("failing", ["source", "docstore"])
    @pytest.mark.parametrize("remove_after", [True, False])
    def test_failed_insert_is_undone(self, remove_after, failing, path):
        # the 7th document's append fails after its nodes were staged —
        # an article, so it walked nodes two earlier articles share: one
        # undo must take back everything it did, whichever store failed
        # and whether it came alone or mid-chunk; with remove_after, the
        # documents it shared nodes with are then removed, which must
        # unmake those nodes exactly as if it had never been tried
        records = _records(10)
        stores = {"docstore": MemoryDocStore(), "source": MemoryDocStore()}
        stores[failing] = ExplodingStore(fail_at=6)
        index = VistIndex(
            SequenceEncoder(),
            docstore=stores["docstore"],
            source_store=stores["source"],
        )
        with pytest.raises(StorageError):
            if path == "add":
                for record in records[:7]:
                    index.add(record)
            else:
                index.add_batch(records[:9], batch_size=9)
        # the six documents before it landed; it left nothing behind
        assert len(index) == 6
        assert len(index.docstore) == len(index.source_store) == 6
        _assert_clean(index)
        # ids keep being assigned contiguously after the failure
        assert index.add_batch(records[7:]) == [6, 7, 8]
        _assert_clean(index)
        oracle = VistIndex(
            SequenceEncoder(),
            docstore=MemoryDocStore(),
            source_store=MemoryDocStore(),
        )
        oracle.add_all(records[:6] + records[7:])
        if remove_after:
            for doc_id in range(6):
                index.remove(doc_id)
                oracle.remove(doc_id)
            assert len(index) == 3
            _assert_clean(index)
        assert _answers(index) == _answers(oracle)

    def test_underflow_mid_chunk_is_undone(self):
        # a small label space underflows past every ancestor's reserve;
        # the chunks that hit it are skipped, the documents before the
        # failing one land, and the index must stay scrub-clean (a node's
        # scope holds a DocId key exactly when a document traverses it)
        records = _records(400)
        index = VistIndex(
            SequenceEncoder(),
            docstore=MemoryDocStore(),
            source_store=MemoryDocStore(),
            max_label=1 << 14,
        )
        skipped = 0
        for start in range(0, len(records), 50):
            try:
                index.add_batch(records[start : start + 50], batch_size=50)
            except ScopeUnderflowError:
                skipped += 1
        assert skipped
        assert index.docstore.id_bound == len(index)
        _assert_clean(index)

    def test_vist_rollback_preserves_shared_nodes(self):
        # structurally-overlapping documents: the rollback must only
        # unmake this insert's nodes, never a neighbour's
        documents = DocQueryGenerator(13).corpus(8, 10)
        source = ExplodingStore(fail_at=5)
        index = VistIndex(
            SequenceEncoder(),
            docstore=MemoryDocStore(),
            source_store=source,
        )
        for doc in documents[:5]:
            index.add(doc)
        with pytest.raises(StorageError):
            index.add(documents[5])
        assert len(index) == 5
        assert_invariants(index)
        source.fail_at = None
        for doc in documents[5:]:
            index.add(doc)
        assert_invariants(index)

    def test_naive_add_rolls_back_trie(self):
        records = _records(5)
        source = ExplodingStore(fail_at=2)
        index = NaiveIndex(
            SequenceEncoder(),
            docstore=MemoryDocStore(),
            source_store=source,
        )
        index.add(records[0])
        index.add(records[1])
        with pytest.raises(StorageError):
            index.add(records[2])
        assert len(index) == 2
        source.fail_at = None
        assert index.add(records[2]) == 2
        oracle = NaiveIndex(SequenceEncoder())
        oracle.add_all(records[:3])
        assert sorted(index.query("//book")) == sorted(oracle.query("//book"))

    def test_add_batch_mid_chunk_failure(self):
        records = _records(10)
        source = ExplodingStore(fail_at=6)
        index = VistIndex(
            SequenceEncoder(),
            docstore=MemoryDocStore(),
            source_store=source,
        )
        with pytest.raises(StorageError):
            index.add_batch(records, batch_size=4)
        # chunk 1 (docs 0-3) landed, chunk 2 failed at its third doc:
        # docs 4-5 stay, doc 6 is rolled back
        assert len(index) == 6
        for report in check_index(index):
            assert report.ok, report.summary()
        source.fail_at = None
        assert index.add_batch(records[6:], batch_size=4) == [6, 7, 8, 9]
        oracle = VistIndex(
            SequenceEncoder(),
            docstore=MemoryDocStore(),
            source_store=MemoryDocStore(),
        )
        oracle.add_all(records)
        assert _answers(index) == _answers(oracle)


class TestTrailingDocTruncation:
    def _open(self, tmp_path):
        return VistIndex(
            SequenceEncoder(),
            docstore=FileDocStore(tmp_path / "docs.dat"),
            pager=WalPager(str(tmp_path / "vist.db")),
            source_store=FileDocStore(tmp_path / "sources.dat"),
        )

    def _close(self, index):
        index.close()
        index.docstore.close()
        index.source_store.close()

    def test_uncommitted_trailing_docs_are_dropped(self, tmp_path):
        records = _records(12)
        index = self._open(tmp_path)
        index.add_batch(records[:8], batch_size=4)  # durable: 2 commits
        committed = _answers(index)
        # crash simulation: records appended to the stores *after* the
        # last commit — complete on disk, but the tree never heard of
        # the 3rd one (docstore.add bypasses the index on purpose)
        for record in records[8:10]:
            index.add(record)
        index.docstore.add(b"torn-orphan-payload")
        index.docstore.flush()
        index.source_store.flush()
        # skip index.flush(): the tree state on disk is the 8-doc commit
        index.docstore.close()
        index.source_store.close()
        index._pager.abandon()

        reopened = self._open(tmp_path)
        try:
            assert reopened.recovered_trailing_docs == 3
            assert len(reopened) == 8
            assert _answers(reopened) == committed
            assert_invariants(reopened)
            # and ingest continues cleanly on the recovered boundary
            assert reopened.add_batch(records[8:], batch_size=4) == [8, 9, 10, 11]
            assert_invariants(reopened)
        finally:
            self._close(reopened)


class TestBatchCommitSweep:
    """Kill a batch commit at every WAL primitive; recovery must land on
    a batch boundary with clean invariants and truncated stores."""

    batch1 = _records(5, seed=21)
    batch2 = _records(4, seed=22)

    def _index(self, pager, tmp_path):
        return VistIndex(
            SequenceEncoder(),
            docstore=FileDocStore(tmp_path / "docs.dat"),
            pager=pager,
            source_store=FileDocStore(tmp_path / "sources.dat"),
            posting_cache_size=0,
        )

    def _stage(self, index):
        """Everything a commit does except the pager commit itself (the
        sweep harness owns the commit under test)."""
        index._stage_commit()
        index.docstore.close()
        index.source_store.close()

    def test_batch_boundary_sweep(self, tmp_path):
        store_files = [tmp_path / "docs.dat", tmp_path / "sources.dat"]
        store_snapshot = {}

        def setup(pager):
            index = self._index(pager, tmp_path)
            index.add_batch(self.batch1, batch_size=5, durability="none")
            self._stage(index)
            for path in store_files:
                store_snapshot[path] = path.read_bytes()

        def mutate(pager):
            # the sweep restores the page file between faults; the
            # docstores are ours to restore
            for path in store_files:
                path.write_bytes(store_snapshot[path])
            index = self._index(pager, tmp_path)
            index.add_batch(self.batch2, batch_size=4, durability="none")
            self._stage(index)

        def check(recovered_pager, phase):
            index = self._index(recovered_pager, tmp_path)
            try:
                expected = len(self.batch1) + (
                    len(self.batch2) if phase == "post" else 0
                )
                if phase == "pre":
                    # the batch-2 appends are complete on disk but
                    # uncommitted: reopen truncates them
                    assert index.recovered_trailing_docs == len(self.batch2)
                assert len(index) == expected
                for report in check_index(index):
                    assert report.ok, f"{phase}: {report.summary()}"
                assert len(index.query("//author")) == expected
            finally:
                index.docstore.close()
                index.source_store.close()

        report = sweep_commit_faults(
            tmp_path / "vist.db",
            setup,
            mutate,
            page_size=2048,
            check=check,
        )
        assert report.total_ops == report.expected_ops
        assert report.entries >= 2


def _die(index):
    """Fail-stop right after staging a commit: the process never returns
    from it, so tombstones queued for after the commit never reach the
    stores.  (Their appends were fsynced by the staging.)"""
    for store in (index.docstore, index.source_store):
        store._file.close()


class TestJournaledFlushSweeps:
    """Every DBDIR opens through the journal.  Crash one flush at every
    WAL primitive: the recovered directory must scrub clean and answer
    exactly as before or exactly as after the commit."""

    def _sweep(self, tmp_path, base, change):
        dbdir = tmp_path / "db"
        dbdir.mkdir()
        docs, sources = dbdir / DOC_FILE, dbdir / SOURCE_FILE
        snapshot = {}
        answers = {}

        def open_on(pager):
            # repro.cli.open_index's layout, over the harness's pager
            return VistIndex(
                SequenceEncoder(),
                docstore=FileDocStore(docs),
                pager=pager,
                source_store=FileDocStore(sources),
            )

        def setup(pager):
            index = open_on(pager)
            index.add_batch(base)
            answers["pre"] = (len(index), _answers(index))
            index.docstore.close()
            index.source_store.close()
            snapshot.update((path, path.read_bytes()) for path in (docs, sources))

        def mutate(pager):
            # the sweep restores the page file between faults; the stores
            # are ours to restore
            for path, data in snapshot.items():
                path.write_bytes(data)
            index = open_on(pager)
            change(index)
            answers["post"] = (len(index), _answers(index))
            index._stage_commit()
            _die(index)

        def check(recovered_pager, phase):
            report = scrub_db(dbdir, invariants=True)
            assert report.ok, f"{phase}: {report.summary()}"
            index = open_on(recovered_pager)
            try:
                assert (len(index), _answers(index)) == answers[phase]
            finally:
                index.docstore.close()
                index.source_store.close()

        report = sweep_commit_faults(dbdir / TREE_FILE, setup, mutate, check=check)
        assert {outcome.recovered_to for outcome in report.outcomes} == {"pre", "post"}
        return report

    @pytest.mark.slow
    def test_adds_and_removes(self, tmp_path):
        """A 300-record DBLP directory, then 40 adds and 14 removes."""
        fresh = _records(40, seed=41)
        victims = list(range(5, 300, 21))[:14]

        def change(index):
            for record in fresh:
                index.add(record)
            for doc_id in victims:
                index.remove(doc_id)

        self._sweep(tmp_path, _records(300, seed=40), change)

    def test_removes_alone(self, tmp_path):
        """Tombstones written before the commit would tear every pre-commit
        crash point: the tree still holds documents the stores deleted."""

        def change(index):
            for doc_id in (5, 17, 33):
                index.remove(doc_id)

        self._sweep(tmp_path, _records(60, seed=42), change)

    def test_worker_adds_then_flush(self, tmp_path):
        """Single-document ``add`` calls, then one flush: the write pattern
        of ``VistIndex.add`` / ``ShardRouter.add`` outside a batch."""
        fresh = _records(12, seed=44)

        def change(index):
            for record in fresh:
                index.add(record)

        self._sweep(tmp_path, _records(40, seed=43), change)


def _crash_after_removal_commit(dbdir):
    """A 20-record DBDIR whose removal of ids 2 and 11 committed but
    whose tombstone writes a crash cut off; returns the answers the
    removals left."""
    from repro.dbdir import close_index, open_index

    index = open_index(dbdir)
    index.add_batch(_records(20, seed=45))
    close_index(index)

    index = open_index(dbdir)
    for doc_id in (2, 11):
        index.remove(doc_id)
    answers = _answers(index)
    index._stage_commit()
    index._pager.commit()
    _die(index)
    index._pager.abandon()
    return answers


class TestRemovalRecovery:
    def test_crash_after_commit_replays_stamped_tombstones(self, tmp_path):
        """The commit landed, the tombstone writes did not: reopening
        finishes the removals, and a second reopen finds nothing to do."""
        from repro.dbdir import close_index, open_index

        dbdir = tmp_path / "db"
        answers = _crash_after_removal_commit(dbdir)
        reopened = open_index(dbdir)
        try:
            assert reopened.recovered_removals == 2
            assert 2 not in reopened.docstore and 11 not in reopened.source_store
            assert len(reopened) == 18
            assert _answers(reopened) == answers
            assert_invariants(reopened)
            with pytest.raises(StorageError, match="document 2 was deleted"):
                reopened.remove(2)
        finally:
            close_index(reopened)
        again = open_index(dbdir)
        try:
            assert again.recovered_removals == 0
            assert len(again) == 18
        finally:
            close_index(again)
        assert scrub_db(dbdir).ok

    def test_salvage_before_reopen_keeps_the_stamped_removals(self, tmp_path):
        """The same crash, then ``salvage`` before anything reopens the
        directory: the rebuild reads the old tree's removal stamp, so
        neither document comes back in either store."""
        from repro.dbdir import close_index, open_index

        dbdir = tmp_path / "db"
        answers = _crash_after_removal_commit(dbdir)
        salvage_db(dbdir)
        for name in (DOC_FILE, SOURCE_FILE):
            with FileDocStore(dbdir / name) as store:
                assert 2 not in store and 11 not in store, name
        reopened = open_index(dbdir)
        try:
            assert len(reopened) == 18
            assert _answers(reopened) == answers
        finally:
            close_index(reopened)
        assert scrub_db(dbdir).ok


    def test_a_long_removal_run_commits_before_its_stamp_outgrows_a_cell(
        self, tmp_path
    ):
        """The removed ids of one commit live in one tree cell; a run that
        would overflow it commits the queue first and goes on."""
        index = VistIndex(
            SequenceEncoder(),
            docstore=FileDocStore(tmp_path / "docs.dat"),
            pager=WalPager(tmp_path / "vist.db", page_size=1024),
            source_store=FileDocStore(tmp_path / "sources.dat"),
        )
        ids = index.add_batch(_records(160, seed=46))
        survivors = ids[150:]
        commits = []
        commit = index._pager.commit
        index._pager.commit = lambda: (commits.append(len(index)), commit())
        for doc_id in ids[:150]:
            index.remove(doc_id)
        assert commits  # committed early, mid-run
        assert len(index._removed) <= index._removal_budget()
        index.close()
        index.docstore.close()
        index.source_store.close()

        reopened = VistIndex(
            SequenceEncoder(),
            docstore=FileDocStore(tmp_path / "docs.dat"),
            pager=WalPager(tmp_path / "vist.db"),
            source_store=FileDocStore(tmp_path / "sources.dat"),
        )
        try:
            assert list(reopened.docstore.ids()) == survivors
            assert reopened.recovered_removals == 0
            assert_invariants(reopened)
        finally:
            reopened.close()
            reopened.docstore.close()
            reopened.source_store.close()


class TestShardedChunkRepair:
    def test_partial_chunk_burns_tombstones_and_recovers(self, tmp_path):
        records = _records(20, seed=31)
        router = ShardRouter(tmp_path / "db", 2)
        router.add_batch(records[:8], batch_size=8)
        assert router.map.next_doc_id == 8

        # make one shard refuse its group: the chunk dies between shards
        victim = router.shards[1]
        original = victim.add_batch

        def boom(*args, **kwargs):
            raise StorageError("simulated shard failure")

        victim.add_batch = boom
        with pytest.raises(IndexStateError) as err:
            router.add_batch(records[8:16], batch_size=8)
        assert "tombstoned" in str(err.value)
        victim.add_batch = original

        # the map advanced over the whole planned chunk regardless
        assert router.map.next_doc_id == 16
        survivors = set(router.doc_ids())
        assert set(range(8)) <= survivors
        # ingest continues under fresh ids
        new_ids = router.add_batch(records[16:], batch_size=8)
        assert new_ids == list(range(16, 20))
        answers = router.query("//author")
        router.close()

        # the directory must reopen without IndexStateError — the exact
        # failure ShardMap.recover raises on unexplainable layouts
        reopened = ShardRouter(tmp_path / "db")
        try:
            assert reopened.map.next_doc_id == 20
            assert set(reopened.doc_ids()) == survivors | set(new_ids)
            assert reopened.query("//author") == answers
            for shard in reopened.shards:
                assert_invariants(shard)
        finally:
            reopened.close()

    def test_chunk_refused_before_any_shard_landed_burns_nothing(self, tmp_path):
        records = _records(20, seed=31)
        router = ShardRouter(tmp_path / "db", 2)
        router.add_batch(records[:8], batch_size=8)

        # id 8 routes to shard 0, so its group goes first: refusing it
        # fails the chunk before any document landed anywhere
        victim = router.shards[0]
        original = victim.add_batch

        def boom(*args, **kwargs):
            raise StorageError("simulated shard failure")

        victim.add_batch = boom
        with pytest.raises(StorageError):
            router.add_batch(records[8:16], batch_size=8)
        with pytest.raises(StorageError):
            router.add(records[8])
        victim.add_batch = original

        # no id was consumed: the map and the stores still agree
        assert router.map.next_doc_id == 8
        assert [shard.docstore.id_bound for shard in router.shards] == [
            len(router.map.globals_of(s)) for s in range(2)
        ]
        assert router.add_batch(records[8:16], batch_size=8) == list(range(8, 16))
        assert router.add(records[16]) == 16
        router.close()
        reopened = ShardRouter(tmp_path / "db")
        try:
            assert reopened.map.next_doc_id == 17
            assert list(reopened.doc_ids()) == list(range(17))
        finally:
            reopened.close()

    def test_clean_batches_need_no_repair(self, tmp_path):
        records = _records(12, seed=33)
        router = ShardRouter(tmp_path / "db", 3)
        ids = router.add_batch(records, batch_size=5)
        assert ids == list(range(12))
        answers = router.query("//book")
        router.close()
        reopened = ShardRouter(tmp_path / "db")
        try:
            assert reopened.query("//book") == answers
        finally:
            reopened.close()
