"""Bulk ingest: batch/incremental equivalence, CLI `repro ingest`, datasets.

The differential oracle here is the whole contract: a corpus ingested
through ``add_batch`` (any batch size, any durability mode) must be
indistinguishable — same doc ids, same query answers, the same entries
in both B+Trees — from the same corpus fed through a loop of
per-document ``add`` calls, even when one store append fails on the way.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main, open_index
from repro.datasets.dblp import (
    RECORD_LABELS as DBLP_LABELS,
    DblpConfig,
    DblpGenerator,
    write_corpus,
)
from repro.datasets.xmark import XmarkGenerator
from repro.doc import iter_stream_records
from repro.errors import IndexStateError, StorageError
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder
from repro.storage.docstore import MemoryDocStore
from repro.testing.invariants import check_index
from tests.conftest import ExplodingStore

QUERIES = [
    "//book",
    "//article",
    "//book[author='David Maier']",
    "//phdthesis/year",
    "//author",
]


def _records(count=60, seed=3):
    return list(DblpGenerator(DblpConfig(seed=seed)).records(count))


def _memory_index():
    return VistIndex(
        SequenceEncoder(),
        docstore=MemoryDocStore(),
        source_store=MemoryDocStore(),
    )


def _answers(index):
    return {q: sorted(index.query(q)) for q in QUERIES}


def _entries(index):
    return list(index.tree.items()), list(index.docid_tree.items())


class TestBatchEquivalence:
    def test_add_batch_matches_per_document_add(self):
        # chunk size never changes an entry of either tree
        records = _records(300)
        a = _memory_index()
        ids_a = [a.add(r) for r in records]
        s = _memory_index()
        assert [s.add_sequence(s.encoder.encode_node(r)) for r in records] == ids_a
        assert _entries(s) == _entries(a)
        for batch_size in (1, 7, 1000):
            b = _memory_index()
            ids_b = b.add_batch(records, batch_size=batch_size)
            assert ids_b == ids_a
            assert _answers(b) == _answers(a)
            assert _entries(b) == _entries(a)

    def test_add_all_routes_through_batch(self):
        records = _records(30)
        a = _memory_index()
        ids_a = [a.add(r) for r in records]
        b = _memory_index()
        ids_b = b.add_all(records)
        assert ids_b == ids_a
        assert _answers(b) == _answers(a)

    def test_durability_none_defers_commit(self):
        index = _memory_index()
        ids = index.add_batch(_records(10), batch_size=3, durability="none")
        assert ids == list(range(10))
        assert len(index) == 10

    def test_batch_accepts_lazy_iterators(self):
        index = _memory_index()
        ids = index.add_batch(
            DblpGenerator(DblpConfig(seed=5)).records(25), batch_size=8
        )
        assert ids == list(range(25))

    def test_incremental_batches_extend(self):
        records = _records(20)
        a = _memory_index()
        a.add_batch(records, batch_size=6)
        b = _memory_index()
        b.add_batch(records[:11], batch_size=6)
        b.add_batch(records[11:], batch_size=6)
        assert _answers(b) == _answers(a)

    def test_bad_arguments(self):
        index = _memory_index()
        with pytest.raises(IndexStateError):
            index.add_batch([], durability="eventually")
        with pytest.raises(IndexStateError):
            index.add_batch([], batch_size=0)


@st.composite
def _split_feeds(draw, count):
    """A corpus split into consecutive runs, each fed through per-document
    ``add`` calls or one ``add_batch`` call with a drawn chunk size, plus
    one store append that fails."""
    runs, start = [], 0
    while start < count:
        end = draw(st.integers(start + 1, count))
        batch_size = draw(st.one_of(st.none(), st.integers(1, 12)))
        runs.append((start, end, batch_size))
        start = end
    failing = draw(st.sampled_from(["docstore", "source"]))
    return runs, failing, draw(st.integers(0, count - 1))


def _feed_with_one_failure(records, runs, failing, fail_at):
    """Feed ``runs`` of ``records``; the document whose append fails is
    dropped and the rest of its run re-fed.  Returns the index and the
    position of the dropped document."""
    stores = {"docstore": MemoryDocStore(), "source": MemoryDocStore()}
    stores[failing] = ExplodingStore(fail_at)
    index = VistIndex(
        SequenceEncoder(),
        docstore=stores["docstore"],
        source_store=stores["source"],
    )
    dropped = None
    for start, end, batch_size in runs:
        pending = list(range(start, end))
        while pending:
            landed = len(index)
            try:
                if batch_size is None:
                    index.add(records[pending[0]])
                else:
                    index.add_batch([records[i] for i in pending], batch_size=batch_size)
            except StorageError:
                # the documents before the failing one landed
                failed = len(index) - landed
                dropped = pending[failed]
                pending = pending[failed + 1 :]
            else:
                pending = pending[1:] if batch_size is None else []
    return index, dropped


class TestChunkingProperty:
    """Any split of a corpus into ``add`` calls and ``add_batch`` chunks,
    with one failed store append, leaves the entries that feeding the
    same documents one at a time, with the same failure, leaves — and the
    answers of an index fed only the documents that landed."""

    def _check(self, records, feeds):
        runs, failing, fail_at = feeds
        index, dropped = _feed_with_one_failure(records, runs, failing, fail_at)
        one_by_one, dropped_ref = _feed_with_one_failure(
            records, [(0, len(records), None)], failing, fail_at
        )
        assert dropped == dropped_ref == fail_at
        assert len(index) == len(records) - 1
        for report in check_index(index):
            assert report.ok, report.summary()
        assert _entries(index) == _entries(one_by_one)
        survivors = records[:dropped] + records[dropped + 1 :]
        oracle = _memory_index()
        oracle.add_all(survivors)
        assert _answers(index) == _answers(oracle)

    @settings(max_examples=15, deadline=None)
    @given(feeds=_split_feeds(24))
    def test_any_split_with_one_failure(self, feeds):
        self._check(_records(24, seed=6), feeds)

    @pytest.mark.slow
    @settings(max_examples=60, deadline=None)
    @given(feeds=_split_feeds(150))
    def test_any_split_with_one_failure_full(self, feeds):
        self._check(_records(150, seed=6), feeds)


class TestStreamingOracle:
    def test_streamed_corpus_equals_in_memory_records(self, tmp_path):
        corpus = tmp_path / "dblp.xml"
        generator = DblpGenerator(DblpConfig(seed=9))
        count = generator.write_corpus(corpus, 40)
        assert count == 40
        a = _memory_index()
        a.add_batch(DblpGenerator(DblpConfig(seed=9)).records(40))
        b = _memory_index()
        ids = b.add_batch(
            iter_stream_records(corpus, list(DBLP_LABELS), keep_spine=False),
            batch_size=9,
        )
        assert ids == list(range(40))
        assert _answers(b) == _answers(a)


class TestIngestCommand:
    def _corpus(self, tmp_path, count=40, seed=2):
        corpus = tmp_path / "dblp.xml"
        write_corpus(corpus, count, DblpConfig(seed=seed))
        return corpus

    def test_ingest_matches_index_command(self, tmp_path, capsys):
        corpus = self._corpus(tmp_path)
        split = ",".join(DBLP_LABELS)
        assert main(["index", str(tmp_path / "a"), str(corpus), "--split", split]) == 0
        assert (
            main(
                [
                    "ingest",
                    str(tmp_path / "b"),
                    str(corpus),
                    "--split",
                    split,
                    "--batch-size",
                    "16",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ingested 40 record(s)" in out
        a = open_index(tmp_path / "a")
        b = open_index(tmp_path / "b")
        try:
            assert len(a) == len(b) == 40
            for q in QUERIES:
                assert sorted(a.query(q)) == sorted(b.query(q))
        finally:
            for idx in (a, b):
                idx.close()
                idx.docstore.close()
                idx.source_store.close()

    def test_ingest_then_query_cli(self, tmp_path, capsys):
        corpus = self._corpus(tmp_path)
        db = str(tmp_path / "db")
        split = ",".join(DBLP_LABELS)
        assert main(["ingest", db, str(corpus), "--split", split]) == 0
        capsys.readouterr()
        assert main(["query", db, "//book[author='David Maier']"]) == 0
        assert "1 match(es)" in capsys.readouterr().out
        assert main(["check", db]) == 0

    def test_ingest_sharded(self, tmp_path, capsys):
        corpus = self._corpus(tmp_path)
        split = ",".join(DBLP_LABELS)
        single = str(tmp_path / "single")
        sharded = str(tmp_path / "sharded")
        assert main(["ingest", single, str(corpus), "--split", split]) == 0
        assert (
            main(
                [
                    "ingest",
                    sharded,
                    str(corpus),
                    "--split",
                    split,
                    "--shards",
                    "3",
                    "--batch-size",
                    "11",
                ]
            )
            == 0
        )
        assert "3 shard(s)" in capsys.readouterr().out
        capsys.readouterr()
        for q in ("//book", "//article"):
            assert main(["query", single, q]) == 0
            single_out = capsys.readouterr().out
            assert main(["query", sharded, q]) == 0
            sharded_out = capsys.readouterr().out
            # global ids are assigned in stream order in both layouts,
            # so the answer sets must be identical (the render differs:
            # set for single-directory, sorted list for sharded)
            def ids_of(out):
                import re

                return sorted(int(x) for x in re.findall(r"\d+", out.split("): ")[1]))

            assert ids_of(single_out) == ids_of(sharded_out)

    def test_ingest_durability_none(self, tmp_path, capsys):
        corpus = self._corpus(tmp_path, count=15)
        db = str(tmp_path / "db")
        split = ",".join(DBLP_LABELS)
        assert (
            main(["ingest", db, str(corpus), "--split", split, "--durability", "none"])
            == 0
        )
        assert "ingested 15 record(s)" in capsys.readouterr().out
        assert main(["check", db]) == 0


class TestEncodingRegression:
    def test_index_honours_declared_encoding(self, tmp_path, capsys):
        # regression: cmd_index used read_text() (locale decoding) and
        # either crashed or mojibake'd non-UTF-8 corpora
        text = (
            '<?xml version="1.0" encoding="ISO-8859-1"?>\n'
            "<shop><item><name>café</name></item></shop>"
        )
        path = tmp_path / "latin1.xml"
        path.write_bytes(text.encode("latin-1"))
        db = str(tmp_path / "db")
        assert main(["index", db, str(path)]) == 0
        capsys.readouterr()
        assert main(["query", db, "//item[name='café']"]) == 0
        assert "1 match(es)" in capsys.readouterr().out


class TestDatasetWriters:
    def test_dblp_corpus_roundtrip(self, tmp_path):
        corpus = tmp_path / "dblp.xml"
        assert write_corpus(corpus, 25, DblpConfig(seed=1)) == 25
        head = corpus.read_text(encoding="utf-8")
        assert head.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        records = list(
            iter_stream_records(corpus, list(DBLP_LABELS), keep_spine=False)
        )
        assert len(records) == 25
        assert records[0].attributes["key"] == "books/bc/MaierW88"

    def test_xmark_corpus_roundtrip(self, tmp_path):
        corpus = tmp_path / "xmark.xml"
        generator = XmarkGenerator()
        assert generator.write_corpus(corpus, 30) == 30
        records = list(iter_stream_records(corpus, ["site"], keep_spine=False))
        assert len(records) == 30
        assert all(r.label == "site" for r in records)
