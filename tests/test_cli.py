"""Tests for the command-line interface (index / query / stats)."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.datasets.dblp import DblpConfig, DblpGenerator
from repro.dbdir import open_db
from repro.errors import IndexFormatError
from repro.query.xpath import parse_xpath
from repro.sequence.transform import SequenceEncoder
from repro.testing.reference import reference_results

PURCHASES = """
<purchases>
  <purchase>
    <seller location="boston"><item><manufacturer>intel</manufacturer></item></seller>
    <buyer location="newyork"/>
  </purchase>
  <purchase>
    <seller location="seattle"/>
    <buyer location="boston"/>
  </purchase>
</purchases>
"""

DTD = """
<!ELEMENT article (title, author+, year)>
<!ATTLIST article key CDATA>
"""


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "purchases.xml"
    path.write_text(PURCHASES)
    return path


class TestIndexCommand:
    def test_index_whole_document(self, tmp_path, xml_file, capsys):
        assert main(["index", str(tmp_path / "db"), str(xml_file)]) == 0
        assert "indexed 1 record(s)" in capsys.readouterr().out

    def test_index_with_split(self, tmp_path, xml_file, capsys):
        rc = main(
            ["index", str(tmp_path / "db"), str(xml_file), "--split", "purchase"]
        )
        assert rc == 0
        assert "indexed 2 record(s)" in capsys.readouterr().out

    def test_incremental_indexing(self, tmp_path, xml_file, capsys):
        db = str(tmp_path / "db")
        main(["index", db, str(xml_file), "--split", "purchase"])
        main(["index", db, str(xml_file), "--split", "purchase"])
        capsys.readouterr()
        main(["stats", db])
        assert "documents: 4" in capsys.readouterr().out


    def test_index_commits_every_thousand_records(
        self, tmp_path, monkeypatch, capsys
    ):
        """``repro index`` shares ingest's batch write path: one commit per
        1 000 records, not one journal of the whole tree at close."""
        from repro.index.vist import VistIndex

        path = tmp_path / "many.xml"
        path.write_text("<r>" + "<p><q>v</q></p>" * 1001 + "</r>")
        commits = []
        flush = VistIndex.flush
        monkeypatch.setattr(
            VistIndex, "flush", lambda self: (commits.append(len(self)), flush(self))
        )
        db = str(tmp_path / "db")
        assert main(["index", db, str(path), "--split", "p"]) == 0
        assert "indexed 1001 record(s)" in capsys.readouterr().out
        assert commits[:2] == [1000, 1001]
        assert not (tmp_path / "db" / "vist.db.wal").exists()


class TestQueryCommand:
    def test_query_roundtrip(self, tmp_path, xml_file, capsys):
        db = str(tmp_path / "db")
        main(["index", db, str(xml_file), "--split", "purchase"])
        capsys.readouterr()
        rc = main(["query", db, "/purchases/purchase/seller[location='boston']"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 match(es)" in out

    def test_query_with_wildcards(self, tmp_path, xml_file, capsys):
        db = str(tmp_path / "db")
        main(["index", db, str(xml_file), "--split", "purchase"])
        capsys.readouterr()
        main(["query", db, "//seller[location='boston']"])
        assert "1 match(es)" in capsys.readouterr().out
        main(["query", db, "/purchases/purchase/*[location='boston']"])
        assert "2 match(es)" in capsys.readouterr().out

    def test_verify_flag(self, tmp_path, xml_file, capsys):
        db = str(tmp_path / "db")
        main(["index", db, str(xml_file)])
        capsys.readouterr()
        main(["query", db, "//manufacturer[text='intel']", "--verify"])
        out = capsys.readouterr().out
        assert "verified" in out and "1 match(es)" in out

    def test_show_flag_prints_sequences(self, tmp_path, xml_file, capsys):
        db = str(tmp_path / "db")
        main(["index", db, str(xml_file)])
        capsys.readouterr()
        main(["query", db, "/purchases", "--show"])
        out = capsys.readouterr().out
        assert "doc 0:" in out

    def test_bad_query_reports_error(self, tmp_path, xml_file, capsys):
        db = str(tmp_path / "db")
        main(["index", db, str(xml_file)])
        capsys.readouterr()
        assert main(["query", db, "not a query ["]) == 1
        assert "error:" in capsys.readouterr().err


class TestNodesAndRemoveCommands:
    def test_nodes_command(self, tmp_path, xml_file, capsys):
        db = str(tmp_path / "db")
        main(["index", db, str(xml_file), "--split", "purchase"])
        capsys.readouterr()
        assert main(["nodes", db, "/purchases/purchase/seller"]) == 0
        out = capsys.readouterr().out
        assert "2 node(s) in 2 document(s)" in out
        assert ":seller" in out

    def test_remove_command(self, tmp_path, xml_file, capsys):
        db = str(tmp_path / "db")
        main(["index", db, str(xml_file), "--split", "purchase"])
        capsys.readouterr()
        assert main(["remove", db, "0"]) == 0
        assert "removed 1 document(s)" in capsys.readouterr().out
        main(["stats", db])
        assert "documents: 1" in capsys.readouterr().out

    def test_remove_unknown_id(self, tmp_path, xml_file, capsys):
        db = str(tmp_path / "db")
        main(["index", db, str(xml_file)])
        capsys.readouterr()
        assert main(["remove", db, "99"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "0 document(s) removed before the error" in captured.err
        assert "removed" not in captured.out  # no success line for a failed run

    @pytest.mark.parametrize("shards", [None, 2])
    def test_remove_fails_midway_reports_count_on_stderr(
        self, tmp_path, xml_file, capsys, shards
    ):
        """Both branches (single index, sharded): the ids before the bad one
        are gone, the count of them is on stderr, the exit code is 1."""
        db = str(tmp_path / "db")
        build = ["index", db, str(xml_file), "--split", "purchase"]
        main(build + (["--shards", str(shards)] if shards else []))
        capsys.readouterr()
        assert main(["remove", db, "0", "99", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1 document(s) removed before the error" in captured.err
        assert "error:" in captured.err and "99" in captured.err
        main(["query", db, "//purchase"])
        assert "1 match(es)" in capsys.readouterr().out  # doc 1 was never reached


class _ReversedOrderEncoder(SequenceEncoder):
    """Siblings in reverse label order: a stand-in for the order a DTD
    imposed when ``--schema`` existed, which this build never writes."""

    @staticmethod
    def sibling_sort_key(entry):
        position, child = entry
        if child.is_value:
            return (0, (), position)
        return (1, tuple(-ord(c) for c in child.label) + (1,), position)


class TestSchemaHandling:
    QUERIES = [
        "/article[author][title][year]",
        "/*[author][title][year]",
        "//author",
        "/inproceedings[booktitle]/year",
    ]
    REMOVED = (3, 17)

    @pytest.mark.parametrize("shards", [None, 2], ids=["flat", "sharded"])
    def test_schema_dbdir_refused_then_salvaged(
        self, tmp_path, capsys, monkeypatch, shards
    ):
        """A DBDIR written in a schema's sibling order (it holds
        ``schema.dtd``, per shard too) is refused by every command, naming
        salvage; ``repro salvage`` re-encodes it from its sources in label
        order, keeping ids and tombstones."""
        db = tmp_path / "db"
        records = list(DblpGenerator(DblpConfig(seed=5)).records(60))
        with monkeypatch.context() as patch:
            patch.setattr("repro.dbdir.SequenceEncoder", _ReversedOrderEncoder)
            with open_db(db, shards) as old:
                assert old.add_batch(records) == list(range(len(records)))
                for doc_id in self.REMOVED:
                    old.remove(doc_id)
        for path in [db] + sorted(db.glob("shard-*")):
            (path / "schema.dtd").write_text(DTD)

        with pytest.raises(IndexFormatError, match="repro salvage DBDIR"):
            open_db(db)
        assert main(["query", str(db), self.QUERIES[0]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "salvage" in err and "Traceback" not in err
        assert main(["scrub", str(db)]) == 2
        assert "salvage" in capsys.readouterr().out

        assert main(["salvage", str(db)]) == 0
        out = capsys.readouterr().out
        assert f"rebuilt {len(records) - len(self.REMOVED)} document(s)" in out
        assert f"+{len(self.REMOVED)} tombstone(s)" in out
        assert "in label order" in out
        assert list(db.rglob("schema.dtd")) == []
        assert main(["check", str(db)]) == 0
        assert main(["scrub", str(db)]) == 0
        capsys.readouterr()

        live = {i: r for i, r in enumerate(records) if i not in self.REMOVED}
        with open_db(db) as upgraded:
            assert len(upgraded) == len(live)
            hasher = upgraded.shards[0].encoder.hasher
            for xpath in self.QUERIES:
                query = parse_xpath(xpath)
                want = [
                    list(live)[pos]
                    for pos in reference_results(list(live.values()), query, hasher)
                ]
                assert want, xpath
                assert upgraded.query(xpath) == want, xpath
                assert upgraded.query(xpath, verify=True) == want, xpath

    def test_stats_output(self, tmp_path, xml_file, capsys):
        db = str(tmp_path / "db")
        main(["index", db, str(xml_file)])
        capsys.readouterr()
        assert main(["stats", db]) == 0
        out = capsys.readouterr().out
        assert "documents: 1" in out
        assert "combined:" in out
        assert "docid:" in out
        assert out.count("node cache:") == 1
        assert "descent cache" not in out and "buffer pool" not in out


class TestExplainAndMetrics:
    BRANCH_QUERY = "/purchases/purchase[buyer]//seller[location='boston']"

    def _db(self, tmp_path, xml_file, capsys):
        db = str(tmp_path / "db")
        main(["index", db, str(xml_file), "--split", "purchase"])
        capsys.readouterr()
        return db

    @pytest.mark.parametrize("engine", ["vist", "rist", "naive"])
    def test_explain_prints_span_tree_per_engine(
        self, tmp_path, xml_file, capsys, engine
    ):
        db = self._db(tmp_path, xml_file, capsys)
        rc = main(
            ["query", db, self.BRANCH_QUERY, "--explain", "--engine", engine]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 match(es)" in out
        assert "query [" in out and "ms]" in out
        assert "translate [" in out
        assert "match alt 0 [" in out
        if engine == "naive":
            assert "naive-walk" in out and "search_states=" in out
        else:
            assert "level 0 [" in out
            assert "page_reads=" in out and "candidates=" in out

    def test_alternate_engines_translate_doc_ids(self, tmp_path, xml_file, capsys):
        """RIST/Naive renumber internally; the CLI must answer with the
        on-disk document ids (doc 1 here — doc 0's seller is in boston
        but has no boston buyer)."""
        db = self._db(tmp_path, xml_file, capsys)
        query = "/purchases/purchase/buyer[location='boston']"
        answers = set()
        for engine in ("vist", "rist", "naive"):
            main(["query", db, query, "--engine", engine])
            out = capsys.readouterr().out
            assert "1 match(es)" in out
            answers.add(out[out.index(":") :])
        assert len(answers) <= 2  # list vs set rendering; same single id
        for engine in ("rist", "naive"):
            main(["query", db, query, "--engine", engine])
            assert "{1}" in capsys.readouterr().out

    def test_profile_prints_one_node_cache_line(self, tmp_path, xml_file, capsys):
        db = self._db(tmp_path, xml_file, capsys)
        assert main(["query", db, self.BRANCH_QUERY, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "match effort:" in out and "posting cache:" in out
        (line,) = [ln for ln in out.splitlines() if ln.startswith("node cache:")]
        assert " hits / " in line and " misses (" in line and "writeback(s)" in line
        assert "descent cache" not in out and "buffer pool" not in out

    def test_stats_json_dumps_full_registry(self, tmp_path, xml_file, capsys):
        import json as _json

        db = self._db(tmp_path, xml_file, capsys)
        main(["query", db, self.BRANCH_QUERY])
        capsys.readouterr()
        assert main(["stats", db, "--json"]) == 0
        snap = _json.loads(capsys.readouterr().out)
        assert snap["documents"] == 2
        for key in ("health", "pager", "queries", "tree", "buffer_pool"):
            assert key in snap, f"registry dump missing {key!r}"
        # every physical read is a node-cache miss and the other way round
        assert snap["buffer_pool"]["misses"] == snap["pager"]["reads"] > 0
        assert snap["health"]["status"] == "ok"
        assert set(snap["tree"]) == {"combined", "docid"}

    def test_stats_json_on_a_sharded_dbdir(self, tmp_path, xml_file, capsys):
        import json as _json

        db = str(tmp_path / "sdb")
        main(["index", db, str(xml_file), "--split", "purchase", "--shards", "2"])
        capsys.readouterr()
        assert main(["stats", db, "--json"]) == 0
        snap = _json.loads(capsys.readouterr().out)
        assert snap["documents"] == 2
        for shard in snap["shard"].values():
            assert shard["buffer_pool"]["misses"] == shard["pager"]["reads"]


# ---------------------------------------------------------------------------
# one handle, two layouts: a flat DBDIR and a sharded one answer alike

DBLP_SPLIT = "article,inproceedings,book,incollection,phdthesis"
LAYOUTS = {"flat": None, "sharded": 2}


@pytest.fixture(scope="module")
def dblp_corpus(tmp_path_factory):
    from repro.datasets.dblp import DblpConfig, write_corpus

    path = tmp_path_factory.mktemp("corpus") / "dblp.xml"
    write_corpus(path, 400, DblpConfig(seed=7))
    return path


def _ingest(db, corpus, shards):
    build = ["ingest", str(db), str(corpus), "--split", DBLP_SPLIT]
    assert main(build + (["--shards", str(shards)] if shards else [])) == 0


def _ids(out: str) -> list[int]:
    """The doc ids of a ``query`` answer line."""
    import re

    (line,) = [ln for ln in out.splitlines() if " match(es) (" in ln]
    return [int(x) for x in re.findall(r"\d+", line.split("): ", 1)[1])]


def _nodes(out: str) -> dict[int, list[int]]:
    """``nodes`` output as doc id -> matched positions."""
    result = {}
    for line in out.splitlines():
        if line.startswith("  doc "):
            head, rendered = line[len("  doc "):].split(": ", 1)
            result[int(head)] = [int(p.split(":")[0]) for p in rendered.split(", ")]
    return result


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_layout_parity(tmp_path, capsys, dblp_corpus, layout):
    """Every command body is written once, against the DBDIR handle, so a
    flat and a sharded DBDIR answer exactly what one in-memory index over
    the same records answers: global ids are assigned in stream order."""
    import json as _json

    from repro.doc.stream import iter_stream_records
    from repro.index.vist import VistIndex

    reference = VistIndex()
    reference.add_batch(iter_stream_records(dblp_corpus, DBLP_SPLIT.split(",")))
    db = str(tmp_path / "db")
    _ingest(db, dblp_corpus, LAYOUTS[layout])
    capsys.readouterr()
    queries = ("//article/author", "//inproceedings[year]/title", "//phdthesis/year")

    for xpath in queries:
        for verify in (False, True):
            assert main(["query", db, xpath] + (["--verify"] if verify else [])) == 0
            assert _ids(capsys.readouterr().out) == reference.query(xpath, verify=verify)
    assert main(["nodes", db, "//book/title"]) == 0
    assert _nodes(capsys.readouterr().out) == reference.query_nodes("//book/title")

    removed = [3, 57, 210]
    assert main(["remove", db] + [str(doc_id) for doc_id in removed]) == 0
    assert "removed 3 document(s)" in capsys.readouterr().out
    for doc_id in removed:
        reference.remove(doc_id)
    for xpath in queries:
        assert main(["query", db, xpath]) == 0
        assert _ids(capsys.readouterr().out) == reference.query(xpath)

    assert main(["check", db]) == 0
    assert "all invariants hold" in capsys.readouterr().out
    assert main(["scrub", db]) == 0
    capsys.readouterr()
    assert main(["stats", db, "--json"]) == 0
    assert _json.loads(capsys.readouterr().out)["documents"] == len(reference)


def _degraded_db(tmp_path, corpus, shards, xpath):
    """A DBDIR whose first index has one flipped byte in the last page a
    fresh open reads to answer ``xpath``: the query degrades to the
    docstore and stays right.  Returns (dbdir, first index directory)."""
    from repro.dbdir import TREE_FILE, close_index, open_index, shard_dirs
    from repro.storage.pager import page_offset
    from repro.storage.wal import WalPager

    db = tmp_path / "db"
    _ingest(db, corpus, shards)
    first = shard_dirs(db)[0]
    index = open_index(first)
    reads = []
    read = WalPager.read
    WalPager.read = lambda self, page_id: (reads.append(page_id), read(self, page_id))[1]
    try:
        index.query(xpath)
    finally:
        WalPager.read = read
        close_index(index)
    with open(first / TREE_FILE, "r+b") as fh:
        offset = page_offset(reads[-1], 4096) + 64
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))
    return str(db), first


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_degraded_answer_is_tagged_and_recorded_on_every_layout(
    tmp_path, capsys, dblp_corpus, layout
):
    from repro.dbdir import HEALTH_FILE

    xpath = "//article/author"
    db, first = _degraded_db(tmp_path, dblp_corpus, LAYOUTS[layout], xpath)
    capsys.readouterr()
    assert main(["query", db, xpath]) == 0
    captured = capsys.readouterr()
    assert ", degraded)" in captured.out
    assert "health: read-suspect" in captured.err
    assert (first / HEALTH_FILE).exists()
    # salvage rebuilds the damaged index and clears its sidecar
    assert main(["salvage", db]) == 0
    assert not (first / HEALTH_FILE).exists()
    capsys.readouterr()
    assert main(["query", db, xpath]) == 0
    captured = capsys.readouterr()
    assert "degraded" not in captured.out and captured.err == ""


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_stats_prints_the_health_report_before_the_damage_stops_it(
    tmp_path, capsys, dblp_corpus, layout
):
    """README sends a damaged DBDIR's user to `repro stats`: its recorded
    health comes out even though walking the damaged tree exits 3."""
    xpath = "//article/author"
    db, _first = _degraded_db(tmp_path, dblp_corpus, LAYOUTS[layout], xpath)
    main(["query", db, xpath])
    capsys.readouterr()
    assert main(["stats", db]) == 3
    captured = capsys.readouterr()
    assert "health: read-suspect (recorded by an earlier run" in captured.out
    assert "corrupt data:" in captured.err


class TestLayoutIsKept:
    def test_index_shards_on_a_flat_dbdir_is_refused(self, tmp_path, xml_file, capsys):
        db = str(tmp_path / "db")
        assert main(["index", db, str(xml_file), "--split", "purchase"]) == 0
        capsys.readouterr()
        rc = main(["index", db, str(xml_file), "--split", "purchase", "--shards", "2"])
        assert rc == 1
        assert "flat DBDIR" in capsys.readouterr().err
        assert not (tmp_path / "db" / "shards.json").exists()
        main(["query", db, "//purchase"])
        assert "2 match(es)" in capsys.readouterr().out  # nothing hidden

    def test_router_refuses_nshards_on_a_flat_dbdir(self, tmp_path, xml_file):
        from repro.errors import IndexStateError
        from repro.shard import ShardRouter

        db = tmp_path / "db"
        assert main(["index", str(db), str(xml_file), "--split", "purchase"]) == 0
        with pytest.raises(IndexStateError, match="flat DBDIR"):
            ShardRouter(db, 2)
        with ShardRouter(db) as router:  # the flat DBDIR, as one shard
            assert (router.flat, router.nshards, len(router)) == (True, 1, 2)
            assert router.shard_dirs() == [db]
        assert not (db / "shards.json").exists()


def test_closed_stdout_pipe_exits_quietly(tmp_path, xml_file):
    """A reader that leaves after one line (`repro … | head -1`) ends the
    command with exit code 0 and nothing on stderr, not a traceback."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    db = tmp_path / "db"
    assert main(["index", str(db), str(xml_file), "--split", "purchase"]) == 0
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    # stdin serve answers one line per query line, so the second answer
    # is written only after the pipe has closed
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(db)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        proc.stdin.write("//purchase\n")
        proc.stdin.flush()
        assert "2 match(es)" in proc.stdout.readline()
        proc.stdout.close()
        proc.stdin.write("//seller\n")
        proc.stdin.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
