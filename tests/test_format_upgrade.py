"""The entry-format stamp and the upgrade path, tested without old code.

There is one decoder.  A tree created by this build carries
``META_FORMAT_KEY``; a non-empty tree without it (or with another number)
cannot be opened, and the typed error names ``repro salvage`` — which
rebuilds the index from the *sequence* half of every stored payload, bytes
that are the same in every entry format.  The old layout is hand-built
here, byte by byte; nothing in ``src/`` can read it.

A sharded DBDIR's manifest carries a routing version the same way:
version 1 placed documents by crc32 of their id, and only ``repro
reshard`` reads it; every other command refuses it, naming that command.
"""

from __future__ import annotations

import json
import struct
from binascii import crc32
from pathlib import Path

import pytest

from repro.bench.workloads import TABLE3_QUERIES
from repro.cli import main, open_index
from repro.datasets.dblp import DblpConfig, DblpGenerator
from repro.errors import IndexFormatError, StorageError
from repro.index.store import (
    ENTRY_FORMAT,
    META_FORMAT_KEY,
    META_REMOVED_KEY,
    RESERVED_KEYS,
    ROOT_KEY,
    decode_node_key,
)
from repro.index.vist import VistIndex
from repro.labeling.dynamic import DEFAULT_MAX, NodeState
from repro.query.xpath import parse_xpath
from repro.repair import salvage_db
from repro.sequence.transform import SequenceEncoder
from repro.shard import ShardRouter
from repro.shard.routing import shard_dir
from repro.storage.docstore import FileDocStore
from repro.storage.wal import WalPager
from repro.storage.serialization import decode_uint, encode_uint
from repro.testing.invariants import assert_invariants
from repro.testing.reference import reference_matches

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

DBLP_QUERIES = [q.xpath for q in TABLE3_QUERIES if q.dataset == "dblp"]
REMOVED = (5, 17)  # tombstones: salvage keeps ids positional across them


def _records():
    return list(DblpGenerator(DblpConfig(seed=3)).records(120))


def _close(index: VistIndex) -> None:
    index.flush()
    index.close()
    index.docstore.close()
    if index.source_store is not None:
        index.source_store.close()


def _build(dbdir: Path) -> None:
    index = open_index(dbdir)
    index.add_batch(_records(), durability="none")
    for doc_id in REMOVED:
        index.remove(doc_id)
    _close(index)


def _answers(dbdir: Path) -> dict[str, list[int]]:
    index = open_index(dbdir)
    try:
        assert_invariants(index)
        return {q: index.query(q, verify=True) for q in DBLP_QUERIES}
    finally:
        _close(index)


def _drop_stamp(dbdir: Path) -> None:
    index = open_index(dbdir)
    assert index.tree.delete(META_FORMAT_KEY) == 1
    _close(index)


@pytest.fixture(scope="module")
def fresh_answers(tmp_path_factory) -> dict[str, list[int]]:
    dbdir = tmp_path_factory.mktemp("fresh") / "db"
    _build(dbdir)
    answers = _answers(dbdir)
    assert len(answers) == 5 and all(answers.values())
    return answers


# ---------------------------------------------------------------------------
# (a) the stamp


def test_new_tree_is_stamped(tmp_path):
    index = open_index(tmp_path / "db")
    assert index.tree.get(META_FORMAT_KEY) == encode_uint(ENTRY_FORMAT)
    _close(index)
    _close(open_index(tmp_path / "db"))  # and reopens


def test_unstamped_tree_cannot_be_opened(tmp_path, capsys):
    dbdir = tmp_path / "db"
    _build(dbdir)
    _drop_stamp(dbdir)
    with pytest.raises(IndexFormatError, match="repro salvage"):
        open_index(dbdir)
    assert main(["query", str(dbdir), "/book"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "salvage" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_other_format_number_cannot_be_opened(tmp_path):
    dbdir = tmp_path / "db"
    _build(dbdir)
    index = open_index(dbdir)
    index.tree.put(META_FORMAT_KEY, encode_uint(ENTRY_FORMAT + 1))
    _close(index)
    with pytest.raises(IndexFormatError, match=f"format {ENTRY_FORMAT + 1}.*salvage"):
        open_index(dbdir)


# ---------------------------------------------------------------------------
# (b) an old-layout DBDIR, built by hand


def _chain_next(index: VistIndex, state: NodeState) -> int:
    """The cursor the old formats stored: the first id after the chain's
    ``k`` children, ``lo + k·W//(k+1)``."""
    k = state.chain.k
    width = index.allocator.usable_size(state.scope)
    return state.scope.n + 1 + k * width // (k + 1)


def _traversals(index: VistIndex) -> dict[int, int]:
    """The reference count formats 1-3 stored in every entry: how many
    live documents' insert paths pass through each node."""
    counts: dict[int, int] = {}
    for doc_id in index.docstore.ids():
        for n in index._parse_payload(index.docstore.get(doc_id))[1]:
            counts[n] = counts.get(n, 0) + 1
    return counts


def _rewrite_entries(index: VistIndex, state_bytes) -> None:
    """Re-encode every node entry, root included, with
    ``state_bytes(index, state, refs)``."""
    refs = _traversals(index)
    for key, value in list(index.tree.items()):
        if key in RESERVED_KEYS - {ROOT_KEY}:
            continue
        n = 0 if key == ROOT_KEY else decode_node_key(key)[2]
        state = NodeState.from_bytes(n, value)
        index.tree.put(key, state_bytes(index, state, refs.get(n, 0)))


def _old_state_bytes(index: VistIndex, state: NodeState, refs: int) -> bytes:
    """The nine-integer ``NodeState`` the format stamp replaced:
    ``[flags][size][parent_n][refs][reserve_used]`` then ``(k, next,
    remaining)`` for each of the plain / value / extra chains (the last
    two idle here)."""
    scope = state.scope
    out = bytes([1 if state.private else 0])
    for field in (scope.size, state.parent_n, refs, state.reserve_used):
        out += encode_uint(field)
    region_end = scope.n + 1 + index.allocator.usable_size(scope)
    k = state.chain.k
    cursor = _chain_next(index, state) if k else 0
    remaining = region_end - cursor if k else 0
    out += encode_uint(k) + encode_uint(cursor) + encode_uint(remaining)
    return out + 6 * encode_uint(0)


def _rewrite_in_old_layout(dbdir: Path) -> None:
    """Turn a DBDIR of this build into what the previous one wrote: no
    format stamp, absolute cursors in every tree value, and docstore
    payloads as ``[len][sequence bytes][absolute labels]``."""
    index = open_index(dbdir)
    _rewrite_entries(index, _old_state_bytes)
    index.tree.delete(META_FORMAT_KEY)
    old_docs = FileDocStore(dbdir / "docs.dat.old")
    for doc_id in range(index.docstore.id_bound):
        if doc_id in index.docstore:
            payload = index.docstore.get(doc_id)
            seq_len, offset = decode_uint(payload)
            _, labels = index._parse_payload(payload)
            old_docs.add(
                payload[: offset + seq_len] + b"".join(encode_uint(n) for n in labels)
            )
        else:
            old_docs.remove(old_docs.add(b""))
    old_docs.close()
    _close(index)
    (dbdir / "docs.dat.old").replace(dbdir / "docs.dat")


def test_salvage_upgrades_a_hand_built_old_layout(tmp_path, capsys, fresh_answers):
    dbdir = tmp_path / "db"
    _build(dbdir)
    new_size = (dbdir / "docs.dat").stat().st_size
    _rewrite_in_old_layout(dbdir)
    # the hand-built payloads really are the wide ones: absolute 128-bit
    # labels cost ~16 bytes each where the deltas cost a few
    assert (dbdir / "docs.dat").stat().st_size > 1.5 * new_size
    with pytest.raises(IndexFormatError, match="salvage"):
        open_index(dbdir)

    assert main(["salvage", str(dbdir)]) == 0
    out = capsys.readouterr().out
    assert f"rebuilt {120 - len(REMOVED)} document(s)" in out
    assert f"+{len(REMOVED)} tombstone(s)" in out

    assert _answers(dbdir) == fresh_answers
    # back to narrow payloads (tombstones now burn an empty record)
    assert (dbdir / "docs.dat").stat().st_size <= new_size
    index = open_index(dbdir)
    assert index.tree.get(META_FORMAT_KEY) == encode_uint(ENTRY_FORMAT)
    assert all(doc_id not in index.docstore for doc_id in REMOVED)
    _close(index)


def _format2_state_bytes(index: VistIndex, state: NodeState, refs: int) -> bytes:
    """What format 2 wrote: ``[flags][size][n − parent_n][refs]``, then
    ``reserve_used`` behind flag 0x02 and the λ-chain's ``(k, next − n)``
    behind flag 0x04 — the cursor format 3 derives from ``k``."""
    n = state.scope.n
    flags = 0x01 if state.private else 0
    tail = b""
    if state.reserve_used:
        flags |= 0x02
        tail += encode_uint(state.reserve_used)
    if state.chain.k:
        flags |= 0x04
        tail += encode_uint(state.chain.k) + encode_uint(_chain_next(index, state) - n)
    return (
        bytes([flags])
        + encode_uint(state.scope.size)
        + encode_uint(n - state.parent_n)
        + encode_uint(refs)
        + tail
    )


def _varint_size_state_bytes(state: NodeState, middle: bytes = b"") -> bytes:
    """``[flags][size][n − parent_n]``, then ``middle``, then
    ``reserve_used`` behind flag 0x02 and the λ-chain's ``k`` behind flag
    0x04: the layout formats 3-5 wrote, every size an exact varint."""
    flags = 0x01 if state.private else 0
    tail = b""
    if state.reserve_used:
        flags |= 0x02
        tail += encode_uint(state.reserve_used)
    if state.chain.k:
        flags |= 0x04
        tail += encode_uint(state.chain.k)
    return (
        bytes([flags])
        + encode_uint(state.scope.size)
        + encode_uint(state.scope.n - state.parent_n)
        + middle
        + tail
    )


def _format3_state_bytes(index: VistIndex, state: NodeState, refs: int) -> bytes:
    """What format 3 wrote: ``[flags][size][n − parent_n][refs]`` and the
    flagged tail."""
    return _varint_size_state_bytes(state, encode_uint(refs))


def _format5_state_bytes(index: VistIndex, state: NodeState, refs: int) -> bytes:
    """What formats 4 and 5 wrote: ``[flags][size][n − parent_n]`` and the
    flagged tail — a shared node's size a varint, not a two-byte
    ``m·2^e``."""
    return _varint_size_state_bytes(state)


def _rewrite_in_format(dbdir: Path, fmt: int, state_bytes, removed=()) -> None:
    """Re-encode every entry with ``state_bytes`` and stamp ``fmt``; a
    ``removed`` id is stamped as removed by the last commit, its
    tombstones cut off as a crash after that commit leaves them."""
    index = open_index(dbdir)
    _rewrite_entries(index, state_bytes)
    index.tree.put(META_FORMAT_KEY, encode_uint(fmt))
    if removed:
        index.tree.put(META_REMOVED_KEY, b"".join(encode_uint(i) for i in removed))
    _close(index)


def test_salvage_upgrades_a_format_2_dbdir(tmp_path, fresh_answers):
    """A DBDIR whose entries still carry the stored cursor refuses to
    open, naming ``salvage``; salvage rebuilds it at this format with the
    same answers and a smaller ``vist.db``."""
    dbdir = tmp_path / "db"
    _build(dbdir)
    _rewrite_in_format(dbdir, 2, _format2_state_bytes)
    old_size = (dbdir / "vist.db").stat().st_size
    with pytest.raises(IndexFormatError, match="format 2.*salvage"):
        open_index(dbdir)

    assert main(["salvage", str(dbdir)]) == 0
    assert _answers(dbdir) == fresh_answers
    assert (dbdir / "vist.db").stat().st_size < old_size
    index = open_index(dbdir)
    assert index.tree.get(META_FORMAT_KEY) == encode_uint(ENTRY_FORMAT)
    _close(index)


def test_salvage_upgrades_a_format_3_dbdir(tmp_path, fresh_answers):
    """A DBDIR whose entries still carry a reference count refuses to
    open, naming ``salvage``; salvage rebuilds it at this format with the
    same answers."""
    dbdir = tmp_path / "db"
    _build(dbdir)
    _rewrite_in_format(dbdir, 3, _format3_state_bytes)
    with pytest.raises(IndexFormatError, match="format 3.*salvage"):
        open_index(dbdir)

    assert main(["salvage", str(dbdir)]) == 0
    assert _answers(dbdir) == fresh_answers
    index = open_index(dbdir)
    assert index.tree.get(META_FORMAT_KEY) == encode_uint(ENTRY_FORMAT)
    assert all(doc_id not in index.docstore for doc_id in REMOVED)
    _close(index)


def test_salvage_upgrades_a_format_5_dbdir(tmp_path, capsys, fresh_answers):
    """A DBDIR whose shared sizes are varints is refused on open and by
    scrub, both naming ``salvage``.  Format 5 has this build's page
    layout, so salvage reads the old removal stamp and applies it: a
    document whose removal committed but whose tombstones were cut off
    stays removed, beside the tombstones the stores already hold."""
    dbdir = tmp_path / "db"
    _build(dbdir)
    cut = min(doc_id for answer in fresh_answers.values() for doc_id in answer)
    _rewrite_in_format(dbdir, 5, _format5_state_bytes, removed=(cut,))
    old_size = (dbdir / "vist.db").stat().st_size
    with pytest.raises(IndexFormatError, match="format 5.*salvage"):
        open_index(dbdir)
    assert main(["scrub", str(dbdir)]) != 0
    assert "salvage" in capsys.readouterr().out

    assert main(["salvage", str(dbdir)]) == 0
    out = capsys.readouterr().out
    assert f"rebuilt {120 - len(REMOVED) - 1} document(s)" in out
    assert f"+{len(REMOVED) + 1} tombstone(s)" in out
    assert "unreadable" not in out
    expected = {q: [d for d in ids if d != cut] for q, ids in fresh_answers.items()}
    assert expected != fresh_answers  # the stamp is what removes ``cut``
    assert _answers(dbdir) == expected
    assert (dbdir / "vist.db").stat().st_size < old_size
    index = open_index(dbdir)
    assert index.tree.get(META_FORMAT_KEY) == encode_uint(ENTRY_FORMAT) == encode_uint(6)
    for doc_id in (*REMOVED, cut):
        assert doc_id not in index.docstore and doc_id not in index.source_store
    _close(index)


def _old_leaf_page(pairs, next_pid: int) -> bytes:
    """A leaf as formats 1-4 wrote it: kind 0x01, then whole cells of
    ``(klen:u16, vlen:u16, key, value)``."""
    out = struct.pack("<BHQ", 0x01, len(pairs), next_pid)
    for key, value in pairs:
        out += struct.pack("<HH", len(key), len(value)) + key + value
    return out


def _internal_page(first_child: int, cells) -> bytes:
    out = struct.pack("<BHQ", 0x02, len(cells), first_child)
    for (key, value), child in cells:
        out += struct.pack("<HH", len(key), len(value)) + key + value
        out += struct.pack("<Q", child)
    return out


def _write_old_tree(pager: WalPager, pairs) -> int:
    """Write sorted ``pairs`` as half-full format-4 pages; the root pid."""
    groups: list[list] = [[]]
    used = 0
    for pair in pairs:
        cell = 4 + len(pair[0]) + len(pair[1])
        if used + cell > pager.page_size // 2 and groups[-1]:
            groups.append([])
            used = 0
        groups[-1].append(pair)
        used += cell
    pids = [pager.allocate() for _ in groups]
    for i, (pid, group) in enumerate(zip(pids, groups)):
        pager.write(pid, _old_leaf_page(group, pids[i + 1] if i + 1 < len(pids) else 0))
    level = [(group[0] if group else None, pid) for group, pid in zip(groups, pids)]
    while len(level) > 1:
        parents = []
        for start in range(0, len(level), 8):
            chunk = level[start : start + 8]
            pid = pager.allocate()
            pager.write(pid, _internal_page(chunk[0][1], chunk[1:]))
            parents.append((chunk[0][0], pid))
        level = parents
    return level[0][1]


def _rewrite_as_format_4(dbdir: Path) -> None:
    """Turn a DBDIR of this build into what format 4 wrote: the same
    entries, stamped 4, on uncompressed leaf pages."""
    index = open_index(dbdir)
    index.tree.put(META_FORMAT_KEY, encode_uint(4))
    trees = [list(index.tree.items()), list(index.docid_tree.items())]
    page_size = index._pager.page_size
    _close(index)
    pager = WalPager(dbdir / "vist.db.old", page_size=page_size)
    meta = struct.pack("<H", len(trees))
    for pairs in trees:
        meta += struct.pack("<QQ", _write_old_tree(pager, pairs), len(pairs))
    pager.set_metadata(meta)
    pager.close()
    (dbdir / "vist.db.old").replace(dbdir / "vist.db")


def test_salvage_upgrades_a_format_4_dbdir(tmp_path, capsys, fresh_answers):
    """A DBDIR of uncompressed leaves is refused on open and by scrub,
    both naming ``salvage``; salvage cannot read the old removal stamp
    (it says so) and rebuilds the index with the same answers."""
    dbdir = tmp_path / "db"
    _build(dbdir)
    _rewrite_as_format_4(dbdir)
    with pytest.raises(IndexFormatError, match="format 4.*salvage"):
        open_index(dbdir)
    assert main(["scrub", str(dbdir)]) != 0
    out = capsys.readouterr().out
    assert "salvage" in out and "unknown node type" not in out

    assert main(["salvage", str(dbdir)]) == 0
    out = capsys.readouterr().out
    assert f"rebuilt {120 - len(REMOVED)} document(s)" in out
    assert "old removal stamp unreadable, not applied" in out
    assert _answers(dbdir) == fresh_answers
    index = open_index(dbdir)
    assert index.tree.get(META_FORMAT_KEY) == encode_uint(ENTRY_FORMAT)
    assert all(doc_id not in index.docstore for doc_id in REMOVED)
    _close(index)


# ---------------------------------------------------------------------------
# (c) sharded layout


def test_every_shard_is_stamped_and_salvage_upgrades_all(tmp_path, capsys):
    """Every shard is stamped 6; a sharded DBDIR whose shards hold format
    5 is refused, and salvage brings every shard to format 6 with the
    same answers."""
    dbdir = tmp_path / "sdb"
    with ShardRouter(dbdir, 3) as router:
        router.add_batch(_records(), durability="none")
        expected = {q: router.query(q, verify=True) for q in DBLP_QUERIES}
    assert all(expected.values())
    shards = [shard_dir(dbdir, k) for k in range(3)]
    for path in shards:
        index = open_index(path)
        assert index.tree.get(META_FORMAT_KEY) == encode_uint(ENTRY_FORMAT) == encode_uint(6)
        _close(index)
        _rewrite_in_format(path, 5, _format5_state_bytes)
    with pytest.raises(IndexFormatError, match="salvage"):
        ShardRouter(dbdir)

    assert main(["salvage", str(dbdir)]) == 0
    assert "3 shard(s) salvaged" in capsys.readouterr().out
    with ShardRouter(dbdir) as router:
        assert {q: router.query(q, verify=True) for q in DBLP_QUERIES} == expected
        for shard in router.shards:
            assert_invariants(shard)
            assert shard.tree.get(META_FORMAT_KEY) == encode_uint(6)


# ---------------------------------------------------------------------------
# (d) a DBDIR built at the old default width, 2**256


def test_a_wide_index_keeps_working_and_salvage_narrows_it(tmp_path, capsys):
    """The root entry persists each index's width, so a DBDIR built when
    the default was ``2**256`` takes adds, removes and queries under
    today's allocation rule; ``repro salvage`` rebuilds it at the new
    default with identical answers and a smaller tree."""
    dbdir = tmp_path / "db"
    dbdir.mkdir()
    records = _records()
    wide = VistIndex(
        SequenceEncoder(),
        docstore=FileDocStore(dbdir / "docs.dat"),
        pager=WalPager(dbdir / "vist.db"),
        source_store=FileDocStore(dbdir / "sources.dat"),
        max_label=1 << 256,
    )
    wide.add_batch(records[:80], durability="none")
    _close(wide)

    index = open_index(dbdir)
    assert index._root_state.scope.end == (1 << 256) - 1
    index.add_batch(records[80:100], durability="none")
    for record in records[100:]:
        index.add(record)
    for doc_id in REMOVED:
        index.remove(doc_id)
    _close(index)
    live = {i: r for i, r in enumerate(records) if i not in REMOVED}
    hasher = SequenceEncoder().hasher
    reference = {
        q: [i for i, r in live.items() if reference_matches(r, parse_xpath(q), hasher)]
        for q in DBLP_QUERIES
    }
    assert all(reference.values())
    assert _answers(dbdir) == reference
    wide_bytes = (dbdir / "vist.db").stat().st_size

    assert main(["salvage", str(dbdir)]) == 0
    capsys.readouterr()
    assert (dbdir / "vist.db").stat().st_size < wide_bytes
    index = open_index(dbdir)
    assert index._root_state.scope.end == DEFAULT_MAX - 1
    _close(index)
    assert _answers(dbdir) == reference


# ---------------------------------------------------------------------------
# (e) a DBDIR in a schema's sibling order (tests/test_cli.py upgrades one)


def test_salvage_refuses_a_schema_dbdir_with_a_missing_source(tmp_path):
    """Re-encoding needs every live document's source: salvage names the
    first one without and changes nothing."""
    dbdir = tmp_path / "db"
    _build(dbdir)
    (dbdir / "schema.dtd").write_text("<!ELEMENT article (title)>")
    with FileDocStore(dbdir / "sources.dat") as sources:
        sources.remove(9)
    before = {name: (dbdir / name).read_bytes() for name in ("vist.db", "docs.dat")}
    with pytest.raises(StorageError, match="document 9 has no source"):
        salvage_db(dbdir)
    assert (dbdir / "schema.dtd").exists()
    assert {name: (dbdir / name).read_bytes() for name in before} == before
    with pytest.raises(IndexFormatError, match="schema.dtd.*repro salvage DBDIR"):
        open_index(dbdir)


def test_a_schema_dtd_at_the_top_of_a_sharded_dbdir_alone(tmp_path, capsys):
    """Only the top level holds ``schema.dtd`` (no shard copy): scrub
    still reports it, and salvage re-encodes every shard and deletes it."""
    dbdir = tmp_path / "sdb"
    with ShardRouter(dbdir, 2) as router:
        router.add_batch(_records(), durability="none")
        expected = {q: router.query(q, verify=True) for q in DBLP_QUERIES}
    (dbdir / "schema.dtd").write_text("<!ELEMENT article (title)>")
    assert main(["scrub", str(dbdir)]) == 2
    assert "repro salvage DBDIR" in capsys.readouterr().out
    assert main(["salvage", str(dbdir)]) == 0
    out = capsys.readouterr().out
    assert out.count("in label order") == 2  # one note per shard
    assert list(dbdir.rglob("schema.dtd")) == []
    with ShardRouter(dbdir) as router:
        assert {q: router.query(q, verify=True) for q in DBLP_QUERIES} == expected


# ---------------------------------------------------------------------------
# (e) a version-1 manifest: documents placed by crc32 of their id


def _build_crc32_layout(dbdir: Path, records, removed: int) -> None:
    """The layout a version-1 DBDIR has: global id g on shard
    crc32(g as 8 little-endian bytes) mod 2, at its rank among the ids
    placed there."""
    shards = [open_index(shard_dir(dbdir, k)) for k in range(2)]
    for g, record in enumerate(records):
        shard = shards[crc32(g.to_bytes(8, "little")) % 2]
        local = shard.add(record)
        if g == removed:
            shard.remove(local)
    for shard in shards:
        _close(shard)
    (dbdir / "shards.json").write_text(
        json.dumps({"version": 1, "nshards": 2, "next_doc_id": len(records)})
    )


def test_a_crc32_layout_is_refused_and_reshard_upgrades_it(tmp_path, capsys):
    dbdir = tmp_path / "sdb"
    records = _records()
    removed = REMOVED[0]
    _build_crc32_layout(dbdir, records, removed)
    # a layout g mod 2 cannot read: some ids sit on the other shard
    assert any(crc32(g.to_bytes(8, "little")) % 2 != g % 2 for g in range(20))

    assert main(["query", str(dbdir), DBLP_QUERIES[0]]) == 1
    err = capsys.readouterr().err
    assert "repro reshard" in err and "Traceback" not in err
    assert main(["scrub", str(dbdir)]) == 2
    assert "repro reshard" in capsys.readouterr().out
    with pytest.raises(IndexFormatError, match="repro reshard"):
        ShardRouter(dbdir)

    assert main(["reshard", str(dbdir), "2"]) == 0
    capsys.readouterr()
    assert json.loads((dbdir / "shards.json").read_text())["version"] == 2
    assert main(["scrub", str(dbdir)]) == 0
    capsys.readouterr()
    live = {g: r for g, r in enumerate(records) if g != removed}
    with ShardRouter(dbdir) as router:
        assert list(router.doc_ids()) == list(live)  # every id kept, one tombstone
        hasher = router.shards[0].encoder.hasher
        for xpath in DBLP_QUERIES:
            query = parse_xpath(xpath)
            want = [g for g, r in live.items() if reference_matches(r, query, hasher)]
            assert router.query(xpath, verify=True) == want, xpath
        assert router.add(records[0]) == len(records)
