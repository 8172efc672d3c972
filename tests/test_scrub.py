"""Corruption defense: bit-flip fuzzing of scrub / query / salvage.

The central promise of the checksum layer is *no silent wrongness*: any
single flipped byte in the page file must be (a) found by ``scrub`` and
(b) unable to change a query answer — a query either returns the correct
result (possibly through the degraded docstore path) or raises a
:class:`~repro.errors.CorruptionError`.  ``salvage`` must then rebuild
an invariant-clean index from the intact document store.

A seed sweep drives this end to end: one pristine database is built
once, each seed copies it, flips one random byte of ``vist.db`` and runs
the full detect / answer / salvage cycle.  The first few seeds run in
tier-1; the rest carry the ``slow`` marker (the CI corruption job runs
all 100 with ``-m slow``).

The pager error-parity test rides along: the memory and file pagers must
fail identically (same exception type, same key phrase) for the three
misuse classes, so storage-layer callers can be pager-agnostic.
"""

from __future__ import annotations

import json
import random
import shutil
import struct
from pathlib import Path

import pytest

from repro.cli import main, open_index
from repro.doc.parser import parse_document
from repro.errors import CorruptionError, PageError
from repro.repair import salvage_db, scrub_db, scrub_page_file, scrub_record_file
from repro.shard import ShardRouter
from repro.storage.checksums import pack_trailer
from repro.storage.pager import (
    DEFAULT_PAGE_SIZE,
    MemoryPager,
    pack_header_page,
    page_offset,
    peek_header,
    slot_size,
    unpack_header_page,
)
from repro.storage.wal import WalPager
from repro.testing.invariants import assert_invariants

FAST_SEEDS = 8
TOTAL_SEEDS = 100

QUERIES = [
    "/site//item[location='US']",
    "/site/item/name",
    "//item[location='EU'][name]",
    "/*",
]


def _corpus() -> list[str]:
    docs = []
    for i in range(14):
        loc = ["US", "EU", "JP"][i % 3]
        extra = f"<note>n{i}</note>" if i % 2 else ""
        docs.append(
            f"<site><item><location>{loc}</location>"
            f"<name>vendor{i}</name>{extra}</item>"
            f"<item><location>US</location><name>alt{i}</name></item></site>"
        )
    return docs


def _close(index) -> None:
    index.flush()
    index.close()
    index.docstore.close()
    if index.source_store is not None:
        index.source_store.close()


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> tuple[Path, dict[str, list[int]]]:
    """A CLI-layout database directory plus its expected query answers."""
    dbdir = tmp_path_factory.mktemp("scrub") / "db"
    index = open_index(dbdir)
    for text in _corpus():
        index.add(parse_document(text))
    # tombstones: salvage must preserve ids across deleted documents
    index.remove(3)
    index.remove(7)
    _close(index)

    index = open_index(dbdir)
    expected = {q: index.query(q, verify=True) for q in QUERIES}
    _close(index)
    assert any(expected.values())  # the spot check must check something
    return dbdir, expected


def _flip_one_byte(path: Path, rng: random.Random) -> int:
    data = bytearray(path.read_bytes())
    offset = rng.randrange(len(data))
    mask = rng.randrange(1, 256)
    data[offset] ^= mask
    path.write_bytes(bytes(data))
    return offset


def _copy_db(pristine_dir: Path, dst: Path) -> Path:
    dbdir = dst / "db"
    shutil.copytree(pristine_dir, dbdir)
    return dbdir


def _check_queries_not_silently_wrong(dbdir: Path, expected) -> str:
    """Every query answer is correct, degraded-correct, or a loud error."""
    try:
        index = open_index(dbdir)
    except CorruptionError:
        return "open-failed"  # loud is allowed
    outcome = "clean"
    try:
        for xpath, want in expected.items():
            try:
                got = index.query(xpath, verify=True)
            except CorruptionError:
                outcome = "raised"
                continue  # loud is allowed
            assert got == want, (
                f"silently wrong answer for {xpath!r}: got {got}, want {want} "
                f"(health: {index.health.status})"
            )
            if not index.health.ok:
                outcome = "degraded"
    finally:
        _close(index)
    return outcome


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(s, marks=[] if s < FAST_SEEDS else [pytest.mark.slow])
        for s in range(TOTAL_SEEDS)
    ],
)
def test_bit_flip_sweep(pristine, tmp_path, seed):
    pristine_dir, expected = pristine
    dbdir = _copy_db(pristine_dir, tmp_path)
    rng = random.Random(seed)
    _flip_one_byte(dbdir / "vist.db", rng)

    # (a) scrub detects every flip: each byte of a v2 page file is
    # covered by some slot's CRC (the file is slot-aligned)
    report = scrub_db(dbdir, invariants=False)
    assert not report.checksums_ok, f"seed {seed}: scrub missed the flip"

    # (b) queries are never silently wrong
    _check_queries_not_silently_wrong(dbdir, expected)

    # (c) salvage rebuilds an invariant-clean, correct index from the
    # (untouched, checksummed) document store
    salvage_report = salvage_db(dbdir)
    assert salvage_report.replaced
    assert salvage_report.documents == 12
    assert salvage_report.tombstones == 2
    assert scrub_db(dbdir).ok
    index = open_index(dbdir)
    try:
        assert_invariants(index)
        for xpath, want in expected.items():
            assert index.query(xpath, verify=True) == want
        assert index.health.ok
    finally:
        _close(index)


def test_degraded_mode_reachable(pristine, tmp_path):
    """At least one page, when corrupted, triggers the degraded path.

    Corrupting pages one at a time must only ever produce clean answers,
    loud errors, or degraded-but-correct answers — and somewhere in the
    sweep the degraded path itself must actually fire (otherwise the
    fallback would be dead code that the bit-flip sweep never exercises).
    """
    pristine_dir, expected = pristine
    size = (pristine_dir / "vist.db").stat().st_size
    npages = size // (DEFAULT_PAGE_SIZE + 4)
    outcomes = set()
    for page_id in range(npages):
        dbdir = _copy_db(pristine_dir, tmp_path / f"p{page_id}")
        with open(dbdir / "vist.db", "r+b") as fh:
            offset = page_id * (DEFAULT_PAGE_SIZE + 4) + 100
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))
        outcomes.add(_check_queries_not_silently_wrong(dbdir, expected))
    assert "degraded" in outcomes, f"degraded path never fired: {outcomes}"


def test_scrub_detects_docstore_corruption(pristine, tmp_path):
    pristine_dir, _ = pristine
    dbdir = _copy_db(pristine_dir, tmp_path)
    path = dbdir / "docs.dat"
    data = bytearray(path.read_bytes())
    # first byte of record 0's payload (8-byte magic + len/crc words);
    # tombstoned records' dead bytes carry no CRC, live payloads all do
    data[8 + 8] ^= 0x40
    path.write_bytes(bytes(data))
    report = scrub_db(dbdir, invariants=False)
    assert not report.checksums_ok
    # salvage must refuse: the docstore is the source of truth
    with pytest.raises(CorruptionError):
        salvage_db(dbdir)


def test_scrub_clean_db(pristine):
    pristine_dir, _ = pristine
    report = scrub_db(pristine_dir)
    assert report.ok
    assert report.invariants_checked
    assert not report.invariant_violations
    page_report = scrub_page_file(pristine_dir / "vist.db")
    assert page_report.ok and page_report.checked > 0
    rec_report = scrub_record_file(pristine_dir / "docs.dat")
    assert rec_report.ok and rec_report.checked == 12  # tombstones skipped


def test_scrub_reports_truncated_page_file(pristine, tmp_path):
    pristine_dir, _ = pristine
    dbdir = _copy_db(pristine_dir, tmp_path)
    path = dbdir / "vist.db"
    path.write_bytes(path.read_bytes()[:-7])  # knock the file off slot alignment
    report = scrub_page_file(path)
    assert not report.ok
    assert any("slot-aligned" in err for err in report.errors)


# ---------------------------------------------------------------------------
# pager error parity (Memory / Wal)


def _pager_factories(tmp_path):
    return {
        "memory": lambda: MemoryPager(),
        "wal": lambda: WalPager(tmp_path / "parity_wal.db"),
    }


@pytest.mark.parametrize("kind", ["memory", "wal"])
def test_pager_error_parity(tmp_path, kind):
    """Both pagers reject misuse with the same type and phrasing.

    Out-of-range ids, freed pages and closed pagers must look identical
    to callers regardless of the backing store — the degraded-mode and
    scrub layers rely on exception *types*, and operators rely on the
    messages naming the page.
    """
    pager = _pager_factories(tmp_path)[kind]()
    live = pager.allocate()
    pager.write(live, b"x" * pager.page_size)
    victim = pager.allocate()
    pager.free(victim)

    with pytest.raises(PageError, match="out of range"):
        pager.read(victim + 17)
    with pytest.raises(PageError, match="out of range"):
        pager.write(victim + 17, b"y" * pager.page_size)
    with pytest.raises(PageError, match=f"page {victim} is freed"):
        pager.read(victim)
    with pytest.raises(PageError, match=f"page {victim} is freed"):
        pager.write(victim, b"y" * pager.page_size)
    with pytest.raises(PageError, match=f"page {victim} is freed"):
        pager.free(victim)
    assert pager.read(live) == b"x" * pager.page_size

    pager.close()
    with pytest.raises(PageError, match="closed"):
        pager.read(live)


def test_freed_pages_rejected_after_reopen(tmp_path):
    """The file pager remembers freed pages across close/reopen."""
    path = tmp_path / "freed.db"
    pager = WalPager(path)
    keep = pager.allocate()
    pager.write(keep, b"k" * pager.page_size)
    gone = pager.allocate()
    pager.free(gone)
    pager.commit()
    pager.close()

    pager = WalPager(path)
    try:
        assert pager.read(keep) == b"k" * pager.page_size
        with pytest.raises(PageError, match=f"page {gone} is freed"):
            pager.read(gone)
    finally:
        pager.close()


# ---------------------------------------------------------------------------
# storage accounting: a leaked page


def _append_orphan_slot(tree_path: Path) -> int:
    """Raw slot surgery: append a freelist-chained slot and count it in
    the header's page total, without linking it into the freelist.

    The slot carries a chain pointer and a valid checksum, but neither
    the freelist head nor any tree refers to it.  Returns its page id."""
    raw = tree_path.read_bytes()
    page_size = peek_header(raw, str(tree_path))
    _, npages, head, meta = unpack_header_page(raw[:page_size], str(tree_path))
    orphan = npages + 1
    assert len(raw) == page_offset(orphan, page_size)
    chained = struct.pack("<Q", head) + b"\x00" * (page_size - 8)
    header = pack_header_page(page_size, orphan, head, meta)
    tree_path.write_bytes(
        header
        + pack_trailer(header)
        + raw[slot_size(page_size) :]
        + chained
        + pack_trailer(chained)
    )
    return orphan


def test_interrupted_free_leaks_page_scrub_finds_salvage_reclaims(pristine, tmp_path):
    """A chained slot that no header points to is an orphaned page: every
    checksum still verifies, yet the slot is neither live nor on the
    freelist.  The journaled pager commits a free with its header, so
    the leak is made by slot surgery here; ``scrub`` must call it out
    and ``salvage`` must rebuild without it."""
    from repro.repair import scrub_page_reachability

    pristine_dir, expected = pristine
    dbdir = _copy_db(pristine_dir, tmp_path)
    tree_path = dbdir / "vist.db"
    victim = _append_orphan_slot(tree_path)

    # checksums are clean — a CRC walk alone cannot see the leak
    assert scrub_page_file(tree_path).ok
    reach = scrub_page_reachability(tree_path)
    assert not reach.ok
    assert any(f"page {victim}: LEAKED" in err for err in reach.errors)
    report = scrub_db(dbdir)
    assert not report.ok
    assert any("LEAKED" in err for f in report.files for err in f.errors)

    # the leak is invisible to queries (it holds no data), only to space
    assert _check_queries_not_silently_wrong(dbdir, expected) == "clean"

    salvage_report = salvage_db(dbdir)
    assert salvage_report.replaced
    assert any("reclaimed 1 leaked page" in note for note in salvage_report.notes)
    after = scrub_db(dbdir)
    assert after.ok
    index = open_index(dbdir)
    try:
        for xpath, want in expected.items():
            assert index.query(xpath, verify=True) == want
    finally:
        _close(index)


def test_salvage_discards_an_interrupted_salvages_journal(pristine, tmp_path):
    """A committed journal left beside a half-built side file would replay
    its stale pages into the next salvage's fresh side file."""
    from repro.testing.faults import CrashingWalPager, SimulatedCrash

    pristine_dir, expected = pristine
    dbdir = _copy_db(pristine_dir, tmp_path)
    side = dbdir / "vist.db.salvage"
    pager = CrashingWalPager(side)
    pid = pager.allocate()
    pager.write(pid, b"stale" * 100)
    pager.crash_at = 6  # 2 entries: 5 journal writes, the fsync, then apply
    pager.arm()
    with pytest.raises(SimulatedCrash):
        pager.commit()
    pager.abandon()
    assert (dbdir / "vist.db.salvage.wal").exists()

    assert salvage_db(dbdir).replaced
    assert not (dbdir / "vist.db.salvage.wal").exists()
    assert scrub_db(dbdir).ok
    index = open_index(dbdir)
    try:
        for xpath, want in expected.items():
            assert index.query(xpath, verify=True) == want
    finally:
        _close(index)


def test_clean_database_has_no_leaks(pristine, tmp_path):
    """The reachability walk accounts for every slot of a healthy index
    (it contains freed pages from the tombstoned documents)."""
    from repro.repair import scrub_page_reachability

    pristine_dir, _ = pristine
    dbdir = _copy_db(pristine_dir, tmp_path)
    reach = scrub_page_reachability(dbdir / "vist.db")
    assert reach.ok
    assert any("no leaks" in note for note in reach.notes)


def test_scrub_checks_the_manifest_against_its_shards(tmp_path, capsys):
    """A sharded DBDIR whose manifest no open accepts fails scrub (exit 2)
    even when every shard file is clean: a manifest routing a shard more
    slots than it holds, or one that cannot be read."""
    dbdir = tmp_path / "sdb"
    with ShardRouter(dbdir, 2) as router:
        router.add_batch([parse_document(text) for text in _corpus()[:10]])
    manifest_path = dbdir / "shards.json"
    manifest = json.loads(manifest_path.read_text())
    assert main(["scrub", str(dbdir)]) == 0
    capsys.readouterr()

    manifest["next_doc_id"] = 14  # routes 7 slots to each 5-slot shard
    manifest_path.write_text(json.dumps(manifest))
    assert main(["query", str(dbdir), "//item"]) == 1
    assert "routed 7" in capsys.readouterr().err
    assert main(["scrub", str(dbdir)]) == 2
    out = capsys.readouterr().out
    assert "routed 7" in out and "manifest" in out

    manifest_path.write_text("{not json")
    report = scrub_db(dbdir)
    assert not report.ok
    assert "unreadable shard manifest" in report.invariant_violations[0]
    assert main(["scrub", str(dbdir)]) == 2
    manifest_path.write_text("[]")  # JSON, but no manifest
    assert main(["scrub", str(dbdir)]) == 2
    assert main(["query", str(dbdir), "//item"]) == 1
    assert "unsupported shard manifest" in capsys.readouterr().err
