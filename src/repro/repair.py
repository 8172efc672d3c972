"""Offline corruption assessment and repair: ``scrub`` and ``salvage``.

**Scrub** walks every byte of an on-disk index directory without trusting
any of it: each page slot of the tree file is read raw and its CRC
trailer recomputed, each docstore record's CRC is verified, and — when
all checksums are clean — the structural invariant checkers
(:mod:`repro.testing.invariants`) are run over the opened index.  The
checksum walks are raw — they bypass the pager and docstore classes and
change nothing; only the invariant pass opens the index, and opening a
DBDIR finishes an interrupted commit (journal replay, truncated
uncommitted appends, stamped tombstones) exactly as any command would.

**Salvage** rebuilds the ViST index from the intact document store: the
stored sequences are re-inserted through :class:`~repro.index.vist.VistIndex`
into fresh side files (preserving document ids positionally, tombstones
included), the rebuilt index must pass every invariant checker, and only
then do the side files atomically replace the damaged originals.  The
docstore is the source of truth — its records carry their own checksums —
so salvage refuses to run when the docstore itself is damaged.
``sources.dat`` (original XML text) keeps its records: ids are preserved,
so it stays aligned.  The one exception is a removal whose commit landed
but whose tombstones a crash cut off: the old tree's removal stamp names
those ids, and salvage removes them from both stores.  Because only the
sequence half of each stored payload is read and the old tree is never
opened through the index, salvage is also the upgrade path for a
directory whose entry format this build does not read
(:class:`~repro.errors.IndexFormatError`).  A directory written in a
schema's sibling order (it holds ``schema.dtd``) has stored sequences in
an order this build never produces, so there the source is the
authority: every live document is re-encoded from ``sources.dat`` in
label order, and salvage refuses, naming the id, when one has no source.

Both work on each index directory of :func:`repro.dbdir.shard_dirs`:
the DBDIR itself when it is flat, every shard when it is sharded.  A
salvaged directory's health sidecar is cleared with its old index.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

from repro.dbdir import (
    DOC_FILE,
    HEALTH_FILE,
    SCHEMA_FILE,
    SOURCE_FILE,
    TREE_FILE,
    TREE_JOURNAL,
    open_index,
    refuse_schema_order,
    shard_dirs,
)
from repro.doc.parser import parse_document_bytes
from repro.errors import CorruptionError, IndexFormatError, PageError, StorageError
from repro.index.store import META_REMOVED_KEY, decode_removed
from repro.index.vist import VistIndex
from repro.sequence.transform import SequenceEncoder
from repro.storage.bptree import BPlusTree, reachable_page_ids
from repro.storage.checksums import page_checksum, verify_trailer
from repro.storage.docstore import FileDocStore
from repro.storage.pager import peek_header, slot_size, unpack_header_page
from repro.storage.wal import JOURNAL_SUFFIX, WalPager

__all__ = [
    "FileScrubReport",
    "ScrubReport",
    "SalvageReport",
    "scrub_page_file",
    "scrub_page_reachability",
    "scrub_record_file",
    "scrub_db",
    "salvage_db",
]

_LEN_FMT = "<I"
_LEN_SIZE = struct.calcsize(_LEN_FMT)
_TOMBSTONE = 0xFFFFFFFF
_DOC_MAGIC = b"ViSTDOC2"


@dataclass
class FileScrubReport:
    """Checksum walk of one file (page file or record file)."""

    path: str
    kind: str  # "pages" | "records"
    checked: int = 0  # page slots / records verified
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.errors)} error(s)"
        lines = [f"{self.path}: {self.checked} {self.kind} checked, {status}"]
        lines.extend(f"  {err}" for err in self.errors)
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


@dataclass
class ScrubReport:
    """Everything ``repro scrub`` found in one database directory."""

    dbdir: str
    files: list[FileScrubReport] = field(default_factory=list)
    invariant_violations: list[str] = field(default_factory=list)
    invariants_checked: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def checksums_ok(self) -> bool:
        return all(report.ok for report in self.files)

    @property
    def ok(self) -> bool:
        return self.checksums_ok and not self.invariant_violations

    def summary(self) -> str:
        lines = [f"scrub {self.dbdir}:"]
        for report in self.files:
            lines.append(report.summary())
        if self.invariants_checked:
            if self.invariant_violations:
                lines.append(f"{len(self.invariant_violations)} invariant violation(s):")
                lines.extend(f"  {v}" for v in self.invariant_violations)
            else:
                lines.append("structural invariants: ok")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("scrub result: " + ("clean" if self.ok else "DAMAGED"))
        return "\n".join(lines)


@dataclass
class SalvageReport:
    """Outcome of ``repro salvage``: what was rebuilt and from what."""

    dbdir: str
    documents: int = 0  # live documents re-inserted
    tombstones: int = 0  # deleted ids preserved positionally
    replaced: bool = False  # side files promoted over the originals
    notes: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"salvage {self.dbdir}: rebuilt {self.documents} document(s) "
            f"(+{self.tombstones} tombstone(s)), "
            + ("index replaced" if self.replaced else "originals left untouched")
        ]
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# scrub


def scrub_page_file(path: str | os.PathLike) -> FileScrubReport:
    """Verify the CRC trailer of every page slot in a page file.

    The walk is raw (no pager): a corrupt page is reported and the walk
    continues, so one report covers *all* damage, not just the first
    page hit.
    """
    path = os.fspath(path)
    report = FileScrubReport(path=path, kind="pages")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        report.fail(f"unreadable: {exc}")
        return report
    try:
        page_size = peek_header(raw, path)
    except PageError as exc:
        report.fail(str(exc))
        return report
    slot = slot_size(page_size)
    npages, tail = divmod(len(raw), slot)
    if tail:
        report.fail(
            f"{path}: trailing {tail} byte(s) after page {npages - 1} "
            f"(file not slot-aligned; truncated write?)"
        )
    for page_id in range(npages):
        offset = page_id * slot
        payload = raw[offset : offset + page_size]
        trailer = raw[offset + page_size : offset + slot]
        ok, stored, computed = verify_trailer(payload, trailer)
        report.checked += 1
        if not ok:
            report.fail(
                f"page {page_id}: checksum mismatch at offset {offset} "
                f"(stored 0x{stored:08x}, computed 0x{computed:08x})"
            )
    return report


def scrub_page_reachability(path: str | os.PathLike) -> FileScrubReport:
    """Account for every allocated page slot: live, freelisted, or LEAKED.

    A page that is neither referenced by any B+Tree nor reachable from
    the freelist head is permanently lost space that no checksum walk
    can see (its CRC is fine).  The journaled pager commits a free and
    its header together, so no crash makes one; damage or a pager bug
    could.  This walk parses the header raw, follows the freelist
    chain, walks every tree root in the slot directory, and reports any
    slot in neither set.

    Only meaningful after the checksum walk came back clean (it trusts
    page payloads); :func:`scrub_db` gates it accordingly.
    """
    path = os.fspath(path)
    report = FileScrubReport(path=path, kind="page slots")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        report.fail(f"unreadable: {exc}")
        return report
    try:
        page_size = peek_header(raw, path)
        slot = slot_size(page_size)

        def payload(pid: int) -> bytes:
            return raw[pid * slot : pid * slot + page_size]

        _, npages, freelist, meta = unpack_header_page(payload(0), path)
        freed: set[int] = set()
        pid = freelist
        while pid != 0:
            if pid < 1 or pid > npages or pid in freed:
                report.fail(
                    f"corrupt freelist chain at page {pid} "
                    f"(range 1..{npages}, {len(freed)} walked)"
                )
                return report
            freed.add(pid)
            (pid,) = struct.unpack_from("<Q", payload(pid))
        live = reachable_page_ids(meta, payload)
    except (PageError, IndexFormatError) as exc:
        report.fail(str(exc))
        return report
    report.checked = npages
    overlap = live & freed
    for pid in sorted(overlap):
        report.fail(f"page {pid}: on the freelist but still referenced by a tree")
    leaked = sorted(set(range(1, npages + 1)) - live - freed)
    for pid in leaked:
        report.fail(
            f"page {pid}: LEAKED — neither referenced by any tree nor on "
            f"the freelist; run `repro salvage` to reclaim"
        )
    if not report.errors:
        report.notes.append(
            f"{len(live)} live + {len(freed)} freelisted page(s), no leaks"
        )
    return report


def scrub_record_file(path: str | os.PathLike) -> FileScrubReport:
    """Verify the CRC of every record in a docstore file.

    Structural damage (bad magic, truncated header or payload) ends the
    walk — record boundaries downstream of it cannot be trusted — but is
    itself reported, so the file never scrubs clean while damaged.
    """
    path = os.fspath(path)
    report = FileScrubReport(path=path, kind="records")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        report.fail(f"unreadable: {exc}")
        return report
    if len(raw) == 0:
        return report  # a store that never saw a document
    if not raw.startswith(_DOC_MAGIC):
        report.fail(
            f"{path}: bad docstore magic {raw[:len(_DOC_MAGIC)]!r} "
            "(legacy v1 file or corrupt header)"
        )
        return report
    pos = len(_DOC_MAGIC)
    doc_id = 0
    while pos < len(raw):
        header = raw[pos : pos + 2 * _LEN_SIZE]
        if len(header) != 2 * _LEN_SIZE:
            report.fail(f"record {doc_id}: truncated header at offset {pos}")
            return report
        length, second = struct.unpack("<2I", header)
        body_start = pos + 2 * _LEN_SIZE
        if length == _TOMBSTONE:
            pos = body_start + second
            if pos > len(raw):
                report.fail(f"record {doc_id}: truncated tombstone at offset {body_start}")
                return report
        else:
            payload = raw[body_start : body_start + length]
            if len(payload) != length:
                report.fail(
                    f"record {doc_id}: truncated payload at offset {body_start} "
                    f"(wanted {length} bytes, got {len(payload)})"
                )
                return report
            computed = page_checksum(payload)
            report.checked += 1
            if second != computed:
                report.fail(
                    f"record {doc_id}: checksum mismatch at offset {pos} "
                    f"(stored 0x{second:08x}, computed 0x{computed:08x})"
                )
            pos = body_start + length
        doc_id += 1
    return report


def scrub_db(dbdir: str | os.PathLike, *, invariants: bool = True) -> ScrubReport:
    """Scrub every file of a database directory; optionally check invariants.

    The invariant pass opens the index normally and is only attempted
    when every checksum verified — structural checkers walking corrupt
    pages would drown the real signal (and the open itself may fail).
    """
    dbdir = Path(os.fspath(dbdir))
    sharded = shard_dirs(dbdir)
    if sharded != [dbdir]:
        # sharded database: every shard is a complete directory; scrub
        # each and aggregate so one report covers all the damage
        report = ScrubReport(dbdir=str(dbdir))
        report.notes.append(f"sharded database: {len(sharded)} shard(s) scrubbed")
        try:
            # no shard open sees the top level's schema.dtd; every command does
            refuse_schema_order(dbdir)
        except IndexFormatError as exc:
            report.invariants_checked = True
            report.invariant_violations.append(str(exc))
        for k, shard_path in enumerate(sharded):
            sub = scrub_db(shard_path, invariants=invariants)
            report.files.extend(sub.files)
            if sub.invariants_checked:
                report.invariants_checked = True
            report.invariant_violations.extend(
                f"shard {k}: {v}" for v in sub.invariant_violations
            )
            report.notes.extend(f"shard {k}: {n}" for n in sub.notes)
        return report
    report = ScrubReport(dbdir=str(dbdir))
    tree_path = dbdir / TREE_FILE
    if tree_path.exists():
        report.files.append(scrub_page_file(tree_path))
    else:
        report.notes.append(f"no {TREE_FILE} (nothing indexed yet?)")
    wal_path = dbdir / TREE_JOURNAL
    if wal_path.exists():
        report.notes.append(
            f"{wal_path.name} present: an interrupted commit will replay or "
            "be discarded on next open"
        )
    for name in (DOC_FILE, SOURCE_FILE):
        record_path = dbdir / name
        if record_path.exists():
            report.files.append(scrub_record_file(record_path))
    checksums_clean = report.checksums_ok
    if tree_path.exists() and checksums_clean:
        # storage accounting (leaked pages) needs trustworthy payloads,
        # so it only runs over a checksum-clean tree file
        report.files.append(scrub_page_reachability(tree_path))
    if invariants and tree_path.exists():
        if not checksums_clean:
            report.notes.append("invariant check skipped: checksum errors above")
        else:
            report.invariants_checked = True
            report.invariant_violations = _check_invariants(dbdir)
    return report


def _check_invariants(dbdir: Path) -> list[str]:
    from repro.testing.invariants import check_index

    try:
        index = open_index(dbdir)
    except (StorageError, OSError) as exc:
        return [f"index failed to open: {exc}"]
    try:
        return [
            violation
            for checker in check_index(index)
            for violation in checker.violations
        ]
    except (StorageError, OSError) as exc:
        return [f"invariant walk aborted: {exc}"]
    finally:
        _close_quietly(index)


def _close_quietly(index) -> None:
    for closer in (
        lambda: index.close(),
        lambda: index.docstore.close(),
        lambda: (index.source_store.close() if index.source_store else None),
    ):
        try:
            closer()
        except (StorageError, OSError):
            pass


# ---------------------------------------------------------------------------
# salvage


def salvage_db(dbdir: str | os.PathLike) -> SalvageReport:
    """Rebuild the ViST index of ``dbdir`` from its document store.

    Preconditions: ``docs.dat`` must scrub clean (it is the source of
    truth).  The rebuild re-inserts every stored sequence (re-encoded
    from ``sources.dat`` where a ``schema.dtd`` says the stored order is
    not this build's, which then goes) through
    :class:`~repro.index.vist.VistIndex` into side files, preserving
    document ids positionally (tombstoned ids, and the ids the old tree
    stamped as removed, are burned as placeholders), asserts every
    structural invariant on the result, and atomically promotes the side
    files.  A stale WAL journal of the old index is removed — it
    describes pages that no longer exist — and so is any journal an
    interrupted salvage left beside its side file.

    Raises :class:`~repro.errors.CorruptionError` when the docstore is
    damaged, :class:`~repro.errors.StorageError` when a document to
    re-encode has no source, and whatever
    :func:`repro.testing.invariants.assert_invariants` raises when the
    rebuilt index is not clean (the originals are left untouched in all
    three cases).
    """
    dbdir = Path(os.fspath(dbdir))
    sharded = shard_dirs(dbdir)
    if sharded == [dbdir]:
        return _salvage_dir(dbdir, reencode=False)
    report = SalvageReport(dbdir=str(dbdir))
    report.notes.append(f"sharded database: {len(sharded)} shard(s) salvaged")
    reencode = (dbdir / SCHEMA_FILE).exists()
    replaced_all = True
    for k, shard_path in enumerate(sharded):
        sub = _salvage_dir(shard_path, reencode=reencode)
        report.documents += sub.documents
        report.tombstones += sub.tombstones
        replaced_all = replaced_all and sub.replaced
        report.notes.extend(f"shard {k}: {n}" for n in sub.notes)
    (dbdir / SCHEMA_FILE).unlink(missing_ok=True)
    report.replaced = replaced_all
    return report


def _salvage_dir(dbdir: Path, *, reencode: bool) -> SalvageReport:
    """Salvage one index directory (flat DBDIR or shard); ``reencode``
    forces re-encoding from the sources even without a ``schema.dtd``
    here (a sharded DBDIR whose top level holds one)."""
    from repro.testing.invariants import assert_invariants

    report = SalvageReport(dbdir=str(dbdir))
    doc_path = dbdir / DOC_FILE
    if not doc_path.exists():
        raise StorageError(f"{doc_path}: no document store to salvage from")
    doc_scrub = scrub_record_file(doc_path)
    if not doc_scrub.ok:
        raise CorruptionError(
            f"{doc_path} is damaged; salvage needs an intact document store:\n"
            + "\n".join(doc_scrub.errors)
        )

    # Account for leaked pages before the rebuild: the fresh index never
    # inherits them, so salvage is also the reclamation path for slots
    # no tree and no freelist accounts for (see scrub_page_reachability).
    old_tree = dbdir / TREE_FILE
    removed: set[int] = set()
    if old_tree.exists():
        removed = _removal_stamp(old_tree, report)
        reach = scrub_page_reachability(old_tree)
        leaked = sum(1 for err in reach.errors if "LEAKED" in err)
        if leaked:
            report.notes.append(
                f"reclaimed {leaked} leaked page(s) the old index could "
                "neither use nor reuse"
            )

    tree_side = dbdir / (TREE_FILE + ".salvage")
    doc_side = dbdir / (DOC_FILE + ".salvage")
    side_journal = dbdir / (tree_side.name + JOURNAL_SUFFIX)
    for side in (tree_side, doc_side, side_journal):
        if side.exists():
            side.unlink()  # leftovers of an interrupted salvage

    reencode = reencode or (dbdir / SCHEMA_FILE).exists()
    source_path = dbdir / SOURCE_FILE
    sources = FileDocStore(source_path) if source_path.exists() else None
    old_docs = FileDocStore(doc_path)
    rebuilt = None
    try:
        if reencode:
            for doc_id in old_docs.ids():
                if doc_id not in removed and (sources is None or doc_id not in sources):
                    raise StorageError(
                        f"{dbdir}: document {doc_id} has no source in "
                        f"{SOURCE_FILE} to re-encode in label order; nothing "
                        "was changed"
                    )
        if removed and sources is not None:
            for doc_id in removed & set(sources.ids()):
                sources.remove(doc_id)
            sources.write_tombstones()
        rebuilt = VistIndex(
            SequenceEncoder(),
            docstore=FileDocStore(doc_side),
            pager=WalPager(tree_side),
        )
        for doc_id in range(old_docs.id_bound):
            if doc_id in old_docs and doc_id not in removed:
                if reencode:
                    sequence = rebuilt.encoder.encode_document(
                        parse_document_bytes(sources.get(doc_id))
                    )
                else:
                    # only the sequence half of a payload is read — its
                    # bytes are the same in every entry format, which is
                    # what makes salvage the upgrade path; the re-insert
                    # assigns fresh labels and persists a new payload
                    sequence = rebuilt._payload_to_sequence(old_docs.get(doc_id))
                new_id = rebuilt.add_sequence(sequence)
                report.documents += 1
            else:
                # keep ids positional: burn the id
                new_id = rebuilt.docstore.burn()
                report.tombstones += 1
            if new_id != doc_id:
                raise StorageError(
                    f"salvage id drift: stored doc {doc_id} re-inserted as "
                    f"{new_id}; aborting before replacing anything"
                )
        assert_invariants(rebuilt)
        rebuilt.flush()
    finally:
        if rebuilt is not None:
            _close_quietly(rebuilt)
        old_docs.close()
        if sources is not None:
            sources.close()

    os.replace(tree_side, dbdir / TREE_FILE)
    os.replace(doc_side, doc_path)
    wal_path = dbdir / TREE_JOURNAL
    if wal_path.exists():
        wal_path.unlink()
        report.notes.append("removed stale WAL journal of the damaged index")
    if reencode:
        (dbdir / SCHEMA_FILE).unlink(missing_ok=True)
        report.notes.append(
            f"re-encoded {report.documents} document(s) from {SOURCE_FILE} "
            "in label order"
        )
    # the rebuilt index starts with a clean bill of health
    (dbdir / HEALTH_FILE).unlink(missing_ok=True)
    report.replaced = True
    return report


def _removal_stamp(tree_path: Path, report: SalvageReport) -> set[int]:
    """The ids the old tree's last commit stamped as removed: a crash may
    have cut their tombstones off.  Read through a bare B+Tree, since
    :class:`~repro.index.vist.VistIndex` refuses an old entry format; a
    tree whose leaves predate front-coding cannot be read at all, and the
    stamp is then noted as unreadable."""
    try:
        pager = WalPager(tree_path)
        try:
            return set(decode_removed(BPlusTree(pager).get(META_REMOVED_KEY) or b""))
        finally:
            pager.abandon()  # read only: commit nothing
    except (StorageError, OSError) as exc:
        report.notes.append(f"old removal stamp unreadable, not applied: {exc}")
        return set()
