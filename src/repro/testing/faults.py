"""Deterministic crash injection for the WalPager redo protocol.

:class:`CrashingWalPager` overrides the five durability primitives of
:class:`~repro.storage.wal.WalPager` (journal write, journal fsync,
main-file write, main-file fsync, journal unlink) and raises
:class:`SimulatedCrash` when the configured fault point is reached.
Two modes per point:

* ``cut`` — the primitive never runs (clean truncation at an op
  boundary: a short journal, a missing commit marker, a partially
  applied main file, a surviving journal);
* ``torn`` — a *write* primitive persists only the first half of its
  payload before dying (a torn journal record, a torn page).

The crash model is fail-stop with durable completed writes: everything
a finished primitive wrote is on disk, nothing after the fault point is
(Python's buffered journal writes are flushed when the ``with`` block
closes the file during exception unwind, which is what makes the model
deterministic).  Page-cache loss is *not* simulated — an fsync op is a
crash point like any other, with the preceding writes considered
durable; the torn modes cover the interesting partial-persistence
states instead.

:func:`sweep_commit_faults` enumerates **every** fault point of one
commit: for a commit with ``E`` journal entries (dirty pages + header)
the op sequence is ``E+3`` journal writes (header, records, CRC,
marker), the journal fsync, ``E`` main-file writes, the main fsync and
the journal unlink — ``2E+6`` ops total, asserted exactly.  For each
point it restores the pre-commit database, replays the mutation, crashes,
reopens with a plain ``WalPager`` (running recovery) and asserts the
recovered state equals either the pre-commit state A (fault before the
journal fsync) or the post-commit state B (at/after it) — never a torn
in-between.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import TransientIOError
from repro.storage.checksums import pack_trailer
from repro.storage.pager import DEFAULT_PAGE_SIZE, page_offset, slot_size
from repro.storage.wal import JOURNAL_SUFFIX, WalPager

__all__ = [
    "SimulatedCrash",
    "CrashingWalPager",
    "FlakyPager",
    "FaultOutcome",
    "FaultSweepReport",
    "sweep_commit_faults",
]

OpKind = tuple  # ("journal_write", n) | ("journal_sync",) | ("main_write", pid) | ...


class SimulatedCrash(Exception):
    """Raised by :class:`CrashingWalPager` at the configured fault point."""

    def __init__(self, op: int, kind: OpKind, torn: bool) -> None:
        super().__init__(f"simulated crash at op {op} ({kind}, torn={torn})")
        self.op = op
        self.kind = kind
        self.torn = torn


class CrashingWalPager(WalPager):
    """A WalPager that dies deterministically at one durability op.

    Construction runs recovery with the fault injection *disarmed* (a
    harness always reopens cleanly before injecting the next fault);
    call :meth:`arm` before the commit under test.  With ``crash_at``
    ``None`` the pager only records the op log, enumerating the fault
    points of a commit.
    """

    def __init__(
        self,
        path,
        page_size: int = DEFAULT_PAGE_SIZE,
        *,
        crash_at: Optional[int] = None,
        torn: bool = False,
    ) -> None:
        self.crash_at = crash_at
        self.torn = torn
        self.op_log: list[OpKind] = []
        self._armed = False
        super().__init__(path, page_size)

    def arm(self) -> None:
        self._armed = True

    # -- the five overridden primitives ---------------------------------

    def _journal_write(self, journal, data: bytes) -> None:
        def torn_write() -> None:
            journal.write(data[: len(data) // 2])

        self._op(
            ("journal_write", len(self.op_log)),
            lambda: WalPager._journal_write(self, journal, data),
            torn_write,
        )

    def _journal_sync(self, journal) -> None:
        self._op(("journal_sync",), lambda: WalPager._journal_sync(self, journal))

    def _main_write(self, page_id: int, data: bytes, page_size: int) -> None:
        def torn_write() -> None:
            # Tear the full on-disk slot (payload + CRC trailer) at the
            # v2 offset: half a page lands, its trailer never does.
            blob = data + pack_trailer(data)
            self._file.seek(page_offset(page_id, page_size))
            self._file.write(blob[: len(blob) // 2])

        self._op(
            ("main_write", page_id),
            lambda: WalPager._main_write(self, page_id, data, page_size),
            torn_write,
        )

    def _main_sync(self) -> None:
        self._op(("main_sync",), lambda: WalPager._main_sync(self))

    def _journal_unlink(self) -> None:
        self._op(("journal_unlink",), lambda: WalPager._journal_unlink(self))

    # -- fault machinery -------------------------------------------------

    def _op(
        self,
        kind: OpKind,
        run: Callable[[], None],
        torn_write: Optional[Callable[[], None]] = None,
    ) -> None:
        if not self._armed:
            run()
            return
        if self.crash_at is not None and len(self.op_log) == self.crash_at:
            if self.torn and torn_write is not None:
                torn_write()
            raise SimulatedCrash(self.crash_at, kind, self.torn)
        run()
        self.op_log.append(kind)


# ---------------------------------------------------------------------------
# flaky-disk simulation (transient vs persistent read faults)


class FlakyPager(WalPager):
    """A WalPager whose raw reads fail transiently.

    ``fail_reads`` raw-read attempts raise
    :class:`~repro.errors.TransientIOError` before the disk "recovers";
    with ``persistent=True`` every attempt fails.  Exercises the pager's
    retry-with-backoff: a transient blip must be invisible to callers,
    a persistent fault must escape as ``TransientIOError`` after
    :data:`~repro.storage.wal.READ_ATTEMPTS` attempts — never as a wrong
    answer.
    """

    def __init__(
        self,
        path,
        page_size: int = DEFAULT_PAGE_SIZE,
        *,
        fail_reads: int = 0,
        persistent: bool = False,
    ) -> None:
        self._remaining_faults = 0  # disarmed during __init__'s own reads
        self._persistent = persistent
        self.fault_count = 0
        super().__init__(path, page_size)
        self._remaining_faults = fail_reads

    def _read_raw(self, offset: int, length: int) -> bytes:
        if self._persistent and self._remaining_faults:
            self.fault_count += 1
            raise TransientIOError(
                f"{self.path}: injected persistent read fault at offset {offset}"
            )
        if self._remaining_faults > 0:
            self._remaining_faults -= 1
            self.fault_count += 1
            raise TransientIOError(
                f"{self.path}: injected transient read fault at offset {offset}"
            )
        return super()._read_raw(offset, length)


# ---------------------------------------------------------------------------
# exhaustive sweep


@dataclass
class FaultOutcome:
    """One injected fault and the state recovery landed on."""

    op: int
    kind: OpKind
    mode: str  # "cut" | "torn"
    recovered_to: str  # "pre" | "post"


@dataclass
class FaultSweepReport:
    """Everything a sweep observed; all assertions already passed."""

    entries: int  # journal entries of the commit (dirty pages + header)
    op_kinds: list[OpKind] = field(default_factory=list)
    outcomes: list[FaultOutcome] = field(default_factory=list)

    @property
    def total_ops(self) -> int:
        return len(self.op_kinds)

    @property
    def expected_ops(self) -> int:
        """The exhaustive fault-point count: ``2E + 6`` for ``E`` entries."""
        return 2 * self.entries + 6

    @property
    def faults_injected(self) -> int:
        return len(self.outcomes)


def _page_state(pager: WalPager, pid: int):
    if pid in pager._freed:
        # freed pages refuse read() but still carry their freelist chain
        # pointer on disk; capture the raw slot so chain order (which
        # drives future allocations) participates in state equality.
        # Mutations that shrink a B+Tree — bulk_load replacing the old
        # root, deletes merging nodes — legitimately leave freed pages.
        offset = page_offset(pid, pager.page_size)
        return ("freed", pager._read_raw(offset, slot_size(pager.page_size)))
    return pager.read(pid)


def _state_of(pager: WalPager) -> tuple:
    """Structured content of a pager's durable state (overlay-free)."""
    assert not pager._overlay and not pager._header_dirty
    pages = tuple(_page_state(pager, pid) for pid in range(1, pager.page_count + 1))
    return (
        pager.page_size,
        pager.page_count,
        pager._freelist,
        pager.get_metadata(),
        pages,
    )


def _capture(path, page_size: int) -> tuple:
    pager = WalPager(path, page_size)
    try:
        return _state_of(pager)
    finally:
        pager.close()


def sweep_commit_faults(
    path,
    setup: Callable[[WalPager], None],
    mutate: Callable[[WalPager], None],
    *,
    page_size: int = DEFAULT_PAGE_SIZE,
    check: Optional[Callable[[WalPager, str], None]] = None,
) -> FaultSweepReport:
    """Crash one commit at every op boundary and verify recovery.

    ``setup`` populates and the harness commits the pre-state A;
    ``mutate`` applies the transaction under test (the harness calls
    ``commit``).  ``check(pager, phase)`` — optional — runs invariant
    checks against the freshly recovered pager after every fault
    (``phase`` is ``"pre"`` or ``"post"``, the state recovery landed on).

    Raises ``AssertionError`` when a fault point fails to fire, when the
    op count differs from the exhaustive ``2E+6`` enumeration, or when
    recovery produces anything but state A or state B.
    """
    path = os.fspath(path)
    journal = path + JOURNAL_SUFFIX

    pager = WalPager(path, page_size)
    setup(pager)
    pager.close()
    with open(path, "rb") as fh:
        pre_bytes = fh.read()
    state_pre = _capture(path, page_size)

    def restore_pre() -> None:
        with open(path, "wb") as fh:
            fh.write(pre_bytes)
        if os.path.exists(journal):
            os.remove(journal)

    # -- fault-free run: records the op log and the post-state B ---------
    pager = CrashingWalPager(path, page_size)
    mutate(pager)
    entries = len(pager._overlay) + 1  # +1: the rebuilt header page
    pager.arm()
    pager.commit()
    report = FaultSweepReport(entries=entries, op_kinds=list(pager.op_log))
    pager.close()
    state_post = _capture(path, page_size)
    if state_post == state_pre:
        raise AssertionError("mutate() must change durable state")
    if report.total_ops != report.expected_ops:
        raise AssertionError(
            f"fault-point enumeration is not exhaustive: observed "
            f"{report.total_ops} ops, expected 2*{entries}+6 = {report.expected_ops}"
        )
    sync_op = report.op_kinds.index(("journal_sync",))

    # -- the sweep --------------------------------------------------------
    for op, kind in enumerate(report.op_kinds):
        modes = ["cut"]
        if kind[0] in ("journal_write", "main_write"):
            modes.append("torn")
        for mode in modes:
            restore_pre()
            pager = CrashingWalPager(
                path, page_size, crash_at=op, torn=(mode == "torn")
            )
            mutate(pager)
            pager.arm()
            crashed = False
            try:
                pager.commit()
            except SimulatedCrash:
                crashed = True
            pager.abandon()
            if not crashed:
                raise AssertionError(f"fault point {op} ({kind}) did not fire")
            recovered = WalPager(path, page_size)  # runs recovery
            try:
                state = _state_of(recovered)
                if os.path.exists(journal):
                    raise AssertionError(
                        f"journal survived recovery after fault at op {op}"
                    )
                if state == state_pre:
                    landed = "pre"
                elif state == state_post:
                    landed = "post"
                else:
                    raise AssertionError(
                        f"torn recovery state after fault at op {op} ({kind}, "
                        f"{mode}): neither pre- nor post-commit"
                    )
                # A fault before the journal fsync leaves a torn journal
                # (discarded: state A); at/after it the complete journal
                # is durable and replays (state B).
                expected = "pre" if op < sync_op else "post"
                if landed != expected:
                    raise AssertionError(
                        f"fault at op {op} ({kind}, {mode}) recovered to "
                        f"{landed}-state, expected {expected}"
                    )
                if check is not None:
                    check(recovered, landed)
            finally:
                recovered.close()
            report.outcomes.append(
                FaultOutcome(op=op, kind=kind, mode=mode, recovered_to=landed)
            )
    restore_pre()
    return report
