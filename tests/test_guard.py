"""Query guards, degraded mode, transient-I/O retry, cache hygiene.

:class:`~repro.index.guard.QueryGuard` must interrupt evaluation on a
wall-clock deadline, a matcher-step budget, a page-read budget, or a
cooperative cancel — on every index type that threads it through.  The
degraded-mode contract is exercised directly (a corrupt page mid-match
flips health to read-suspect and the answer still comes back correct,
via the docstore).  :class:`~repro.testing.faults.FlakyPager` proves
transient read faults are retried invisibly while persistent ones
escape loudly, and the node-cache test pins the rule that a page
failing its checksum is never cached.
"""

from __future__ import annotations

import time

import pytest

from repro.doc.parser import parse_document
from repro.errors import (
    CorruptPageError,
    QueryBudgetExceededError,
    QueryCancelledError,
    QueryTimeoutError,
    TransientIOError,
)
from repro.index.guard import IndexHealth, QueryGuard
from repro.index.naive import NaiveIndex
from repro.index.rist import RistIndex
from repro.index.vist import VistIndex
from repro.obs import QueryTrace
from repro.query.xpath import parse_xpath
from repro.storage.bptree import BPlusTree
from repro.storage.docstore import FileDocStore
from repro.storage.pager import page_offset
from repro.storage.wal import READ_ATTEMPTS, WalPager
from repro.testing.faults import FlakyPager


def _small_index(cls=VistIndex, **kwargs):
    index = cls(**kwargs)
    for i in range(6):
        index.add(
            parse_document(
                f"<site><item><location>US</location>"
                f"<name>v{i}</name></item></site>"
            )
        )
    return index


# ---------------------------------------------------------------------------
# QueryGuard unit behaviour


class TestQueryGuard:
    def test_unlimited_guard_is_inert(self):
        guard = QueryGuard().start()
        for _ in range(1000):
            guard.step()
        assert guard.steps == 1000

    def test_deadline(self):
        guard = QueryGuard(deadline_ms=5).start()
        time.sleep(0.02)
        with pytest.raises(QueryTimeoutError) as exc:
            guard.step()
        assert exc.value.deadline_ms == 5
        assert exc.value.elapsed_ms >= 5

    def test_step_budget(self):
        guard = QueryGuard(max_steps=3).start()
        guard.step(3)
        with pytest.raises(QueryBudgetExceededError) as exc:
            guard.step()
        assert exc.value.resource == "matcher-step"
        assert exc.value.limit == 3

    def test_page_budget_uses_counter_delta(self):
        reads = [100]  # counter starts non-zero: only the delta counts
        guard = QueryGuard(max_page_reads=2).start(lambda: reads[0])
        reads[0] += 2
        guard.check()
        reads[0] += 1
        with pytest.raises(QueryBudgetExceededError) as exc:
            guard.check()
        assert exc.value.resource == "page-read"
        assert guard.page_reads == 3

    def test_cancel(self):
        guard = QueryGuard().start()
        guard.step()
        guard.cancel()
        with pytest.raises(QueryCancelledError):
            guard.step()
        assert guard.cancelled

    def test_lazy_deadline_start_preserves_step_budget(self):
        """Regression: ``check()``'s lazy clock start used to call
        ``start()``, which wiped ``steps`` already counted — the first
        deadline tick silently re-armed the step budget."""
        guard = QueryGuard(deadline_ms=60_000, max_steps=3)
        guard.step(2)  # ticks before anything started the clock
        assert guard.steps == 2
        with pytest.raises(QueryBudgetExceededError) as exc:
            guard.step(2)
        assert exc.value.limit == 3 and exc.value.used == 4

    def test_cancelled_guard_does_not_poison_the_next_query(self):
        """Regression: a pending ``cancel()`` used to survive into the
        next ``start()``, so a guard cancelled once was cancelled forever
        and the following (innocent) query died immediately."""
        guard = QueryGuard().start()
        guard.cancel()
        with pytest.raises(QueryCancelledError):
            guard.step()
        guard.start()  # next query reuses the guard
        guard.step(100)  # must not raise
        assert not guard.cancelled
        assert guard.steps == 100

    def test_reset_clears_lazily_armed_clock_and_cancellation(self):
        """``reset()`` returns the guard to its pristine state, including
        a ``_t0`` armed lazily by ``check()`` before any ``start()``."""
        guard = QueryGuard(deadline_ms=60_000, max_steps=5)
        guard.step(2)  # check() lazily arms the deadline clock
        assert guard._t0 is not None
        guard.cancel()
        guard.reset()
        assert guard._t0 is None
        assert guard.steps == 0
        assert not guard.cancelled
        guard.step(5)  # the full step budget is available again
        with pytest.raises(QueryBudgetExceededError):
            guard.step()

    def test_cross_thread_cancel_hits_query_in_flight(self):
        """The executor contract: cancel() from another thread kills the
        query at its next tick, and only that query."""
        import threading

        guard = QueryGuard().start()
        ticking = threading.Event()

        def victim():
            while True:
                guard.step()
                ticking.set()

        errors: list[BaseException] = []

        def run():
            try:
                victim()
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        assert ticking.wait(10)
        guard.cancel()
        thread.join(10)
        assert not thread.is_alive()
        assert isinstance(errors[0], QueryCancelledError)
        guard.start()  # and the guard is reusable afterwards
        guard.step()

    def test_lazy_deadline_start_preserves_page_counter(self):
        """Same regression, page-read side: an explicit ``start()`` with a
        counter followed by a deadline check must not detach the counter."""
        reads = [0]
        guard = QueryGuard(deadline_ms=60_000, max_page_reads=1)
        guard.start(lambda: reads[0])
        guard._t0 = None  # simulate the pre-start checked state
        reads[0] += 2
        with pytest.raises(QueryBudgetExceededError) as exc:
            guard.check()
        assert exc.value.resource == "page-read"
        assert guard.page_reads == 2


# ---------------------------------------------------------------------------
# guard threading through the indexes


@pytest.mark.parametrize("cls", [VistIndex, RistIndex, NaiveIndex])
def test_step_budget_interrupts_matching(cls):
    index = _small_index(cls)
    assert index.query("/site//item[location='US']") == list(range(6))
    with pytest.raises(QueryBudgetExceededError):
        index.query("/site//item[location='US']", guard=QueryGuard(max_steps=1))


def test_zero_deadline_times_out():
    index = _small_index()
    with pytest.raises(QueryTimeoutError):
        index.query("/site//item", guard=QueryGuard(deadline_ms=0))


def test_pathological_wildcard_fails_fast():
    """A deep // query on a deep document dies at the deadline, not at
    the end of the exponential sweep — the CI corruption job runs the
    same scenario through the CLI."""
    index = VistIndex()
    xml = "<a>" * 60 + "x" + "</a>" * 60
    for _ in range(4):
        index.add(parse_document(xml))
    query = "/" + "/".join(["a"] * 3) + "//a//a//a//a"
    t0 = time.monotonic()
    with pytest.raises((QueryTimeoutError, QueryBudgetExceededError)):
        index.query(query, guard=QueryGuard(deadline_ms=100, max_steps=2_000_000))
    assert time.monotonic() - t0 < 2.0


def test_page_read_budget_on_disk_index(tmp_path):
    index = _small_index(
        VistIndex,
        pager=WalPager(tmp_path / "v.db"),
        docstore=FileDocStore(tmp_path / "d.dat"),
    )
    assert index.query("/site//item[location='US']") == list(range(6))
    index.flush()
    index.close()
    index.docstore.close()
    # reopen cold: the in-memory tree caches are empty, so matching must
    # actually read pages and the budget has something to count
    reopened = VistIndex(
        pager=WalPager(tmp_path / "v.db"),
        docstore=FileDocStore(tmp_path / "d.dat"),
    )
    try:
        with pytest.raises(QueryBudgetExceededError) as exc:
            reopened.query(
                "/site//item[location='US']", guard=QueryGuard(max_page_reads=0)
            )
        assert exc.value.resource == "page-read"
    finally:
        reopened.close()
        reopened.docstore.close()


def test_page_read_budget_is_spent_by_node_cache_misses_only(tmp_path):
    """Physical reads are what is budgeted: the same query that a cold
    index cannot answer under ``max_page_reads=0`` passes once warm."""
    from repro.dbdir import close_index, open_index

    index = open_index(tmp_path / "db")
    for i in range(6):
        index.add(
            parse_document(
                f"<site><item><location>US</location><name>v{i}</name></item></site>"
            )
        )
    close_index(index)
    index = open_index(tmp_path / "db")
    try:
        query = "/site//item[location='US']"
        with pytest.raises(QueryBudgetExceededError) as exc:
            index.query(query, guard=QueryGuard(max_page_reads=0))
        assert exc.value.resource == "page-read"
        assert index.query(query) == list(range(6))  # unguarded: warms the index
        guard = QueryGuard(max_page_reads=0)
        assert index.query(query, guard=guard) == list(range(6))
        assert guard.page_reads == 0
    finally:
        close_index(index)


def test_all_wildcard_query_respects_guard():
    index = _small_index()
    with pytest.raises(QueryBudgetExceededError):
        index.query("/*", guard=QueryGuard(max_steps=2))


# ---------------------------------------------------------------------------
# one wide level, one wide DocId output: the guard still gets a say inside


WIDE = 1500  # at least this many windows in the wide level / final scopes
CHUNK = 256  # the walker charges windows and final scopes at most this many at a time


@pytest.fixture(scope="module")
def wide_index():
    """Every record has its own key value ahead of ``<z>`` (siblings are
    sequenced in label order), so the trie holds WIDE disjoint ``z`` nodes:
    ``/r/z`` ends on WIDE final scopes and ``/r[z='x']`` expands WIDE
    windows at its last level."""
    index = VistIndex()
    index.add_all(
        [parse_document(f"<r><k>{i}</k><z>x</z></r>") for i in range(WIDE)]
    )
    return index


def _sequence(index, xpath):
    (alternative,) = index.translator.translate(parse_xpath(xpath))
    return alternative


class _CancelOnceAt(QueryGuard):
    """Stands in for a cancel() from another thread: it arrives while the
    walk is ``at`` units in, and must take effect at that very tick."""

    def __init__(self, at: int) -> None:
        super().__init__()
        self.at = at

    def step(self, n: int = 1) -> None:
        if self.steps < self.at <= self.steps + n:
            self.cancel()
        super().step(n)


class TestGuardInsideWideWork:
    # what the walk charges ahead of the wide part: a window and a probe
    # per earlier level, plus the wide level's own probe
    BEFORE_WIDE_LEVEL = 5
    BEFORE_DOCID_OUTPUT = 4

    def test_unguarded_answers(self, wide_index):
        assert len(wide_index.match_sequence(_sequence(wide_index, "/r/z"))) == WIDE
        assert wide_index.match_stats.final_nodes >= WIDE
        assert len(wide_index.match_sequence(_sequence(wide_index, "/r[z='x']"))) == WIDE
        assert wide_index.match_stats.search_states >= 2 + WIDE

    def test_one_step_per_probe_window_and_final_scope(self, wide_index):
        for xpath, before in (
            ("/r[z='x']", self.BEFORE_WIDE_LEVEL),
            ("/r/z", self.BEFORE_DOCID_OUTPUT),
        ):
            guard = QueryGuard().start()
            wide_index.match_sequence(_sequence(wide_index, xpath), guard)
            stats = wide_index.match_stats
            assert guard.steps == (
                stats.range_queries + stats.search_states + stats.final_nodes
            )
            assert stats.range_queries + stats.search_states >= before

    def test_step_budget_trips_inside_the_wide_level(self, wide_index):
        budget = self.BEFORE_WIDE_LEVEL + 600
        guard = QueryGuard(max_steps=budget).start()
        with pytest.raises(QueryBudgetExceededError) as exc:
            wide_index.match_sequence(_sequence(wide_index, "/r[z='x']"), guard)
        assert exc.value.resource == "matcher-step"
        # tripped at the first chunk past the budget, the level half done
        assert budget < guard.steps <= budget + CHUNK
        assert guard.steps < self.BEFORE_WIDE_LEVEL + WIDE

    def test_cancel_lands_inside_the_wide_level(self, wide_index):
        guard = _CancelOnceAt(self.BEFORE_WIDE_LEVEL + 700).start()
        with pytest.raises(QueryCancelledError):
            wide_index.match_sequence(_sequence(wide_index, "/r[z='x']"), guard)
        assert guard.steps < self.BEFORE_WIDE_LEVEL + 700 + CHUNK

    def test_step_budget_trips_inside_docid_output(self, wide_index):
        budget = self.BEFORE_DOCID_OUTPUT + 600
        guard = QueryGuard(max_steps=budget).start()
        trace = QueryTrace()
        with pytest.raises(QueryBudgetExceededError):
            wide_index.match_sequence(_sequence(wide_index, "/r/z"), guard, trace)
        assert budget < guard.steps <= budget + CHUNK
        # the walk itself had finished: the output span was open when it hit
        assert [span.name for span in trace.roots][-1] == "docid-output"

    def test_cancel_lands_inside_docid_output(self, wide_index):
        guard = _CancelOnceAt(self.BEFORE_DOCID_OUTPUT + 700).start()
        with pytest.raises(QueryCancelledError):
            wide_index.match_sequence(_sequence(wide_index, "/r/z"), guard)
        assert self.BEFORE_DOCID_OUTPUT < guard.steps
        assert guard.steps < self.BEFORE_DOCID_OUTPUT + 700 + CHUNK


# ---------------------------------------------------------------------------
# degraded mode


def _corrupt_page(path, page_id, page_size):
    with open(path, "r+b") as fh:
        offset = page_offset(page_id, page_size) + 64
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


def test_corruption_mid_query_degrades_and_stays_correct(tmp_path):
    index = _small_index(
        VistIndex,
        pager=WalPager(tmp_path / "v.db"),
        docstore=FileDocStore(tmp_path / "d.dat"),
    )
    expected = index.query("/site//item[location='US']", verify=True)
    index.flush()
    index.close()
    index.docstore.close()

    npages = (tmp_path / "v.db").stat().st_size // page_offset(1, 4096)
    degraded_seen = False
    for page_id in range(1, npages):
        for name in ("v.db", "d.dat"):
            dst = tmp_path / f"p{page_id}-{name}"
            dst.write_bytes((tmp_path / name).read_bytes())
        _corrupt_page(tmp_path / f"p{page_id}-v.db", page_id, 4096)
        try:
            reopened = VistIndex(
                pager=WalPager(tmp_path / f"p{page_id}-v.db"),
                docstore=FileDocStore(tmp_path / f"p{page_id}-d.dat"),
            )
        except CorruptPageError:
            continue  # the open itself read the bad page: loud, allowed
        try:
            got = reopened.query("/site//item[location='US']", verify=True)
        except CorruptPageError:
            continue  # loud failure: allowed (e.g. docstore-less verify path)
        finally:
            reopened.close()
            reopened.docstore.close()
        assert got == expected
        if not reopened.health.ok:
            degraded_seen = True
            assert reopened.health.status == "read-suspect"
            assert reopened.health.degraded_queries == 1
            assert reopened.health.events
            assert "checksum mismatch" in reopened.health.events[0].detail
    assert degraded_seen


def test_query_nodes_degrades_like_query(tmp_path):
    """query_nodes takes its candidates from the index too: a corrupt
    page on the way makes every document a candidate, never a wrong or
    missing position."""
    index = _small_index(
        VistIndex,
        pager=WalPager(tmp_path / "v.db"),
        docstore=FileDocStore(tmp_path / "d.dat"),
    )
    xpath = "/site//item[location='US']"
    expected = index.query_nodes(xpath)
    assert sorted(expected) == list(range(6))
    index.flush()
    index.close()
    index.docstore.close()
    npages = (tmp_path / "v.db").stat().st_size // page_offset(1, 4096)
    degraded_seen = False
    for page_id in range(1, npages):
        for name in ("v.db", "d.dat"):
            dst = tmp_path / f"n{page_id}-{name}"
            dst.write_bytes((tmp_path / name).read_bytes())
        _corrupt_page(tmp_path / f"n{page_id}-v.db", page_id, 4096)
        try:
            reopened = VistIndex(
                pager=WalPager(tmp_path / f"n{page_id}-v.db"),
                docstore=FileDocStore(tmp_path / f"n{page_id}-d.dat"),
            )
        except CorruptPageError:
            continue
        try:
            assert reopened.query_nodes(xpath) == expected
            if not reopened.health.ok:
                degraded_seen = True
                reopened.degraded_fallback = False
                with pytest.raises(CorruptPageError):
                    reopened.query_nodes(xpath)
        finally:
            reopened.close()
            reopened.docstore.close()
    assert degraded_seen


def test_degraded_fallback_can_be_disabled(tmp_path):
    index = _small_index(
        VistIndex,
        pager=WalPager(tmp_path / "v.db"),
        docstore=FileDocStore(tmp_path / "d.dat"),
    )
    index.flush()
    index.close()
    index.docstore.close()
    npages = (tmp_path / "v.db").stat().st_size // page_offset(1, 4096)
    _corrupt_page(tmp_path / "v.db", npages - 1, 4096)
    reopened = VistIndex(
        pager=WalPager(tmp_path / "v.db"),
        docstore=FileDocStore(tmp_path / "d.dat"),
    )
    reopened.degraded_fallback = False
    with pytest.raises(CorruptPageError):
        # touch every page: some query path must hit the corrupt one
        reopened.query("/site//item[location='US']", verify=True)
    assert reopened.health.ok  # no fallback -> no degraded bookkeeping


def test_health_report_shape():
    health = IndexHealth()
    assert health.ok and health.report()["status"] == "ok"
    health.record_corruption(ValueError("boom"))
    report = health.report()
    assert report["status"] == "read-suspect"
    assert report["events"] == [{"kind": "ValueError", "detail": "boom"}]
    assert report["dropped_events"] == 0
    assert "read-suspect" in health.summary()


def test_health_counts_events_dropped_past_the_cap():
    """Sustained corruption keeps the report bounded but not silently so:
    events past ``_MAX_EVENTS`` are counted, reported, and summarised."""
    health = IndexHealth()
    for i in range(40):
        health.record_corruption(ValueError(f"e{i}"))
    assert len(health.events) == IndexHealth._MAX_EVENTS == 32
    assert health.dropped_events == 8
    assert health.report()["dropped_events"] == 8
    summary = health.summary()
    assert "40 corruption event(s)" in summary
    assert "8 more event(s) not retained" in summary


# ---------------------------------------------------------------------------
# transient-I/O retry


class TestFlakyReads:
    def _make_file(self, tmp_path):
        pager = WalPager(tmp_path / "flaky.db")
        pid = pager.allocate()
        pager.write(pid, b"z" * pager.page_size)
        pager.sync()
        pager.close()
        return pid

    def test_transient_faults_are_retried_invisibly(self, tmp_path):
        pid = self._make_file(tmp_path)
        pager = FlakyPager(tmp_path / "flaky.db", fail_reads=2)
        try:
            assert pager.read(pid) == b"z" * pager.page_size
            assert pager.fault_count == 2
        finally:
            pager.close()

    def test_persistent_fault_escapes_after_retries(self, tmp_path):
        pid = self._make_file(tmp_path)
        pager = FlakyPager(tmp_path / "flaky.db", fail_reads=1, persistent=True)
        try:
            with pytest.raises(TransientIOError):
                pager.read(pid)
            assert pager.fault_count == READ_ATTEMPTS == 3
        finally:
            pager.close()


# ---------------------------------------------------------------------------
# node cache hygiene


def test_node_cache_never_holds_a_corrupt_page(tmp_path):
    path = tmp_path / "t.db"
    pager = WalPager(path)
    tree = BPlusTree(pager)
    for i in range(600):
        tree.insert(f"k{i:05d}".encode(), b"q" * 8)
    pid = tree._seek(b"k00300", True)[0].pid
    assert pid != tree._root_pid  # a leaf below an internal root
    tree.close()
    pager.close()

    _corrupt_page(path, pid, 4096)
    pager = WalPager(path)
    tree = BPlusTree(pager)
    with pytest.raises(CorruptPageError):
        tree.get(b"k00300")
    assert pid not in tree._cache  # the bad page was not installed

    # heal the file (the same flip again); an honest miss must now
    # succeed, which it could not if the corrupt (or a negative) node had
    # been cached
    _corrupt_page(path, pid, 4096)
    assert tree.get(b"k00300") == b"q" * 8
    pager.close()
