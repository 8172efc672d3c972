"""Fault tolerance for sharded serving: supervision, retries, chaos.

The contract under test (docs/INTERNALS.md section 13):

* a worker dying mid-query fails its in-flight futures *promptly* with a
  typed :class:`ShardUnavailableError` — never a 30 s spawn-timeout
  stall, never a hang;
* the supervisor restarts dead workers (capped backoff + jitter) and the
  executor returns to all-shards-healthy; past the restart budget the
  shard is marked ``down`` (sticky) and queries fail fast;
* ``partial=True`` degrades availability failures to partial results
  annotated with the missing shard set and counted in
  ``shard.K.unavailable`` — with it off, a missing shard poisons the
  outcome loudly (no silently shrunken answers, ever);
* hedged reads and per-RPC deadlines bound tail latency against slow or
  wedged workers;
* under the seeded chaos harness (:mod:`repro.testing.chaos`: worker
  kills mid-query, torn frames, delayed replies, refused respawns) the
  cross-shard differential-oracle workload never hangs, never returns a
  silently wrong answer, and always recovers.

Worker processes are real interpreters; the small configurations run in
tier-1 and the heavy sweeps are ``slow``.
"""

from __future__ import annotations

import signal
import threading
import time

import pytest

from repro.doc.model import XmlNode
from repro.errors import ShardQueryError, ShardUnavailableError
from repro.shard import ShardRouter, ShardedExecutor
from repro.shard.supervisor import (
    DOWN,
    HEALTHY,
    RestartPolicy,
    RestartTracker,
)
from repro.testing.chaos import ChaosConfig, ChaosMonkey

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _doc(i: int, label: str = "a") -> XmlNode:
    root = XmlNode("r")
    root.element(label, text=f"v{i}")
    return root


@pytest.fixture
def sharded_db(tmp_path):
    dbdir = tmp_path / "db"
    with ShardRouter(dbdir, 3) as router:
        ids = [router.add(_doc(i)) for i in range(9)]
    return dbdir, ids


def _kill_worker(executor, shard: int) -> None:
    proc = executor.clients[shard].proc
    assert proc is not None
    proc.send_signal(signal.SIGKILL)


# ---------------------------------------------------------------------------
# restart policy units (no processes)


class TestRestartPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RestartPolicy(
            max_restarts=10, base_backoff_s=0.1, max_backoff_s=0.4, jitter=0.0
        )
        tracker = policy.tracker(0)
        delays = [tracker.next_delay(now=100.0) for _ in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_budget_exhaustion_returns_none(self):
        policy = RestartPolicy(max_restarts=3, window_s=60.0, jitter=0.0)
        tracker = policy.tracker(0)
        assert all(tracker.next_delay(now=10.0) is not None for _ in range(3))
        assert tracker.next_delay(now=10.0) is None

    def test_window_slides(self):
        policy = RestartPolicy(max_restarts=2, window_s=5.0, jitter=0.0)
        tracker = policy.tracker(0)
        assert tracker.next_delay(now=0.0) is not None
        assert tracker.next_delay(now=1.0) is not None
        assert tracker.next_delay(now=2.0) is None  # budget spent
        # ... but old failures age out of the window
        assert tracker.next_delay(now=10.0) is not None

    def test_jitter_is_seeded_and_bounded(self):
        policy = RestartPolicy(jitter=0.25, seed=42)
        a = [policy.tracker(1).next_delay(now=0.0) for _ in range(3)]
        b = [policy.tracker(1).next_delay(now=0.0) for _ in range(3)]
        assert a == b  # same seed, same shard: reproducible
        base = policy.base_backoff_s
        for delay in a:
            assert base * 0.75 <= delay <= base * 1.25

    def test_trackers_differ_per_shard(self):
        policy = RestartPolicy(jitter=0.25, seed=42)
        assert isinstance(policy.tracker(0), RestartTracker)
        a = policy.tracker(0).next_delay(now=0.0)
        b = policy.tracker(1).next_delay(now=0.0)
        assert a != b


# ---------------------------------------------------------------------------
# prompt typed failure (the PR-6 regression) + supervised recovery


class TestWorkerDeath:
    def test_sigkill_mid_batch_fails_promptly_and_typed(self, sharded_db):
        """The satellite regression: in-flight futures must fail with a
        typed error as soon as the connection drops — not stall out the
        30 s spawn timeout, not hang forever."""
        dbdir, ids = sharded_db
        with ShardedExecutor(
            dbdir, supervise=False, rpc_retries=0
        ) as executor:
            # a healthy batch first, so the pipeline is warm
            assert executor.submit("//a").result(30).result == ids
            futures = [executor.submit("//a") for _ in range(6)]
            _kill_worker(executor, shard=1)
            t0 = time.monotonic()
            outcomes = [f.result(30) for f in futures]
            elapsed = time.monotonic() - t0
            assert elapsed < 10.0, f"death took {elapsed:.1f}s to surface"
            for outcome in outcomes:
                if outcome.ok:
                    assert outcome.result == ids  # answered before the kill
                else:
                    assert isinstance(outcome.error, ShardQueryError)
                    causes = list(outcome.error.shard_errors.values())
                    assert causes and all(
                        isinstance(c, ShardUnavailableError) for c in causes
                    )
            # unsupervised: the shard stays down.  When all six were
            # answered before the kill, the reader thread may not have seen
            # EOF yet — give it the test's own promptness budget
            deadline = time.monotonic() + 5.0
            while executor.clients[1].state != DOWN and time.monotonic() < deadline:
                time.sleep(0.01)
            assert executor.clients[1].state == DOWN
            # ... and says so immediately
            t0 = time.monotonic()
            outcome = executor.submit("//a").result(30)
            assert time.monotonic() - t0 < 5.0
            assert not outcome.ok

    def test_supervisor_restarts_and_recovers(self, sharded_db):
        dbdir, ids = sharded_db
        with ShardedExecutor(dbdir, heartbeat_s=0.2) as executor:
            assert executor.submit("//a").result(30).result == ids
            _kill_worker(executor, shard=0)
            assert executor.await_healthy(timeout_s=30), executor.shard_states()
            outcome = executor.submit("//a").result(30)
            assert outcome.ok and outcome.result == ids
            snapshot = executor.supervision_snapshot()
            assert snapshot["shard"]["0"]["restarts"] >= 1
            assert snapshot["states"] == {"0": "healthy", "1": "healthy", "2": "healthy"}

    def test_query_in_flight_during_kill_retries_to_success(self, sharded_db):
        """With supervision + retries on, a kill mid-batch is invisible:
        the retry waits out the respawn and the answer is still exact."""
        dbdir, ids = sharded_db
        with ShardedExecutor(
            dbdir, rpc_retries=4, retry_backoff_s=0.05, heartbeat_s=0.2
        ) as executor:
            futures = [executor.submit("//a") for _ in range(10)]
            _kill_worker(executor, shard=2)
            outcomes = [f.result(60) for f in futures]
            assert all(o.ok for o in outcomes), [
                o.error for o in outcomes if not o.ok
            ]
            assert all(o.result == ids for o in outcomes)

    def test_heartbeat_detects_silent_wedge(self, sharded_db):
        """A worker that stops answering but keeps its socket open is
        caught by the heartbeat, not just EOF."""
        dbdir, ids = sharded_db
        with ShardedExecutor(
            dbdir, heartbeat_s=0.2, heartbeat_timeout_s=1.0
        ) as executor:
            # SIGSTOP: process alive, socket open, zero progress
            proc = executor.clients[1].proc
            proc.send_signal(signal.SIGSTOP)
            try:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if executor.clients[1].generation > 0:
                        break
                    time.sleep(0.05)
                assert executor.clients[1].generation > 0, "wedge never detected"
            finally:
                try:
                    proc.send_signal(signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert executor.await_healthy(timeout_s=30)
            assert executor.submit("//a").result(30).result == ids


# ---------------------------------------------------------------------------
# restart budget, sticky down, partial results


class TestDownAndPartial:
    def _exhaust_shard(self, dbdir, **kwargs):
        """An executor whose respawns always fail: first kill → down."""
        config = ChaosConfig(seed=5, fail_start_rate=1.0)
        return ShardedExecutor(
            dbdir,
            worker_module="repro.testing.chaos",
            worker_env=config.to_env(),
            restart_policy=RestartPolicy(
                max_restarts=2, window_s=60.0, base_backoff_s=0.01, seed=1
            ),
            heartbeat_s=0.2,
            rpc_retries=1,
            retry_backoff_s=0.01,
            rpc_timeout_s=15.0,
            **kwargs,
        )

    def _await_down(self, executor, shard: int, timeout_s: float = 30.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if executor.clients[shard].state == DOWN:
                return
            time.sleep(0.05)
        raise AssertionError(
            f"shard {shard} never went down: {executor.shard_states()}"
        )

    def test_budget_exhaustion_marks_down_and_fails_loud(self, sharded_db):
        dbdir, ids = sharded_db
        with self._exhaust_shard(dbdir) as executor:
            assert executor.submit("//a").result(30).result == ids
            _kill_worker(executor, shard=1)
            self._await_down(executor, shard=1)
            outcome = executor.submit("//a").result(30)
            assert not outcome.ok
            assert isinstance(outcome.error, ShardQueryError)
            assert all(
                isinstance(c, ShardUnavailableError)
                for c in outcome.error.shard_errors.values()
            )
            assert "budget" in executor.clients[1].down_reason

    def test_partial_mode_annotates_missing_shards(self, sharded_db):
        dbdir, ids = sharded_db
        with self._exhaust_shard(dbdir, partial=True) as executor:
            _kill_worker(executor, shard=1)
            self._await_down(executor, shard=1)
            outcome = executor.submit("//a").result(30)
            assert outcome.ok  # degraded, not failed
            assert outcome.missing_shards == [1]
            lost = set(ids) - set(outcome.result)
            with ShardRouter(dbdir) as router:
                shard1_globals = set(router.map.globals_of(1))
            assert lost == shard1_globals  # exactly the down shard's docs
            assert outcome.shard_detail[1]["status"] == "missing"
            snapshot = executor.supervision_snapshot()
            assert snapshot["shard"]["1"]["unavailable"] >= 1
            assert snapshot["down"] == [1]
            assert snapshot["queries"]["partial"] >= 1

    def test_stats_survive_a_down_shard(self, sharded_db):
        dbdir, _ = sharded_db
        with self._exhaust_shard(dbdir) as executor:
            _kill_worker(executor, shard=1)
            self._await_down(executor, shard=1)
            stats = executor.stats()
            assert "error" in stats["shard"]["1"]
            assert isinstance(stats["shard"]["0"], dict)
            assert stats["supervision"]["states"]["1"] == "down"


# ---------------------------------------------------------------------------
# per-RPC deadlines and hedged reads


class TestRpcResilience:
    def test_deadline_bounds_a_delayed_worker(self, sharded_db):
        """Every reply delayed 5 s, RPC deadline 0.5 s: the query fails
        typed in ~deadline time, not in delay time."""
        dbdir, _ = sharded_db
        config = ChaosConfig(seed=3, delay_rate=1.0, delay_ms=5000.0)
        with ShardedExecutor(
            dbdir,
            worker_module="repro.testing.chaos",
            worker_env=config.to_env(),
            supervise=False,
            rpc_retries=0,
            rpc_timeout_s=0.5,
        ) as executor:
            t0 = time.monotonic()
            outcome = executor.submit("//a").result(30)
            elapsed = time.monotonic() - t0
            assert elapsed < 4.0, f"deadline did not bound latency: {elapsed:.1f}s"
            assert not outcome.ok
            assert all(
                isinstance(c, ShardUnavailableError)
                for c in outcome.error.shard_errors.values()
            )
            snapshot = executor.supervision_snapshot()
            assert any(
                snapshot["shard"][str(k)].get("rpc_timeouts", 0) > 0
                for k in range(executor.nshards)
            )

    def test_guard_deadline_derives_rpc_deadline(self, sharded_db):
        dbdir, _ = sharded_db
        with ShardedExecutor(
            dbdir, guard_spec={"deadline_ms": 250.0}, rpc_grace_s=0.5
        ) as executor:
            assert executor._rpc_deadline_s() == pytest.approx(0.75)
        with ShardedExecutor(dbdir, rpc_timeout_s=33.0) as executor:
            assert executor._rpc_deadline_s() == 33.0

    def test_hedged_reads_fire_and_answers_stay_exact(self, sharded_db):
        """Half the replies delayed past the hedge threshold: hedges must
        fire (counter moves) and every answer is still exact."""
        dbdir, ids = sharded_db
        config = ChaosConfig(seed=4, delay_rate=0.5, delay_ms=300.0)
        with ShardedExecutor(
            dbdir,
            worker_module="repro.testing.chaos",
            worker_env=config.to_env(),
            hedge_ms=30.0,
            rpc_timeout_s=30.0,
        ) as executor:
            outcomes = executor.run(["//a"] * 10)
            assert all(o.ok for o in outcomes)
            assert all(o.result == ids for o in outcomes)
            snapshot = executor.supervision_snapshot()
            hedges = sum(
                snapshot["shard"][str(k)].get("hedges", 0)
                for k in range(executor.nshards)
            )
            assert hedges > 0


# ---------------------------------------------------------------------------
# the chaos hammer: differential oracle under seeded fault injection


def _run_chaos_hammer(
    tmp_path,
    *,
    seed: int,
    docs: int,
    nshards: int,
    client_threads: int,
    submissions: int,
    chaos: ChaosConfig,
    monkey_interval_s: float | None,
    partial: bool = False,
):
    """The cross-shard differential-oracle workload under fault injection.

    Asserts the full contract: (1) no hangs — every future resolves well
    inside the global watchdog; (2) no silently wrong answers — with
    ``partial`` off every OK outcome equals the single-process reference
    exactly, and failures are typed availability errors; (3) recovery —
    once injection stops, the executor returns to all-shards-healthy and
    answers exactly; (4) the shards scrub clean afterwards.
    """
    from repro.repair import scrub_db
    from repro.sequence.transform import SequenceEncoder
    from repro.testing.generator import DocQueryGenerator
    from repro.testing.reference import reference_results

    generator = DocQueryGenerator(seed)
    corpus = generator.corpus(docs, 12)
    queries = [generator.query(corpus) for _ in range(8)]
    hasher = SequenceEncoder().hasher
    expected = [reference_results(corpus, q, hasher) for q in queries]

    dbdir = tmp_path / "db"
    with ShardRouter(dbdir, nshards) as router:
        router.add_all(corpus)

    outcomes: dict[int, object] = {}
    outcomes_lock = threading.Lock()
    errors: list[BaseException] = []

    with ShardedExecutor(
        dbdir,
        verify=True,
        worker_module="repro.testing.chaos",
        worker_env=chaos.to_env(),
        partial=partial,
        rpc_retries=3,
        retry_backoff_s=0.05,
        rpc_timeout_s=20.0,
        heartbeat_s=0.5,
        heartbeat_timeout_s=5.0,
        restart_policy=RestartPolicy(
            max_restarts=50, window_s=60.0, base_backoff_s=0.02,
            max_backoff_s=0.5, seed=seed,
        ),
    ) as executor:
        monkey = (
            ChaosMonkey(executor, seed=seed, interval_s=monkey_interval_s)
            if monkey_interval_s is not None
            else None
        )
        if monkey is not None:
            monkey.start()
        try:

            def client(offset: int) -> None:
                try:
                    for pos in range(offset, submissions, client_threads):
                        outcome = executor.submit(
                            queries[pos % len(queries)].to_xpath(), position=pos
                        ).result(60)  # the no-hang watchdog
                        with outcomes_lock:
                            outcomes[pos] = outcome
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(k,))
                for k in range(client_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(180)
                assert not thread.is_alive(), "chaos hammer client hung"
            assert not errors, f"client raised through the executor: {errors[0]!r}"
        finally:
            if monkey is not None:
                monkey.stop()

        assert len(outcomes) == submissions
        ok_count = 0
        for pos, outcome in sorted(outcomes.items()):
            want = expected[pos % len(queries)]
            if outcome.ok:
                if partial and outcome.missing_shards:
                    # annotated subset: every returned id is a true match
                    assert set(outcome.result) <= set(want), (
                        f"partial result invented matches at #{pos}"
                    )
                else:
                    ok_count += 1
                    assert sorted(outcome.result) == want, (
                        f"silently wrong answer at #{pos}: "
                        f"{sorted(outcome.result)} != {want}"
                    )
            else:
                # failures must be typed availability errors, nothing raw
                assert isinstance(outcome.error, ShardQueryError), outcome.error
                for cause in outcome.error.shard_errors.values():
                    assert isinstance(cause, ShardUnavailableError), (
                        f"untyped failure at #{pos}: {cause!r}"
                    )
        assert ok_count > 0, "chaos drowned every query; nothing was asserted"

        # recovery: with injection stopped, health returns and answers
        # are exact again (retry because respawned workers also misbehave
        # until the fault schedule in their generation runs dry)
        deadline = time.monotonic() + 120
        while True:
            if executor.await_healthy(timeout_s=10):
                final = executor.submit(queries[0].to_xpath()).result(60)
                if final.ok and not final.missing_shards:
                    assert sorted(final.result) == expected[0]
                    break
            assert time.monotonic() < deadline, (
                f"executor never recovered: {executor.shard_states()}"
            )

    report = scrub_db(dbdir)
    assert report.ok, report.summary()


def test_chaos_hammer_kills_tier1(tmp_path):
    """Tier-1 smoke: worker kills + the monkey at a modest rate."""
    _run_chaos_hammer(
        tmp_path,
        seed=31,
        docs=6,
        nshards=3,
        client_threads=2,
        submissions=16,
        chaos=ChaosConfig(seed=31, kill_rate=0.03),
        monkey_interval_s=0.4,
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "seed,nshards,client_threads,submissions,chaos,monkey_interval_s",
    [
        # pure process murder, high rate
        (41, 3, 4, 40, ChaosConfig(seed=41, kill_rate=0.05), 0.2),
        # torn frames: death mid-reply, stream cut inside a frame
        (42, 3, 4, 40, ChaosConfig(seed=42, tear_rate=0.04), None),
        # delays + kills + flaky respawns together
        (
            43,
            4,
            4,
            48,
            ChaosConfig(
                seed=43,
                kill_rate=0.02,
                tear_rate=0.02,
                delay_rate=0.1,
                delay_ms=40.0,
                fail_start_rate=0.2,
            ),
            0.3,
        ),
    ],
)
def test_chaos_hammer_sweep(
    tmp_path, seed, nshards, client_threads, submissions, chaos, monkey_interval_s
):
    _run_chaos_hammer(
        tmp_path,
        seed=seed,
        docs=10,
        nshards=nshards,
        client_threads=client_threads,
        submissions=submissions,
        chaos=chaos,
        monkey_interval_s=monkey_interval_s,
    )


@pytest.mark.slow
def test_chaos_hammer_partial_mode(tmp_path):
    """Partial mode under injection: annotated subsets, never inventions."""
    _run_chaos_hammer(
        tmp_path,
        seed=44,
        docs=10,
        nshards=3,
        client_threads=3,
        submissions=30,
        chaos=ChaosConfig(seed=44, kill_rate=0.04),
        monkey_interval_s=0.3,
        partial=True,
    )
