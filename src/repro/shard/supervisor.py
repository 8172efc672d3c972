"""Worker supervision for sharded serving: detect, restart, give up.

The failure model (docs/INTERNALS.md section 13) is a three-state
machine per shard::

    healthy ──(exit / EOF / heartbeat miss)──▶ restarting
    restarting ──(respawn ok)──▶ healthy
    restarting ──(restart budget exhausted)──▶ down      (sticky)

Detection has three independent triggers, any of which moves a shard to
``restarting``:

* **process exit** — the supervisor polls every worker's ``Popen``;
* **connection EOF/reset** — the demux reader thread notices the socket
  dying and reports the loss *immediately* (so in-flight futures fail
  with a typed :class:`~repro.errors.ShardUnavailableError` right away,
  never waiting out a spawn timeout);
* **heartbeat miss** — a periodic ``ping`` with its own deadline catches
  a worker that is alive but wedged; a miss force-kills the process so
  the EOF path takes over.

Restarts are paced by :class:`RestartPolicy`: capped exponential backoff
with jitter, and a budget of ``max_restarts`` inside a sliding
``window_s`` — one flaky worker gets retried, a crash loop is cut off by
marking the shard ``down``.  ``down`` is sticky for the executor's
lifetime: queries against a down shard fail fast (or degrade to partial
results when the caller opted in).

The supervisor doubles as the shard layer's monotonic-time event loop:
per-RPC retries and deadlines are all :meth:`~ShardSupervisor.
schedule`\\ d callbacks on the same thread, so the executor never spawns
a timer thread per request.
"""

from __future__ import annotations

import heapq
import random
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "HEALTHY",
    "RESTARTING",
    "DOWN",
    "RestartPolicy",
    "RestartTracker",
    "ShardSupervisor",
]

# shard supervision states (JSON-friendly strings, surfaced in stats)
HEALTHY = "healthy"
RESTARTING = "restarting"
DOWN = "down"


@dataclass(frozen=True)
class RestartPolicy:
    """How hard to try bringing a dead worker back.

    ``max_restarts`` failures inside the sliding ``window_s`` mark the
    shard down.  The n-th restart in the window waits
    ``min(base_backoff_s * 2**(n-1), max_backoff_s)`` scaled by a
    uniform ±``jitter`` fraction, so a fleet of shards dying together
    does not respawn in lockstep.
    """

    max_restarts: int = 5
    window_s: float = 30.0
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    jitter: float = 0.25
    seed: Optional[int] = None

    def tracker(self, shard: int) -> "RestartTracker":
        seed = None if self.seed is None else self.seed * 1000 + shard
        return RestartTracker(self, random.Random(seed))


class RestartTracker:
    """Per-shard restart accounting against one :class:`RestartPolicy`."""

    def __init__(self, policy: RestartPolicy, rng: random.Random) -> None:
        self.policy = policy
        self._rng = rng
        self._failures: list[float] = []

    def next_delay(self, now: Optional[float] = None) -> Optional[float]:
        """Record a failure; the backoff before the next restart attempt.

        Returns ``None`` when the budget inside the window is exhausted —
        the caller marks the shard down.
        """
        if now is None:
            now = time.monotonic()
        horizon = now - self.policy.window_s
        self._failures = [t for t in self._failures if t > horizon]
        if len(self._failures) >= self.policy.max_restarts:
            return None
        self._failures.append(now)
        n = len(self._failures)
        delay = min(
            self.policy.max_backoff_s,
            self.policy.base_backoff_s * (2.0 ** (n - 1)),
        )
        if self.policy.jitter:
            delay *= 1.0 + self.policy.jitter * (2.0 * self._rng.random() - 1.0)
        return max(0.0, delay)

    def failures_in_window(self, now: Optional[float] = None) -> int:
        if now is None:
            now = time.monotonic()
        horizon = now - self.policy.window_s
        return sum(1 for t in self._failures if t > horizon)


class ShardSupervisor:
    """One thread: scheduled callbacks + worker liveness + restarts.

    The executor reports connection losses via :meth:`on_connection_lost`
    (called from demux reader threads); the supervisor owns every state
    transition out of ``healthy`` so restarts are serialised per shard.
    ``restart_fn(client)`` (supplied by the executor) performs the actual
    respawn and must raise on failure; ``on_down(client, reason)`` is
    notified once when a shard's budget runs out.
    """

    def __init__(
        self,
        *,
        restart_fn: Callable,
        policy: Optional[RestartPolicy] = None,
        heartbeat_s: Optional[float] = 2.0,
        heartbeat_fn: Optional[Callable] = None,
        on_down: Optional[Callable] = None,
    ) -> None:
        self.policy = policy if policy is not None else RestartPolicy()
        self.restart_fn = restart_fn
        self.heartbeat_s = heartbeat_s
        self.heartbeat_fn = heartbeat_fn
        self.on_down = on_down
        self._trackers: dict[int, RestartTracker] = {}
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._cond = threading.Condition()
        self._stopped = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-shard-supervisor", daemon=True
        )
        self._thread.start()
        if self.heartbeat_s is not None and self.heartbeat_fn is not None:
            self.schedule(self.heartbeat_s, self._heartbeat_tick)

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    @property
    def stopped(self) -> bool:
        return self._stopped

    # -- the event loop --------------------------------------------------

    def schedule(self, delay_s: float, fn: Callable[[], None]) -> list:
        """Run ``fn`` on the supervisor thread after ``delay_s`` seconds;
        returns the entry :meth:`cancel` takes.

        After :meth:`stop` this is a no-op — a late retry or deadline fired
        into a closing executor must not resurrect anything.
        """
        entry = [fn]
        with self._cond:
            if not self._stopped:
                self._seq += 1
                heapq.heappush(self._heap, (time.monotonic() + delay_s, self._seq, entry))
                self._cond.notify_all()
        return entry

    @staticmethod
    def cancel(entry: list) -> None:
        """Drop a scheduled callback and everything it keeps alive.  An
        RPC deadline outlives its RPC by the whole timeout (60 s by
        default); uncancelled, each held its closures, future and decoded
        reply that long — megabytes per second of served traffic."""
        entry[0] = None

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._stopped:
                    if self._heap:
                        wait = self._heap[0][0] - time.monotonic()
                        if wait <= 0:
                            break
                        self._cond.wait(timeout=min(wait, 0.5))
                    else:
                        self._cond.wait(timeout=0.5)
                if self._stopped:
                    return
                fn = heapq.heappop(self._heap)[2][0]
            if fn is None:  # cancelled
                continue
            try:
                fn()
            except Exception as exc:  # pragma: no cover - defensive
                # a supervision callback must never kill the loop
                print(
                    f"repro.shard.supervisor: callback failed: "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )

    def _heartbeat_tick(self) -> None:
        try:
            if self.heartbeat_fn is not None:
                self.heartbeat_fn()
        finally:
            if self.heartbeat_s is not None:
                self.schedule(self.heartbeat_s, self._heartbeat_tick)

    # -- restart orchestration -------------------------------------------

    def on_connection_lost(self, client, reason: str) -> None:
        """A shard's worker died or its connection broke: begin recovery.

        Called from demux reader threads and heartbeat callbacks; safe to
        call repeatedly — only the transition out of ``healthy`` (done by
        the client under its own lock before calling here) schedules a
        restart, so one death never queues two respawns.
        """
        if self._stopped:
            return
        tracker = self._trackers.get(client.shard)
        if tracker is None:
            tracker = self._trackers[client.shard] = self.policy.tracker(client.shard)
        delay = tracker.next_delay()
        if delay is None:
            self._mark_down(client, f"restart budget exhausted after: {reason}")
            return
        self.schedule(delay, lambda: self._attempt_restart(client, reason))

    def _attempt_restart(self, client, reason: str) -> None:
        if self._stopped or client.state != RESTARTING:
            return
        try:
            self.restart_fn(client)
        except Exception as exc:
            tracker = self._trackers[client.shard]
            delay = tracker.next_delay()
            if delay is None:
                self._mark_down(
                    client,
                    f"restart budget exhausted (last spawn failure: "
                    f"{type(exc).__name__}: {exc})",
                )
                return
            self.schedule(delay, lambda: self._attempt_restart(client, reason))

    def _mark_down(self, client, reason: str) -> None:
        client.mark_down(reason)
        if self.on_down is not None:
            self.on_down(client, reason)

    def restart_counts(self) -> dict[int, int]:
        """Failures inside the current window, per shard that ever failed."""
        return {
            shard: tracker.failures_in_window()
            for shard, tracker in self._trackers.items()
        }
