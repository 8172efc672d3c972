"""Process-level chaos harness for sharded serving.

Two fault injectors that bracket the whole worker RPC path, both driven
by **seeded** schedules so every chaos run is reproducible from its seed:

* :class:`FaultyShardServer` — a :class:`~repro.shard.worker._ShardServer`
  subclass run *inside* the worker process (spawn the executor with
  ``worker_module="repro.testing.chaos"``).  Per the rates in its
  :class:`ChaosConfig` (shipped via the ``REPRO_CHAOS`` env var) it

  - **kills** the worker mid-query (``os._exit`` between receiving a
    frame and answering it — the SIGKILL-shaped death: no cleanup, no
    shutdown frame, just EOF on the parent's socket);
  - **tears** a reply frame (writes the length prefix and *half* the
    payload, then dies — the client must fail typed on the truncated
    stream, not hang waiting for the rest);
  - **delays** replies by ``delay_ms`` (exercises heartbeats and RPC
    deadlines);
  - **refuses to come up** (``fail_start_rate``, respawned generations
    only) — exercises the restart budget and the sticky ``down`` state.

  Each worker derives its own rng from ``(seed, shard, generation)``
  using the ``REPRO_SHARD_ID``/``REPRO_SHARD_GENERATION`` env vars the
  executor sets at spawn, so a fleet under one seed still misbehaves
  differently per worker and per respawn, deterministically.

* :class:`ChaosMonkey` — runs in the *parent* and SIGKILLs random live
  worker processes of a :class:`~repro.shard.executor.ShardedExecutor`
  on a seeded schedule: the outside-the-process half (kernel-delivered
  kill at an arbitrary instant) that in-process injection cannot model.

The chaos hammer in ``tests/test_shard_faults.py`` runs the cross-shard
differential-oracle workload under both and asserts the fault-tolerance
contract: no hangs, no silently wrong answers, and the executor recovers
to all-shards-healthy.
"""

from __future__ import annotations

import json
import os
import random
import signal
import struct
import sys
import threading
import time
from dataclasses import asdict, dataclass

from repro.shard.worker import _ShardServer, main as worker_main

__all__ = ["ChaosConfig", "ChaosMonkey", "FaultyShardServer", "main"]

#: env var carrying the JSON-encoded :class:`ChaosConfig`
CHAOS_ENV = "REPRO_CHAOS"


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded fault rates for one chaos run (all rates are per-frame)."""

    seed: int = 0
    #: P(worker dies via ``os._exit`` instead of answering a query)
    kill_rate: float = 0.0
    #: P(reply frame is torn: length prefix + half the payload, then death)
    tear_rate: float = 0.0
    #: P(reply is delayed by ``delay_ms``)
    delay_rate: float = 0.0
    delay_ms: float = 50.0
    #: P(a *respawned* worker exits before announcing its port) — never
    #: applied to generation 0, so executor construction always succeeds
    fail_start_rate: float = 0.0

    def to_env(self) -> dict:
        """Env vars that ship this config into spawned workers."""
        return {CHAOS_ENV: json.dumps(asdict(self))}

    @classmethod
    def from_env(cls, environ=None) -> "ChaosConfig":
        environ = os.environ if environ is None else environ
        raw = environ.get(CHAOS_ENV)
        if not raw:
            return cls()
        return cls(**json.loads(raw))

    def rng_for(self, shard: int, generation: int) -> random.Random:
        """Per-(worker, respawn) rng — same seed, distinct fault schedules."""
        return random.Random((self.seed * 1_000_003 + shard) * 1_009 + generation)


class FaultyShardServer(_ShardServer):
    """A shard server that misbehaves on a seeded schedule.

    Faults fire in ``_reply`` — after the index did its work, before the
    client hears about it — which is the widest failure window: the
    client can never tell a pre-work death from a post-work one, exactly
    like a real SIGKILL.
    """

    def __init__(self, index) -> None:
        super().__init__(index)
        self.config = ChaosConfig.from_env()
        shard = int(os.environ.get("REPRO_SHARD_ID", "0"))
        generation = int(os.environ.get("REPRO_SHARD_GENERATION", "0"))
        self._rng = self.config.rng_for(shard, generation)
        self._rng_lock = threading.Lock()
        if generation > 0 and self.config.fail_start_rate > 0:
            if self.config.rng_for(shard, -generation).random() < self.config.fail_start_rate:
                # die before serve_shard prints PORT: a refused connection
                print(
                    f"repro.testing.chaos: shard {shard} gen {generation} "
                    "refusing to start (injected)",
                    file=sys.stderr,
                    flush=True,
                )
                os._exit(17)

    def _roll(self, rate: float) -> bool:
        if rate <= 0:
            return False
        with self._rng_lock:
            return self._rng.random() < rate

    def _reply(self, conn, send_lock, request_id, payload) -> None:
        if self._roll(self.config.kill_rate):
            os._exit(9)  # SIGKILL-shaped: no flush, no goodbye
        if self._roll(self.config.delay_rate):
            time.sleep(self.config.delay_ms / 1000.0)
        if self._roll(self.config.tear_rate):
            data = json.dumps({"id": request_id, **payload}).encode("utf-8")
            try:
                with send_lock:
                    # full length prefix, half the payload, then death —
                    # the reader sees a stream cut mid-frame
                    conn.sendall(struct.pack(">I", len(data)) + data[: len(data) // 2])
            except OSError:
                pass
            os._exit(9)
        super()._reply(conn, send_lock, request_id, payload)


class ChaosMonkey:
    """SIGKILL live workers of an executor on a seeded schedule.

    ``interval_s`` is the mean gap between kills (uniform 0.5×–1.5×).
    Only currently-healthy workers are targeted — killing a worker that
    the supervisor is already respawning tests nothing new and can race
    the spawn itself.
    """

    def __init__(self, executor, *, seed: int = 0, interval_s: float = 0.25) -> None:
        self.executor = executor
        self.interval_s = interval_s
        self._rng = random.Random(seed)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.kills = 0

    def start(self) -> "ChaosMonkey":
        self._thread = threading.Thread(
            target=self._run, name="repro-chaos-monkey", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def _run(self) -> None:
        from repro.shard.supervisor import HEALTHY

        while not self._stop.is_set():
            wait = self.interval_s * (0.5 + self._rng.random())
            if self._stop.wait(timeout=wait):
                return
            victims = [
                client
                for client in self.executor.clients
                if client.state == HEALTHY and client.proc is not None
            ]
            if not victims:
                continue
            client = self._rng.choice(victims)
            proc = client.proc
            try:
                if proc is not None and proc.poll() is None:
                    os.kill(proc.pid, signal.SIGKILL)
                    self.kills += 1
            except (OSError, ProcessLookupError):
                pass

    def __enter__(self) -> "ChaosMonkey":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


def main(argv=None) -> int:
    """Entry point: a worker process with fault injection enabled.

    The executor spawns this exactly like the production worker
    (``python -m repro.testing.chaos SHARD_DIR --port 0 ...``); the only
    difference is the server class and the ``REPRO_CHAOS`` config.
    """
    return worker_main(argv, server_cls=FaultyShardServer)


if __name__ == "__main__":
    sys.exit(main())
