"""ShardedExecutor: fault-tolerant scatter-gather over worker processes.

The process-parallel counterpart of :class:`~repro.exec.QueryExecutor`:
one worker **process** per shard (spawned as ``python -m
repro.shard.worker``, each holding its shard's index open with its own
pager/WAL and answering over a loopback socket), a demultiplexing reader
thread per connection, and request pipelining — any number of client
threads can have queries in flight against every shard at once, which is
what actually breaks the GIL wall: the matching work runs in N
interpreters.

Every submitted query is fanned out to *all* shards and the per-shard
answers (local doc ids) are mapped through the
:class:`~repro.shard.routing.ShardMap` back to global ids and merged —
an exact union, because membership is a per-document decision.

**Fault tolerance** (docs/INTERNALS.md section 13) is layered on top:

* *Supervision* — a :class:`~repro.shard.supervisor.ShardSupervisor`
  watches every worker (process exit, connection EOF, heartbeat ping
  with its own deadline).  A death fails all in-flight futures for that
  shard immediately with a typed
  :class:`~repro.errors.ShardUnavailableError` — never a silent stall —
  and the worker is restarted with capped exponential backoff + jitter;
  past the restart budget the shard is marked ``down`` (sticky).
* *Per-RPC resilience* — every shard call carries a deadline (derived
  from the query guard's ``deadline_ms`` plus a grace period, else the
  executor-wide ``rpc_timeout_s``); idempotent ops (query/stats/ping)
  get bounded retries with backoff across worker restarts; ``hedge_ms``
  optionally duplicates a straggling query call and takes the first
  answer.
* *Graceful degradation* — with ``partial=True``, availability failures
  degrade to partial results annotated with the missing shard set
  (``QueryOutcome.missing_shards``) and counted in the
  ``shard.<K>.unavailable`` metrics; the default is fail-loud, where a
  missing shard poisons that outcome with a
  :class:`~repro.errors.ShardQueryError` whose causes are typed.

Writes route: :meth:`add` assigns the next global id, computes its shard
by the stable hash, and ships the document to exactly that worker (the
worker asserts the expected local id *before* mutating, so router/worker
layout drift is loud and side-effect free).  Writes are not idempotent,
so they never retry: a write against a restarting or down shard fails
fast with :class:`~repro.errors.ShardUnavailableError`.  The manifest is
re-written on :meth:`close`; a crash in between is absorbed by
:meth:`ShardMap.recover` on the next open.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.errors import ShardError, ShardQueryError, ShardUnavailableError
from repro.exec.executor import QueryOutcome
from repro.obs import MetricsRegistry
from repro.shard.protocol import recv_frame, rehydrate_error, send_frame
from repro.shard.routing import ShardMap, read_manifest, shard_dir, write_manifest
from repro.shard.supervisor import (
    DOWN,
    HEALTHY,
    RESTARTING,
    RestartPolicy,
    ShardSupervisor,
)

__all__ = ["ShardedExecutor"]

_SPAWN_TIMEOUT = 30.0
_SHUTDOWN_TIMEOUT = 10.0
#: poll interval while an RPC waits out a worker restart
_RESTART_WAIT_TICK = 0.05


class _ShardClient:
    """One worker process + its connection: spawn, pipeline, demux, respawn.

    The client owns the liveness *detection* half of supervision: the
    demux reader thread notices EOF/reset and immediately fails every
    pending future with a typed :class:`ShardUnavailableError` (the PR-6
    behaviour was to leave them hanging until a spawn timeout), flips the
    state to ``restarting``, and reports the loss via ``on_lost``.  The
    *recovery* half (backoff, budget, respawn) lives in the supervisor,
    which calls :meth:`restart` / :meth:`mark_down`.
    """

    def __init__(
        self,
        shard: int,
        path: Path,
        threads: int,
        *,
        worker_module: str = "repro.shard.worker",
        extra_env: Optional[dict] = None,
        socket_wrapper: Optional[Callable] = None,
        on_lost: Optional[Callable] = None,
    ) -> None:
        self.shard = shard
        self.path = path
        self.threads = threads
        self.worker_module = worker_module
        self.extra_env = dict(extra_env) if extra_env else None
        self.socket_wrapper = socket_wrapper
        self.on_lost = on_lost
        self.proc: Optional[subprocess.Popen] = None
        self.sock: Optional[socket.socket] = None
        self.state = RESTARTING  # becomes healthy once start() connects
        self.generation = 0
        self.down_reason: Optional[str] = None
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()  # state + pending map
        self._pending: dict[int, Future] = {}
        self._next_id = 0
        self._reader: Optional[threading.Thread] = None
        self._closed = False

    def start(self) -> None:
        import repro

        env = os.environ.copy()
        package_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # informative for logs; the chaos harness seeds per-worker rngs
        # from these so injected fault schedules are reproducible
        env["REPRO_SHARD_ID"] = str(self.shard)
        env["REPRO_SHARD_GENERATION"] = str(self.generation)
        if self.extra_env:
            env.update(self.extra_env)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", self.worker_module, str(self.path),
                "--port", "0", "--threads", str(self.threads),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        port = self._await_port()
        sock = socket.create_connection(("127.0.0.1", port), timeout=_SPAWN_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        if self.socket_wrapper is not None:
            sock = self.socket_wrapper(self.shard, sock)
        self.sock = sock
        with self._lock:
            self.state = HEALTHY
            generation = self.generation
        self._reader = threading.Thread(
            target=self._read_loop, args=(sock, generation), daemon=True
        )
        self._reader.start()

    def _await_port(self) -> int:
        """Read the worker's ``PORT <n>`` announcement, bounded in time."""
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + _SPAWN_TIMEOUT
        stream = self.proc.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardError(
                    f"shard {self.shard} worker did not announce a port "
                    f"within {_SPAWN_TIMEOUT:g}s"
                )
            if self.proc.poll() is not None:
                raise ShardError(
                    f"shard {self.shard} worker exited with code "
                    f"{self.proc.returncode} before announcing a port"
                )
            ready, _, _ = select.select([stream], [], [], min(remaining, 0.25))
            if not ready:
                continue
            line = stream.readline()
            if not line:
                continue
            if line.startswith("PORT "):
                return int(line.split()[1])

    # -- pipelined request/response --------------------------------------

    def call(self, payload: dict) -> Future:
        """Send one frame; the future resolves to the response object.

        Never raises: a send against a closed, restarting, or down shard
        returns a future pre-failed with a typed error, so callers (and
        the retry machinery above them) handle exactly one failure path.
        """
        future: Future = Future()
        with self._lock:
            if self._closed:
                future.set_exception(
                    ShardError(f"shard {self.shard} connection is closed")
                )
                return future
            if self.state != HEALTHY:
                future.set_exception(
                    ShardUnavailableError(
                        self.shard,
                        self.down_reason or f"worker is {self.state}",
                    )
                )
                return future
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = future
            sock = self.sock
        try:
            with self._send_lock:
                send_frame(sock, {"id": request_id, **payload})
        except (OSError, ShardError) as exc:
            with self._lock:
                self._pending.pop(request_id, None)
            if not future.done():
                future.set_exception(
                    ShardUnavailableError(self.shard, f"send failed: {exc}")
                )
        return future

    def _read_loop(self, sock: socket.socket, generation: int) -> None:
        error: Optional[BaseException] = None
        try:
            while True:
                response = recv_frame(sock)
                if response is None:
                    break
                with self._lock:
                    future = self._pending.pop(response.get("id", -1), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (OSError, ShardError) as exc:
            error = exc
        reason = "worker connection lost" + (
            f": {error}" if error is not None else " (EOF)"
        )
        self._connection_lost(generation, reason)

    def _connection_lost(self, generation: int, reason: str) -> None:
        """The detection path: fail in-flight futures *now*, typed.

        Idempotent per generation — the reader thread and a heartbeat
        :meth:`force_lost` may both report the same death; only the first
        transition out of ``healthy`` notifies ``on_lost`` (and thus
        schedules a restart).
        """
        with self._lock:
            if self.generation != generation:
                return  # a stale reader outliving a completed restart
            transitioned = False
            if not self._closed and self.state == HEALTHY:
                self.state = RESTARTING
                transitioned = True
            pending, self._pending = self._pending, {}
        exc = ShardUnavailableError(self.shard, reason)
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)
        if transitioned and self.on_lost is not None:
            self.on_lost(self, reason)

    def force_lost(self, reason: str) -> None:
        """Kill a wedged worker and run the connection-lost path.

        Used by the heartbeat: a worker that stopped answering pings may
        still hold its socket open, so waiting for EOF is not enough.
        """
        if self.proc is not None and self.proc.poll() is None:
            try:
                self.proc.kill()
            except OSError:
                pass
        self._connection_lost(self.generation, reason)

    # -- supervisor-driven recovery --------------------------------------

    def restart(self) -> None:
        """Respawn the worker (supervisor thread only).  Raises on failure."""
        self._teardown_process()
        with self._lock:
            if self._closed:
                raise ShardError(f"shard {self.shard} client is closed")
            self.generation += 1
        self.start()

    def mark_down(self, reason: str) -> None:
        with self._lock:
            if self.state != DOWN:
                self.state = DOWN
                self.down_reason = reason

    def _teardown_process(self) -> None:
        """Make sure the old process is dead before a respawn reuses its
        shard directory (two workers over one WAL would be corruption)."""
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None
        if self.proc is not None:
            if self.proc.poll() is None:
                try:
                    self.proc.kill()
                except OSError:
                    pass
            try:
                self.proc.wait(timeout=_SHUTDOWN_TIMEOUT)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                pass
            for stream in (self.proc.stdin, self.proc.stdout):
                if stream is not None:
                    try:
                        stream.close()
                    except OSError:
                        pass
            self.proc = None

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ShardUnavailableError(self.shard, "executor is closing")
                )
        # polite shutdown frame first; the stdin EOF and process kill below
        # are the backstops for a wedged worker
        try:
            if self.sock is not None:
                with self._send_lock:
                    send_frame(self.sock, {"id": -1, "op": "shutdown"})
        except (OSError, ShardError):
            pass
        if self.proc is not None and self.proc.stdin is not None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
        if self.proc is not None:
            try:
                self.proc.wait(timeout=_SHUTDOWN_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()


class ShardedExecutor:
    """Scatter-gather query execution over a sharded database directory.

    ``workers`` must equal the manifest's shard count when given (one
    process per shard; change the count with ``repro reshard``).
    ``guard_spec`` is a dict of per-query guard budgets (``deadline_ms``,
    ``max_steps``, ``max_page_reads``) applied worker-side with a fresh
    guard per query; its ``deadline_ms`` also derives the per-RPC
    deadline (plus ``rpc_grace_s``).

    Fault-tolerance knobs (see the module docstring):

    ``supervise``
        restart dead workers per ``restart_policy`` and heartbeat them
        every ``heartbeat_s`` (default on).  With ``supervise=False`` a
        dead worker's shard goes straight to ``down``: in-flight futures
        still fail promptly and typed, but nothing respawns.
    ``partial``
        degrade availability failures to partial results annotated with
        ``missing_shards`` instead of failing the outcome.
    ``hedge_ms``
        duplicate a query call that has not answered after this many
        milliseconds and take the first response.
    ``rpc_retries`` / ``retry_backoff_s``
        bounded retries (with exponential backoff) for idempotent calls
        that hit an availability failure — e.g. a worker that died and
        is being respawned.
    ``rpc_timeout_s``
        the default per-RPC deadline when no query guard supplies one.

    ``worker_module`` / ``worker_env`` / ``socket_wrapper`` are the chaos
    seams: the fault-injection harness in :mod:`repro.testing.chaos`
    swaps the spawned module for a ``FaultyWorker`` and interposes on the
    wire without the production path paying anything for it.

    The executor is a context manager; :meth:`close` shuts every worker
    down and persists the manifest.
    """

    def __init__(
        self,
        dbdir,
        *,
        workers: Optional[int] = None,
        verify: bool = False,
        guard_spec: Optional[dict] = None,
        threads_per_worker: int = 2,
        partial: bool = False,
        hedge_ms: Optional[float] = None,
        rpc_retries: int = 2,
        retry_backoff_s: float = 0.05,
        rpc_timeout_s: Optional[float] = 60.0,
        rpc_grace_s: float = 2.0,
        supervise: bool = True,
        restart_policy: Optional[RestartPolicy] = None,
        heartbeat_s: Optional[float] = 2.0,
        heartbeat_timeout_s: float = 10.0,
        worker_module: str = "repro.shard.worker",
        worker_env: Optional[dict] = None,
        socket_wrapper: Optional[Callable] = None,
    ) -> None:
        self.dbdir = Path(dbdir)
        manifest = read_manifest(self.dbdir)
        nshards = manifest["nshards"]
        if workers is not None and workers != nshards:
            raise ShardError(
                f"{self.dbdir} is sharded {nshards} ways; --workers "
                f"{workers} does not match (run `repro reshard` first)"
            )
        self.nshards = nshards
        self.verify = verify
        self.guard_spec = dict(guard_spec) if guard_spec else None
        self.partial = partial
        self.hedge_ms = hedge_ms
        self.rpc_retries = max(0, rpc_retries)
        self.retry_backoff_s = retry_backoff_s
        self.rpc_timeout_s = rpc_timeout_s
        self.rpc_grace_s = rpc_grace_s
        self.supervise = supervise
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.metrics = MetricsRegistry()
        self.map = ShardMap(nshards, manifest["next_doc_id"])
        self._write_lock = threading.Lock()  # serialises add/remove routing
        self._manifest_dirty = False
        self._closed = False
        self.clients: list[_ShardClient] = []
        self._supervisor = ShardSupervisor(
            restart_fn=self._restart_client,
            policy=restart_policy,
            heartbeat_s=heartbeat_s if supervise else None,
            heartbeat_fn=self._heartbeat if supervise else None,
        )
        try:
            for k in range(nshards):
                client = _ShardClient(
                    k,
                    shard_dir(self.dbdir, k),
                    threads_per_worker,
                    worker_module=worker_module,
                    extra_env=worker_env,
                    socket_wrapper=socket_wrapper,
                    on_lost=self._on_connection_lost,
                )
                client.start()
                self.clients.append(client)
            # supervision is live before the first RPC so even the
            # manifest-recovery stats below survive a worker dying young
            self._supervisor.start()
            bounds = []
            for client in self.clients:
                response = self._call(
                    client,
                    {"op": "stats"},
                    retryable=True,
                    timeout_s=_SPAWN_TIMEOUT,
                ).result(_SPAWN_TIMEOUT + 5.0)
                bound = response.get("id_bound") if response.get("ok") else None
                if not isinstance(bound, int):
                    raise ShardError(
                        f"shard {client.shard} stats carry no id_bound; "
                        "cannot reconcile the manifest"
                    )
                bounds.append(bound)
            if self.map.recover(bounds):
                self._manifest_dirty = True
        except BaseException:
            self.close()
            raise

    # -- supervision plumbing --------------------------------------------

    def _on_connection_lost(self, client: _ShardClient, reason: str) -> None:
        self._shard_counter(client.shard, "losses").inc()
        if self._closed:
            return
        if not self.supervise:
            client.mark_down(f"supervision disabled; {reason}")
            return
        self._supervisor.on_connection_lost(client, reason)

    def _restart_client(self, client: _ShardClient) -> None:
        client.restart()
        self._shard_counter(client.shard, "restarts").inc()

    def _heartbeat(self) -> None:
        """Ping every healthy worker; a miss force-kills and restarts it."""
        for client in self.clients:
            if client.state != HEALTHY:
                continue
            generation = client.generation

            def check(fut: Future, client=client, generation=generation) -> None:
                try:
                    fut.result()
                except BaseException as exc:  # noqa: BLE001 - liveness signal
                    if (
                        client.state == HEALTHY
                        and client.generation == generation
                        and not self._closed
                    ):
                        self._shard_counter(client.shard, "heartbeat_misses").inc()
                        client.force_lost(f"heartbeat failed: {exc}")

            self._call(
                client,
                {"op": "ping"},
                retryable=False,
                timeout_s=self.heartbeat_timeout_s,
            ).add_done_callback(check)

    def _shard_counter(self, shard: int, name: str):
        return self.metrics.counter(f"shard.{shard}.{name}")

    @property
    def healthy(self) -> bool:
        """Every shard's worker is up and connected."""
        return all(client.state == HEALTHY for client in self.clients)

    def shard_states(self) -> dict[int, str]:
        return {client.shard: client.state for client in self.clients}

    def await_healthy(self, timeout_s: float = 30.0) -> bool:
        """Block until all shards are healthy (or the timeout passes)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.healthy:
                return True
            time.sleep(0.02)
        return self.healthy

    # -- resilient per-RPC machinery -------------------------------------

    def _call(
        self,
        client: _ShardClient,
        payload: dict,
        *,
        retryable: bool,
        timeout_s: Optional[float],
        hedge_ms: Optional[float] = None,
    ) -> Future:
        """One logical RPC: deadline + bounded retries + optional hedge.

        The returned future resolves to the worker's response object
        (``ok`` true or false — worker-side typed errors are *answers*,
        not availability failures) or fails with a typed
        :class:`ShardUnavailableError` once retries/deadline are spent.
        Scheduling runs on the supervisor's event loop, so no timer
        threads are spawned per request.
        """
        logical: Future = Future()
        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        attempts = [0]

        def resolve(response) -> None:
            if not logical.done():
                try:
                    logical.set_result(response)
                except Exception:  # pragma: no cover - hedge race
                    pass

        def fail(exc: BaseException) -> None:
            if not logical.done():
                try:
                    logical.set_exception(exc)
                except Exception:  # pragma: no cover - hedge race
                    pass

        def attempt() -> None:
            if logical.done():
                return
            state = client.state
            if state == DOWN:
                fail(
                    ShardUnavailableError(
                        client.shard, client.down_reason or "shard is down"
                    )
                )
                return
            if state != HEALTHY and retryable and deadline is not None:
                # a restart is in flight: wait it out (without consuming
                # retry budget) as long as the deadline allows
                if time.monotonic() + _RESTART_WAIT_TICK < deadline:
                    self._supervisor.schedule(_RESTART_WAIT_TICK, attempt)
                else:
                    fail(
                        ShardUnavailableError(
                            client.shard, f"worker still {state} at the rpc deadline"
                        )
                    )
                return
            client.call(payload).add_done_callback(on_raw)

        def on_raw(fut: Future) -> None:
            if logical.done():
                return
            try:
                response = fut.result()
            except BaseException as exc:  # noqa: BLE001 - routed below
                on_failure(exc)
                return
            resolve(response)

        def on_failure(exc: BaseException) -> None:
            if logical.done():
                return
            can_retry = (
                retryable
                and isinstance(exc, ShardUnavailableError)
                and attempts[0] < self.rpc_retries
            )
            if can_retry:
                attempts[0] += 1
                delay = self.retry_backoff_s * (2.0 ** (attempts[0] - 1))
                if deadline is None or time.monotonic() + delay < deadline:
                    self._shard_counter(client.shard, "retries").inc()
                    self._supervisor.schedule(delay, attempt)
                    return
            fail(exc)

        def on_deadline() -> None:
            if logical.done():
                return
            self._shard_counter(client.shard, "rpc_timeouts").inc()
            fail(
                ShardUnavailableError(
                    client.shard,
                    f"no response within the {timeout_s:g}s rpc deadline",
                )
            )

        def on_hedge() -> None:
            if logical.done() or client.state != HEALTHY:
                return
            self._shard_counter(client.shard, "hedges").inc()

            def on_hedged(fut: Future) -> None:
                try:
                    response = fut.result()
                except BaseException:  # noqa: BLE001 - primary path decides
                    return
                resolve(response)

            client.call(payload).add_done_callback(on_hedged)

        attempt()
        if deadline is not None:
            timer = self._supervisor.schedule(timeout_s, on_deadline)
            logical.add_done_callback(lambda _f: self._supervisor.cancel(timer))
        if hedge_ms is not None:
            self._supervisor.schedule(hedge_ms / 1000.0, on_hedge)
        return logical

    def _rpc_deadline_s(self) -> Optional[float]:
        """Per-RPC deadline derived from the query guard, else the default."""
        if self.guard_spec and self.guard_spec.get("deadline_ms") is not None:
            return self.guard_spec["deadline_ms"] / 1000.0 + self.rpc_grace_s
        return self.rpc_timeout_s

    # -- querying --------------------------------------------------------

    def submit(
        self, query: str, position: int = 0, *, verify: Optional[bool] = None
    ) -> "Future[QueryOutcome]":
        """Fan one query out to every shard; resolves to a merged outcome."""
        if self._closed:
            raise ShardError("executor is closed")
        payload = {
            "op": "query",
            "xpath": query,
            "verify": self.verify if verify is None else verify,
        }
        if self.guard_spec:
            payload["guard"] = self.guard_spec
        outcome_future: Future = Future()
        state_lock = threading.Lock()
        results: dict[int, list[int]] = {}
        errors: dict[int, BaseException] = {}
        missing: dict[int, str] = {}
        detail: dict[int, dict] = {}
        remaining = [len(self.clients)]
        t0 = time.perf_counter()
        timeout_s = self._rpc_deadline_s()

        def finish() -> None:
            outcome = QueryOutcome(position=position, query=query)
            outcome.elapsed_ms = (time.perf_counter() - t0) * 1000.0
            outcome.shard_detail = {s: detail[s] for s in sorted(detail)}
            if errors:
                outcome.error = ShardQueryError(errors)
            else:
                merged: list[int] = []
                for s, locals_ in results.items():
                    globals_of = self.map.globals_of(s)
                    # add() tells the worker before the map: a local id
                    # past the map is a document whose add() has not
                    # returned yet, so this query need not see it
                    merged.extend(
                        globals_of[local] for local in locals_ if local < len(globals_of)
                    )
                outcome.result = sorted(merged)
                if missing:
                    outcome.missing_shards = sorted(missing)
                    self.metrics.counter("queries.partial").inc()
            outcome_future.set_result(outcome)

        def on_shard(s: int):
            def record_unavailable(exc: BaseException) -> None:
                if self.partial:
                    missing[s] = str(exc)
                    detail[s] = {"status": "missing", "error": str(exc)}
                    self._shard_counter(s, "unavailable").inc()
                else:
                    errors[s] = exc
                    detail[s] = {"status": "error", "error": str(exc)}

            def callback(fut: Future) -> None:
                try:
                    response = fut.result()
                except ShardUnavailableError as exc:
                    with state_lock:
                        record_unavailable(exc)
                except BaseException as exc:  # noqa: BLE001 - captured per shard
                    with state_lock:
                        errors[s] = exc
                        detail[s] = {"status": "error", "error": str(exc)}
                else:
                    with state_lock:
                        if response.get("ok"):
                            results[s] = response.get("result", [])
                            detail[s] = {
                                "status": "ok",
                                "elapsed_ms": response.get("elapsed_ms", 0.0),
                            }
                        else:
                            exc = rehydrate_error(response)
                            if isinstance(exc, ShardUnavailableError):
                                record_unavailable(exc)
                            else:
                                errors[s] = exc
                                detail[s] = {"status": "error", "error": str(exc)}
                with state_lock:
                    remaining[0] -= 1
                    done = remaining[0] == 0
                if done:
                    finish()

            return callback

        for client in self.clients:
            self._call(
                client,
                payload,
                retryable=True,
                timeout_s=timeout_s,
                hedge_ms=self.hedge_ms,
            ).add_done_callback(on_shard(client.shard))
        return outcome_future

    def run(self, queries: Sequence[str]) -> list[QueryOutcome]:
        """Run a batch; outcomes come back in submission order."""
        futures = [self.submit(query, i) for i, query in enumerate(queries)]
        return [future.result() for future in futures]

    # -- routed writes ---------------------------------------------------

    def _write_call(self, shard: int, payload: dict) -> dict:
        """One non-idempotent call: fail fast, never retry, never hang."""
        client = self.clients[shard]
        future = self._call(
            client, payload, retryable=False, timeout_s=self.rpc_timeout_s
        )
        timeout = (self.rpc_timeout_s or _SPAWN_TIMEOUT) + 5.0
        try:
            response = future.result(timeout)
        except TimeoutError as exc:  # pragma: no cover - deadline fires first
            raise ShardUnavailableError(shard, "write rpc stalled") from exc
        if not response.get("ok"):
            raise rehydrate_error(response)
        return response

    def add(self, document) -> int:
        """Route one document (XML text, node, or document) to its shard."""
        from repro.doc.model import XmlDocument, XmlNode

        if isinstance(document, XmlDocument):
            xml = document.root.to_xml()
        elif isinstance(document, XmlNode):
            xml = document.to_xml()
        else:
            xml = str(document)
        with self._write_lock:
            g = self.map.next_doc_id
            from repro.shard.routing import shard_of

            s = shard_of(g, self.nshards, self.map.hash_fn)
            expect_local = len(self.map.globals_of(s))
            self._write_call(
                s, {"op": "add", "xml": xml, "expect_local": expect_local}
            )
            self.map.append_next()
            self._manifest_dirty = True
            return g

    def remove(self, doc_id: int) -> None:
        with self._write_lock:
            s, local = self.map.route(doc_id)
            self._write_call(s, {"op": "remove", "local_id": local})

    # -- observability ---------------------------------------------------

    def supervision_snapshot(self) -> dict:
        """Supervision state + counters, JSON-ready (for stats/explain)."""
        snapshot = self.metrics.snapshot()
        snapshot["states"] = {
            str(client.shard): client.state for client in self.clients
        }
        snapshot["down"] = sorted(
            client.shard for client in self.clients if client.state == DOWN
        )
        snapshot["restarts_in_window"] = {
            str(k): n for k, n in sorted(self._supervisor.restart_counts().items())
        }
        return snapshot

    def stats(self) -> dict:
        """Per-shard metrics snapshots under ``shard.<K>`` keys."""
        futures = [
            (
                client.shard,
                self._call(
                    client,
                    {"op": "stats"},
                    retryable=True,
                    timeout_s=self.rpc_timeout_s,
                ),
            )
            for client in self.clients
        ]
        shards: dict[str, object] = {}
        for s, future in futures:
            try:
                response = future.result(_SPAWN_TIMEOUT)
            except BaseException as exc:  # noqa: BLE001 - reported inline
                shards[str(s)] = f"<error: {exc}>"
                continue
            shards[str(s)] = (
                response.get("snapshot")
                if response.get("ok")
                else f"<error: {response.get('error')}>"
            )
        return {
            "shard": shards,
            "routing": {
                "nshards": self.nshards,
                "next_doc_id": self.map.next_doc_id,
                "routed": self.map.shard_counts(),
            },
            "supervision": self.supervision_snapshot(),
        }

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._supervisor.stop()
        for client in self.clients:
            try:
                client.close()
            except Exception:
                pass
        if self._manifest_dirty:
            write_manifest(self.dbdir, self.nshards, self.map.next_doc_id)

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
