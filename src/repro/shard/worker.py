"""Per-shard worker process: ``python -m repro.shard.worker SHARD_DIR``.

One worker owns one shard directory — a complete single-directory index
(pager, WAL, docstore) opened exactly as ``repro query``
would open it — and serves the frame protocol of
:mod:`repro.shard.protocol` on a loopback TCP socket.  Queries are
answered through the existing thread machinery: every ``query`` frame is
submitted to a :class:`~repro.exec.executor.QueryExecutor` over the open
index (snapshot isolation via the index RWLock, fresh
:class:`~repro.index.guard.QueryGuard` per query), so responses may
complete out of order and carry the request ``id`` for demultiplexing.
``add``/``remove`` frames run inline on the connection thread — the
index write lock already serialises them against in-flight reads.

Lifecycle: the worker announces ``PORT <n>`` on stdout once listening
(the parent spawns with ``--port 0`` and reads the line), exits on a
``shutdown`` frame, on SIGTERM/SIGINT, or when its stdin reaches EOF —
the parent holds the write end, so an orphaned worker always folds
instead of holding the shard's WAL hostage.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
from pathlib import Path

from repro.errors import ReproError
from repro.exec.executor import QueryExecutor
from repro.index.guard import QueryGuard
from repro.shard.protocol import FrameError, recv_frame, send_frame

__all__ = ["main", "serve_shard"]


def _guard_factory_from(spec):
    """A per-query guard factory for a frame's ``guard`` object, or None."""
    if not spec:
        return None
    deadline_ms = spec.get("deadline_ms")
    max_steps = spec.get("max_steps")
    max_page_reads = spec.get("max_page_reads")
    if deadline_ms is None and max_steps is None and max_page_reads is None:
        return None
    return lambda: QueryGuard(
        deadline_ms=deadline_ms,
        max_steps=max_steps,
        max_page_reads=max_page_reads,
    )


class _ShardServer:
    def __init__(self, index, threads: int) -> None:
        self.index = index
        self.executor = QueryExecutor(index, threads=threads)
        self.stop = threading.Event()
        self._conn_threads: list[threading.Thread] = []

    # -- per-connection --------------------------------------------------

    def handle_connection(self, conn: socket.socket) -> None:
        send_lock = threading.Lock()
        try:
            while not self.stop.is_set():
                try:
                    request = recv_frame(conn)
                except (FrameError, OSError):
                    break
                if request is None:  # client hung up
                    break
                self._dispatch(conn, send_lock, request)
                if request.get("op") == "shutdown":
                    break
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _reply(self, conn, send_lock, request_id, payload) -> None:
        try:
            with send_lock:
                send_frame(conn, {"id": request_id, **payload})
        except OSError:
            pass  # client gone; the work is already done

    def _fail(self, conn, send_lock, request_id, exc: BaseException) -> None:
        self._reply(
            conn,
            send_lock,
            request_id,
            {"ok": False, "error": str(exc), "error_type": type(exc).__name__},
        )

    def _dispatch(self, conn, send_lock, request) -> None:
        request_id = request.get("id", 0)
        op = request.get("op")
        try:
            if op == "query":
                guard_factory = _guard_factory_from(request.get("guard"))
                future = self.executor.submit_with(
                    request["xpath"],
                    verify=bool(request.get("verify", False)),
                    guard_factory=guard_factory,
                )

                def deliver(fut, _id=request_id):
                    outcome = fut.result()
                    if outcome.ok:
                        self._reply(conn, send_lock, _id, {
                            "ok": True,
                            "result": list(outcome.result),
                            "elapsed_ms": outcome.elapsed_ms,
                        })
                    else:
                        self._fail(conn, send_lock, _id, outcome.error)

                future.add_done_callback(deliver)
            elif op == "add":
                from repro.doc.parser import parse_document

                document = parse_document(request["xml"])
                expect = request.get("expect_local")
                # check the router's expectation BEFORE mutating: a stale,
                # duplicated, or replayed add must fail loudly without
                # inserting — writes are at-most-once, never retried
                if expect is not None and self.index.docstore.id_bound != expect:
                    raise ReproError(
                        f"shard would assign local id "
                        f"{self.index.docstore.id_bound}, router expected "
                        f"{expect} — layouts have diverged"
                    )
                local = self.index.add(document)
                if expect is not None and local != expect:
                    raise ReproError(
                        f"shard assigned local id {local}, router expected "
                        f"{expect} — layouts have diverged"
                    )
                self._reply(conn, send_lock, request_id,
                            {"ok": True, "local_id": local})
            elif op == "remove":
                self.index.remove(int(request["local_id"]))
                self._reply(conn, send_lock, request_id, {"ok": True})
            elif op == "stats":
                snapshot = self.index.metrics.snapshot()
                snapshot["documents"] = len(self.index)
                self._reply(conn, send_lock, request_id, {
                    "ok": True,
                    "snapshot": snapshot,
                    # id_bound (tombstones included) is what the router's
                    # manifest recovery reconciles against
                    "id_bound": self.index.docstore.id_bound,
                    "documents": len(self.index),
                })
            elif op == "flush":
                self.index.flush()
                self._reply(conn, send_lock, request_id, {"ok": True})
            elif op == "ping":
                self._reply(conn, send_lock, request_id, {"ok": True})
            elif op == "shutdown":
                self._reply(conn, send_lock, request_id, {"ok": True})
                self.stop.set()
            else:
                raise ReproError(f"unknown op {op!r}")
        except BaseException as exc:  # noqa: BLE001 - captured per frame
            if isinstance(exc, (SystemExit, KeyboardInterrupt)):
                raise
            self._fail(conn, send_lock, request_id, exc)

    # -- accept loop -----------------------------------------------------

    def serve(self, listener: socket.socket) -> None:
        listener.settimeout(0.25)  # poll the stop flag between accepts
        while not self.stop.is_set():
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=self.handle_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._conn_threads.append(thread)

    def close(self) -> None:
        self.stop.set()
        self.executor.close()


def serve_shard(
    shard_dir: Path,
    host: str,
    port: int,
    threads: int,
    server_cls: type = _ShardServer,
) -> int:
    """Open the shard and serve it until told to stop.

    ``server_cls`` is the fault-injection seam: the chaos harness
    (:mod:`repro.testing.chaos`) reuses this whole lifecycle — port
    announcement, stdin orphan watchdog, SIGTERM handling — around a
    server subclass that injects faults into the reply path.
    """
    from repro.cli import _close_index, open_index

    index = open_index(shard_dir)
    server = server_cls(index, threads)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
        print(f"PORT {listener.getsockname()[1]}", flush=True)

        def stdin_watch():
            # parent death closes our stdin pipe; fold instead of orphaning.
            # Raw os.read, NOT sys.stdin.buffer.read(): a daemon thread
            # parked inside the BufferedReader holds its lock, and
            # interpreter finalization (SIGTERM exit) aborts the whole
            # process trying to re-acquire it for the flush-on-shutdown.
            try:
                fd = sys.stdin.fileno()
                while os.read(fd, 4096):
                    pass
            except (OSError, ValueError):
                pass
            server.stop.set()

        threading.Thread(target=stdin_watch, daemon=True).start()
        signal.signal(signal.SIGTERM, lambda *_: server.stop.set())
        try:
            server.serve(listener)
        except KeyboardInterrupt:
            pass
    finally:
        try:
            listener.close()
        except OSError:
            pass
        server.close()
        _close_index(index)
    return 0


def main(argv=None, server_cls: type = _ShardServer) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.shard.worker",
        description="serve one index shard over the frame protocol",
    )
    parser.add_argument("shard_dir", type=Path)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks an ephemeral port (announced on stdout)")
    parser.add_argument("--threads", type=int, default=2,
                        help="query worker threads over the shard (default 2)")
    args = parser.parse_args(argv)
    return serve_shard(
        args.shard_dir, args.host, args.port, args.threads, server_cls=server_cls
    )


if __name__ == "__main__":
    sys.exit(main())
