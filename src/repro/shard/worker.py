"""Per-shard worker process: ``python -m repro.shard.worker SHARD_DIR``.

One worker owns one index directory — a shard, or a flat DBDIR —
opened by :func:`repro.dbdir.open_index` (pager, WAL, docstore), and
serves the frame protocol of :mod:`repro.shard.protocol` on a loopback
TCP socket.  A worker only reads: writes to a DBDIR go through
:class:`~repro.shard.router.ShardRouter`.  ``query`` frames
are answered one at a time, in arrival order, on the worker's one query
thread (a fresh :class:`~repro.index.guard.QueryGuard` per frame):
matching is pure Python under the GIL, so a second query thread would
add lock hand-offs and no parallelism — the parallelism is one process
per shard.  The other ops (``ping``, ``stats``, ``shutdown``) run inline
on the connection thread, so a long query can never make a heartbeat
miss.  Replies may therefore overtake one another and carry the request
``id`` for demultiplexing.

Lifecycle: the worker announces ``PORT <n>`` on stdout once listening
(the parent spawns with ``--port 0`` and reads the line), exits on a
``shutdown`` frame, on SIGTERM/SIGINT, or when its stdin reaches EOF —
the parent holds the write end, so an orphaned worker always folds
instead of holding the shard's WAL hostage.
"""

from __future__ import annotations

import argparse
import os
import queue
import signal
import socket
import sys
import threading
import time
from pathlib import Path

from repro.dbdir import close_index, open_index
from repro.errors import ReproError
from repro.index.guard import QueryGuard
from repro.shard.protocol import FrameError, recv_frame, send_frame

__all__ = ["main", "serve_shard"]


class _ShardServer:
    def __init__(self, index) -> None:
        self.index = index
        self.stop = threading.Event()
        self._conn_threads: list[threading.Thread] = []
        # (conn, send_lock, request) per query frame; None ends the thread
        self._queries: queue.SimpleQueue = queue.SimpleQueue()
        self._query_thread = threading.Thread(
            target=self._answer_queries, name="repro-query", daemon=True
        )
        self._query_thread.start()

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

    def _answer_queries(self) -> None:
        """The query thread: answer queued ``query`` frames in order."""
        for conn, send_lock, request in iter(self._queries.get, None):
            request_id = request.get("id", 0)
            t0 = time.perf_counter()
            try:
                result = self.index.query(
                    request["xpath"],
                    verify=bool(request.get("verify", False)),
                    guard=QueryGuard.from_spec(request.get("guard")),
                )
            except Exception as exc:  # an answer for this frame, not a crash
                self._fail(conn, send_lock, request_id, exc)
                continue
            self._reply(conn, send_lock, request_id, {
                "ok": True,
                "result": list(result),
                "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
            })

    def _dispatch(self, conn, send_lock, request) -> None:
        request_id = request.get("id", 0)
        op = request.get("op")
        if op == "query":
            self._queries.put((conn, send_lock, request))
            return
        try:
            if op == "stats":
                snapshot = self.index.metrics.snapshot()
                snapshot["documents"] = len(self.index)
                self._reply(conn, send_lock, request_id, {
                    "ok": True,
                    "snapshot": snapshot,
                    # id_bound (tombstones included) is what the
                    # executor's id map reconciles against
                    "id_bound": self.index.docstore.id_bound,
                    "documents": len(self.index),
                })
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
        """Stop, after the query thread answers what is already queued."""
        self.stop.set()
        self._queries.put(None)
        self._query_thread.join()


def serve_shard(
    shard_dir: Path,
    host: str,
    port: int,
    server_cls: type = _ShardServer,
) -> int:
    """Open the shard and serve it until told to stop.

    ``server_cls`` is the fault-injection seam: the chaos harness
    (:mod:`repro.testing.chaos`) reuses this whole lifecycle — port
    announcement, stdin orphan watchdog, SIGTERM handling — around a
    server subclass that injects faults into the reply path.
    """
    index = open_index(shard_dir)
    server = server_cls(index)
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
        close_index(index)
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
    args = parser.parse_args(argv)
    return serve_shard(args.shard_dir, args.host, args.port, server_cls=server_cls)


if __name__ == "__main__":
    sys.exit(main())
