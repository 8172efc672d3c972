"""Length-prefixed JSON frames — the one wire format of the shard layer.

Framing: a 4-byte big-endian payload length followed by that many bytes
of UTF-8 JSON.  The same framing carries both the worker protocol
(parent ↔ per-shard worker process) and the ``repro serve --port`` client
protocol; only the payload schemas differ.

Worker requests are objects with an ``op`` and a caller-chosen ``id``
echoed back in the response (responses may arrive out of order — the
worker answers queries one at a time on its query thread, but every
other op inline on the connection thread, so a ``ping`` or ``add`` reply
can overtake a query's)::

    {"id": 7, "op": "query", "xpath": "//a[b]", "verify": false,
     "guard": {"deadline_ms": 100.0}}          # guard keys optional
    {"id": 8, "op": "add", "xml": "<a/>", "expect_local": 3}
    {"id": 9, "op": "remove", "local_id": 3}
    {"id": 0, "op": "ping"} | {"op": "stats"} | {"op": "shutdown"}

Responses: ``{"id": n, "ok": true, ...}`` with op-specific payload
(``result`` for queries — *local* doc ids — ``local_id`` for adds,
``snapshot`` for stats), or ``{"id": n, "ok": false, "error": "...",
"error_type": "QueryTimeoutError"}``.  ``error_type`` is the exception
class name; clients rehydrate it against :mod:`repro.errors` so guard
deadlines keep their CLI exit codes across the process boundary.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional

from repro.errors import ProtocolError, ShardError

__all__ = [
    "FrameError",
    "MAX_FRAME",
    "recv_frame",
    "send_frame",
    "rehydrate_error",
]

_LEN = struct.Struct(">I")
#: Upper bound on one frame's payload; a peer announcing more than this
#: is treated as corrupt framing rather than a 4 GiB allocation request.
MAX_FRAME = 64 * 1024 * 1024


class FrameError(ProtocolError):
    """The byte stream does not parse as length-prefixed JSON frames.

    A :class:`~repro.errors.ProtocolError` (CLI exit code 7): raised for
    oversized length prefixes, streams cut mid-frame, and payloads that
    are not UTF-8 JSON — never a raw ``ValueError``/``JSONDecodeError``.
    """


def send_frame(sock: socket.socket, obj) -> None:
    """Serialise ``obj`` and write one frame (atomic ``sendall``)."""
    try:
        data = json.dumps(obj, default=str).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise FrameError(f"payload is not JSON-serialisable: {exc}") from exc
    if len(data) > MAX_FRAME:
        raise FrameError(f"frame of {len(data)} bytes exceeds {MAX_FRAME}")
    sock.sendall(_LEN.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes, or ``None`` on a clean EOF at a boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 16))
        if not chunk:
            if got == 0:
                return None
            raise FrameError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket):
    """Read one frame; returns the decoded object, or ``None`` on EOF."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"peer announced a {length}-byte frame (max {MAX_FRAME})")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise FrameError("connection closed between header and payload")
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc


def rehydrate_error(response: dict) -> BaseException:
    """An exception mirroring a worker's ``ok: false`` response.

    Known :mod:`repro.errors` classes come back as a same-class instance
    (message-only — structured constructor args do not cross the wire),
    so ``QueryTimeoutError`` still maps to exit code 4 at the CLI.
    Anything else — an unknown ``error_type``, a non-exception name, a
    class whose construction misbehaves, even a response that is not a
    dict — degrades to a generic :class:`ShardError`; rehydration never
    raises on its own.
    """
    import repro.errors as errors_mod

    if not isinstance(response, dict):
        return errors_mod.ShardError(f"malformed worker error response: {response!r}")
    message = str(response.get("error", "unknown worker error"))
    name = response.get("error_type", "")
    cls = getattr(errors_mod, str(name), None)
    if isinstance(cls, type) and issubclass(cls, errors_mod.ReproError):
        # bypass structured __init__ signatures (QueryTimeoutError takes
        # floats, CorruptPageError a path/page/checksums …): the class is
        # what isinstance-based handling keys on, the message is display
        try:
            exc = cls.__new__(cls)
            BaseException.__init__(exc, message)
            return exc
        except Exception:  # exotic __new__ — fall through to the generic
            pass
    return errors_mod.ShardError(f"{name}: {message}" if name else message)
