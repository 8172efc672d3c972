"""Readers–writer lock for the concurrent read path.

The index stack was built single-writer / no-concurrent-readers (see the
original :mod:`repro.storage.bptree` docstring).  The concurrent read
path keeps that write-side simplicity and adds snapshot isolation at the
index boundary: any number of queries run under the read lock, a
mutation (``add``/``remove``/``finalize``/``flush``) holds the write
lock alone, so every query observes the index as of the moment its read
section began — tree structure, scope labels and posting groups cannot
change underneath it.
"""

from __future__ import annotations

import threading

__all__ = ["RWLock"]


class _Section:
    """Reusable context manager bound to one acquire/release pair.

    Stateless (the lock itself tracks per-thread depth), so one instance
    per lock serves every thread and nesting level without allocation on
    the query hot path.
    """

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire, release) -> None:
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> "_Section":
        self._acquire()
        return self

    def __exit__(self, *_exc) -> bool:
        self._release()
        return False


class RWLock:
    """Reentrant readers–writer lock with writer preference.

    Semantics:

    * many threads may hold the read lock at once; the write lock is
      exclusive against readers and other writers;
    * **reentrant**: a thread may nest read sections in read sections and
      write sections in write sections, and may open read sections while
      holding the write lock (``query_nodes`` calls ``query``; ``remove``
      reads the tree it is mutating);
    * **no upgrade**: a thread holding only the read lock must not
      request the write lock — that raises ``RuntimeError`` instead of
      deadlocking two upgraders against each other;
    * **writer preference**: once a writer is waiting, fresh first-entry
      readers queue behind it, so sustained query traffic cannot starve
      inserts.  Reentrant re-entries are always admitted (blocking them
      would deadlock the thread against itself).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0  # threads currently inside read sections
        self._writer: int | None = None  # ident of the write-lock holder
        self._writer_depth = 0
        self._writers_waiting = 0
        self._local = threading.local()  # per-thread read-section depth
        self._read_section = _Section(self.acquire_read, self.release_read)
        self._write_section = _Section(self.acquire_write, self.release_write)

    # -- context-manager entry points -----------------------------------

    def read(self) -> _Section:
        """``with lock.read(): ...`` — shared access."""
        return self._read_section

    def write(self) -> _Section:
        """``with lock.write(): ...`` — exclusive access."""
        return self._write_section

    # -- read side -------------------------------------------------------

    def acquire_read(self) -> None:
        depth = getattr(self._local, "depth", 0)
        if depth or self._writer == threading.get_ident():
            # reentrant read, or read inside this thread's own write
            # section (which already excludes everyone else)
            self._local.depth = depth + 1
            return
        with self._cond:
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        self._local.depth = 1

    def release_read(self) -> None:
        depth = getattr(self._local, "depth", 0)
        if depth == 0:
            raise RuntimeError("release_read without a matching acquire_read")
        self._local.depth = depth - 1
        if depth > 1 or self._writer == threading.get_ident():
            return
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- write side ------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        if self._writer == me:
            self._writer_depth += 1
            return
        if getattr(self._local, "depth", 0):
            raise RuntimeError(
                "cannot upgrade a read lock to a write lock; leave the read "
                "section first"
            )
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
                self._writer = me
                self._writer_depth = 1
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        if self._writer != threading.get_ident():
            raise RuntimeError(
                "release_write by a thread that does not hold the write lock"
            )
        self._writer_depth -= 1
        if self._writer_depth:
            return
        with self._cond:
            self._writer = None
            self._cond.notify_all()
