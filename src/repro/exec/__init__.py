"""Concurrent reads of one index: the readers–writer lock."""

from repro.exec.locks import RWLock

__all__ = ["RWLock"]
