"""Query guards and index health tracking.

A :class:`QueryGuard` puts cooperative limits on one query evaluation: a
wall-clock deadline, a matcher-step budget, a page-read budget, and an
external cancellation flag.  The matching layer calls :meth:`QueryGuard.step`
at its loop points (one step per search state expanded and per D/S-Ancestor
range query issued), so a runaway query — a pathological wildcard pattern, a
corrupted tree that loops — is interrupted within a bounded amount of work
rather than running forever.  A guard covers **one query at a time**: the
index calls :meth:`QueryGuard.start` when evaluation begins, which resets
every piece of per-query state — the step count, the page-read baseline,
the lazily-armed deadline clock *and* a pending :meth:`QueryGuard.cancel`
— so reusing a guard object across sequential queries is safe and a
cancellation delivered to one query can never poison the next
(:meth:`QueryGuard.reset` is the standalone form).  Concurrent queries
must each use their own guard (the shard worker and ``repro serve``
build a fresh one per request).

:class:`IndexHealth` records what the corruption-defense layer observed.
An index starts ``ok``; the first :class:`~repro.errors.CorruptionError`
raised while answering a query flips it to ``read-suspect`` and the query
is re-answered through the docstore-backed reference evaluator (degraded
mode, see :meth:`XmlIndexBase.query`).  ``repro stats`` surfaces the
report so an operator knows to run ``repro scrub`` / ``repro salvage``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import (
    QueryBudgetExceededError,
    QueryCancelledError,
    QueryTimeoutError,
)

__all__ = ["QueryGuard", "IndexHealth", "HealthEvent"]


class QueryGuard:
    """Cooperative deadline / budget / cancellation for one query.

    All limits are optional; a guard with none configured is free to
    tick.  ``step()`` is called by the evaluation loops; it counts the
    step and re-checks every limit, raising
    :class:`~repro.errors.QueryTimeoutError`,
    :class:`~repro.errors.QueryBudgetExceededError` or
    :class:`~repro.errors.QueryCancelledError`.  Cancellation is
    cooperative: :meth:`cancel` may be called from another thread and
    takes effect at the next tick.
    """

    def __init__(
        self,
        *,
        deadline_ms: Optional[float] = None,
        max_steps: Optional[int] = None,
        max_page_reads: Optional[int] = None,
    ) -> None:
        self.deadline_ms = deadline_ms
        self.max_steps = max_steps
        self.max_page_reads = max_page_reads
        self.steps = 0
        self._cancelled = False
        self._t0: Optional[float] = None
        self._page_counter: Optional[Callable[[], int]] = None
        self._pages0 = 0

    @classmethod
    def from_spec(cls, spec: Optional[dict]) -> Optional["QueryGuard"]:
        """A fresh guard with the budgets a ``{"deadline_ms", "max_steps",
        "max_page_reads"}`` dict sets (the form the shard workers receive
        on the wire), or ``None`` when it sets none."""
        budgets = {
            name: (spec or {}).get(name)
            for name in ("deadline_ms", "max_steps", "max_page_reads")
        }
        if all(value is None for value in budgets.values()):
            return None
        return cls(**budgets)

    def start(self, page_counter: Optional[Callable[[], int]] = None) -> "QueryGuard":
        """Begin one query: reset all per-query state and start timing.

        ``page_counter`` reports cumulative pager reads.  A pending
        :meth:`cancel` from a previous query is cleared — cancellation
        targets the query in flight, not the guard object forever.
        """
        self._t0 = time.monotonic()
        self.steps = 0
        self._cancelled = False
        self._page_counter = page_counter
        self._pages0 = page_counter() if page_counter is not None else 0
        return self

    def reset(self) -> "QueryGuard":
        """Return the guard to its pristine pre-:meth:`start` state.

        Clears the step count, the cancellation flag, the page-read
        baseline and the deadline clock — including a ``_t0`` that was
        *lazily* armed by a :meth:`check` before any :meth:`start` (the
        reuse leak this method exists to prevent).
        """
        self._t0 = None
        self.steps = 0
        self._cancelled = False
        self._page_counter = None
        self._pages0 = 0
        return self

    def cancel(self) -> None:
        """Request cancellation; the query dies at its next tick."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def elapsed_ms(self) -> float:
        """Milliseconds since :meth:`start` (0.0 before it)."""
        return 0.0 if self._t0 is None else (time.monotonic() - self._t0) * 1000.0

    @property
    def page_reads(self) -> int:
        """Pager reads issued since :meth:`start` (0 without a counter)."""
        if self._page_counter is None:
            return 0
        return self._page_counter() - self._pages0

    def step(self, n: int = 1) -> None:
        """Count ``n`` units of matcher work and enforce every limit."""
        self.steps += n
        self.check()

    def check(self) -> None:
        """Enforce the limits without consuming a step."""
        if self._cancelled:
            raise QueryCancelledError("query cancelled by its guard")
        if self.deadline_ms is not None:
            if self._t0 is None:
                # Lazy start for guards checked before start() was called:
                # begin timing only.  Resetting via start() here would wipe
                # self.steps and the page counter mid-query, silently
                # disabling the step/page budgets on the first deadline tick.
                self._t0 = time.monotonic()
            elapsed = self.elapsed_ms
            if elapsed > self.deadline_ms:
                raise QueryTimeoutError(self.deadline_ms, elapsed)
        if self.max_steps is not None and self.steps > self.max_steps:
            raise QueryBudgetExceededError("matcher-step", self.max_steps, self.steps)
        if self.max_page_reads is not None and self._page_counter is not None:
            used = self.page_reads
            if used > self.max_page_reads:
                raise QueryBudgetExceededError("page-read", self.max_page_reads, used)


@dataclass
class HealthEvent:
    """One corruption observation (kept verbatim for the health report)."""

    kind: str  # exception class name, e.g. "CorruptPageError"
    detail: str  # the exception message

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


@dataclass
class IndexHealth:
    """Degradation state of one index instance.

    ``status`` is ``"ok"`` until a corruption error surfaces during
    query evaluation, then ``"read-suspect"``: raw index answers can no
    longer be trusted and queries are served through the docstore until
    the index is salvaged.  ``degraded_queries`` counts answers that
    took the fallback path.
    """

    status: str = "ok"
    events: list[HealthEvent] = field(default_factory=list)
    degraded_queries: int = 0
    dropped_events: int = 0

    _MAX_EVENTS = 32  # keep the report bounded under sustained corruption

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def record_corruption(self, exc: BaseException) -> None:
        """Mark the index read-suspect because of ``exc``."""
        self.status = "read-suspect"
        if len(self.events) < self._MAX_EVENTS:
            self.events.append(HealthEvent(type(exc).__name__, str(exc)))
        else:
            self.dropped_events += 1

    def report(self) -> dict:
        """JSON-ready health summary (shown by ``repro stats``)."""
        return {
            "status": self.status,
            "degraded_queries": self.degraded_queries,
            "dropped_events": self.dropped_events,
            "events": [event.to_dict() for event in self.events],
        }

    def summary(self) -> str:
        if self.ok:
            return "health: ok"
        total = len(self.events) + self.dropped_events
        lines = [
            f"health: {self.status} "
            f"({total} corruption event(s), "
            f"{self.degraded_queries} degraded quer{'y' if self.degraded_queries == 1 else 'ies'})"
        ]
        for event in self.events:
            lines.append(f"  {event.kind}: {event.detail}")
        if self.dropped_events:
            lines.append(
                f"  ... and {self.dropped_events} more event(s) not retained"
            )
        lines.append("  run `repro scrub` to assess and `repro salvage` to rebuild")
        return "\n".join(lines)
