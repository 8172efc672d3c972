"""Per-query trace recorder: a tree of lightweight spans.

A :class:`QueryTrace` is handed to :meth:`XmlIndexBase.query` (CLI:
``repro query --explain``).  Evaluation stages open spans —
translation, one per match alternative, one per frontier level of
Algorithm 2, DocId output, verification, degraded fallback — and attach
the counter *deltas* the stage consumed (page reads, posting-cache
hits, range queries, candidates, guard ticks).  The
result is a per-stage attribution of one query: which level of which
alternative did the index traversals, how many pages they touched, and
where the time went.

Cost model: spans are only recorded when a trace is active, and the
instrumented code guards with a hoisted-local ``if trace is not None``
at stage granularity (per level, never per state or candidate).  With
``trace=None`` the query path is unchanged.
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["Span", "QueryTrace"]


class Span:
    """One timed stage with free-form metadata and child spans."""

    __slots__ = ("name", "meta", "t0", "t1", "children")

    def __init__(self, name: str, **meta) -> None:
        self.name = name
        self.meta: dict = meta
        self.t0 = time.perf_counter()
        self.t1: Optional[float] = None
        self.children: list[Span] = []

    @property
    def duration_ms(self) -> float:
        end = self.t1 if self.t1 is not None else time.perf_counter()
        return (end - self.t0) * 1000.0

    def annotate(self, **meta) -> None:
        self.meta.update(meta)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "duration_ms": self.duration_ms,
            **{k: v for k, v in self.meta.items()},
            **({"children": [c.to_dict() for c in self.children]}
               if self.children else {}),
        }


class QueryTrace:
    """Collects the span tree of one (or several) query evaluations."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def begin(self, name: str, **meta) -> Span:
        """Open a span as a child of the innermost open span."""
        span = Span(name, **meta)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, **meta) -> Span:
        """Close ``span`` (and anything left open inside it)."""
        if meta:
            span.meta.update(meta)
        while self._stack:
            top = self._stack.pop()
            if top.t1 is None:
                top.t1 = time.perf_counter()
            if top is span:
                break
        return span

    def annotate(self, **meta) -> None:
        """Attach metadata to the innermost open span."""
        self._stack[-1].annotate(**meta)

    def unwind_to(self, span: Optional[Span]) -> None:
        """Close spans left open above ``span`` (exception cleanup).

        A guard or corruption error can unwind past open level/alternative
        spans; callers that survive the exception (degraded fallback) call
        this so their next span attaches to the right parent.
        """
        while self._stack and self._stack[-1] is not span:
            top = self._stack.pop()
            if top.t1 is None:
                top.t1 = time.perf_counter()

    def span(self, name: str, **meta) -> "_SpanContext":
        """``with trace.span("verify"):`` convenience wrapper."""
        return _SpanContext(self, name, meta)

    def to_dict(self) -> dict:
        return {"spans": [root.to_dict() for root in self.roots]}

    def render(self) -> str:
        """The span tree as an indented text block (``--explain`` output)."""
        lines: list[str] = []
        for root in self.roots:
            self._render_span(root, "", True, lines, top=True)
        return "\n".join(lines)

    def _render_span(
        self, span: Span, prefix: str, last: bool, lines: list[str], top: bool = False
    ) -> None:
        meta = " ".join(f"{k}={_fmt(v)}" for k, v in span.meta.items())
        head = "" if top else ("└─ " if last else "├─ ")
        lines.append(
            f"{prefix}{head}{span.name} [{span.duration_ms:.2f} ms]"
            + (f" {meta}" if meta else "")
        )
        child_prefix = prefix if top else prefix + ("   " if last else "│  ")
        for i, child in enumerate(span.children):
            self._render_span(
                child, child_prefix, i == len(span.children) - 1, lines
            )


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if value < 1000 else f"{value:.0f}"
    return str(value)


class _SpanContext:
    __slots__ = ("_trace", "_name", "_meta", "span")

    def __init__(self, trace: QueryTrace, name: str, meta: dict) -> None:
        self._trace = trace
        self._name = name
        self._meta = meta
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._trace.begin(self._name, **self._meta)
        return self.span

    def __exit__(self, *_exc) -> None:
        assert self.span is not None
        self._trace.end(self.span)
