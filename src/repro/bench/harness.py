"""Experiment harness: index builders, timing, and paper-style reports.

Each benchmark module reproduces one table or figure of the paper's
Section 4.  The harness centralises what they share: loading each index
type, timing a call, and printing the measured rows/series next to the
paper's own numbers so the *shape* comparison (who wins, by what factor)
is one glance away.

Reports are printed to stdout and written to
``benchmarks/_results/<experiment>.txt``, replacing the previous run's
table, so a benchmark run leaves one reviewable transcript per experiment
(EXPERIMENTS.md quotes them).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.baselines.apex import ApexIndex
from repro.baselines.nodeindex import XissIndex
from repro.baselines.pathindex import PathIndex
from repro.index.naive import NaiveIndex
from repro.index.rist import RistIndex
from repro.index.vist import VistIndex

__all__ = [
    "INDEX_KINDS",
    "build_index",
    "time_call",
    "Report",
]

INDEX_KINDS = ("vist", "rist", "naive", "path", "xiss", "apex")

_FACTORIES = {
    "vist": VistIndex,
    "rist": RistIndex,
    "naive": NaiveIndex,
    "path": PathIndex,
    "xiss": XissIndex,
    "apex": ApexIndex,
}


def build_index(kind: str, documents: Iterable, **kwargs):
    """Build an index of the given kind over ``documents``.

    ``kind`` is one of :data:`INDEX_KINDS`.
    """
    index = _FACTORIES[kind](**kwargs)
    for doc in documents:
        index.add(doc)
    if kind == "rist":
        index.finalize()
    return index


def time_call(fn: Callable[[], object]) -> tuple[float, object]:
    """Wall-clock one call; returns ``(seconds, result)``."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


@dataclass
class Report:
    """Collects measured rows for one experiment and prints/saves them.

    ``bar_column`` (an index into ``headers``) appends an ASCII bar chart
    column scaled to the column's maximum — the figure benchmarks use it
    so the curve shape is visible straight from the terminal.
    """

    experiment: str
    title: str
    headers: Sequence[str]
    paper_note: str = ""
    bar_column: Optional[int] = None
    rows: list[Sequence] = field(default_factory=list)

    _BAR_WIDTH = 24

    def add(self, *row) -> None:
        self.rows.append(row)

    def render(self) -> str:
        headers = list(self.headers)
        rows = [list(r) for r in self.rows]
        if self.bar_column is not None and rows:
            values = [float(r[self.bar_column]) for r in rows]
            top = max(values) or 1.0
            headers.append("")
            for r, v in zip(rows, values):
                r.append("▌" * max(1, round(self._BAR_WIDTH * v / top)))
        widths = [
            max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        if self.paper_note:
            lines.append(f"   paper: {self.paper_note}")
        lines.append("   " + "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
        for row in rows:
            lines.append(
                "   " + "  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths))
            )
        return "\n".join(lines)

    def emit(self, directory: Optional[str] = None) -> None:
        """Print the table and write it under ``benchmarks/_results``,
        replacing the previous run's transcript."""
        text = self.render()
        print("\n" + text)
        if directory is None:
            directory = os.path.join(os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__))))),
                "benchmarks", "_results")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.experiment}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
