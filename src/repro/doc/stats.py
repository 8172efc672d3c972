"""Corpus statistics collected from documents.

:class:`CorpusStats` accumulates per-label fanout, value cardinalities,
depth and sequence-length distributions from sample documents.  The
synthetic data generator collects these on the fly, matching the paper's
remark that "we collect statistics during data generation" (Section 4).
The paper feeds such estimates to Eq. 5–6 as λ; this index does not:
:meth:`repro.labeling.dynamic.Chain.allocate` gives child ``k`` a
closed-form ``1/(k + 2)`` of what is left, which needs no estimate
(DESIGN §6).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.doc.model import XmlDocument, XmlNode

__all__ = ["CorpusStats"]


@dataclass
class CorpusStats:
    """Incrementally-updated statistics over a document corpus."""

    documents: int = 0
    nodes: int = 0
    max_depth: int = 0
    _fanout_sum: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _fanout_count: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _values: dict[str, set[str]] = field(default_factory=lambda: defaultdict(set))
    _child_labels: dict[str, set[str]] = field(default_factory=lambda: defaultdict(set))

    def observe(self, document: XmlDocument) -> None:
        """Fold one document into the statistics (uses the expanded tree)."""
        self.documents += 1
        root = document.root.expanded()
        self.max_depth = max(self.max_depth, root.depth())
        for node in root.preorder():
            self.nodes += 1
            if node.is_value:
                continue
            self._fanout_sum[node.label] += len(node.children)
            self._fanout_count[node.label] += 1
            for child in node.children:
                if child.is_value:
                    self._values[node.label].add(child.value)
                else:
                    self._child_labels[node.label].add(child.label)

    # -- estimates ---------------------------------------------------------

    def expected_fanout(self, label: str, default: float = 2.0) -> float:
        """Mean child count observed under ``label``."""
        count = self._fanout_count.get(label, 0)
        if count == 0:
            return default
        return max(1.0, self._fanout_sum[label] / count)

    def distinct_values(self, label: str, default: int = 64) -> int:
        """Estimated number of distinct values under ``label``."""
        values = self._values.get(label)
        return len(values) if values else default

    def distinct_child_labels(self, label: str) -> int:
        return len(self._child_labels.get(label, ()))

    def mean_nodes_per_document(self) -> float:
        return self.nodes / self.documents if self.documents else 0.0

    def labels(self) -> list[str]:
        """Every element/attribute label seen, sorted."""
        return sorted(self._fanout_count)
