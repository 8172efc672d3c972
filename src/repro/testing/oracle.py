"""The differential oracle: every index family vs. the reference.

For each seed the oracle generates a corpus and a batch of queries
(:class:`~repro.testing.generator.DocQueryGenerator`), evaluates each
query with the naive reference evaluator
(:mod:`repro.testing.reference`), and then drives the whole index zoo:

* **ViST in both configurations** — posting cache on/off, each over
  the one file pager (:class:`~repro.storage.wal.WalPager`);
* **Naive** (Algorithm 1 on the materialised trie) and **RIST** (static
  labels);
* the two join-based baselines (**PathIndex**, **XissIndex**), which are
  natively exact.

Two equalities are asserted per query:

* *exact*: ``query(verify=True)`` of every index equals the reference
  result set (baselines compare their plain results — they are exact by
  construction);
* *raw*: the unverified subsequence-matching results of Naive, RIST and
  every ViST configuration agree with each other (they implement the
  same subsequence-matching semantics — Naive is Algorithm 1 on the
  materialised trie, the anchor — so any disagreement is a walker/cache
  bug even though raw results may legitimately differ from XPath).

On the first divergence of a seed the failing case is **shrunk**
(greedy: drop documents, prune document subtrees, simplify the query)
and reported with everything needed to replay it.  Failure reports can
be serialised to JSON for CI artifacts.

Reproduce a failing seed::

    PYTHONPATH=src python -m repro.testing.oracle --seeds N --start SEED

Run as a module for the CI sweep::

    PYTHONPATH=src python -m repro.testing.oracle --seeds 50 --out failures/
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.baselines.nodeindex import XissIndex
from repro.baselines.pathindex import PathIndex
from repro.doc.model import XmlNode
from repro.index.naive import NaiveIndex
from repro.index.rist import RistIndex
from repro.index.vist import VistIndex
from repro.query.ast import QueryNode
from repro.sequence.transform import SequenceEncoder
from repro.storage.wal import WalPager
from repro.testing.generator import DocQueryGenerator
from repro.testing.invariants import assert_invariants
from repro.testing.reference import reference_results

__all__ = [
    "VistConfig",
    "VIST_CONFIGS",
    "Divergence",
    "OracleReport",
    "DifferentialOracle",
]


@dataclass(frozen=True)
class VistConfig:
    """One ViST configuration: the posting cache on or off."""

    posting_cache: bool

    @property
    def name(self) -> str:
        return "vist[{}]".format("cache" if self.posting_cache else "nocache")


VIST_CONFIGS: tuple[VistConfig, ...] = tuple(
    VistConfig(posting_cache=cache) for cache in (True, False)
)


@dataclass
class Divergence:
    """One confirmed disagreement, shrunk and ready to replay."""

    seed: int
    family: str  # index/config name
    kind: str  # "exact" | "raw"
    xpath: str
    expected: list[int]  # corpus positions
    got: list[int]
    documents: list[str] = field(default_factory=list)  # XML of the shrunk corpus

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "family": self.family,
            "kind": self.kind,
            "xpath": self.xpath,
            "expected": self.expected,
            "got": self.got,
            "documents": self.documents,
            "reproduce": (
                f"PYTHONPATH=src python -m repro.testing.oracle "
                f"--start {self.seed} --seeds 1"
            ),
        }


@dataclass
class OracleReport:
    """Aggregate outcome of an oracle run."""

    seeds: int = 0
    pairs: int = 0  # (corpus, query) evaluations
    raw_exact: int = 0  # pairs exact mode answered from the index alone
    families: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def write_artifacts(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "oracle-failures.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [d.to_dict() for d in self.divergences], fh, indent=2, sort_keys=True
            )


class DifferentialOracle:
    """Drives every index family against the reference evaluator."""

    def __init__(
        self,
        *,
        docs_per_seed: int = 5,
        doc_size: int = 10,
        queries_per_seed: int = 4,
        shrink: bool = True,
        check_invariants: bool = True,
    ) -> None:
        self.docs_per_seed = docs_per_seed
        self.doc_size = doc_size
        self.queries_per_seed = queries_per_seed
        self.shrink = shrink
        self.check_invariants = check_invariants

    # -- index construction ----------------------------------------------

    def _build_vist(
        self, config: VistConfig, corpus: Sequence[XmlNode], workdir: str, tag: str = ""
    ) -> tuple[VistIndex, dict[int, int]]:
        db = os.path.join(workdir, f"{config.name}{tag}.db")
        index = VistIndex(
            SequenceEncoder(),
            pager=WalPager(db),
            posting_cache_size=64 if config.posting_cache else 0,
        )
        ids = index.add_all(corpus)
        return index, {doc_id: pos for pos, doc_id in enumerate(ids)}

    def _build_family(
        self, family: str, corpus: Sequence[XmlNode], workdir: str
    ) -> tuple[object, dict[int, int]]:
        for config in VIST_CONFIGS:
            if family == config.name:
                return self._build_vist(config, corpus, workdir, tag="-shrink")
        ctor = {
            "naive": NaiveIndex,
            "rist": RistIndex,
            "pathindex": PathIndex,
            "xissindex": XissIndex,
        }[family]
        index = ctor(SequenceEncoder())
        ids = index.add_all(corpus)
        return index, {doc_id: pos for pos, doc_id in enumerate(ids)}

    @staticmethod
    def _positions(doc_ids: Sequence[int], id_to_pos: dict[int, int]) -> list[int]:
        return sorted(id_to_pos[d] for d in doc_ids)

    # -- per-seed run ----------------------------------------------------

    def run_seed(self, seed: int) -> tuple[int, int, list[Divergence]]:
        """Evaluate one seed; returns (pairs evaluated, pairs the first
        ViST configuration answered raw-exact, divergences)."""
        generator = DocQueryGenerator(seed)
        corpus = generator.corpus(self.docs_per_seed, self.doc_size)
        queries = [generator.query(corpus) for _ in range(self.queries_per_seed)]
        hasher = SequenceEncoder().hasher
        divergences: list[Divergence] = []
        with tempfile.TemporaryDirectory(prefix="oracle-") as workdir:
            indexes: dict[str, tuple[object, dict[int, int]]] = {}
            for config in VIST_CONFIGS:
                indexes[config.name] = self._build_vist(config, corpus, workdir)
            for family in ("naive", "rist", "pathindex", "xissindex"):
                indexes[family] = self._build_family(family, corpus, workdir)
            raw_families = ["naive", "rist"] + [c.name for c in VIST_CONFIGS]
            pairs = 0
            for query in queries:
                pairs += 1
                xpath = query.to_xpath()
                expected = reference_results(corpus, query, hasher)
                for family, (index, id_to_pos) in indexes.items():
                    got = self._positions(index.query(query, verify=True), id_to_pos)
                    if got != expected:
                        divergences.append(
                            self._report(
                                seed, family, "exact", corpus, query, expected, got
                            )
                        )
                anchor_family = raw_families[0]
                anchor_index, anchor_map = indexes[anchor_family]
                anchor_raw = self._positions(
                    anchor_index.query(query, verify=False), anchor_map
                )
                for family in raw_families[1:]:
                    index, id_to_pos = indexes[family]
                    raw = self._positions(index.query(query, verify=False), id_to_pos)
                    if raw != anchor_raw:
                        divergences.append(
                            self._report(
                                seed, family, "raw", corpus, query, anchor_raw, raw
                            )
                        )
                # a verified result can never *exceed* the reference for
                # the raw families (soundness is checked above via
                # equality; this re-asserts the anchor raw is a superset
                # of the exact answer, the documented false-positive-only
                # direction does NOT hold in general, so no assert here)
            if self.check_invariants:
                assert_invariants(indexes[VIST_CONFIGS[0].name][0])
            # deletion coherence: remove one document from a cached ViST
            # and re-check one query against the shrunken reference
            if corpus and queries:
                index, id_to_pos = indexes[VIST_CONFIGS[0].name]
                victim_pos = generator.rng.randrange(len(corpus))
                victim_id = next(
                    d for d, p in id_to_pos.items() if p == victim_pos
                )
                index.remove(victim_id)
                remaining = [
                    doc for pos, doc in enumerate(corpus) if pos != victim_pos
                ]
                remaining_map = {
                    d: (p if p < victim_pos else p - 1)
                    for d, p in id_to_pos.items()
                    if p != victim_pos
                }
                query = queries[0]
                pairs += 1
                expected = reference_results(remaining, query, hasher)
                got = self._positions(index.query(query, verify=True), remaining_map)
                if got != expected:
                    divergences.append(
                        Divergence(
                            seed=seed,
                            family=VIST_CONFIGS[0].name + "+remove",
                            kind="exact",
                            xpath=query.to_xpath(),
                            expected=expected,
                            got=got,
                            documents=[doc.to_xml() for doc in remaining],
                        )
                    )
                if self.check_invariants:
                    assert_invariants(index)
            # the index's own count: the routing ran, not just the classifier
            vist_index, _ = indexes[VIST_CONFIGS[0].name]
            raw_exact = vist_index.metrics.counter("queries.verify_skipped").value
            for index, _ in indexes.values():
                close = getattr(index, "close", None)
                if close is not None:
                    close()
        return pairs, raw_exact, divergences

    def _report(
        self,
        seed: int,
        family: str,
        kind: str,
        corpus: Sequence[XmlNode],
        query: QueryNode,
        expected: list[int],
        got: list[int],
    ) -> Divergence:
        """Build a divergence report, shrinking the case first."""
        docs = [copy.deepcopy(doc) for doc in corpus]
        shrunk_query = copy.deepcopy(query)
        if self.shrink:
            docs, shrunk_query = self._shrink(family, kind, docs, shrunk_query)
        expected2, got2 = self._evaluate_case(family, kind, docs, shrunk_query)
        return Divergence(
            seed=seed,
            family=family,
            kind=kind,
            xpath=shrunk_query.to_xpath(),
            expected=expected2,
            got=got2,
            documents=[doc.to_xml() for doc in docs],
        )

    # -- shrinking --------------------------------------------------------

    def _evaluate_case(
        self, family: str, kind: str, docs: list[XmlNode], query: QueryNode
    ) -> tuple[list[int], list[int]]:
        """(expected, got) for one family on one corpus/query pair."""
        hasher = SequenceEncoder().hasher
        with tempfile.TemporaryDirectory(prefix="oracle-shrink-") as workdir:
            index, id_to_pos = self._build_family(family, docs, workdir)
            try:
                if kind == "exact":
                    expected = reference_results(docs, query, hasher)
                    got = self._positions(index.query(query, verify=True), id_to_pos)
                else:
                    anchor, anchor_map = self._build_family("naive", docs, workdir)
                    expected = self._positions(
                        anchor.query(query, verify=False), anchor_map
                    )
                    got = self._positions(index.query(query, verify=False), id_to_pos)
            finally:
                close = getattr(index, "close", None)
                if close is not None:
                    close()
        return expected, got

    def _still_fails(
        self, family: str, kind: str, docs: list[XmlNode], query: QueryNode
    ) -> bool:
        if not docs:
            return False
        try:
            expected, got = self._evaluate_case(family, kind, docs, query)
        except Exception:
            return False  # a shrink step that crashes is not a reduction
        return expected != got

    def _shrink(
        self,
        family: str,
        kind: str,
        docs: list[XmlNode],
        query: QueryNode,
        max_rounds: int = 8,
    ) -> tuple[list[XmlNode], QueryNode]:
        """Greedy reduction: fewer docs, smaller docs, simpler query."""
        for _ in range(max_rounds):
            progressed = False
            # drop whole documents
            i = 0
            while i < len(docs):
                candidate = docs[:i] + docs[i + 1 :]
                if self._still_fails(family, kind, candidate, query):
                    docs = candidate
                    progressed = True
                else:
                    i += 1
            # prune one subtree at a time
            for doc_idx, doc in enumerate(docs):
                pruned = True
                while pruned:
                    pruned = False
                    for parent in doc.preorder():
                        for child_idx in range(len(parent.children)):
                            trial = copy.deepcopy(doc)
                            # locate the same parent in the copy by path
                            t_parent = _node_at(trial, _path_to(doc, parent))
                            del t_parent.children[child_idx]
                            candidate = list(docs)
                            candidate[doc_idx] = trial
                            if self._still_fails(family, kind, candidate, query):
                                docs = candidate
                                doc = trial
                                progressed = pruned = True
                                break
                        if pruned:
                            break
            # simplify the query: drop leaves / value predicates
            simplified = True
            while simplified:
                simplified = False
                for node in query.preorder():
                    if node.value is not None:
                        trial = copy.deepcopy(query)
                        _node_at_q(trial, _path_to_q(query, node)).value = None
                        if self._still_fails(family, kind, docs, trial):
                            query = trial
                            progressed = simplified = True
                            break
                    for child_idx in range(len(node.children)):
                        trial = copy.deepcopy(query)
                        t_node = _node_at_q(trial, _path_to_q(query, node))
                        del t_node.children[child_idx]
                        if self._still_fails(family, kind, docs, trial):
                            query = trial
                            progressed = simplified = True
                            break
                    if simplified:
                        break
            if not progressed:
                break
        return docs, query

    # -- batch runs -------------------------------------------------------

    def run(
        self,
        seeds: Sequence[int],
        *,
        progress: Optional[Callable[[int, OracleReport], None]] = None,
    ) -> OracleReport:
        report = OracleReport(families=len(VIST_CONFIGS) + 4)
        for seed in seeds:
            pairs, raw_exact, divergences = self.run_seed(seed)
            report.seeds += 1
            report.pairs += pairs
            report.raw_exact += raw_exact
            report.divergences.extend(divergences)
            if progress is not None:
                progress(seed, report)
        return report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.testing.oracle",
        description="differential oracle: all index families vs. the reference",
    )
    parser.add_argument("--seeds", type=int, default=50, help="number of seeds")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument("--docs", type=int, default=5, help="documents per seed")
    parser.add_argument("--doc-size", type=int, default=10, help="nodes per document")
    parser.add_argument("--queries", type=int, default=4, help="queries per seed")
    parser.add_argument("--out", help="directory for the failure artifact JSON")
    parser.add_argument(
        "--no-shrink", action="store_true", help="report divergences unshrunk"
    )
    args = parser.parse_args(argv)
    oracle = DifferentialOracle(
        docs_per_seed=args.docs,
        doc_size=args.doc_size,
        queries_per_seed=args.queries,
        shrink=not args.no_shrink,
    )
    report = oracle.run(range(args.start, args.start + args.seeds))
    print(
        f"oracle: {report.seeds} seed(s), {report.pairs} document/query pair(s) "
        f"({report.raw_exact} answered raw-exact, without verification), "
        f"{report.families} famil(ies)/config(s), "
        f"{len(report.divergences)} divergence(s)"
    )
    for divergence in report.divergences:
        print(json.dumps(divergence.to_dict(), indent=2, sort_keys=True))
    if args.out and report.divergences:
        report.write_artifacts(args.out)
        print(f"failure artifacts written to {args.out}")
    if report.seeds >= 50 and not report.raw_exact:
        # every exact answer went through the verifier: the classifier
        # has gone vacuous, and equality alone would never show it
        print("oracle: no pair was answered raw-exact")
        return 1
    return 1 if report.divergences else 0


def _path_to(root: XmlNode, target: XmlNode) -> list[int]:
    """Child-index path from ``root`` to ``target`` (identity match)."""

    def walk(node: XmlNode, path: list[int]) -> Optional[list[int]]:
        if node is target:
            return path
        for i, child in enumerate(node.children):
            found = walk(child, path + [i])
            if found is not None:
                return found
        return None

    found = walk(root, [])
    assert found is not None
    return found


def _node_at(root: XmlNode, path: list[int]) -> XmlNode:
    node = root
    for i in path:
        node = node.children[i]
    return node


def _path_to_q(root: QueryNode, target: QueryNode) -> list[int]:
    def walk(node: QueryNode, path: list[int]) -> Optional[list[int]]:
        if node is target:
            return path
        for i, child in enumerate(node.children):
            found = walk(child, path + [i])
            if found is not None:
                return found
        return None

    found = walk(root, [])
    assert found is not None
    return found


def _node_at_q(root: QueryNode, path: list[int]) -> QueryNode:
    node = root
    for i in path:
        node = node.children[i]
    return node


if __name__ == "__main__":
    raise SystemExit(main())
