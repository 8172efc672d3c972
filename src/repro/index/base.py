"""Shared index interface and helpers.

Every index in this package (Naive, RIST, ViST, and the two baselines)
answers *document-membership* queries: given a structural query, return
the ids of the documents that contain a match — exactly what the paper's
experiments measure.  :class:`XmlIndexBase` holds the common plumbing:
the sequence encoder, the query translator, the document store, and the
optional tree-embedding verification pass.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Optional, Union

from repro.doc.model import XmlDocument, XmlNode
from repro.errors import CorruptionError, IndexStateError, TranslationError
from repro.exec.locks import RWLock
from repro.index.guard import IndexHealth, QueryGuard
from repro.index.verification import (
    find_result_nodes,
    query_needs_raw_values,
    verify_document,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import QueryTrace
from repro.query.ast import QueryNode, QuerySequence
from repro.query.translate import QueryTranslator, raw_is_exact, relax_query_tree
from repro.query.xpath import parse_xpath
from repro.sequence.encoding import StructureEncodedSequence
from repro.sequence.transform import SequenceEncoder
from repro.storage.docstore import DocStore, MemoryDocStore

Query = Union[str, QueryNode]

__all__ = ["XmlIndexBase", "Query", "QueryPlan"]


@dataclass
class QueryPlan:
    """What :meth:`XmlIndexBase.explain` reports about a query.

    ``alternatives`` are the translated query sequences (empty for the
    join-based baselines, which do not translate); the boolean flags
    mirror the routing decisions :meth:`XmlIndexBase.query` makes.
    """

    index_type: str
    xpath: str
    alternatives: list[str] = field(default_factory=list)
    auto_verified: bool = False  # unexpressible constraint => verification
    relaxed_candidates: bool = False  # same-label branches in exact mode
    raw_exact: bool = False  # raw matching proven exact: verify=True skips the docstore
    needs_raw_values: bool = False  # range/inequality predicates
    translation_error: Optional[str] = None  # cap exceeded => fallback
    notes: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [f"query plan ({self.index_type}): {self.xpath}"]
        if self.alternatives:
            lines.append(f"  sequence alternatives: {len(self.alternatives)}")
            for alt in self.alternatives:
                lines.append(f"    {alt}")
        if self.translation_error:
            lines.append(f"  translation fallback: {self.translation_error}")
        for flag, label in [
            (self.auto_verified, "auto-verified (constraint not expressible raw)"),
            (self.relaxed_candidates, "exact mode uses relaxed candidates"),
            (self.raw_exact, "exact from the index (no verification)"),
            (self.needs_raw_values, "needs raw values (source_store)"),
        ]:
            if flag:
                lines.append(f"  {label}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


class XmlIndexBase:
    """Base class for the document-membership indexes."""

    def __init__(
        self,
        encoder: Optional[SequenceEncoder] = None,
        docstore: Optional[DocStore] = None,
        *,
        source_store: Optional[DocStore] = None,
    ) -> None:
        self.encoder = encoder if encoder is not None else SequenceEncoder()
        self.translator = QueryTranslator(self.encoder)
        self.docstore = docstore if docstore is not None else MemoryDocStore()
        # optional: keep the original XML text so query results can be
        # materialised back into documents (see get_document)
        self.source_store = source_store
        # corruption defense: health flips to "read-suspect" when a query
        # hits a checksum failure, and (with degraded_fallback) the
        # in-flight query is re-answered through the docstore
        self.health = IndexHealth()
        self.degraded_fallback = True
        # concurrency: queries run under the read side of this lock,
        # mutations (add/remove/finalize/flush) under the write side, so
        # every query sees the index as of its read-lock acquisition
        # (snapshot isolation at the index boundary; see docs/INTERNALS.md
        # section 11 and repro.exec.locks)
        self.rwlock = RWLock()
        # observability: the per-index metrics registry.  Components add
        # their stat bundles as pull-only sources (nothing on the hot path
        # changes); `repro stats --json` dumps registry.snapshot().
        self.metrics = MetricsRegistry()
        self.metrics.register("health", self.health.report)
        self._m_queries = self.metrics.counter("queries.total")
        self._m_degraded = self.metrics.counter("queries.degraded")
        self._m_latency = self.metrics.histogram("queries.latency_ms")
        # exact-mode routing: queries answered exactly, how many of them
        # from the index alone, and the candidates the rest had to load
        self._m_exact = self.metrics.counter("queries.exact")
        self._m_verify_skipped = self.metrics.counter("queries.verify_skipped")
        self._m_verified = self.metrics.counter("queries.verified_candidates")

    # -- ingestion ---------------------------------------------------------

    def add(self, document: Union[XmlDocument, XmlNode]) -> int:
        """Index one document (or record subtree); returns its doc id.

        A chunk of one through :meth:`add_batch`, with no commit: the
        caller owns the eventual :meth:`flush`."""
        return self.add_batch([document], durability="none")[0]

    def add_all(self, documents: Iterable[Union[XmlDocument, XmlNode]]) -> list[int]:
        """Index many documents; returns their doc ids.

        :meth:`add_batch` without its per-chunk commits: the caller owns
        the eventual :meth:`flush`, as for :meth:`add`.
        """
        return self.add_batch(documents, durability="none")

    def add_batch(
        self,
        documents: Iterable[Union[XmlDocument, XmlNode]],
        *,
        batch_size: int = 1000,
        durability: str = "batch",
    ) -> list[int]:
        """Bulk ingest: chunked lock sections and per-chunk commits.

        ``documents`` may be any iterable — a streaming record source
        included — and is consumed lazily, ``batch_size`` documents at a
        time, so peak memory stays flat in the corpus size.  Each chunk
        takes the write lock once and inserts its documents one at a
        time, each atomically: a document that fails is undone before
        the error escapes, and the documents before it in the chunk
        land.  Doc ids and index entries do not depend on the chunk size.

        ``durability="batch"`` (the default) makes each chunk durable in
        one commit: on a WAL-backed index a crash loses at most the open
        chunk and recovery lands exactly on a chunk boundary (the
        contract docs/INTERNALS.md section 14 spells out).
        ``durability="none"`` skips the per-chunk commit entirely; the
        caller owns the eventual :meth:`flush`.
        """
        if durability not in ("batch", "none"):
            raise IndexStateError(
                f"unknown durability mode {durability!r} (use 'batch' or 'none')"
            )
        if batch_size < 1:
            raise IndexStateError(f"batch_size must be >= 1, got {batch_size}")
        doc_ids: list[int] = []
        it = iter(documents)
        while chunk := list(islice(it, batch_size)):
            with self.rwlock.write():
                with self._chunk():
                    for document in chunk:
                        if not isinstance(document, XmlNode):
                            document = document.root
                        doc_ids.append(self._add_one_locked(document))
                if durability == "batch":
                    self.flush()
        return doc_ids

    def add_sequence(self, sequence: StructureEncodedSequence) -> int:
        """Index an already-encoded sequence (salvage and reshard replay
        stored ones); returns its doc id.  A chunk of one with no
        commit, like :meth:`add`, and no source text."""
        with self.rwlock.write(), self._chunk():
            return self._add_sequence_locked(sequence)

    @contextmanager
    def _chunk(self) -> Iterator[None]:
        """The one place a chunk is opened and applied (write lock held):
        its inserts stage, then :meth:`_end_batch` applies them — on the
        error path too, so the documents inserted before a failure land."""
        try:
            yield
        finally:
            self._end_batch()

    def _end_batch(self) -> None:
        """Hook: apply what the chunk staged (write lock held)."""

    def _add_one_locked(self, root: XmlNode) -> int:
        """One atomic document insert inside an open chunk.

        The sequence insert and the source append succeed or fail
        together: a source-store failure rolls the sequence insert back
        before the exception escapes, so no doc id is ever published
        with a sequence but no source text (an orphan only scrub would
        notice and salvage could never restore).
        """
        doc_id = self._add_sequence_locked(self.encoder.encode_node(root))
        if self.source_store is not None:
            try:
                source_id = self.source_store.add(root.to_xml().encode("utf-8"))
                if source_id != doc_id:
                    raise IndexStateError(
                        f"source store id {source_id} diverged from doc id {doc_id}; "
                        "the stores must be used by exactly one index"
                    )
            except BaseException:
                self._rollback_insert(doc_id)
                raise
        return doc_id

    def _add_sequence_locked(self, sequence: StructureEncodedSequence) -> int:
        """Insert one sequence inside an open chunk; returns its doc id."""
        raise NotImplementedError

    def _rollback_insert(self, doc_id: int) -> None:
        """Undo the sequence insert of ``doc_id`` — necessarily the most
        recent one, still inside the same chunk.

        The base implementation covers the trie-backed in-memory indexes
        (detach the doc id from its trie node, un-assign the docstore
        id); structure-specific indexes override it.
        """
        trie = getattr(self, "trie", None)
        if trie is not None:
            node = trie.root
            for item in self._payload_to_sequence(self.docstore.get(doc_id)):
                node = node.children[item]
            node.doc_ids.remove(doc_id)
        self.docstore.pop_last(doc_id)

    def flush(self) -> None:
        """Make everything added or removed so far durable.  In-memory
        indexes have nothing to commit."""

    def remove(self, doc_id: int) -> None:
        """Remove a document.  Indexes without dynamic deletion raise."""
        raise IndexStateError(
            f"{type(self).__name__} does not support dynamic deletion"
        )

    # -- querying ------------------------------------------------------------

    def query(
        self,
        query: Query,
        *,
        verify: bool = False,
        fallback: bool = True,
        guard: Optional[QueryGuard] = None,
        trace: Optional[QueryTrace] = None,
    ) -> list[int]:
        """Evaluate a structural query; returns sorted matching doc ids.

        ``query`` is an XPath-subset string or a pre-built query tree.
        ``verify=True`` asks for the exact answer: candidate documents
        are re-checked by tree embedding against their stored sequences,
        removing the false positives the raw ViST semantics admits —
        unless the query tree alone proves raw matching exact
        (:func:`~repro.query.translate.raw_is_exact`), in which case the
        index's answer is returned and no document is read (DESIGN.md §2).

        ``fallback`` enables the paper's footnote-2 escape hatch: a query
        whose branch permutations exceed
        :data:`~repro.query.translate.MAX_ALTERNATIVES` is
        *relaxed* (same-label branches deduplicated), raw-matched, and
        then always verified against the original tree — exact results
        at verification cost instead of a :class:`TranslationError`.

        ``guard`` bounds the evaluation (deadline, step and page-read
        budgets, cancellation); see :class:`~repro.index.guard.QueryGuard`.

        **Degraded mode.**  When stored pages or records fail their
        checksum mid-query and ``degraded_fallback`` is on (the default),
        the index is marked read-suspect in :attr:`health` and this query
        is re-answered exactly through the docstore-backed reference
        evaluation — slower, but never silently wrong.  With the fallback
        off, the :class:`~repro.errors.CorruptionError` propagates.

        ``trace`` (a :class:`~repro.obs.trace.QueryTrace`) records the
        evaluation as a span tree — translation, per-level matching,
        DocId output, verification, degraded fallback — with per-stage
        times and counter deltas (``repro query --explain``).
        """
        root = parse_xpath(query) if isinstance(query, str) else query
        # lazy structural work (e.g. RIST's first-query finalize) must run
        # under the *write* lock, so it happens before the read section
        self._prepare_for_query()
        if guard is not None:
            # started before the lock so the deadline covers lock wait:
            # a query stuck behind a long write still dies on time
            guard.start(self._page_read_counter())
        self._m_queries.inc()
        with self.rwlock.read():
            t0 = time.perf_counter()
            qspan = None
            if trace is not None:
                qspan = trace.begin(
                    "query", xpath=root.to_xpath(), engine=type(self).__name__
                )
            try:
                result = self._query_indexed(root, verify, fallback, guard, trace)
            except CorruptionError as exc:
                if not self.degraded_fallback:
                    if qspan is not None:
                        trace.end(qspan, error=type(exc).__name__)
                    raise
                self.health.record_corruption(exc)
                self._m_degraded.inc()
                if trace is not None:
                    # the error unwound past open match/level spans; close them
                    # so the fallback span attaches to the query span itself
                    trace.unwind_to(qspan)
                    with trace.span(
                        "degraded-fallback", reason=type(exc).__name__
                    ) as dspan:
                        result = self._degraded_query(root, guard)
                        dspan.annotate(results=len(result))
                else:
                    result = self._degraded_query(root, guard)
            except BaseException as exc:
                if qspan is not None:
                    trace.end(qspan, error=type(exc).__name__)
                raise
            self._m_latency.observe((time.perf_counter() - t0) * 1000.0)
            if qspan is not None:
                meta: dict = {"results": len(result)}
                if guard is not None:
                    meta["guard_steps"] = guard.steps
                    meta["guard_page_reads"] = guard.page_reads
                trace.end(qspan, **meta)
            return result

    def _prepare_for_query(self) -> None:
        """Hook run by :meth:`query` *before* taking the read lock.

        Indexes whose first query triggers structural work override this
        to do that work under the write lock (RIST's lazy ``finalize``),
        so nothing mutates shared structures inside a read section.
        """

    def _query_indexed(
        self,
        root: QueryNode,
        verify: bool,
        fallback: bool,
        guard: Optional[QueryGuard],
        trace: Optional[QueryTrace] = None,
    ) -> list[int]:
        """The normal (index-backed) evaluation path of :meth:`query`."""
        doc_ids, unverified = self._candidates(root, verify, fallback, guard, trace)
        if verify or unverified:
            self._m_exact.inc()
        if unverified:
            span = (
                trace.begin("verify", candidates=len(doc_ids))
                if trace is not None
                else None
            )
            self._m_verified.inc(len(doc_ids))
            verified = []
            for d in doc_ids:
                if guard is not None:
                    guard.step()
                if self._verify_one(d, root):
                    verified.append(d)
            doc_ids = verified
            if span is not None:
                trace.end(span, verified=len(verified))
        elif verify:
            self._m_verify_skipped.inc()
            if trace is not None:
                trace.annotate(verify="skipped: raw-exact")
        if guard is not None:
            guard.check()  # reads issued since the last tick still count
        return doc_ids

    def _candidates(
        self,
        root: QueryNode,
        verify: bool,
        fallback: bool,
        guard: Optional[QueryGuard],
        trace: Optional[QueryTrace],
    ) -> tuple[list[int], bool]:
        """Candidate doc ids of ``root`` and whether they still need
        verifying.  Ascending: docstore offsets ascend with ids, so the
        verifier reads the record file forward and guard ticks repeat."""
        # exact mode answers from the index alone when the query tree
        # proves raw matching exact; raw queries never ask.  Otherwise
        # range/inequality value predicates and vanished wildcard steps
        # are not expressible raw, on any index type: always verify
        raw_exact = verify and raw_is_exact(root)
        unverified = not raw_exact and (
            verify or query_needs_raw_values(root) or self._needs_verification(root)
        )
        if all(node.is_wildcard for node in root.preorder()):
            # e.g. "/*": no concrete item survives translation; every
            # document is a candidate and verification decides
            if trace is not None:
                trace.end(trace.begin("scan-all-documents", documents=len(self.docstore)))
            return sorted(self.docstore.ids()), True
        if unverified and self._needs_relaxed_candidates(root):
            # same-label sibling branches demand duplicate (symbol, prefix)
            # items that one data node may satisfy alone — raw matching
            # loses such answers (the Q5 caveat), so exact mode draws its
            # candidates from the relaxed query instead
            doc_ids = self._execute(relax_query_tree(root), guard, trace)
        else:
            try:
                doc_ids = self._execute(root, guard, trace)
            except TranslationError:
                if not fallback:
                    raise
                doc_ids = self._execute(relax_query_tree(root), guard, trace)
                unverified = True
        return sorted(doc_ids), unverified

    def _degraded_query(
        self, root: QueryNode, guard: Optional[QueryGuard] = None
    ) -> list[int]:
        """Answer a query without trusting the index structures.

        Every live document is evaluated directly: against its original
        XML text via the reference evaluator when a ``source_store``
        exists (full fidelity, including range predicates), otherwise by
        tree-embedding verification of its stored sequence.  Docstore
        records carry their own checksums, so a corrupt record raises
        rather than contributing a silently wrong answer.
        """
        from repro.testing.reference import reference_matches

        self.health.degraded_queries += 1
        matched = []
        for doc_id in self.docstore.ids():
            if guard is not None:
                guard.step()
            if self.source_store is not None:
                document = self.get_document(doc_id)
                ok = reference_matches(document.root, root, self.encoder.hasher)
            else:
                ok = self._verify_one(doc_id, root)
            if ok:
                matched.append(doc_id)
        return sorted(matched)

    def _page_read_counter(self):
        """Callable reporting cumulative pager reads, for page budgets.

        What is counted is *physical* page reads: the B+Trees reach the
        pager only on a node-cache miss, so a page this process has
        already decoded costs nothing and a warm repeat of a query spends
        no budget at all — the figure depends on cache temperature.
        Indexes without a pager return ``None`` — page budgets are then
        inert.
        """
        pager = getattr(self, "_pager", None)
        if pager is None:
            return None
        return lambda: pager.read_count

    def explain(self, query: Query) -> QueryPlan:
        """Describe how :meth:`query` would evaluate ``query`` — the
        translated sequence alternatives and every routing decision —
        without touching the data."""
        root = parse_xpath(query) if isinstance(query, str) else query
        plan = QueryPlan(index_type=type(self).__name__, xpath=root.to_xpath())
        plan.needs_raw_values = query_needs_raw_values(root)
        plan.auto_verified = plan.needs_raw_values or self._needs_verification(root)
        plan.relaxed_candidates = self._needs_relaxed_candidates(root)
        plan.raw_exact = raw_is_exact(root)
        if all(node.is_wildcard for node in root.preorder()):
            plan.notes.append("all-wildcard query: every document is a candidate")
            return plan
        if type(self)._execute is not XmlIndexBase._execute:
            plan.notes.append("join-based evaluation (no sequence translation)")
            return plan
        try:
            # the query as written first: raw mode's cap error is reported
            # even where exact mode, matching the relaxed tree, avoids it
            alternatives = self.translator.translate(root)
            if plan.relaxed_candidates:
                alternatives = self.translator.translate(relax_query_tree(root))
        except TranslationError as exc:
            plan.translation_error = str(exc)
            plan.auto_verified = True
            plan.raw_exact = False
            return plan
        for alternative in alternatives:
            plan.alternatives.append(" ".join(str(i) for i in alternative))
        return plan

    def _verify_one(self, doc_id: int, root: QueryNode) -> bool:
        if query_needs_raw_values(root):
            sequence, raw = self._load_raw_sequence(doc_id)
            return verify_document(sequence, root, self.encoder.hasher, raw)
        return verify_document(self.load_sequence(doc_id), root, self.encoder.hasher)

    def _load_raw_sequence(self, doc_id: int):
        """Re-encode a document from its source, capturing raw values.

        The captured strings align with the stored sequence's value items
        (same transform, same sibling order), which range-predicate
        verification relies on.
        """
        from repro.sequence.vocabulary import CapturingHasher

        if self.source_store is None:
            raise IndexStateError(
                "range/inequality predicates need the original text: create "
                "the index with a source_store"
            )
        capture = CapturingHasher(self.encoder.hasher)
        encoder = SequenceEncoder(hasher=capture)
        sequence = encoder.encode_document(self.get_document(doc_id))
        return sequence, capture.raw

    def query_nodes(self, query: Query) -> dict[int, list[int]]:
        """Node-granularity results: doc id → matched node positions.

        Positions are preorder indices into the document's
        structure-encoded sequence (equivalently, its expanded tree).
        The matched nodes are the bindings of the query's *result node*
        (the deepest step of the main location path), as an XPath engine
        would return.  Always exact: every candidate of the exact
        evaluation path is checked here.
        """
        root = parse_xpath(query) if isinstance(query, str) else query
        needs_raw = query_needs_raw_values(root)
        out: dict[int, list[int]] = {}
        self._prepare_for_query()
        self._m_queries.inc()
        with self.rwlock.read():  # candidates + per-doc load, one snapshot
            try:
                doc_ids, _ = self._candidates(root, True, True, None, None)
            except CorruptionError as exc:
                if not self.degraded_fallback:
                    raise
                # as in query(): distrust the index, ask every document
                self.health.record_corruption(exc)
                self.health.degraded_queries += 1
                self._m_degraded.inc()
                doc_ids = sorted(self.docstore.ids())
            for doc_id in doc_ids:
                if needs_raw:
                    sequence, raw = self._load_raw_sequence(doc_id)
                else:
                    sequence, raw = self.load_sequence(doc_id), None
                # non-empty exactly when verify_document accepts, so each
                # candidate is loaded and rebuilt once, for both answers
                positions = find_result_nodes(sequence, root, self.encoder.hasher, raw)
                if positions:
                    out[doc_id] = positions
        return out

    def _needs_verification(self, root: QueryNode) -> bool:
        """Queries the sequence encoding cannot express exactly.

        A wildcard step with no children *and no value predicate*
        (``/a/*``) is discarded by translation with nothing left to
        carry its placeholder, so its existence constraint vanishes from
        the query sequence; such queries are verified automatically.
        The join-based baselines evaluate wildcards directly and
        override this to ``False``.
        """
        return any(
            node.is_wildcard and not node.children and node.value is None
            for node in root.preorder()
        )

    def _needs_relaxed_candidates(self, root: QueryNode) -> bool:
        """True when raw matching can lose answers the verifier expects.

        Same-label sibling branches translate to duplicate ``(symbol,
        prefix)`` items, but XPath lets a single data node satisfy
        several predicates — e.g. ``/A[B/C]/B/D`` against one ``B``
        holding both ``C`` and ``D``.  A *wildcard* branch beside any
        other branch has the same problem (the wildcard may bind the very
        node its sibling branch binds).  Exact mode then matches the
        relaxed query (a superset) and verifies.  Join-based baselines
        are exact natively and override this to ``False``.
        """
        for node in root.preorder():
            if len(node.children) > 1 and any(
                child.is_wildcard for child in node.children
            ):
                return True
            seen: set[str] = set()
            for child in node.children:
                if child.is_wildcard:
                    continue
                if child.label in seen:
                    return True
                seen.add(child.label)
        return False

    def _execute(
        self,
        root: QueryNode,
        guard: Optional[QueryGuard] = None,
        trace: Optional[QueryTrace] = None,
    ) -> set[int]:
        """Evaluate a parsed query tree.  Default: sequence matching over
        every translation alternative; the join-based baselines override
        this with their own evaluation strategy."""
        doc_ids: set[int] = set()
        if trace is None:
            for alternative in self.translator.translate(root):
                doc_ids.update(self.match_sequence(alternative, guard))
            return doc_ids
        span = trace.begin("translate")
        alternatives = list(self.translator.translate(root))
        trace.end(span, alternatives=len(alternatives))
        for i, alternative in enumerate(alternatives):
            aspan = trace.begin(
                f"match alt {i}",
                sequence=" ".join(str(item) for item in alternative),
            )
            found = self.match_sequence(alternative, guard, trace)
            trace.end(aspan, doc_ids=len(found))
            doc_ids.update(found)
        return doc_ids

    def match_sequence(
        self,
        query_sequence: QuerySequence,
        guard: Optional[QueryGuard] = None,
        trace: Optional[QueryTrace] = None,
    ) -> set[int]:
        """Raw subsequence matching for one query-sequence alternative."""
        raise NotImplementedError

    # -- document access -------------------------------------------------------

    def load_sequence(self, doc_id: int) -> StructureEncodedSequence:
        """Reload the structure-encoded sequence of an indexed document."""
        return self._payload_to_sequence(self.docstore.get(doc_id))

    def get_document(self, doc_id: int) -> XmlDocument:
        """Materialise an indexed document from its stored XML source.

        Requires the index to have been created with a ``source_store``
        and the document to have been added via :meth:`add` (sequences
        indexed directly carry no source text).
        """
        if self.source_store is None:
            raise IndexStateError(
                "get_document needs a source_store (pass one to the index "
                "constructor); only sequences were retained"
            )
        from repro.doc.parser import parse_document

        text = self.source_store.get(doc_id).decode("utf-8")
        return parse_document(text)

    def _remove_source(self, doc_id: int) -> None:
        """Hook for deleting indexes: drop the stored source, if any."""
        if self.source_store is not None and doc_id in self.source_store:
            self.source_store.remove(doc_id)

    def __len__(self) -> int:
        return len(self.docstore)

    # -- payload hooks ----------------------------------------------------------

    def _sequence_to_payload(self, sequence: StructureEncodedSequence) -> bytes:
        return sequence.to_bytes()

    def _payload_to_sequence(self, payload: bytes) -> StructureEncodedSequence:
        return StructureEncodedSequence.from_bytes(payload)
