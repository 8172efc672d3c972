"""Non-contiguous subsequence matching (paper Algorithm 2).

Matching walks the query sequence left to right.  At each step the
current match positions are virtual-suffix-tree scopes; the next query
item is resolved through the D-Ancestor keys (symbol + prefix), the
matching nodes are narrowed to descendants of the current scopes via the
S-Ancestor range ``(n, n + size]``, and the walk moves one item on.  At
the end, every document id in the closed range ``[n, n + size]`` of a
final node is an answer.

**Window merging.**  Scopes are laminar: a child's scope nests strictly
inside its parent's, siblings are disjoint, and a borrowed private chain
sits inside its lender's reserve.  So if two match positions carry the
same wildcard bindings and one's window ``(n, end]`` lies inside the
other's, everything the inner one can still reach — every later
candidate, every final DocId range — is reached from the outer one with
the same bindings.  The walker therefore keeps, per bindings class, only
the *maximal* windows: a sorted list of pairwise-disjoint ``(n, end]``
pairs, re-merged after every level.  The raw answer set is exactly that
of the one-state-per-node walk; the work is one posting-group probe per
(class, prefix length) and one bisect pass over the shorter of (windows,
postings), instead of one lookup per matched trie node.

Wildcards: a ``*`` or ``//`` in a query prefix makes the D-Ancestor
lookup a *range* scan — same symbol, prefix length fixed (``*``) or swept
over the plausible lengths (``//``), known leading labels as the scan
prefix (Section 3.3, "Handling Wild Cards").  The first match binds the
wildcard; later items reuse the binding ("the matching of ``(L, P*)``
will instantiate the ``*`` in ``(v2, P*L)``").

:class:`SequenceMatcher` is shared by RIST and ViST — they differ only in
how entries were labelled, which the host index hides behind
:meth:`MatchingHost.fetch_postings` / :meth:`MatchingHost.doc_ids_in`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.index.postings import PostingGroup
from repro.labeling.scope import Scope
from repro.obs.metrics import MetricSet
from repro.query.ast import Dslash, PrefixToken, QueryItem, QuerySequence, Star
from repro.sequence.encoding import Prefix

Bindings = tuple[tuple[int, tuple[str, ...]], ...]  # wid -> bound labels, sorted
# sorted, pairwise-disjoint scope windows (starts[k], ends[k]]
Windows = tuple[list[int], list[int]]
Frontier = dict[Bindings, Windows]  # one window list per wildcard-bindings class

# guard.step() is charged in units of at most this many windows / final
# scopes, so a deadline or cancel still lands inside one wide level
_GUARD_CHUNK = 256

__all__ = [
    "MatchingHost",
    "SequenceMatcher",
    "MatchStats",
    "match_prefix_pattern",
    "merge_windows",
    "resolve_pattern",
]


@dataclass
class MatchStats(MetricSet):
    """Index-traversal effort of the most recent match.

    ``range_queries`` counts posting-group probes (the paper's "index
    traversals": one per bindings class and prefix length at each query
    item, whether or not the probe had to touch the index);
    ``search_states`` counts the scope windows expanded; ``candidates``
    counts the postings those windows yielded (once per resulting
    bindings class); ``final_nodes`` is the number of maximal final
    scopes.  ``batched_states`` counts probes served by a group another
    class already fetched at the same level; ``cache_hits`` /
    ``cache_misses`` are the posting-cache traffic of this match (zero
    when the host has no posting cache).
    """

    range_queries: int = 0
    candidates: int = 0
    search_states: int = 0
    final_nodes: int = 0
    batched_states: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def reset(self) -> None:
        self.range_queries = 0
        self.candidates = 0
        self.search_states = 0
        self.final_nodes = 0
        self.batched_states = 0
        self.cache_hits = 0
        self.cache_misses = 0


def _bind(bindings: Bindings, wid: int, labels: tuple[str, ...]) -> Bindings:
    return tuple(sorted(dict(bindings) | {wid: labels}.items()))


def match_prefix_pattern(
    pattern: tuple[PrefixToken, ...],
    data_prefix: Prefix,
    bindings: Bindings = (),
) -> list[Bindings]:
    """All binding sets under which ``pattern`` matches ``data_prefix``.

    ``str`` tokens must match exactly; a bound :class:`Star`/:class:`Dslash`
    must reproduce its labels; an unbound ``Star`` binds one label and an
    unbound ``Dslash`` binds zero or more.  Multiple unbound ``//`` can
    split the data prefix several ways, so a list is returned.
    """
    bound = dict(bindings)
    results: list[Bindings] = []

    def walk(ti: int, di: int, current: dict[int, tuple[str, ...]]) -> None:
        if ti == len(pattern):
            if di == len(data_prefix):
                results.append(tuple(sorted(current.items())))
            return
        token = pattern[ti]
        if isinstance(token, str):
            if di < len(data_prefix) and data_prefix[di] == token:
                walk(ti + 1, di + 1, current)
            return
        if isinstance(token, Star):
            if token.wid in current:
                labels = current[token.wid]
                if data_prefix[di : di + len(labels)] == labels:
                    walk(ti + 1, di + len(labels), current)
                return
            if di < len(data_prefix):
                nxt = dict(current)
                nxt[token.wid] = (data_prefix[di],)
                walk(ti + 1, di + 1, nxt)
            return
        assert isinstance(token, Dslash)
        if token.wid in current:
            labels = current[token.wid]
            if data_prefix[di : di + len(labels)] == labels:
                walk(ti + 1, di + len(labels), current)
            return
        for take in range(len(data_prefix) - di + 1):
            nxt = dict(current)
            nxt[token.wid] = tuple(data_prefix[di : di + take])
            walk(ti + 1, di + take, nxt)

    walk(0, 0, bound)
    # Dedupe: distinct walks can yield identical binding sets.
    seen: set[Bindings] = set()
    unique = []
    for binding in results:
        if binding not in seen:
            seen.add(binding)
            unique.append(binding)
    return unique


def resolve_pattern(
    pattern: tuple[PrefixToken, ...], bindings: Bindings
) -> tuple[tuple[str, ...], tuple[PrefixToken, ...]]:
    """Split a pattern into its concrete leading labels and the open tail.

    Bound wildcards are substituted first, so the leading part is as long
    as the current bindings allow — it becomes the D-Ancestor scan prefix.
    """
    bound = dict(bindings)
    leading: list[str] = []
    tail: list[PrefixToken] = []
    open_tail = False
    for token in pattern:
        if not open_tail:
            if isinstance(token, str):
                leading.append(token)
                continue
            if token.wid in bound:
                leading.extend(bound[token.wid])
                continue
            open_tail = True
        if isinstance(token, (Star, Dslash)) and token.wid in bound:
            tail.extend(bound[token.wid])
        else:
            tail.append(token)
    return tuple(leading), tuple(tail)


class MatchingHost(Protocol):
    """What an index must expose for :class:`SequenceMatcher` to run."""

    def root_scope(self) -> Scope:
        """Scope of the virtual suffix tree root."""

    def max_prefix_len(self) -> int:
        """Longest item prefix in the index (bounds ``//`` sweeps)."""

    def fetch_postings(
        self, symbol, prefix_len: int, leading: tuple[str, ...]
    ) -> PostingGroup:
        """Every node with the given symbol and prefix length whose prefix
        starts with ``leading``, as columns sorted by label."""

    def doc_ids_in(self, ranges: Iterable[tuple[int, int]]) -> Iterable[int]:
        """Document ids attached in the closed label ranges ``[n, end]``
        (given ascending and pairwise disjoint)."""


def merge_windows(pairs: list[tuple[int, int]]) -> Windows:
    """The maximal windows of a laminar family of ``(n, end)`` pairs.

    Sorted by ``n``, a pair that starts at or below the furthest ``end``
    seen so far is a duplicate of, or nested inside, an earlier pair
    (laminar scopes never partially overlap), so it is dropped.  The
    result is ascending and pairwise disjoint and covers exactly the ids
    the input covered.
    """
    pairs.sort()
    starts: list[int] = []
    ends: list[int] = []
    reach = -1
    for n, end in pairs:
        if n > reach:
            starts.append(n)
            ends.append(end)
            reach = end
    return starts, ends


class SequenceMatcher:
    """Algorithm 2, parameterised by a :class:`MatchingHost`.

    The walk is a level-by-level frontier.  At each query item every
    bindings class resolves the item's prefix pattern once, fetches one
    posting group per plausible prefix length (shared across classes by
    a per-level memo), joins its windows against the group's label
    column (:meth:`PostingGroup.join`) and emits the child windows;
    the emitted windows of each resulting class are then merged down to
    the maximal ones (see the module docstring for why that is exact).
    """

    def __init__(self, host: MatchingHost) -> None:
        self.host = host
        # Effort of the most recent *completed* match.  Each match runs
        # against its own private MatchStats (threaded through the call
        # chain, never stored on self mid-flight) and publishes it here
        # in one reference assignment at the end — concurrent matches
        # cannot clobber each other's counters, and readers of
        # `match_stats` always see one internally consistent bundle.
        self.stats = MatchStats()

    def match(self, query: QuerySequence, guard=None, trace=None) -> set[int]:
        """All document ids containing the query sequence."""
        starts, ends = self._final_windows(query, guard, trace)
        if trace is not None:
            pager = getattr(self.host, "_pager", None)
            pages0 = pager.read_count if pager is not None else 0
            span = trace.begin("docid-output", final_scopes=len(starts))
        results: set[int] = set()
        for off in range(0, len(starts), _GUARD_CHUNK):
            ranges = list(
                zip(starts[off : off + _GUARD_CHUNK], ends[off : off + _GUARD_CHUNK])
            )
            if guard is not None:
                guard.step(len(ranges))
            results.update(self.host.doc_ids_in(ranges))
        if guard is not None:
            guard.check()  # count the reads of the trailing DocId fetches
        if trace is not None:
            trace.end(
                span,
                doc_ids=len(results),
                page_reads=(pager.read_count - pages0) if pager is not None else 0,
            )
        return results

    def final_scopes(self, query: QuerySequence, guard=None, trace=None) -> list[Scope]:
        """The maximal scopes matching the query's last item, ascending.

        This is the matching phase *without* the DocId output phase —
        the quantity the paper times in Figure 10 ("does not include the
        time spent in data output after each range query on the DocId
        B+Tree").  A final node nested inside another final node is not
        listed: its DocId range is part of the outer one's.
        """
        starts, ends = self._final_windows(query, guard, trace)
        return [Scope(n, end - n) for n, end in zip(starts, ends)]

    def _final_windows(self, query: QuerySequence, guard, trace) -> Windows:
        stats = MatchStats()  # private to this call; published at the end
        if guard is not None:
            guard.check()
        host = self.host
        pager = getattr(host, "_pager", None)
        postings = getattr(host, "postings", None)
        # cache-delta attribution is approximate under concurrency (the
        # posting cache is shared, so other in-flight matches' traffic
        # lands in the window too); exact for single-threaded runs
        if postings is not None:
            hits00, misses00 = postings.stats.hits, postings.stats.misses
        max_len = host.max_prefix_len()
        root = host.root_scope()
        frontier: Frontier = {(): ([root.n], [root.end])}
        for level, qi in enumerate(query.items):
            if trace is not None:
                span = trace.begin(
                    f"level {level}",
                    item=str(qi),
                    frontier_in=sum(len(s) for s, _ in frontier.values()),
                )
                rq0, cand0 = stats.range_queries, stats.candidates
                bat0 = stats.batched_states
                pages0 = pager.read_count if pager is not None else 0
                if postings is not None:
                    hits0, misses0 = postings.stats.hits, postings.stats.misses
            frontier = self._expand_level(qi, frontier, max_len, stats, guard)
            if trace is not None:
                meta = {
                    "frontier_out": sum(len(s) for s, _ in frontier.values()),
                    "range_queries": stats.range_queries - rq0,
                    "candidates": stats.candidates - cand0,
                    "batched": stats.batched_states - bat0,
                }
                if pager is not None:
                    meta["page_reads"] = pager.read_count - pages0
                if postings is not None:
                    meta["cache_hits"] = postings.stats.hits - hits0
                    meta["cache_misses"] = postings.stats.misses - misses0
                trace.end(span, **meta)
            if not frontier:
                break
        if len(frontier) == 1:
            (finals,) = frontier.values()
        else:  # the classes' windows can nest in each other: merge once more
            finals = merge_windows(
                [pair for s, e in frontier.values() for pair in zip(s, e)]
            )
        if postings is not None:
            stats.cache_hits = postings.stats.hits - hits00
            stats.cache_misses = postings.stats.misses - misses00
        stats.final_nodes = len(finals[0])
        self.stats = stats  # one reference assignment: match_stats readers
        return finals  # never see a half-filled bundle

    def _expand_level(
        self, qi: QueryItem, frontier: Frontier, max_len: int, stats: MatchStats, guard
    ) -> Frontier:
        """Advance every bindings class of the frontier over one query item."""
        groups: dict[tuple, PostingGroup] = {}  # the level memo
        emitted: dict[Bindings, list[tuple[int, int]]] = {}
        for bindings, (starts, ends) in frontier.items():
            leading, tail = resolve_pattern(qi.prefix, bindings)
            probed = self._probe(qi.symbol, leading, tail, max_len, groups, stats, guard)
            stats.search_states += len(starts)
            # a group holds a handful of distinct (interned) prefixes:
            # the open tail is matched against each of them once
            tails: dict[Prefix, list[Bindings]] = {}
            for w0 in range(0, len(starts), _GUARD_CHUNK):
                w1 = min(w0 + _GUARD_CHUNK, len(starts))
                if guard is not None:
                    guard.step(w1 - w0)
                for group in probed:
                    for a, b in group.join(starts, ends, w0, w1):
                        if tail:
                            stats.candidates += self._emit_open_tail(
                                group, a, b, tail, len(leading), bindings, tails, emitted
                            )
                        else:
                            stats.candidates += b - a
                            emitted.setdefault(bindings, []).extend(
                                zip(group.ns[a:b], group.ends[a:b])
                            )
        return {
            bindings: merge_windows(pairs) for bindings, pairs in emitted.items()
        }

    def _probe(
        self, symbol, leading, tail, max_len: int, groups: dict, stats: MatchStats, guard
    ) -> list[PostingGroup]:
        """The non-empty posting groups a resolved pattern can match: one
        probe per prefix length it can take — a single length when it is
        concrete or has only ``*`` left, a sweep up to the deepest prefix
        in the index while a ``//`` is still open."""
        shortest = len(leading) + sum(1 for t in tail if isinstance(t, (str, Star)))
        if any(isinstance(t, Dslash) for t in tail):
            lengths = range(shortest, max_len + 1)
        else:
            lengths = (shortest,)
        probed: list[PostingGroup] = []
        for plen in lengths:
            stats.range_queries += 1
            if guard is not None:
                guard.step()
            key = (symbol, plen, leading)
            group = groups.get(key)
            if group is None:
                groups[key] = group = self.host.fetch_postings(*key)
            else:
                stats.batched_states += 1
            if len(group):
                probed.append(group)
        return probed

    @staticmethod
    def _emit_open_tail(
        group: PostingGroup, a: int, b: int, tail, nlead: int, bindings, tails, emitted
    ) -> int:
        """Emit postings ``[a, b)`` of ``group`` under every binding set the
        open ``tail`` admits for their prefix; returns how many were
        emitted.  Equal prefixes come in long runs (same-path nodes
        cluster by subtree, and the tuples are interned), so each run goes
        out in one slice."""
        ns, ends, prefixes = group.ns, group.ends, group.prefixes
        count = 0
        while a < b:
            prefix = prefixes[a]
            run = a + 1
            while run < b and prefixes[run] is prefix:
                run += 1
            bound = tails.get(prefix)
            if bound is None:
                bound = tails[prefix] = match_prefix_pattern(
                    tail, prefix[nlead:], bindings
                )
            count += len(bound) * (run - a)
            for new_bindings in bound:
                emitted.setdefault(new_bindings, []).extend(
                    zip(ns[a:run], ends[a:run])
                )
            a = run
        return count
