"""Command-line interface: argparse, and one body per command.

Usage::

    python -m repro index  DBDIR file1.xml file2.xml ...
                           [--split item,person] [--shards N]
    python -m repro query  DBDIR "/site//item[location='US']" [--verify]
                           [--show] [--workers N]
    python -m repro stats  DBDIR

(``python -m repro --help`` lists the other commands.)  Every command
opens its DBDIR through :func:`repro.dbdir.open_db`, which returns the
same handle for a flat and a sharded directory, so each body is written
once.  The options that read one index (``query --explain`` without
``--workers``, ``--profile`` and ``--engine``) are refused on more than
one shard.  ``--workers N`` runs queries over N read-only worker
processes (:class:`~repro.shard.executor.ShardedExecutor`), one per
shard.

``index`` creates (or extends) a persistent index under ``DBDIR``.
``--split`` applies the paper's substructure splitting before indexing,
one record per instance of the listed labels.  Siblings are sorted by
label (the paper's order when no DTD is given), so nothing about the
order needs storing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import Future
from pathlib import Path
from typing import Optional

from repro.dbdir import HEALTH_FILE, open_db, open_index, shard_dirs
from repro.doc.parser import parse_document_bytes
from repro.doc.split import split_records
from repro.doc.stream import iter_stream_records
from repro.errors import (
    CorruptionError,
    ProtocolError,
    QueryBudgetExceededError,
    QueryTimeoutError,
    ReproError,
    ShardQueryError,
    ShardUnavailableError,
    TransientIOError,
)
from repro.index.guard import QueryGuard
from repro.index.vist import VistIndex

# open_index is re-exported: scripts and the benchmark harness import it
# from here
__all__ = ["main", "open_index"]

# Exit codes (also in the --help epilog). 2 doubles as the "damage or
# invariant violations found" code of `check` and `scrub`.
EXIT_ERROR = 1  # any other repro error
EXIT_VIOLATIONS = 2  # check/scrub found problems (the run itself succeeded)
EXIT_CORRUPT = 3  # checksum failure reading stored data
EXIT_TIMEOUT = 4  # query exceeded its --deadline-ms
EXIT_BUDGET = 5  # query exceeded --max-steps / --max-page-reads
EXIT_TRANSIENT = 6  # I/O fault persisted through every retry
EXIT_PROTOCOL = 7  # shard wire-protocol violation (torn/oversized frame)
EXIT_UNAVAILABLE = 8  # a shard's worker is dead/unreachable past its budget

_EPILOG = """\
exit codes:
  0  success
  1  error (parse failure, bad arguments, index state)
  2  check/scrub found corruption or invariant violations
  3  corrupt data: a page or record failed its checksum
  4  query exceeded its --deadline-ms
  5  query exceeded --max-steps or --max-page-reads
  6  transient I/O fault persisted through every retry
  7  shard wire-protocol violation (torn, oversized, or undecodable frame)
  8  shard unavailable: a worker died or stalled past its restart budget

when your index is damaged (exit code 3, or a read-suspect health
report from `repro stats`): run `repro scrub DBDIR` to assess, then
`repro salvage DBDIR` to rebuild the index from the intact document
store.  See docs/INTERNALS.md section 9.

when a worker dies (exit code 8 from `query --workers`/`serve`): the
supervisor restarts it with backoff automatically; pass --partial to
keep answering from the live shards (responses are annotated with the
missing shard set), and check `repro stats --json --workers N` for
shard.K.unavailable counters.  See docs/INTERNALS.md section 13.
"""


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.handler(args)
        except ShardQueryError as exc:
            # surface the most specific per-shard failure as the exit
            # code, the same way a single-directory run would
            for cause in exc.shard_errors.values():
                if isinstance(
                    cause,
                    (
                        QueryTimeoutError,
                        QueryBudgetExceededError,
                        CorruptionError,
                        TransientIOError,
                        ProtocolError,
                        ShardUnavailableError,
                    ),
                ):
                    print(f"error: {exc}", file=sys.stderr)
                    raise cause from exc
            raise
    except QueryTimeoutError as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except QueryBudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CorruptionError as exc:
        print(
            f"corrupt data: {exc}\n"
            "run `repro scrub` to assess the damage and `repro salvage` to "
            "rebuild the index from the document store",
            file=sys.stderr,
        )
        return EXIT_CORRUPT
    except TransientIOError as exc:
        print(f"persistent I/O fault: {exc}", file=sys.stderr)
        return EXIT_TRANSIENT
    except ProtocolError as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except ShardUnavailableError as exc:
        print(
            f"shard unavailable: {exc}\n"
            "the supervisor restarts dead workers automatically; pass "
            "--partial to answer from the live shards (see docs/INTERNALS.md "
            "section 13)",
            file=sys.stderr,
        )
        return EXIT_UNAVAILABLE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader of stdout left early (`repro stats --json DBDIR | head`):
        # not an error.  Point fd 1 at devnull so what is still buffered,
        # and the interpreter's final flush, go nowhere quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ViST XML index (SIGMOD 2003 reproduction)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(required=True)

    p_index = sub.add_parser("index", help="index XML files into DBDIR")
    p_index.add_argument("dbdir", type=Path)
    p_index.add_argument("files", type=Path, nargs="+")
    p_index.add_argument(
        "--split",
        help="comma-separated record labels; split documents before indexing",
    )
    p_index.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="create (or extend) a sharded database: documents are hash-"
        "routed across N full index directories DBDIR/shard-K",
    )
    p_index.set_defaults(handler=_cmd_index)

    p_ingest = sub.add_parser(
        "ingest",
        help="streaming bulk ingest: split 100MB+ corpora into records "
        "without materialising them, committed in durable batches",
    )
    p_ingest.add_argument("dbdir", type=Path)
    p_ingest.add_argument("files", type=Path, nargs="+")
    p_ingest.add_argument(
        "--split",
        help="comma-separated record labels: each instance becomes one "
        "indexed record (streamed; without it the whole file is one "
        "document, which defeats the point for large corpora)",
    )
    p_ingest.add_argument(
        "--no-spine",
        action="store_true",
        help="drop the ancestor spine above each split record instead of "
        "keeping it (mirrors split_records keep_spine=False)",
    )
    p_ingest.add_argument(
        "--batch-size",
        type=int,
        default=1000,
        metavar="N",
        help="records per write-lock section and durable commit "
        "(default 1000)",
    )
    p_ingest.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="ingest into a sharded database (create it N-way if new)",
    )
    p_ingest.add_argument(
        "--durability",
        choices=("batch", "none"),
        default="batch",
        help="'batch' (default): one WAL commit + fsync per batch, a "
        "crash loses at most the open batch; 'none': no per-batch "
        "commit, fastest, one flush at the end",
    )
    p_ingest.set_defaults(handler=_cmd_ingest)

    p_query = sub.add_parser("query", help="run a structural query")
    p_query.add_argument("dbdir", type=Path)
    p_query.add_argument("xpath")
    p_query.add_argument("--verify", action="store_true", help="exact mode")
    p_query.add_argument(
        "--show", action="store_true", help="print each matching record's sequence"
    )
    p_query.add_argument(
        "--show-xml", action="store_true", help="print each matching record's XML"
    )
    p_query.add_argument(
        "--profile",
        action="store_true",
        help="print match effort and cache hit rates after the query",
    )
    p_query.add_argument(
        "--explain",
        action="store_true",
        help="print the per-stage span tree of the evaluation "
        "(times, page reads, cache hits, candidates per query level)",
    )
    p_query.add_argument(
        "--engine",
        choices=("vist", "rist", "naive"),
        default="vist",
        help="evaluation engine: the on-disk ViST index (default), or an "
        "ephemeral in-memory RIST/Naive rebuilt from the stored sequences "
        "(for comparing --explain traces)",
    )
    p_query.add_argument(
        "--deadline-ms",
        type=float,
        help="abort the query after this many milliseconds (exit code 4)",
    )
    p_query.add_argument(
        "--max-steps",
        type=int,
        help="abort after this many matcher steps (exit code 5)",
    )
    p_query.add_argument(
        "--max-page-reads",
        type=int,
        help="abort after this many physical page reads, i.e. node-cache "
        "misses: a page already decoded by this process costs none "
        "(exit code 5)",
    )
    p_query.add_argument(
        "--repeat",
        type=int,
        default=100,
        help="number of submissions in --workers batch mode (default 100)",
    )
    p_query.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="batch mode: run the query --repeat times scatter-gather "
        "across N worker processes, one per shard, and report the "
        "throughput (N must match the shard count; 1 for a flat DBDIR)",
    )
    p_query.add_argument(
        "--partial",
        action="store_true",
        help="with --workers: degrade to partial results (annotated with "
        "the missing shard set) when a shard is down, instead of failing "
        "with exit code 8",
    )
    p_query.set_defaults(handler=_cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="query loop: one XPath per stdin line (or TCP frames with "
        "--port), answered in order on the thread that read it",
    )
    p_serve.add_argument("dbdir", type=Path)
    p_serve.add_argument("--verify", action="store_true", help="exact mode")
    p_serve.add_argument(
        "--deadline-ms",
        type=float,
        help="per-query deadline (a fresh guard is built for every query)",
    )
    p_serve.add_argument(
        "--max-steps", type=int, help="per-query matcher-step budget"
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="serve scatter-gather over N worker processes, one per "
        "shard (N must match the shard count; 1 for a flat DBDIR); a "
        "sharded DBDIR is served this way without the flag too",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        metavar="P",
        help="speak the length-prefixed frame protocol over TCP on this "
        "port (0 picks one; announced as 'PORT <n>' on stdout) instead "
        "of the stdin line loop",
    )
    p_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address for --port (default 127.0.0.1)",
    )
    p_serve.add_argument(
        "--partial",
        action="store_true",
        help="worker-process serving only: answer from the live shards (responses "
        "annotated with the missing shard set) when a worker is down, "
        "instead of erroring the affected queries",
    )
    p_serve.set_defaults(handler=_cmd_serve)

    p_nodes = sub.add_parser("nodes", help="node-granularity query results")
    p_nodes.add_argument("dbdir", type=Path)
    p_nodes.add_argument("xpath")
    p_nodes.set_defaults(handler=_cmd_nodes)

    p_remove = sub.add_parser("remove", help="delete documents by id")
    p_remove.add_argument("dbdir", type=Path)
    p_remove.add_argument("doc_ids", type=int, nargs="+")
    p_remove.set_defaults(handler=_cmd_remove)

    p_stats = sub.add_parser("stats", help="index size statistics")
    p_stats.add_argument("dbdir", type=Path)
    p_stats.add_argument(
        "--json",
        action="store_true",
        help="dump the full metrics registry as one JSON document",
    )
    p_stats.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="collect stats through N live worker processes, one per "
        "shard (includes the supervision block: shard states, "
        "restart/unavailable counters)",
    )
    p_stats.set_defaults(handler=_cmd_stats)

    p_check = sub.add_parser(
        "check", help="verify structural invariants of an on-disk index"
    )
    p_check.add_argument("dbdir", type=Path)
    p_check.set_defaults(handler=_cmd_check)

    p_scrub = sub.add_parser(
        "scrub", help="verify every page and record checksum plus invariants"
    )
    p_scrub.add_argument("dbdir", type=Path)
    p_scrub.add_argument(
        "--no-invariants",
        action="store_true",
        help="checksums only; skip the structural invariant walk",
    )
    p_scrub.set_defaults(handler=_cmd_scrub)

    p_salvage = sub.add_parser(
        "salvage",
        help="rebuild a damaged (or older-format) index from its document store",
    )
    p_salvage.add_argument("dbdir", type=Path)
    p_salvage.set_defaults(handler=_cmd_salvage)

    p_reshard = sub.add_parser(
        "reshard",
        help="rebalance a sharded database to a new shard count "
        "(global doc ids and query answers are preserved)",
    )
    p_reshard.add_argument("dbdir", type=Path)
    p_reshard.add_argument("nshards", type=int)
    p_reshard.set_defaults(handler=_cmd_reshard)
    return parser


def _split_labels(args: argparse.Namespace) -> Optional[list[str]]:
    if not args.split:
        return None
    return [label.strip() for label in args.split.split(",") if label.strip()]


def _add_records(
    args: argparse.Namespace, records, **batch
) -> tuple[list[int], str]:
    """The one write path of ``index`` and ``ingest``: hand ``records`` to
    ``add_batch`` of the DBDIR's handle, which commits each batch through
    the journal.  Returns the new ids and a description of where they
    went."""
    with open_db(args.dbdir, args.shards) as db:
        ids = db.add_batch(records, **batch)
        if db.flat:
            layout = "1 directory"
        else:
            layout = f"{db.nshards} shard(s), routed {db.map.shard_counts()}"
    return ids, layout


def _cmd_index(args: argparse.Namespace) -> int:
    """``repro index``: parse whole files, then ingest's batch write path."""
    split_labels = _split_labels(args)

    def records():
        for path in args.files:
            # bytes + prolog-declared encoding, not the locale default
            document = parse_document_bytes(path.read_bytes(), name=str(path))
            if split_labels:
                yield from split_records(document.root, split_labels)
            else:
                yield document

    ids, layout = _add_records(args, records())
    print(f"indexed {len(ids)} record(s) into {args.dbdir} ({layout})")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """``repro ingest``: stream records out of big corpora, commit in batches.

    Unlike ``repro index`` (which materialises each file), the files are
    parsed incrementally and each record subtree is indexed and released
    as its end tag closes, so peak memory stays flat in the corpus size.
    Every ``--batch-size`` records cost one journal commit and one fsync.
    """
    import time

    split_labels = _split_labels(args)
    keep_spine = not args.no_spine
    total_bytes = sum(path.stat().st_size for path in args.files)

    def records():
        for path in args.files:
            yield from iter_stream_records(
                path, split_labels, keep_spine=keep_spine
            )

    start = time.perf_counter()
    ids, layout = _add_records(
        args, records(), batch_size=args.batch_size, durability=args.durability
    )
    elapsed = time.perf_counter() - start
    docs_per_sec = len(ids) / elapsed if elapsed > 0 else float("inf")
    mb_per_sec = total_bytes / 1e6 / elapsed if elapsed > 0 else float("inf")
    print(
        f"ingested {len(ids)} record(s) into {args.dbdir} ({layout}) in "
        f"{elapsed:.2f}s ({docs_per_sec:.0f} docs/s, {mb_per_sec:.1f} MB/s, "
        f"durability={args.durability}, batch={args.batch_size})"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """``query``: one in-process answer through the DBDIR's handle, or
    ``--workers N``, the batch mode over N worker processes."""
    if args.workers is not None:
        if args.profile or args.engine != "vist":
            raise ReproError(
                "--profile and --engine read one index in-process; drop --workers"
            )
        return _run_sharded_query(args)
    if args.partial:
        raise ReproError(
            "--partial needs the worker-process path; "
            "add --workers N (N = shard count)"
        )
    with open_db(args.dbdir) as db:
        for used, flag, hint in (
            (args.explain, "--explain", " (add --workers N for per-shard spans)"),
            (args.profile, "--profile", ""),
            (args.engine != "vist", "--engine", ""),
        ):
            if used and db.nshards > 1:
                raise ReproError(
                    f"{flag} reads one index; {args.dbdir} has "
                    f"{db.nshards} shards{hint}"
                )
        spec = _guard_spec(args)
        trace = None
        if args.explain:
            from repro.obs import QueryTrace

            trace = QueryTrace()
        if trace is None and args.engine == "vist":
            result = db.query(
                args.xpath,
                verify=args.verify,
                guard_factory=lambda: QueryGuard.from_spec(spec),
            )
        else:  # one index, traced or through another engine
            engine, idmap = _resolve_engine(db.shards[0], args.engine)
            result = engine.query(
                args.xpath,
                verify=args.verify,
                guard=QueryGuard.from_spec(spec),
                trace=trace,
            )
            if idmap is not None:
                result = {idmap[doc_id] for doc_id in result}
        mode = "verified" if args.verify else "raw"
        if args.engine != "vist":
            mode += f", {args.engine}"
        if not db.flat:
            mode += f", {db.nshards} shards"
        if _record_health(db):
            mode += ", degraded"
        print(f"{len(result)} match(es) ({mode}): {result}")
        if args.show:
            for doc_id in result:
                sequence = db.load_sequence(doc_id)
                print(f"  doc {doc_id}: {sequence.preorder_string()}")
        if args.show_xml:
            for doc_id in result:
                print(f"-- doc {doc_id} --")
                print(db.get_document(doc_id).to_xml())
        if args.profile:
            index = db.shards[0]
            stats = index.match_stats
            print(
                f"match effort: {stats.range_queries} range queries, "
                f"{stats.candidates} candidates, {stats.search_states} states, "
                f"{stats.batched_states} batched"
            )
            _print_cache_stats(index)
        if trace is not None:
            print(engine.explain(args.xpath))
            print(trace.render())
    return 0


def _guard_spec(args: argparse.Namespace) -> Optional[dict]:
    """The query budgets the options set, or None: sent to the workers
    as is, and built in-process into a fresh guard for every query and
    shard (:meth:`QueryGuard.from_spec`), since a guard tracks one query
    at a time."""
    spec = {
        "deadline_ms": args.deadline_ms,
        "max_steps": args.max_steps,
        "max_page_reads": getattr(args, "max_page_reads", None),
    }
    return spec if any(v is not None for v in spec.values()) else None


def _render_shard_spans(outcome) -> str:
    """Per-shard span lines for ``--explain`` on the scatter-gather path."""
    lines = ["shard spans:"]
    for shard, span in (outcome.shard_detail or {}).items():
        status = span.get("status", "?")
        if status == "ok":
            lines.append(
                f"  shard {shard}: ok in {span.get('elapsed_ms', 0.0):.1f} ms"
            )
        else:
            lines.append(f"  shard {shard}: {status} ({span.get('error', '')})")
    return "\n".join(lines)


def _run_sharded_query(args: argparse.Namespace) -> int:
    """``query --workers N``: the same query --repeat times over N processes."""
    import time

    from repro.shard import ShardedExecutor

    repeat = max(1, args.repeat)
    with ShardedExecutor(
        args.dbdir,
        workers=args.workers,
        verify=args.verify,
        guard_spec=_guard_spec(args),
        partial=args.partial,
    ) as executor:
        t0 = time.perf_counter()
        outcomes = executor.run([args.xpath] * repeat)
        elapsed = time.perf_counter() - t0
    for outcome in outcomes:
        outcome.unwrap()  # propagate shard/guard errors to main()
    complete = [o for o in outcomes if not o.missing_shards]
    partial = [o for o in outcomes if o.missing_shards]
    # identical queries must agree — among the outcomes that saw every
    # shard (a shard dying mid-batch legitimately shrinks partial ones)
    distinct = {frozenset(outcome.result) for outcome in complete}
    if len(distinct) > 1:
        print(
            f"error: {len(distinct)} distinct result sets across "
            f"{len(complete)} identical scatter-gather runs",
            file=sys.stderr,
        )
        return EXIT_ERROR
    shown = complete[0] if complete else outcomes[0]
    result = set(shown.result)
    mode = "verified" if args.verify else "raw"
    if shown.missing_shards:
        mode += f", partial: missing shards {shown.missing_shards}"
    print(f"{len(result)} match(es) ({mode}): {result}")
    if partial:
        missing = sorted({s for o in partial for s in o.missing_shards})
        print(
            f"partial: {len(partial)}/{repeat} response(s) missing "
            f"shard(s) {missing}",
            file=sys.stderr,
        )
    if args.explain:
        print(_render_shard_spans(shown))
    qps = repeat / elapsed if elapsed > 0 else float("inf")
    print(
        f"sharded: {repeat} queries x {args.workers} worker process(es) "
        f"in {elapsed:.3f}s ({qps:.0f} qps)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Query-serving loop: stdin lines by default, TCP frames with --port.

    Two backends, one loop, both driven through one ``submit(xpath,
    position=, verify=) -> Future``: over more than one shard (or with
    ``--workers``) :meth:`ShardedExecutor.submit` scatter-gathers over
    one worker process per shard, and the front end opens no shard
    itself; over one index :func:`_answer_inline` answers on the thread
    that read the request.  Either way outcomes are emitted in
    submission order, and EOF or Ctrl-C mid-stream drains whatever is
    already in flight before exiting cleanly (code 0).
    """
    if args.workers is not None or len(shard_dirs(args.dbdir)) > 1:
        from repro.shard import ShardedExecutor

        with ShardedExecutor(
            args.dbdir,
            workers=args.workers,
            verify=args.verify,
            guard_spec=_guard_spec(args),
            partial=args.partial,
        ) as executor:
            return _serve_loop(args, executor.submit)
    if args.partial:
        raise ReproError(
            "--partial applies to worker-process serving; "
            "add --workers N (N = shard count)"
        )
    with open_db(args.dbdir) as db:
        return _serve_loop(args, _answer_inline(db, args))


def _finished(outcome) -> Future:
    future: Future = Future()
    future.set_result(outcome)
    return future


def _answer_inline(db, args: argparse.Namespace):
    """``submit`` for serving one index in-process: the query runs on the
    caller's thread and the returned future is already finished.

    Same signature as :meth:`ShardedExecutor.submit`.  Exceptions are
    captured into the outcome, as the sharded path captures them, so a
    bad query is an answer, not the end of the loop.
    """
    from repro.shard.executor import QueryOutcome

    spec = _guard_spec(args)

    def submit(xpath: str, position: int = 0, *, verify: Optional[bool] = None):
        outcome = QueryOutcome(position=position, query=xpath)
        try:
            outcome.result = db.query(
                xpath,
                verify=args.verify if verify is None else verify,
                guard_factory=lambda: QueryGuard.from_spec(spec),
            )
        except Exception as exc:  # noqa: BLE001 - captured per outcome
            outcome.error = exc
        return _finished(outcome)

    return submit


def _serve_loop(args: argparse.Namespace, submit) -> int:
    if args.port is not None:
        return _serve_tcp(submit, args.host, args.port)
    return _serve_stdin(submit)


def _serve_stdin(submit) -> int:
    """Line-oriented loop: one XPath per stdin line, answers in order."""
    from collections import deque

    served = 0
    pending: deque = deque()
    try:
        for line in sys.stdin:
            xpath = line.strip()
            if not xpath or xpath.startswith("#"):
                continue
            pending.append((xpath, submit(xpath, position=served)))
            served += 1
            # drain whatever has already finished, in order, so the
            # loop stays responsive without blocking on the newest
            while pending and pending[0][1].done():
                _print_served(*pending.popleft())
        while pending:
            _print_served(*pending.popleft())
    except KeyboardInterrupt:
        # a clean shutdown, not an error: flush what is already in
        # flight (still in submission order) and report success
        while pending:
            _print_served(*pending.popleft())
    print(f"served {served} query/queries", file=sys.stderr)
    return 0


def _print_served(xpath: str, future) -> None:
    outcome = future.result()
    if outcome.ok:
        result = outcome.result
        note = ""
        if outcome.missing_shards:
            note = f" (partial: missing shards {outcome.missing_shards})"
        print(
            f"{outcome.position}\t{xpath}\t"
            f"{len(result)} match(es): {sorted(result)}{note}"
        )
    else:
        print(f"{outcome.position}\t{xpath}\terror: {outcome.error}")
    sys.stdout.flush()


def _serve_tcp(submit, host: str, port: int) -> int:
    """Frame-protocol server: 4-byte length prefix + JSON, like the shard
    workers speak (:mod:`repro.shard.protocol`).

    A request frame is either a bare JSON string (the XPath) or an
    object ``{"xpath": ..., "verify": bool}``.  Replies carry
    ``{"position", "ok", "result" | "error"/"error_type"}`` and are sent
    in submission order per connection, pipelining-friendly: the client
    may stream many requests before reading any reply.  A malformed
    frame takes its position like any request and is answered in turn
    with a ``FrameError``.
    """
    import queue
    import socket
    import threading

    from repro.shard.executor import QueryOutcome
    from repro.shard.protocol import FrameError, recv_frame, send_frame

    served = [0]
    served_lock = threading.Lock()

    def handle(conn: socket.socket) -> None:
        replies: "queue.Queue" = queue.Queue()

        def drain() -> None:
            # a dedicated sender keeps replies ordered without making the
            # reader block on the oldest in-flight query
            while True:
                future = replies.get()
                if future is None:
                    break
                outcome = future.result()
                payload = {
                    "position": outcome.position,
                    "xpath": outcome.query,
                    "ok": outcome.ok,
                }
                if outcome.ok:
                    payload["result"] = sorted(outcome.result)
                    if outcome.missing_shards:
                        payload["missing_shards"] = outcome.missing_shards
                else:
                    payload["error"] = str(outcome.error)
                    payload["error_type"] = type(outcome.error).__name__
                try:
                    send_frame(conn, payload)
                except OSError:
                    break  # client hung up; keep draining futures silently

        drainer = threading.Thread(target=drain, daemon=True)
        drainer.start()
        position = 0
        try:
            while True:
                try:
                    request = recv_frame(conn)
                except (FrameError, OSError):
                    break
                if request is None:
                    break
                if isinstance(request, str):
                    future = submit(request, position=position)
                elif isinstance(request, dict) and "xpath" in request:
                    verify = request.get("verify")
                    future = submit(
                        str(request["xpath"]),
                        position=position,
                        verify=None if verify is None else bool(verify),
                    )
                else:
                    future = _finished(QueryOutcome(
                        position=position,
                        query=None,
                        error=FrameError(f"malformed request: {request!r}"),
                    ))
                replies.put(future)
                position += 1
        finally:
            replies.put(None)
            drainer.join()
            try:
                conn.close()
            except OSError:
                pass
            with served_lock:
                served[0] += position

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
        print(f"PORT {listener.getsockname()[1]}", flush=True)
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                break
            threading.Thread(target=handle, args=(conn,), daemon=True).start()
    except KeyboardInterrupt:
        pass  # clean shutdown; in-flight replies ride out their drainers
    finally:
        try:
            listener.close()
        except OSError:
            pass
    with served_lock:
        count = served[0]
    print(f"served {count} query/queries", file=sys.stderr)
    return 0


def _resolve_engine(index: VistIndex, kind: str):
    """The query engine for ``--engine`` plus a doc-id translation map.

    ``vist`` queries the on-disk index directly.  ``rist`` and ``naive``
    rebuild an ephemeral in-memory index from the stored sequences so
    their ``--explain`` traces describe the same corpus; their internal
    doc ids are renumbered, hence the map back to the on-disk ids.
    """
    if kind == "vist":
        return index, None
    if kind == "rist":
        from repro.index.rist import RistIndex

        engine = RistIndex(index.encoder)
    else:
        from repro.index.naive import NaiveIndex

        engine = NaiveIndex(index.encoder)
    idmap = {}
    for doc_id in sorted(index.docstore.ids()):
        idmap[engine.add_sequence(index.load_sequence(doc_id))] = doc_id
    return engine, idmap


def _print_cache_stats(index: VistIndex, label: str = "") -> None:
    """Render :meth:`CombinedTreeHost.cache_stats` as CLI lines."""
    caches = index.cache_stats()
    postings = caches.get("postings")
    if postings is not None:
        print(
            f"{label}posting cache: {postings['hits']} hits / "
            f"{postings['misses']} misses ({postings['hit_rate']:.1%}), "
            f"{postings['groups']} group(s) resident"
        )
    else:
        print(f"{label}posting cache: disabled")
    nodes = caches["buffer_pool"]
    print(
        f"{label}node cache: {nodes['hits']} hits / {nodes['misses']} misses "
        f"({nodes['hit_rate']:.1%}), {nodes['writebacks']} writeback(s)"
    )


def _shard_label(db, k: int) -> str:
    """The prefix of shard ``k``'s lines: none for a flat DBDIR."""
    return "" if db.flat else f"shard {k}: "


def _cmd_nodes(args: argparse.Namespace) -> int:
    with open_db(args.dbdir) as db:
        result = db.query_nodes(args.xpath)
        total = sum(len(v) for v in result.values())
        print(f"{total} node(s) in {len(result)} document(s)")
        for doc_id, positions in sorted(result.items()):
            sequence = db.load_sequence(doc_id)
            rendered = ", ".join(
                f"{p}:{sequence[p].symbol}" for p in positions
            )
            print(f"  doc {doc_id}: {rendered}")
    return 0


def _remove_each(remove, doc_ids: list[int]) -> int:
    """Remove the ids in order; the count goes to stdout only when all of
    them went.  A failure (unknown id, no DocId entry) leaves the count on
    stderr and re-raises for :func:`main` to print and turn into an exit
    code — the earlier removals stand."""
    removed = 0
    try:
        for doc_id in doc_ids:
            remove(doc_id)
            removed += 1
    except ReproError:
        print(f"{removed} document(s) removed before the error", file=sys.stderr)
        raise
    print(f"removed {removed} document(s)")
    return 0


def _cmd_remove(args: argparse.Namespace) -> int:
    with open_db(args.dbdir) as db:
        return _remove_each(db.remove, args.doc_ids)


def _cmd_check(args: argparse.Namespace) -> int:
    """Run every invariant checker against each index of the DBDIR.

    Exit code 0 when all invariants hold, 2 when any is violated —
    ``repro check DBDIR`` is safe to wire into cron/CI against a
    production index directory (the index is only read).  On a sharded
    database every shard is checked; one bad shard fails the run.
    """
    from repro.testing.invariants import check_index

    failed_shards = 0
    with open_db(args.dbdir) as db:
        for k, index in enumerate(db.shards):
            label = _shard_label(db, k)
            reports = check_index(index)
            for report in reports:
                print(label + report.summary())
            bad = [report for report in reports if not report.ok]
            if bad:
                failed_shards += 1
                print(f"{label}{len(bad)} checker(s) found violations")
    if failed_shards:
        if not db.flat:
            print(f"{failed_shards} shard(s) have violations")
        return EXIT_VIOLATIONS
    print("all invariants hold" + ("" if db.flat else f" across {db.nshards} shard(s)"))
    return 0


def _cmd_reshard(args: argparse.Namespace) -> int:
    from repro.shard import reshard_db

    report = reshard_db(args.dbdir, args.nshards)
    print(
        f"resharded {args.dbdir}: {report['old_nshards']} -> "
        f"{report['new_nshards']} shard(s), {report['documents']} "
        f"document(s) moved, {report['tombstones']} tombstone(s) preserved"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """``stats``: documents, each shard's health, then its trees and caches.

    Health comes first: it reads only this process's observations and
    the ``health.json`` sidecars, so a damaged DBDIR still shows its
    report before the tree walk fails on the damage (exit code 3)."""
    if args.workers is not None:
        return _stats_workers(args)
    with open_db(args.dbdir) as db:
        paths = db.shard_dirs()
        if args.json:
            snapshot = db.metrics.snapshot()
            snapshot["documents"] = len(db)
            for k, path in enumerate(paths):
                sidecar = _read_health(path)
                if sidecar is not None:
                    shard = snapshot if db.flat else snapshot["shard"][str(k)]
                    shard["health_sidecar"] = sidecar
            print(json.dumps(snapshot, indent=2, sort_keys=True, default=str))
            return 0
        print(f"documents: {len(db)}")
        if not db.flat:
            print(
                f"routing: {db.nshards} shard(s), next_doc_id "
                f"{db.map.next_doc_id}, routed {db.map.shard_counts()}"
            )
        for k, (path, index) in enumerate(zip(paths, db.shards)):
            _print_health(_shard_label(db, k), path, index)
        for k, index in enumerate(db.shards):
            label = _shard_label(db, k)
            for name, stats in index.index_stats().items():
                print(
                    f"{label}{name}: {stats.entries} entries, "
                    f"{stats.total_pages} pages "
                    f"({stats.total_bytes / 1024:.0f} KiB), height {stats.height}"
                )
            _print_cache_stats(index, label)
    return 0


def _stats_workers(args: argparse.Namespace) -> int:
    """``stats --workers N``: stats through live worker processes.

    Unlike the embedded path this includes the ``supervision`` block —
    per-shard states (healthy/restarting/down) and the restart /
    unavailable / retry counters of the fault-tolerance layer.
    """
    from repro.shard import ShardedExecutor

    with ShardedExecutor(args.dbdir, workers=args.workers) as executor:
        snapshot = executor.stats()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True, default=str))
        return 0
    routing = snapshot["routing"]
    print(
        f"routing: {routing['nshards']} shard(s), "
        f"next_doc_id {routing['next_doc_id']}, routed {routing['routed']}"
    )
    supervision = snapshot["supervision"]
    states = ", ".join(
        f"shard {k}: {v}" for k, v in sorted(supervision["states"].items())
    )
    print(f"supervision: {states}")
    if supervision.get("down"):
        print(f"  down shards: {supervision['down']}")
    return 0


def _read_health(path: Path) -> Optional[dict]:
    """What earlier degraded queries recorded in ``path``, if anything."""
    sidecar = path / HEALTH_FILE
    return json.loads(sidecar.read_text()) if sidecar.exists() else None


def _record_health(db) -> bool:
    """After a query: each index whose health is no longer ok gets its
    summary on stderr and its ``health.json`` written for ``repro stats``.
    Returns whether any was degraded (the answer then came from the
    docstore, not from the damaged tree)."""
    degraded = False
    for k, (path, index) in enumerate(zip(db.shard_dirs(), db.shards)):
        if not index.health.ok:
            (path / HEALTH_FILE).write_text(
                json.dumps(index.health.report(), indent=2) + "\n"
            )
            print(_shard_label(db, k) + index.health.summary(), file=sys.stderr)
            degraded = True
    return degraded


def _print_health(label: str, path: Path, index: VistIndex) -> None:
    """Health of this process *and* what past degraded queries recorded."""
    if not index.health.ok:
        print(label + index.health.summary())
        return
    report = _read_health(path)
    if report is None:
        print(f"{label}health: ok")
        return
    print(
        f"{label}health: {report.get('status', 'unknown')} (recorded by an "
        f"earlier run; {len(report.get('events', []))} corruption event(s), "
        f"{report.get('degraded_queries', 0)} degraded query/queries)"
    )
    for event in report.get("events", []):
        print(f"  {event.get('kind')}: {event.get('detail')}")
    print("  run `repro scrub` to assess and `repro salvage` to rebuild")


def _cmd_scrub(args: argparse.Namespace) -> int:
    from repro.repair import scrub_db

    report = scrub_db(args.dbdir, invariants=not args.no_invariants)
    print(report.summary())
    return 0 if report.ok else EXIT_VIOLATIONS


def _cmd_salvage(args: argparse.Namespace) -> int:
    from repro.repair import salvage_db

    print(salvage_db(args.dbdir).summary())
    return 0
