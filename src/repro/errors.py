"""Exception hierarchy for the ViST reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Sub-hierarchies
mirror the package layout (storage, documents, queries, labeling, index).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class PageError(StorageError):
    """A page id is out of range, freed, or a page file is corrupt."""


class CorruptionError(StorageError):
    """Stored bytes fail their checksum or structural validation.

    Base class for the corruption-defense layer: callers that implement
    graceful degradation (quarantine, salvage, degraded-mode answers)
    catch this one class to cover both paged and record storage.
    """


class CorruptPageError(CorruptionError, PageError):
    """A page's CRC trailer does not match its content.

    Carries enough context to quarantine and report: the file ``path``,
    the ``page_id``, the ``stored`` and ``computed`` checksums, and the
    byte ``offset`` of the page slot inside the file.
    """

    def __init__(
        self,
        path: str,
        page_id: int,
        stored: int,
        computed: int,
        offset: int = -1,
        detail: str = "",
    ) -> None:
        message = (
            f"{path}: page {page_id} checksum mismatch at offset {offset} "
            f"(stored 0x{stored:08x}, computed 0x{computed:08x})"
        )
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.path = path
        self.page_id = page_id
        self.stored = stored
        self.computed = computed
        self.offset = offset


class CorruptRecordError(CorruptionError):
    """A document-store record's CRC does not match its payload."""

    def __init__(
        self, path: str, doc_id: int, stored: int, computed: int, offset: int = -1
    ) -> None:
        super().__init__(
            f"{path}: record for doc {doc_id} checksum mismatch at offset "
            f"{offset} (stored 0x{stored:08x}, computed 0x{computed:08x})"
        )
        self.path = path
        self.doc_id = doc_id
        self.stored = stored
        self.computed = computed
        self.offset = offset


class TransientIOError(StorageError):
    """Marker for I/O failures worth retrying (flaky disk, EINTR).

    The storage layer retries these with backoff; one that escapes means
    the fault persisted through every attempt.
    """


class CodecError(StorageError):
    """A value cannot be encoded to (or decoded from) its byte form."""


class IndexFormatError(StorageError):
    """The index file's entries are in a layout this build does not read.

    Raised on open when the tree's format stamp is missing or carries
    another number.  There is no second decoder: the message names
    ``repro salvage``, which rebuilds the index from the document store.
    """


class KeyTooLargeError(StorageError):
    """A key/value pair is too large to fit in a single B+Tree page."""


class DuplicateEntryError(StorageError):
    """An exact ``(key, value)`` pair already exists and duplicates are off."""


class DocumentError(ReproError):
    """Base class for XML document model / parsing failures."""


class XmlParseError(DocumentError):
    """Raised when XML text cannot be parsed."""


class SchemaError(DocumentError):
    """Raised for malformed schema definitions or schema violations."""


class QueryError(ReproError):
    """Base class for query-processing failures."""


class QueryParseError(QueryError):
    """Raised when an XPath-subset expression cannot be parsed."""


class TranslationError(QueryError):
    """Raised when a query tree cannot be translated to sequences."""


class QueryGuardError(QueryError):
    """Base class for query-guard interruptions (timeout, budget, cancel)."""


class QueryTimeoutError(QueryGuardError):
    """A query exceeded its wall-clock deadline."""

    def __init__(self, deadline_ms: float, elapsed_ms: float) -> None:
        super().__init__(
            f"query exceeded its {deadline_ms:g} ms deadline "
            f"({elapsed_ms:.1f} ms elapsed)"
        )
        self.deadline_ms = deadline_ms
        self.elapsed_ms = elapsed_ms


class QueryBudgetExceededError(QueryGuardError):
    """A query exceeded a resource budget (matcher steps or page reads)."""

    def __init__(self, resource: str, limit: int, used: int) -> None:
        super().__init__(
            f"query exceeded its {resource} budget ({used} > {limit})"
        )
        self.resource = resource
        self.limit = limit
        self.used = used


class QueryCancelledError(QueryGuardError):
    """The query's guard was cooperatively cancelled."""


class LabelingError(ReproError):
    """Base class for scope-labelling failures."""


class ScopeUnderflowError(LabelingError):
    """A scope cannot supply a sub-scope of the requested size.

    ViST normally *handles* underflow by borrowing from ancestors
    (Section 3.4.1); this error escapes only when the whole ancestor
    chain, including the root, is exhausted.
    """


class IndexStateError(ReproError):
    """An index operation was attempted in an invalid state."""


class ShardError(ReproError):
    """Base class for sharded-serving failures (routing, wire, workers)."""


class ProtocolError(ShardError):
    """The shard wire protocol was violated.

    Covers framing damage (a length prefix over the 64 MiB cap, a stream
    cut mid-frame, a payload that is not UTF-8 JSON) and malformed
    request/response objects.  CLI exit code 7 — a protocol violation
    means a bug or a hostile/damaged peer, never a query-shaped failure,
    so it is kept distinct from both generic errors and corruption.
    """


class ShardUnavailableError(ShardError):
    """A shard's worker did not answer: dead, unreachable, or too slow.

    Raised (or captured into a :class:`ShardQueryError`) when a worker
    process exits, its connection reaches EOF/reset, an RPC misses its
    deadline, or the shard has been marked ``down`` after exhausting its
    restart budget.  This is the *availability* failure class: it is the
    only kind of per-shard failure that ``--partial`` mode degrades into
    a missing-shard annotation, and the only kind the per-RPC retry
    machinery considers retryable.  CLI exit code 8.
    """

    def __init__(self, shard: int, reason: str = "") -> None:
        message = f"shard {shard} is unavailable"
        if reason:
            message += f": {reason}"
        super().__init__(message)
        self.shard = shard
        self.reason = reason


class ShardQueryError(ShardError):
    """One or more shards failed to answer a scatter-gather query.

    Captured per :class:`~repro.exec.executor.QueryOutcome` — a failing
    shard poisons *that outcome*, never the executor — with the per-shard
    causes in :attr:`shard_errors` (shard index → exception).
    """

    def __init__(self, shard_errors: dict) -> None:
        detail = "; ".join(
            f"shard {k}: {type(exc).__name__}: {exc}"
            for k, exc in sorted(shard_errors.items())
        )
        super().__init__(
            f"{len(shard_errors)} shard(s) failed to answer: {detail}"
        )
        self.shard_errors = dict(shard_errors)


class DatasetError(ReproError):
    """Raised by dataset generators for invalid parameters."""
