"""Route logic of the HTTP front end, kept apart from its protocol code.

The asyncio server (:mod:`repro.serve.aio`) exposes its endpoints over the
:class:`~repro.serve.service.TaggingService` /
:class:`~repro.serve.search.SearchService` facades.  Everything that decides
*what* a response says lives here as pure functions over those facades;
:mod:`repro.serve.aio` only decides *how* the bytes move.

:class:`HttpError` carries an explicit status code for protocol-level
failures the generic exception mapping cannot express (e.g. ``411 Length
Required`` for a chunked request body); :func:`error_status` maps every
other library error onto a status + optional ``Retry-After``.
"""

from __future__ import annotations

from repro.errors import PersistenceError, ReproError
from repro.serve.admission import AdmissionDeniedError, DeadlineExceededError
from repro.serve.microbatch import QueueSaturatedError
from repro.serve.search import SearchService
from repro.serve.service import TaggingService

__all__ = [
    "HttpError",
    "error_status",
    "health_document",
    "reload_document",
    "search_arguments",
    "stats_document",
    "tag_document",
    "validate_tag_body",
]

#: Largest request body the server will read.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Advisory Retry-After seconds when the microbatch backlog sheds a request.
QUEUE_RETRY_AFTER_S = 1.0


class HttpError(ReproError):
    """A protocol-level failure with an explicit HTTP status.

    Attributes:
        status: Response status code.
        close: Whether the connection must close after the response (set
            whenever request framing can no longer be trusted).
    """

    def __init__(self, status: int, message: str, *, close: bool = False) -> None:
        super().__init__(message)
        self.status = status
        self.close = close


def error_status(error: Exception) -> tuple[int, float | None]:
    """Map an exception to ``(status, retry_after_s)`` for the error body.

    Load shedding — a saturated microbatch backlog or a denied admission —
    answers ``429`` with an advisory ``Retry-After`` so well-behaved clients
    back off instead of hammering; an expired deadline answers ``503`` (the
    work was abandoned, not refused); a bad *replacement* artifact during
    reload answers ``500`` (the live model keeps serving); every other
    library error is the client's fault (``400``).
    """
    if isinstance(error, HttpError):
        return error.status, None
    if isinstance(error, AdmissionDeniedError):
        return 429, error.retry_after_s
    if isinstance(error, QueueSaturatedError):
        return 429, QUEUE_RETRY_AFTER_S
    if isinstance(error, DeadlineExceededError):
        return 503, None
    if isinstance(error, PersistenceError):
        return 500, None
    if isinstance(error, ReproError):
        return 400, None
    return 500, None


# ----------------------------------------------------------------- documents


def health_document(service: TaggingService, search: SearchService | None) -> dict:
    """The ``GET /healthz`` response body."""
    document = {"status": "ok", "model": service.model_record().describe()}
    if search is not None:
        record = search.record()
        info = record.describe()
        # Index shape at a glance: shard count always (1 for a monolithic
        # artifact), plus the manifest's own generation when sharded (the
        # registry generation above counts swaps, not compactions).
        info["shards"] = getattr(record.bundle, "shard_count", 1)
        index_generation = getattr(record.bundle, "generation", None)
        if index_generation is not None:
            info["index_generation"] = index_generation
        # Artifact format(s): "v1"/"v2" for a monolithic index, the
        # per-shard list for a manifest (mixed mid-migration is normal).
        shard_formats = getattr(record.bundle, "shard_formats", None)
        if shard_formats is not None:
            info["shard_formats"] = shard_formats
        else:
            info["format"] = getattr(record.bundle, "kind", "v1")
        document["index"] = info
    return document


def stats_document(
    service: TaggingService,
    search: SearchService | None,
    *,
    server: dict | None = None,
    admission: dict | None = None,
    ingest: dict | None = None,
) -> dict:
    """The ``GET /stats`` response body.

    ``server`` is the front end's per-endpoint metrics snapshot
    (:meth:`~repro.serve.metrics.ServerMetrics.snapshot`); ``admission`` the
    asyncio server's gate counters; ``ingest`` the in-process
    :meth:`~repro.ingest.daemon.IngestDaemon.stats` counters (generation,
    lag in pending bytes, compactions).  Any may be omitted.
    """
    document = service.stats()
    if search is not None:
        document["index"] = search.stats()
    if server is not None:
        document["server"] = server
    if admission is not None:
        document["admission"] = admission
    if ingest is not None:
        document["ingest"] = ingest
    return document


def validate_tag_body(body: dict) -> tuple[str, list[str]]:
    """Extract ``(section, lines)`` from a ``POST /v1/tag`` body."""
    section = body.get("section", "instruction")
    lines = body.get("lines")
    if lines is None and "line" in body:
        lines = [body["line"]]
    if not isinstance(lines, list) or not all(isinstance(line, str) for line in lines):
        raise ReproError("request body must carry 'lines': a list of strings")
    return section, lines


def tag_document(service: TaggingService, results: list[dict]) -> dict:
    """The ``POST /v1/tag`` response body around already-tagged results."""
    record = service.model_record()
    return {
        "model": {"name": record.name, "generation": record.generation},
        "results": results,
    }


def search_arguments(body: dict) -> tuple[str, int | None, dict]:
    """Extract ``(query, limit, options)`` from a ``POST /v1/search`` body.

    ``options`` carries the ranked-retrieval extensions — ``"rank": true``
    for BM25 top-k ordering, ``"facets": ["ingredient", ...]`` for per-field
    match-count aggregations — exactly as the client sent them; the
    :class:`~repro.serve.search.SearchService` validates their types, so the
    HTTP endpoint and in-process callers reject malformed values with the
    same message.
    """
    options = {}
    if "rank" in body:
        options["rank"] = body.get("rank")
    if "facets" in body:
        options["facets"] = body.get("facets")
    return body.get("query"), body.get("limit"), options


def reload_document(
    service: TaggingService, search: SearchService | None, body: dict
) -> dict:
    """Handle ``POST /v1/reload``: hot-swap the bundle (and index, if any)."""
    force = bool(body.get("force", False))
    before = service.model_record().generation
    record = service.reload(force=force)
    document = {"swapped": record.generation != before, "model": record.describe()}
    if search is not None:
        index_before = search.record().generation
        try:
            index_record = search.reload(force=force)
        except ReproError as error:
            # The model swap above already happened; the client must not
            # read the failure as "nothing changed".
            raise type(error)(
                f"model reload succeeded (swapped={document['swapped']}, "
                f"generation {record.generation}) but index reload failed: {error}"
            ) from error
        document["index_swapped"] = index_record.generation != index_before
        document["index"] = index_record.describe()
    return document
