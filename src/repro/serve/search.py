"""Registry-backed search facade over a hot-swappable recipe index.

:class:`SearchService` is to ``POST /v1/search`` what
:class:`~repro.serve.service.TaggingService` is to ``POST /v1/tag``: the
HTTP front end talks to it, and it resolves the serving artifact through a
:class:`~repro.serve.registry.ModelRegistry` *per request*, so a hot-swap
reload (new index artifact on disk) takes effect on the very next query
without restarting the server.  The registry is constructed with
``loader=load_index_artifact``, which dispatches on the artifact's format
marker: a monolithic :class:`~repro.index.RecipeIndex` artifact and a
:class:`~repro.index.ShardManifest` (whose shards are all loaded and
checksum-verified *before* the registry record swaps, so no request can
ever observe a torn index) get the exact lifecycle model bundles have:
checksum-validated loads, file-sha provenance, generation counters,
swap-only-on-change reloads.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from pathlib import Path

from repro.errors import QueryError, ReproError
from repro.index import QueryEngine, load_index_artifact
from repro.serve.registry import ModelRecord, ModelRegistry

__all__ = ["SearchService", "index_registry"]


def index_registry() -> ModelRegistry:
    """A :class:`ModelRegistry` loading index artifacts *or* shard manifests."""
    return ModelRegistry(loader=load_index_artifact)


class SearchService:
    """Answer entity queries from a registry-managed :class:`RecipeIndex`.

    Args:
        registry: Registry holding the index (see :func:`index_registry`).
        index: Registry name the serving index is registered under.
        default_limit: Result cap applied when a request does not send its
            own ``limit`` (``None`` disables the default cap).
        auto_reload_interval_s: When set, each search first checks (at most
            this often) whether the artifact file changed on disk and
            hot-swaps it — how a server tracks a manifest the ingest
            daemon republishes under it.  ``0.0`` checks on every search;
            ``None`` (default) keeps reloads purely explicit
            (``POST /v1/reload``).  A failing auto-reload keeps the
            current index serving and is only counted.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        index: str = "default",
        default_limit: int | None = 100,
        auto_reload_interval_s: float | None = None,
    ) -> None:
        self._registry = registry
        self._index_name = index
        self._default_limit = default_limit
        self._auto_reload_interval_s = auto_reload_interval_s
        self._auto_reload_lock = threading.Lock()
        self._auto_reload_due = 0.0  # monotonic; first search always checks
        self._auto_reload_swaps = 0
        self._auto_reload_failures = 0
        registry.get(index)  # fail fast if nothing is registered under `index`

    @classmethod
    def from_artifact(cls, path: str | Path, **options) -> "SearchService":
        """Build a service over a fresh registry with one loaded artifact."""
        registry = index_registry()
        registry.load(path)
        return cls(registry, **options)

    # ---------------------------------------------------------------- public

    def search(
        self,
        query: str,
        *,
        limit: int | None = None,
        rank: bool = False,
        facets: list[str] | None = None,
    ) -> dict:
        """Evaluate ``query`` against the live index; returns a JSON-ready doc.

        The result carries the total match count, the (possibly truncated)
        matches with their spans, and the provenance of the index generation
        that answered — so a client can tell mid-swap which artifact it hit.
        ``rank=True`` orders results by BM25 score (each match then carries
        ``"score"``); ``facets`` adds per-field ``[{"term", "count"}, ...]``
        aggregations over *all* matches (not just the returned page).
        """
        meta, matches = self.search_stream(query, limit=limit, rank=rank, facets=facets)
        return {**meta, "results": list(matches)}

    def search_stream(
        self,
        query: str,
        *,
        limit: int | None = None,
        rank: bool = False,
        facets: list[str] | None = None,
    ) -> tuple[dict, Iterator[dict]]:
        """Like :meth:`search`, but split for NDJSON streaming responses.

        Returns ``(meta, matches)``: the meta document (query, total,
        returned count, index provenance, and — when requested — the
        ``ranked`` flag and the ``facets`` aggregation, everything
        :meth:`search` carries except ``results``) plus an iterator yielding
        one JSON-ready match dict at a time, so the front end can stream a
        corpus-sized answer without ever rendering it into a single buffer.
        The whole result set is resolved against one index generation before
        the meta is returned; a hot-swap mid-iteration cannot tear the
        stream.
        """
        if not isinstance(query, str) or not query.strip():
            raise QueryError("request must carry 'query': a non-empty query string")
        if limit is None:
            limit = self._default_limit
        elif not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
            raise QueryError("'limit' must be a non-negative integer")
        if not isinstance(rank, bool):
            raise QueryError("'rank' must be a boolean")
        if facets is not None and (
            not isinstance(facets, list)
            or not all(isinstance(field, str) for field in facets)
        ):
            raise QueryError("'facets' must be a list of field names")
        self._maybe_auto_reload()
        record = self.record()
        # One engine call per request: a faceted search counts its facets
        # from the ids the page came from instead of re-evaluating the query.
        result = QueryEngine(record.bundle).search(
            query, limit=limit, rank=rank, facets=facets or None
        )
        total, matches = result[:2]
        meta = {
            "query": query,
            "total": total,
            "returned": len(matches),
            "index": {
                "name": record.name,
                "generation": record.generation,
                "sha256": record.sha256,
            },
        }
        if rank:
            meta["ranked"] = True
        if facets:
            meta["facets"] = {
                field: [{"term": term, "count": count} for term, count in rows]
                for field, rows in result[2].items()
            }
        return meta, (match.to_dict() for match in matches)

    def reload(self, *, force: bool = False) -> ModelRecord:
        """Hot-swap the serving index from its artifact path (see registry)."""
        return self._registry.reload(self._index_name, force=force)

    def _maybe_auto_reload(self) -> None:
        """Throttled reload-on-change, swallowing (but counting) failures.

        The registry's reload is cheap when the file is unchanged (one
        hash) and builds the replacement fully before swapping, so a
        search that triggers the check never observes a torn index; a
        half-written or vanished artifact leaves the live record serving.
        """
        if self._auto_reload_interval_s is None:
            return
        now = time.monotonic()
        with self._auto_reload_lock:
            if now < self._auto_reload_due:
                return
            # Claim the slot before the (possibly slow) reload so other
            # request threads fall through instead of piling up behind it.
            self._auto_reload_due = now + self._auto_reload_interval_s
        before = self.record().generation
        try:
            record = self._registry.reload(self._index_name)
        except (ReproError, OSError):
            with self._auto_reload_lock:
                self._auto_reload_failures += 1
            return
        if record.generation != before:
            with self._auto_reload_lock:
                self._auto_reload_swaps += 1

    def record(self) -> ModelRecord:
        """Provenance of the currently serving index."""
        return self._registry.get(self._index_name)

    def stats(self) -> dict:
        """Index provenance plus shape (doc/term/posting counts).

        The nested shape carries the artifact format too: ``"format"``
        ("v1"/"v2") for a monolithic index, ``"shard_formats"`` (per-format
        counts) for a sharded one — operators watch it converge during a
        rolling v2 migration.
        """
        record = self.record()
        document = {**record.describe(), "index": record.bundle.stats()}
        if self._auto_reload_interval_s is not None:
            with self._auto_reload_lock:
                document["auto_reload"] = {
                    "interval_s": self._auto_reload_interval_s,
                    "swaps": self._auto_reload_swaps,
                    "failures": self._auto_reload_failures,
                }
        return document
