"""Run ``repro serve`` with perfbench's layer wrappers installed in the server.

Usage: ``python3 perfbench/serve_traced.py TRACE_FILE serve [serve options]``

Search requests are labelled by kind (``bool``, ``ranked``, ``facet``) so
spans and counters below them can be split per kind; the spans and
counters are written to ``TRACE_FILE`` when the server exits (SIGINT).
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.use_source_tree()

import tracing  # noqa: E402


def install(tracer: tracing.Tracer) -> Counter:
    """Wrap the search path; returns the per-kind request counter it fills."""
    import repro.index.builder  # noqa: F401  (load every by-name importer first)
    import repro.index.codec  # noqa: F401
    from repro.index import ranking
    from repro.index.query import QueryEngine
    from repro.serve.search import SearchService
    from repro.text import normalize

    requests: Counter = Counter()
    original_stream = SearchService.search_stream

    def search_stream(self, query, *, limit=None, rank=False, facets=None):
        kind = "facet" if facets else "ranked" if rank else "bool"
        requests[kind] += 1
        with tracer.request(kind), tracer.span(f"serve.search:{kind}"):
            return original_stream(self, query, limit=limit, rank=rank, facets=facets)

    SearchService.search_stream = search_stream
    tracer.wrap_method(
        QueryEngine, "search", lambda _a, _k: f"index.query.search:{tracer.current_kind()}"
    )
    tracer.wrap_method(
        QueryEngine, "facets", lambda _a, _k: f"index.query.facets:{tracer.current_kind()}"
    )
    tracer.wrap_function(
        ranking,
        "facet_counts",
        lambda _a, _k: f"index.ranking.facet_counts:{tracer.current_kind()}",
    )
    original_normalize = normalize.normalize_phrase

    def normalize_phrase(text):
        tracer.count(f"text.normalize_phrase:{tracer.current_kind()}")
        return original_normalize(text)

    tracing.replace_references(original_normalize, normalize_phrase)
    return requests


def main() -> int:
    trace_file = Path(sys.argv[1])
    tracer = tracing.Tracer()
    requests = install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        tracer.write(trace_file, {"requests": dict(requests)})


if __name__ == "__main__":
    sys.exit(main())
