"""Serving layer: warm registry, microbatching, one asyncio HTTP front end.

The ROADMAP north star is serving recipe tagging to many concurrent clients,
which needs things the library core deliberately does not provide:

* :mod:`repro.serve.registry` -- a :class:`ModelRegistry` that loads
  versioned, checksummed :class:`~repro.persistence.PipelineBundle`
  artifacts once, keeps them warm, and hot-swaps a new artifact in without
  dropping in-flight requests;
* :mod:`repro.serve.microbatch` -- a :class:`MicrobatchQueue` that coalesces
  concurrent tag requests into one length-bucketed batch decode per flush
  (one kernel call instead of one per request);
* :mod:`repro.serve.service` / :mod:`repro.serve.search` -- the
  :class:`TaggingService` and :class:`SearchService` facades the front
  end talks to;
* :mod:`repro.serve.aio` -- the front end: an asyncio HTTP/1.1 server with
  keep-alive + pipelining, admission control (:mod:`repro.serve.admission`:
  bounded per-endpoint queues, load shedding with ``429 + Retry-After``,
  request deadlines) and chunked NDJSON streaming for corpus-sized
  responses, answering from the route logic in :mod:`repro.serve.routes`;
* :mod:`repro.serve.metrics` -- per-endpoint latency/queue-wait histograms
  and request/shed/error counters reported by ``GET /stats``.

Everything here is pure stdlib + the existing engine; there is no new
dependency to deploy.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDeniedError,
    AdmissionPolicy,
    DeadlineExceededError,
)
from repro.serve.aio import (
    AsyncServerHandle,
    AsyncTaggingServer,
    start_in_thread,
    tag_lines_async,
)
from repro.serve.metrics import LatencyHistogram, ServerMetrics
from repro.serve.microbatch import MicrobatchQueue, QueueSaturatedError
from repro.serve.registry import ModelRecord, ModelRegistry
from repro.serve.search import SearchService, index_registry
from repro.serve.service import TaggingService

__all__ = [
    "AdmissionController",
    "AdmissionDeniedError",
    "AdmissionPolicy",
    "AsyncServerHandle",
    "AsyncTaggingServer",
    "DeadlineExceededError",
    "LatencyHistogram",
    "MicrobatchQueue",
    "ModelRecord",
    "ModelRegistry",
    "QueueSaturatedError",
    "SearchService",
    "ServerMetrics",
    "TaggingService",
    "index_registry",
    "start_in_thread",
    "tag_lines_async",
]
