"""Serving observability: latency histograms, counters, structured access log.

The HTTP front end (:mod:`repro.serve.aio`) records every request into one
:class:`ServerMetrics` instance, which ``GET /stats`` reports:

* :class:`LatencyHistogram` -- fixed log-spaced buckets (quarter decades from
  0.1 ms to 100 s) with p50/p95/p99 estimated by interpolation inside the
  landing bucket.  Fixed buckets make histograms mergeable across processes
  and cheap to snapshot under load (one counter bump per observation).
* :class:`EndpointMetrics` -- per-endpoint request/status-class/shed counters
  plus two histograms: end-to-end latency and admission queue wait.
* :class:`ServerMetrics` -- the per-server collection, with an optional
  structured access log (one JSON object per request on a caller-supplied
  stream).

Everything is stdlib-only and thread-safe: the server records from its
event loop while other threads may read snapshots.
"""

from __future__ import annotations

import json
import threading
import time
from typing import IO

__all__ = ["LatencyHistogram", "EndpointMetrics", "ServerMetrics"]

#: Bucket upper bounds in seconds: 10**(i/4) / 10_000 for i in 0..24, i.e.
#: quarter-decade log spacing from 100 microseconds to 100 seconds.  A 25th
#: overflow bucket catches anything slower.
BUCKET_BOUNDS_S: tuple[float, ...] = tuple(10 ** (i / 4) / 10_000 for i in range(25))


class LatencyHistogram:
    """Fixed log-spaced latency histogram with interpolated quantiles."""

    __slots__ = ("_counts", "_count", "_sum", "_max", "_lock")

    def __init__(self) -> None:
        self._counts = [0] * (len(BUCKET_BOUNDS_S) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one latency sample (negative clock jitter clamps to 0)."""
        seconds = max(0.0, float(seconds))
        index = self._bucket_index(seconds)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    @staticmethod
    def _bucket_index(seconds: float) -> int:
        # Linear scan beats bisect for 25 buckets dominated by fast requests.
        for index, bound in enumerate(BUCKET_BOUNDS_S):
            if seconds <= bound:
                return index
        return len(BUCKET_BOUNDS_S)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile in seconds (0 with no samples).

        The estimate interpolates linearly inside the bucket the quantile
        lands in; the overflow bucket uses the observed maximum as its upper
        edge, so p99 can never exceed the slowest real sample.
        """
        with self._lock:
            counts = list(self._counts)
            total = self._count
            maximum = self._max
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                lower = BUCKET_BOUNDS_S[index - 1] if index > 0 else 0.0
                upper = (
                    BUCKET_BOUNDS_S[index]
                    if index < len(BUCKET_BOUNDS_S)
                    else max(maximum, lower)
                )
                fraction = (target - cumulative) / count
                return min(lower + (upper - lower) * fraction, maximum)
            cumulative += count
        return maximum

    def snapshot(self) -> dict:
        """JSON-ready summary: count, mean/max, p50/p95/p99, nonzero buckets.

        ``buckets`` lists ``{"le_ms": upper-bound-or-null, "count": n}`` for
        every nonzero bucket (``le_ms: null`` is the overflow bucket); the
        bounds are fixed, so histograms from different processes merge by
        adding counts bucket-wise.
        """
        with self._lock:
            counts = list(self._counts)
            total = self._count
            total_sum = self._sum
            maximum = self._max
        buckets = [
            {
                "le_ms": (
                    round(BUCKET_BOUNDS_S[index] * 1000, 4)
                    if index < len(BUCKET_BOUNDS_S)
                    else None
                ),
                "count": count,
            }
            for index, count in enumerate(counts)
            if count
        ]
        return {
            "count": total,
            "mean_ms": round((total_sum / total) * 1000, 3) if total else 0.0,
            "max_ms": round(maximum * 1000, 3),
            "p50_ms": round(self.quantile(0.50) * 1000, 3),
            "p95_ms": round(self.quantile(0.95) * 1000, 3),
            "p99_ms": round(self.quantile(0.99) * 1000, 3),
            "buckets": buckets,
        }


class EndpointMetrics:
    """Counters + latency/queue-wait histograms for one endpoint."""

    __slots__ = ("name", "latency", "queue_wait", "_lock", "_requests", "_by_class", "_shed")

    def __init__(self, name: str) -> None:
        self.name = name
        self.latency = LatencyHistogram()
        self.queue_wait = LatencyHistogram()
        self._lock = threading.Lock()
        self._requests = 0
        self._by_class = {"2xx": 0, "3xx": 0, "4xx": 0, "5xx": 0}
        self._shed = 0

    def record(self, status: int, latency_s: float, *, queue_wait_s: float = 0.0) -> None:
        """Record one finished request (429 counts as shed load)."""
        status_class = f"{status // 100}xx"
        with self._lock:
            self._requests += 1
            if status_class in self._by_class:
                self._by_class[status_class] += 1
            if status == 429:
                self._shed += 1
        self.latency.observe(latency_s)
        self.queue_wait.observe(queue_wait_s)

    def snapshot(self) -> dict:
        with self._lock:
            requests = self._requests
            by_class = dict(self._by_class)
            shed = self._shed
        return {
            "requests_total": requests,
            "responses": by_class,
            "shed_total": shed,
            "errors_total": by_class["5xx"],
            "latency": self.latency.snapshot(),
            "queue_wait": self.queue_wait.snapshot(),
        }


#: Request path -> stable endpoint label used as the metrics key.
_ENDPOINTS = {
    "/healthz": "healthz",
    "/stats": "stats",
    "/v1/tag": "tag",
    "/v1/search": "search",
    "/v1/reload": "reload",
}


def endpoint_label(path: str) -> str:
    """Metrics key for a request path (unknown paths pool under "other")."""
    return _ENDPOINTS.get(path, "other")


class ServerMetrics:
    """Per-endpoint metrics for one server + optional structured access log.

    Args:
        access_log: Writable text stream; when given, every request appends
            one JSON object line (timestamp, endpoint, method, status,
            latency and queue-wait milliseconds).  ``None`` disables logging.
    """

    def __init__(self, *, access_log: IO[str] | None = None) -> None:
        self._lock = threading.Lock()
        self._endpoints: dict[str, EndpointMetrics] = {}
        self._access_log = access_log

    def endpoint(self, name: str) -> EndpointMetrics:
        """The (lazily created) metrics bucket for ``name``."""
        with self._lock:
            metrics = self._endpoints.get(name)
            if metrics is None:
                metrics = self._endpoints[name] = EndpointMetrics(name)
            return metrics

    def observe(
        self,
        path: str,
        method: str,
        status: int,
        latency_s: float,
        *,
        queue_wait_s: float = 0.0,
    ) -> None:
        """Record one finished request and emit its access-log line."""
        label = endpoint_label(path)
        self.endpoint(label).record(status, latency_s, queue_wait_s=queue_wait_s)
        log = self._access_log
        if log is not None:
            line = json.dumps(
                {
                    "ts": round(time.time(), 6),
                    "endpoint": label,
                    "path": path,
                    "method": method,
                    "status": status,
                    "latency_ms": round(latency_s * 1000, 3),
                    "queue_wait_ms": round(queue_wait_s * 1000, 3),
                }
            )
            with self._lock:
                log.write(line + "\n")

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready per-endpoint snapshot for the ``/stats`` endpoint."""
        with self._lock:
            endpoints = dict(self._endpoints)
        return {name: metrics.snapshot() for name, metrics in sorted(endpoints.items())}
