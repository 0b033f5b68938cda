"""Asyncio HTTP/1.1 front end: event loop + admission control + streaming.

:class:`AsyncTaggingServer` serves every endpoint from a single event loop
on :func:`asyncio.start_server`:

* **keep-alive + pipelining** -- each connection is one coroutine reading
  requests back-to-back; pipelined requests already sitting in the socket
  buffer are answered without a round trip.
* **admission control** -- every ``POST`` passes an
  :class:`~repro.serve.admission.AdmissionController` gate before any work
  happens: bounded per-endpoint concurrency, a bounded wait queue that sheds
  excess load with ``429 + Retry-After``, and a per-request deadline that
  abandons work nobody is waiting for (the microbatch queue drops cancelled
  requests before decoding them).
* **async microbatch bridge** -- the event loop never blocks on a decode:
  queue futures are awaited through :func:`asyncio.wrap_future`
  (:func:`tag_lines_async`), and index searches / artifact reloads run in
  the default executor.  Tag results are byte-identical to
  :meth:`~repro.serve.service.TaggingService.tag_lines` because both execute
  the same :class:`~repro.serve.service.TagPlan`; response documents come
  from the route logic in :mod:`repro.serve.routes`.
* **streaming NDJSON** -- ``POST /v1/tag`` and ``POST /v1/search`` with
  ``"stream": true`` answer ``application/x-ndjson`` over chunked transfer
  encoding: one meta object line, then one JSON object per line/match,
  written as results resolve — a corpus-sized answer never materializes in
  one buffer.  A failure after the stream started appends a terminal
  ``{"error": ...}`` line and closes the connection (the status line is
  already gone).
* **observability** -- per-endpoint latency and queue-wait histograms plus
  request/shed/error counters (:mod:`repro.serve.metrics`) surface in
  ``GET /stats`` alongside the admission gate counters.

:func:`start_in_thread` runs the whole server on a background thread's event
loop for tests, benchmarks and callers that are not themselves async; the
``repro serve`` and ``repro chartag serve`` commands run it on the main
thread until SIGINT.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from http.client import responses as _REASONS

from repro.errors import ReproError
from repro.serve import routes
from repro.serve.admission import (
    AdmissionController,
    DeadlineExceededError,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.routes import HttpError
from repro.serve.search import SearchService
from repro.serve.service import TaggingService

__all__ = [
    "AsyncServerHandle",
    "AsyncTaggingServer",
    "start_in_thread",
    "tag_lines_async",
]

_MAX_BODY_BYTES = routes.MAX_BODY_BYTES
#: StreamReader buffer limit: bounds the request head (readuntil), not the
#: body (readexactly buffers past it).
_READER_LIMIT = 256 * 1024

_POST_PATHS = ("/v1/tag", "/v1/search", "/v1/reload")


# -------------------------------------------------------------- async bridge


async def tag_lines_async(
    service: TaggingService, section: str, lines: Sequence[str]
) -> list[dict]:
    """Async twin of :meth:`TaggingService.tag_lines`.

    Executes the same budget-bounded :class:`~repro.serve.service.TagPlan`
    chunk by chunk, awaiting each chunk's queue future via
    :func:`asyncio.wrap_future` so the event loop keeps serving other
    connections while the decode runs on the queue's worker thread.
    Cancellation (a deadline firing) propagates into the queue future, and
    the queue drops the cancelled chunk's lines before decoding them.
    """
    plan = service.plan_tag(section, lines)
    tags: list[list[str]] = [[] for _ in plan.token_sequences]
    for positions in plan.chunks:
        results = await asyncio.wrap_future(
            plan.queue.submit_many([plan.token_sequences[index] for index in positions])
        )
        for index, line_tags in zip(positions, results):
            tags[index] = line_tags
    return [
        {"tokens": list(tokens), "tags": line_tags}
        for tokens, line_tags in zip(plan.token_sequences, tags)
    ]


# ------------------------------------------------------------- http plumbing


@dataclass
class _Request:
    method: str
    path: str
    version: str
    headers: dict[str, str]
    close: bool  # the client asked for (or implies) connection close


class _Responder:
    """Writes exactly one HTTP response — buffered JSON or a chunked stream."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self.started = False
        self.streaming = False
        self.close = False

    def _head(self, status: int, headers: list[tuple[str, str]]) -> bytes:
        reason = _REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        if self.close:
            lines.append("Connection: close")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def send(
        self, status: int, document: dict, *, retry_after_s: float | None = None
    ) -> None:
        """Send a complete ``application/json`` response."""
        data = json.dumps(document).encode("utf-8")
        headers = [
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(data))),
        ]
        if retry_after_s is not None:
            # Shed load politely: tell the client when to come back.
            headers.append(("Retry-After", f"{retry_after_s:g}"))
        self.started = True
        self._writer.write(self._head(status, headers) + data)
        await self._writer.drain()

    async def start_stream(self, status: int = 200) -> None:
        """Open a chunked ``application/x-ndjson`` response body."""
        headers = [
            ("Content-Type", "application/x-ndjson"),
            ("Transfer-Encoding", "chunked"),
        ]
        self.started = True
        self.streaming = True
        self._writer.write(self._head(status, headers))
        await self._writer.drain()

    async def write_line(self, document: dict) -> None:
        """Write one NDJSON line as one HTTP chunk."""
        payload = (json.dumps(document) + "\n").encode("utf-8")
        self._writer.write(f"{len(payload):x}\r\n".encode("ascii") + payload + b"\r\n")
        await self._writer.drain()

    async def finish_stream(self) -> None:
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()


# -------------------------------------------------------------------- server


class AsyncTaggingServer:
    """Event-loop HTTP server over the tagging/search facades.

    Args:
        service: The microbatched tagging facade.
        search: Optional search facade enabling ``POST /v1/search``.
        host / port: Bind address (``port=0`` picks a free port; the chosen
            port is on :attr:`port` after :meth:`start`).
        admission: Per-endpoint gates; defaults to a fresh controller with
            the default :class:`~repro.serve.admission.AdmissionPolicy`.
        metrics: Per-endpoint histograms/counters; defaults to a fresh
            :class:`~repro.serve.metrics.ServerMetrics`.
        verbose: Print one access-log line per request to stderr (only when
            ``metrics`` was not supplied).
    """

    def __init__(
        self,
        service: TaggingService,
        *,
        search: SearchService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: AdmissionController | None = None,
        metrics: ServerMetrics | None = None,
        ingest=None,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.search = search
        self.host = host
        self.port = port
        self.ingest = ingest
        self.admission = admission or AdmissionController()
        if metrics is None:
            import sys

            metrics = ServerMetrics(access_log=sys.stderr if verbose else None)
        self.metrics = metrics
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> "AsyncTaggingServer":
        """Bind the listening socket (resolves ``port=0`` to the real port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_READER_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "AsyncTaggingServer":
        return await self.start()

    async def __aexit__(self, *_exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------ connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            keep = True
            while keep:
                try:
                    request = await self._read_head(reader)
                except HttpError as error:
                    # The request line/headers never parsed; answer what we
                    # can and drop the connection (framing is untrusted).
                    responder = _Responder(writer)
                    responder.close = True
                    status, _ = routes.error_status(error)
                    await responder.send(status, {"error": str(error)})
                    break
                if request is None:
                    break
                keep = await self._dispatch(request, reader, writer)
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
        ):
            pass  # the client went away mid-request; nothing to answer
        finally:
            # Also suppress CancelledError: the loop cancels connection
            # tasks at shutdown, and swallowing it here lets the task end
            # cleanly instead of tripping the stream protocol's logger.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _read_head(self, reader: asyncio.StreamReader) -> _Request | None:
        """Parse one request line + headers (``None`` on a clean EOF)."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial.strip():
                return None  # clean keep-alive close between requests
            raise HttpError(400, "truncated request head", close=True) from None
        except asyncio.LimitOverrunError:
            raise HttpError(431, "request head too large", close=True) from None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise HttpError(400, f"malformed request line {lines[0]!r}", close=True)
        method, path, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, separator, value = line.partition(":")
            if not separator:
                raise HttpError(400, f"malformed header line {line!r}", close=True)
            headers[name.strip().lower()] = value.strip()
        close = (
            headers.get("connection", "").lower() == "close" or version == "HTTP/1.0"
        )
        return _Request(
            method=method, path=path, version=version, headers=headers, close=close
        )

    async def _read_json_body(
        self, request: _Request, reader: asyncio.StreamReader
    ) -> dict:
        """Read + parse the request body (``{}`` when there is none)."""
        if "chunked" in request.headers.get("transfer-encoding", "").lower():
            # Without a Content-Length the chunked body would go unread and
            # desync keep-alive framing; refuse it and close the connection.
            raise HttpError(
                411,
                "chunked request bodies are not supported; "
                "send Content-Length instead",
                close=True,
            )
        raw_length = request.headers.get("content-length")
        try:
            length = int(raw_length) if raw_length else 0
        except ValueError:
            raise HttpError(
                400, f"invalid Content-Length header {raw_length!r}", close=True
            ) from None
        if length < 0:
            raise HttpError(
                400, f"invalid Content-Length header {raw_length!r}", close=True
            )
        if length > _MAX_BODY_BYTES:
            raise HttpError(
                400, f"request body exceeds {_MAX_BODY_BYTES} bytes", close=True
            )
        raw = await reader.readexactly(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ReproError(f"request body is not valid JSON: {error}") from error
        if not isinstance(body, dict):
            raise ReproError("request body must be a JSON object")
        return body

    # --------------------------------------------------------------- routing

    async def _dispatch(
        self,
        request: _Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Answer one request; returns whether to keep the connection."""
        started = time.perf_counter()
        queue_wait = 0.0
        status = 500
        responder = _Responder(writer)
        responder.close = request.close
        try:
            if request.method == "GET":
                status = await self._handle_get(request, responder)
            elif request.method == "POST":
                body = await self._read_json_body(request, reader)
                if request.path not in _POST_PATHS:
                    status = 404
                    await responder.send(
                        404, {"error": f"unknown path {request.path!r}"}
                    )
                elif request.path == "/v1/search" and self.search is None:
                    status = 503
                    await responder.send(
                        503,
                        {
                            "error": (
                                "no recipe index is configured; "
                                "start the server with --index"
                            )
                        },
                    )
                else:
                    status, queue_wait = await self._handle_post(
                        request, body, responder
                    )
            else:
                status = 405
                responder.close = True
                await responder.send(
                    405, {"error": f"method {request.method} is not supported"}
                )
        except Exception as error:  # noqa: BLE001 - client must get an answer
            status, retry_after_s = routes.error_status(error)
            if isinstance(error, HttpError) and error.close:
                responder.close = True
            message = (
                str(error)
                if isinstance(error, ReproError)
                else f"internal error: {error}"
            )
            if responder.streaming:
                # The status line is already on the wire; the best we can do
                # is a terminal NDJSON error object and a connection close.
                responder.close = True
                with contextlib.suppress(ConnectionError):
                    await responder.write_line({"error": message})
                    await responder.finish_stream()
            else:
                await responder.send(
                    status, {"error": message}, retry_after_s=retry_after_s
                )
        finally:
            self.metrics.observe(
                request.path,
                request.method,
                status,
                time.perf_counter() - started,
                queue_wait_s=queue_wait,
            )
        return not responder.close

    async def _handle_get(self, request: _Request, responder: _Responder) -> int:
        if request.path == "/healthz":
            document = routes.health_document(self.service, self.search)
        elif request.path == "/stats":
            document = routes.stats_document(
                self.service,
                self.search,
                server=self.metrics.snapshot(),
                admission=self.admission.stats(),
                ingest=self.ingest.stats() if self.ingest is not None else None,
            )
        else:
            await responder.send(404, {"error": f"unknown path {request.path!r}"})
            return 404
        await responder.send(200, document)
        return 200

    async def _handle_post(
        self, request: _Request, body: dict, responder: _Responder
    ) -> tuple[int, float]:
        """Admission-gated POST handling; returns ``(status, queue_wait_s)``."""
        endpoint = {"/v1/tag": "tag", "/v1/search": "search", "/v1/reload": "reload"}[
            request.path
        ]
        async with self.admission.admit(endpoint) as queue_wait:
            deadline_s = self.admission.deadline_for(endpoint)
            remaining = None if deadline_s is None else deadline_s - queue_wait
            if remaining is not None and remaining <= 0:
                raise DeadlineExceededError(
                    f"request to endpoint {endpoint!r} spent its "
                    f"{deadline_s:g}s deadline waiting for a slot"
                )
            handler = {
                "tag": self._post_tag,
                "search": self._post_search,
                "reload": self._post_reload,
            }[endpoint]
            try:
                status = await asyncio.wait_for(handler(body, responder), remaining)
            except TimeoutError:
                # The handler coroutine was cancelled: submitted queue
                # futures get cancelled with it, and the flush worker drops
                # them before decoding.
                raise DeadlineExceededError(
                    f"request to endpoint {endpoint!r} exceeded its "
                    f"{deadline_s:g}s deadline; abandoning the work"
                ) from None
            return status, queue_wait

    # -------------------------------------------------------- POST endpoints

    async def _post_tag(self, body: dict, responder: _Responder) -> int:
        section, lines = routes.validate_tag_body(body)
        if body.get("stream"):
            await self._stream_tag(responder, section, lines)
            return 200
        results = await tag_lines_async(self.service, section, lines)
        await responder.send(200, routes.tag_document(self.service, results))
        return 200

    async def _stream_tag(
        self, responder: _Responder, section: str, lines: Sequence[str]
    ) -> None:
        """NDJSON-stream tag results: meta line, then one object per line.

        Lines are emitted in input order as their budget-bounded chunks
        resolve, so a corpus-sized request streams out flush by flush
        instead of materializing one multi-megabyte response body.
        """
        plan = self.service.plan_tag(section, lines)
        record = self.service.model_record()
        await responder.start_stream()
        await responder.write_line(
            {
                "model": {"name": record.name, "generation": record.generation},
                "lines": len(plan.token_sequences),
            }
        )
        resolved: dict[int, list[str]] = {}
        emitted = 0

        async def emit_through(boundary: int) -> None:
            nonlocal emitted
            while emitted < boundary:
                await responder.write_line(
                    {
                        "tokens": list(plan.token_sequences[emitted]),
                        "tags": resolved.pop(emitted, []),
                    }
                )
                emitted += 1

        for positions in plan.chunks:
            results = await asyncio.wrap_future(
                plan.queue.submit_many([plan.token_sequences[index] for index in positions])
            )
            for index, line_tags in zip(positions, results):
                resolved[index] = line_tags
            # Everything before this chunk's last position is final now:
            # earlier chunks resolved already, skipped lines are empty.
            await emit_through(positions[-1] + 1)
        await emit_through(len(plan.token_sequences))
        await responder.finish_stream()

    async def _post_search(self, body: dict, responder: _Responder) -> int:
        query, limit, options = routes.search_arguments(body)
        loop = asyncio.get_running_loop()
        if body.get("stream"):
            meta, matches = await loop.run_in_executor(
                None, partial(self.search.search_stream, query, limit=limit, **options)
            )
            await responder.start_stream()
            await responder.write_line(meta)
            for match in matches:
                await responder.write_line(match)
            await responder.finish_stream()
            return 200
        document = await loop.run_in_executor(
            None, partial(self.search.search, query, limit=limit, **options)
        )
        await responder.send(200, document)
        return 200

    async def _post_reload(self, body: dict, responder: _Responder) -> int:
        document = await asyncio.get_running_loop().run_in_executor(
            None, partial(routes.reload_document, self.service, self.search, body)
        )
        await responder.send(200, document)
        return 200


# ------------------------------------------------------------ thread runner


class AsyncServerHandle:
    """A running :class:`AsyncTaggingServer` on a background event loop.

    The handle is what synchronous callers (tests, benchmarks) interact
    with: :attr:`port` to connect, :meth:`close` to stop the loop and join
    the thread.
    """

    def __init__(
        self,
        server: AsyncTaggingServer,
        loop: asyncio.AbstractEventLoop,
        stop: asyncio.Event,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._stop = stop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    def close(self, *, timeout: float = 10.0) -> None:
        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "AsyncServerHandle":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


def start_in_thread(
    service: TaggingService,
    *,
    search: SearchService | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    admission: AdmissionController | None = None,
    metrics: ServerMetrics | None = None,
    ingest=None,
    verbose: bool = False,
    ready_timeout_s: float = 30.0,
) -> AsyncServerHandle:
    """Run an :class:`AsyncTaggingServer` on a daemon thread's event loop."""
    ready = threading.Event()
    holder: dict[str, object] = {}

    def run() -> None:
        async def main() -> None:
            server = AsyncTaggingServer(
                service,
                search=search,
                host=host,
                port=port,
                admission=admission,
                metrics=metrics,
                ingest=ingest,
                verbose=verbose,
            )
            try:
                await server.start()
            except BaseException as error:
                holder["error"] = error
                ready.set()
                raise
            stop = asyncio.Event()
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            holder["stop"] = stop
            ready.set()
            try:
                await stop.wait()
            finally:
                await server.close()

        try:
            asyncio.run(main())
        except BaseException as error:  # noqa: BLE001 - surfaced via holder
            holder.setdefault("error", error)
            ready.set()

    thread = threading.Thread(target=run, name="aio-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=ready_timeout_s):
        raise TimeoutError("async server failed to start in time")
    error = holder.get("error")
    if error is not None:
        raise RuntimeError("async server failed to start") from error
    return AsyncServerHandle(
        holder["server"], holder["loop"], holder["stop"], thread
    )
