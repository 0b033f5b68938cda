"""Tests for what the asyncio HTTP front end adds on top of its endpoints.

Wire parity (every buffered response body is byte-identical to the route
document built in-process over the same facades), NDJSON streaming,
admission control with 429 + Retry-After shedding and request deadlines;
the endpoints, error mapping and keep-alive framing are covered in
``test_http.py``.
"""

import contextlib
import http.client
import json
import threading

import pytest

from repro.errors import ReproError
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    routes,
    start_in_thread,
)


def _request(port, method, path, *, body=None, raw_body=None, headers=None):
    """One HTTP request; returns (status, parsed-json-body, headers)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        data = raw_body if raw_body is not None else (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        connection.request(
            method, path, body=data, headers=headers or {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw), dict(
            (name.lower(), value) for name, value in response.getheaders()
        )
    finally:
        connection.close()


def _raw_request(port, method, path, *, body=None):
    """Like :func:`_request` but returns the raw (status, bytes) body."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        connection.request(method, path, body=data)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _stream_request(port, path, body):
    """POST expecting an NDJSON stream; returns (status, headers, lines)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(
            "POST", path, body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        raw = response.read()  # http.client de-chunks transparently
        lines = [json.loads(line) for line in raw.decode("utf-8").splitlines()]
        return response.status, dict(
            (name.lower(), value) for name, value in response.getheaders()
        ), lines
    finally:
        connection.close()


@contextlib.contextmanager
def _slow_instruction_decode(service):
    """Block the instruction queue's decode until ``release`` is set."""
    queue = service._queues["instruction"]
    original = queue._tag_batch
    started = threading.Event()
    release = threading.Event()

    def slow(token_sequences):
        started.set()
        assert release.wait(timeout=30)
        return original(token_sequences)

    queue._tag_batch = slow
    try:
        yield started, release
    finally:
        release.set()
        queue._tag_batch = original


LINES = [
    "Mix the sugar and onion in a bowl.",
    "",
    "Saute the garlic until golden.",
]


QUERY = "ingredient:sugar OR process:mix"


def _search(search, body):
    """What ``POST /v1/search`` computes for ``body``, called in-process."""
    query, limit, options = routes.search_arguments(body)
    return search.search(query, limit=limit, **options)


#: Buffered 200 responses: (method, path, body, in-process document builder).
SERVED = {
    "healthz": ("GET", "/healthz", None, routes.health_document),
    "tag-instruction": (
        "POST", "/v1/tag", {"section": "instruction", "lines": LINES},
        lambda service, _: routes.tag_document(
            service, service.tag_lines("instruction", LINES)
        ),
    ),
    "tag-ingredient-line": (
        "POST", "/v1/tag", {"section": "ingredient", "line": "2 cups sugar"},
        lambda service, _: routes.tag_document(
            service, service.tag_lines("ingredient", ["2 cups sugar"])
        ),
    ),
    "search": (
        "POST", "/v1/search", {"query": QUERY, "limit": 5},
        lambda _, search: _search(search, {"query": QUERY, "limit": 5}),
    ),
    "search-ranked-faceted": (
        "POST", "/v1/search",
        {"query": QUERY, "limit": 5, "rank": True, "facets": ["ingredient", "process"]},
        lambda _, search: _search(
            search,
            {"query": QUERY, "limit": 5, "rank": True, "facets": ["ingredient", "process"]},
        ),
    ),
    "reload-unchanged": (
        "POST", "/v1/reload", {},
        lambda service, search: routes.reload_document(service, search, {}),
    ),
}

#: Refused requests: (path, body); the same body raises in-process.
REFUSED = {
    "unknown-section": ("/v1/tag", {"section": "dessert", "lines": ["x"]}),
    "non-string-lines": ("/v1/tag", {"lines": [1, 2]}),
    "rank-not-a-bool": ("/v1/search", {"query": "process:mix", "rank": "yes"}),
    "facets-not-a-list": ("/v1/search", {"query": "process:mix", "facets": "ingredient"}),
    "facets-not-strings": (
        "/v1/search", {"query": "process:mix", "facets": ["ingredient", 7]},
    ),
    "unknown-facet-field": ("/v1/search", {"query": "process:mix", "facets": ["colour"]}),
    "blank-query": ("/v1/search", {"query": "   "}),
    "negative-limit": ("/v1/search", {"query": "process:mix", "limit": -1}),
}


def _refuse_in_process(service, search, path, body):
    if path == "/v1/tag":
        section, lines = routes.validate_tag_body(body)
        service.tag_lines(section, lines)
    else:
        _search(search, body)


class TestInProcessParity:
    """The server adds framing only: each body it sends is the JSON of the
    route document (or error) the same facades produce in-process."""

    @pytest.mark.parametrize("case", list(SERVED))
    def test_served_body_is_the_in_process_document(
        self, search_server, service, search_service, case
    ):
        method, path, body, build = SERVED[case]
        status, payload = _raw_request(search_server.port, method, path, body=body)
        assert status == 200
        assert payload == json.dumps(build(service, search_service)).encode("utf-8")

    @pytest.mark.parametrize("case", list(REFUSED))
    def test_error_body_is_the_in_process_error(
        self, search_server, service, search_service, case
    ):
        path, body = REFUSED[case]
        with pytest.raises(ReproError) as raised:
            _refuse_in_process(service, search_service, path, body)
        status, payload = _raw_request(search_server.port, "POST", path, body=body)
        assert status == routes.error_status(raised.value)[0] == 400
        assert payload == json.dumps({"error": str(raised.value)}).encode("utf-8")


class TestStreaming:
    def test_tag_stream_matches_the_buffered_response(self, server):
        body = {"section": "instruction", "lines": LINES}
        status, buffered, _ = _request(server.port, "POST", "/v1/tag", body=body)
        assert status == 200
        status, headers, lines = _stream_request(
            server.port, "/v1/tag", {**body, "stream": True}
        )
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        assert headers.get("transfer-encoding") == "chunked"
        meta, results = lines[0], lines[1:]
        assert meta["model"] == buffered["model"]
        assert meta["lines"] == len(LINES)
        assert results == buffered["results"]

    def test_tag_stream_handles_trailing_blank_lines(self, server):
        body = {"section": "ingredient", "lines": ["1 cup milk", "", ""], "stream": True}
        status, _, lines = _stream_request(server.port, "/v1/tag", body)
        assert status == 200
        assert len(lines) == 4  # meta + one object per input line
        assert lines[2] == {"tokens": [], "tags": []}
        assert lines[3] == {"tokens": [], "tags": []}

    def test_search_stream_matches_the_buffered_response(self, search_server):
        body = {"query": "ingredient:sugar OR process:mix"}
        status, buffered, _ = _request(
            search_server.port, "POST", "/v1/search", body=body
        )
        assert status == 200
        status, headers, lines = _stream_request(
            search_server.port, "/v1/search", {**body, "stream": True}
        )
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        meta, results = lines[0], lines[1:]
        assert meta == {
            key: value for key, value in buffered.items() if key != "results"
        }
        assert results == buffered["results"]

    def test_stream_error_before_headers_is_a_clean_400(self, server):
        status, document, _ = _request(
            server.port, "POST", "/v1/tag",
            body={"section": "dessert", "lines": ["x"], "stream": True},
        )
        assert status == 400
        assert "unknown recipe section" in document["error"]


class TestAdmissionControl:
    def test_saturation_sheds_429_while_inflight_completes(self, service):
        """The acceptance scenario: with max_inflight exceeded, excess
        requests get 429 + Retry-After while the in-flight request completes
        correctly."""
        admission = AdmissionController(
            AdmissionPolicy(max_inflight=1, queue_depth=0, retry_after_s=3.0)
        )
        with start_in_thread(service, admission=admission) as handle:
            with _slow_instruction_decode(service) as (started, release):
                results = {}

                def inflight():
                    results["inflight"] = _request(
                        handle.port, "POST", "/v1/tag",
                        body={"section": "instruction", "lines": ["Mix the salt."]},
                    )

                worker = threading.Thread(target=inflight)
                worker.start()
                assert started.wait(timeout=10)
                # The slot is held: the next request is shed immediately.
                status, document, headers = _request(
                    handle.port, "POST", "/v1/tag",
                    body={"section": "instruction", "lines": ["Stir."]},
                )
                assert status == 429
                assert "retry later" in document["error"]
                assert headers["retry-after"] == "3"
                release.set()
                worker.join(timeout=30)
            status, document, _ = results["inflight"]
            assert status == 200
            expected = service.tag_lines("instruction", ["Mix the salt."])
            assert document["results"] == expected

            # Shedding is visible to operators: gate counters + histograms.
            status, stats, _ = _request(handle.port, "GET", "/stats")
            assert stats["admission"]["tag"]["shed_total"] == 1
            assert stats["server"]["tag"]["shed_total"] == 1
            assert stats["server"]["tag"]["requests_total"] >= 2
            assert stats["server"]["tag"]["latency"]["count"] >= 2

    def test_queued_request_expires_with_503_deadline(self, service):
        """A queued request whose slot never frees expires at its deadline
        with a distinct 'waiting for a slot' 503."""
        import asyncio

        admission = AdmissionController(
            AdmissionPolicy(max_inflight=1, queue_depth=4, deadline_s=0.3)
        )
        with start_in_thread(service, admission=admission) as handle:
            loop = handle._loop
            gate = admission.gate("tag")
            # Hold the only slot out-of-band so no handler deadline frees it.
            asyncio.run_coroutine_threadsafe(gate.acquire(), loop).result(timeout=5)
            try:
                status, document, _ = _request(
                    handle.port, "POST", "/v1/tag",
                    body={"section": "instruction", "lines": ["Stir."]},
                )
                assert status == 503
                assert "waiting for a slot" in document["error"]
            finally:
                loop.call_soon_threadsafe(gate.release)
            # The server is healthy again once the slot frees.
            status, document, _ = _request(
                handle.port, "POST", "/v1/tag",
                body={"section": "instruction", "lines": ["Stir again."]},
            )
            assert status == 200
            status, stats, _ = _request(handle.port, "GET", "/stats")
            assert stats["admission"]["tag"]["deadline_expired_total"] == 1

    def test_inflight_deadline_abandons_the_work_with_503(self, service):
        admission = AdmissionController(
            AdmissionPolicy(max_inflight=4, queue_depth=4, deadline_s=0.3)
        )
        with start_in_thread(service, admission=admission) as handle:
            with _slow_instruction_decode(service) as (started, release):
                status, document, _ = _request(
                    handle.port, "POST", "/v1/tag",
                    body={"section": "instruction", "lines": ["Mix the salt."]},
                )
                assert status == 503
                assert "deadline" in document["error"]
                release.set()
            # The abandoned decode resolved into a cancelled future without
            # killing the flush worker; the queue keeps serving.
            status, document, _ = _request(
                handle.port, "POST", "/v1/tag",
                body={"section": "instruction", "lines": ["Stir."]},
            )
            assert status == 200
