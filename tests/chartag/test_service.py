"""The char serving facade, per-line vs batched vs served over HTTP.

The parity suite: the same lines tagged (a) one at a time through the
tagger, (b) batched through the tagger, (c) through the service's
microbatch queue, and (d) over a real HTTP round trip through the
unchanged asyncio front end must be element-wise identical.
"""

from __future__ import annotations

import json
import signal
import threading
import urllib.error
import urllib.request

import pytest

from repro.chartag import CHAR_SECTION, CharTagBundle, CharTagService
from repro.errors import ConfigurationError
from repro.serve import ModelRegistry, start_in_thread


@pytest.fixture(scope="module")
def chartag_bundle_path(tagger, tmp_path_factory):
    path = tmp_path_factory.mktemp("chartag-serve") / "chartag.json"
    CharTagBundle(tagger).save(path)
    return path


@pytest.fixture()
def registry(chartag_bundle_path):
    registry = ModelRegistry(
        loader=lambda text, source: CharTagBundle.loads(text, source=source)
    )
    registry.load(chartag_bundle_path)
    return registry


@pytest.fixture()
def service(registry):
    with CharTagService(registry, max_delay_s=0.001) as service:
        yield service


@pytest.fixture()
def server(service):
    with start_in_thread(service) as handle:
        yield handle


def _request(port, path, *, body=None):
    url = f"http://127.0.0.1:{port}{path}"
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


LINES = [
    "2 cups chopped tomato",
    "",
    "boil the onion in a pan .",
    "1/2 tablespoon garlic clove",
]


class TestParity:
    def test_per_line_vs_batched_vs_served(self, service, tagger):
        served = service.tag_lines(CHAR_SECTION, LINES)
        per_line = [tagger.tag(line) for line in LINES]
        batched = tagger.tag_batch(LINES)
        assert [result["tags"] for result in served] == per_line == batched
        assert [result["tokens"] for result in served] == [list(l) for l in LINES]

    def test_http_round_trip_is_identical(self, server, service, tagger):
        port = server.port
        status, document = _request(
            port, "/v1/tag", body={"section": CHAR_SECTION, "lines": LINES}
        )
        assert status == 200
        results = document["results"]
        assert [r["tags"] for r in results] == tagger.tag_batch(LINES)
        assert results[1] == {"tokens": [], "tags": []}
        # Direct service access and the HTTP path agree byte for byte.
        assert results == service.tag_lines(CHAR_SECTION, LINES)

    def test_tag_line_matches_tag_lines(self, service):
        line = "simmer the chicken stock ."
        assert (
            service.tag_line(CHAR_SECTION, line)
            == service.tag_lines(CHAR_SECTION, [line])[0]
        )

    def test_concurrent_requests_coalesce_and_agree(self, service, tagger):
        expected = tagger.tag_batch(LINES)
        results: list[list | None] = [None] * 8
        def worker(slot):
            results[slot] = [
                r["tags"] for r in service.tag_lines(CHAR_SECTION, LINES)
            ]
        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == expected for result in results)


class TestSurface:
    def test_unknown_section_is_rejected(self, service, server):
        with pytest.raises(ConfigurationError, match="unknown section"):
            service.tag_lines("ingredient", ["x"])
        port = server.port
        status, document = _request(
            port, "/v1/tag", body={"section": "ingredient", "lines": ["x"]}
        )
        assert status == 400
        assert "char" in document["error"]

    def test_stats_shape(self, service):
        service.tag_lines(CHAR_SECTION, ["mix the sugar ."])
        stats = service.stats()
        assert stats["model"]["generation"] >= 1
        assert stats["queues"][CHAR_SECTION]["requests_total"] >= 1
        assert "decode_hits" in stats["caches"][CHAR_SECTION]

    def test_reload_hot_swaps_through_http(self, server):
        port = server.port
        status, document = _request(port, "/v1/reload", body={"force": True})
        assert status == 200
        assert document["swapped"] is True
        generation = document["model"]["generation"]
        status, document = _request(port, "/v1/reload", body={})
        assert status == 200
        assert document["swapped"] is False
        assert document["model"]["generation"] == generation

    def test_healthz(self, server):
        status, document = _request(server.port, "/healthz")
        assert status == 200
        assert document["status"] == "ok"

    def test_chartag_serve_command_starts_and_stops_on_sigint(
        self, chartag_bundle_path, serve_process, tagger
    ):
        process, port = serve_process(
            ["chartag", "serve", "--bundle", str(chartag_bundle_path), "--port", "0"]
        )
        status, document = _request(
            port, "/v1/tag", body={"section": CHAR_SECTION, "lines": LINES}
        )
        assert status == 200
        assert [r["tags"] for r in document["results"]] == tagger.tag_batch(LINES)
        status, stats = _request(port, "/stats")
        assert status == 200
        assert "admission" in stats  # the admission-gated asyncio server
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 0

    def test_plan_tag_bounds_chunks(self, registry):
        with CharTagService(registry, max_batch=2, max_tokens=64) as service:
            lines = ["a" * 30, "", "b" * 30, "c" * 30, "d" * 30]
            plan = service.plan_tag(CHAR_SECTION, lines)
            assert all(len(chunk) <= 2 for chunk in plan.chunks)
            planned = [index for chunk in plan.chunks for index in chunk]
            assert sorted(planned) == [0, 2, 3, 4]  # empty line planned in no chunk
            results = service.tag_lines(CHAR_SECTION, lines)
            assert results[1] == {"tokens": [], "tags": []}
            assert all(
                len(result["tags"]) == len(line)
                for line, result in zip(lines, results)
            )
