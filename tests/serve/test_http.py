"""Tests for the HTTP front end: endpoints, error mapping, keep-alive framing."""

import http.client
import json
import shutil
import socket
import urllib.error
import urllib.request

import pytest

from repro.serve import ModelRegistry, TaggingService, start_in_thread


def _request(server, path, *, body=None, raw_body=None):
    port = server.port
    url = f"http://127.0.0.1:{port}{path}"
    data = raw_body if raw_body is not None else (
        json.dumps(body).encode("utf-8") if body is not None else None
    )
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_healthz_reports_the_serving_artifact(self, server):
        status, document = _request(server, "/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert document["model"]["generation"] >= 1
        assert document["model"]["sha256"]

    def test_tag_matches_the_pipeline_byte_for_byte(self, server, modeler):
        lines = [
            "Mix the sugar and onion in a bowl.",
            "",
            "Saute the garlic until golden.",
        ]
        status, document = _request(
            server, "/v1/tag", body={"section": "instruction", "lines": lines}
        )
        assert status == 200
        results = document["results"]
        assert results[1] == {"tokens": [], "tags": []}
        pipeline = modeler.components.instruction_pipeline
        from repro.text.tokenizer import tokenize

        for line, result in zip(lines, results):
            tokens = tokenize(line)
            assert result["tokens"] == tokens
            if tokens:
                assert result["tags"] == pipeline.tag_token_batch([tokens])[0]

    def test_tag_ingredient_section(self, server, modeler):
        status, document = _request(
            server, "/v1/tag", body={"section": "ingredient", "lines": ["2 cups sugar"]}
        )
        assert status == 200
        expected = [tag for _, tag in modeler.components.ingredient_pipeline.tag_phrase("2 cups sugar")]
        assert document["results"][0]["tags"] == expected

    def test_stats_exposes_queue_and_cache_counters(self, server):
        _request(server, "/v1/tag", body={"section": "ingredient", "lines": ["1 cup milk"]})
        status, document = _request(server, "/stats")
        assert status == 200
        assert document["queues"]["ingredient"]["requests_total"] >= 1
        assert document["model"]["generation"] >= 1
        assert "decode_hits" in document["caches"]["instruction"]

    def test_reload_endpoint_hot_swaps(self, server):
        status, document = _request(server, "/v1/reload", body={"force": True})
        assert status == 200
        assert document["swapped"] is True
        generation = document["model"]["generation"]
        status, document = _request(server, "/v1/reload", body={})
        assert status == 200
        assert document["swapped"] is False
        assert document["model"]["generation"] == generation


class TestErrorHandling:
    def test_unknown_path_is_404(self, server):
        assert _request(server, "/nope")[0] == 404
        assert _request(server, "/v1/nope", body={})[0] == 404

    def test_unsupported_method_is_405(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            connection.request("PUT", "/v1/tag", body=b"{}")
            response = connection.getresponse()
            assert response.status == 405
            assert "PUT" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_unknown_section_is_400_and_lists_the_valid_sections(self, server):
        status, document = _request(
            server, "/v1/tag", body={"section": "dessert", "lines": ["x"]}
        )
        assert status == 400
        assert "unknown recipe section" in document["error"]
        assert "'dessert'" in document["error"]
        # The error must tell the caller what it can send instead.
        assert "ingredient" in document["error"]
        assert "instruction" in document["error"]

    def test_malformed_json_is_400(self, server):
        status, document = _request(server, "/v1/tag", raw_body=b"{not json")
        assert status == 400
        assert "not valid JSON" in document["error"]

    @pytest.mark.parametrize("body", [{}, {"lines": "mix it"}, {"lines": [1, 2]}])
    def test_missing_or_non_string_lines_is_400(self, server, body):
        status, document = _request(server, "/v1/tag", body=body)
        assert status == 400
        assert "lines" in document["error"]

    @pytest.mark.parametrize("bad_length", ["banana", "-5", "1e3", "0x10"])
    def test_malformed_content_length_is_400_not_a_dropped_connection(
        self, server, bad_length
    ):
        """`int("banana")` used to raise outside the handled exception set,
        killing the connection with no response at all.  The client must get
        a 400, and the connection must close (the body length is unknowable,
        so keep-alive framing cannot be trusted)."""
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as connection:
            connection.sendall(
                (
                    f"POST /v1/tag HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {bad_length}\r\n\r\n"
                ).encode("ascii")
            )
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = connection.recv(65536)
                if not chunk:
                    break
                response += chunk
            head, _, body = response.partition(b"\r\n\r\n")
            assert b" 400 " in head.splitlines()[0]
            assert b"Connection: close" in head
            # Read to EOF: the server must actually close the socket.
            while True:
                chunk = connection.recv(65536)
                body += chunk
                if not chunk:
                    break
            assert "Content-Length" in json.loads(body)["error"]

    def test_keep_alive_connection_survives_a_404_with_body(self, server):
        """An unread POST body must not desync the persistent connection."""
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            body = json.dumps({"lines": ["some body"]})
            connection.request("POST", "/v2/wrong", body=body)
            assert connection.getresponse().read() and True  # drain the 404
            connection.request("GET", "/healthz")  # same socket, next request
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_chunked_request_body_is_411_length_required(self, server):
        """A chunked body cannot be framed without reading it; the server
        must answer 411 and close rather than let keep-alive desync."""
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as connection:
            connection.sendall(
                b"POST /v1/tag HTTP/1.1\r\nHost: t\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n"
            )
            response = b""
            while True:
                chunk = connection.recv(65536)
                if not chunk:
                    break
                response += chunk
            head, _, body = response.partition(b"\r\n\r\n")
            assert b" 411 " in head.splitlines()[0]
            assert b"Connection: close" in head
            assert "Content-Length" in json.loads(body)["error"]

    def test_oversized_body_is_400_and_closes_the_connection(self, server):
        """An 8 MiB+ Content-Length is refused before reading; the unread
        body makes the connection unframeable, so it must close."""
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as connection:
            connection.sendall(
                f"POST /v1/tag HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {9 * 1024 * 1024}\r\n\r\n".encode("ascii")
            )
            response = b""
            while True:
                chunk = connection.recv(65536)
                if not chunk:
                    break
                response += chunk
            head, _, body = response.partition(b"\r\n\r\n")
            assert b" 400 " in head.splitlines()[0]
            assert b"Connection: close" in head
            assert "exceeds" in json.loads(body)["error"]

    def test_pipelined_posts_answer_in_order_on_one_socket(self, server):
        """Two POSTs written back-to-back are answered in order on the same
        connection (keep-alive framing stays intact across bodies)."""
        first = json.dumps({"section": "ingredient", "lines": ["2 cups sugar"]}).encode()
        second = json.dumps({"section": "instruction", "lines": ["Mix well."]}).encode()
        request = b"".join(
            b"POST /v1/tag HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
            for payload in (first, second)
        )
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as connection:
            connection.sendall(request)
            reader = connection.makefile("rb")
            documents = []
            for _ in range(2):
                status_line = reader.readline()
                assert b" 200 " in status_line
                headers = {}
                while True:
                    line = reader.readline()
                    if line in (b"\r\n", b"\n"):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                documents.append(
                    json.loads(reader.read(int(headers["content-length"])))
                )
        assert documents[0]["results"][0]["tokens"] == ["2", "cups", "sugar"]
        assert documents[1]["results"][0]["tokens"] == ["Mix", "well", "."]

    def test_reload_of_a_vanished_artifact_is_500_not_a_dropped_connection(
        self, bundle_path, tmp_path
    ):
        artifact = tmp_path / "bundle.json"
        shutil.copy(bundle_path, artifact)
        registry = ModelRegistry()
        registry.load(artifact)
        with TaggingService(registry, max_delay_s=0.001) as service, start_in_thread(
            service
        ) as server:
            artifact.unlink()
            status, document = _request(server, "/v1/reload", body={"force": True})
            assert status == 500
            assert "error" in document
            # The live model keeps serving.
            status, _ = _request(
                server, "/v1/tag", body={"section": "ingredient", "lines": ["1 cup milk"]}
            )
            assert status == 200
