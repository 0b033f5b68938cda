"""Tests for the search service and the HTTP /v1/search endpoint."""

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError, QueryError
from repro.index import IndexBuilder, QueryEngine, RecipeIndex, scan_structured_jsonl
from repro.serve import SearchService, index_registry


def _request(server, path, *, body=None):
    port = server.port
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


def _a_matching_query(index_path) -> str:
    """A process-term query guaranteed to match at least one indexed recipe."""
    index = RecipeIndex.load(index_path)
    term = max(index.terms("process"), key=lambda t: len(index.postings("process", t)))
    return f'process:"{term}"'


class TestSearchService:
    def test_results_equal_a_brute_force_scan(self, search_service, index_path, structured_path):
        query = _a_matching_query(index_path)
        document = search_service.search(query)
        expected = [m.to_dict() for m in scan_structured_jsonl(structured_path, query)]
        assert document["results"] == expected
        assert document["total"] == len(expected) > 0
        assert document["returned"] == len(expected)
        assert document["index"]["generation"] == 1

    def test_limit_truncates_but_reports_the_full_total(self, search_service, index_path):
        query = _a_matching_query(index_path)
        full = search_service.search(query)
        limited = search_service.search(query, limit=1)
        assert limited["total"] == full["total"]
        assert limited["returned"] == 1
        assert limited["results"] == full["results"][:1]

    @pytest.mark.parametrize("bad_limit", [-1, "ten", True])
    def test_invalid_limit_raises(self, search_service, bad_limit):
        with pytest.raises(QueryError, match="limit"):
            search_service.search("process:mix", limit=bad_limit)

    @pytest.mark.parametrize("bad_query", [None, "", "   ", 7])
    def test_missing_query_raises(self, search_service, bad_query):
        with pytest.raises(QueryError, match="query"):
            search_service.search(bad_query)

    def test_requires_a_registered_index(self):
        with pytest.raises(ConfigurationError, match="no model named"):
            SearchService(index_registry())

    def test_stats_carry_provenance_and_index_shape(self, search_service):
        stats = search_service.stats()
        assert stats["generation"] == 1
        assert stats["sha256"]
        assert stats["index"]["documents"] > 0
        assert set(stats["index"]["terms"]) == {"ingredient", "process", "utensil", "title"}

    def test_reload_hot_swaps_a_changed_artifact(self, structured_path, tmp_path):
        artifact = tmp_path / "index.json"
        builder = IndexBuilder()
        from repro.corpus.sink import iter_structured_jsonl

        recipes = list(iter_structured_jsonl(structured_path))
        builder.add_all(recipes[:3])
        builder.build(source="small").save(artifact)
        service = SearchService.from_artifact(artifact)
        assert service.record().bundle.doc_count == 3

        assert service.reload().generation == 1  # unchanged file: no swap

        IndexBuilder.build_from_jsonl(structured_path).save(artifact)
        record = service.reload()
        assert record.generation == 2
        assert record.bundle.doc_count == len(recipes)

    def test_registry_rejects_a_bundle_artifact_as_an_index(self, bundle_path):
        from repro.errors import PersistenceError

        with pytest.raises(PersistenceError, match="format marker"):
            index_registry().load(bundle_path)


class TestShardedSearchService:
    @pytest.fixture()
    def manifest_path(self, structured_path, tmp_path):
        from repro.index import build_sharded_index

        path = tmp_path / "manifest.json"
        build_sharded_index(structured_path, path, num_shards=3)
        return path

    def test_manifest_results_equal_the_monolithic_service(
        self, manifest_path, index_path
    ):
        query = _a_matching_query(index_path)
        sharded = SearchService.from_artifact(manifest_path).search(query)
        monolithic = SearchService.from_artifact(index_path).search(query)
        assert sharded["results"] == monolithic["results"]
        assert sharded["total"] == monolithic["total"]

    def test_stats_report_shard_shape_and_manifest_generation(self, manifest_path):
        stats = SearchService.from_artifact(manifest_path).stats()
        assert stats["index"]["shards"] == 3
        assert stats["index"]["generation"] == 1
        assert stats["index"]["documents"] > 0

    def test_reload_swaps_a_new_manifest_generation(
        self, manifest_path, structured_path, tmp_path
    ):
        from repro.corpus.sink import iter_structured_jsonl
        from repro.index import add_jsonl
        from repro.corpus.sink import write_structured_jsonl

        service = SearchService.from_artifact(manifest_path)
        before = service.record().bundle.doc_count
        delta = tmp_path / "delta.jsonl"
        write_structured_jsonl(delta, list(iter_structured_jsonl(structured_path))[:2])
        add_jsonl(manifest_path, delta)
        record = service.reload()
        assert record.generation == 2
        assert record.bundle.generation == 2
        assert record.bundle.doc_count == before + 2


class TestSearchEndpoint:
    def test_search_equals_a_brute_force_scan(
        self, search_server, index_path, structured_path
    ):
        query = _a_matching_query(index_path)
        status, document = _request(search_server, "/v1/search", body={"query": query})
        assert status == 200
        expected = [m.to_dict() for m in scan_structured_jsonl(structured_path, query)]
        assert document["results"] == expected
        assert document["total"] == len(expected)

    def test_search_respects_the_limit(self, search_server, index_path):
        query = _a_matching_query(index_path)
        status, document = _request(
            search_server, "/v1/search", body={"query": query, "limit": 1}
        )
        assert status == 200
        assert document["returned"] == 1

    def test_search_without_an_index_is_503(self, server):
        status, document = _request(server, "/v1/search", body={"query": "process:mix"})
        assert status == 503
        assert "no recipe index" in document["error"]

    @pytest.mark.parametrize(
        "body", [{}, {"query": ""}, {"query": "not a term"}, {"query": "cuisine:thai"}]
    )
    def test_bad_search_requests_are_400(self, search_server, body):
        status, document = _request(search_server, "/v1/search", body=body)
        assert status == 400
        assert "error" in document

    def test_stats_and_healthz_include_the_index(self, search_server):
        status, document = _request(search_server, "/stats")
        assert status == 200
        assert document["index"]["index"]["documents"] > 0
        status, document = _request(search_server, "/healthz")
        assert status == 200
        assert document["index"]["generation"] == 1
        # A monolithic artifact serves as one shard (and has no manifest
        # generation to report).
        assert document["index"]["shards"] == 1
        assert "index_generation" not in document["index"]

    def test_reload_reports_both_artifacts(self, search_server):
        status, document = _request(search_server, "/v1/reload", body={})
        assert status == 200
        assert document["swapped"] is False
        assert document["index_swapped"] is False
        assert document["index"]["generation"] == 1

    def test_forced_reload_swaps_the_index_too(self, search_server):
        status, document = _request(
            search_server, "/v1/reload", body={"force": True}
        )
        assert status == 200
        assert document["index_swapped"] is True
        assert document["index"]["generation"] == 2


class TestRankedSearchAndFacets:
    def test_ranked_results_match_the_engine(self, search_service, index_path):
        query = _a_matching_query(index_path)
        document = search_service.search(query, rank=True)
        assert document["ranked"] is True
        engine = QueryEngine(RecipeIndex.load(index_path))
        total, matches = engine.search(query, limit=100, rank=True)
        assert document["total"] == total
        assert document["results"] == [m.to_dict() for m in matches]
        scores = [row["score"] for row in document["results"]]
        assert scores == sorted(scores, reverse=True)

    def test_unranked_responses_carry_no_ranked_key(self, search_service, index_path):
        document = search_service.search(_a_matching_query(index_path))
        assert "ranked" not in document
        assert "facets" not in document
        assert all("score" not in row for row in document["results"])

    def test_facets_aggregate_over_all_matches(self, search_service, index_path):
        query = _a_matching_query(index_path)
        document = search_service.search(query, limit=1, facets=["ingredient"])
        engine = QueryEngine(RecipeIndex.load(index_path))
        expected = engine.facets(query, ["ingredient"])
        assert document["facets"] == {
            "ingredient": [
                {"term": term, "count": count}
                for term, count in expected["ingredient"]
            ]
        }
        # The aggregation covers every match even though only one returned.
        assert document["returned"] == 1

    @pytest.mark.parametrize("bad_rank", ["yes", 1, None])
    def test_invalid_rank_raises(self, search_service, bad_rank):
        with pytest.raises(QueryError, match="'rank' must be a boolean"):
            search_service.search("process:mix", rank=bad_rank)

    @pytest.mark.parametrize("bad_facets", ["ingredient", [7], ["ingredient", None]])
    def test_invalid_facets_raise(self, search_service, bad_facets):
        with pytest.raises(QueryError, match="'facets' must be a list"):
            search_service.search("process:mix", facets=bad_facets)

    def test_unknown_facet_field_raises(self, search_service):
        with pytest.raises(QueryError, match="unknown facet field"):
            search_service.search("process:mix", facets=["cuisine"])

    def test_endpoint_serves_rank_and_facets(self, search_server, index_path):
        query = _a_matching_query(index_path)
        status, document = _request(
            search_server,
            "/v1/search",
            body={"query": query, "rank": True, "facets": ["process"]},
        )
        assert status == 200
        assert document["ranked"] is True
        assert document["facets"]["process"]
        assert all("score" in row for row in document["results"])

    @pytest.mark.parametrize(
        "body",
        [
            {"query": "process:mix", "rank": "yes"},
            {"query": "process:mix", "facets": "ingredient"},
            {"query": "process:mix", "facets": ["cuisine"]},
        ],
    )
    def test_bad_rank_or_facet_requests_are_400(self, search_server, body):
        status, document = _request(search_server, "/v1/search", body=body)
        assert status == 400
        assert "error" in document


class TestLazyCountersOverServe:
    """Satellite: per-shard v2 lazy-decode LRU counters surface on /stats."""

    @pytest.fixture()
    def v2_manifest_path(self, structured_path, tmp_path):
        from repro.index import build_sharded_index

        path = tmp_path / "manifest.json"
        build_sharded_index(structured_path, path, num_shards=3, format="v2")
        return path

    def test_service_stats_expose_per_shard_lazy_counters(self, v2_manifest_path):
        service = SearchService.from_artifact(v2_manifest_path)
        before = service.stats()["index"]["lazy"]
        assert before["decoded_terms"] == 0
        assert set(before["shards"]) == {"0", "1", "2"}

        service.search("ingredient:sugar OR process:mix")
        after = service.stats()["index"]["lazy"]
        assert after["misses"] > 0
        assert after["decoded_terms"] > 0
        assert after["misses"] == sum(
            shard["misses"] for shard in after["shards"].values()
        )

        service.search("ingredient:sugar OR process:mix")
        assert service.stats()["index"]["lazy"]["hits"] > after["hits"]

    def test_stats_endpoint_carries_the_counters(self, service, v2_manifest_path):
        from repro.serve import start_in_thread

        search = SearchService.from_artifact(v2_manifest_path)
        with start_in_thread(service, search=search) as server:
            _request(server, "/v1/search", body={"query": "process:mix"})
            status, document = _request(server, "/stats")
        assert status == 200
        lazy = document["index"]["index"]["lazy"]
        assert lazy["decoded_terms"] > 0
        assert set(lazy["shards"]) == {"0", "1", "2"}


class TestFacetedSearchEvaluatesOnce:
    """A faceted ``/v1/search`` evaluates its query once per shard."""

    FIELDS = ["ingredient", "process"]

    @pytest.fixture()
    def tombstoned(self, structured_path, tmp_path):
        """A 3-shard v2 manifest with three recipes tombstoned; returns
        ``(manifest path, surviving recipes)``."""
        from repro.corpus.sink import iter_structured_jsonl
        from repro.index import build_sharded_index, delete_docs

        path = tmp_path / "manifest.json"
        build_sharded_index(structured_path, path, num_shards=3, format="v2")
        recipes = list(iter_structured_jsonl(structured_path))
        dead = {recipe.recipe_id for recipe in recipes[1:8:3]}
        delete_docs(path, recipe_ids=sorted(dead))
        return path, [recipe for recipe in recipes if recipe.recipe_id not in dead]

    def _oracle(self, recipes, query):
        """Brute-force facet counts over the surviving recipes."""
        from repro.index import extract_entities, matches_recipe

        counters = {field: {} for field in self.FIELDS}
        matched = [recipe for recipe in recipes if matches_recipe(query, recipe)]
        for recipe in matched:
            entities = extract_entities(recipe)
            for field in self.FIELDS:
                for term in entities[field]:
                    counters[field][term] = counters[field].get(term, 0) + 1
        return len(matched), {
            field: [
                {"term": term, "count": count}
                for term, count in sorted(counter.items(), key=lambda row: (-row[1], row[0]))[:10]
            ]
            for field, counter in counters.items()
        }

    def test_one_live_evaluation_per_shard(self, service, tombstoned, monkeypatch):
        from collections import Counter

        from repro.serve import start_in_thread

        path, survivors = tombstoned
        evaluations = Counter()
        original = QueryEngine._live_eval

        def counting(engine, shard_index, node):
            evaluations[shard_index] += 1
            return original(engine, shard_index, node)

        monkeypatch.setattr(QueryEngine, "_live_eval", counting)
        search = SearchService.from_artifact(path)
        index = search.record().bundle
        assert index.tombstone_count == 3
        query = "ingredient:sugar OR process:mix"
        total, facets = self._oracle(survivors, query)
        assert total > 0
        with start_in_thread(service, search=search) as server:
            for extra in ({}, {"rank": True}, {"limit": 0}):
                evaluations.clear()
                status, document = _request(
                    server,
                    "/v1/search",
                    body={"query": query, "facets": self.FIELDS, **extra},
                )
                assert status == 200
                assert evaluations == {shard: 1 for shard in range(index.shard_count)}
                assert document["total"] == total
                assert document["facets"] == facets
