"""Concurrency stress: searches must never observe a torn index mid-swap.

N threads hammer ``POST /v1/search`` while the main thread keeps publishing
new manifest generations — cycling through three pre-built variants that
model a rolling v1 -> v2 migration: an all-v1 manifest, a mixed-format one
(``migrate_manifest`` rewrote a subset of its shards to the v2 compact
binary format), and an all-v2 manifest over a larger corpus with a
different shard layout — and hot-swapping them through ``POST /v1/reload``.
The invariants:

* **no torn index** — every response must be fully consistent with exactly
  one published generation: the ``index.sha256`` it reports identifies the
  manifest that answered, and the results must be byte-identical to that
  variant's precomputed answer for the query (a response pairing one
  generation's provenance with another's results would prove a torn read);
* **the registry never drops the live model** — every request during the
  storm returns 200 (a failed or in-flight swap must keep the previous
  record serving), and the server stays healthy afterwards.

Shard files are immutable once written (new generations get new names) and
the manifest rewrite is atomic, so the only commit point a reader can
observe is the registry's record swap — which happens after the replacement
manifest and every shard it lists were fully loaded and checksum-verified.
"""

from __future__ import annotations

import json
import random
import threading
import urllib.error
import urllib.request

import pytest

from repro.corpus.sink import write_structured_jsonl
from repro.index import (
    QueryEngine,
    ShardManifest,
    ShardedRecipeIndex,
    build_sharded_index,
    migrate_manifest,
)
from repro.persistence import file_sha256
from repro.serve import SearchService, start_in_thread

from tests.property.test_index_properties import _random_recipe

QUERIES = (
    "NOT ingredient:unseen",
    "ingredient:tomato",
    "(ingredient:garlic OR process:mix) AND NOT utensil:pan",
)
SEARCH_THREADS = 6
SWAPS = 14


def _post(port, path, body, timeout=30):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _get(port, path, timeout=30):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        return response.status, json.loads(response.read())


@pytest.fixture()
def variants(tmp_path):
    """Three shard sets modelling a rolling v1 -> v2 migration, plus answers.

    ``a`` is all-v1 over the base corpus, ``m`` is the same corpus with a
    subset of its shards rewritten to v2 (a migration caught mid-way), and
    ``b`` is all-v2 over an extended corpus with a different shard layout.
    """
    rng = random.Random(5)
    base = [_random_recipe(rng, f"r{i}") for i in range(18)]
    extended = base + [_random_recipe(rng, f"x{i}") for i in range(9)]
    built = {}
    for name, recipes, shards, format in (
        ("a", base, 2, "v1"),
        ("m", base, 2, "v1"),
        ("b", extended, 3, "v2"),
    ):
        jsonl = tmp_path / f"{name}.jsonl"
        write_structured_jsonl(jsonl, recipes)
        manifest = build_sharded_index(
            jsonl, tmp_path / f"{name}.json", num_shards=shards, format=format
        )
        if name == "m":
            # Rewrite every other shard to v2: a deliberately mixed manifest.
            targets = iter(("v2", None))
            manifest = migrate_manifest(
                tmp_path / "m.json", select=lambda entry: next(targets)
            )
        engine = QueryEngine(ShardedRecipeIndex.load(tmp_path / f"{name}.json"))
        built[name] = {
            "manifest": manifest,
            "expected": {
                query: [match.to_dict() for match in engine.execute(query)]
                for query in QUERIES
            },
        }
    mixed = set(built["m"]["manifest"].entries[index].format for index in range(2))
    assert mixed == {"v1", "v2"}
    assert built["a"]["expected"] == built["m"]["expected"]  # same corpus
    assert built["a"]["expected"][QUERIES[0]] != built["b"]["expected"][QUERIES[0]]
    return built


def _publish(live_path, variant, generation):
    """Atomically publish ``variant``'s shards under a new generation."""
    manifest = variant["manifest"]
    ShardManifest(
        num_shards=manifest.num_shards,
        generation=generation,
        doc_count=manifest.doc_count,
        source=manifest.source,
        entries=manifest.entries,
    ).save(live_path)
    return file_sha256(live_path)


def test_stress_search_never_sees_a_torn_index_during_hot_swaps(
    service, variants, tmp_path
):
    live_path = tmp_path / "live.json"
    expected_by_sha = {}
    sha = _publish(live_path, variants["a"], generation=1)
    expected_by_sha[sha] = variants["a"]["expected"]

    search = SearchService.from_artifact(live_path, default_limit=None)

    stop = threading.Event()
    errors: list[str] = []
    seen_shas: set[str] = set()
    responses = [0]
    lock = threading.Lock()

    with start_in_thread(service, search=search) as server:
        port = server.port

        def hammer(worker):
            rng = random.Random(worker)
            while not stop.is_set():
                query = rng.choice(QUERIES)
                try:
                    status, document = _post(port, "/v1/search", {"query": query})
                except urllib.error.HTTPError as error:
                    with lock:
                        errors.append(
                            f"search returned {error.code}: {error.read()!r}"
                        )
                    continue
                with lock:
                    responses[0] += 1
                    observed = document["index"]["sha256"]
                    seen_shas.add(observed)
                    expected = expected_by_sha.get(observed)
                    if expected is None:
                        errors.append(
                            f"response reports unknown index sha {observed!r}"
                        )
                    elif document["results"] != expected[query] or document[
                        "total"
                    ] != len(expected[query]):
                        # Provenance from one generation, results from another:
                        # exactly what a torn index would look like.
                        errors.append(
                            f"torn read: sha {observed[:12]} but results do not "
                            f"match that generation for {query!r}"
                        )

        workers = [
            threading.Thread(target=hammer, args=(worker,), daemon=True)
            for worker in range(SEARCH_THREADS)
        ]
        try:
            for worker in workers:
                worker.start()
            for generation in range(2, SWAPS + 2):
                # v1 -> mixed -> v2 and around again: the full migration
                # sequence keeps getting hot-swapped under the storm.
                variant = variants[("a", "m", "b")[generation % 3]]
                sha = _publish(live_path, variant, generation)
                with lock:
                    expected_by_sha[sha] = variant["expected"]
                status, document = _post(port, "/v1/reload", {})
                assert status == 200
                assert document["index_swapped"] is True
            stop.set()
            for worker in workers:
                worker.join(timeout=30)

            assert not errors, errors[:10]
            assert responses[0] > 0
            # The storm really did cross generations mid-flight.
            assert len(seen_shas) >= 2

            # The registry never dropped the live model: the server is still
            # healthy and serving the last published generation.
            status, health = _get(port, "/healthz")
            assert status == 200
            final = search.record()
            assert final.generation == SWAPS + 1
            assert final.bundle.generation == SWAPS + 1
            assert health["index"]["shards"] == final.bundle.shard_count
            assert health["index"]["index_generation"] == SWAPS + 1
            assert health["index"]["shard_formats"] == final.bundle.shard_formats
        finally:
            stop.set()
