"""Live-ingestion stress: reads stay consistent while the index grows.

Reader threads hammer ``POST /v1/search`` (boolean, ranked and faceted)
while an :class:`IngestDaemon` runs for real in the background —
appending delta generations, tombstoning documents and compacting through
the tiered policy, easily clearing ten manifest generations.  The serving
side follows along via the search service's auto-reload (checking the
manifest file on every search).

Validation is post-hoc and exact.  Shard files are immutable and the
manifest is the only commit point, so every generation the daemon
published (captured via ``on_publish``) can be **replayed**: its manifest
is re-saved under a scratch name, loaded, and queried.  Then for every
response the storm recorded:

* the ``index.sha256`` it reports must identify exactly one published
  generation (the manifest file bytes are deterministic, so each
  generation's file hash is reconstructable from the captured manifest);
* its results must equal that generation's engine answer element-wise —
  and that answer in turn must equal a brute-force scan / BM25 oracle
  over the generation's **surviving** documents, so a tombstoned doc can
  never appear and doc statistics provably exclude the deleted.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import urllib.error
import urllib.request

import pytest

from repro.corpus.sink import write_structured_jsonl
from repro.index import (
    MANIFEST_ARTIFACT_FORMAT,
    QueryEngine,
    ShardedRecipeIndex,
    build_sharded_index,
    rank_recipes,
    scan_recipes,
)
from repro.ingest import IngestDaemon, TieredCompactionPolicy
from repro.persistence import FORMAT_VERSION, file_sha256, payload_checksum
from repro.serve import SearchService, start_in_thread

from tests.property.test_index_properties import _random_recipe

QUERIES = (
    "ingredient:tomato",
    "NOT ingredient:unseen",
    "(ingredient:garlic OR process:mix) AND NOT utensil:pan",
)
READER_THREADS = 4
TARGET_GENERATIONS = 12
RANKED_LIMIT = 5


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


def _manifest_file_sha(manifest):
    """The file SHA-256 ``ShardManifest.save`` would produce for ``manifest``.

    ``write_artifact`` serialises the envelope with ``json.dumps`` defaults
    and a fixed key order, so the bytes — and therefore the hash the serving
    registry reports as ``index.sha256`` — are a pure function of the
    manifest.
    """
    payload = manifest.to_payload()
    envelope = {
        "format": MANIFEST_ARTIFACT_FORMAT,
        "version": FORMAT_VERSION,
        "sha256": payload_checksum(payload),
        "payload": payload,
    }
    return hashlib.sha256(json.dumps(envelope).encode("utf-8")).hexdigest()


class _Replayer:
    """Re-answers queries against any captured generation, with oracles."""

    def __init__(self, recipe_by_id):
        self._recipe_by_id = recipe_by_id
        self._cache = {}

    def expected(self, manifest, kind, query, shards_dir):
        key = (manifest.generation, kind, query)
        if key not in self._cache:
            self._cache[key] = self._compute(manifest, kind, query, shards_dir)
        return self._cache[key]

    def _index_for(self, manifest, shards_dir):
        path = shards_dir / f"replay.g{manifest.generation}.json"
        if not path.exists():
            manifest.save(path)
            assert file_sha256(path) == _manifest_file_sha(manifest)
        return ShardedRecipeIndex.load(path)

    def _survivors(self, index):
        by_global = {}
        for shard_index, shard in enumerate(index.shards):
            gids = index.global_ids(shard_index)
            for local, doc in enumerate(shard.docs):
                if not index.is_tombstoned(gids[local]):
                    by_global[gids[local]] = doc["recipe_id"]
        return [self._recipe_by_id[by_global[gid]] for gid in sorted(by_global)]

    def _compute(self, manifest, kind, query, shards_dir):
        index = self._index_for(manifest, shards_dir)
        engine = QueryEngine(index)
        survivors = self._survivors(index)
        if kind == "boolean":
            matches = engine.execute(query)
            # Oracle: a brute scan over only the surviving documents must
            # agree recipe-by-recipe (ids differ only by renumbering).
            scanned = scan_recipes(survivors, query)
            assert [(m.recipe_id, m.spans) for m in matches] == [
                (m.recipe_id, m.spans) for m in scanned
            ], (manifest.generation, query)
            return {
                "total": len(matches),
                "results": [match.to_dict() for match in matches],
            }
        if kind == "ranked":
            total, matches = engine.search(query, limit=RANKED_LIMIT, rank=True)
            oracle_total, oracle = rank_recipes(
                survivors, query, limit=RANKED_LIMIT
            )
            assert total == oracle_total, (manifest.generation, query)
            # BM25 stats (N, avgdl, df) must exclude tombstoned docs:
            # scores against the masked index are bitwise-equal to scoring
            # just the survivors.
            assert [(m.recipe_id, m.score) for m in matches] == [
                (m.recipe_id, m.score) for m in oracle
            ], (manifest.generation, query)
            return {
                "total": total,
                "results": [match.to_dict() for match in matches],
            }
        facets = engine.facets(query, ["ingredient", "process"])
        return {
            "facets": {
                field: [{"term": term, "count": count} for term, count in rows]
                for field, rows in facets.items()
            }
        }


def test_reads_stay_consistent_under_live_ingest_and_compaction(service, tmp_path):
    rng = random.Random("async")
    recipe_by_id = {f"r{i:03d}": _random_recipe(rng, f"r{i:03d}") for i in range(15)}
    base = tmp_path / "base.jsonl"
    write_structured_jsonl(base, list(recipe_by_id.values()))
    live = tmp_path / "live.manifest.json"
    first = build_sharded_index(base, live, num_shards=2)

    published = [first]
    publish_lock = threading.Lock()
    daemon = IngestDaemon(
        live,
        tmp_path / "feed.jsonl",
        policy=TieredCompactionPolicy(max_deltas=3, max_tombstone_fraction=0.4),
        poll_interval_s=0.005,
        compact_interval_s=0.01,
        on_publish=lambda manifest: _record(publish_lock, published, manifest),
    )

    search = SearchService.from_artifact(
        live, default_limit=None, auto_reload_interval_s=0.0
    )
    feed = tmp_path / "feed.jsonl"
    feed.write_text("")

    responses = []
    response_lock = threading.Lock()
    stop = threading.Event()
    http_errors = []

    def reader(worker):
        reader_rng = random.Random(worker)
        while not stop.is_set():
            query = reader_rng.choice(QUERIES)
            kind = reader_rng.choice(("boolean", "ranked", "facets"))
            body = {"query": query}
            if kind == "ranked":
                body.update(rank=True, limit=RANKED_LIMIT)
            elif kind == "facets":
                body.update(facets=["ingredient", "process"], limit=0)
            try:
                status, document = _post(server.port, "/v1/search", body)
            except urllib.error.HTTPError as error:
                http_errors.append(f"{error.code}: {error.read()!r}")
                continue
            with response_lock:
                responses.append((kind, query, document))

    with start_in_thread(service, search=search, ingest=daemon) as server, daemon:
        readers = [
            threading.Thread(target=reader, args=(worker,), daemon=True)
            for worker in range(READER_THREADS)
        ]
        for thread in readers:
            thread.start()
        try:
            next_id = len(recipe_by_id)
            deletable = sorted(recipe_by_id)
            for round_ in range(400):
                with publish_lock:
                    generations = {m.generation for m in published}
                stats = daemon.stats()
                if (
                    len(generations) >= TARGET_GENERATIONS
                    and stats["compactions"] >= 1
                    and stats["docs_deleted"] >= 3
                ):
                    break
                with feed.open("a") as handle:
                    recipe_id = f"r{next_id:03d}"
                    recipe = _random_recipe(rng, recipe_id)
                    recipe_by_id[recipe_id] = recipe
                    handle.write(recipe.to_json() + "\n")
                    deletable.append(recipe_id)
                    next_id += 1
                    if round_ % 3 == 2:
                        doomed = deletable.pop(rng.randrange(len(deletable)))
                        handle.write(json.dumps({"_delete": doomed}) + "\n")
                stop.wait(0.02)
            else:
                pytest.fail(f"storm never reached its targets: {daemon.stats()}")
            # Let the readers observe the final generation too.
            stop.wait(0.1)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)

        status, stats_doc = _get(server.port, "/stats")
        assert status == 200
        assert stats_doc["ingest"]["generations_published"] >= 1
        assert stats_doc["ingest"]["compactions"] >= 1
        assert stats_doc["index"]["auto_reload"]["swaps"] >= 1

    assert not http_errors, http_errors[:5]
    assert daemon.stats()["feed_errors"] == 0, daemon.stats()

    with publish_lock:
        manifests = list(published)
    by_sha = {_manifest_file_sha(manifest): manifest for manifest in manifests}
    generations = {manifest.generation for manifest in manifests}
    assert len(generations) >= TARGET_GENERATIONS  # the storm was real

    replayer = _Replayer(recipe_by_id)
    seen_shas = set()
    checked = 0
    for kind, query, document in responses:
        observed = document["index"]["sha256"]
        # Every response is consistent with exactly ONE published
        # generation: an unknown hash would mean a torn or unpublished view.
        assert observed in by_sha, f"response reports unknown manifest {observed!r}"
        seen_shas.add(observed)
        expected = replayer.expected(by_sha[observed], kind, query, tmp_path)
        if kind == "facets":
            assert document["facets"] == expected["facets"], (kind, query)
        else:
            assert document["total"] == expected["total"], (kind, query)
            assert document["results"] == expected["results"], (kind, query)
        checked += 1

    assert checked > 0
    # The readers really crossed generations mid-storm.
    assert len(seen_shas) >= 3, f"readers only saw {len(seen_shas)} generations"


def _record(lock, published, manifest):
    with lock:
        published.append(manifest)
