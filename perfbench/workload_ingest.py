"""``ingest_live``: the write path under reads.

Set-up builds a seeded synth base index (v2, 4 shards) and opens an
``IngestDaemon`` on it plus a ``SearchService`` over the same manifest.
Each wave appends adds, upserts and ``_delete`` lines to the feed file and
drains them with ``IngestDaemon.run_once()``, so compaction happens exactly
when ``TieredCompactionPolicy`` says (every :data:`MAX_DELTAS`-th wave on
this feed: one round).  After each commit the service reloads and the wave
is checked visible against the benchmark's own replay of its feed.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from collections import Counter

from harness import (
    Config,
    Deadline,
    Outcome,
    SetupClock,
    WorkDir,
    Zipf,
    dir_bytes,
    median,
    probe,
    scale,
)
import oracle
from tracing import diff

#: No source gives a feed mix, so the wave is a choice: 50 lines, 80% new
#: recipes, 10% upserts of live ones and 10% deletes, so that every wave
#: carries each kind of line the ingest path handles (ROADMAP item 7's run
#: fed waves of 80 adds only).  A wave is one ``run_once``; the kinds are
#: not timed apart.
SIZES = {
    # scale: (base docs, adds, upserts, deletes per wave, min rounds)
    "full": (5000, 40, 5, 5, 2),
    "tiny": (200, 6, 2, 2, 2),
}
NUM_SHARDS = 4
MAX_DELTAS = 4
#: Disk use is read after this many rounds, so it does not depend on how
#: many rounds a run fits in.
DISK_ROUNDS = 2
FINAL_QUERY_CHECKS = 5
ZIPF_S = 1.1


class Replay:
    """The benchmark's own model of the live corpus: what the feed says."""

    def __init__(self) -> None:
        self.live: dict[str, frozenset] = {}
        self.df: Counter = Counter()

    def put(self, recipe) -> None:
        self.remove(recipe.recipe_id)
        terms = frozenset(oracle.doc_terms(0, recipe).tf)
        self.live[recipe.recipe_id] = terms
        self.df.update(terms)

    def remove(self, recipe_id: str) -> None:
        terms = self.live.pop(recipe_id, None)
        if terms is not None:
            self.df.subtract(terms)

    def count(self, field: str, term: str) -> int:
        return self.df[(field, oracle.norm(term))]


def _install_tracing(tracer) -> None:
    from repro.index import sharding
    from repro.index.sharding import ShardedRecipeIndex
    from repro.ingest.daemon import IngestDaemon
    from repro.serve.search import SearchService

    tracer.wrap_method(IngestDaemon, "poll_once", "ingest.poll")
    tracer.wrap_method(ShardedRecipeIndex, "loads", "index.sharding.load")
    tracer.wrap_method(SearchService, "reload", "serve.search_reload")
    tracer.wrap_function(sharding, "merge_shards", "index.sharding.merge")
    tracer.wrap_function(sharding, "commit_update", "index.sharding.commit_update")
    tracer.count_hashing("persistence.bytes_hashed")


def _live_recipe_ids(index) -> set[str]:
    live = set()
    for shard_index, shard in enumerate(index.shards):
        for global_id, document in zip(index.global_ids(shard_index), shard.docs):
            if not index.is_tombstoned(global_id):
                live.add(document["recipe_id"])
    return live


def next_wave(params, replay, rng, first_doc, adds, upserts, deletes) -> list[str]:
    """Feed lines of one wave (adds, upserts, deletes); applies them to ``replay``."""
    from repro.corpus.synth import document_at

    targets = rng.sample(sorted(replay.live), upserts + deletes)
    lines = []
    for offset in range(adds + upserts):
        recipe = document_at(params, first_doc + offset).recipe
        if offset >= adds:  # an upsert: new content under a live recipe id
            recipe = dataclasses.replace(recipe, recipe_id=targets[offset - adds])
        lines.append(recipe.to_json())
        replay.put(recipe)
    for target in targets[upserts:]:
        lines.append(json.dumps({"_delete": target}))
        replay.remove(target)
    return lines


def check_wave(index, committed_generation, replay, totals, *, compacted, compaction_due):
    """What the serving index gets wrong about the feed so far (empty if nothing)."""
    problems = []
    if index.generation != committed_generation:
        problems.append(f"serving generation {index.generation} != committed {committed_generation}")
    if index.live_doc_count != len(replay.live):
        problems.append(f"{index.live_doc_count} live docs != {len(replay.live)} replayed")
    for term, total in totals.items():
        if total != replay.count("ingredient", term):
            problems.append(f"ingredient:{term} total {total} != "
                            f"{replay.count('ingredient', term)} replayed")
    # Base shards plus at most MAX_DELTAS delta shards and as many tombstone
    # shards (each commit with deletes writes one).
    if len(index.manifest.entries) > NUM_SHARDS + 2 * MAX_DELTAS:
        problems.append(f"{len(index.manifest.entries)} manifest entries")
    if compacted != compaction_due:
        problems.append(f"compaction {'ran' if compacted else 'missing'} off the policy's schedule")
    return problems


def run(config: Config, clock: SetupClock, tracer=None) -> Outcome:
    from repro.corpus.synth import SynthParams, iter_documents, write_synth_corpus
    from repro.data.lexicons import INGREDIENTS
    from repro.index import build_sharded_index
    from repro.ingest import IngestDaemon, TieredCompactionPolicy
    from repro.serve.search import SearchService

    base_docs, adds, upserts, deletes, min_rounds = SIZES[config.scale]
    outcome = Outcome()
    params = SynthParams(seed=5_000_003 + config.seed, docs=base_docs)
    names = [entry.name for entry in INGREDIENTS]
    zipf = Zipf(names, ZIPF_S)
    replay = Replay()
    waves: list[dict] = []  # one row per wave, in order
    probes: list[float] = []  # host-speed probe before each wave, one after the last
    with WorkDir("ingest") as directory:
        corpus = directory / "base.jsonl"
        write_synth_corpus(params, corpus)
        for document in iter_documents(params):
            replay.put(document.recipe)
        clock.lap()
        index_dir = directory / "index"
        manifest = index_dir / "index.manifest.json"
        build_sharded_index(corpus, manifest, num_shards=NUM_SHARDS, format="v2")
        clock.lap()
        feed = directory / "feed.jsonl"
        feed.touch()
        daemon = IngestDaemon(
            manifest,
            feed,
            policy=TieredCompactionPolicy(max_deltas=MAX_DELTAS),
            format="v2",
            batch_limit=4 * (adds + upserts + deletes),
        )
        search = SearchService.from_artifact(manifest)
        if tracer is not None:
            _install_tracing(tracer)
            before = tracer.snapshot()
        clock.lap()  # set-up ends
        next_doc = base_docs
        deadline = Deadline(config.seconds, min_rounds=min_rounds)
        disk = None
        while deadline.another_round():
            deadline.rounds += 1
            # The round's visibility-query terms, one per Zipf slice; every
            # wave queries all of them, so each wave does the same mix.
            terms = zipf.draw(random.Random(f"perfbench.ingest:{config.seed}:{deadline.rounds}"),
                              MAX_DELTAS)
            for wave in range(MAX_DELTAS):
                rng = random.Random(f"perfbench.ingest:{config.seed}:{deadline.rounds}:{wave}")
                lines = next_wave(params, replay, rng, next_doc, adds, upserts, deletes)
                next_doc += adds + upserts
                with feed.open("a", encoding="utf-8") as handle:
                    handle.write("\n".join(lines) + "\n")

                compactions = daemon.stats()["compactions"]
                probes.append(probe())
                started = time.perf_counter()
                daemon.run_once()
                commit_s = time.perf_counter() - started
                compacted = daemon.stats()["compactions"] > compactions
                started = time.perf_counter()
                record = search.reload()
                reload_s = time.perf_counter() - started
                started = time.perf_counter()
                totals = {term: search.search(oracle.render(("term", "ingredient", term)),
                                              limit=0)["total"]
                          for term in terms}
                query_s = (time.perf_counter() - started) / len(terms)

                outcome.attempted += len(lines)
                waves.append({"round": deadline.rounds, "lines": len(lines), "commit": commit_s,
                              "compacted": compacted, "reload": reload_s, "query": query_s})
                outcome.problems.extend(
                    f"wave {len(waves)}: {problem}"
                    for problem in check_wave(
                        record.bundle,
                        daemon.stats()["generation"],
                        replay,
                        totals,
                        compacted=compacted,
                        compaction_due=wave == MAX_DELTAS - 1,
                    )
                )
            if deadline.rounds == DISK_ROUNDS:
                disk = dir_bytes(index_dir)

        probes.append(probe())
        final = search.record().bundle
        if _live_recipe_ids(final) != set(replay.live):
            outcome.problems.append("final live recipe ids differ from the replayed feed")
        rng = random.Random(f"perfbench.ingest:{config.seed}:final")
        for term in rng.sample(names, FINAL_QUERY_CHECKS):
            total = search.search(oracle.render(("term", "ingredient", term)), limit=0)["total"]
            if total != replay.count("ingredient", term):
                outcome.problems.append(f"final ingredient:{term} total {total} != "
                                        f"{replay.count('ingredient', term)} replayed")
        stats = daemon.stats()
        for counter in ("poison_lines", "feed_errors", "commit_conflicts"):
            if stats[counter]:
                outcome.problems.append(f"daemon {counter} = {stats[counter]}: {stats['last_error']}")
        if tracer is not None:
            delta = diff(tracer.snapshot(), before)

    # Each wave's times are scaled to reference host speed by the probes
    # taken on either side of it, while the program was idle.
    for row, before, after in zip(waves, probes, probes[1:]):
        factor = scale(before, after)
        for key in ("commit", "reload", "query"):
            row[key] *= factor
    # The waves of a round differ by design (the first rebuilds the daemon's
    # live map, deltas pile up, the last compacts) and every round repeats
    # them, so a per-wave median would sit on the edge between wave kinds;
    # each figure is the median over rounds of the round's mean instead.
    # Visibility queries are alike in every wave: their median is per wave.
    def per_round(key: str, compacting: bool | None = None) -> float:
        means = []
        for number in sorted({row["round"] for row in waves}):
            values = [row[key] for row in waves if row["round"] == number
                      and compacting in (None, row["compacted"])]
            means.append(sum(values) / len(values))
        return 1000.0 * median(means)

    outcome.metrics.update(
        throughput_per_s=(sum(row["lines"] for row in waves) / sum(row["commit"] for row in waves), "1/s"),
        op1_ms=(per_round("commit", compacting=False), "ms"),
        op2_ms=(per_round("reload"), "ms"),
        op3_ms=(per_round("commit", compacting=True), "ms"),
        op4_ms=(1000.0 * median(row["query"] for row in waves), "ms"),
        index_disk_bytes=(float(disk[0]), "bytes"),
    )
    outcome.notes.update(
        waves=len(waves),
        files_after_disk_rounds=disk[1],
        manifest_entries=len(final.manifest.entries),
        probes_ms=[round(1000 * value, 2) for value in probes],
    )
    if tracer is not None:
        busy, counts = delta["busy"], delta["counts"]
        merges = counts.get("index.sharding.merge", 0.0)
        waves = len(waves)
        outcome.notes["layers"] = {
            "ingest.poll_s": busy.get("ingest.poll", 0.0) / waves,
            "ingest.compactions": merges / waves,
            "index.sharding.merge_s": busy.get("index.sharding.merge", 0.0) / max(1, merges),
            "index.sharding.loads_per_commit": counts.get("index.sharding.load", 0.0) / waves,
            "index.sharding.load_s": busy.get("index.sharding.load", 0.0) / waves,
            "persistence.bytes_hashed_per_commit": counts.get("persistence.bytes_hashed", 0.0) / waves,
            "index.sharding.commit_update_s": busy.get("index.sharding.commit_update", 0.0) / waves,
            "serve.search_reload_s": busy.get("serve.search_reload", 0.0) / waves,
            "index.files_on_disk": disk[1],
        }
    return outcome
