"""Quick self-test of the benchmark: tiny workloads, and checks that can fail.

Usage (from the repository root): ``python3 perfbench/selftest.py``

1. Runs every workload end to end at tiny sizes, untraced and traced, and
   requires a correct result carrying every declared metric.
2. Feeds each correctness check one perturbed answer -- a dropped doc id,
   a swapped ranked pair, an off-by-one facet count, a changed tag, a
   dropped record, a missing wave -- and requires the check to reject it,
   after accepting the unperturbed answer.
3. Requires the host-speed probe to refuse to read while a thread of the
   program burns CPU.

Exits 0 when everything holds; prints what did not otherwise.  It is not
collected by pytest (no ``test_`` prefix), so it adds nothing to tier-1.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.use_source_tree()

import oracle  # noqa: E402
import run as bench  # noqa: E402
import workload_ingest  # noqa: E402
import workload_serve  # noqa: E402
import workload_structure  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def run_workloads() -> None:
    for workload in bench.WORKLOADS:
        for trace in (False, True):
            config = harness.Config(workload=workload, seed=7, seconds=0.5, trace=trace, scale="tiny")
            started = time.perf_counter()
            outcome = bench.execute(config, started)
            names = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
            label = f"{workload} (trace {int(trace)}) runs tiny in {time.perf_counter() - started:.1f}s"
            expect(not outcome.problems and outcome.attempted > 0 and outcome.failed == 0,
                   f"{label}: correct {outcome.problems[:2]}")
            expect(list(outcome.metrics) == list(names), f"{label}: reports every declared metric")
            if not trace:
                zero = [name for name, (value, _unit) in outcome.metrics.items() if not value > 0]
                expect(not zero, f"{label}: no end-to-end metric is 0 {zero}")
            json.loads(harness.result_line(outcome))


def serve_checks(directory: Path) -> None:
    from repro.corpus.synth import SynthParams, iter_documents, write_synth_corpus
    from repro.index import build_sharded_index
    from repro.serve.search import SearchService

    seed = 11
    params = SynthParams(seed=seed, docs=400)
    write_synth_corpus(params, directory / "corpus.jsonl")
    manifest = directory / "index" / "index.manifest.json"
    build_sharded_index(directory / "corpus.jsonl", manifest, num_shards=4, format="v2")
    service = SearchService.from_artifact(manifest)
    corpus = oracle.Corpus(oracle.doc_terms(d.index, d.recipe) for d in iter_documents(params))
    query = ("or", ("term", "ingredient", "salt"), ("term", "ingredient", "onion"))

    def answer(kind: str):
        body = {"query": oracle.render(query), "limit": workload_serve.LIMIT}
        options = {"rank": kind == "ranked", "facets": workload_serve.FACET_FIELDS if kind == "facet" else None}
        request = {"kind": kind, "path": "/v1/search", "body": body, "query": query}
        return request, service.search(body["query"], limit=body["limit"], **options)

    def verdict(request, document):
        return workload_serve.check(request, 200, document, {}, corpus, seed)

    for kind in ("bool", "ranked", "facet"):
        request, document = answer(kind)
        expect(verdict(request, document) is None, f"serve check accepts the program's {kind} answer")
    request, document = answer("bool")
    dropped = copy.deepcopy(document)
    del dropped["results"][3]
    expect(verdict(request, dropped) is not None, "serve check rejects a dropped doc id")
    request, document = answer("ranked")
    swapped = copy.deepcopy(document)
    swapped["results"][0], swapped["results"][1] = swapped["results"][1], swapped["results"][0]
    expect(verdict(request, swapped) is not None, "serve check rejects a swapped ranked pair")
    nudged = copy.deepcopy(document)
    nudged["results"][2]["score"] += 1e-6
    expect(verdict(request, nudged) is not None, "serve check rejects a score off by 1e-6")
    request, document = answer("facet")
    off = copy.deepcopy(document)
    off["facets"]["ingredient"][1]["count"] += 1
    expect(verdict(request, off) is not None, "serve check rejects an off-by-one facet count")
    total = copy.deepcopy(document)
    total["total"] -= 1
    expect(verdict(request, total) is not None, "serve check rejects an off-by-one total")

    line = "2 cups chopped onion"
    tag_request = {"kind": "tag", "path": "/v1/tag",
                   "body": {"section": "ingredient", "lines": [line]}}
    right = {"tokens": ["2", "cups", "chopped", "onion"], "tags": ["QUANTITY", "UNIT", "STATE", "NAME"]}
    expected = {("ingredient", line): right}
    served = {"results": [copy.deepcopy(right)]}
    expect(workload_serve.check(tag_request, 200, served, expected, corpus, seed) is None,
           "serve check accepts tags equal to tag_token_batch")
    served["results"][0]["tags"][2] = "NAME"
    expect(workload_serve.check(tag_request, 200, served, expected, corpus, seed) is not None,
           "serve check rejects one changed tag")


def structure_checks(directory: Path) -> None:
    config = harness.Config(workload="structure", seed=3, seconds=0, trace=False, scale="tiny")
    sizes = workload_structure.SIZES["tiny"]
    modeler, tagger = workload_structure._train(config, sizes, harness.SetupClock(time.perf_counter()))
    recipes, documents = workload_structure._Inputs(3, sizes).round(1)
    _, paper_out, chartag_out, manifest = workload_structure._run_round(
        modeler, tagger, recipes, documents, directory, 1
    )

    def problems(paper, chartag):
        found: list[str] = []
        quality = {"names": 0, "names_right": 0, "spans": oracle.SpanScore()}
        workload_structure.check_round(recipes, documents, paper, chartag, manifest,
                                       random.Random(0), found, quality)
        return found

    expect(not problems(paper_out, chartag_out), "structure checks accept the program's round")
    expect(bool(problems(paper_out[:-1], chartag_out)), "structure check rejects a dropped record")
    expect(bool(problems(paper_out, chartag_out[1:] + chartag_out[:1])),
           "structure check rejects records out of order")
    records = paper_out + chartag_out
    expect(not workload_structure.check_index_counts(records, manifest, random.Random(0)),
           "structure count check accepts the built index")
    expect(bool(workload_structure.check_index_counts(records + records, manifest, random.Random(0))),
           "structure count check rejects counts off the records")
    gold = oracle.gold_spans(documents[0].lines)
    score = oracle.SpanScore()
    score.add(gold, gold)
    perturbed = oracle.SpanScore()
    perturbed.add(gold - oracle.Counter([next(iter(gold))]), gold)
    expect(score.f1 == 1.0 and perturbed.f1 < 1.0, "span F1 drops when one span is missed")


def ingest_checks(directory: Path) -> None:
    from repro.corpus.synth import SynthParams, iter_documents, write_synth_corpus
    from repro.index import build_sharded_index
    from repro.ingest import IngestDaemon, TieredCompactionPolicy
    from repro.serve.search import SearchService

    params = SynthParams(seed=5, docs=120)
    write_synth_corpus(params, directory / "base.jsonl")
    replay = workload_ingest.Replay()
    for document in iter_documents(params):
        replay.put(document.recipe)
    manifest = directory / "index" / "index.manifest.json"
    build_sharded_index(directory / "base.jsonl", manifest, num_shards=4, format="v2")
    feed = directory / "feed.jsonl"
    feed.touch()
    daemon = IngestDaemon(manifest, feed, policy=TieredCompactionPolicy(max_deltas=4), format="v2")
    search = SearchService.from_artifact(manifest)
    rng = random.Random(0)

    def wave(first_doc: int, drain: bool) -> list[str]:
        lines = workload_ingest.next_wave(params, replay, rng, first_doc, 5, 2, 2)
        with feed.open("a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        if drain:
            daemon.run_once()
        index = search.reload().bundle
        total = search.search(oracle.render(("term", "ingredient", "salt")), limit=0)["total"]
        return workload_ingest.check_wave(index, daemon.stats()["generation"], replay,
                                          {"salt": total}, compacted=False, compaction_due=False)

    expect(not wave(120, drain=True), "ingest check accepts a drained wave")
    expect(bool(wave(127, drain=False)), "ingest check rejects a missing wave")


def probe_checks() -> None:
    """The host-speed probe refuses to read while another thread burns CPU."""
    harness.PROBE_STATS.update(retaken=0, busy=0)
    harness.probe()
    expect(harness.PROBE_STATS["busy"] == 0, "probe reads while the program is idle")
    stop = threading.Event()

    def spin() -> None:
        while not stop.is_set():
            sum(range(1000))

    spinner = threading.Thread(target=spin)
    spinner.start()
    try:
        harness.probe()
    finally:
        stop.set()
        spinner.join()
    expect(harness.PROBE_STATS["busy"] == 1, "probe refuses to read while a thread burns CPU")
    harness.PROBE_STATS.update(retaken=0, busy=0)


def main() -> int:
    with harness.WorkDir("selftest") as directory:
        for name, check in (("serve", serve_checks), ("structure", structure_checks),
                            ("ingest", ingest_checks)):
            (directory / name).mkdir()
            check(directory / name)
    probe_checks()
    run_workloads()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
