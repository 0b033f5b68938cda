"""``serve_mixed``: closed-loop HTTP traffic against a ``repro serve`` process.

Set-up fits the paper pipeline, saves its bundle, generates a seeded synth
corpus and builds a 4-shard v2 index over it, then starts the asyncio
front end (``repro serve --async``) as its own process.  The benchmark is
the one client: two threads, one keep-alive connection each, send a
seeded mix of requests in rounds of :data:`ROUND` and time each one
(faceted requests go one at a time, see :data:`SEQUENTIAL_KINDS`).

* ``/v1/tag`` requests carry 8 lines drawn from a fixed pool, so lines
  repeat and the decode cache runs warm;
* ``/v1/search`` requests are boolean, BM25-ranked or faceted queries over
  Zipf-drawn terms; facets sweep every ingredient and process term, more
  posting blocks than the per-shard decode LRU holds.

Every answer is checked after the measured phase: tags against the same
bundle's in-process ``tag_token_batch``; totals, ids, scores and facet
counts against :mod:`oracle`.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import harness
from harness import (
    Config,
    Deadline,
    Outcome,
    SetupClock,
    WorkDir,
    Zipf,
    child_env,
    dir_bytes,
    median,
    percentile,
    probe,
    scale,
)
import oracle

HERE = Path(__file__).resolve().parent
#: Faceted queries are drawn for this many rounds at once (see ``Traffic``).
FACET_BLOCK = 16
SIZES = {
    # scale: (corpus docs, tag lines per section in the pool, training scale, min rounds)
    "full": (5000, 64, "small", FACET_BLOCK),
    "tiny": (300, 8, "tiny", 2),
}
#: One round of traffic: (kind, requests) phases in this order.  Both
#: connections work through a phase before the next starts, so a request's
#: latency is measured against traffic of its own kind; fully interleaved,
#: a 2-connection mix puts most requests behind a facet sweep part of the
#: time, and their p50s spread 26-41% across runs.
#:
#: No source gives this system's traffic mix, so the counts are a choice.
#: A faceted request (sent alone, see ``SEQUENTIAL_KINDS``) costs about as
#: much as 50 tag, 14 boolean or 12 ranked requests on two connections, so
#: facets take about 40% of round time and tag, boolean and ranked requests
#: 20-25% each.  A change in one kind's latency then moves
#: ``throughput_per_s`` by that share of the change, instead of throughput
#: repeating the facet latency (8 tag, 6 boolean, 6 ranked and 2 faceted
#: requests gave facets 73%); the notes' ``time_share`` gives the measured
#: shares.
ROUND = (("tag", 96), ("bool", 30), ("ranked", 30), ("facet", 2))
KINDS = tuple(kind for kind, _count in ROUND)
#: Kinds sent on one connection at a time.  The server runs searches on
#: executor threads that share one interpreter lock, so two faceted
#: requests at once each take about twice as long as alone, and how long
#: depends on which other facet (45-215 ms) each overlaps with: sent two
#: at a time, the facet p50 of one seed moved by up to 14% between runs.
SEQUENTIAL_KINDS = frozenset({"facet"})
FACET_FIELDS = ["ingredient", "process"]
LINES_PER_TAG = 8
LIMIT = 10
ZIPF_S = 1.1
CLIENTS = 2
SERVER_START_TIMEOUT_S = 60.0


class Traffic:
    """The seeded request stream: round ``k`` is always the same requests.

    Query terms follow a Zipf law over each lexicon, drawn stratified (see
    :class:`harness.Zipf`), and each phase holds every query shape equally
    often, so every run sees the same mix of cheap and costly queries
    whatever the seed picks.  A faceted request costs 45-215 ms depending on
    its terms and there are only four a round, so faceted queries are drawn
    for :data:`FACET_BLOCK` rounds at once, stratified over all of them: a
    run of at least that many rounds holds a whole block.
    """

    SHAPES = ("and", "or", "andnot")
    SECOND_FIELD = {"and": "process", "or": "ingredient", "andnot": "utensil"}

    def __init__(self, seed: int, pools: dict) -> None:
        from repro.data.lexicons import INGREDIENTS, TECHNIQUES, UTENSILS

        self.seed = seed
        self.pools = pools
        self._facet_blocks: dict[int, list[tuple]] = {}
        self.zipf = {
            field: Zipf([entry.name for entry in lexicon], ZIPF_S)
            for field, lexicon in (
                ("ingredient", INGREDIENTS), ("process", TECHNIQUES), ("utensil", UTENSILS)
            )
        }

    def _terms(self, rng, field: str, count: int) -> list[tuple]:
        return [("term", field, name) for name in self.zipf[field].draw(rng, count)]

    def _queries(self, rng, count: int) -> list[tuple]:
        shapes = [self.SHAPES[slot % len(self.SHAPES)] for slot in range(count)]
        rng.shuffle(shapes)
        firsts = self._terms(rng, "ingredient", count)
        seconds = {
            field: iter(self._terms(rng, field, shapes.count(shape)))
            for shape, field in self.SECOND_FIELD.items()
            if shapes.count(shape)
        }
        return [
            (shape, first, next(seconds[self.SECOND_FIELD[shape]]))
            for shape, first in zip(shapes, firsts)
        ]

    def _facet_queries(self, number: int, count: int) -> list[tuple]:
        block, slot = divmod(number - 1, FACET_BLOCK)
        if block not in self._facet_blocks:
            rng = random.Random(f"perfbench.serve.facet:{self.seed}:{block}")
            self._facet_blocks[block] = self._queries(rng, count * FACET_BLOCK)
        return self._facet_blocks[block][slot * count : (slot + 1) * count]

    def round(self, number: int) -> list[list[dict]]:
        """Round ``number`` as its phases: one request list per kind."""
        rng = random.Random(f"perfbench.serve:{self.seed}:{number}")
        phases = []
        for kind, count in ROUND:
            if kind == "tag":
                requests = []
                for position in range(count):
                    section = ("ingredient", "instruction")[position % 2]
                    body = {"section": section, "lines": rng.sample(self.pools[section], LINES_PER_TAG)}
                    requests.append({"kind": kind, "path": "/v1/tag", "body": body})
                phases.append(requests)
                continue
            requests = []
            queries = self._facet_queries(number, count) if kind == "facet" else self._queries(rng, count)
            for query in queries:
                body = {"query": oracle.render(query), "limit": LIMIT}
                if kind == "ranked":
                    body["rank"] = True
                elif kind == "facet":
                    body["facets"] = FACET_FIELDS
                requests.append(
                    {"kind": kind, "path": "/v1/search", "body": body, "query": query}
                )
            phases.append(requests)
        return phases


def _tag_pools(seed: int, per_section: int) -> dict:
    from repro.data.generator import GeneratorConfig, RecipeCorpusGenerator
    from repro.data.models import Source

    generator = RecipeCorpusGenerator(
        GeneratorConfig(source=Source.FOOD_COM, seed=3_000_003 + seed)
    )
    pools: dict[str, list[str]] = {"ingredient": [], "instruction": []}
    index = 0
    while min(len(pool) for pool in pools.values()) < per_section:
        recipe = generator.generate_recipe(index)
        index += 1
        for section, lines in (
            ("ingredient", [phrase.text for phrase in recipe.ingredients]),
            ("instruction", [step.text for step in recipe.instructions]),
        ):
            for line in lines:
                if len(pools[section]) < per_section and line not in pools[section]:
                    pools[section].append(line)
    return pools


def _expected_tags(bundle_path: Path, pools: dict) -> dict:
    """In-process ``tag_token_batch`` answers of the served bundle."""
    from repro.persistence import PipelineBundle
    from repro.text.tokenizer import tokenize

    bundle = PipelineBundle.load(bundle_path)
    expected = {}
    for section, pipeline in (
        ("ingredient", bundle.ingredient_pipeline),
        ("instruction", bundle.instruction_pipeline),
    ):
        tokens = [tokenize(line) for line in pools[section]]
        tags = pipeline.tag_token_batch(tokens)
        for line, line_tokens, line_tags in zip(pools[section], tokens, tags):
            expected[(section, line)] = {"tokens": list(line_tokens), "tags": list(line_tags)}
    return expected


def _default_sigint() -> None:
    """Give the server the default SIGINT disposition, which :meth:`Server.stop` relies on.

    A process started in the background by a non-interactive shell inherits
    SIGINT as ignored, and Python then never raises ``KeyboardInterrupt``:
    the server would outlive ``stop``'s grace period, be killed, and (when
    traced) write no trace.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """``repro serve --async`` (or its traced launcher) as a child process."""

    def __init__(self, bundle: Path, manifest: Path, log: Path, trace_file: Path | None):
        arguments = ["serve", "--bundle", str(bundle), "--index", str(manifest),
                     "--port", "0", "--async"]
        if trace_file is None:
            command = [sys.executable, "-m", "repro", *arguments]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(trace_file), *arguments]
        self._log_path = log
        self._log = log.open("w")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True, env=child_env(),
            preexec_fn=_default_sigint,
        )
        harness.watch(self.process.pid)
        self.port = self._await_banner()

    def _await_banner(self) -> int:
        result: dict = {}

        def read() -> None:
            line = self.process.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", line)
            if match:
                result["port"] = int(match.group(1))

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(SERVER_START_TIMEOUT_S)
        if "port" not in result:
            self.stop()
            raise RuntimeError(f"server did not start:\n{self._log_path.read_text()[-2000:]}")
        # Drain the rest of the banner so the child never blocks on a full pipe.
        threading.Thread(target=self.process.stdout.read, daemon=True).start()
        return result["port"]

    def stop(self) -> None:
        harness.unwatch(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


class Client:
    """One keep-alive connection; returns ``(status, document, seconds)``."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body: dict | None = None):
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        started = time.perf_counter()
        self.connection.request(method, path, payload, headers)
        response = self.connection.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - started
        return response.status, json.loads(data), elapsed

    def close(self) -> None:
        self.connection.close()


def drive(port: int, traffic: Traffic, seconds: float, min_rounds: int, tracer=None):
    """Closed loop: each client sends its next request when its last returns.

    Returns ``(results, phase_seconds, probes)``: ``phase_seconds`` holds
    one list per round, the time of each of its phases.  A host-speed probe
    runs before the first phase and after every phase, while the server is
    idle, and each request carries the number of the probe before its phase.
    Rounds start only while time remains, so every run sends whole rounds.
    """
    phase_start = threading.Barrier(CLIENTS + 1)
    phase_end = threading.Barrier(CLIENTS + 1)
    lock = threading.Lock()
    state: dict = {"requests": None, "next": 0}
    results: list = []
    errors: list[BaseException] = []

    def take():
        with lock:
            if state["next"] >= len(state["requests"]):
                return None
            state["next"] += 1
            return state["requests"][state["next"] - 1]

    def send(client, request):
        if tracer is None:
            return client.call("POST", request["path"], request["body"])
        with tracer.request(request["kind"]), tracer.span(f"client.{request['kind']}"):
            return client.call("POST", request["path"], request["body"])

    def worker(lane: int) -> None:
        client = Client(port)
        try:
            while True:
                phase_start.wait()
                if state["requests"] is None:
                    return
                kind = state["requests"][0]["kind"]
                while (lane == 0 or kind not in SEQUENTIAL_KINDS) and (request := take()) is not None:
                    try:
                        status, document, elapsed = send(client, request)
                    except (OSError, http.client.HTTPException, ValueError) as error:
                        status, document, elapsed = None, {"error": repr(error)}, 0.0
                        client.close()
                        client = Client(port)
                    with lock:
                        results.append((request, status, document, elapsed))
                phase_end.wait()
        except BaseException as error:  # surfaced after join
            errors.append(error)
            phase_start.abort()
            phase_end.abort()
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(lane,)) for lane in range(CLIENTS)]
    for thread in threads:
        thread.start()
    phase_seconds = []
    probes = [probe()]
    deadline = Deadline(seconds, min_rounds=min_rounds)
    try:
        while deadline.another_round():
            deadline.rounds += 1
            phases = []
            for requests in traffic.round(deadline.rounds):
                for request in requests:
                    request["phase"] = len(probes) - 1
                started = time.perf_counter()
                state["requests"], state["next"] = requests, 0
                phase_start.wait()
                phase_end.wait()
                phases.append(time.perf_counter() - started)
                probes.append(probe())
            phase_seconds.append(phases)
        state["requests"] = None
        phase_start.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results, phase_seconds, probes


def check(request, status, document, expected_tags, corpus, seed) -> str | None:
    """``None`` when the answer is right, else what is wrong with it."""
    if status != 200:
        return f"HTTP {status}: {document}"
    body = request["body"]
    if request["kind"] == "tag":
        want = [expected_tags[(body["section"], line)] for line in body["lines"]]
        if document.get("results") != want:
            return f"served tags differ from in-process tag_token_batch for {body['lines']}"
        return None
    query = request["query"]
    matched = corpus.match_set(query)
    if document.get("total") != len(matched):
        return f"{body['query']}: total {document.get('total')} != {len(matched)}"
    results = document.get("results", [])
    for result in results:
        if result["recipe_id"] != f"synth-{seed}-{result['doc_id']:08d}":
            return f"{body['query']}: doc {result['doc_id']} has recipe id {result['recipe_id']}"
    if request["kind"] == "ranked":
        want = corpus.ranked(query, LIMIT)
        got = [(result["doc_id"], result["score"]) for result in results]
        if [doc_id for doc_id, _ in got] != [doc_id for doc_id, _ in want]:
            return f"{body['query']}: ranked ids {got} != {want}"
        for (_, score), (_, reference) in zip(got, want):
            if abs(score - reference) > 1e-9:
                return f"{body['query']}: score {score} != BM25 {reference}"
        return None
    if [result["doc_id"] for result in results] != sorted(matched)[:LIMIT]:
        return f"{body['query']}: ids differ from the matching set"
    if request["kind"] == "facet":
        for field in FACET_FIELDS:
            want = [{"term": term, "count": count} for term, count in corpus.facets(query, field)]
            got = document.get("facets", {}).get(field)
            if got != want:
                return f"{body['query']}: {field} facets {got} != {want}"
    return None


def _histogram_p50(after: dict, before: dict) -> float:
    """Median of the requests a ``/stats`` histogram gained between snapshots."""
    earlier = {bucket["le_ms"]: bucket["count"] for bucket in before.get("buckets", [])}
    buckets = [
        (bucket["le_ms"], bucket["count"] - earlier.get(bucket["le_ms"], 0))
        for bucket in after.get("buckets", [])
    ]
    total = sum(count for _, count in buckets)
    if not total:
        return 0.0
    seen, lower = 0, 0.0
    for upper, count in sorted(buckets):
        if count and seen + count >= total / 2:
            return lower + (upper - lower) * (total / 2 - seen) / count
        seen += count
        lower = upper
    return lower


def _layers(stats_before, stats_after, server_trace: dict, requests_by_kind: dict) -> dict:
    def path(document, *keys, default=0):
        for key in keys:
            if not isinstance(document, dict) or key not in document:
                return default
            document = document[key]
        return document

    flushes = sum(
        path(stats_after, "queues", q, "flushes_total") - path(stats_before, "queues", q, "flushes_total")
        for q in ("ingredient", "instruction")
    )
    lines = sum(
        path(stats_after, "queues", q, "requests_total") - path(stats_before, "queues", q, "requests_total")
        for q in ("ingredient", "instruction")
    )
    shed = sum(
        path(stats_after, "admission", e, "shed_total") - path(stats_before, "admission", e, "shed_total")
        for e in ("tag", "search")
    )
    lazy_after = path(stats_after, "index", "index", "lazy", default={})
    lazy_before = path(stats_before, "index", "index", "lazy", default={})
    hits = lazy_after.get("hits", 0) - lazy_before.get("hits", 0)
    misses = lazy_after.get("misses", 0) - lazy_before.get("misses", 0)
    searches = sum(requests_by_kind[kind] for kind in ("bool", "ranked", "facet"))
    counts = server_trace.get("counts", {})
    busy = server_trace.get("busy_s", {})
    served = server_trace.get("requests", {})

    def per(kind: str) -> int:
        return max(1, served.get(kind, 0))

    return {
        "serve.tag_server_ms_p50": _histogram_p50(
            path(stats_after, "server", "tag", "latency", default={}),
            path(stats_before, "server", "tag", "latency", default={}),
        ),
        "serve.queue_wait_ms_p50": _histogram_p50(
            path(stats_after, "server", "tag", "queue_wait", default={}),
            path(stats_before, "server", "tag", "queue_wait", default={}),
        ),
        "serve.microbatch_flushes": flushes / max(1, requests_by_kind["tag"]),
        "serve.microbatch_mean_lines": lines / max(1, flushes),
        "serve.admission_shed": shed,
        "index.query.search_bool_s": busy.get("index.query.search:bool", 0.0) / per("bool"),
        "index.query.search_ranked_s": busy.get("index.query.search:ranked", 0.0) / per("ranked"),
        "index.query.search_facet_s": busy.get("index.query.search:facet", 0.0) / per("facet"),
        "index.codec.blocks_decoded_per_request": misses / max(1, searches),
        "index.codec.lru_hit_ratio": hits / max(1, hits + misses),
        "index.query.evaluations_per_facet_request": (
            counts.get("index.query.search:facet", 0) + counts.get("index.query.facets:facet", 0)
        ) / per("facet"),
        "text.normalize_calls_per_facet_request": counts.get("text.normalize_phrase:facet", 0)
        / per("facet"),
        "index.ranking.facet_counts_s": busy.get("index.ranking.facet_counts:facet", 0.0) / per("facet"),
    }


def _tails(latencies: dict[str, list[float]]) -> dict[str, float]:
    """Per kind, the highest of p99 and p90 with at least ten samples beyond it."""
    tails = {}
    for kind, values in latencies.items():
        for share, label in ((0.99, "p99"), (0.9, "p90")):
            if len(values) * (1 - share) >= 10:
                tails[f"{kind}_ms_{label}"] = round(percentile(values, share), 3)
                break
    return tails


def run(config: Config, clock: SetupClock, tracer=None) -> Outcome:
    from repro.core.pipeline import RecipeModeler, RecipeModelerConfig
    from repro.corpus.synth import SynthParams, iter_documents, write_synth_corpus
    from repro.experiments.common import build_corpora
    from repro.index import build_sharded_index

    docs, pool_size, training_scale, min_rounds = SIZES[config.scale]
    outcome = Outcome()
    corpus_seed = 4_000_003 + config.seed
    with WorkDir("serve") as directory:
        modeler = RecipeModeler(RecipeModelerConfig(seed=config.train_seed)).fit(
            build_corpora(scale=training_scale, seed=config.train_seed).combined
        )
        clock.lap()
        bundle = directory / "bundle.json"
        modeler.save_bundle(bundle)
        params = SynthParams(seed=corpus_seed, docs=docs)
        corpus_path = directory / "corpus.jsonl"
        write_synth_corpus(params, corpus_path)
        index_dir = directory / "index"
        manifest = index_dir / "index.manifest.json"
        build_sharded_index(corpus_path, manifest, num_shards=4, format="v2")
        clock.lap()
        pools = _tag_pools(config.seed, pool_size)
        expected_tags = _expected_tags(bundle, pools)
        corpus = oracle.Corpus(
            oracle.doc_terms(document.index, document.recipe) for document in iter_documents(params)
        )
        traffic = Traffic(config.seed, pools)
        clock.lap()
        trace_file = directory / "server-trace.json" if tracer is not None else None
        server = Server(bundle, manifest, directory / "server.log", trace_file)
        try:
            clock.lap()
            warm = Client(server.port)
            try:
                # Warm-up: every pool line once (the decode cache a running
                # server has) and one round of the mix.
                for section, lines in pools.items():
                    for offset in range(0, len(lines), LINES_PER_TAG):
                        chunk = lines[offset : offset + LINES_PER_TAG]
                        warm.call("POST", "/v1/tag", {"section": section, "lines": chunk})
                for phase in traffic.round(0):
                    for request in phase:
                        warm.call("POST", request["path"], request["body"])
                stats_before = warm.call("GET", "/stats")[1] if tracer is not None else {}
            finally:
                warm.close()
            clock.lap()  # set-up ends
            results, phase_seconds, probes = drive(
                server.port, traffic, config.seconds, min_rounds, tracer
            )
            stats_after = {}
            if tracer is not None:
                client = Client(server.port)
                try:
                    stats_after = client.call("GET", "/stats")[1]
                finally:
                    client.close()
        finally:
            server.stop()
        server_trace = {}
        if trace_file is not None:
            if not trace_file.is_file():
                raise RuntimeError(
                    f"traced server wrote no trace (exit code {server.process.returncode}):\n"
                    + (directory / "server.log").read_text()[-2000:]
                )
            server_trace = json.loads(trace_file.read_text())
        index_bytes = dir_bytes(index_dir)[0]

    # Each phase's times are scaled to reference host speed by the probes
    # taken on either side of it, while the server was idle: a phase lasts
    # 0.1-0.5 s, and the host changes speed within a second-long round.
    factors = [scale(before, after) for before, after in zip(probes, probes[1:])]
    scaled_phases = [
        [seconds * factors[len(KINDS) * number + position] for position, seconds in enumerate(phases)]
        for number, phases in enumerate(phase_seconds)
    ]
    latencies: dict[str, list[float]] = {kind: [] for kind in KINDS}
    requests_by_kind = {kind: 0 for kind in KINDS}
    for request, status, document, elapsed in results:
        outcome.attempted += 1
        requests_by_kind[request["kind"]] += 1
        problem = check(request, status, document, expected_tags, corpus, corpus_seed)
        if status != 200:
            outcome.failed += 1
        if problem is not None:
            outcome.problems.append(problem)
        else:
            latencies[request["kind"]].append(1000.0 * elapsed * factors[request["phase"]])
    # Requests per second: the median over rounds of each round's rate, so
    # a round stalled by the host weighs like any other.
    per_round = sum(count for _kind, count in ROUND)
    round_seconds = [sum(phases) for phases in phase_seconds]
    round_rates = [per_round / sum(phases) for phases in scaled_phases]
    # Each kind's share of round time (median over rounds): how much a
    # change in that kind's latency moves throughput_per_s.
    time_share = {
        kind: round(median(phases[position] / sum(phases) for phases in scaled_phases), 3)
        for position, kind in enumerate(KINDS)
    }
    outcome.metrics.update(
        throughput_per_s=(median(round_rates), "1/s"),
        op1_ms=(median(latencies["tag"]), "ms"),
        op2_ms=(median(latencies["bool"]), "ms"),
        op3_ms=(median(latencies["ranked"]), "ms"),
        op4_ms=(median(latencies["facet"]), "ms"),
        index_disk_bytes=(float(index_bytes), "bytes"),
    )
    outcome.notes.update(
        rounds=len(round_seconds),
        unscaled_throughput_per_s=round(per_round * len(round_seconds) / sum(round_seconds), 2),
        requests=requests_by_kind,
        time_share=time_share,
        **_tails(latencies),
        probes_ms=[round(1000 * value, 2) for value in probes],
    )
    if tracer is not None:
        outcome.notes["layers"] = _layers(stats_before, stats_after, server_trace, requests_by_kind)
    return outcome
