"""``structure``: the batch path, raw text -> structured records -> index.

Each round runs three legs over inputs no earlier round has seen:

1. the paper pipeline (``RecipeModeler``) structures a fixed number of
   generated recipes through ``model_corpus_iter`` into a
   ``StructuredRecipeSink``;
2. a ``CharTagger`` structures a fixed number of synth raw documents with
   ``structure_document`` into the same sink;
3. ``build_sharded_index(..., format="v2")`` indexes the round's records.

A round is fixed work, so runs compare however many rounds they fit; the
metrics are totals over all rounds.  Checks run after each round, outside
the timings.
"""

from __future__ import annotations

import random
import time

from harness import (
    Config,
    Deadline,
    Outcome,
    SetupClock,
    WorkDir,
    dir_bytes,
    median,
    probe,
    scale,
)
import oracle
from tracing import diff, replace_references

SIZES = {
    # scale: (AllRecipes recipes, FOOD.com recipes, synth docs per round,
    #         chartag training examples, training corpus scale, min rounds)
    "full": (20, 40, 120, 1500, "small", 3),
    "tiny": (3, 3, 6, 300, "small", 2),
}
#: Quality floors, well under the values measured on every seed tried
#: (about 0.88 and 0.98); a change that costs accuracy trips them.
MIN_INGREDIENT_NAME_ACCURACY = 0.80
MIN_CHARTAG_SPAN_F1 = 0.93
NUM_SHARDS = 4
COUNT_CHECKS_PER_ROUND = 3


def _install_tracing(tracer) -> None:
    from repro.chartag.model import CharTagger
    from repro.core.relation_extraction import RelationExtractor
    from repro.corpus.structurer import RecipeStructurer
    from repro.index import sharding
    from repro import persistence
    from repro.ner.model import NerModel
    from repro.pos.tagger import PerceptronPosTagger

    tracer.wrap_method(NerModel, "tag_batch", "ner.tag_batch")
    tracer.wrap_method(PerceptronPosTagger, "tag_sequence", "pos.tag")
    tracer.wrap_method(RelationExtractor, "extract", "core.relation_extract")
    tracer.wrap_method(RecipeStructurer, "structure_chunk", "corpus.structure_chunk")
    tracer.wrap_method(CharTagger, "tag_batch", "chartag.tag_batch")
    tracer.wrap_function(sharding, "_build_shard_task", "index.build_shard")

    original_write = persistence.write_artifact

    def write_artifact(path, *args, **kwargs):
        with tracer.span("persistence.write_artifact"):
            result = original_write(path, *args, **kwargs)
        tracer.count("persistence.bytes_written", _file_size(path))
        return result

    replace_references(original_write, write_artifact)


def _file_size(path) -> int:
    from pathlib import Path

    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def _session_counts(sessions) -> tuple[int, int]:
    hits = misses = 0
    for session in sessions:
        stats = session.stats()
        hits += stats["decode_hits"]
        misses += stats["decode_misses"]
    return hits, misses


class _Inputs:
    """Seeded, never-repeating inputs: round ``k`` takes the ``k``-th slice."""

    def __init__(self, seed: int, sizes) -> None:
        from repro.corpus.synth import SynthParams
        from repro.data.generator import GeneratorConfig, RecipeCorpusGenerator
        from repro.data.models import Source

        self.n_allrecipes, self.n_foodcom, self.n_docs = sizes[:3]
        # Training uses generator seeds train_seed and train_seed + 1; these
        # offsets keep every evaluation stream distinct from them.
        self.allrecipes = RecipeCorpusGenerator(
            GeneratorConfig(source=Source.ALLRECIPES, seed=1_000_003 + 2 * seed)
        )
        self.foodcom = RecipeCorpusGenerator(
            GeneratorConfig(source=Source.FOOD_COM, seed=1_000_004 + 2 * seed)
        )
        self.synth = SynthParams(seed=2_000_003 + seed, docs=0)

    def round(self, number: int):
        from repro.corpus.synth import document_at

        recipes = [
            self.allrecipes.generate_recipe(number * self.n_allrecipes + i)
            for i in range(self.n_allrecipes)
        ] + [
            self.foodcom.generate_recipe(number * self.n_foodcom + i)
            for i in range(self.n_foodcom)
        ]
        documents = [
            document_at(self.synth, number * self.n_docs + i) for i in range(self.n_docs)
        ]
        return recipes, documents


def _train(config: Config, sizes, clock: SetupClock):
    from repro.chartag import CharTagger
    from repro.core.pipeline import RecipeModeler, RecipeModelerConfig
    from repro.corpus.synth import SynthParams, iter_documents
    from repro.experiments.common import build_corpora

    corpora = build_corpora(scale=sizes[4], seed=config.train_seed)
    modeler = RecipeModeler(RecipeModelerConfig(seed=config.train_seed)).fit(corpora.combined)
    clock.lap()
    texts: list[str] = []
    tags: list[list[str]] = []
    for document in iter_documents(SynthParams(seed=config.train_seed, docs=sizes[3])):
        for example in document.lines:
            texts.append(example.text)
            tags.append(list(example.tags))
    limit = sizes[3]
    tagger = CharTagger(seed=config.train_seed).train(texts[:limit], tags[:limit])
    clock.lap()
    return modeler, tagger


def _run_round(modeler, tagger, recipes, documents, directory, number):
    """Structure + index one round; returns (times, paper out, chartag out, manifest).

    ``times`` holds each leg's seconds (``leg1``..``leg3``, sink writes apart
    as ``write1``/``write2``) and the host-speed probes taken between legs
    (``probes``), so each leg can be scaled by the probes on either side.
    """
    from repro.chartag import structure_document
    from repro.corpus.sink import StructuredRecipeSink
    from repro.index import build_sharded_index

    jsonl = directory / f"round{number}.jsonl"
    manifest = directory / f"round{number}" / "index.manifest.json"
    times = {"write1": 0.0, "write2": 0.0, "probes": []}
    paper_out = []
    chartag_out = []
    with StructuredRecipeSink(jsonl) as sink:
        started = time.perf_counter()
        for record in modeler.model_corpus_iter(recipes):
            mark = time.perf_counter()
            sink.write(record)
            times["write1"] += time.perf_counter() - mark
            paper_out.append(record)
        times["leg1"] = time.perf_counter() - started - times["write1"]
        times["probes"].append(probe())
        started = time.perf_counter()
        for document in documents:
            record = structure_document(
                tagger,
                document.recipe.recipe_id,
                document.recipe.title,
                [line.text for line in document.lines],
            )
            mark = time.perf_counter()
            sink.write(record)
            times["write2"] += time.perf_counter() - mark
            chartag_out.append(record)
        times["leg2"] = time.perf_counter() - started - times["write2"]
    times["probes"].append(probe())
    started = time.perf_counter()
    build_sharded_index(jsonl, manifest, num_shards=NUM_SHARDS, format="v2")
    times["leg3"] = time.perf_counter() - started
    return times, paper_out, chartag_out, manifest


def check_round(recipes, documents, paper_out, chartag_out, manifest, rng, problems, quality):
    """Order/count, quality and index-count checks for one round."""
    if [r.recipe_id for r in paper_out] != [r.recipe_id for r in recipes]:
        problems.append("paper pipeline: records do not match inputs one-to-one in order")
    if [r.recipe_id for r in chartag_out] != [d.recipe.recipe_id for d in documents]:
        problems.append("chartag: records do not match inputs one-to-one in order")
    for recipe, record in zip(recipes, paper_out):
        if len(record.ingredients) != len(recipe.ingredients):
            problems.append(f"{recipe.recipe_id}: {len(record.ingredients)} records "
                            f"for {len(recipe.ingredients)} ingredient lines")
            continue
        for phrase, structured in zip(recipe.ingredients, record.ingredients):
            quality["names"] += 1
            quality["names_right"] += phrase.canonical_name == structured.name
    for document, record in zip(documents, chartag_out):
        quality["spans"].add(oracle.structured_spans(record), oracle.gold_spans(document.lines))

    problems.extend(check_index_counts(paper_out + chartag_out, manifest, rng))


def check_index_counts(records, manifest, rng) -> list[str]:
    """Sampled ingredient terms: the index counts what the records hold."""
    from repro.index import QueryEngine, ShardedRecipeIndex

    corpus = oracle.Corpus(oracle.doc_terms(doc_id, record) for doc_id, record in enumerate(records))
    terms = sorted(term for field, term in corpus.postings if field == "ingredient")
    engine = QueryEngine(ShardedRecipeIndex.load(manifest))
    problems = []
    for term in rng.sample(terms, min(COUNT_CHECKS_PER_ROUND, len(terms))):
        query = ("term", "ingredient", term)
        expected = len(corpus.match_set(query))
        got = engine.count(oracle.render(query))
        if got != expected:
            problems.append(f"index count for {oracle.render(query)}: {got} != {expected}")
    return problems


def run(config: Config, clock: SetupClock, tracer=None) -> Outcome:
    sizes = SIZES[config.scale]
    outcome = Outcome()
    modeler, tagger = _train(config, sizes, clock)
    inputs = _Inputs(config.seed, sizes)
    rng = random.Random(f"perfbench.structure:{config.seed}")
    quality = {"names": 0, "names_right": 0, "spans": oracle.SpanScore()}
    ner_sessions = [
        modeler.components.ingredient_pipeline.ner.session,
        modeler.components.instruction_pipeline.ner.session,
    ]
    rows: list[dict] = []
    probes: list[float] = []
    with WorkDir("structure") as directory:
        # Warm-up round on its own inputs: lazy imports and first-call costs.
        recipes, documents = inputs.round(0)
        _, paper_out, chartag_out, manifest = _run_round(
            modeler, tagger, recipes, documents, directory, 0
        )
        check_round(recipes, documents, paper_out, chartag_out, manifest, rng,
                    outcome.problems, {"names": 0, "names_right": 0, "spans": oracle.SpanScore()})
        if tracer is not None:
            _install_tracing(tracer)
            before = tracer.snapshot()
        ner_before = _session_counts(ner_sessions)
        by_section_before = [_session_counts([session]) for session in ner_sessions]
        chartag_before = _session_counts([tagger.session])
        clock.lap()  # set-up ends
        deadline = Deadline(config.seconds, min_rounds=sizes[5])
        while deadline.another_round():
            deadline.rounds += 1
            number = deadline.rounds
            recipes, documents = inputs.round(number)
            probes.append(probe())
            times, paper_out, chartag_out, manifest = _run_round(
                modeler, tagger, recipes, documents, directory, number
            )
            probes.extend(times.pop("probes"))
            probes.append(probe())
            outcome.attempted += len(recipes) + len(documents)
            rows.append({"recipes": len(recipes), "docs": len(documents),
                         "bytes": dir_bytes(manifest.parent)[0], **times})
            # Checks and clean-up are the benchmark's work, not the program's:
            # they do not count against the measured time.
            check_started = time.perf_counter()
            check_round(recipes, documents, paper_out, chartag_out, manifest, rng,
                        outcome.problems, quality)
            for path in (directory / f"round{number}.jsonl", *manifest.parent.iterdir()):
                path.unlink()
            manifest.parent.rmdir()
            deadline.started += time.perf_counter() - check_started
        ner_after = _session_counts(ner_sessions)
        by_section_after = [_session_counts([session]) for session in ner_sessions]
        chartag_after = _session_counts([tagger.session])

    accuracy = quality["names_right"] / max(1, quality["names"])
    span_f1 = quality["spans"].f1
    if accuracy < MIN_INGREDIENT_NAME_ACCURACY:
        outcome.problems.append(f"ingredient_name_accuracy {accuracy:.4f} < {MIN_INGREDIENT_NAME_ACCURACY}")
    if span_f1 < MIN_CHARTAG_SPAN_F1:
        outcome.problems.append(f"chartag_span_f1 {span_f1:.4f} < {MIN_CHARTAG_SPAN_F1}")
    # Totals over totals, so the garbage collections that land in some
    # rounds count at their true share; each leg's times are scaled to
    # reference host speed by the probes on either side of it (four per
    # round: before leg 1, between the legs, after leg 3).
    total = {key: 0.0 for key in ("recipes", "docs", "leg1", "leg2", "leg3", "write")}
    raw_seconds = 0.0
    for number, row in enumerate(rows):
        around = probes[4 * number : 4 * number + 4]
        factors = [scale(before, after) for before, after in zip(around, around[1:])]
        total["recipes"] += row["recipes"]
        total["docs"] += row["docs"]
        for key, into, factor in (("leg1", "leg1", factors[0]), ("write1", "write", factors[0]),
                                  ("leg2", "leg2", factors[1]), ("write2", "write", factors[1]),
                                  ("leg3", "leg3", factors[2])):
            total[into] += row[key] * factor
            raw_seconds += row[key]
    items = total["recipes"] + total["docs"]
    outcome.notes.update(
        rounds=len(rows),
        unscaled_throughput_per_s=round(items / raw_seconds, 2),
        ingredient_name_accuracy=round(accuracy, 4),
        chartag_span_f1=round(span_f1, 4),
        structure_recipes_per_s=round(total["recipes"] / total["leg1"], 2),
        chartag_docs_per_s=round(total["docs"] / total["leg2"], 2),
        index_build_docs_per_s=round(items / total["leg3"], 2),
        probes_ms=[round(1000 * value, 2) for value in probes],
    )
    outcome.metrics.update(
        throughput_per_s=(items / (total["leg1"] + total["leg2"] + total["leg3"] + total["write"]), "1/s"),
        op1_ms=(1000.0 * total["leg1"] / total["recipes"], "ms"),
        op2_ms=(1000.0 * total["leg2"] / total["docs"], "ms"),
        op3_ms=(1000.0 * total["leg3"] / items, "ms"),
        op4_ms=(1000.0 * total["write"] / items, "ms"),
        index_disk_bytes=(median(row["bytes"] for row in rows), "bytes"),
    )
    if tracer is not None:
        delta = diff(tracer.snapshot(), before)
        busy, counts = delta["busy"], delta["counts"]
        per = len(rows)
        hits = ner_after[0] - ner_before[0]
        misses = ner_after[1] - ner_before[1]
        for section, (hit_after, miss_after), (hit_before, miss_before) in zip(
            ("ingredient", "instruction"), by_section_after, by_section_before
        ):
            section_hits = hit_after - hit_before
            section_lookups = section_hits + miss_after - miss_before
            outcome.notes[f"ner_{section}_decode_hit_ratio"] = round(
                section_hits / max(1, section_lookups), 4
            )
        chartag_hits = chartag_after[0] - chartag_before[0]
        chartag_misses = chartag_after[1] - chartag_before[1]
        outcome.notes["layers"] = {
            "ner.tag_batch_s": busy.get("ner.tag_batch", 0.0) / per,
            "ner.decode_hit_ratio": hits / max(1, hits + misses),
            "pos.tag_s": busy.get("pos.tag", 0.0) / per,
            "core.relation_extract_s": busy.get("core.relation_extract", 0.0) / per,
            "corpus.chunks": counts.get("corpus.structure_chunk", 0.0) / per,
            "corpus.structure_chunk_s": busy.get("corpus.structure_chunk", 0.0) / per,
            "chartag.tag_batch_s": busy.get("chartag.tag_batch", 0.0) / per,
            "chartag.decode_hit_ratio": chartag_hits / max(1, chartag_hits + chartag_misses),
            "index.build_shard_s": busy.get("index.build_shard", 0.0) / per,
            "persistence.write_artifact_s": busy.get("persistence.write_artifact", 0.0) / per,
            "persistence.bytes_written": counts.get("persistence.bytes_written", 0.0) / per,
            "quality.ingredient_name_accuracy": accuracy,
            "quality.chartag_span_f1": span_f1,
        }
    return outcome
