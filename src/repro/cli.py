"""Command-line interface: paper artefacts plus the serving workflow.

Usage::

    python -m repro table1 --scale small --seed 0     # regenerate a table
    python -m repro all                               # every paper artefact
    python -m repro train --scale small --output bundle.json
    python -m repro tag --bundle bundle.json --section ingredient "2 cups sugar"
    python -m repro tag --bundle bundle.json --input corpus.jsonl \
        --output structured.jsonl --workers 4
    python -m repro index build --input structured.jsonl --output index.json
    python -m repro index build --input structured.jsonl --output manifest.json \
        --shards 4 --workers 4
    python -m repro index update --manifest manifest.json --input new.jsonl
    python -m repro index merge --manifest manifest.json --output manifest.json \
        --shards 2
    python -m repro index migrate --manifest manifest.json --format v2
    python -m repro index inspect --index manifest.json
    python -m repro index query --index index.json \
        'ingredient:tomato AND process:saute AND NOT ingredient:garlic'
    python -m repro index query --index manifest.json --rank -k 10 \
        --facet ingredient --workers 4 'ingredient:tomato OR ingredient:basil'
    python -m repro serve --bundle bundle.json --index manifest.json --port 8080
    python -m repro serve --bundle bundle.json --max-inflight 64 \
        --queue-depth 128 --deadline-ms 30000

The experiment sub-commands print the same rows/series the paper reports.
``train`` fits the end-to-end pipeline on the simulated corpus and writes an
atomic, checksummed :class:`~repro.persistence.PipelineBundle` artifact;
``tag`` and ``serve`` load such an artifact through the
:mod:`repro.serve` model registry and answer tagging requests through the
microbatching queue (one JSON object per input line on stdout for ``tag``).
With ``--input``, ``tag`` instead streams a whole recipe-corpus JSONL through
the :mod:`repro.corpus` substrate — budget-bounded chunks, optionally across
``--workers`` processes — writing one structured recipe per output line.
``index build`` turns that structured JSONL into a checksummed inverted-index
artifact — or, with ``--shards N``, into a shard manifest whose N
hash-partitioned shards are built in parallel across ``--workers`` processes;
``index update`` appends new recipes as a delta shard and ``index merge``
compacts a manifest into fewer shards or one monolithic artifact.  Every
index writer takes ``--format v1|v2`` (v2 is the compact binary posting
format: ~10x smaller, mmap'd lazy-decode loads); ``index migrate`` rewrites
existing artifacts between formats (shard-by-shard for a manifest, under a
bumped generation) and ``index inspect`` prints an artifact's shape —
format, generation, per-shard size — without decoding postings.  ``index
query`` answers boolean entity queries from either artifact kind (or, with
``--scan``, by brute-forcing the JSONL — same results, corpus-scan cost);
``--rank``/``-k`` order matches by BM25 score from artifact metadata,
``--facet FIELD`` adds per-term match-count aggregations, and ``--workers``
fans per-shard evaluation of a manifest across threads;
``serve`` runs the asyncio event-loop server: keep-alive + pipelined
connections, per-endpoint admission control (``--max-inflight`` concurrent
requests, ``--queue-depth`` waiters, excess load shed with ``429 +
Retry-After``, ``--deadline-ms`` per-request budget) and chunked NDJSON
streaming (``"stream": true``) for corpus-sized tag and search responses.
``serve --index`` additionally exposes the index (monolithic or manifest) on
``POST /v1/search``, hot-swappable through ``POST /v1/reload``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Sequence

from repro.experiments import (
    ablations,
    conclusions,
    crossval,
    fig2,
    fig3,
    fig4,
    fig5,
    table1,
    table3,
    table4,
    table5,
)

__all__ = ["main", "build_parser", "EXPERIMENTS"]


def _run_ablations(*, scale: str, seed: int) -> str:
    parts = [
        ablations.render_sampling(ablations.run_sampling_ablation(scale=scale, seed=seed)),
        ablations.render_model_family(ablations.run_model_family_ablation(scale=scale, seed=seed)),
        ablations.render_threshold(ablations.run_threshold_ablation(scale=scale, seed=seed)),
        ablations.render_cluster_count(ablations.run_cluster_count_ablation(scale=scale, seed=seed)),
        ablations.render_preprocessing(ablations.run_preprocessing_ablation(scale=scale, seed=seed)),
    ]
    return "\n\n".join(parts)


#: Experiment name -> callable(scale, seed) -> rendered report.
EXPERIMENTS: dict[str, Callable[..., str]] = {
    "table1": lambda *, scale, seed: table1.render(table1.run(scale=scale, seed=seed)),
    "table3": lambda *, scale, seed: table3.render(table3.run(scale=scale, seed=seed)),
    "table4": lambda *, scale, seed: table4.render(table4.run(scale=scale, seed=seed)),
    "table5": lambda *, scale, seed: table5.render(table5.run(scale=scale, seed=seed)),
    "fig2": lambda *, scale, seed: fig2.render(fig2.run(scale=scale, seed=seed)),
    "fig3": lambda *, scale, seed: fig3.render(fig3.run(scale=scale, seed=seed)),
    "fig4": lambda *, scale, seed: fig4.render(fig4.run(scale=scale, seed=seed)),
    "fig5": lambda *, scale, seed: fig5.render(fig5.run(scale=scale, seed=seed)),
    "conclusions": lambda *, scale, seed: conclusions.render(conclusions.run(scale=scale, seed=seed)),
    "crossval": lambda *, scale, seed: crossval.render(crossval.run(scale=scale, seed=seed)),
    "ablations": _run_ablations,
}

_SCALES = ("tiny", "small", "medium", "large")


def _add_corpus_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default="small",
        choices=_SCALES,
        help="corpus scale preset (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro-recipes",
        description=(
            "Reproduce the tables and figures of 'A Named Entity Based Approach "
            "to Model Recipes', or train and serve the pipeline."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name in [*EXPERIMENTS, "all"]:
        help_text = (
            "run every experiment" if name == "all" else f"regenerate the paper's {name}"
        )
        experiment = subparsers.add_parser(name, help=help_text)
        _add_corpus_options(experiment)
        experiment.set_defaults(experiment=name, handler=_cmd_experiments)

    train = subparsers.add_parser(
        "train", help="fit the full pipeline and save a serving bundle artifact"
    )
    _add_corpus_options(train)
    train.add_argument(
        "--family",
        default="perceptron",
        choices=("crf", "perceptron", "hmm"),
        help="sequence-model family for both NER models (default: perceptron)",
    )
    train.add_argument(
        "--output", required=True, help="path the bundle artifact is written to"
    )
    train.set_defaults(handler=_cmd_train)

    tag = subparsers.add_parser(
        "tag",
        help=(
            "tag recipe lines with a saved bundle (JSON per line on stdout), or "
            "structure a whole recipe-corpus JSONL with --input"
        ),
    )
    tag.add_argument("--bundle", required=True, help="bundle artifact to load")
    tag.add_argument(
        "--section",
        default=None,
        choices=("ingredient", "instruction"),
        help=(
            "which recipe section the lines belong to (default: instruction; "
            "line mode only — --input structures both sections)"
        ),
    )
    tag.add_argument(
        "--no-dictionary",
        action="store_true",
        help="skip the frequency-dictionary filter on instruction predictions",
    )
    tag.add_argument(
        "--input",
        help=(
            "recipe-corpus JSONL to structure end-to-end; streamed in "
            "budget-bounded chunks, one structured recipe per output line"
        ),
    )
    tag.add_argument(
        "--output",
        help="write structured-recipe JSONL here instead of stdout (with --input)",
    )
    tag.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for --input structuring (default: 1, in-process)",
    )
    tag.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="max recipes per work chunk for --input (default: budget-bounded only)",
    )
    tag.add_argument(
        "lines",
        nargs="*",
        help="recipe lines to tag (reads one line per stdin row when omitted)",
    )
    tag.set_defaults(handler=_cmd_tag)

    index = subparsers.add_parser(
        "index",
        help="build or query an inverted index over structured-recipe JSONL",
    )
    index_commands = index.add_subparsers(
        dest="index_command", required=True, metavar="subcommand"
    )

    index_build = index_commands.add_parser(
        "build", help="stream a structured-recipe JSONL into an index artifact"
    )
    index_build.add_argument(
        "--input",
        required=True,
        help="structured-recipe JSONL to index (output of `tag --input`)",
    )
    index_build.add_argument(
        "--output", required=True, help="path the index artifact is written to"
    )
    index_build.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "partition into N hash shards and write a shard manifest (shard "
            "artifacts land next to it) instead of one monolithic index"
        ),
    )
    index_build.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for parallel shard builds with --shards (default: 1)",
    )
    index_build.add_argument(
        "--format",
        choices=("v1", "v2"),
        default="v1",
        help=(
            "artifact representation: v1 (JSON postings) or v2 (compact "
            "binary posting format; ~10x smaller, mmap'd lazy-decode loads)"
        ),
    )
    index_build.set_defaults(handler=_cmd_index_build)

    index_merge = index_commands.add_parser(
        "merge",
        help=(
            "compact a shard manifest: fold base + delta shards into fewer "
            "shards (--shards) or one monolithic index artifact"
        ),
    )
    index_merge.add_argument(
        "--manifest", required=True, help="shard manifest built by `index build --shards`"
    )
    index_merge.add_argument(
        "--output",
        required=True,
        help=(
            "destination: a new shard manifest with --shards, otherwise a "
            "monolithic index artifact"
        ),
    )
    index_merge.add_argument(
        "--shards",
        type=int,
        default=None,
        help="target base shard count (omit to produce one monolithic index)",
    )
    index_merge.add_argument(
        "--format",
        choices=("v1", "v2"),
        default="v1",
        help="artifact representation of everything written (default: v1)",
    )
    index_merge.set_defaults(handler=_cmd_index_merge)

    index_update = index_commands.add_parser(
        "update",
        help=(
            "append a structured-recipe JSONL as a delta shard (incremental "
            "update; base shards untouched, manifest generation bumped)"
        ),
    )
    index_update.add_argument(
        "--manifest", required=True, help="shard manifest to update in place"
    )
    index_update.add_argument(
        "--input", required=True, help="structured-recipe JSONL to append"
    )
    index_update.add_argument(
        "--format",
        choices=("v1", "v2"),
        default="v1",
        help="artifact representation of the new delta shard (default: v1)",
    )
    index_update.set_defaults(handler=_cmd_index_update)

    index_migrate = index_commands.add_parser(
        "migrate",
        help=(
            "rewrite index artifacts into another representation: a shard "
            "manifest migrates shard-by-shard under a bumped generation "
            "(in place, atomically), a monolithic artifact is re-saved"
        ),
    )
    index_migrate_target = index_migrate.add_mutually_exclusive_group(required=True)
    index_migrate_target.add_argument(
        "--manifest", help="shard manifest to migrate in place"
    )
    index_migrate_target.add_argument(
        "--index", dest="index_path", help="monolithic index artifact to convert"
    )
    index_migrate.add_argument(
        "--format",
        choices=("v1", "v2"),
        default="v2",
        help="target artifact representation (default: v2)",
    )
    index_migrate.add_argument(
        "--output",
        help=(
            "destination for a converted monolithic artifact "
            "(default: rewrite --index in place; ignored with --manifest)"
        ),
    )
    index_migrate.set_defaults(handler=_cmd_index_migrate)

    index_delete = index_commands.add_parser(
        "delete",
        help=(
            "tombstone documents in a shard manifest (masked from queries "
            "immediately, dropped for good at the next merge)"
        ),
    )
    index_delete.add_argument(
        "--manifest", required=True, help="shard manifest to delete from"
    )
    index_delete.add_argument(
        "--recipe-id",
        dest="recipe_ids",
        action="append",
        metavar="ID",
        help="tombstone every live document with this recipe id (repeatable)",
    )
    index_delete.add_argument(
        "--doc-id",
        dest="doc_ids",
        action="append",
        type=int,
        metavar="N",
        help="tombstone this global doc id (repeatable)",
    )
    index_delete.set_defaults(handler=_cmd_index_delete)

    index_inspect = index_commands.add_parser(
        "inspect",
        help=(
            "print an artifact's shape without decoding postings: format/kind, "
            "generation, documents, and per-shard size/format for a manifest"
        ),
    )
    index_inspect.add_argument(
        "--index",
        dest="index_path",
        required=True,
        help="index artifact or shard manifest to inspect",
    )
    index_inspect.set_defaults(handler=_cmd_index_inspect)

    index_query = index_commands.add_parser(
        "query", help="evaluate an entity query (JSON object per match on stdout)"
    )
    index_query.add_argument(
        "--index",
        dest="index_path",
        help="index artifact or shard manifest built by `index build`",
    )
    index_query.add_argument(
        "--scan",
        help=(
            "brute-force a structured-recipe JSONL instead of using an index "
            "(same results, corpus-scan cost)"
        ),
    )
    index_query.add_argument(
        "--limit", type=int, default=None, help="return at most this many matches"
    )
    index_query.add_argument(
        "--rank",
        action="store_true",
        help="order matches by BM25 score (each printed match carries 'score')",
    )
    index_query.add_argument(
        "-k",
        "--top-k",
        dest="top_k",
        type=int,
        default=None,
        metavar="K",
        help="ranked top-k shorthand: implies --rank and caps the results at K",
    )
    index_query.add_argument(
        "--facet",
        dest="facets",
        action="append",
        metavar="FIELD",
        help=(
            "aggregate per-term match counts for FIELD over all matches "
            "(repeatable; printed as one trailing JSON object on stdout)"
        ),
    )
    index_query.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "threads fanning per-shard evaluation of a manifest "
            "(default: 1, serial)"
        ),
    )
    index_query.add_argument(
        "query",
        help=(
            "boolean entity query, e.g. "
            "'ingredient:tomato AND process:saute AND NOT ingredient:garlic'"
        ),
    )
    index_query.set_defaults(handler=_cmd_index_query)

    ingest = subparsers.add_parser(
        "ingest",
        help="continuously ingest a growing JSONL feed into a shard manifest",
    )
    ingest_commands = ingest.add_subparsers(
        dest="ingest_command", required=True, metavar="subcommand"
    )
    ingest_run = ingest_commands.add_parser(
        "run",
        help=(
            "tail a feed file or *.jsonl drop directory into delta shards "
            "with background tiered compaction (Ctrl-C to stop)"
        ),
    )
    ingest_run.add_argument(
        "--manifest", required=True, help="shard manifest to append to (must exist)"
    )
    ingest_run.add_argument(
        "--watch",
        required=True,
        help=(
            "JSONL feed to tail: recipe documents or {\"_delete\": id} "
            "directives, one JSON object per line; a directory tails every "
            "*.jsonl inside it"
        ),
    )
    ingest_run.add_argument(
        "--shards",
        type=int,
        default=None,
        help="base shard count compaction rewrites to (default: keep current)",
    )
    ingest_run.add_argument(
        "--format",
        choices=("v1", "v2"),
        default="v1",
        help="representation for delta and compacted shards (default: v1)",
    )
    ingest_run.add_argument(
        "--max-deltas",
        type=int,
        default=4,
        help="compact once this many delta shards accumulated (default: 4)",
    )
    ingest_run.add_argument(
        "--max-tombstone-fraction",
        type=float,
        default=0.25,
        help=(
            "compact once tombstoned docs exceed this corpus fraction "
            "(default: 0.25; negative disables)"
        ),
    )
    ingest_run.add_argument(
        "--poll-interval-ms",
        type=float,
        default=200.0,
        help="sleep between feed polls in milliseconds (default: 200)",
    )
    ingest_run.add_argument(
        "--once",
        action="store_true",
        help=(
            "drain what is pending now (poll + compact until quiescent), "
            "print stats, and exit instead of running forever"
        ),
    )
    ingest_run.set_defaults(handler=_cmd_ingest_run)

    serve = subparsers.add_parser(
        "serve", help="serve a saved bundle over HTTP with microbatched decoding"
    )
    serve.add_argument("--bundle", required=True, help="bundle artifact to serve")
    serve.add_argument(
        "--index",
        help=(
            "recipe-index artifact or shard manifest to serve on "
            "POST /v1/search (optional)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080, help="bind port (default: 8080)")
    serve.add_argument(
        "--max-batch", type=int, default=256, help="flush threshold / per-kernel sentence cap"
    )
    serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        help="microbatch coalescing window in milliseconds (default: 2)",
    )
    # Accepted and ignored: the asyncio server is the only front end, and
    # scripts written when it was opt-in still pass the flag.
    serve.add_argument("--async", action="store_true", help=argparse.SUPPRESS)
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="concurrent requests admitted per endpoint (default: 64)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=128,
        help=(
            "requests allowed to wait for a slot per endpoint; "
            "excess load is shed with 429 + Retry-After (default: 128)"
        ),
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=30_000.0,
        help=(
            "total per-request budget in milliseconds, queue wait included; "
            "expired requests are abandoned (default: 30000, 0 disables)"
        ),
    )
    serve.add_argument(
        "--index-auto-reload",
        dest="index_auto_reload_s",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "hot-swap the index when its artifact changes on disk, checking "
            "at most every SECONDS per search (how the server follows an "
            "ingest daemon republishing the manifest; default: off)"
        ),
    )
    serve.add_argument(
        "--ingest-watch",
        metavar="PATH",
        help=(
            "also run an in-process ingest daemon tailing PATH (feed file or "
            "*.jsonl drop directory) into the --index shard manifest; "
            "implies --index-auto-reload 1.0 unless set explicitly"
        ),
    )
    serve.add_argument(
        "--no-dictionary",
        action="store_true",
        help="skip the frequency-dictionary filter on instruction predictions",
    )
    serve.add_argument("--verbose", action="store_true", help="log every HTTP request")
    serve.set_defaults(handler=_cmd_serve)

    chartag = subparsers.add_parser(
        "chartag",
        help=(
            "the character-level tagging workload: train, tag, serve and "
            "index through the same engine and serving stack"
        ),
    )
    chartag_commands = chartag.add_subparsers(
        dest="chartag_command", required=True, metavar="subcommand"
    )

    chartag_train = chartag_commands.add_parser(
        "train", help="train a char tagger on {text, tags} JSONL examples"
    )
    chartag_train.add_argument(
        "--input",
        required=True,
        help=(
            "training JSONL: {\"text\", \"tags\"} per line with one tag per "
            "character (`synth chartag` emits this shape)"
        ),
    )
    chartag_train.add_argument(
        "--output", required=True, help="path the chartag bundle artifact is written to"
    )
    chartag_train.add_argument(
        "--family",
        default="perceptron",
        choices=("crf", "perceptron", "hmm"),
        help="sequence-model family (default: perceptron)",
    )
    chartag_train.add_argument(
        "--seed", type=int, default=0, help="training seed (default: 0)"
    )
    chartag_train.set_defaults(handler=_cmd_chartag_train)

    chartag_tag = chartag_commands.add_parser(
        "tag",
        help=(
            "tag lines character-by-character with a saved chartag bundle "
            "(JSON per line on stdout), or structure a raw-document JSONL "
            "with --input"
        ),
    )
    chartag_tag.add_argument(
        "--bundle", required=True, help="chartag bundle artifact to load"
    )
    chartag_tag.add_argument(
        "--input",
        help=(
            "raw-document JSONL ({\"doc_id\", \"title\", \"lines\"} per line) "
            "to structure into recipe JSONL"
        ),
    )
    chartag_tag.add_argument(
        "--output",
        help="write structured-recipe JSONL here instead of stdout (with --input)",
    )
    chartag_tag.add_argument(
        "lines",
        nargs="*",
        help="text lines to tag (reads one line per stdin row when omitted)",
    )
    chartag_tag.set_defaults(handler=_cmd_chartag_tag)

    chartag_serve = chartag_commands.add_parser(
        "serve",
        help=(
            "serve a chartag bundle over HTTP: POST /v1/tag with "
            "{\"section\": \"char\"} through the shared microbatched stack"
        ),
    )
    chartag_serve.add_argument(
        "--bundle", required=True, help="chartag bundle artifact to serve"
    )
    chartag_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    chartag_serve.add_argument(
        "--port", type=int, default=8080, help="bind port (default: 8080)"
    )
    chartag_serve.add_argument(
        "--max-batch", type=int, default=256, help="flush threshold per batch decode"
    )
    chartag_serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        help="microbatch coalescing window in milliseconds (default: 2)",
    )
    chartag_serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    chartag_serve.set_defaults(handler=_cmd_chartag_serve)

    chartag_index = chartag_commands.add_parser(
        "index",
        help=(
            "structure a raw-document JSONL with a chartag bundle and build "
            "a recipe index from the result in one pass"
        ),
    )
    chartag_index.add_argument(
        "--bundle", required=True, help="chartag bundle artifact to structure with"
    )
    chartag_index.add_argument(
        "--input", required=True, help="raw-document JSONL to structure and index"
    )
    chartag_index.add_argument(
        "--output", required=True, help="path the index artifact is written to"
    )
    chartag_index.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition into N hash shards and write a shard manifest",
    )
    chartag_index.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for parallel shard builds with --shards (default: 1)",
    )
    chartag_index.add_argument(
        "--format",
        choices=("v1", "v2"),
        default="v1",
        help="artifact representation (default: v1)",
    )
    chartag_index.set_defaults(handler=_cmd_chartag_index)

    synth = subparsers.add_parser(
        "synth",
        help=(
            "generate seeded synthetic corpora offline (same seed + params "
            "= byte-identical output)"
        ),
    )
    synth_commands = synth.add_subparsers(
        dest="synth_command", required=True, metavar="subcommand"
    )

    synth_corpus = synth_commands.add_parser(
        "corpus",
        help=(
            "write a structured-recipe corpus JSONL (feeds `index build` and "
            "`ingest run` unchanged), optionally with a ground-truth manifest"
        ),
    )
    _add_synth_options(synth_corpus)
    synth_corpus.add_argument(
        "--output", required=True, help="corpus JSONL destination"
    )
    synth_corpus.add_argument(
        "--manifest",
        help=(
            "also write the ground-truth manifest artifact here (RNG "
            "contract, params, corpus sha256, per-field document frequencies)"
        ),
    )
    synth_corpus.add_argument(
        "--raw",
        help=(
            "also write the raw-document view ({\"doc_id\", \"title\", "
            "\"lines\"} JSONL) here — the input `chartag tag/index` structure"
        ),
    )
    synth_corpus.set_defaults(handler=_cmd_synth_corpus)

    synth_chartag = synth_commands.add_parser(
        "chartag",
        help=(
            "write char-level training examples ({\"text\", \"tags\", "
            "\"kind\"} JSONL) with gold tags aligned per character"
        ),
    )
    _add_synth_options(synth_chartag)
    synth_chartag.add_argument(
        "--output", required=True, help="training-example JSONL destination"
    )
    synth_chartag.add_argument(
        "--limit",
        type=int,
        default=None,
        help="stop after this many examples (default: every line of every doc)",
    )
    synth_chartag.set_defaults(handler=_cmd_synth_chartag)

    return parser


def _add_synth_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default: 0)")
    parser.add_argument(
        "--docs", type=int, default=1000, help="documents to generate (default: 1000)"
    )
    parser.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        help="entity-popularity skew; 0 = uniform (default: 1.1)",
    )


# ------------------------------------------------------------------- commands


def _cmd_experiments(arguments: argparse.Namespace) -> int:
    names = list(EXPERIMENTS) if arguments.experiment == "all" else [arguments.experiment]
    for index, name in enumerate(names):
        if index:
            print("\n" + "=" * 78 + "\n")
        print(f"## {name}")
        report = EXPERIMENTS[name](scale=arguments.scale, seed=arguments.seed)
        print(report)
    return 0


def _cmd_train(arguments: argparse.Namespace) -> int:
    from repro.experiments.common import build_corpora, train_modeler
    from repro.serve import ModelRegistry

    corpus = build_corpora(scale=arguments.scale, seed=arguments.seed).combined
    modeler = train_modeler(corpus, seed=arguments.seed, model_family=arguments.family)
    modeler.save_bundle(arguments.output)
    record = ModelRegistry().load(arguments.output)
    print(json.dumps({"saved": record.describe()}))
    return 0


def _make_service(arguments: argparse.Namespace, **service_options):
    from repro.serve import ModelRegistry, TaggingService

    registry = ModelRegistry()
    registry.load(arguments.bundle)
    return TaggingService(
        registry,
        apply_dictionary=not arguments.no_dictionary,
        **service_options,
    )


def _cmd_tag(arguments: argparse.Namespace) -> int:
    if arguments.input:
        return _cmd_tag_corpus(arguments)
    lines = arguments.lines or [line.rstrip("\n") for line in sys.stdin]
    with _make_service(arguments, max_delay_s=0.0) as service:
        for result in service.tag_lines(arguments.section or "instruction", lines):
            print(json.dumps(result))
    return 0


def _cmd_tag_corpus(arguments: argparse.Namespace) -> int:
    """Stream a recipe-corpus JSONL through the structuring pipeline."""
    from repro.corpus import CorpusReader, StructuredRecipeSink, plan_corpus_chunks, structure_chunks

    if arguments.lines:
        print("tag: --input and positional lines are mutually exclusive", file=sys.stderr)
        return 2
    if arguments.section:
        print(
            "tag: --section applies to line mode only; --input structures both sections",
            file=sys.stderr,
        )
        return 2
    chunks = plan_corpus_chunks(
        CorpusReader(arguments.input), max_recipes=arguments.chunk_size
    )
    # Workers (or the in-process fallback) load the bundle artifact themselves.
    structured = structure_chunks(
        chunks,
        workers=arguments.workers,
        bundle_path=arguments.bundle,
        apply_dictionary=not arguments.no_dictionary,
    )
    with StructuredRecipeSink(arguments.output or sys.stdout) as sink:
        for recipe in structured:
            sink.write(recipe)
        count = sink.count
    print(
        f"structured {count} recipes from {arguments.input} "
        f"({arguments.workers} worker{'s' if arguments.workers != 1 else ''})",
        file=sys.stderr,
    )
    return 0


def _cmd_index_build(arguments: argparse.Namespace) -> int:
    from repro.index import IndexBuilder, build_sharded_index

    if arguments.shards is None and arguments.workers != 1:
        print(
            "index build: --workers applies to sharded builds only; add --shards N",
            file=sys.stderr,
        )
        return 2
    if arguments.shards is not None:
        manifest = build_sharded_index(
            arguments.input,
            arguments.output,
            num_shards=arguments.shards,
            workers=arguments.workers,
            format=arguments.format,
        )
        print(json.dumps({"indexed": manifest.describe(), "output": arguments.output}))
        return 0
    index = IndexBuilder.build_from_jsonl(arguments.input)
    index.save(arguments.output, kind=arguments.format)
    # Report the format that landed on disk, not the in-memory builder's.
    summary = {**index.stats(), "format": arguments.format}
    print(json.dumps({"indexed": summary, "output": arguments.output}))
    return 0


def _cmd_index_merge(arguments: argparse.Namespace) -> int:
    from repro.index import ShardedRecipeIndex, merge_shards

    sharded = ShardedRecipeIndex.load(arguments.manifest)
    merged = merge_shards(
        sharded,
        num_shards=arguments.shards,
        manifest_path=arguments.output,
        format=arguments.format,
    )
    if isinstance(merged, ShardedRecipeIndex):
        summary = merged.manifest.describe()
    else:
        summary = merged.stats()
    print(json.dumps({"merged": summary, "output": arguments.output}))
    return 0


def _cmd_index_update(arguments: argparse.Namespace) -> int:
    from repro.index import add_jsonl

    manifest = add_jsonl(arguments.manifest, arguments.input, format=arguments.format)
    print(json.dumps({"updated": manifest.describe(), "manifest": arguments.manifest}))
    return 0


def _cmd_index_delete(arguments: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.index import delete_docs

    if not arguments.recipe_ids and not arguments.doc_ids:
        raise ConfigurationError(
            "index delete needs at least one --recipe-id or --doc-id"
        )
    manifest = delete_docs(
        arguments.manifest,
        doc_ids=arguments.doc_ids,
        recipe_ids=arguments.recipe_ids,
    )
    print(json.dumps({"deleted": manifest.describe(), "manifest": arguments.manifest}))
    return 0


def _cmd_ingest_run(arguments: argparse.Namespace) -> int:
    import time

    from repro.ingest import IngestDaemon, TieredCompactionPolicy

    policy = TieredCompactionPolicy(
        max_deltas=arguments.max_deltas,
        max_tombstone_fraction=(
            arguments.max_tombstone_fraction
            if arguments.max_tombstone_fraction >= 0
            else None
        ),
    )
    daemon = IngestDaemon(
        arguments.manifest,
        arguments.watch,
        policy=policy,
        num_shards=arguments.shards,
        format=arguments.format,
        poll_interval_s=arguments.poll_interval_ms / 1000.0,
    )
    if arguments.once:
        while daemon.run_once() is not None:
            pass
        print(json.dumps({"ingest": daemon.stats(), "manifest": arguments.manifest}))
        return 0
    daemon.start()
    try:
        while True:
            time.sleep(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        daemon.stop()
    print(json.dumps({"ingest": daemon.stats(), "manifest": arguments.manifest}))
    return 0


def _cmd_index_migrate(arguments: argparse.Namespace) -> int:
    from repro.index import RecipeIndex, migrate_manifest

    if arguments.manifest:
        manifest = migrate_manifest(arguments.manifest, format=arguments.format)
        formats: dict[str, int] = {}
        for entry in manifest.entries:
            formats[entry.format] = formats.get(entry.format, 0) + 1
        print(
            json.dumps(
                {
                    "migrated": manifest.describe(),
                    "shard_formats": formats,
                    "manifest": arguments.manifest,
                }
            )
        )
        return 0
    index = RecipeIndex.load(arguments.index_path)
    output = arguments.output or arguments.index_path
    index.save(output, kind=arguments.format)
    print(json.dumps({"migrated": {"format": arguments.format}, "output": str(output)}))
    return 0


def _cmd_index_inspect(arguments: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.index import (
        MANIFEST_ARTIFACT_FORMAT,
        ShardManifest,
        load_index_path,
    )

    path = Path(arguments.index_path)
    try:
        manifest = ShardManifest.load(path)
    except Exception:
        manifest = None
    if manifest is not None:
        shards = []
        for entry in manifest.entries:
            shard_path = path.parent / entry.path
            if not shard_path.exists() or entry.kind == "tombstone":
                # Tombstone shards carry doc ids, not postings — doc stats
                # do not apply.
                has_stats = None
            elif entry.format == "v1":
                # v1 carries full postings, so doc stats are always
                # computable (the loader derives them lazily in memory).
                has_stats = True
            else:
                has_stats = load_index_path(shard_path).has_doc_stats
            shards.append(
                {
                    "path": entry.path,
                    "kind": entry.kind,
                    "format": entry.format,
                    "docs": entry.docs,
                    "doc_ids": list(entry.doc_ids) if entry.doc_ids else None,
                    "size_bytes": (
                        shard_path.stat().st_size if shard_path.exists() else None
                    ),
                    "sha256": entry.sha256,
                    "doc_stats": has_stats,
                }
            )
        print(
            json.dumps(
                {
                    "artifact": MANIFEST_ARTIFACT_FORMAT,
                    **manifest.describe(),
                    "size_bytes": path.stat().st_size,
                    "shards": shards,
                    # v2 shards written before the doc-stats section existed:
                    # ranked search over them falls back to decoding postings,
                    # so mixed-generation manifests are worth flagging.
                    "doc_stats_missing": [
                        shard["path"] for shard in shards if shard["doc_stats"] is False
                    ],
                }
            )
        )
        return 0
    index = load_index_path(path)
    print(
        json.dumps(
            {
                "artifact": "recipe-index",
                **index.stats(),
                "size_bytes": path.stat().st_size,
                "doc_stats": _doc_stats_summary(index),
            }
        )
    )
    return 0


def _doc_stats_summary(index) -> dict:
    """The doc-stats view `index inspect` prints for a monolithic artifact.

    A v2 artifact written before the doc-stats section existed reports
    ``{"present": false}`` instead of decoding every posting to rebuild it.
    """
    if not index.has_doc_stats:
        return {"present": False}
    documents = index.doc_count
    total = index.total_occurrences()
    return {
        "present": True,
        "documents": documents,
        "total_occurrences": total,
        "mean_doc_length": (total / documents) if documents else 0.0,
        "term_table_size": sum(index.stats()["terms"].values()),
    }


def _cmd_index_query(arguments: argparse.Namespace) -> int:
    from repro.errors import QueryError
    from repro.index import QueryEngine, load_index_path, scan_structured_jsonl

    if bool(arguments.index_path) == bool(arguments.scan):
        print(
            "index query: exactly one of --index or --scan is required",
            file=sys.stderr,
        )
        return 2
    rank = arguments.rank or arguments.top_k is not None
    limit = arguments.top_k if arguments.top_k is not None else arguments.limit
    facets = None
    try:
        if arguments.index_path:
            # Accepts a monolithic index artifact or a shard manifest; the
            # engine answers identically from either.
            engine = QueryEngine(
                load_index_path(arguments.index_path), workers=arguments.workers
            )
            result = engine.search(
                arguments.query, limit=limit, rank=rank, facets=arguments.facets or None
            )
            total, matches = result[:2]
            if arguments.facets:
                facets = result[2]
        elif rank:
            # The scoring oracle over a corpus scan: same scores, same order
            # as --index mode, corpus-scan cost.
            from repro.corpus.sink import iter_structured_jsonl
            from repro.index import rank_recipes

            total, matches = rank_recipes(
                iter_structured_jsonl(arguments.scan), arguments.query, limit=limit
            )
        else:
            # Scan the whole file so the reported total matches --index mode;
            # --limit only truncates what is printed.
            matches = scan_structured_jsonl(arguments.scan, arguments.query)
            total = len(matches)
            if limit is not None:
                matches = matches[: max(limit, 0)]
        if arguments.facets and not arguments.index_path:
            facets = _scan_facets(arguments.scan, arguments.query, arguments.facets)
    except QueryError as error:
        print(f"index query: {error}", file=sys.stderr)
        return 2
    for match in matches:
        print(json.dumps(match.to_dict()))
    if facets is not None:
        print(
            json.dumps(
                {
                    "facets": {
                        field: [{"term": term, "count": count} for term, count in rows]
                        for field, rows in facets.items()
                    }
                }
            )
        )
    source = arguments.index_path or arguments.scan
    print(f"{total} match{'es' if total != 1 else ''} in {source}", file=sys.stderr)
    return 0


def _scan_facets(
    path: str, query: str, fields: list[str]
) -> dict[str, list[tuple[str, int]]]:
    """Brute-force facet aggregation over a structured JSONL (scan parity)."""
    from collections import Counter

    from repro.corpus.sink import iter_structured_jsonl
    from repro.errors import QueryError
    from repro.index import FIELDS, extract_entities, matches_recipe, parse_query

    counters: dict[str, Counter] = {}
    for field in fields:
        if field not in FIELDS:
            raise QueryError(f"unknown facet field {field!r}; expected one of {FIELDS}")
        counters[field] = Counter()
    node = parse_query(query)
    for recipe in iter_structured_jsonl(path):
        if not matches_recipe(node, recipe):
            continue
        entities = extract_entities(recipe)
        for field, counter in counters.items():
            counter.update(entities[field].keys())
    return {
        field: sorted(counter.items(), key=lambda row: (-row[1], row[0]))[:10]
        for field, counter in counters.items()
    }


def _print_serving_banner(arguments, service, search, port: int) -> None:
    record = service.model_record()
    print(
        f"serving bundle {record.path} (sha256 {record.sha256[:12]}, "
        f"generation {record.generation}) on http://{arguments.host}:{port}"
    )
    if search is not None:
        index_record = search.record()
        shards = getattr(index_record.bundle, "shard_count", 1)
        print(
            f"serving index {index_record.path} (sha256 {index_record.sha256[:12]}, "
            f"{index_record.bundle.doc_count} recipes, "
            f"{shards} shard{'s' if shards != 1 else ''}) on POST /v1/search"
        )


def _cmd_serve(arguments: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.serve import AdmissionPolicy, SearchService

    policy = AdmissionPolicy(
        max_inflight=arguments.max_inflight,
        queue_depth=arguments.queue_depth,
        deadline_s=(
            arguments.deadline_ms / 1000.0 if arguments.deadline_ms > 0 else None
        ),
    )
    service = _make_service(
        arguments,
        max_batch=arguments.max_batch,
        max_delay_s=arguments.max_delay_ms / 1000.0,
    )
    auto_reload_s = arguments.index_auto_reload_s
    if arguments.ingest_watch and auto_reload_s is None:
        auto_reload_s = 1.0  # an ingesting server must follow its own writes
    search = (
        SearchService.from_artifact(
            arguments.index, auto_reload_interval_s=auto_reload_s
        )
        if arguments.index
        else None
    )
    ingest = None
    if arguments.ingest_watch:
        if not arguments.index:
            raise ConfigurationError(
                "--ingest-watch needs --index pointing at the shard manifest "
                "to ingest into"
            )
        from repro.ingest import IngestDaemon

        ingest = IngestDaemon(arguments.index, arguments.ingest_watch)
        ingest.start()
    try:
        return _run_server(
            arguments,
            service,
            lambda port: _print_serving_banner(arguments, service, search, port),
            search=search,
            ingest=ingest,
            policy=policy,
        )
    finally:
        if ingest is not None:
            ingest.stop()


def _run_server(
    arguments: argparse.Namespace,
    service,
    banner: Callable[[int], None],
    *,
    search=None,
    ingest=None,
    policy=None,
) -> int:
    """Serve ``service`` on the asyncio front end until SIGINT, then close it.

    ``banner`` gets the bound port (``--port 0`` picks a free one) and
    prints the startup line clients read it from; ``policy`` is the
    per-endpoint :class:`~repro.serve.admission.AdmissionPolicy` (the
    default policy when ``None``).
    """
    import asyncio

    from repro.serve import AdmissionController, AsyncTaggingServer

    server = AsyncTaggingServer(
        service,
        search=search,
        host=arguments.host,
        port=arguments.port,
        admission=AdmissionController(policy),
        ingest=ingest,
        verbose=arguments.verbose,
    )

    async def run() -> None:
        await server.start()
        banner(server.port)
        sys.stdout.flush()
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


# ------------------------------------------------------------ char workload


def _chartag_registry(bundle_path: str):
    from repro.chartag import CharTagBundle
    from repro.serve import ModelRegistry

    registry = ModelRegistry(
        loader=lambda text, source: CharTagBundle.loads(text, source=source)
    )
    registry.load(bundle_path)
    return registry


def _cmd_chartag_train(arguments: argparse.Namespace) -> int:
    from repro.chartag import CharTagBundle, CharTagger
    from repro.corpus.reader import iter_jsonl

    texts: list[str] = []
    tag_sequences: list[list[str]] = []
    for example in iter_jsonl(arguments.input, json.loads, what="chartag example"):
        texts.append(example["text"])
        tag_sequences.append(example["tags"])
    tagger = CharTagger(family=arguments.family, seed=arguments.seed)
    tagger.train(texts, tag_sequences)
    CharTagBundle(tagger).save(arguments.output)
    record = _chartag_registry(arguments.output).get("default")
    print(json.dumps({"saved": record.describe(), "examples": len(texts)}))
    return 0


def _cmd_chartag_tag(arguments: argparse.Namespace) -> int:
    from repro.chartag import CharTagBundle, structure_raw_jsonl

    if arguments.input:
        if arguments.lines:
            print(
                "chartag tag: --input and positional lines are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        tagger = CharTagBundle.load(arguments.bundle).tagger
        count = structure_raw_jsonl(
            tagger, arguments.input, arguments.output or "/dev/stdout"
        )
        print(
            f"structured {count} documents from {arguments.input}", file=sys.stderr
        )
        return 0
    from repro.chartag import CHAR_SECTION, CharTagService

    lines = arguments.lines or [line.rstrip("\n") for line in sys.stdin]
    registry = _chartag_registry(arguments.bundle)
    with CharTagService(registry, max_delay_s=0.0) as service:
        for result in service.tag_lines(CHAR_SECTION, lines):
            print(json.dumps(result))
    return 0


def _cmd_chartag_serve(arguments: argparse.Namespace) -> int:
    from repro.chartag import CharTagService

    registry = _chartag_registry(arguments.bundle)
    service = CharTagService(
        registry,
        max_batch=arguments.max_batch,
        max_delay_s=arguments.max_delay_ms / 1000.0,
    )
    record = service.model_record()
    return _run_server(
        arguments,
        service,
        lambda port: print(
            f"serving chartag bundle {record.path} (sha256 {record.sha256[:12]}, "
            f"generation {record.generation}) on http://{arguments.host}:{port} "
            '(section "char")'
        ),
    )


def _cmd_chartag_index(arguments: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from repro.chartag import CharTagBundle, structure_raw_jsonl
    from repro.index import IndexBuilder, build_sharded_index

    tagger = CharTagBundle.load(arguments.bundle).tagger
    output = Path(arguments.output)
    with tempfile.TemporaryDirectory(dir=output.parent) as staging:
        structured = Path(staging) / "structured.jsonl"
        count = structure_raw_jsonl(tagger, arguments.input, structured)
        if arguments.shards is not None:
            manifest = build_sharded_index(
                structured,
                output,
                num_shards=arguments.shards,
                workers=arguments.workers,
                format=arguments.format,
            )
            summary = manifest.describe()
        else:
            index = IndexBuilder.build_from_jsonl(structured)
            index.save(output, kind=arguments.format)
            summary = {**index.stats(), "format": arguments.format}
    print(
        json.dumps(
            {"structured": count, "indexed": summary, "output": arguments.output}
        )
    )
    return 0


# ---------------------------------------------------------- synthetic corpus


def _synth_params(arguments: argparse.Namespace):
    from repro.corpus.synth import SynthParams

    return SynthParams(
        seed=arguments.seed, docs=arguments.docs, zipf_s=arguments.zipf_s
    )


def _cmd_synth_corpus(arguments: argparse.Namespace) -> int:
    from repro.corpus.synth import write_raw_documents, write_synth_corpus

    summary = write_synth_corpus(
        _synth_params(arguments),
        arguments.output,
        manifest_path=arguments.manifest,
    )
    if arguments.raw:
        write_raw_documents(_synth_params(arguments), arguments.raw)
        summary["raw"] = arguments.raw
    print(json.dumps(summary))
    return 0


def _cmd_synth_chartag(arguments: argparse.Namespace) -> int:
    from repro.corpus.synth import write_chartag_examples

    count = write_chartag_examples(
        _synth_params(arguments), arguments.output, limit=arguments.limit
    )
    print(json.dumps({"examples": count, "path": arguments.output}))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the console script and ``python -m repro``."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
