"""Tests for the command-line interface."""

import http.client
import json
import signal

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_every_experiment_is_a_choice(self):
        parser = build_parser()
        arguments = parser.parse_args(["table4", "--scale", "tiny", "--seed", "3"])
        assert arguments.experiment == "table4"
        assert arguments.scale == "tiny"
        assert arguments.seed == 3

    def test_all_is_accepted(self):
        assert build_parser().parse_args(["all"]).experiment == "all"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", "huge"])

    def test_registry_covers_every_paper_artifact(self):
        for name in ("table1", "table3", "table4", "table5", "fig2", "fig3", "fig4", "fig5",
                     "conclusions", "crossval", "ablations"):
            assert name in EXPERIMENTS


def _http(port, method, path, body=None):
    """One request to a server on localhost; returns ``(status, document)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path, body=None if body is None else json.dumps(body))
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestServingCommands:
    @pytest.fixture(scope="class")
    def bundle_path(self, modeler, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "bundle.json"
        modeler.save_bundle(path)
        return path

    def test_train_parser(self):
        arguments = build_parser().parse_args(
            ["train", "--scale", "tiny", "--output", "out.json", "--family", "crf"]
        )
        assert arguments.command == "train"
        assert arguments.family == "crf"
        assert arguments.output == "out.json"

    def test_tag_requires_a_bundle(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tag", "some line"])

    def test_serve_parser_defaults(self):
        arguments = build_parser().parse_args(["serve", "--bundle", "b.json"])
        assert arguments.host == "127.0.0.1"
        assert arguments.port == 8080
        assert arguments.max_delay_ms == 2.0

    def test_serve_accepts_the_async_flag_but_hides_it(self, capsys):
        build_parser().parse_args(["serve", "--bundle", "b.json", "--async"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        assert "--async" not in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [[], ["--async"]], ids=["default", "async-flag"])
    def test_serve_runs_the_admission_gated_server(self, bundle_path, serve_process, flags):
        process, port = serve_process(
            ["serve", "--bundle", str(bundle_path), "--port", "0", "--max-inflight", "3",
             *flags]
        )
        body = {"section": "ingredient", "lines": ["2 cups sugar"]}
        assert _http(port, "POST", "/v1/tag", body)[0] == 200
        status, stats = _http(port, "GET", "/stats")
        assert status == 200
        assert stats["admission"]["tag"]["max_inflight"] == 3
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 0

    def test_tag_command_prints_json_per_line(self, bundle_path, modeler, capsys):
        exit_code = main(
            ["tag", "--bundle", str(bundle_path), "--section", "ingredient",
             "2 cups sugar", "1 large onion, chopped"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        rows = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(rows) == 2
        expected = [tag for _, tag in modeler.components.ingredient_pipeline.tag_phrase("2 cups sugar")]
        assert rows[0]["tags"] == expected

    def test_tag_command_instruction_section(self, bundle_path, capsys):
        exit_code = main(
            ["tag", "--bundle", str(bundle_path), "--section", "instruction",
             "Mix the sugar and onion in a bowl."]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        row = json.loads(captured.out.strip())
        assert row["tokens"][0] == "Mix"
        assert len(row["tags"]) == len(row["tokens"])


class TestTagCorpusMode:
    @pytest.fixture(scope="class")
    def bundle_path(self, modeler, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-corpus") / "bundle.json"
        modeler.save_bundle(path)
        return path

    @pytest.fixture(scope="class")
    def corpus_path(self, corpus, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-corpus") / "corpus.jsonl"
        corpus.save_jsonl(path)
        return path

    def test_streaming_flags_parse(self):
        arguments = build_parser().parse_args(
            ["tag", "--bundle", "b.json", "--input", "c.jsonl", "--output", "o.jsonl",
             "--workers", "4", "--chunk-size", "16"]
        )
        assert arguments.input == "c.jsonl"
        assert arguments.output == "o.jsonl"
        assert arguments.workers == 4
        assert arguments.chunk_size == 16

    def test_structures_corpus_to_output_file(
        self, bundle_path, corpus_path, corpus, modeler, tmp_path, capsys
    ):
        from repro.corpus import iter_structured_jsonl

        output = tmp_path / "structured.jsonl"
        exit_code = main(
            ["tag", "--bundle", str(bundle_path), "--input", str(corpus_path),
             "--output", str(output), "--chunk-size", "8"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert f"structured {len(corpus)} recipes" in captured.err
        structured = list(iter_structured_jsonl(output))
        assert structured == [modeler.model_recipe(recipe) for recipe in corpus]

    def test_structures_corpus_to_stdout(self, bundle_path, corpus_path, corpus, capsys):
        from repro.core.recipe_model import StructuredRecipe

        exit_code = main(
            ["tag", "--bundle", str(bundle_path), "--input", str(corpus_path)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        lines = captured.out.strip().splitlines()
        assert len(lines) == len(corpus)
        first = StructuredRecipe.from_json(lines[0])
        assert first.recipe_id == corpus[0].recipe_id

    def test_input_and_lines_are_mutually_exclusive(
        self, bundle_path, corpus_path, capsys
    ):
        exit_code = main(
            ["tag", "--bundle", str(bundle_path), "--input", str(corpus_path),
             "some line"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "mutually exclusive" in captured.err

    def test_input_rejects_an_explicit_section(self, bundle_path, corpus_path, capsys):
        exit_code = main(
            ["tag", "--bundle", str(bundle_path), "--input", str(corpus_path),
             "--section", "ingredient"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--section" in captured.err


class TestIndexCommands:
    @pytest.fixture(scope="class")
    def structured_path(self, modeler, corpus, tmp_path_factory):
        from repro.corpus import write_structured_jsonl

        path = tmp_path_factory.mktemp("cli-index") / "structured.jsonl"
        write_structured_jsonl(path, (modeler.model_recipe(recipe) for recipe in corpus))
        return path

    @pytest.fixture(scope="class")
    def index_path(self, structured_path, tmp_path_factory):
        from repro.index import IndexBuilder

        path = tmp_path_factory.mktemp("cli-index") / "index.json"
        IndexBuilder.build_from_jsonl(structured_path).save(path)
        return path

    @pytest.fixture(scope="class")
    def query(self, index_path):
        """A process query guaranteed to match at least one indexed recipe."""
        from repro.index import RecipeIndex

        index = RecipeIndex.load(index_path)
        term = max(
            index.terms("process"), key=lambda t: len(index.postings("process", t))
        )
        return f'process:"{term}" AND NOT ingredient:"no such thing"'

    def test_build_prints_a_summary(self, structured_path, tmp_path, capsys):
        output = tmp_path / "index.json"
        exit_code = main(
            ["index", "build", "--input", str(structured_path), "--output", str(output)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        summary = json.loads(captured.out)
        assert summary["output"] == str(output)
        assert summary["indexed"]["documents"] > 0
        assert output.exists()

    def test_query_results_equal_a_brute_force_scan(
        self, index_path, structured_path, query, capsys
    ):
        from repro.index import scan_structured_jsonl

        exit_code = main(["index", "query", "--index", str(index_path), query])
        captured = capsys.readouterr()
        assert exit_code == 0
        rows = [json.loads(line) for line in captured.out.strip().splitlines()]
        expected = [m.to_dict() for m in scan_structured_jsonl(structured_path, query)]
        assert rows == expected
        assert len(expected) > 0
        assert f"{len(expected)} matches" in captured.err

    def test_scan_mode_prints_identical_results(
        self, index_path, structured_path, query, capsys
    ):
        assert main(["index", "query", "--index", str(index_path), query]) == 0
        indexed_out = capsys.readouterr().out
        assert main(["index", "query", "--scan", str(structured_path), query]) == 0
        scanned_out = capsys.readouterr().out
        assert indexed_out == scanned_out

    def test_limit_caps_the_output(self, index_path, query, capsys):
        exit_code = main(
            ["index", "query", "--index", str(index_path), "--limit", "1", query]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert len(captured.out.strip().splitlines()) == 1

    def test_scan_mode_reports_the_true_total_under_a_limit(
        self, index_path, structured_path, query, capsys
    ):
        def total_reported(argv) -> str:
            assert main(argv) == 0
            return capsys.readouterr().err.strip().split(" ")[0]

        unlimited = total_reported(["index", "query", "--index", str(index_path), query])
        indexed = total_reported(
            ["index", "query", "--index", str(index_path), "--limit", "1", query]
        )
        scanned = total_reported(
            ["index", "query", "--scan", str(structured_path), "--limit", "1", query]
        )
        # Both modes report the full match count, not the printed count.
        assert indexed == scanned == unlimited

    def test_exactly_one_source_is_required(self, index_path, structured_path, capsys):
        assert main(["index", "query", "ingredient:salt"]) == 2
        assert "exactly one of --index or --scan" in capsys.readouterr().err
        assert main(
            ["index", "query", "--index", str(index_path), "--scan",
             str(structured_path), "ingredient:salt"]
        ) == 2

    def test_malformed_query_is_a_usage_error(self, index_path, capsys):
        exit_code = main(["index", "query", "--index", str(index_path), "nonsense"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "malformed term" in captured.err

    def test_serve_parser_accepts_an_index(self):
        arguments = build_parser().parse_args(
            ["serve", "--bundle", "b.json", "--index", "i.json"]
        )
        assert arguments.index == "i.json"


class TestShardCommands:
    @pytest.fixture(scope="class")
    def structured_path(self, modeler, corpus, tmp_path_factory):
        from repro.corpus import write_structured_jsonl

        path = tmp_path_factory.mktemp("cli-shards") / "structured.jsonl"
        write_structured_jsonl(path, (modeler.model_recipe(recipe) for recipe in corpus))
        return path

    @pytest.fixture(scope="class")
    def query(self, structured_path):
        from repro.index import IndexBuilder

        index = IndexBuilder.build_from_jsonl(structured_path)
        term = max(
            index.terms("process"), key=lambda t: len(index.postings("process", t))
        )
        return f'process:"{term}"'

    def test_build_shards_writes_a_manifest(self, structured_path, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        exit_code = main(
            ["index", "build", "--input", str(structured_path),
             "--output", str(manifest), "--shards", "2", "--workers", "2"]
        )
        summary = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert summary["indexed"]["shards"] == 2
        assert summary["indexed"]["generation"] == 1
        assert manifest.exists()

    def test_manifest_query_equals_monolithic_query(
        self, structured_path, query, tmp_path, capsys
    ):
        manifest = tmp_path / "manifest.json"
        mono = tmp_path / "mono.json"
        main(["index", "build", "--input", str(structured_path),
              "--output", str(manifest), "--shards", "3"])
        main(["index", "build", "--input", str(structured_path),
              "--output", str(mono)])
        capsys.readouterr()
        assert main(["index", "query", "--index", str(manifest), query]) == 0
        from_manifest = capsys.readouterr().out
        assert main(["index", "query", "--index", str(mono), query]) == 0
        assert from_manifest == capsys.readouterr().out
        assert from_manifest.strip()

    def test_update_then_merge_round_trip(self, structured_path, query, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        main(["index", "build", "--input", str(structured_path),
              "--output", str(manifest), "--shards", "2"])
        capsys.readouterr()

        exit_code = main(["index", "update", "--manifest", str(manifest),
                          "--input", str(structured_path)])
        summary = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert summary["updated"]["deltas"] == 1
        assert summary["updated"]["generation"] == 2

        exit_code = main(["index", "merge", "--manifest", str(manifest),
                          "--output", str(manifest), "--shards", "2"])
        summary = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert summary["merged"]["deltas"] == 0
        assert summary["merged"]["generation"] == 3

        mono = tmp_path / "mono.json"
        exit_code = main(["index", "merge", "--manifest", str(manifest),
                          "--output", str(mono)])
        summary = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert summary["merged"]["documents"] > 0
        # The compacted monolithic artifact answers the probe query too.
        assert main(["index", "query", "--index", str(mono), query]) == 0
        assert capsys.readouterr().out.strip()

    def test_workers_without_shards_is_a_usage_error(self, tmp_path, capsys):
        exit_code = main(
            ["index", "build", "--input", "s.jsonl",
             "--output", str(tmp_path / "i.json"), "--workers", "4"]
        )
        assert exit_code == 2
        assert "--shards" in capsys.readouterr().err

    def test_build_parser_accepts_shard_flags(self):
        arguments = build_parser().parse_args(
            ["index", "build", "--input", "s.jsonl", "--output", "m.json",
             "--shards", "4", "--workers", "2"]
        )
        assert arguments.shards == 4
        assert arguments.workers == 2

    def test_merge_and_update_parsers(self):
        arguments = build_parser().parse_args(
            ["index", "merge", "--manifest", "m.json", "--output", "out.json"]
        )
        assert arguments.shards is None
        arguments = build_parser().parse_args(
            ["index", "update", "--manifest", "m.json", "--input", "d.jsonl"]
        )
        assert arguments.input == "d.jsonl"


class TestMain:
    def test_main_runs_a_cheap_experiment(self, capsys):
        exit_code = main(["fig3", "--scale", "tiny", "--seed", "0"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "## fig3" in captured.out
        assert "dobj" in captured.out

    def test_main_runs_table3(self, capsys):
        exit_code = main(["table3", "--scale", "tiny"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Table III" in captured.out


class TestRankedQueryCli:
    @pytest.fixture(scope="class")
    def structured_path(self, modeler, corpus, tmp_path_factory):
        from repro.corpus import write_structured_jsonl

        path = tmp_path_factory.mktemp("cli-rank") / "structured.jsonl"
        write_structured_jsonl(path, (modeler.model_recipe(recipe) for recipe in corpus))
        return path

    @pytest.fixture(scope="class")
    def v2_index_path(self, structured_path, tmp_path_factory):
        from repro.index import IndexBuilder

        path = tmp_path_factory.mktemp("cli-rank") / "index.bin"
        IndexBuilder.build_from_jsonl(structured_path).save(path, kind="v2")
        return path

    @pytest.fixture(scope="class")
    def query(self, v2_index_path):
        from repro.index import RecipeIndex

        index = RecipeIndex.load(v2_index_path)
        term = max(
            index.terms("process"), key=lambda t: index.posting_count("process", t)
        )
        return f'process:"{term}" OR ingredient:sugar'

    def test_ranked_output_carries_descending_scores(
        self, v2_index_path, query, capsys
    ):
        exit_code = main(
            ["index", "query", "--index", str(v2_index_path), "--rank", query]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        rows = [json.loads(line) for line in captured.out.strip().splitlines()]
        scores = [row["score"] for row in rows]
        assert len(scores) > 0
        assert scores == sorted(scores, reverse=True)

    def test_top_k_implies_rank_and_caps_output(self, v2_index_path, query, capsys):
        assert main(["index", "query", "--index", str(v2_index_path), "--rank", query]) == 0
        full = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert main(["index", "query", "--index", str(v2_index_path), "-k", "1", query]) == 0
        captured = capsys.readouterr()
        top = [json.loads(l) for l in captured.out.strip().splitlines()]
        assert top == full[:1]
        # The true total is still reported, not the printed count.
        assert captured.err.strip().split(" ")[0] == str(len(full))

    def test_ranked_scan_equals_ranked_index(
        self, v2_index_path, structured_path, query, capsys
    ):
        assert main(["index", "query", "--index", str(v2_index_path), "-k", "5", query]) == 0
        indexed_out = capsys.readouterr().out
        assert main(["index", "query", "--scan", str(structured_path), "-k", "5", query]) == 0
        assert capsys.readouterr().out == indexed_out

    def test_facets_print_a_trailing_json_object(
        self, v2_index_path, structured_path, query, capsys
    ):
        argv = ["index", "query", "--index", str(v2_index_path),
                "--facet", "ingredient", "--facet", "process", query]
        assert main(argv) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last["facets"]) == {"ingredient", "process"}
        assert all(
            {"term", "count"} == set(row) for rows in last["facets"].values() for row in rows
        )
        # Scan mode aggregates identically.
        assert main(["index", "query", "--scan", str(structured_path),
                     "--facet", "ingredient", "--facet", "process", query]) == 0
        scanned = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert scanned == last

    def test_unknown_facet_field_is_a_usage_error(self, v2_index_path, capsys):
        argv = ["index", "query", "--index", str(v2_index_path),
                "--facet", "cuisine", "ingredient:sugar"]
        assert main(argv) == 2
        assert "unknown facet field" in capsys.readouterr().err

    def test_inspect_prints_doc_stats(self, v2_index_path, capsys):
        assert main(["index", "inspect", "--index", str(v2_index_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        stats = summary["doc_stats"]
        assert stats["present"] is True
        assert stats["documents"] == summary["documents"] > 0
        assert stats["total_occurrences"] > 0
        assert stats["mean_doc_length"] == pytest.approx(
            stats["total_occurrences"] / stats["documents"]
        )
        assert stats["term_table_size"] == sum(summary["terms"].values())

    def test_inspect_flags_a_pre_doc_stats_v2_artifact(self, capsys):
        from pathlib import Path

        fixture = (
            Path(__file__).parent / "fixtures" / "golden_index_v2_pr6.bin"
        )
        assert main(["index", "inspect", "--index", str(fixture)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["doc_stats"] == {"present": False}

    def test_inspect_reports_per_shard_doc_stats(
        self, structured_path, tmp_path, capsys
    ):
        manifest = tmp_path / "manifest.json"
        assert main(["index", "build", "--input", str(structured_path),
                     "--output", str(manifest), "--shards", "2",
                     "--format", "v2"]) == 0
        capsys.readouterr()
        assert main(["index", "inspect", "--index", str(manifest)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert [shard["doc_stats"] for shard in summary["shards"]] == [True, True]
        assert summary["doc_stats_missing"] == []
