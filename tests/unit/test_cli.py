"""The command-line interface: build, search, stats."""

import json
import re

import pytest

from repro.cli import main
from repro.kg.loaders.jsonkb import dump_json_kb
from repro.datasets.example import example_kb


@pytest.fixture()
def kb_file(tmp_path):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(dump_json_kb(example_kb())))
    return path


@pytest.fixture()
def index_file(kb_file, tmp_path):
    path = tmp_path / "kb.idx"
    code = main(["build", str(kb_file), "-d", "3", "-o", str(path)])
    assert code == 0
    return path


def full_render_blocks(index_file, query, k, max_rows):
    """The answer blocks ``search``/``serve`` print, built the way they
    were before rows were limited upstream: every kept subtree turned
    into a ``ValidSubtree``, every row composed, the printer cutting."""
    from repro.core.table import compose_table
    from repro.search.service import SearchService

    service = SearchService.from_file(index_file)
    result = service.search(query, k=k)
    graph = service.snapshot().graph
    lines = []
    for rank, answer in enumerate(result.answers, start=1):
        lines.append(
            f"--- #{rank}  score={answer.score:.4f} "
            f"rows={answer.num_subtrees} ---"
        )
        lines.append(answer.pattern.format(graph, result.query))
        table = compose_table(answer.pattern, answer.materialize(), graph)
        lines.append(table.to_ascii(max_rows))
        lines.append("")
    return "\n".join(lines) + "\n"


class TestBuild:
    def test_build_writes_index(self, kb_file, tmp_path, capsys):
        out_path = tmp_path / "out.idx"
        code = main(["build", str(kb_file), "-o", str(out_path)])
        assert code == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "entries" in out
        assert "wrote" in out

    def test_build_missing_file_errors(self, tmp_path, capsys):
        code = main(
            ["build", str(tmp_path / "absent.json"), "-o", str(tmp_path / "x")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_build_ntriples(self, tmp_path, capsys):
        nt = tmp_path / "kb.nt"
        nt.write_text(
            '<http://e/A> <http://e/rel> <http://e/B> .\n'
            '<http://e/A> <http://www.w3.org/2000/01/rdf-schema#label> "Apple thing" .\n'
        )
        out_path = tmp_path / "nt.idx"
        code = main(
            ["build", str(nt), "--format", "ntriples", "-o", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()


class TestSearch:
    def test_search_prints_table(self, index_file, capsys):
        # The CLI builds with the default normalizer and real PageRank, so
        # scores differ from the paper's uniform-PR walkthrough; the top
        # pattern and its table rows are the same.
        code = main(
            ["search", str(index_file), "database software company revenue",
             "-k", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(Software) (Genre) (Model)" in out
        assert "SQL Server" in out
        assert "Oracle DB" in out

    def test_search_output_is_the_full_render_cut_by_the_printer(
        self, index_file, capsys
    ):
        # The CLI asks the renderer for --max-rows rows; what it prints is
        # byte for byte what rendering every row and cutting at print
        # time printed, "more rows" trailer included.
        query = "database software company revenue"
        code = main(
            ["search", str(index_file), query, "-k", "2", "--max-rows", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        expected = full_render_blocks(index_file, query, k=2, max_rows=1)
        assert "... (1 more rows)" in expected
        assert out.startswith(expected)

    def test_search_no_answers_exit_code(self, index_file, capsys):
        code = main(["search", str(index_file), "xylophone"])
        assert code == 1
        assert "no answers" in capsys.readouterr().out

    def test_search_letopk_with_sampling_flags(self, index_file, capsys):
        code = main(
            ["search", str(index_file), "software company",
             "--algorithm", "letopk",
             "--sampling-rate", "0.5", "--sampling-threshold", "0"]
        )
        assert code == 0
        assert "linear_topk" in capsys.readouterr().out

    def test_search_baseline(self, index_file, capsys):
        code = main(
            ["search", str(index_file), "microsoft revenue",
             "--algorithm", "baseline"]
        )
        assert code == 0

    def test_search_linear_full(self, index_file, capsys):
        code = main(
            ["search", str(index_file), "software company",
             "--algorithm", "linear_full"]
        )
        assert code == 0
        assert "linear_enum" in capsys.readouterr().out

    def test_search_explain_prints_pruning(self, index_file, capsys):
        code = main(
            ["search", str(index_file), "software company", "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pruning: roots_skipped=" in out
        assert "prefixes_skipped=" in out
        assert "k-th score trajectory" in out

    def test_search_explain_on_empty_result(self, index_file, capsys):
        code = main(
            ["search", str(index_file), "xylophone", "--explain"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "no answers" in out
        assert "pruning:" in out

    def test_search_rejects_mismatched_sampling_flags(
        self, index_file, capsys
    ):
        # One-shot commands keep loud plan-time validation: sampling
        # flags with a non-sampling algorithm are an error, not inert.
        code = main(
            ["search", str(index_file), "software company",
             "--algorithm", "pattern_enum", "--sampling-rate", "0.5"]
        )
        assert code == 2
        assert "does not accept" in capsys.readouterr().err

    def test_search_no_prune_matches_pruned(self, index_file, capsys):
        code = main(
            ["search", str(index_file), "software company", "--no-prune"]
        )
        assert code == 0
        unpruned = capsys.readouterr().out
        code = main(["search", str(index_file), "software company"])
        assert code == 0
        pruned = capsys.readouterr().out
        # Identical answers either way; only the stats line may differ.
        strip = lambda text: [
            line for line in text.splitlines()
            if not line.startswith("pattern_enum:")
        ]
        assert strip(unpruned) == strip(pruned)


class TestPlan:
    def test_plan_prints_without_searching(self, index_file, capsys):
        code = main(
            ["plan", str(index_file), "database software company", "-k", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm=pattern_enum" in out
        assert "k=7" in out
        assert "'databas'" in out          # resolved (stemmed) keywords
        assert "postings=" in out
        assert "score=" not in out         # no answers were produced

    def test_search_explain_includes_plan(self, index_file, capsys):
        code = main(
            ["search", str(index_file), "software company", "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: algorithm=pattern_enum" in out
        assert "pruning: roots_skipped=" in out

    def test_plan_canonicalizes_alias(self, index_file, capsys):
        code = main(
            ["plan", str(index_file), "software", "--algorithm", "letopk"]
        )
        assert code == 0
        assert "algorithm=linear_topk" in capsys.readouterr().out


class TestServe:
    def _serve(self, index_file, lines, monkeypatch, extra=()):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\n".join(lines) + "\n")
        )
        return main(["serve", str(index_file), *extra])

    def test_serve_answers_a_stream(self, index_file, capsys, monkeypatch):
        code = self._serve(
            index_file,
            ["software company", "software company", ":stats", ":quit"],
            monkeypatch,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("--- #1") == 2
        assert "(cached)" in out            # second answer came from cache
        assert "result cache 1/2 hits" in out

    def test_serve_output_is_the_full_render_cut_by_the_printer(
        self, index_file, capsys, monkeypatch
    ):
        query = "database software company revenue"
        code = self._serve(
            index_file, [query, ":quit"], monkeypatch,
            extra=("-k", "2", "--max-rows", "1"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert full_render_blocks(index_file, query, k=2, max_rows=1) in out

    def test_serve_meta_commands(self, index_file, capsys, monkeypatch):
        code = self._serve(
            index_file,
            [
                ":help", ":k 2", ":algorithm letopk", ":explain",
                "software company", ":k x", ":algorithm quantum", ":wat",
            ],
            monkeypatch,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "commands:" in out
        assert "explain on" in out
        assert "plan: algorithm=linear_topk k=2" in out
        assert "error: :k needs an integer" in out
        assert "error: unknown algorithm 'quantum'" in out
        assert "error: unknown command ':wat'" in out

    def test_serve_forwards_algorithm_flags(
        self, index_file, capsys, monkeypatch
    ):
        # --no-prune (and the sampling flags) must reach the plans serve
        # builds, not just search/batch.
        code = self._serve(
            index_file,
            [":explain", "software company"],
            monkeypatch,
            extra=["--no-prune"],
        )
        assert code == 0
        assert "prune=False" in capsys.readouterr().out

    def test_serve_algorithm_switch_warns_and_drops_inapplicable_flags(
        self, index_file, capsys, monkeypatch
    ):
        # A --sampling-rate given for the starting letopk must not
        # poison the session after :algorithm pattern_enum — but the
        # drop must be audible, not silent.
        code = self._serve(
            index_file,
            [":algorithm pattern_enum", "software company"],
            monkeypatch,
            extra=["--algorithm", "letopk", "--sampling-rate", "0.5"],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warning: ignoring" in out
        assert "does not accept sampling_rate" in out
        assert "--- #1" in out
        assert "error:" not in out

    def test_serve_applicable_flags_stay_silent(
        self, index_file, capsys, monkeypatch
    ):
        # No warning when every flag applies to the session algorithm.
        code = self._serve(
            index_file,
            ["software company"],
            monkeypatch,
            extra=["--algorithm", "letopk", "--sampling-rate", "0.5",
                   "--sampling-threshold", "2"],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warning:" not in out
        assert "--- #1" in out

    def test_serve_http_rejects_bad_address(self, index_file, capsys):
        code = main(["serve", str(index_file), "--http", "nonsense"])
        assert code == 2
        assert "--http wants HOST:PORT" in capsys.readouterr().err

    def test_serve_bad_query_keeps_serving(
        self, index_file, capsys, monkeypatch
    ):
        code = self._serve(
            index_file, ["???", "software company"], monkeypatch
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "error:" in out
        assert "--- #1" in out


class TestBatch:
    def test_batch_runs_a_file(self, index_file, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "software company\n"
            "# a comment\n"
            "  # an indented comment\n"
            "\n"
            "database revenue\n"
            "software company\n"
        )
        code = main(
            ["batch", str(index_file), str(queries), "--threads", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("answers") == 3    # blank + comment lines skipped
        assert "(cached)" in out            # duplicate query deduplicated
        assert "QPS" in out
        assert "service:" in out

    def test_batch_missing_file(self, index_file, tmp_path, capsys):
        code = main(
            ["batch", str(index_file), str(tmp_path / "absent.txt")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_batch_empty_file(self, index_file, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n# only comments\n")
        code = main(["batch", str(index_file), str(empty)])
        assert code == 2
        assert "no queries" in capsys.readouterr().err

    def test_batch_uniform_jsonl_workload(
        self, index_file, tmp_path, capsys
    ):
        # A workload without overrides rides the search_many batch path
        # (threads allowed), exactly like a plain query file.
        workload = tmp_path / "workload.jsonl"
        workload.write_text(
            '{"query": "software company"}\n'
            '{"query": "database revenue"}\n'
            '{"query": "software company"}\n'
        )
        code = main(
            ["batch", str(index_file), str(workload), "--threads", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("answers") == 3
        assert "(cached)" in out

    def test_batch_mixed_jsonl_replays_in_order(
        self, index_file, tmp_path, capsys
    ):
        workload = tmp_path / "workload.jsonl"
        workload.write_text(
            '{"query": "software company", "k": 2}\n'
            '{"kind": "invalidate"}\n'
            '{"query": "software company", "k": 2}\n'
        )
        code = main(["batch", str(index_file), str(workload)])
        assert code == 0
        out = capsys.readouterr().out
        assert ":invalidate: caches flushed" in out
        assert "1 invalidations" in out
        assert "sequential replay" in out
        # The writer tick flushed the result cache between the repeats.
        assert "(cached)" not in out

    def test_batch_mixed_jsonl_rejects_threads(
        self, index_file, tmp_path, capsys
    ):
        workload = tmp_path / "workload.jsonl"
        workload.write_text(
            '{"query": "software company", "k": 2}\n'
            '{"kind": "invalidate"}\n'
        )
        code = main(
            ["batch", str(index_file), str(workload), "--threads", "2"]
        )
        assert code == 2
        assert "replay in order" in capsys.readouterr().err

    def test_batch_jsonl_per_request_overrides(
        self, index_file, tmp_path, capsys
    ):
        workload = tmp_path / "workload.jsonl"
        workload.write_text(
            '{"query": "software company", "k": 1}\n'
            '{"query": "software company", "algorithm": "letopk", '
            '"params": {"sampling_rate": 0.5, "sampling_threshold": 2, '
            '"seed": 7}}\n'
        )
        code = main(["batch", str(index_file), str(workload)])
        assert code == 0
        assert capsys.readouterr().out.count("answers") == 2

    def test_batch_bad_jsonl_errors(self, index_file, tmp_path, capsys):
        workload = tmp_path / "workload.jsonl"
        workload.write_text('{"query": "x", "wat": 1}\n')
        code = main(["batch", str(index_file), str(workload)])
        assert code == 2
        assert "unknown fields" in capsys.readouterr().err


class TestStats:
    def test_stats(self, index_file, capsys):
        code = main(["stats", str(index_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes" in out
        assert "d=3" in out

    def test_stats_missing_index(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "absent.idx")])
        assert code == 2


class TestSharding:
    def test_search_with_shards_explains_dispatch(self, index_file, capsys):
        code = main(
            ["search", str(index_file), "software company",
             "--shards", "2", "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sharding: dispatched=" in out
        assert "/2 shards" in out
        # The stats line and the --explain line both show the waves and
        # each dispatched shard's own busy time.
        assert re.search(r"shards=\d/2 waves=\d busy=\[[\d., ]*\]ms", out)
        assert re.search(r"order=\[[\d, ]*\]\) waves=\d busy=\[", out)

    def test_search_matches_unsharded(self, index_file, capsys):
        assert main(["search", str(index_file), "software company"]) == 0
        plain = capsys.readouterr().out
        assert main(
            ["search", str(index_file), "software company", "--shards", "3"]
        ) == 0
        sharded = capsys.readouterr().out

        def answer_lines(text):
            # Drop the stats footer: timings and shard counters differ.
            return [line for line in text.splitlines()
                    if " ms roots=" not in line]

        assert answer_lines(sharded) == answer_lines(plain)

    def test_search_rejects_bad_shard_count(self, index_file, capsys):
        code = main(
            ["search", str(index_file), "software company", "--shards", "0"]
        )
        assert code == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_batch_with_shards(self, index_file, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("software company\ndatabase revenue\n")
        code = main(
            ["batch", str(index_file), str(queries), "--shards", "2"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("answers") == 2

    def test_batch_processes_keeps_subtree_rows(
        self, index_file, tmp_path, capsys
    ):
        # The old CLI refused --processes without --no-subtrees; the
        # fork path now ships subtree rows back as portable tuples.
        queries = tmp_path / "queries.txt"
        queries.write_text("software company\ndatabase revenue\n")
        code = main(
            ["batch", str(index_file), str(queries), "--processes", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("answers") == 2
        assert "error" not in out

    def test_batch_processes_with_no_subtrees_runs(
        self, index_file, tmp_path, capsys
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text("software company\ndatabase revenue\n")
        code = main(
            ["batch", str(index_file), str(queries),
             "--processes", "1", "--no-subtrees"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("answers") == 2

    def test_batch_processes_and_shards_conflict(
        self, index_file, tmp_path, capsys
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text("software company\n")
        code = main(
            ["batch", str(index_file), str(queries),
             "--processes", "2", "--no-subtrees", "--shards", "2"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_serve_with_shards(self, index_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("software company\n")
        )
        code = main(["serve", str(index_file), "--shards", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "--- #1" in out
        assert "execution backend: sharded (2 workers)" in out

    def test_serve_with_processes(self, index_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("software company\n")
        )
        code = main(["serve", str(index_file), "--processes", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "--- #1" in out
        assert "execution backend: fork-pool (2 workers)" in out

    def test_serve_with_processes_and_shards(
        self, index_file, capsys, monkeypatch
    ):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("software company\n")
        )
        code = main(
            ["serve", str(index_file), "--processes", "2", "--shards", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "--- #1" in out
        assert "execution backend: fork-pool+sharded (2 workers)" in out

    def test_serve_rejects_bad_process_count(self, index_file, capsys):
        code = main(["serve", str(index_file), "--processes", "0"])
        assert code == 2
        assert "--processes must be >= 1" in capsys.readouterr().err


class TestCompact:
    def test_compact_reports_copied_and_rebuilt_words(
        self, index_file, capsys
    ):
        """A fresh file has no overlay: every word is copied, and each
        run writes the next generation."""
        capsys.readouterr()
        for generation in (1, 2):
            assert main(["compact", str(index_file)]) == 0
            out = capsys.readouterr().out
            assert f"generation {generation}," in out
            assert re.search(r", (\d+) words copied, 0 rebuilt\)", out)
        assert main(["search", str(index_file), "software company"]) == 0
