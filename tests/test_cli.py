"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenario")
    code = main(
        [
            "generate",
            "--output", str(out),
            "--concepts", "25",
            "--docs-per-concept", "3",
            "--seed", "3",
        ]
    )
    assert code == 0
    return out


class TestUserErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["enrich", "--ontology", "{scenario}/ontology.json",
             "--corpus", "{scenario}/corpus.jsonl", "--candidates", "0"],
            ["enrich", "--ontology", "{missing}/ontology.json",
             "--corpus", "{scenario}/corpus.jsonl"],
            ["index", "build", "--corpus", "{missing}/corpus.jsonl",
             "--index-dir", "{tmp}/index"],
            ["recommend", "--ontology", "eye={missing}/ontology.json",
             "--text", "{scenario}/corpus.jsonl"],
        ],
        ids=["enrich-bad-knob", "enrich-missing-file", "index-build-missing",
             "recommend-missing-ontology"],
    )
    def test_one_line_error_and_exit_two(
        self, argv, scenario_dir, tmp_path, capsys
    ):
        paths = {
            "scenario": scenario_dir,
            "missing": tmp_path / "missing",
            "tmp": tmp_path,
        }
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1


class TestImportFootprint:
    def test_entry_points_do_not_import_networkx(self):
        code = (
            "import sys\n"
            "import repro.cli, repro.workflow.pipeline, repro.service.server\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_entry_points_do_not_import_scipy(self):
        code = (
            "import sys\n"
            "import repro.cli, repro.workflow.pipeline, repro.service.server\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, f'scipy was imported: {loaded}'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_enrich_runs_with_scipy_blocked(self, tmp_path):
        """``repro enrich`` needs no scipy: same table with it unimportable."""
        assert main(
            ["generate", "--output", str(tmp_path), "--concepts", "8",
             "--docs-per-concept", "2", "--seed", "5"]
        ) == 0
        argv = [
            "enrich",
            "--ontology", str(tmp_path / "ontology.json"),
            "--corpus", str(tmp_path / "corpus.jsonl"),
            "--candidates", "5",
        ]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        outputs = []
        for prelude in ("", "sys.modules['scipy'] = None\n"):
            code = (
                "import sys\n"
                + prelude
                + "from repro.cli import main\n"
                + f"sys.exit(main({argv!r}))\n"
            )
            run = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
            )
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0].strip()
        assert outputs[1] == outputs[0]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--output", "x"])
        assert args.concepts == 60
        assert args.seed == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerate:
    def test_writes_both_files(self, scenario_dir):
        ontology_path = scenario_dir / "ontology.json"
        corpus_path = scenario_dir / "corpus.jsonl"
        assert ontology_path.exists() and corpus_path.exists()
        payload = json.loads(ontology_path.read_text())
        assert len(payload["concepts"]) == 25
        assert sum(1 for __ in corpus_path.open()) == 75

    def test_output_dir_created(self, tmp_path):
        target = tmp_path / "deep" / "dir"
        code = main(
            ["generate", "--output", str(target), "--concepts", "5",
             "--docs-per-concept", "1"]
        )
        assert code == 0
        assert (target / "ontology.json").exists()


class TestLinkAndEvaluate:
    def test_link_prints_table(self, scenario_dir, capsys):
        payload = json.loads((scenario_dir / "ontology.json").read_text())
        term = payload["concepts"][5]["preferred_term"]
        code = main(
            [
                "link",
                "--ontology", str(scenario_dir / "ontology.json"),
                "--corpus", str(scenario_dir / "corpus.jsonl"),
                "--term", term,
                "--top-k", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Propositions" in out
        assert "cosine" in out

    def test_evaluate_runs(self, scenario_dir, capsys):
        code = main(
            [
                "evaluate",
                "--ontology", str(scenario_dir / "ontology.json"),
                "--corpus", str(scenario_dir / "corpus.jsonl"),
                "--max-terms", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Top 10" in out

    def test_evaluate_empty_window_fails(self, scenario_dir, capsys):
        code = main(
            [
                "evaluate",
                "--ontology", str(scenario_dir / "ontology.json"),
                "--corpus", str(scenario_dir / "corpus.jsonl"),
                "--start-year", "2050",
                "--end-year", "2060",
            ]
        )
        assert code == 1


class TestEnrich:
    def test_enrich_prints_report(self, scenario_dir, capsys):
        code = main(
            [
                "enrich",
                "--ontology", str(scenario_dir / "ontology.json"),
                "--corpus", str(scenario_dir / "corpus.jsonl"),
                "--candidates", "3",
                "--top-k", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Enrichment report" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["enrich", "--ontology", "o", "--corpus", "c", "--index-shards", "2"],
            ["enrich", "--ontology", "o", "--corpus", "c",
             "--community-backend", "louvain"],
            ["index", "build", "--corpus", "c", "--index-dir", "d",
             "--shards", "2"],
            ["index", "build", "--corpus", "c", "--index-dir", "d",
             "--workers", "2"],
            ["index", "build", "--corpus", "c", "--index-dir", "d",
             "--build-backend", "thread"],
        ],
    )
    def test_retired_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cache_flags_default_off(self):
        args = build_parser().parse_args(
            ["enrich", "--ontology", "o", "--corpus", "c"]
        )
        assert args.cache_dir is None
        assert args.cache_max_bytes is None

    def test_enrich_with_cache_dir_warm_second_invocation(
        self, scenario_dir, tmp_path, capsys
    ):
        cache_dir = tmp_path / "feature-cache"
        argv = [
            "enrich",
            "--ontology", str(scenario_dir / "ontology.json"),
            "--corpus", str(scenario_dir / "corpus.jsonl"),
            "--candidates", "3",
            "--top-k", "3",
            "--cache-dir", str(cache_dir),
            "--timings",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert cache_dir.is_dir()
        # A second CLI invocation is a fresh process in spirit: a new
        # enricher warm-started purely from the on-disk store.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "disk_hits" in warm
        report_of = lambda out: out.split("Stage timings")[0]  # noqa: E731
        assert report_of(warm) == report_of(cold)


class TestServeAndCacheInfoParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--cache-dir", "x"])
        assert args.host == "127.0.0.1"
        assert args.port == 8750
        assert args.cache_max_bytes is None
        assert args.scenario == []
        assert args.job_workers == 1

    def test_serve_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_scenarios_are_repeatable(self):
        args = build_parser().parse_args(
            ["serve", "--cache-dir", "x",
             "--scenario", "a=/tmp/a", "--scenario", "b=/tmp/b"]
        )
        assert args.scenario == ["a=/tmp/a", "b=/tmp/b"]

    def test_bad_scenario_spec_rejected(self):
        from repro.cli import _parse_scenario_specs

        with pytest.raises(SystemExit, match="NAME=DIR"):
            _parse_scenario_specs(["no-equals-sign"])
        corpora = _parse_scenario_specs(["demo=/data/demo"])
        ontology, corpus = corpora["demo"]
        assert ontology.name == "ontology.json"
        assert corpus.name == "corpus.jsonl"

    def test_enrich_cache_url_flags(self):
        args = build_parser().parse_args(
            ["enrich", "--ontology", "o", "--corpus", "c",
             "--cache-url", "http://h:1", "--cache-timeout", "0.5"]
        )
        assert args.cache_url == "http://h:1"
        assert args.cache_timeout == 0.5


class TestCacheInfo:
    def test_requires_exactly_one_source(self, capsys, tmp_path):
        assert main(["cache-info"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(
            ["cache-info", "--cache-dir", str(tmp_path),
             "--cache-url", "http://h:1"]
        ) == 2

    def test_prints_disk_layout(self, tmp_path, capsys):
        import numpy as np

        from repro.polysemy.cache_store import DiskCacheStore

        store = DiskCacheStore(tmp_path)
        store.put(("fp-a", "term one", "cfg"), np.arange(4.0))
        store.put(("fp-b", "term two", "cfg"), np.arange(6.0))
        assert main(["cache-info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "generations" in out.lower()
        assert " 2" in out  # two entries across two generations

    def test_missing_cache_dir_is_an_error_not_a_mkdir(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "typo" / "cache"
        assert main(["cache-info", "--cache-dir", str(missing)]) == 1
        assert "no cache store" in capsys.readouterr().err
        # Inspection must not have created the directory it inspected.
        assert not missing.exists()

    def test_unreachable_service_reports_error(self, capsys):
        code = main(["cache-info", "--cache-url", "http://127.0.0.1:1"])
        assert code == 1
        assert "unreachable" in capsys.readouterr().err

    def test_reads_a_live_service(self, tmp_path, capsys):
        import numpy as np

        from repro.polysemy.cache_store import DiskCacheStore
        from repro.service.client import RemoteCacheStore
        from repro.service.server import CacheServiceServer

        server = CacheServiceServer(DiskCacheStore(tmp_path), port=0)
        server.start()
        try:
            RemoteCacheStore(server.url).put(
                ("fp", "served term", "cfg"), np.arange(3.0)
            )
            assert main(["cache-info", "--cache-url", server.url]) == 0
            out = capsys.readouterr().out
            assert server.url in out
        finally:
            server.stop()


class TestEnrichThroughService:
    def test_cache_url_warm_second_invocation(
        self, scenario_dir, tmp_path, capsys
    ):
        from repro.polysemy.cache_store import DiskCacheStore
        from repro.service.server import CacheServiceServer

        server = CacheServiceServer(
            DiskCacheStore(tmp_path / "served"), port=0
        )
        server.start()
        try:
            argv = [
                "enrich",
                "--ontology", str(scenario_dir / "ontology.json"),
                "--corpus", str(scenario_dir / "corpus.jsonl"),
                "--candidates", "3",
                "--top-k", "3",
                "--cache-url", server.url,
                "--timings",
            ]
            assert main(argv) == 0
            cold = capsys.readouterr().out
            assert main(argv) == 0
            warm = capsys.readouterr().out
        finally:
            server.stop()
        assert "remote_hits" in warm
        report_of = lambda out: out.split("Stage timings")[0]  # noqa: E731
        assert report_of(warm) == report_of(cold)
