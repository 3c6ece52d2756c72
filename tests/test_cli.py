import hashlib
import json
import re
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import DSCR_SCRIPT, write_dscr_workspace
from finreportqa import cli as cli_mod
from finreportqa.cli import RunConfig, build_embedding_provider, main
from finreportqa.corpus import QAInstance, parse_report
from finreportqa.embeddings import CachedEmbeddingProvider
from finreportqa.errors import ConfigError
from finreportqa.llm import ScriptedBackend


def _hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_CANONICAL = ("predictions.jsonl", "scores.jsonl", "eval_report.json",
              "transcripts/q-dscr-1.json")


def _bench_args(tmp_path, corpus_dir, dataset, script, run_id="run-a", extra=()):
    return [
        "bench", "--pipeline", "agent",
        "--backend", "scripted", "--script-path", str(script),
        "--corpus-dir", str(corpus_dir), "--dataset", str(dataset),
        "--output-dir", str(tmp_path / "runs"), "--run-id", run_id,
        *extra,
    ]


def _instance(question_id, report_id):
    return QAInstance(id=question_id, company="DemoCo", fiscal_year=2002, question="Question?",
                      gold_answer="1.55", question_type="text", evidence_pages=frozenset({1}),
                      program_source="1.55", reasoning_trace="", report_id=report_id)


class TestRunConfig:
    def test_defaults_validate(self):
        config = RunConfig()
        config.validate()
        assert config.k_per_round == 15
        assert config.max_rounds == 5
        assert config.chunk_budget == 75
        assert config.baseline_k == 30
        assert config.fixed_budget_k == 75

    def test_unknown_field_rejected(self):
        with pytest.raises(Exception):
            RunConfig.from_dict({"no_such_field": 1})

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"k_per_round": 9, "workers": 2}))
        # stats is a cheap command that exercises config resolution
        code = main(["stats", "--config", str(config_path), "--workers", "3"])
        assert code == 0

    @pytest.mark.parametrize("value, expected", [
        ("page", "page"), ("256", 256), (256, 256), ("1", 1)])
    def test_granularity_accepted(self, value, expected):
        config = RunConfig(granularity=value)
        config.validate()
        assert config.unit_granularity() == expected

    @pytest.mark.parametrize("value", [
        "abc", "0", "-3", "2.5", "", " 256", "\u00b2", "Page", 0, -1, 2.0, True, None])
    def test_granularity_rejected(self, value):
        with pytest.raises(ConfigError):
            RunConfig(granularity=value).validate()

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_granularity_flag_is_config_error(self, tmp_path, capsys, value):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        code = main(_bench_args(tmp_path, corpus_dir, dataset, script,
                                extra=("--granularity", value)))
        assert code == 2
        assert "granularity" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--temperature", "-1"), ("--temperature", "nan"), ("--temperature", "inf"),
        ("--max-input-tokens", "0"), ("--max-output-tokens", "0"),
        ("--timeout", "0"), ("--timeout", "-2.5"), ("--timeout", "nan")])
    def test_bad_provider_setting_is_config_error(self, tmp_path, capsys, flag, value):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        code = main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=(flag, value)))
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_timeout_bounds_embedding_calls(self, tmp_path):
        config = RunConfig(timeout=5.0, scheme="dense", embedding_endpoint="http://localhost:1",
                           embedding_model="e", embedding_dimension=4,
                           cache_dir=str(tmp_path / "cache"))
        provider = build_embedding_provider(config)
        assert isinstance(provider, CachedEmbeddingProvider)
        assert provider.provider.timeout == 5.0

    def test_scripted_without_script_is_config_error(self, tmp_path):
        code = main(["bench", "--backend", "scripted",
                     "--dataset", str(tmp_path / "x.jsonl")])
        assert code == 2


class TestConfigFiles:
    @pytest.mark.parametrize("text", ["3", "null", "[]", '"config"'])
    def test_config_file_must_hold_an_object(self, tmp_path, capsys, text):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        assert main(["stats", "--config", str(config_path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("{", "not valid JSON"),
        ('{"command": "bench", "pipeline": "agent"}', "no config"),
        ('{"config": 3}', "no config"),
        ("null", "JSON object"),
    ])
    def test_bad_manifest_is_config_error(self, tmp_path, capsys, text, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        assert main(["bench", "--from-manifest", str(manifest)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"temperature": "x"}, {"workers": "2"}, {"max_rounds": 2.5}, {"workers": True},
        {"timeout": None}, {"script_path": 3}, {"model": None}, {"granularity": [256]},
        {"bm25_k1": False},
    ])
    def test_config_value_of_wrong_type_is_config_error(self, tmp_path, capsys, payload):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        assert main(["stats", "--config", str(config_path)]) == 2
        assert next(iter(payload)) in capsys.readouterr().err

    def test_config_values_of_the_field_types_are_accepted(self):
        config = RunConfig.from_dict({"timeout": 5, "temperature": 0.5, "script_path": None,
                                      "dataset": "d.jsonl", "granularity": 256, "workers": 2})
        config.validate()
        assert (config.timeout, config.unit_granularity(), config.workers) == (5, 256, 2)
        # every field, as a manifest writes it
        assert RunConfig.from_dict(RunConfig().to_dict()) == RunConfig()

    def test_config_with_index_dir_is_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"index_dir": "indices"}))
        assert main(["stats", "--config", str(config_path)]) == 2
        assert "index_dir" in capsys.readouterr().err

    def test_manifest_with_index_dir_is_config_error(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 0
        manifest_path = tmp_path / "runs" / "run-a" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["index_dir"] = None
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["bench", "--from-manifest", str(manifest_path),
                     "--run-id", "run-b"]) == 2
        assert "index_dir" in capsys.readouterr().err

    def test_from_manifest_honours_flags(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 0
        manifest_path = tmp_path / "runs" / "run-a" / "manifest.json"
        assert main(["bench", "--from-manifest", str(manifest_path), "--run-id", "run-b",
                     "--output-dir", str(tmp_path / "elsewhere"), "--workers", "3"]) == 0
        run_b = tmp_path / "elsewhere" / "run-b"
        manifest = json.loads((run_b / "manifest.json").read_text())
        assert manifest["config"]["workers"] == 3
        assert manifest["config"]["output_dir"] == str(tmp_path / "elsewhere")
        assert manifest["pipeline"] == "agent"
        assert not (tmp_path / "runs" / "run-b").exists()
        for name in _CANONICAL:
            assert _hash(run_b / name) == _hash(tmp_path / "runs" / "run-a" / name), name

    def test_from_manifest_flag_values_are_validated(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 0
        manifest_path = tmp_path / "runs" / "run-a" / "manifest.json"
        capsys.readouterr()
        assert main(["bench", "--from-manifest", str(manifest_path), "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["1", -1, 1.0, True, None])
    def test_manifest_limit_must_be_a_non_negative_int(self, tmp_path, capsys, limit):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 0
        manifest_path = tmp_path / "runs" / "run-a" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["limit"] = limit
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["bench", "--from-manifest", str(manifest_path), "--run-id", "run-b"]) == 2
        assert "limit" in capsys.readouterr().err
        assert not (tmp_path / "runs" / "run-b").exists()

    def test_negative_limit_flag_is_config_error(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script,
                                extra=("--limit", "-1"))) == 2
        assert "limit" in capsys.readouterr().err

    def test_from_manifest_with_config_is_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("{}")
        assert main(["bench", "--from-manifest", str(tmp_path / "manifest.json"),
                     "--config", str(config_path)]) == 2
        assert "cannot be combined" in capsys.readouterr().err


class TestScriptFile:
    @pytest.mark.parametrize("text", [
        "{not json",
        json.dumps({"mode": "repeatable"}),
        json.dumps({"entries": [{"matcher": "Question"}]}),
        json.dumps({"entries": [{"response": "{{1.55}}"}]}),
        json.dumps({"mode": "weird", "entries": []}),
        json.dumps(["Question", "{{1.55}}"]),
        json.dumps({"entries": [{"matcher": 5, "response": "{{1.55}}"}]}),
        json.dumps({"entries": [{"matcher": "Question", "response": 7}]}),
    ])
    def test_malformed_script_is_config_error(self, tmp_path, capsys, text):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        script.write_text(text)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 2
        assert "script file" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error(self):
        assert main(["bench", "--pipeline", "nonsense"]) == 1

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_dataset_is_data_error(self, tmp_path):
        code = main(["bench", "--dataset", str(tmp_path / "absent.jsonl"),
                     "--corpus-dir", str(tmp_path)])
        assert code == 3

    def test_provider_error_exit_code(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        script.write_text(json.dumps({"entries": []}))  # nothing matches
        code = main(_bench_args(tmp_path, corpus_dir, dataset, script))
        assert code == 4


class TestBench:
    def test_scripted_agent_run(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        code = main(_bench_args(tmp_path, corpus_dir, dataset, script))
        assert code == 0

        run_dir = tmp_path / "runs" / "run-a"
        predictions = [json.loads(line)
                       for line in (run_dir / "predictions.jsonl").read_text().splitlines()]
        assert predictions[0]["answer"] == 1.55
        assert predictions[0]["termination"] == "Complete"

        transcript = json.loads((run_dir / "transcripts" / "q-dscr-1.json").read_text())
        assert transcript["termination"] == "Complete"
        assert len(transcript["rounds"]) == 2

        report = json.loads((run_dir / "eval_report.json").read_text())
        assert report["em"] == 100.0
        out = capsys.readouterr().out
        assert "run-a" in out

    def test_manifest_written_with_config(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        main(_bench_args(tmp_path, corpus_dir, dataset, script))
        manifest = json.loads((tmp_path / "runs" / "run-a" / "manifest.json").read_text())
        assert manifest["pipeline"] == "agent"
        assert manifest["config"]["k_per_round"] == 15
        assert manifest["inputs"]["dataset_sha256"] == _hash(dataset)

    def test_rerun_from_manifest_is_hash_identical(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 0
        manifest_path = tmp_path / "runs" / "run-a" / "manifest.json"

        assert main(["bench", "--from-manifest", str(manifest_path),
                     "--run-id", "run-b"]) == 0

        for name in ("scores.jsonl", "eval_report.json", "predictions.jsonl"):
            first = _hash(tmp_path / "runs" / "run-a" / name)
            second = _hash(tmp_path / "runs" / "run-b" / name)
            assert first == second, name

        first_t = tmp_path / "runs" / "run-a" / "transcripts" / "q-dscr-1.json"
        second_t = tmp_path / "runs" / "run-b" / "transcripts" / "q-dscr-1.json"
        assert _hash(first_t) == _hash(second_t)

    def test_blank_expansion_keeps_the_round(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        entries = [("financial text understanding", " \n "), *DSCR_SCRIPT[2:]]
        script.write_text(json.dumps(
            {"entries": [{"matcher": m, "response": r} for m, r in entries]}))
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 0
        transcript = tmp_path / "runs" / "run-a" / "transcripts" / "q-dscr-1.json"
        assert '"formula": ""' in transcript.read_text()
        rounds = json.loads(transcript.read_text())["rounds"]
        assert [r["formula"] for r in rounds] == [""] * len(rounds)

    def test_corrupt_cache_entry_is_refetched(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        cache = ("--cache-dir", str(tmp_path / "cache"))
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=cache)) == 0
        entry = sorted((tmp_path / "cache" / "llm").glob("*.json"))[0]
        intact = entry.read_bytes()
        entry.write_bytes(intact[:20])
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script, run_id="run-b",
                                extra=cache)) == 0
        for name in _CANONICAL:
            first = _hash(tmp_path / "runs" / "run-a" / name)
            assert _hash(tmp_path / "runs" / "run-b" / name) == first, name
        assert entry.read_bytes() == intact

    def test_directory_at_cache_entry_exits_config(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        cache = ("--cache-dir", str(tmp_path / "cache"))
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=cache)) == 0
        entries = sorted((tmp_path / "cache" / "llm").glob("*.json"))
        for entry in entries:
            entry.unlink()
            entry.mkdir()
        capsys.readouterr()
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script, run_id="run-b",
                                extra=cache)) == 2
        assert "cache directory" in capsys.readouterr().err
        assert sorted((tmp_path / "cache" / "llm").iterdir()) == entries

    def test_baseline_pipeline_runs(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        script.write_text(json.dumps({
            "entries": [{"matcher": "Question", "response": "{{1.55}}"}],
        }))
        code = main(_bench_args(tmp_path, corpus_dir, dataset, script,
                                extra=("--pipeline", "single_round_rag")))
        # argparse consumes the later --pipeline value
        assert code == 0

    def test_workers_parallel_run_matches_serial(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script,
                                run_id="serial")) == 0
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script,
                                run_id="parallel", extra=("--workers", "4"))) == 0
        assert _hash(tmp_path / "runs" / "serial" / "scores.jsonl") == \
               _hash(tmp_path / "runs" / "parallel" / "scores.jsonl")

    def test_long_context_builds_no_index(self, tmp_path, capsys, no_network):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        script.write_text(json.dumps({
            "entries": [{"matcher": "Question", "response": "{{1.55}}"}],
        }))
        code = main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=(
            "--pipeline", "long_context", "--scheme", "dense",
            "--embedding-endpoint", "http://127.0.0.1:9/v1/embeddings",
            "--embedding-model", "embedder", "--embedding-dimension", "8")))
        assert code == 0
        assert no_network == []

    def test_ask_long_context_builds_no_index(self, tmp_path, capsys, no_network):
        corpus_dir, _, script = write_dscr_workspace(tmp_path)
        script.write_text(json.dumps({
            "entries": [{"matcher": "Question", "response": "{{1.55}}"}],
        }))
        code = main([
            "ask", "--question", "What is the DSCR in 2002?",
            "--report", str(corpus_dir / "DemoCo_2002.md"),
            "--pipeline", "long_context", "--scheme", "dense",
            "--backend", "scripted", "--script-path", str(script),
            "--embedding-endpoint", "http://127.0.0.1:9/v1/embeddings",
            "--embedding-model", "embedder", "--embedding-dimension", "8",
        ])
        assert code == 0
        assert no_network == []
        assert "answer: 1.55" in capsys.readouterr().out

    def test_workers_bound_llm_calls_in_flight(self, tmp_path, capsys, monkeypatch):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        record = json.loads(dataset.read_text())
        dataset.write_text("".join(
            json.dumps({**record, "id": f"q-{i}"}) + "\n" for i in range(8)))
        script.write_text(json.dumps({
            "entries": [{"matcher": "Question", "response": "{{1.55}}"}],
        }))
        generate = ScriptedBackend.generate
        state = {"in_flight": 0, "peak": 0}
        changed = threading.Condition()

        def held_generate(self, config, messages, body):
            with changed:
                state["in_flight"] += 1
                state["peak"] = max(state["peak"], state["in_flight"])
                changed.notify_all()
                # hold the call until more than 4 are in flight, or give up
                changed.wait_for(lambda: state["peak"] > 4, timeout=2.0)
            try:
                return generate(self, config, messages, body)
            finally:
                with changed:
                    state["in_flight"] -= 1

        monkeypatch.setattr(ScriptedBackend, "generate", held_generate)
        code = main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=(
            "--pipeline", "no_context", "--workers", "8")))
        assert code == 0
        assert state["peak"] > 4


class TestReportSetup:
    def test_sized_granularity_rechunks_once(self, tmp_path, capsys, monkeypatch):
        import finreportqa.retrieval as retrieval_mod

        calls = []
        rechunk = retrieval_mod.rechunk

        def counting_rechunk(*args, **kwargs):
            calls.append(args)
            return rechunk(*args, **kwargs)

        monkeypatch.setattr(retrieval_mod, "rechunk", counting_rechunk)
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script,
                                extra=("--granularity", "256"))) == 0
        assert len(calls) == 1

    def test_ask_transcript_equals_bench_transcript(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 0
        assert main([
            "ask", "--question",
            "What is the Debt Service Coverage Ratio (DSCR) of the company in 2002?",
            "--report", str(corpus_dir / "DemoCo_2002.md"),
            "--backend", "scripted", "--script-path", str(script),
            "--output-dir", str(tmp_path / "out"),
        ]) == 0

        def without_question_id(path):
            return re.sub(rb'\n  "question_id": "[^"]*",', b"", path.read_bytes())

        bench = tmp_path / "runs" / "run-a" / "transcripts" / "q-dscr-1.json"
        ask = tmp_path / "out" / "ask_transcript.json"
        assert without_question_id(ask) == without_question_id(bench)
        assert without_question_id(ask) != ask.read_bytes()

    @pytest.mark.parametrize("pipeline", ["single_round_rag", "long_context"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_report_freed_after_its_last_question(self, tmp_path, capsys, monkeypatch,
                                                  pipeline, workers):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        text = (corpus_dir / "DemoCo_2002.md").read_text(encoding="utf-8")
        (corpus_dir / "DemoCo_2003.md").write_text(text, encoding="utf-8")
        record = json.loads(dataset.read_text())
        # the report ids interleave: 2002, 2003, 2002, 2003, 2003
        years = [2002, 2003, 2002, 2003, 2003]
        dataset.write_text("".join(json.dumps({**record, "id": f"q-{i}", "year": year}) + "\n"
                                   for i, year in enumerate(years)))
        script.write_text(json.dumps({
            "entries": [{"matcher": "Question", "response": "{{1.55}}"}],
        }))
        refs = {}
        load_report = cli_mod.corpus_mod.load_report

        def tracked_load_report(path, *args):
            report = load_report(path, *args)
            refs[report.report_id] = weakref.ref(report)
            return report

        alive, done, lock = {}, set(), threading.Lock()
        run_instance = cli_mod._ReportRunner.run_instance

        def tracked_run_instance(self, instance):
            row = run_instance(self, instance)
            with lock:
                done.add(instance.id)
                if instance.id in ("q-0", "q-2") and {"q-0", "q-2"} <= done:
                    # both of the 2002 report's questions are answered
                    alive["2002"] = refs["DemoCo_2002"]() is not None
            return row

        monkeypatch.setattr(cli_mod.corpus_mod, "load_report", tracked_load_report)
        monkeypatch.setattr(cli_mod._ReportRunner, "run_instance", tracked_run_instance)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=(
            "--pipeline", pipeline, "--workers", workers))) == 0
        assert alive == {"2002": False}

    def test_report_freed_with_its_retriever(self, tmp_path):
        corpus_dir, _, script = write_dscr_workspace(tmp_path)
        config = RunConfig(backend="scripted", script_path=str(script))
        runner = cli_mod._ReportRunner(config, cli_mod.build_client(config), "single_round_rag")
        instances = [_instance("a1", "A"), _instance("b1", "B"), _instance("a2", "A"),
                     _instance("b2", "B")]
        text = (corpus_dir / "DemoCo_2002.md").read_text(encoding="utf-8")
        for report_id in ("A", "B"):
            runner.setup(parse_report(text, report_id=report_id), questions=2)
        refs = {rid: [weakref.ref(obj) for obj in runner._reports[rid]] for rid in ("A", "B")}

        def alive():
            return {rid: [ref() is not None for ref in pair] for rid, pair in refs.items()}

        states = []
        for instance in instances:
            runner.run_instance(instance)
            states.append(alive())
        both, gone = [True, True], [False, False]
        assert states == [{"A": both, "B": both}, {"A": both, "B": both},
                          {"A": gone, "B": both}, {"A": gone, "B": gone}]

    def test_question_counts_survive_many_workers(self, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps({
            "mode": "repeatable", "entries": [{"matcher": "Question", "response": "{{1}}"}]}))
        config = RunConfig(backend="scripted", script_path=str(script))
        runner = cli_mod._ReportRunner(config, cli_mod.build_client(config), "no_context")
        report_ids = [f"R{i}" for i in range(6)]
        for report_id in report_ids:
            runner.setup(parse_report("<!-- page: 1 -->\nbody\n", report_id=report_id),
                         questions=40)
        instances = [_instance(f"{rid}-{n}", rid) for n in range(40) for rid in report_ids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                rows = list(pool.map(runner.run_instance, instances, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(rows) == len(instances)
        assert runner._reports == {}
        assert runner._questions_left == dict.fromkeys(report_ids, 0)

    @pytest.mark.parametrize("argv", [
        ["index", "--corpus-dir", "corpus"],
        ["ask", "--question", "q", "--report", "r.md", "--index", "x"],
        ["bench", "--index-dir", "indices"],
    ])
    def test_index_options_are_gone(self, argv):
        assert main(argv) == 1


class TestScore:
    def test_all_correct_predictions(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(json.dumps({"id": "q-dscr-1", "answer": 1.55}) + "\n")
        code = main(["score", "--predictions", str(predictions),
                     "--gold", str(dataset), "--out", str(tmp_path / "scored")])
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["em"] == 100.0
        assert report["tol_acc"] == 100.0

    def test_wrong_prediction_scores_zero_em(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(json.dumps({"id": "q-dscr-1", "answer": 9.99}) + "\n")
        main(["score", "--predictions", str(predictions), "--gold", str(dataset)])
        report = json.loads(capsys.readouterr().out)
        assert report["em"] == 0.0

    def test_unknown_prediction_id_is_data_error(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(json.dumps({"id": "ghost", "answer": 1.0}) + "\n")
        assert main(["score", "--predictions", str(predictions),
                     "--gold", str(dataset)]) == 3

    @pytest.mark.parametrize("line, message", [
        ("{not json", "invalid JSON"),
        ("[1, 2]", "JSON object with a string id"),
        ('{"answer": 1.0}', "JSON object with a string id"),
        ('{"id": ["q-dscr-1"], "answer": 1.0}', "JSON object with a string id"),
    ])
    def test_malformed_prediction_line_is_data_error(self, tmp_path, capsys, line, message):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(json.dumps({"id": "q-dscr-1", "answer": 1.55}) + "\n\n"
                               + line + "\n")
        assert main(["score", "--predictions", str(predictions),
                     "--gold", str(dataset)]) == 3
        err = capsys.readouterr().err
        assert f"line 3: {predictions}" in err and message in err
        assert not (tmp_path / "scores.jsonl").exists()


class TestOtherCommands:
    def test_stats(self, tmp_path, capsys):
        corpus_dir, dataset, _ = write_dscr_workspace(tmp_path)
        code = main(["stats", "--corpus-dir", str(corpus_dir),
                     "--dataset", str(dataset)])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["reports"] == 1
        assert stats["qa_count"] == 1
        assert stats["tables"] == 3

    def test_ask_agent(self, tmp_path, capsys):
        corpus_dir, _, script = write_dscr_workspace(tmp_path)
        code = main([
            "ask", "--question",
            "What is the Debt Service Coverage Ratio (DSCR) of the company in 2002?",
            "--report", str(corpus_dir / "DemoCo_2002.md"),
            "--backend", "scripted", "--script-path", str(script),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "answer: 1.55" in out
        assert "transcript:" in out
        assert (tmp_path / "out" / "ask_transcript.json").exists()

    @pytest.mark.parametrize("granularity, unit_id", [("page", r"p\d+"), ("4", r"p\d+\.\d+")])
    def test_ask_honours_granularity(self, tmp_path, capsys, granularity, unit_id):
        corpus_dir, _, script = write_dscr_workspace(tmp_path)
        code = main([
            "ask", "--question",
            "What is the Debt Service Coverage Ratio (DSCR) of the company in 2002?",
            "--report", str(corpus_dir / "DemoCo_2002.md"),
            "--backend", "scripted", "--script-path", str(script),
            "--output-dir", str(tmp_path / "out"), "--granularity", granularity,
        ])
        assert code == 0
        transcript = json.loads((tmp_path / "out" / "ask_transcript.json").read_text())
        unit_ids = [uid for round_ in transcript["rounds"]
                    for uid in round_["new_unit_ids"]]
        assert unit_ids
        assert all(re.fullmatch(unit_id, uid) for uid in unit_ids), unit_ids

    def test_ablate(self, tmp_path, capsys):
        corpus_dir, _, _ = write_dscr_workspace(tmp_path)
        # evidence pages both share vocabulary with the question, so
        # exhaustive retrieval reaches them at k >= corpus size
        dataset = tmp_path / "ablate_dataset.jsonl"
        dataset.write_text(json.dumps({
            "id": "a1", "company": "DemoCo", "year": 2002,
            "question": "debt service coverage for the company",
            "type": "mixed", "thoughts": "t", "page_numbers": [34, 50],
            "python_code": "17/11", "answer": "1.55",
        }) + "\n")
        code = main(["ablate", "--corpus-dir", str(corpus_dir),
                     "--dataset", str(dataset), "--sizes", "8",
                     "--k-values", "1,6"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["granularity"] for row in rows] == ["page", "8"]
        for row in rows:
            assert row["recall@6"] == 1.0

    @pytest.mark.parametrize("flag, value", [
        ("--sizes", "abc"), ("--sizes", "256,x"), ("--sizes", "0"), ("--sizes", "-8"),
        ("--sizes", ""), ("--k-values", "abc"), ("--k-values", "5,,10"),
        ("--k-values", "0,5"),
    ])
    def test_ablate_rejects_a_malformed_list_as_usage_error(self, tmp_path, capsys,
                                                            flag, value):
        corpus_dir, dataset, _ = write_dscr_workspace(tmp_path)
        code = main(["ablate", "--corpus-dir", str(corpus_dir), "--dataset", str(dataset),
                     flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "integers >= 1" in err

    def test_datagen_filter_mode(self, tmp_path, capsys):
        corpus_dir, _, _ = write_dscr_workspace(tmp_path)
        raw = tmp_path / "raw.jsonl"
        records = [
            {"id": "r1", "company": "DemoCo", "year": "2002", "question": "?",
             "type": "table", "thoughts": "t", "page_numbers": [31, 50],
             "python_code": "17/(11+0)", "answer": "1.55",
             "report_id": "DemoCo_2002"},
            {"id": "r2", "company": "DemoCo", "year": "2002", "question": "?",
             "type": "table", "thoughts": "t", "page_numbers": [31],
             "python_code": "1+1", "answer": "2", "report_id": "DemoCo_2002"},
        ]
        raw.write_text("".join(json.dumps(r) + "\n" for r in records))
        out_dir = tmp_path / "dg"
        code = main(["datagen", "--mode", "filter", "--raw", str(raw),
                     "--out", str(out_dir), "--corpus-dir", str(corpus_dir)])
        assert code == 0
        stats = json.loads((out_dir / "filter_report.json").read_text())
        assert stats["kept"] == 1
        assert stats["rejections"]["too_few_pages"] == 1
        filtered = (out_dir / "filtered.jsonl").read_text().splitlines()
        assert len(filtered) == 1

    def test_datagen_generate_scripted(self, tmp_path, capsys):
        corpus_dir, _, _ = write_dscr_workspace(tmp_path)
        generated = [{
            "id": "g1", "company": "DemoCo", "year": "2002", "question": "?",
            "type": "table", "thoughts": "Thought: x",
            "page_numbers": [31, 50], "python_code": "17/(11+0)", "answer": "1.55",
        }]
        script = tmp_path / "genscript.json"
        script.write_text(json.dumps({
            "entries": [{"matcher": "annual report", "response": json.dumps(generated)}],
        }))
        out_dir = tmp_path / "dg2"
        code = main(["datagen", "--mode", "both", "--out", str(out_dir),
                     "--corpus-dir", str(corpus_dir),
                     "--backend", "scripted", "--script-path", str(script),
                     "--sample-pages", "3"])
        assert code == 0
        assert (out_dir / "raw.jsonl").exists()
        stats = json.loads((out_dir / "filter_report.json").read_text())
        assert stats["input"] == 1
        assert stats["kept"] == 1

    def test_ingest_is_wired(self, tmp_path, monkeypatch, capsys):
        # transport-level substitution; the CLI path itself stays intact
        import finreportqa.ingest as ingest_mod

        fixture = {
            "name": "Demo", "filings": {"recent": {
                "accessionNumber": ["0000000001-24-000001"],
                "form": ["10-K"], "filingDate": ["2024-02-01"],
                "primaryDocument": ["a.htm"],
            }}}

        def fake_transport(self, url, headers):
            body = json.dumps(fixture).encode()
            return 200, {"Content-Length": str(len(body))}, body

        monkeypatch.setattr(ingest_mod.EdgarClient, "_default_transport", fake_transport)
        code = main(["ingest", "--issuer", "123", "--years", "2024-2024"])
        assert code == 0
        assert "1 filings" in capsys.readouterr().out


@pytest.mark.parametrize("years", ["abc", "2022", "22-24", "2022-", "2022-2024-2026",
                                   "2024-2022", " 2022-2024", "２０２２-2024"])
def test_ingest_rejects_malformed_years_as_usage_error(capsys, no_network, years):
    assert main(["ingest", "--issuer", "123", "--years", years]) == 1
    err = capsys.readouterr().err
    assert "argument --years" in err and "YYYY-YYYY" in err


def test_help_lists_every_config_flag(capsys):
    from finreportqa.cli import _CONFIG_FLAGS

    import finreportqa.cli as cli_mod

    with pytest.raises(SystemExit):
        cli_mod.build_parser().parse_args(["bench", "--help"])
    help_text = capsys.readouterr().out
    for name, _, _ in _CONFIG_FLAGS:
        assert f"--{name.replace('_', '-')}" in help_text
