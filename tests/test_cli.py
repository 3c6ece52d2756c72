import hashlib
import json
import re
import sys
import threading
import time
import weakref
from dataclasses import fields, replace
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import (
    ALWAYS_MISSING_SCRIPT,
    DSCR_QUESTION,
    DSCR_SCRIPT,
    FakeRequest,
    HashProvider,
    write_dscr_workspace,
)
from finreportqa import cli as cli_mod
from finreportqa import errors as errors_mod
from finreportqa import llm as llm_mod
from finreportqa import metrics as metrics_mod
from finreportqa import prompts
from finreportqa import transport
from finreportqa.cli import RunConfig, build_embedding_provider, main
from finreportqa.corpus import QAInstance
from finreportqa.embeddings import CachedEmbeddingProvider
from finreportqa.errors import ConfigError, ProviderError
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


def _change_record(dataset, **changes):
    """Rewrite the one-record dataset with ``changes`` applied."""
    record = json.loads(dataset.read_text(encoding="utf-8"))
    dataset.write_text(json.dumps(dict(record, **changes)) + "\n", encoding="utf-8")


def _instance(question_id, report_id):
    return QAInstance(id=question_id, company="DemoCo", year=2002, question="Question?",
                      type="text", thoughts="", page_numbers=[1], python_code="1.55",
                      answer="1.55", report_id=report_id)


def _report_files(directory, report_ids, text):
    """Each report id's file, holding ``text``."""
    paths = {report_id: directory / f"{report_id}.md" for report_id in report_ids}
    for path in paths.values():
        path.write_text(text, encoding="utf-8")
    return paths


def _answer_each(runner):
    """A function that answers one instance through ``runner``."""
    return lambda instance: runner.answer(instance.report_id, instance.question, instance.id)


def _track_setup(monkeypatch):
    """Weak references to what each report's set-up holds, by report id: the
    report, or for long_context its prefix, followed by its retriever if one
    is built."""
    refs = {}
    setup = cli_mod._ReportRunner._setup

    def tracked_setup(self, report_id):
        entry = setup(self, report_id)
        refs[report_id] = [weakref.ref(held) for held in entry if held is not None]
        return entry

    monkeypatch.setattr(cli_mod._ReportRunner, "_setup", tracked_setup)
    return refs


# replies that answer every question of every pipeline; the agent's expansion
# and evaluation prompts also hold "Question"
_ANSWERING_REPLIES = [("financial text understanding", "Alpha"),
                      ("inspects a generated answer", "NONE"), ("Question", "{{1.55}}")]


def _grouped_workspace(tmp_path, years, questions_per_report):
    """The DSCR workspace with one copy of its report per year and a dataset
    of ``questions_per_report`` questions per report, grouped by report, all
    answered by the script."""
    corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
    text = (corpus_dir / "DemoCo_2002.md").read_text(encoding="utf-8")
    _report_files(corpus_dir, [f"DemoCo_{year}" for year in years], text)
    record = json.loads(dataset.read_text())
    dataset.write_text("".join(
        json.dumps({**record, "id": f"q-{year}-{n}", "year": year}) + "\n"
        for year in years for n in range(questions_per_report)))
    script.write_text(json.dumps({
        "entries": [{"matcher": "Question", "response": "{{1.55}}"}],
    }))
    return corpus_dir, dataset, script


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
        ("--timeout", "0"), ("--timeout", "-2.5"), ("--timeout", "nan"),
        ("--retry-backoff", "-1"), ("--retry-backoff", "nan"), ("--retry-backoff", "inf"),
        ("--bm25-k1", "-1"), ("--bm25-k1", "nan"), ("--bm25-k1", "inf"),
        ("--bm25-b", "-0.1"), ("--bm25-b", "1.5"), ("--bm25-b", "nan"),
        ("--retry-attempts", "0"), ("--retry-attempts", "-4")])
    def test_bad_provider_setting_is_config_error(self, tmp_path, capsys, flag, value):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        code = main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=(flag, value)))
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_timeout_bounds_embedding_calls(self, tmp_path, monkeypatch):
        fake = FakeRequest([(200, {}, b'{"data": [{"embedding": [1, 2, 3, 4]}]}')])
        monkeypatch.setattr(transport, "request", fake)
        config = RunConfig(timeout=5.0, scheme="dense", embedding_endpoint="http://localhost:1",
                           embedding_model="e", embedding_dimension=4,
                           cache_dir=str(tmp_path / "cache"))
        provider = build_embedding_provider(config)
        assert isinstance(provider, CachedEmbeddingProvider)
        assert provider.embed(["text"]) == [[1.0, 2.0, 3.0, 4.0]]
        assert [(call.url, call.timeout) for call in fake.calls] == [("http://localhost:1", 5.0)]

    def test_retry_flags_bound_embedding_calls(self, monkeypatch):
        fake = FakeRequest([(503, {"Retry-After": "0"}, b"")])
        monkeypatch.setattr(transport, "request", fake)
        config = RunConfig(retry_attempts=5, retry_backoff=0.1, scheme="dense",
                           embedding_endpoint="http://localhost:1", embedding_model="e",
                           embedding_dimension=4)
        with pytest.raises(ProviderError, match="returned 503"):
            build_embedding_provider(config).embed(["text"])
        assert len(fake.calls) == 5

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
        pytest.param("[" * 100_000, "not valid JSON", id="deeply-nested"),
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
        assert RunConfig.from_dict(vars(RunConfig())) == RunConfig()

    @pytest.mark.parametrize("field_name", ["temperature", "timeout", "retry_backoff",
                                            "bm25_k1", "bm25_b"])
    def test_an_integer_config_value_of_a_float_field_is_a_float(self, field_name):
        value = getattr(RunConfig.from_dict({field_name: 1}), field_name)
        assert type(value) is float and value == 1.0

    def test_config_file_and_flag_give_one_cache_key(self, tmp_path):
        """A config file's "temperature": 0 posts the body of --temperature 0
        and of the default, so the runs share their cached replies."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"temperature": 0}))
        parser = cli_mod.build_parser("stats")
        from_file = cli_mod.resolve_config(parser.parse_args(["stats", "--config",
                                                              str(config_path)]))
        from_flag = cli_mod.resolve_config(parser.parse_args(["stats", "--temperature", "0"]))
        messages = [llm_mod.system("s"), llm_mod.user("u")]
        keys = {llm_mod.cache_key(llm_mod.request_body(config, messages))
                for config in (from_file, from_flag, RunConfig())}
        assert len(keys) == 1
        assert b'"temperature": 0.0,' in llm_mod.request_body(from_file, messages)

    def test_a_float_field_too_large_for_a_float_is_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"temperature": 1' + "0" * 400 + "}")
        assert main(["stats", "--config", str(config_path)]) == 2
        assert "temperature" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if "str" in f.type])
    def test_a_config_string_holding_a_nul_is_config_error(self, name):
        with pytest.raises(ConfigError, match=name):
            replace(RunConfig(), **{name: "a\u0000b"}).validate()

    def test_a_nul_in_a_config_file_path_is_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"dataset": "a\u0000b"}))
        assert main(["stats", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: dataset must not hold a NUL character")
        assert "Traceback" not in err

    def test_a_nul_in_a_manifest_path_is_config_error(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 0
        manifest_path = tmp_path / "runs" / "run-a" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["output_dir"] = "r\u0000uns"
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["bench", "--from-manifest", str(manifest_path), "--run-id", "run-b"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output_dir must not hold a NUL character")
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("pipeline", ["bogus", ["agent"], None, 1])
    def test_manifest_pipeline_must_be_a_known_pipeline(self, tmp_path, capsys, pipeline):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 0
        manifest_path = tmp_path / "runs" / "run-a" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["pipeline"] = pipeline
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["bench", "--from-manifest", str(manifest_path), "--run-id", "run-b"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: pipeline must be one of") and "Traceback" not in err
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
        pytest.param("[" * 100_000, id="deeply-nested"),
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

    def test_report_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        (corpus_dir / "DemoCo_2002.md").write_bytes(b"<!-- page: 1 -->\nbad \xff byte\n")
        code = main(_bench_args(tmp_path, corpus_dir, dataset, script,
                                extra=("--pipeline", "no_context")))
        assert code == 3
        err = capsys.readouterr().err
        assert "DemoCo_2002.md" in err and "not UTF-8" in err

    @pytest.mark.parametrize("command", ["ask", "stats"])
    def test_report_with_a_page_0_is_data_error(self, tmp_path, capsys, command):
        corpus_dir, _, script = write_dscr_workspace(tmp_path)
        report = corpus_dir / "DemoCo_2002.md"
        report.write_text("<!-- page: 0 -->\nCover.\n<!-- page: 1 -->\nText.\n")
        assert main({
            "ask": ["ask", "--question", DSCR_QUESTION, "--report", str(report),
                    "--backend", "scripted", "--script-path", str(script),
                    "--output-dir", str(tmp_path / "out")],
            "stats": ["stats", "--corpus-dir", str(corpus_dir)],
        }[command]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {report}: page 0") and "Traceback" not in err

    def test_empty_ask_question_is_usage_error(self, tmp_path, capsys):
        corpus_dir, _, script = write_dscr_workspace(tmp_path)
        assert main(["ask", "--question", "", "--report", str(corpus_dir / "DemoCo_2002.md"),
                     "--backend", "scripted", "--script-path", str(script)]) == 1
        err = capsys.readouterr().err
        assert "argument --question: must not be empty" in err and "Traceback" not in err

    def test_non_finite_reply_is_no_answer(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        script.write_text(json.dumps({"entries": [{"matcher": "", "response": "{{NaN}}"}]}))
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script,
                                extra=("--pipeline", "no_context"))) == 0
        assert "Traceback" not in capsys.readouterr().err
        row = json.loads((tmp_path / "runs" / "run-a" / "predictions.jsonl").read_text())
        assert row["insufficient"] is True

    @pytest.mark.parametrize("field, value", [("answer", "NaN"), ("year", float("inf"))])
    def test_non_finite_dataset_field_is_data_error(self, tmp_path, capsys, field, value):
        corpus_dir, dataset, _ = write_dscr_workspace(tmp_path)
        _change_record(dataset, **{field: value})
        assert main(["stats", "--corpus-dir", str(corpus_dir), "--dataset", str(dataset)]) == 3
        err = capsys.readouterr().err
        assert f"line 1: field {field!r}" in err and "Traceback" not in err

    def test_provider_error_exit_code(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        script.write_text(json.dumps({"entries": []}))  # nothing matches
        code = main(_bench_args(tmp_path, corpus_dir, dataset, script))
        assert code == 4

    def test_embedding_of_another_dimension_is_provider_error(self, tmp_path, capsys,
                                                              monkeypatch):
        def three_wide(method, url, *, headers, body=None, timeout):
            vectors = [{"embedding": [1.0, 0.0, 0.0]} for _ in json.loads(body)["input"]]
            return 200, {}, json.dumps({"data": vectors}).encode()

        monkeypatch.setattr(transport, "request", three_wide)
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        code = main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=(
            "--scheme", "dense", "--embedding-endpoint", "http://localhost:1",
            "--embedding-model", "e", "--embedding-dimension", "2")))
        assert code == 4
        assert capsys.readouterr().err.startswith(
            "provider error: provider returned dimension 3, expected 2")


# The classes that exit 2 and 4 with their prefixes; every other package
# error exits 3 with "data error: ".
_CONFIG_ERRORS = ("ConfigError",)
_PROVIDER_ERRORS = ("ProviderError", "DimensionMismatchError", "TransportError", "DecodeError",
                    "UnmatchedPromptError", "ContextOverflowError", "RateLimitedError",
                    "ChecksumMismatchError")


@pytest.mark.parametrize("error", [
    value for value in vars(errors_mod).values()
    if isinstance(value, type) and issubclass(value, errors_mod.FinReportQAError)],
    ids=lambda error: error.__name__)
def test_an_errors_class_decides_its_exit_code(capsys, monkeypatch, error):
    def fail(args, config):
        raise error("it failed")

    monkeypatch.setitem(cli_mod._COMMANDS, "stats", (fail, *cli_mod._COMMANDS["stats"][1:]))
    code, prefix = ((2, "config") if error.__name__ in _CONFIG_ERRORS
                    else (4, "provider") if error.__name__ in _PROVIDER_ERRORS
                    else (3, "data"))
    assert main(["stats"]) == code
    assert capsys.readouterr().err == f"{prefix} error: it failed\n"


# What an input file holds for each fault; None leaves it missing.
_FILE_FAULTS = {
    "missing": None,
    "directory": "mkdir",
    "not UTF-8": b'{"id": "\xff"}\n',
    "not JSON": b'{"id": "q-1"}\n\n{not json\n',
    "not an object": b"[1, 2]\n",
    "incomplete record": b'{"answer": "1"}\n',
}
# The exit code of each input file's faults: 2 for config files, 3 for data files.
_FILE_INPUTS = {"--dataset": 3, "--predictions": 3, "--raw": 3,
                "--config": 2, "--from-manifest": 2, "--script-path": 2}


def _reading_command(option, path, tmp_path):
    """A command whose ``option`` names ``path``; every other input is sound."""
    corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
    scripted = ["--backend", "scripted", "--script-path", str(script)]
    return {
        "--dataset": ["bench", "--corpus-dir", str(corpus_dir), "--dataset", path,
                      "--output-dir", str(tmp_path / "runs"), *scripted],
        "--predictions": ["score", "--predictions", path, "--gold", str(dataset)],
        "--raw": ["datagen", "--mode", "filter", "--raw", path, "--out", str(tmp_path / "dg"),
                  "--corpus-dir", str(corpus_dir)],
        "--config": ["stats", "--config", path],
        "--from-manifest": ["bench", "--from-manifest", path],
        "--script-path": _bench_args(tmp_path, corpus_dir, dataset, path),
        "--report": ["ask", "--question", "What is the DSCR?", "--report", path, *scripted],
    }[option]


@pytest.mark.parametrize("option, fault, code", [
    *((option, fault, code) for option, code in _FILE_INPUTS.items() for fault in _FILE_FAULTS),
    *(("--report", fault, 3) for fault in ("missing", "directory", "not UTF-8")),
])
def test_unreadable_input_file_exits_with_its_code(tmp_path, capsys, option, fault, code):
    path = tmp_path / "input" / "file.md"
    path.parent.mkdir()
    content = _FILE_FAULTS[fault]
    if content == "mkdir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    assert main(_reading_command(option, str(path), tmp_path)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith({2: "config error: ", 3: "data error: "}[code])


def _writing_command(command, path, tmp_path):
    """A ``command`` whose output option names ``path``; every input is sound."""
    corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(json.dumps({"id": "q-dscr-1", "answer": 1.55}) + "\n")
    raw = tmp_path / "raw.jsonl"
    raw.write_text("")
    return {
        "bench": _bench_args(tmp_path, corpus_dir, dataset, script, extra=("--output-dir", path)),
        "ask": ["ask", "--question", "What is the DSCR?", "--output-dir", path,
                "--report", str(corpus_dir / "DemoCo_2002.md"),
                "--backend", "scripted", "--script-path", str(script)],
        "score": ["score", "--predictions", str(predictions), "--gold", str(dataset),
                  "--out", path],
        "datagen": ["datagen", "--mode", "filter", "--raw", str(raw), "--out", path,
                    "--corpus-dir", str(corpus_dir)],
        "stats": ["stats", "--corpus-dir", str(corpus_dir), "--out", path],
        "ablate": ["ablate", "--corpus-dir", str(corpus_dir), "--dataset", str(dataset),
                   "--out", path],
    }[command]


# A command that writes a directory fails on a file in its place, and one that
# writes a file fails on a directory.
@pytest.mark.parametrize("command, taken_by", [
    ("bench", "file"), ("ask", "file"), ("score", "file"), ("datagen", "file"),
    ("stats", "directory"), ("ablate", "directory"),
])
def test_unwritable_output_path_is_a_config_error(tmp_path, capsys, command, taken_by):
    path = tmp_path / "output" / "taken"
    path.parent.mkdir()
    if taken_by == "directory":
        path.mkdir()
    else:
        path.write_text("not a directory")
    assert main(_writing_command(command, str(path), tmp_path)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"config error: {path}")


@pytest.mark.parametrize("name, mode", [("raw.jsonl", "generate"), ("filtered.jsonl", "filter")])
def test_unwritable_datagen_file_is_a_config_error(tmp_path, capsys, name, mode):
    corpus_dir, _, _ = write_dscr_workspace(tmp_path)
    raw = tmp_path / "raw.jsonl"
    raw.write_text("")
    script = tmp_path / "genscript.json"
    script.write_text(json.dumps({"entries": [{"matcher": "annual report", "response": "[]"}]}))
    taken = tmp_path / "dg" / name
    taken.mkdir(parents=True)
    code = main(["datagen", "--mode", mode, "--raw", str(raw), "--out", str(tmp_path / "dg"),
                 "--corpus-dir", str(corpus_dir), "--backend", "scripted",
                 "--script-path", str(script)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"config error: {taken}: cannot write")


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

    def test_score_row_keys_are_the_score_fields(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 0
        row = json.loads((tmp_path / "runs" / "run-a" / "scores.jsonl").read_text())
        assert list(row) == sorted(f.name for f in fields(metrics_mod.InstanceScore))

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

    def test_scoring_in_place_keeps_the_run_reproducible(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 0
        run_a, run_b = tmp_path / "runs" / "run-a", tmp_path / "runs" / "run-b"
        manifest = (run_a / "manifest.json").read_bytes()

        assert main(["score", "--predictions", str(run_a / "predictions.jsonl"),
                     "--gold", str(dataset)]) == 0
        assert (run_a / "manifest.json").read_bytes() == manifest
        assert json.loads((run_a / "score_manifest.json").read_text())["command"] == "score"

        assert main(["bench", "--from-manifest", str(run_a / "manifest.json"),
                     "--run-id", "run-b"]) == 0
        for name in _CANONICAL:
            assert _hash(run_a / name) == _hash(run_b / name), name

    @pytest.mark.parametrize("fault, code", [("no corpus dir", 2), ("missing report", 3)])
    def test_failed_setup_makes_no_run_directory(self, tmp_path, capsys, fault, code):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        args = _bench_args(tmp_path, corpus_dir, dataset, script)
        if fault == "no corpus dir":
            at = args.index("--corpus-dir")
            del args[at:at + 2]
        else:
            (corpus_dir / "DemoCo_2002.md").unlink()
        (tmp_path / "runs").mkdir()
        assert main(args) == code
        assert list((tmp_path / "runs").iterdir()) == []

    @pytest.mark.parametrize("field, value", [
        ("id", "../../escaped"), ("id", "a/b"), ("id", ".."), ("percent_mode", "bogus"),
        ("year", float("inf")), ("year", float("nan")), ("year", True),
        ("n_evidence_tables", True), ("n_evidence_tables", float("inf")),
        ("answer", "NaN"), ("answer", "Infinity"), ("question", ""),
        ("report_id", "Bad\u0000Name"), ("report_id", "../escape")])
    def test_bad_dataset_field_ends_bench_before_it_writes(self, tmp_path, capsys, monkeypatch,
                                                           field, value):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        _change_record(dataset, **{field: value})

        def no_call(*args):
            raise AssertionError("no LLM call expected")

        monkeypatch.setattr(ScriptedBackend, "generate", no_call)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 3
        assert f"line 1: field {field!r}" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "corpus", "dataset.jsonl", "script.json"]

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

    @pytest.mark.parametrize("pipeline", ["single_round_rag", "long_context", "agent"])
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
        script.write_text(json.dumps({"entries": [
            {"matcher": m, "response": r} for m, r in _ANSWERING_REPLIES]}))
        refs = _track_setup(monkeypatch)
        alive, done, lock = {}, set(), threading.Lock()
        answer = cli_mod._ReportRunner.answer

        def tracked_answer(self, report_id, question, question_id):
            row = answer(self, report_id, question, question_id)
            with lock:
                done.add(question_id)
                if question_id in ("q-0", "q-2") and {"q-0", "q-2"} <= done:
                    # both of the 2002 report's questions are answered
                    alive["2002"] = [ref() is not None for ref in refs["DemoCo_2002"]]
            return row

        monkeypatch.setattr(cli_mod._ReportRunner, "answer", tracked_answer)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=(
            "--pipeline", pipeline, "--workers", workers))) == 0
        assert alive == {"2002": [False] * len(refs["DemoCo_2002"])}

    def test_report_freed_with_its_retriever(self, tmp_path, monkeypatch):
        corpus_dir, _, script = write_dscr_workspace(tmp_path)
        config = RunConfig(backend="scripted", script_path=str(script))
        text = (corpus_dir / "DemoCo_2002.md").read_text(encoding="utf-8")
        paths = _report_files(corpus_dir, ("A", "B"), text)
        runner = cli_mod._ReportRunner(cli_mod.build_client(config), "single_round_rag",
                                       paths, {"A": 2, "B": 2})
        instances = [_instance("a1", "A"), _instance("b1", "B"), _instance("a2", "A"),
                     _instance("b2", "B")]
        refs = _track_setup(monkeypatch)

        def alive():
            return {rid: [ref() is not None for ref in pair] for rid, pair in refs.items()}

        states = []
        with runner:
            for instance in instances:
                runner.answer(instance.report_id, instance.question, instance.id)
                states.append(alive())
        both, gone = [True, True], [False, False]
        # after a1, B may already be set up ahead, in part or in full
        assert states[0]["A"] == both
        assert states[1:] == [{"A": both, "B": both},
                              {"A": gone, "B": both}, {"A": gone, "B": gone}]

    @pytest.mark.parametrize("pipeline, searches", [
        ("agent", True), ("single_round_rag", True), ("long_context", False),
        ("no_context", False)])
    def test_embedding_provider_is_built_once_per_run(self, tmp_path, monkeypatch,
                                                      pipeline, searches):
        corpus_dir, _, script = write_dscr_workspace(tmp_path)
        built = []

        def counting_build(config):
            built.append(HashProvider())
            return built[-1]

        monkeypatch.setattr(cli_mod, "build_embedding_provider", counting_build)
        config = RunConfig(backend="scripted", script_path=str(script), scheme="dense",
                           embedding_endpoint="http://embeddings.invalid/v1",
                           embedding_model="hash-toy", embedding_dimension=8)
        text = (corpus_dir / "DemoCo_2002.md").read_text(encoding="utf-8")
        runner = cli_mod._ReportRunner(cli_mod.build_client(config), pipeline,
                                       _report_files(corpus_dir, ("A", "B"), text),
                                       {"A": 1, "B": 1})
        with runner:
            entries = [runner._setup_future(report_id).result() for report_id in ("A", "B")]
        assert len(built) == (1 if searches else 0)
        if searches:
            assert all(retriever.provider is built[0] for _, retriever in entries)

    def test_question_counts_survive_many_workers(self, tmp_path, monkeypatch):
        script = tmp_path / "script.json"
        script.write_text(json.dumps({
            "mode": "repeatable", "entries": [{"matcher": "Question", "response": "{{1}}"}]}))
        config = RunConfig(backend="scripted", script_path=str(script))
        report_ids = [f"R{i}" for i in range(6)]
        runner = cli_mod._ReportRunner(
            cli_mod.build_client(config), "no_context",
            _report_files(tmp_path, report_ids, "<!-- page: 1 -->\nbody\n"),
            dict.fromkeys(report_ids, 40))
        instances = [_instance(f"{rid}-{n}", rid) for n in range(40) for rid in report_ids]
        loads = []
        load_report = cli_mod.corpus_mod.load_report

        def counting_load_report(path):
            loads.append(path.stem)
            time.sleep(0.01)  # a slow load, so that workers needing the report overlap it
            return load_report(path)

        monkeypatch.setattr(cli_mod.corpus_mod, "load_report", counting_load_report)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with runner, ThreadPoolExecutor(max_workers=8) as pool:
                rows = list(pool.map(_answer_each(runner), instances, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(rows) == len(instances)
        assert runner._reports == {}
        assert runner._questions_left == dict.fromkeys(report_ids, 0)
        # the reports interleave, so each is set up once, by one worker
        assert sorted(loads) == report_ids

    @pytest.mark.parametrize("grouped, pipeline", [
        pytest.param(True, "long_context", id="True"),
        pytest.param(False, "long_context", id="False"),
        pytest.param(True, "agent", id="agent-grouped"),
        pytest.param(False, "agent", id="agent-interleaved")])
    def test_each_report_is_set_up_once_with_set_up_ahead(self, tmp_path, monkeypatch,
                                                          grouped, pipeline):
        script = tmp_path / "script.json"
        # the agent's expansion and evaluation prompts also hold "Question"
        entries = [("financial text understanding", "Alpha"),
                   ("inspects a generated answer", "NONE"), ("Question", "{{1}}")]
        script.write_text(json.dumps({"mode": "repeatable", "entries": [
            {"matcher": m, "response": r} for m, r in entries]}))
        config = RunConfig(backend="scripted", script_path=str(script))
        report_ids = [f"R{i}" for i in range(6)]
        runner = cli_mod._ReportRunner(
            cli_mod.build_client(config), pipeline,
            _report_files(tmp_path, report_ids, "<!-- page: 1 -->\nbody\n"),
            dict.fromkeys(report_ids, 20))
        instances = ([_instance(f"{rid}-{n}", rid) for rid in report_ids for n in range(20)]
                     if grouped else
                     [_instance(f"{rid}-{n}", rid) for n in range(20) for rid in report_ids])
        loads = []
        load_report = cli_mod.corpus_mod.load_report

        def counting_load_report(path):
            loads.append(path.stem)
            time.sleep(0.005)  # a slow load, so that questions needing the report overlap it
            return load_report(path)

        monkeypatch.setattr(cli_mod.corpus_mod, "load_report", counting_load_report)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with runner, ThreadPoolExecutor(max_workers=8) as pool:
                rows = list(pool.map(_answer_each(runner), instances, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(rows) == len(instances)
        assert runner._reports == {}
        assert runner._questions_left == dict.fromkeys(report_ids, 0)
        assert sorted(loads) == report_ids

    @pytest.mark.parametrize("pipeline", ["long_context", "single_round_rag"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_more_than_workers_plus_one_reports_are_held(self, tmp_path, capsys,
                                                            monkeypatch, pipeline, workers):
        years = (2002, 2003, 2004, 2005)
        corpus_dir, dataset, script = _grouped_workspace(tmp_path, years, 3)
        refs = _track_setup(monkeypatch)
        held, lock = [], threading.Lock()
        run_baseline = cli_mod.pipelines_mod.run_baseline

        def counting_run_baseline(*args, **kwargs):
            with lock:
                held.append(sum(pair[0]() is not None for pair in refs.values()))
            return run_baseline(*args, **kwargs)

        monkeypatch.setattr(cli_mod.pipelines_mod, "run_baseline", counting_run_baseline)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=(
            "--pipeline", pipeline, "--workers", str(workers)))) == 0
        assert sorted(refs) == [f"DemoCo_{year}" for year in years]
        assert len(held) == 12 and 1 <= max(held) <= workers + 1, held

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_no_loaded_report_outlives_a_long_context_set_up(self, tmp_path, capsys,
                                                              monkeypatch, workers):
        corpus_dir, dataset, script = _grouped_workspace(tmp_path, (2002, 2003, 2004), 2)
        loaded, alive = {}, []
        load_report = cli_mod.corpus_mod.load_report
        setup = cli_mod._ReportRunner._setup

        def tracked_load_report(path, *args):
            report = load_report(path, *args)
            loaded[report.report_id] = weakref.ref(report)
            return report

        def checked_setup(self, report_id):
            entry = setup(self, report_id)
            alive.append(loaded[report_id]() is not None)
            return entry

        monkeypatch.setattr(cli_mod.corpus_mod, "load_report", tracked_load_report)
        monkeypatch.setattr(cli_mod._ReportRunner, "_setup", checked_setup)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=(
            "--pipeline", "long_context", "--workers", workers))) == 0
        # the held prefix keeps the flat pages, and no page text
        assert alive == [False] * 3

    @pytest.mark.parametrize("pipeline", cli_mod.PIPELINES)
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_every_set_up_runs_on_the_set_up_thread_inside_a_question(
            self, tmp_path, capsys, monkeypatch, pipeline, workers):
        corpus_dir, dataset, script = _grouped_workspace(tmp_path, (2002, 2003), 2)
        script.write_text(json.dumps({"entries": [
            {"matcher": m, "response": r} for m, r in _ANSWERING_REPLIES]}))
        loaders, loads, calls, lock = [], [], [], threading.Lock()
        load_report = cli_mod.corpus_mod.load_report

        def slow_load_report(path, *args):
            loaders.append(threading.current_thread().name)
            time.sleep(0.05)
            try:
                return load_report(path, *args)
            finally:
                loads.append(time.perf_counter())

        def timed(call):
            def timed_call(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return call(*args, **kwargs)
                finally:
                    with lock:
                        calls.append((start, time.perf_counter()))
            return timed_call

        monkeypatch.setattr(cli_mod.corpus_mod, "load_report", slow_load_report)
        if pipeline == "agent":
            agent_class = cli_mod.pipelines_mod.AgentPipeline
            monkeypatch.setattr(agent_class, "run", timed(agent_class.run))
        else:
            monkeypatch.setattr(cli_mod.pipelines_mod, "run_baseline",
                                timed(cli_mod.pipelines_mod.run_baseline))
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=(
            "--pipeline", pipeline, "--workers", workers))) == 0
        assert len(loaders) == 2 and all(name.startswith("report-setup") for name in loaders)
        # the first question waits for its report's 50 ms load inside its own call
        first_start, first_end = min(calls)
        assert len(calls) == 4 and first_start < loads[0] <= first_end, (calls, loads)

    @pytest.mark.parametrize("pipeline", cli_mod.PIPELINES)
    def test_a_question_completes_while_another_report_is_set_up(self, tmp_path, monkeypatch,
                                                                  pipeline):
        """No set-up holds the runner's lock: a question of a held report is
        answered and counted while another report's set-up is blocked."""
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"mode": "repeatable", "entries": [
            {"matcher": m, "response": r} for m, r in _ANSWERING_REPLIES]}))
        config = RunConfig(backend="scripted", script_path=str(script))
        # C is set up ahead once A's first question is answered, so B's first
        # question starts B's set-up
        runner = cli_mod._ReportRunner(
            cli_mod.build_client(config), pipeline,
            _report_files(tmp_path, ("A", "C", "B"), "<!-- page: 1 -->\nQuestion body\n"),
            {"A": 2, "C": 1, "B": 1})
        loading, released, waits = threading.Event(), threading.Event(), []
        load_report = cli_mod.corpus_mod.load_report

        def blocking_load_report(path):
            if path.stem == "B":
                loading.set()
                waits.append(released.wait(timeout=5))
            return load_report(path)

        monkeypatch.setattr(cli_mod.corpus_mod, "load_report", blocking_load_report)
        with runner, ThreadPoolExecutor(max_workers=1) as pool:
            runner.answer("A", "Question?", "a1")
            b1 = pool.submit(runner.answer, "B", "Question?", "b1")
            assert loading.wait(timeout=5)
            runner.answer("A", "Question?", "a2")
            released.set()
            b1.result(timeout=10)
            runner.answer("C", "Question?", "c1")
        # a2 was answered while B's load waited, not after its timeout
        assert waits == [True]
        assert runner._questions_left == {"A": 0, "C": 0, "B": 0}

    @pytest.mark.parametrize("workers, pipeline", [
        pytest.param("1", "no_context", id="1"), pytest.param("2", "no_context", id="2"),
        ("1", "long_context"), ("2", "long_context"), ("1", "agent"), ("2", "agent")])
    def test_a_bad_report_mid_run_keeps_the_rows_before_it(self, tmp_path, capsys, workers,
                                                           pipeline):
        corpus_dir, dataset, script = _grouped_workspace(tmp_path, (2002, 2003, 2004), 2)
        if pipeline == "agent":
            script.write_text(json.dumps({
                "entries": [{"matcher": m, "response": r} for m, r in DSCR_SCRIPT]}))
        # the blank report is set up ahead, once the first report's first
        # question is answered
        (corpus_dir / "DemoCo_2003.md").write_text(" \n\n", encoding="utf-8")
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=(
            "--pipeline", pipeline, "--workers", workers))) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            f"data error: {corpus_dir / 'DemoCo_2003.md'}: document has no non-whitespace content")
        assert "Traceback" not in err
        rows = (tmp_path / "runs" / "run-a" / "predictions.jsonl").read_text().splitlines()
        assert [json.loads(row)["id"] for row in rows] == ["q-2002-0", "q-2002-1"]

    @pytest.mark.parametrize("pipeline", ["long_context", "single_round_rag"])
    @pytest.mark.parametrize("fault, code", [(None, 0), ("bad report", 3), ("provider", 4)])
    def test_the_next_report_is_set_up_ahead_on_a_thread_that_ends(
            self, tmp_path, capsys, monkeypatch, pipeline, fault, code):
        years = (2002, 2003, 2004, 2005)
        corpus_dir, dataset, script = _grouped_workspace(tmp_path, years, 3)
        if fault == "bad report":
            (corpus_dir / "DemoCo_2004.md").write_text(" \n\n", encoding="utf-8")
        loading = {f"DemoCo_{year}": threading.Event() for year in years}
        loaders = set()
        load_report = cli_mod.corpus_mod.load_report

        def tracked_load_report(path, *args):
            loaders.add(threading.current_thread())
            loading[path.stem].set()
            return load_report(path, *args)

        ahead = []  # at each report's last question: had the next report's load begun?
        calls = iter(range(len(years) * 3))
        run_baseline = cli_mod.pipelines_mod.run_baseline

        def last_question_waits(*args, **kwargs):
            index, position = divmod(next(calls), 3)
            if position == 2 and index + 1 < len(years):
                ahead.append(loading[f"DemoCo_{years[index + 1]}"].wait(timeout=5))
                if fault == "provider":
                    raise ProviderError("endpoint down")
            return run_baseline(*args, **kwargs)

        monkeypatch.setattr(cli_mod.corpus_mod, "load_report", tracked_load_report)
        monkeypatch.setattr(cli_mod.pipelines_mod, "run_baseline", last_question_waits)
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script, extra=(
            "--pipeline", pipeline, "--workers", "1"))) == code
        assert ahead == [True] * {0: 3, 3: 2, 4: 1}[code]
        started = loaders - {threading.current_thread()}
        assert started and not any(thread.is_alive() for thread in started)
        assert "Traceback" not in capsys.readouterr().err

    def test_a_missing_last_report_makes_no_run_directory(self, tmp_path, capsys, monkeypatch):
        corpus_dir, dataset, script = _grouped_workspace(tmp_path, (2002, 2003, 2004), 2)
        (corpus_dir / "DemoCo_2004.md").unlink()

        def no_load(*args):
            raise AssertionError("no report is loaded before the run directory exists")

        monkeypatch.setattr(cli_mod.corpus_mod, "load_report", no_load)
        (tmp_path / "runs").mkdir()
        assert main(_bench_args(tmp_path, corpus_dir, dataset, script)) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "DemoCo_2004.md" in err
        assert list((tmp_path / "runs").iterdir()) == []

    @staticmethod
    def _agent_argv(tmp_path, command):
        """The DSCR report's path, and the argv of ``command``: ``bench`` at
        1 or 2 workers over two questions of that report, or ``ask`` of one."""
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        record = json.loads(dataset.read_text())
        dataset.write_text("".join(
            json.dumps({**record, "id": f"q-{n}"}) + "\n" for n in range(2)))
        report = corpus_dir / "DemoCo_2002.md"
        if command == "ask":
            return report, ["ask", "--question", DSCR_QUESTION, "--report", str(report),
                            "--backend", "scripted", "--script-path", str(script),
                            "--output-dir", str(tmp_path / "out")]
        workers = command.split()[1]
        return report, _bench_args(tmp_path, corpus_dir, dataset, script,
                                   extra=("--workers", workers))

    @pytest.mark.parametrize("command", ["bench 1", "bench 2", "ask"])
    def test_the_agent_index_builds_while_the_expansion_call_is_in_flight(
            self, tmp_path, capsys, monkeypatch, command):
        _, argv = self._agent_argv(tmp_path, command)
        expansion_sent, build_started = threading.Event(), threading.Event()
        build_waits, expansion_waits = [], []
        build_retriever = cli_mod.retrieval_mod.build_retriever
        generate = ScriptedBackend.generate

        def build_after_the_expansion_is_sent(*args, **kwargs):
            build_started.set()
            build_waits.append(expansion_sent.wait(timeout=5))
            return build_retriever(*args, **kwargs)

        def expand_while_the_build_runs(self, config, messages, body):
            if messages[0].content == prompts.EXPANSION_SYSTEM:
                expansion_sent.set()
                expansion_waits.append(build_started.wait(timeout=5))
            return generate(self, config, messages, body)

        monkeypatch.setattr(cli_mod.retrieval_mod, "build_retriever",
                            build_after_the_expansion_is_sent)
        monkeypatch.setattr(ScriptedBackend, "generate", expand_while_the_build_runs)
        assert main(argv) == 0
        # a runner that builds before the expansion call waits out both timeouts
        assert build_waits == [True]
        assert expansion_waits and all(expansion_waits)

    @pytest.mark.parametrize("command", ["bench 1", "bench 2", "ask"])
    def test_a_blank_report_set_up_during_an_agent_question(self, tmp_path, capsys,
                                                            monkeypatch, command):
        report, argv = self._agent_argv(tmp_path, command)
        report.write_text(" \n\n", encoding="utf-8")
        loaders, prompts_sent = set(), []
        load_report = cli_mod.corpus_mod.load_report
        generate = ScriptedBackend.generate

        def tracked_load_report(path, *args):
            loaders.add(threading.current_thread())
            return load_report(path, *args)

        def tracked_generate(self, config, messages, body):
            prompts_sent.append(messages[0].content)
            return generate(self, config, messages, body)

        monkeypatch.setattr(cli_mod.corpus_mod, "load_report", tracked_load_report)
        monkeypatch.setattr(ScriptedBackend, "generate", tracked_generate)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {report}: document has no non-whitespace content")
        assert "Traceback" not in err
        # the set-up ran on the set-up thread, which has ended
        assert loaders and all(t.name.startswith("report-setup") for t in loaders)
        assert not any(thread.is_alive() for thread in loaders)
        # at most one expansion request per question in flight went out first
        questions_in_flight = 1 if command != "bench 2" else 2
        assert len(prompts_sent) <= questions_in_flight
        assert set(prompts_sent) <= {prompts.EXPANSION_SYSTEM}
        if command == "ask":
            assert not (tmp_path / "out" / "ask_transcript.json").exists()

    @pytest.mark.parametrize("pipeline", ["agent", "long_context"])
    def test_ask_frees_its_report_after_its_one_question(self, tmp_path, capsys, monkeypatch,
                                                         pipeline):
        report, argv = self._agent_argv(tmp_path, "ask")
        if pipeline != "agent":
            Path(argv[argv.index("--script-path") + 1]).write_text(json.dumps({
                "entries": [{"matcher": "Question", "response": "{{1.55}}"}]}))
        runners = []

        class RecordedRunner(cli_mod._ReportRunner):
            def __init__(self, *args):
                super().__init__(*args)
                runners.append(self)

        monkeypatch.setattr(cli_mod, "_ReportRunner", RecordedRunner)
        assert main([*argv, "--pipeline", pipeline]) == 0
        assert "answer: 1.55" in capsys.readouterr().out
        [runner] = runners
        assert runner._reports == {}
        assert runner._questions_left == {report.stem: 0}

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

    @pytest.mark.parametrize("answer", ["NaN", "Infinity", "-Infinity", "1e999999"])
    def test_non_finite_prediction_scores_zero(self, tmp_path, capsys, answer):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(f'{{"id": "q-dscr-1", "answer": {answer}}}\n')
        assert main(["score", "--predictions", str(predictions), "--gold", str(dataset),
                     "--out", str(tmp_path / "scored")]) == 0
        assert json.loads(capsys.readouterr().out)["tol_acc"] == 0.0
        row = json.loads((tmp_path / "scored" / "scores.jsonl").read_text())
        assert row["reason"] == "non_numeric_prediction"

    def test_unknown_prediction_id_is_data_error(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(json.dumps({"id": "ghost", "answer": 1.0}) + "\n")
        assert main(["score", "--predictions", str(predictions),
                     "--gold", str(dataset)]) == 3

    def test_unknown_percent_mode_is_data_error(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        _change_record(dataset, percent_mode="bogus")
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(json.dumps({"id": "q-dscr-1", "answer": 1.55}) + "\n")
        assert main(["score", "--predictions", str(predictions), "--gold", str(dataset),
                     "--out", str(tmp_path / "scored")]) == 3
        assert "line 1: field 'percent_mode'" in capsys.readouterr().err
        assert not (tmp_path / "scored").exists()

    def test_repeated_prediction_id_is_data_error(self, tmp_path, capsys):
        corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(json.dumps({"id": "q-dscr-1", "answer": 1.55}) + "\n"
                               + json.dumps({"id": "q-dscr-1", "answer": 9.99}) + "\n")
        assert main(["score", "--predictions", str(predictions), "--gold", str(dataset),
                     "--out", str(tmp_path / "scored")]) == 3
        assert f"line 2: {predictions}: id 'q-dscr-1' repeats" in capsys.readouterr().err
        assert not (tmp_path / "scored").exists()

    @pytest.mark.parametrize("line, message", [
        ("{not json", "invalid JSON"),
        ("[1, 2]", "not a JSON object"),
        ('{"answer": 1.0}', "JSON object with a string id"),
        ('{"id": ["q-dscr-1"], "answer": 1.0}', "JSON object with a string id"),
        pytest.param("[" * 100_000, "invalid JSON", id="deeply-nested"),
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

    @pytest.mark.parametrize("command", ["stats", "ablate"])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_a_corpus_dir_that_is_not_a_directory_is_config_error(self, tmp_path, capsys,
                                                                   command, kind):
        """Not an empty corpus: stats would print zeros and exit 0, and ablate
        would blame the first question."""
        _, dataset, _ = write_dscr_workspace(tmp_path)
        corpus_dir = tmp_path / "no_such_dir"
        if kind == "file":
            corpus_dir.write_text("not a directory\n")
        code = main([command, "--corpus-dir", str(corpus_dir), "--dataset", str(dataset)])
        assert code == 2
        captured = capsys.readouterr()
        assert f"corpus_dir {corpus_dir}: not a directory" in captured.err
        assert not captured.out

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

    def test_ablate_builds_indices_with_the_bm25_flags(self, tmp_path, capsys, monkeypatch):
        corpus_dir, dataset, _ = write_dscr_workspace(tmp_path)
        build = cli_mod.retrieval_mod.build_sparse_index
        built = []

        def recording_build(units, scheme="bm25", *args):
            built.append((scheme, *args))
            return build(units, scheme, *args)

        monkeypatch.setattr(cli_mod.retrieval_mod, "build_sparse_index", recording_build)
        code = main(["ablate", "--corpus-dir", str(corpus_dir), "--dataset", str(dataset),
                     "--sizes", "8", "--k-values", "1", "--bm25-k1", "2.0", "--bm25-b", "0.5"])
        assert code == 0
        assert built == [("bm25", (2.0, 0.5))] * 2

    def test_ablate_over_a_report_missing_from_the_corpus_is_data_error(self, tmp_path, capsys):
        _, dataset, _ = write_dscr_workspace(tmp_path)
        (tmp_path / "empty").mkdir()
        code = main(["ablate", "--corpus-dir", str(tmp_path / "empty"), "--dataset", str(dataset)])
        assert code == 3
        assert "unknown report 'DemoCo_2002'" in capsys.readouterr().err

    def test_ablate_with_dense_scheme_is_config_error(self, tmp_path, capsys, no_network):
        corpus_dir, dataset, _ = write_dscr_workspace(tmp_path)
        code = main(["ablate", "--corpus-dir", str(corpus_dir), "--dataset", str(dataset),
                     "--scheme", "dense", "--embedding-endpoint", "http://127.0.0.1:9/embed",
                     "--embedding-model", "m", "--embedding-dimension", "4"])
        assert code == 2
        assert "ablate" in capsys.readouterr().err

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

    def test_datagen_filter_writes_a_dataset_whose_ids_do_not_repeat(self, tmp_path, capsys):
        corpus_dir, _, _ = write_dscr_workspace(tmp_path)
        record = {"id": "r1", "company": "DemoCo", "year": "2002", "question": "?",
                  "type": "table", "thoughts": "t", "page_numbers": [31, 50],
                  "python_code": "17/(11+0)", "answer": "1.55", "report_id": "DemoCo_2002"}
        raw = tmp_path / "raw.jsonl"
        raw.write_text(json.dumps(record) + "\n" + json.dumps(dict(record, thoughts="u")) + "\n")
        out_dir = tmp_path / "dg"
        assert main(["datagen", "--mode", "filter", "--raw", str(raw),
                     "--out", str(out_dir), "--corpus-dir", str(corpus_dir)]) == 0
        stats = json.loads((out_dir / "filter_report.json").read_text())
        assert (stats["kept"], stats["rejections"]["duplicate_id"]) == (1, 1)
        assert json.loads((out_dir / "filtered.jsonl").read_text())["thoughts"] == "t"
        assert main(["stats", "--corpus-dir", str(corpus_dir),
                     "--dataset", str(out_dir / "filtered.jsonl")]) == 0

    @pytest.mark.parametrize("field, value, message", [
        ("report_id", ["DemoCo_2002"], "report_id must be a string"),
        ("page_numbers", [31, 0], "page_numbers must be positive"),
        ("page_numbers", [-4, 50], "page_numbers must be positive"),
        ("page_numbers", [31.9, 50], "page_numbers must be positive integers"),
        ("page_numbers", ["31", 50], "page_numbers must be positive integers"),
        ("page_numbers", [True, 50], "page_numbers must be positive integers"),
        ("id", "../escaped", "id must be one plain file name"),
        ("report_id", "../escape", "report_id must be one plain file name"),
        ("report_id", "Bad\u0000Name", "report_id must be one plain file name"),
        ("percent_mode", "bogus", "percent_mode must be one of"),
    ])
    def test_datagen_filter_rejects_a_bad_record(self, tmp_path, capsys, field, value, message):
        corpus_dir, _, _ = write_dscr_workspace(tmp_path)
        record = {"id": "r1", "company": "DemoCo", "year": "2002", "question": "?",
                  "type": "table", "thoughts": "t", "page_numbers": [31, 50],
                  "python_code": "17/(11+0)", "answer": "1.55", "report_id": "DemoCo_2002"}
        raw = tmp_path / "raw.jsonl"
        raw.write_text(json.dumps(record) + "\n" + json.dumps(dict(record, **{field: value})) + "\n")
        out_dir = tmp_path / "dg"
        code = main(["datagen", "--mode", "filter", "--raw", str(raw),
                     "--out", str(out_dir), "--corpus-dir", str(corpus_dir)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err
        assert f"line 2: {raw}" in err and message in err
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("flag", ["--max-pairs", "--sample-pages"])
    @pytest.mark.parametrize("value", ["0", "-1", "-2", "2.5", "x"])
    def test_datagen_rejects_a_size_below_1_as_usage_error(self, tmp_path, capsys,
                                                          flag, value):
        corpus_dir, _, _ = write_dscr_workspace(tmp_path)
        script = tmp_path / "genscript.json"
        script.write_text(json.dumps({"entries": [{"matcher": "annual report",
                                                   "response": "[]"}]}))
        out_dir = tmp_path / "dg"
        code = main(["datagen", "--mode", "generate", "--out", str(out_dir),
                     "--corpus-dir", str(corpus_dir), "--backend", "scripted",
                     "--script-path", str(script), flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "integer >= 1" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("mode", ["generate", "both"])
    def test_datagen_over_a_report_too_short_to_sample_is_data_error(self, tmp_path, capsys,
                                                                     mode):
        corpus_dir, _, _ = write_dscr_workspace(tmp_path)
        short = corpus_dir / "ShortCo_2002.md"
        short.write_text("<!-- page: 1 -->\nOne.\n<!-- page: 2 -->\nTwo.\n", encoding="utf-8")
        script = tmp_path / "genscript.json"
        script.write_text(json.dumps({"entries": [{"matcher": "annual report",
                                                   "response": "[]"}]}))
        out_dir = tmp_path / "dg"
        code = main(["datagen", "--mode", mode, "--out", str(out_dir),
                     "--corpus-dir", str(corpus_dir), "--backend", "scripted",
                     "--script-path", str(script)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {short}: ") and "at least 3 pages" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("mode", ["generate", "both"])
    def test_datagen_with_an_unreadable_script_makes_no_output_directory(self, tmp_path,
                                                                         capsys, mode):
        corpus_dir, _, _ = write_dscr_workspace(tmp_path)
        missing = tmp_path / "missing.json"
        out_dir = tmp_path / "dg"
        code = main(["datagen", "--mode", mode, "--out", str(out_dir),
                     "--corpus-dir", str(corpus_dir), "--backend", "scripted",
                     "--script-path", str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(missing) in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_datagen_filters_a_report_too_short_to_sample(self, tmp_path, capsys):
        """Only sampling needs 3 pages: filter mode reads a short report."""
        corpus_dir, _, _ = write_dscr_workspace(tmp_path)
        (corpus_dir / "ShortCo_2002.md").write_text("<!-- page: 1 -->\nOne.\n",
                                                    encoding="utf-8")
        raw = tmp_path / "raw.jsonl"
        raw.write_text("")
        assert main(["datagen", "--mode", "filter", "--raw", str(raw),
                     "--out", str(tmp_path / "dg"), "--corpus-dir", str(corpus_dir)]) == 0

    def test_ingest_is_wired(self, tmp_path, monkeypatch, capsys):
        # transport-level substitution; the CLI path itself stays intact
        fixture = {
            "name": "Demo", "filings": {"recent": {
                "accessionNumber": ["0000000001-24-000001"],
                "form": ["10-K"], "filingDate": ["2024-02-01"],
                "primaryDocument": ["a.htm"],
            }}}

        body = json.dumps(fixture).encode()
        monkeypatch.setattr(transport, "request",
                            FakeRequest([(200, {"Content-Length": str(len(body))}, body)]))
        code = main(["ingest", "--issuer", "123", "--years", "2024-2024"])
        assert code == 0
        assert "1 filings" in capsys.readouterr().out

    def test_ingest_takes_the_retry_flags(self, monkeypatch, capsys):
        fake = FakeRequest([(503, {"Retry-After": "0"}, b"")])
        monkeypatch.setattr(transport, "request", fake)
        code = main(["ingest", "--issuer", "123", "--retry-attempts", "2",
                     "--retry-backoff", "0"])
        assert code == 4
        assert "rate limited" in capsys.readouterr().err
        assert len(fake.calls) == 2

    @pytest.mark.parametrize("flags, timeout", [((), 120.0), (("--timeout", "7.5"), 7.5)])
    def test_ingest_takes_the_timeout_flag(self, monkeypatch, capsys, flags, timeout):
        fake = FakeRequest([(404, {}, b"")])
        monkeypatch.setattr(transport, "request", fake)
        assert main(["ingest", "--issuer", "123", *flags]) == 3
        assert [call.timeout for call in fake.calls] == [timeout]


# flag -> the pipeline it sets, and what a run's outputs show of it: the
# agent's rounds, its most new units in one round, or its units held; a
# baseline's retrieval depth
_PIPELINE_FLAGS = {
    "--max-rounds": ("agent", lambda rounds, ks: len(rounds)),
    "--k-per-round": ("agent", lambda rounds, ks: max(len(r["new_unit_ids"]) for r in rounds)),
    "--chunk-budget": ("agent", lambda rounds, ks: sum(len(r["new_unit_ids"]) for r in rounds)),
    "--baseline-k": ("single_round_rag", lambda rounds, ks: max(ks)),
    "--fixed-budget-k": ("fixed_budget_rag", lambda rounds, ks: max(ks)),
}


@pytest.mark.parametrize("command", ["bench", "ask"])
@pytest.mark.parametrize("flag", list(_PIPELINE_FLAGS))
def test_agent_and_baseline_flags_reach_the_pipeline(tmp_path, capsys, monkeypatch,
                                                     command, flag):
    """Each flag, set to 2, bounds what it names; at its default the same run
    goes past 2, so the bound is the flag's doing."""
    import finreportqa.retrieval as retrieval_mod

    corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
    script.write_text(json.dumps({"entries": [{"matcher": m, "response": r}
                                              for m, r in ALWAYS_MISSING_SCRIPT]}))
    pipeline, observe = _PIPELINE_FLAGS[flag]
    search = retrieval_mod.search
    ks = []

    def recording_search(index, query_text, k):
        ks.append(k)
        return search(index, query_text, k)

    monkeypatch.setattr(retrieval_mod, "search", recording_search)

    def observed(run_id, extra):
        ks.clear()
        if command == "bench":
            assert main(_bench_args(tmp_path, corpus_dir, dataset, script, run_id=run_id,
                                    extra=("--pipeline", pipeline, *extra))) == 0
            transcript = tmp_path / "runs" / run_id / "transcripts" / "q-dscr-1.json"
        else:
            assert main(["ask", "--question", DSCR_QUESTION,
                         "--report", str(corpus_dir / "DemoCo_2002.md"),
                         "--pipeline", pipeline, "--backend", "scripted",
                         "--script-path", str(script), "--output-dir", str(tmp_path / run_id),
                         *extra]) == 0
            transcript = tmp_path / run_id / "ask_transcript.json"
        rounds = json.loads(transcript.read_text())["rounds"] if pipeline == "agent" else []
        return observe(rounds, ks)

    assert observed("flag", (flag, "2")) <= 2 < observed("default", ())


@pytest.mark.parametrize("years", ["abc", "2022", "22-24", "2022-", "2022-2024-2026",
                                   "2024-2022", " 2022-2024", "２０２２-2024"])
def test_ingest_rejects_malformed_years_as_usage_error(capsys, no_network, years):
    assert main(["ingest", "--issuer", "123", "--years", years]) == 1
    err = capsys.readouterr().err
    assert "argument --years" in err and "YYYY-YYYY" in err


@pytest.mark.parametrize("command", ["bench", "score", "ask", "stats", "ablate", "datagen",
                                     "ingest"])
def test_help_lists_every_config_flag(capsys, command):
    assert main([command, "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    for setting in fields(RunConfig):
        flag = f"--{setting.name.replace('_', '-')} CFG_{setting.name.upper()}"
        assert f"{flag} {setting.metadata['help']}" in help_text


# sha256 of stdout plus stderr at 80 columns, as the parser printed them when
# it built every subcommand's flags on every start
_USAGE_SHA256 = {
    ("--help",): "32be2340708bb558b81d4b54c7d409429aed0c45c713c34b985b4ffbd2b3c06f",
    ("bench", "--help"): "43d812adf8f7bb2cdd7f66685789d769d29ba4cbbda6a814f0f88eb6bf3ae26a",
    ("score", "--help"): "36574dba535ebfcd789442aaf145cc4756d031679a171e9e7592a9f0a68b3aec",
    ("ask", "--help"): "be21e42dd14f1edb0a3f60c7e1e2643a7fd212b5fd1b3a15bc9a76d1fad7956a",
    ("stats", "--help"): "d1b4f8586edd81eebd9a9d50ef003204e143b7c50ba29c04b09623420d569bc9",
    ("ablate", "--help"): "2c8502974e949d3b1f4b54e179de40b32a5d0196afed6c60cc82f593e27a9f0f",
    ("datagen", "--help"): "2da41e2c4760b669bdbde7639d88a66d4de6fcda0d03f5f595271db494a463e4",
    ("ingest", "--help"): "ef2a1d4aded811a59647267cf7e56cd6759daf24c4f3d927284197f6e30c5506",
    ("nope",): "7a3fc8ccede1a709ea6b5d2905273aa408cb564c8db85bfde75956a7fb74b8d7",
    (): "45dd2667ab084252828b023f36f29813718beff286db12c7f3024eb34d3edcfe",
}


@pytest.mark.parametrize("argv", list(_USAGE_SHA256), ids=lambda argv: " ".join(argv) or "none")
def test_help_and_usage_errors_are_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(list(argv)) == (0 if "--help" in argv else 1)
    printed = capsys.readouterr()
    digest = hashlib.sha256((printed.out + printed.err).encode("utf-8")).hexdigest()
    assert digest == _USAGE_SHA256[argv]


# sha256 of each command's stdout on the DSCR workspace, with the workspace
# directory written as <tmp>, and of the JSON files that stats, ablate and
# datagen write
_OUTPUT_SHA256 = {
    "bench stdout": "ffd842baced187afa532398a3c99744f0bb6db9b1464df1920647c534ee0b4bb",
    "score stdout": "1a0c256768da03910209f43f8cca9762b84ff0a76a37e417c56672072320d5d8",
    "stats stdout": "8edf7827ab5ce7b7363358ec2e7e6d69aef44afdde28cfe859de1cc2fb6887d1",
    "ablate stdout": "e0984a58c93e1a3c3bba4feb3b0ff2884875a4e8fc84afef05fea3a16ddbacd7",
    "datagen stdout": "429c625ba9d2d3803529515a2368afe91d7fd7d96d92716da2f3dc6f1e8d1eb4",
    "stats --out": "8edf7827ab5ce7b7363358ec2e7e6d69aef44afdde28cfe859de1cc2fb6887d1",
    "ablate --out": "e0984a58c93e1a3c3bba4feb3b0ff2884875a4e8fc84afef05fea3a16ddbacd7",
    "filter_report.json": "429c625ba9d2d3803529515a2368afe91d7fd7d96d92716da2f3dc6f1e8d1eb4",
}


def test_command_outputs_are_unchanged(tmp_path, capsys):
    corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
    record = {"id": "r1", "company": "DemoCo", "year": "2002", "question": "?",
              "type": "table", "thoughts": "t", "page_numbers": [31, 50],
              "python_code": "17/(11+0)", "answer": "1.55", "report_id": "DemoCo_2002"}
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps(r) + "\n" for r in (
        record,
        dict(record, id="r2", page_numbers=[31]),
        dict(record, id="r3", answer="2"),
        dict(record, thoughts="u"),
    )))
    commands = {
        "bench": _bench_args(tmp_path, corpus_dir, dataset, script),
        "score": ["score", "--predictions", str(tmp_path / "runs" / "run-a" / "predictions.jsonl"),
                  "--gold", str(dataset), "--out", str(tmp_path / "scored")],
        "stats": ["stats", "--corpus-dir", str(corpus_dir), "--dataset", str(dataset),
                  "--out", str(tmp_path / "stats.json")],
        "ablate": ["ablate", "--corpus-dir", str(corpus_dir), "--dataset", str(dataset),
                   "--sizes", "8,64", "--k-values", "1,6",
                   "--out", str(tmp_path / "ablate.json")],
        "datagen": ["datagen", "--mode", "filter", "--raw", str(raw),
                    "--out", str(tmp_path / "dg"), "--corpus-dir", str(corpus_dir)],
    }
    outputs = {}
    for name, argv in commands.items():
        assert main(argv) == 0, name
        out = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
        outputs[f"{name} stdout"] = out.encode("utf-8")
    for name, path in (("stats --out", "stats.json"), ("ablate --out", "ablate.json"),
                       ("filter_report.json", "dg/filter_report.json")):
        outputs[name] = (tmp_path / path).read_bytes()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == _OUTPUT_SHA256


_COMMAND_ONLY_MODULES = ("finreportqa.datagen", "finreportqa.ingest", "finreportqa.program",
                         "html.parser", "statistics")


def test_bench_loads_no_module_of_another_command(tmp_path):
    """datagen, ingest and stats load their own modules when they run; a
    bench run loads none of them. The other commands still work after it."""
    import subprocess

    corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
    bench = _bench_args(tmp_path, corpus_dir, dataset, script)
    stats = ["stats", "--corpus-dir", str(corpus_dir), "--dataset", str(dataset)]
    code = (
        "import json, sys\n"
        "from finreportqa import cli\n"
        f"assert cli.main({bench!r}) == 0\n"
        f"loaded = sorted(m for m in {_COMMAND_ONLY_MODULES!r} if m in sys.modules)\n"
        f"codes = [cli.main(argv) for argv in ({stats!r}, ['datagen', '--help'],"
        " ['ingest', '--help'])]\n"
        "print(json.dumps([loaded, codes]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src)}, timeout=60, check=True).stdout
    loaded, codes = json.loads(out.splitlines()[-1])
    assert loaded == []
    assert codes == [0, 0, 0]
    assert '"reports": 1,' in out and '"qa_count": 1,' in out
    assert "--sample-pages" in out and "--user-agent" in out
