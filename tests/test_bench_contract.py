"""Behaviour contract of ``bench``: byte-identical canonical outputs.

Runs ``cli.main(["bench", ...])`` over the benchmark's seeded synthetic
corpus (``perfbench/gen.py``, read-only) with an in-process backend that
answers from the benchmark's oracle (``perfbench/endpoint.py:Oracle``), and
pins a sha256 over each run's canonical files: ``predictions.jsonl``,
``scores.jsonl``, ``eval_report.json`` and ``transcripts/*``. A refactor that
keeps these digests keeps the behaviour of every pipeline. A second sha256
per run covers the answer files alone (all but the transcripts), so a change
that moves only what a transcript records, such as prompt sizes, keeps it.
For the agent and long_context runs a third sha256 covers the cache keys in
``llm_log.jsonl``, each the sha256 of one posted request body, so the bytes
sent to the endpoint are pinned too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import NamedTuple

import pytest

from conftest import HashProvider
from fault_oracle import Oracle, OracleBackend
from finreportqa import cli
from finreportqa import corpus as corpus_mod
from finreportqa.errors import TransportError

import gen  # perfbench/gen.py, on the path through fault_oracle

CANONICAL = ("predictions.jsonl", "scores.jsonl", "eval_report.json")

# run name -> bench flags; DIGESTS holds each run's canonical digest and
# ANSWER_DIGESTS its digest over CANONICAL alone
RUNS = {
    "agent": ("--pipeline", "agent"),
    "long_context": ("--pipeline", "long_context"),
    "single_round_rag": ("--pipeline", "single_round_rag"),
    "fixed_budget_rag": ("--pipeline", "fixed_budget_rag"),
    "no_context": ("--pipeline", "no_context"),
    "agent_granularity_256": ("--pipeline", "agent", "--granularity", "256"),
    "agent_workers_2": ("--pipeline", "agent", "--workers", "2"),
    "long_context_workers_2": ("--pipeline", "long_context", "--workers", "2"),
    "single_round_rag_granularity_256": ("--pipeline", "single_round_rag",
                                         "--granularity", "256"),
    "agent_tfidf": ("--pipeline", "agent", "--scheme", "tfidf"),
    # dense retrieval, with HashProvider standing in for the embedding endpoint
    "agent_dense": ("--pipeline", "agent", "--scheme", "dense",
                    "--embedding-endpoint", "http://embeddings.invalid/v1",
                    "--embedding-model", "hash-toy", "--embedding-dimension", "8"),
}

DIGESTS = {
    "agent": "c54317148d68ff8f31aaed2b9c0ed6fcadef6c94427410fa6021a3d6b0695740",
    "long_context": "4dd65863f63542ea31cb6bb14cf2cd43f2389b2fc6db1f75fe29014dd8359f0b",
    "single_round_rag": "647e27d69dcfe515a5f12c5b20ec179b33cf95b8008b1cbc50a8709fd777f4c8",
    "fixed_budget_rag": "36d634718078620cfd4ef948357b17944a069fd3189d9f506aa54f5be79ed5f4",
    "no_context": "64102cc87eba966f608695eb1873da245ab23b2ec008eb5225a4cbf6477ee246",
    "agent_granularity_256": "6cec5f1fe2271fbc18dee0e57dbeaf1a40fa2c65fe7ccecde1e987b72c26d2eb",
    "agent_workers_2": "c54317148d68ff8f31aaed2b9c0ed6fcadef6c94427410fa6021a3d6b0695740",
    "long_context_workers_2": "4dd65863f63542ea31cb6bb14cf2cd43f2389b2fc6db1f75fe29014dd8359f0b",
    "single_round_rag_granularity_256":
        "8fb4fbf1a771fae492bf25d99d945c3b1da8b2b7b583659708eea2d603823e9c",
    "agent_tfidf": "53064307ff3607ea584c1a0707d4cc2324fbd33a123813652e4195d503a97abc",
    "agent_dense": "09e3f67acc702b35019ff0e4441fe7ff5b7470d1eb25dee0360b02b5f8aee7ed",
}


ANSWER_DIGESTS = {
    "agent": "e65ef3e8a5bdeeadc65eef557e6c69d78ca6ef9699e207025776653f8473209b",
    "long_context": "4dd65863f63542ea31cb6bb14cf2cd43f2389b2fc6db1f75fe29014dd8359f0b",
    "single_round_rag": "647e27d69dcfe515a5f12c5b20ec179b33cf95b8008b1cbc50a8709fd777f4c8",
    "fixed_budget_rag": "36d634718078620cfd4ef948357b17944a069fd3189d9f506aa54f5be79ed5f4",
    "no_context": "64102cc87eba966f608695eb1873da245ab23b2ec008eb5225a4cbf6477ee246",
    "agent_granularity_256": "e252c740f0cf807d2e3fb52f40bed53ceff9f3d96310c804cdaf314263a3cedc",
    "agent_workers_2": "e65ef3e8a5bdeeadc65eef557e6c69d78ca6ef9699e207025776653f8473209b",
    "long_context_workers_2": "4dd65863f63542ea31cb6bb14cf2cd43f2389b2fc6db1f75fe29014dd8359f0b",
    "single_round_rag_granularity_256":
        "8fb4fbf1a771fae492bf25d99d945c3b1da8b2b7b583659708eea2d603823e9c",
    "agent_tfidf": "430584d5aae7acbf76fa11d5c66c78b918d569e7bd393e7518744dca62eac028",
    "agent_dense": "8019ad447ca10c34021056e826bf55e9cc80d99dc84dd1cedc5c6105a4ea9f90",
}

# sha256 over the sorted request keys of a run's llm_log.jsonl: the order of
# log lines varies with --workers, the set of posted bodies does not
REQUEST_KEY_DIGESTS = {
    "agent": "8aca04c6c7636319a48d1137367a9c31fe8d493cc55790270ca61797fd8f11c5",
    "long_context": "5532a16840e3755fc413bbfe5f10e5c326c617d20def7bcca3043ea4ab3d4e39",
}


def canonical_digest(run_dir: Path, transcripts: bool = True) -> str:
    paths = [run_dir / name for name in CANONICAL]
    if transcripts:
        paths += sorted((run_dir / "transcripts").iterdir())
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(run_dir)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


class Run(NamedTuple):
    digest: str
    answer_digest: str
    report: dict
    llm_log: list[dict]


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """The generated corpus and dataset; each run of RUNS writes runs/<name>."""
    return tmp_path_factory.mktemp("contract")


@pytest.fixture(scope="module")
def runs(data):
    """Every run of RUNS by name."""
    gen.generate(data, seed=7, n_reports=2, pages=300, questions_per_report=25)
    oracle = Oracle(json.loads((data / "oracle.json").read_text(encoding="utf-8")))
    patch = pytest.MonkeyPatch()
    patch.setattr(cli, "HttpBackend", lambda: OracleBackend(oracle))
    patch.setattr(cli, "build_embedding_provider", lambda config: HashProvider())
    results = {}
    try:
        for name, flags in RUNS.items():
            code = cli.main([
                "bench", *flags, "--backend", "http",
                "--corpus-dir", str(data / "corpus"),
                "--dataset", str(data / "dataset.jsonl"),
                "--output-dir", str(data / "runs"), "--run-id", name,
            ])
            assert code == 0, name
            run_dir = data / "runs" / name
            report = json.loads((run_dir / "eval_report.json").read_text(encoding="utf-8"))
            results[name] = Run(canonical_digest(run_dir),
                                canonical_digest(run_dir, transcripts=False), report,
                                _jsonl(run_dir / "llm_log.jsonl"))
    finally:
        patch.undo()
    return results


@pytest.mark.parametrize("name", sorted(RUNS))
def test_canonical_outputs_are_pinned(runs, name):
    assert runs[name].digest == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_answer_files_are_pinned(runs, name):
    assert runs[name].answer_digest == ANSWER_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_score_reproduces_the_bench_score_files(runs, data, tmp_path, name):
    run_dir = data / "runs" / name
    assert cli.main(["score", "--predictions", str(run_dir / "predictions.jsonl"),
                     "--gold", str(data / "dataset.jsonl"), "--out", str(tmp_path)]) == 0
    for file_name in ("scores.jsonl", "eval_report.json"):
        assert (tmp_path / file_name).read_bytes() == (run_dir / file_name).read_bytes()


def request_key_digest(llm_log: list[dict]) -> str:
    return hashlib.sha256("\n".join(sorted(e["key"] for e in llm_log)).encode()).hexdigest()


@pytest.mark.parametrize("name", ["agent", "agent_workers_2",
                                  "long_context", "long_context_workers_2"])
def test_posted_request_bodies_are_pinned(runs, name):
    assert request_key_digest(runs[name].llm_log) == \
        REQUEST_KEY_DIGESTS[name.removesuffix("_workers_2")]


def test_workers_do_not_change_outputs(runs):
    assert runs["agent_workers_2"].digest == runs["agent"].digest
    assert runs["long_context_workers_2"].digest == runs["long_context"].digest


def test_accuracy_orders_the_pipelines(runs):
    accuracy = {name: run.report["tol_acc"] for name, run in runs.items()}
    assert (accuracy["agent"] > accuracy["long_context"] > accuracy["single_round_rag"]
            >= accuracy["fixed_budget_rag"] > accuracy["no_context"]), accuracy


def test_agent_solver_reads_a_bounded_context(runs):
    """Later solve calls re-read only cited pages and a five-unit re-offer;
    re-sending every held unit cost 55.8k prompt tokens per question."""
    run = runs["agent"]
    prompt_tokens = sum(entry["prompt_tokens"] for entry in run.llm_log)
    assert prompt_tokens / run.report["instances"] <= 35_000


def test_long_context_lists_only_the_pages_in_its_prompt(runs, data):
    """The oracle answers only when every gold row is in the prompt, so each
    correct row's gold pages lie in its context; pages cut off by the input
    budget do not, so some row misses a gold page."""
    run_dir = data / "runs" / "long_context"
    gold = {i.id: set(i.page_numbers) for i in corpus_mod.read_dataset(data / "dataset.jsonl")}
    correct = {row["id"] for row in _jsonl(run_dir / "scores.jsonl") if row["tol_correct"]}
    rows = _jsonl(run_dir / "predictions.jsonl")
    assert correct
    covered = {row["id"]: gold[row["id"]] <= set(row["context_pages"]) for row in rows}
    assert all(covered[qid] for qid in correct)
    assert not all(covered.values())


def test_long_context_derives_no_page_fields(runs, data, monkeypatch):
    """Loading and answering over a report computes no page's token count or table spans."""
    oracle = Oracle(json.loads((data / "oracle.json").read_text(encoding="utf-8")))
    monkeypatch.setattr(cli, "HttpBackend", lambda: OracleBackend(oracle))
    reports = []
    load_report = corpus_mod.load_report

    def keep_report(*args, **kwargs):
        reports.append(load_report(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(corpus_mod, "load_report", keep_report)
    assert cli.main([
        "bench", "--pipeline", "long_context", "--backend", "http",
        "--corpus-dir", str(data / "corpus"), "--dataset", str(data / "dataset.jsonl"),
        "--output-dir", str(data / "runs"), "--run-id", "long_context_fields",
    ]) == 0
    assert canonical_digest(data / "runs" / "long_context_fields") == DIGESTS["long_context"]
    pages = [page for report in reports for page in report.pages]
    assert len(reports) == 2 and len(pages) == 600
    assert not [page.page_number for page in pages
                if {"token_count", "table_block_spans"} & set(vars(page))]


class FailingBackend(OracleBackend):
    """The oracle, except that every call about one question fails."""

    def __init__(self, oracle: Oracle, question: str):
        super().__init__(oracle)
        self.question = question

    def generate(self, config, messages, body) -> str:
        if any(self.question in m.content for m in messages):
            raise TransportError("endpoint went away")
        return super().generate(config, messages, body)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("pipeline", ["agent", "no_context"])
def test_a_stopped_run_keeps_the_rows_before_it(runs, data, monkeypatch, pipeline, workers):
    """A provider error at question N ends bench with exit 4; the rows before
    N are on disk in dataset order, as a full run writes them, and there are
    no scores and no manifest."""
    failing = 4
    instances = corpus_mod.read_dataset(data / "dataset.jsonl")
    oracle = Oracle(json.loads((data / "oracle.json").read_text(encoding="utf-8")))
    backend = FailingBackend(oracle, instances[failing].question)
    monkeypatch.setattr(cli, "HttpBackend", lambda: backend)
    run_id = f"stopped_{pipeline}_{workers}"
    assert cli.main([
        "bench", "--pipeline", pipeline, "--workers", workers, "--backend", "http",
        "--corpus-dir", str(data / "corpus"), "--dataset", str(data / "dataset.jsonl"),
        "--output-dir", str(data / "runs"), "--run-id", run_id,
    ]) == 4
    run_dir, full_dir = data / "runs" / run_id, data / "runs" / pipeline
    lines = (run_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["id"] for line in lines] == [i.id for i in instances[:failing]]
    assert lines == (full_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()[
        :failing]
    transcripts = sorted(path.name for path in (run_dir / "transcripts").iterdir())
    assert transcripts == (sorted(f"{i.id}.json" for i in instances[:failing])
                           if pipeline == "agent" else [])
    for name in transcripts:
        assert (run_dir / "transcripts" / name).read_bytes() == \
               (full_dir / "transcripts" / name).read_bytes()
    assert not [name for name in ("scores.jsonl", "eval_report.json", "manifest.json")
                if (run_dir / name).exists()]
