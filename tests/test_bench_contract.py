"""Behaviour contract of ``bench``: byte-identical canonical outputs.

Runs ``cli.main(["bench", ...])`` over the benchmark's seeded synthetic
corpus (``perfbench/gen.py``, read-only) with an in-process backend that
answers from the benchmark's oracle (``perfbench/endpoint.py:Oracle``), and
pins a sha256 over each run's canonical files: ``predictions.jsonl``,
``scores.jsonl``, ``eval_report.json`` and ``transcripts/*``. A refactor that
keeps these digests keeps the behaviour of every pipeline.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from finreportqa import cli
from finreportqa import corpus as corpus_mod
from finreportqa.llm import Backend

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402
from endpoint import Oracle  # noqa: E402

CANONICAL = ("predictions.jsonl", "scores.jsonl", "eval_report.json")

# run name -> bench flags; DIGESTS holds each run's canonical digest
RUNS = {
    "agent": ("--pipeline", "agent"),
    "long_context": ("--pipeline", "long_context"),
    "single_round_rag": ("--pipeline", "single_round_rag"),
    "fixed_budget_rag": ("--pipeline", "fixed_budget_rag"),
    "no_context": ("--pipeline", "no_context"),
    "agent_granularity_256": ("--pipeline", "agent", "--granularity", "256"),
    "agent_workers_2": ("--pipeline", "agent", "--workers", "2"),
    "single_round_rag_granularity_256": ("--pipeline", "single_round_rag",
                                         "--granularity", "256"),
    "agent_tfidf": ("--pipeline", "agent", "--scheme", "tfidf"),
}

DIGESTS = {
    "agent": "2bfc68cbfc70c2be23e7fc35088068a6cea56e0c28195a515c09f5427afeee4e",
    "long_context": "4dd65863f63542ea31cb6bb14cf2cd43f2389b2fc6db1f75fe29014dd8359f0b",
    "single_round_rag": "647e27d69dcfe515a5f12c5b20ec179b33cf95b8008b1cbc50a8709fd777f4c8",
    "fixed_budget_rag": "36d634718078620cfd4ef948357b17944a069fd3189d9f506aa54f5be79ed5f4",
    "no_context": "64102cc87eba966f608695eb1873da245ab23b2ec008eb5225a4cbf6477ee246",
    "agent_granularity_256": "e3e16963887f2d97ed77ec0b4a371d1c2c05bf5798880b803c8ea19785d4f23b",
    "agent_workers_2": "2bfc68cbfc70c2be23e7fc35088068a6cea56e0c28195a515c09f5427afeee4e",
    "single_round_rag_granularity_256":
        "8fb4fbf1a771fae492bf25d99d945c3b1da8b2b7b583659708eea2d603823e9c",
    "agent_tfidf": "ea0920be31af543a5bee2441ddc2eae5c2fe5701f2823306280b8cc949b1ce44",
}


class OracleBackend(Backend):
    def __init__(self, oracle: Oracle):
        self.oracle = oracle

    def generate(self, config, messages, body) -> str:
        return self.oracle.reply([m.to_dict() for m in messages])[1]


def canonical_digest(run_dir: Path) -> str:
    paths = [run_dir / name for name in CANONICAL]
    paths += sorted((run_dir / "transcripts").iterdir())
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(run_dir)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """The generated corpus and dataset; each run of RUNS writes runs/<name>."""
    return tmp_path_factory.mktemp("contract")


@pytest.fixture(scope="module")
def runs(data):
    """Every run of RUNS: name -> (canonical digest, eval report)."""
    gen.generate(data, seed=7, n_reports=2, pages=300, questions_per_report=25)
    oracle = Oracle(json.loads((data / "oracle.json").read_text(encoding="utf-8")))
    patch = pytest.MonkeyPatch()
    patch.setattr(cli, "HttpBackend", lambda: OracleBackend(oracle))
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
            results[name] = (canonical_digest(run_dir), report)
    finally:
        patch.undo()
    return results


@pytest.mark.parametrize("name", sorted(RUNS))
def test_canonical_outputs_are_pinned(runs, name):
    assert runs[name][0] == DIGESTS[name]


def test_workers_do_not_change_outputs(runs):
    assert runs["agent_workers_2"][0] == runs["agent"][0]


def test_accuracy_orders_the_pipelines(runs):
    accuracy = {name: report["tol_acc"] for name, (_, report) in runs.items()}
    assert (accuracy["agent"] > accuracy["long_context"] > accuracy["single_round_rag"]
            >= accuracy["fixed_budget_rag"] > accuracy["no_context"]), accuracy


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_long_context_lists_only_the_pages_in_its_prompt(runs, data):
    """The oracle answers only when every gold row is in the prompt, so each
    correct row's gold pages lie in its context; pages cut off by the input
    budget do not, so some row misses a gold page."""
    run_dir = data / "runs" / "long_context"
    gold = {i.id: i.evidence_pages for i in corpus_mod.read_dataset(data / "dataset.jsonl")}
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
