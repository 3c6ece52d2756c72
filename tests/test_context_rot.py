"""Context rot (``fault_oracle.RotOracle``) on the benchmark's seeded corpus.

Each seed generates a contract-sized corpus (``perfbench/gen.py``: 2 reports
x 300 pages, 50 questions) and runs ``bench`` in-process against the oracle,
with and without rot. The seeds and the long-context margin were fixed
before any result was seen; the agent's floor is its accuracy under rot
before the solver's context was narrowed. Accuracies are pooled over the
seeds, in percent.
"""

from __future__ import annotations

import json
import statistics

import pytest

from fault_oracle import Oracle, OracleBackend, RotOracle
from finreportqa import cli

import gen  # perfbench/gen.py, on the path through fault_oracle

SEEDS = (7, 11, 13)
# long_context reads about 128k words per prompt, so rot costs it dearly
LONG_CONTEXT_ROT_DROP = 30.0
# the agent's accuracy under rot per seed, measured while every solve call
# still re-sent every held unit; a narrower solver context must not lose to it
AGENT_ROT_FLOOR = (86.0 + 80.0 + 88.0) / 3


def _tol_acc(data, pipeline, oracle, run_id) -> float:
    patch = pytest.MonkeyPatch()
    patch.setattr(cli, "HttpBackend", lambda: OracleBackend(oracle))
    try:
        assert cli.main([
            "bench", "--pipeline", pipeline, "--backend", "http",
            "--corpus-dir", str(data / "corpus"), "--dataset", str(data / "dataset.jsonl"),
            "--output-dir", str(data / "runs"), "--run-id", run_id,
        ]) == 0
    finally:
        patch.undo()
    report = json.loads((data / "runs" / run_id / "eval_report.json").read_text(encoding="utf-8"))
    return report["tol_acc"]


@pytest.fixture(scope="module")
def accuracy(tmp_path_factory):
    """(pipeline, rot) -> tol_acc per seed."""
    results: dict[tuple[str, bool], list[float]] = {}
    for seed in SEEDS:
        data = tmp_path_factory.mktemp(f"rot{seed}")
        gen.generate(data, seed=seed, n_reports=2, pages=300, questions_per_report=25)
        cases = json.loads((data / "oracle.json").read_text(encoding="utf-8"))
        for pipeline, rot in (("long_context", False), ("long_context", True), ("agent", True)):
            oracle = RotOracle(cases) if rot else Oracle(cases)
            results.setdefault((pipeline, rot), []).append(
                _tol_acc(data, pipeline, oracle, f"{pipeline}_{rot}"))
    return results


def test_rot_costs_long_context_its_accuracy(accuracy):
    clean = statistics.fmean(accuracy["long_context", False])
    rotted = statistics.fmean(accuracy["long_context", True])
    assert rotted <= clean - LONG_CONTEXT_ROT_DROP, accuracy


def test_agent_under_rot_keeps_its_accuracy(accuracy):
    assert statistics.fmean(accuracy["agent", True]) >= AGENT_ROT_FLOOR, accuracy
