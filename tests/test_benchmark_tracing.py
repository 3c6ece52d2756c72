"""The benchmark's tracer still finds and reads every function it wraps.

``perfbench/tracing.py`` wraps the package's public functions by name and
reads some of their arguments by position. A signature change that breaks
this would silently drop a span from the benchmark's per-layer figures. Each
test runs one traced ``bench`` through ``perfbench/child.py`` (read-only) in
a subprocess, because the tracer patches module globals.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_dscr_workspace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402

TARGETS = {name for _, _, name, _ in tracing.FUNCTIONS} | {m[3] for m in tracing.METHODS}
AGENT_ONLY = {"pipelines.run", "pipelines.expand", "pipelines.solve", "pipelines.evaluate",
              "pipelines.retrieve_round"}
# the scripted backend stands in for HttpBackend
NOT_REACHED = {"llm.backend"}


@pytest.mark.parametrize("pipeline", ["agent", "single_round_rag"])
def test_traced_bench_reaches_every_target(tmp_path, pipeline):
    corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
    result = tmp_path / "result.json"
    subprocess.run([
        sys.executable, str(ROOT / "perfbench" / "child.py"),
        "--src", str(ROOT / "src"), "--dataset", str(dataset), "--result", str(result),
        "--trace", "--",
        "--pipeline", pipeline, "--backend", "scripted", "--script-path", str(script),
        "--corpus-dir", str(corpus_dir), "--dataset", str(dataset),
        "--output-dir", str(tmp_path / "runs"), "--run-id", "traced",
        "--cache-dir", str(tmp_path / "cache"),
    ], check=True, timeout=120)
    payload = json.loads(result.read_text(encoding="utf-8"))

    assert payload["exit_code"] == 0
    assert payload["missing_targets"] == []
    spans = payload["spans"]
    questions = [s for s in spans if s["name"] in tracing.QUESTION_SPANS]
    assert questions and all(s["qid"] == "q-dscr-1" for s in questions)
    expected = TARGETS - NOT_REACHED
    expected -= {"pipelines.run_baseline"} if pipeline == "agent" else AGENT_ONLY
    assert expected <= {s["name"] for s in spans}
