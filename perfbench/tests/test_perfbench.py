"""Tests of the benchmark's own parts: generator, endpoint, checks and tracing.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from endpoint import Oracle, parse_final  # noqa: E402

SMALL = dict(n_reports=2, pages=20, questions_per_report=5)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_identical_for_one_seed_and_differs_across_seeds(tmp_path):
    gen.generate(tmp_path / "a", seed=7, **SMALL)
    gen.generate(tmp_path / "b", seed=7, **SMALL)
    gen.generate(tmp_path / "c", seed=8, **SMALL)
    first, again, other = (_files(tmp_path / d) for d in "abc")
    assert first == again
    records = [json.loads(line) for line in first["dataset.jsonl"].decode().splitlines()]
    reports = {f"corpus/{r['company']}_{r['year']}.md" for r in records}
    assert len(records) == 10 and len(reports) == 2
    assert set(first) == {"dataset.jsonl", "oracle.json", *reports}
    assert first["dataset.jsonl"] != other["dataset.jsonl"]
    assert first["oracle.json"] != other["oracle.json"]


def test_generated_rows_appear_verbatim_on_their_pages(tmp_path):
    gen.generate(tmp_path, seed=3, **SMALL)
    oracle = json.loads((tmp_path / "oracle.json").read_text())
    records = [json.loads(line) for line in (tmp_path / "dataset.jsonl").read_text().splitlines()]
    assert {r["question"] for r in records} == set(oracle)
    for record in records:
        text = (tmp_path / "corpus" / f"{record['company']}_{record['year']}.md").read_text()
        parts = re.split(r"<!-- page: (\d+) -->\n", text)[1:]
        pages = {int(number): body for number, body in zip(parts[::2], parts[1::2])}
        for row in oracle[record["question"]]["rows"]:
            assert row["row"] in pages[row["page"]]
        assert sorted(r["page"] for r in oracle[record["question"]]["rows"]) == record["page_numbers"]


CASE = {
    "id": "q1", "ratio": "current ratio", "formula": "{a} / {b}", "answer": "1.50",
    "rows": [
        {"slot": "a", "account": "current assets", "label": "Tavo current assets",
         "value": 300, "row": "| Tavo current assets | 300 |", "page": 4,
         "hint": ["tavo current assets"], "alias": False},
        {"slot": "b", "account": "current liabilities", "label": "Short term liabilities kel",
         "value": 200, "row": "| Short term liabilities kel | 200 |", "page": 9,
         "hint": ["short term liabilities kel"], "alias": True},
    ],
}
QUESTION = "What is the current ratio for the tavo segment of Demo in 2020?"
SOLVER_SYSTEM = "You are a helpful assistant ... annual report in Markdown form."


def _ask(oracle: Oracle, system: str, user: str) -> str:
    return oracle.reply([{"role": "system", "content": system},
                         {"role": "user", "content": user}])[1]


def test_oracle_solver_answers_only_with_every_gold_row_in_the_prompt():
    oracle = Oracle({QUESTION: CASE})
    both = f"Question: {QUESTION}\n\n| Tavo current assets | 300 |\n| Short term liabilities kel | 200 |"
    one = f"Question: {QUESTION}\n\n| Tavo current assets | 300 |\n"
    full = _ask(oracle, SOLVER_SYSTEM, both)
    assert parse_final(full) == 1.5 and "page_number: 4" in full and "page_number: 9" in full
    partial = _ask(oracle, SOLVER_SYSTEM, one)
    assert parse_final(partial) == 0.0 and "Missing: current liabilities." in partial


def test_oracle_evaluator_and_expander_follow_the_missing_account():
    oracle = Oracle({QUESTION: CASE})
    partial = _ask(oracle, SOLVER_SYSTEM, f"Question: {QUESTION}\n| Tavo current assets | 300 |")
    evaluator = "You are an expert assistant that inspects a generated answer against the question."
    verdict = _ask(oracle, evaluator, f"Question: {QUESTION}\n\nGenerated answer:\n{partial}")
    assert verdict == "current liabilities: short term liabilities kel"
    assert _ask(oracle, evaluator, f"Question: {QUESTION}\n\nGenerated answer:\nx {{{{1.50}}}}") == "NONE"
    expander = "You are an expert at financial text understanding."
    assert _ask(oracle, expander, QUESTION) == "current ratio = current assets / current liabilities"
    feedback = (f"{QUESTION}\n\nMissing components to cover:\n"
                "- current liabilities (synonyms: short term liabilities kel)\n")
    assert _ask(oracle, expander, feedback).endswith("current assets / short term liabilities kel")


def test_endpoint_process_counts_requests_and_resets(tmp_path):
    oracle_path = tmp_path / "oracle.json"
    oracle_path.write_text(json.dumps({QUESTION: CASE}))
    proc = subprocess.Popen([sys.executable, str(Path(gen.__file__).with_name("endpoint.py")),
                             "--oracle", str(oracle_path), "--delay-ms", "5"],
                            stdout=subprocess.PIPE, text=True)
    try:
        base = f"http://127.0.0.1:{proc.stdout.readline().split()[1]}"
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        body = json.dumps({"model": "m", "messages": [
            {"role": "system", "content": SOLVER_SYSTEM},
            {"role": "user", "content": f"Question: {QUESTION}\nnothing here"}]}).encode()
        reply = json.loads(opener.open(base + "/v1/chat/completions", data=body, timeout=10).read())
        assert parse_final(reply["choices"][0]["message"]["content"]) == 0.0
        assert 0.00375 <= reply["x_delay_s"] < 0.00625
        stats = json.loads(opener.open(base + "/stats", timeout=10).read())
        assert stats["requests"] == 1 and stats["last_answer"] == {"q1": 0.0}
        assert stats["prompt_tokens"] == len(SOLVER_SYSTEM.split()) + len(
            f"Question: {QUESTION}\nnothing here".split())
        opener.open(base + "/reset", data=b"{}", timeout=10).read()
        assert json.loads(opener.open(base + "/stats", timeout=10).read())["requests"] == 0
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def _write_run(run_dir: Path, answers: dict[str, float]) -> None:
    (run_dir / "transcripts").mkdir(parents=True)
    with open(run_dir / "predictions.jsonl", "w") as fh:
        for qid, answer in answers.items():
            fh.write(json.dumps({"id": qid, "answer": answer}) + "\n")
    (run_dir / "scores.jsonl").write_text("")
    (run_dir / "eval_report.json").write_text(json.dumps({"tol_acc": 50.0}))


def test_correctness_check_fails_when_one_prediction_is_altered(tmp_path):
    endpoint_answers = {"q1": 1.5, "q2": 0.0}
    _write_run(tmp_path / "good", endpoint_answers)
    _write_run(tmp_path / "bad", {"q1": 1.5, "q2": 0.01})
    good = checks.read_predictions(tmp_path / "good")
    bad = checks.read_predictions(tmp_path / "bad")
    assert checks.check_predictions(good, ["q1", "q2"], endpoint_answers) == []
    errors = checks.check_predictions(bad, ["q1", "q2"], endpoint_answers)
    assert len(errors) == 1 and errors[0].startswith("q2:")
    assert checks.canonical_digest(tmp_path / "good") != checks.canonical_digest(tmp_path / "bad")
    assert checks.tolerance_accuracy(tmp_path / "good") == 0.5


@pytest.mark.parametrize("predictions, problem", [
    ([{"id": "q1", "answer": 1.5}], "q2: 0 predictions"),
    ([{"id": "q1", "answer": 1.5}, {"id": "q2", "answer": 0.0}, {"id": "q2", "answer": 0.0}],
     "q2: 2 predictions"),
])
def test_correctness_check_needs_one_prediction_per_question(predictions, problem):
    assert checks.check_predictions(predictions, ["q1", "q2"], {"q1": 1.5, "q2": 0.0}) == [problem]


def test_failed_traced_invocation_gives_an_incorrect_result_without_metrics():
    import run
    untraced = {"trace": False, "digest": "d", "latencies_s": [0.1, 0.2],
                "first_start": 1.0, "last_end": 2.0,
                "predictions": [{"id": "q1", "answer": 1.5}],
                "stats": {"last_answer": {"q1": 1.5}}}
    traced = {"trace": True, "error": "bench exit 1", "predictions": [], "stats": {}}
    assert run.check(["q1"], [untraced]) == []
    assert run.check(["q1"], [untraced, traced]) == ["invocation 2: bench exit 1"]
    assert run.per_layer([untraced, traced]) == {}


def test_derive_splits_self_time_and_counts_per_layer():
    def span(id_, name, start, end, parent=0, attrs=None):
        return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
                "qid": "q1", "thread": 1, "attrs": attrs}

    spans = [
        span(2, "llm.cache.get", 1.1, 1.2, parent=1, attrs={"hit": False}),
        span(3, "llm.backend", 1.2, 1.7, parent=1),
        span(1, "llm.complete", 1.0, 2.0, parent=4, attrs={"bypass": False}),
        span(4, "pipelines.run", 1.0, 3.0, attrs={"rounds": 2, "termination": "Complete"}),
    ]
    layers = tracing.derive(spans, main_start=0.5, main_end=3.5, delay_total_s=0.4,
                            cache_bytes=0)
    assert layers["cli.setup_s"] == pytest.approx(0.5)
    assert layers["cli.finalize_s"] == pytest.approx(0.5)
    assert layers["llm.complete.self_s"] == pytest.approx(0.4)
    assert layers["llm.backend.overhead_ms_per_call"] == pytest.approx(100.0)
    assert layers["llm.backend.in_flight_mean"] == pytest.approx(0.25)
    assert layers["llm.cache.hit_ratio"] == 0.0
    assert layers["pipelines.rounds_per_question"] == 2
    assert layers["pipelines.termination.Complete"] == 1
    assert set(tracing.LAYER_UNITS) <= set(layers)


def test_install_wraps_every_binding_of_a_function():
    # in a subprocess, so the patched package does not leak into other tests
    src = Path(__file__).resolve().parents[2] / "src"
    script = f"""
import sys
sys.path[:0] = [{str(Path(tracing.__file__).parent)!r}, {str(src)!r}]
import tracing
from finreportqa import cli, corpus, llm, pipelines
tracer = tracing.Tracer({{}})
tracing.install(tracer, full=True)
assert tracer.missing == [], tracer.missing
assert corpus.count_tokens is llm.count_tokens is pipelines.count_tokens
assert pipelines.count_message_tokens is llm.count_message_tokens
llm.count_message_tokens([llm.user("one two three")])
names = sorted(span[1] for span in tracer.spans)
assert names == ["corpus.count_tokens", "llm.count_message_tokens"], names
"""
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60)
