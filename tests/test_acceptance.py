"""Acceptance suite: one test per release criterion.

Each test prints a single "ACCEPTANCE <n> PASS" line on success (run with
-s to stream them). Failures surface through normal pytest reporting.

Run: pytest tests/test_acceptance.py -v -s
"""

import hashlib
import json
import random
import time

import pytest

from conftest import (
    ALWAYS_MISSING_SCRIPT,
    DSCR_QUESTION,
    DSCR_SCRIPT,
    dscr_instance,
    make_scripted_client,
    write_dscr_workspace,
)
from finreportqa.cli import main
from finreportqa.corpus import instance_to_record, parse_report
from finreportqa.datagen import candidate, filter_pipeline
from finreportqa.metrics import (
    A_TOL,
    EPSILON,
    R_TOL,
    PercentMode,
    bucket_difficulty,
    normalize_answer,
    score_instance,
    tolerance_correct,
)
from finreportqa.pipelines import AgentPipeline, run_baseline
from finreportqa.program import run_source
from finreportqa.retrieval import (
    RetrievalUnit,
    Retriever,
    build_retriever,
    build_sparse_index,
    rechunk,
    recall_at_k,
    search,
)
from finreportqa.rundir import to_json
from oracles import brute_force_ranking, brute_force_scores, random_corpus, random_query
from test_datagen import CLEAN, filter_report, raw, rejections


def _report(number: int, summary: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {summary}")


def test_criterion_1_tolerance_golden():
    started = time.monotonic()
    assert A_TOL == 1e-4
    assert R_TOL == 1e-3
    assert EPSILON == 1e-12
    assert tolerance_correct(518.80, 518.75) == 1
    assert tolerance_correct(0.584, 0.82) == 0
    rng = random.Random(2024)
    for _ in range(50):
        x = rng.uniform(-1e9, 1e9)
        assert tolerance_correct(x, x) == 1
    assert time.monotonic() - started < 1.0
    _report(1, "tolerance formula matches the hand table with pinned constants")


def test_criterion_2_normalization_golden():
    started = time.monotonic()
    from test_metrics import NORMALIZATION_GOLDEN

    assert len(NORMALIZATION_GOLDEN) == 20
    for raw_value, mode, canonical, numeric in NORMALIZATION_GOLDEN:
        result = normalize_answer(raw_value, mode)
        assert result.canonical_string == canonical, raw_value
        assert float(result.numeric_value) == numeric, raw_value
    assert float(normalize_answer("(1,234)").numeric_value) == -1234.0
    # percent dual-accept in the scorer
    assert score_instance("0.125", "12.5").tol_correct == 1
    assert score_instance("12.5", "0.125").tol_correct == 1
    assert score_instance("0.125", "12.5",
                          percent_mode=PercentMode.AS_GIVEN).tol_correct == 0
    assert time.monotonic() - started < 1.0
    _report(2, "20-case normalization golden file matches exactly")


def test_criterion_3_interpreter():
    started = time.monotonic()
    assert str(run_source("4139/((45+11)/2)")) == "147.82"
    assert str(run_source("17/(11+0)")) == "1.55"
    assert str(run_source(
        "1.2*(3730/6298)+1.4*(2325/6298)+3.3*(17/6298)"
        "+0.6*(4925/2203)+1.0*(5742/6298)")) == "3.49"

    from test_program import _oracle_eval, _random_program
    from finreportqa.errors import DivisionByZeroError

    rng = random.Random(77)
    checked = 0
    while checked < 1000:
        source = _random_program(rng)
        try:
            expected = _oracle_eval(source)
        except ZeroDivisionError:
            with pytest.raises(DivisionByZeroError):
                run_source(source)
            checked += 1
            continue
        if abs(expected) > 1e12:
            continue
        got = float(run_source(source, round_final=False))
        assert got == pytest.approx(expected, abs=1e-9, rel=1e-9), source
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(3, f"worked programs exact; 1000 random programs within 1e-9 ({elapsed:.2f}s)")


def test_criterion_4_retrieval_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(512)
    corpora = 0
    while corpora < 200:
        unit_texts = random_corpus(rng, max_units=50)
        unit_pages = {uid: rng.randint(1, 30) for uid in unit_texts}
        units = [RetrievalUnit(uid, unit_pages[uid], text)
                 for uid, text in unit_texts.items()]
        query = random_query(rng)
        if not brute_force_scores(unit_texts, query, "bm25"):
            continue
        for scheme in ("bm25", "tfidf"):
            index = build_sparse_index(units, scheme)
            hits = search(index, query, k=len(units))
            expected = brute_force_ranking(unit_texts, unit_pages, query, scheme,
                                           k=len(units))
            assert [h.unit_id for h in hits] == [uid for uid, _ in expected]
            for hit, (_, score) in zip(hits, expected):
                assert abs(hit.score - score) <= 1e-9
        corpora += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(4, f"BM25/TF-IDF equal the exhaustive oracle on 200 corpora ({elapsed:.2f}s)")


def test_criterion_5_recall_properties():
    started = time.monotonic()
    assert recall_at_k([101, 105, 104, 108, 107], {101, 105}, k=5) == 1.0
    rng = random.Random(9)
    for _ in range(50):
        retrieved = rng.sample(range(1, 60), k=30)
        gold = set(rng.sample(range(1, 60), k=rng.randint(1, 5)))
        values = [recall_at_k(retrieved, gold, k) for k in range(1, 31)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert recall_at_k(list(range(1, 60)), gold, k=59) == 1.0
    assert time.monotonic() - started < 1.0
    _report(5, "recall monotone in k, total at corpus size, matches the worked case")


def _massive_report(n_pages: int):
    body = "".join(
        f"<!-- page: {i} -->\nshared metric value item{i}\n"
        for i in range(1, n_pages + 1))
    return parse_report(body, report_id=f"Mass_{n_pages}")


def test_criterion_6_orchestrator_contract(dscr_report, no_network):
    # no_network fails the test on any socket connect during the scripted run
    started = time.monotonic()

    # (a) two-round scenario: Complete, correct answer, EM=1 end to end
    agent = AgentPipeline(make_scripted_client(DSCR_SCRIPT), build_retriever(dscr_report, "bm25"))
    transcript = agent.run(DSCR_QUESTION, question_id="q-dscr-1")
    assert transcript.termination == "Complete"
    assert len(transcript.rounds) == 2
    assert transcript.final_answer == 1.55
    instance = dscr_instance()
    score = score_instance(json.dumps(transcript.final_answer), instance.answer,
                           difficulty=instance.difficulty)
    assert score.em == 1

    # (b) always-Missing evaluator: exactly 5 rounds, RoundLimit
    agent = AgentPipeline(
        make_scripted_client(ALWAYS_MISSING_SCRIPT), build_retriever(dscr_report, "bm25"))
    transcript = agent.run(DSCR_QUESTION)
    assert transcript.termination == "RoundLimit"
    assert len(transcript.rounds) == 5

    # (c) 200-unit corpus with default config: cumulative units <= 75
    agent = AgentPipeline(
        make_scripted_client(ALWAYS_MISSING_SCRIPT), build_retriever(_massive_report(200), "bm25"))
    transcript = agent.run("what is the shared metric value?")
    total = sum(len(r.new_unit_ids) for r in transcript.rounds)
    assert total <= 75

    # (d) byte-identical transcripts across two runs
    serialized = []
    for _ in range(2):
        agent = AgentPipeline(make_scripted_client(DSCR_SCRIPT),
                              build_retriever(dscr_report, "bm25"))
        serialized.append(to_json(agent.run(DSCR_QUESTION, question_id="q1")).encode())
    assert serialized[0] == serialized[1]

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(6, f"orchestrator contract (a)-(d) holds ({elapsed:.2f}s)")


def test_criterion_7_baseline_contracts(dscr_report):
    started = time.monotonic()

    # long-context prompt never exceeds the configured budget
    for budget in (150, 200, 400):
        client = make_scripted_client([("Question", "{{1.0}}")],
                                      max_input_tokens=budget)
        result = run_baseline("long_context", DSCR_QUESTION, client, report=dscr_report)
        assert result.prompt_tokens <= budget

    # single-round RAG context equals the oracle top-30 pages
    report = _massive_report(40)
    units = rechunk(report, "page")
    retriever = Retriever(units)
    client = make_scripted_client([("Question", "{{2.0}}")], baseline_k=30)
    result = run_baseline("single_round_rag", "shared metric value", client,
                          report=report, retriever=retriever)
    oracle = brute_force_ranking({u.unit_id: u.text for u in units},
                                 {u.unit_id: u.page_number for u in units},
                                 "shared metric value", "bm25", k=30)
    assert list(result.context_pages) == [
        next(u.page_number for u in units if u.unit_id == uid) for uid, _ in oracle]
    assert len(result.context_pages) == 30

    # fixed-budget variant retrieves exactly min(75, corpus) units
    for n_pages in (40, 75, 120):
        report = _massive_report(n_pages)
        units = rechunk(report, "page")
        retriever = Retriever(units)
        client = make_scripted_client([("Question", "{{2.0}}")])
        result = run_baseline(
            "fixed_budget_rag", "shared metric value", client, report=report,
            retriever=retriever)
        assert len(result.context_pages) == min(75, n_pages)

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(7, f"baseline budget/oracle contracts hold ({elapsed:.2f}s)")


def test_criterion_8_filter_pipeline():
    started = time.monotonic()
    batch = (
        [raw(f"clean{i}", **CLEAN) for i in range(10)]
        + [raw(f"single{i}", [5, 7], "45+11", "56") for i in range(8)]
        + [raw(f"calc{i}", [5, 9], "10/4", "99") for i in range(7)]
        + [raw(f"nonnum{i}", [5, 9], "300+1", "unknown") for i in range(3)]
        + [raw(f"onepage{i}", [5], "1+1", "2") for i in range(2)]
    )
    assert len(batch) == 30
    kept, stats, _ = filter_pipeline(batch, [filter_report()])
    assert len(kept) == 10
    assert stats.rejections == rejections(
        single_table=8, calc_error=7, incoherent_answer=3, too_few_pages=2)
    assert stats.reconciles()

    refiltered, stats2, _ = filter_pipeline(
        [candidate(instance_to_record(instance)) for instance in kept], [filter_report()])
    assert len(refiltered) == 10
    assert stats2.rejections == rejections()

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(8, f"planted 30-defect batch filtered to exact per-reason counts ({elapsed:.2f}s)")


def test_criterion_9_difficulty_bucketing():
    got = [bucket_difficulty(n).value for n in (0, 1, 2, 3, 9)]
    assert got == ["Easy", "Easy", "Medium", "Hard", "Hard"]
    _report(9, "difficulty buckets match the caption rule exactly")


def test_criterion_10_bench_reproducibility(tmp_path, capsys):
    corpus_dir, dataset, script = write_dscr_workspace(tmp_path)
    args = [
        "bench", "--pipeline", "agent", "--backend", "scripted",
        "--script-path", str(script), "--corpus-dir", str(corpus_dir),
        "--dataset", str(dataset), "--output-dir", str(tmp_path / "runs"),
    ]
    assert main(args + ["--run-id", "first"]) == 0
    manifest = tmp_path / "runs" / "first" / "manifest.json"
    assert main(["bench", "--from-manifest", str(manifest),
                 "--run-id", "second"]) == 0

    def digest(run, name):
        return hashlib.sha256((tmp_path / "runs" / run / name).read_bytes()).hexdigest()

    for name in ("scores.jsonl", "eval_report.json", "predictions.jsonl"):
        assert digest("first", name) == digest("second", name), name
    capsys.readouterr()
    _report(10, "bench rerun from its manifest produces hash-equal score files")


def test_criterion_11_ingest_replay(no_network, tmp_path):
    # no_network fails the test on any socket connect: a live network call
    from test_ingest import (
        DOC_BYTES,
        SUBMISSIONS_FIXTURE,
        SUBMISSIONS_URL,
        TICKER_FIXTURE,
        TICKER_URL,
        _json_response,
        make_client,
    )

    client, transport = make_client({
        TICKER_URL: _json_response(TICKER_FIXTURE),
        SUBMISSIONS_URL: _json_response(SUBMISSIONS_FIXTURE),
    })
    refs = client.list_filings("demo", form_type="10-K", year_range=(2022, 2024))
    assert len(refs) == 3

    ref = refs[-1]
    doc_client, doc_transport = make_client({
        ref.url: (200, {"Content-Length": str(len(DOC_BYTES))}, DOC_BYTES)})
    path = doc_client.fetch_document(ref, tmp_path)
    assert path.read_bytes() == DOC_BYTES
    calls_after_first = len(doc_transport.calls)
    assert doc_client.fetch_document(ref, tmp_path) == path
    assert len(doc_transport.calls) == calls_after_first  # idempotent, no refetch

    _report(11, "ingest replays fixtures with zero live network calls; fetch idempotent")
