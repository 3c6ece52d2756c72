import json
import math
import random
import re

import pytest

from conftest import (
    ALWAYS_MISSING_SCRIPT,
    DSCR_QUESTION,
    DSCR_REPORT_MD,
    DSCR_SCRIPT,
    ROUND1_FORMULA,
    ROUND2_FORMULA,
    make_scripted_client,
)
from oracles import random_reply
from finreportqa.cli import main
from finreportqa.config import RunConfig
from finreportqa.corpus import PageChunk, Report, parse_report
from finreportqa.errors import AnswerExtractionError
from finreportqa.metrics import score_instance
from finreportqa.llm import (
    LLMClient,
    ScriptedBackend,
    count_message_tokens,
    system,
    user,
)
from finreportqa.prompts import SOLVING_SYSTEM, SOLVING_USER, render_context
from finreportqa.pipelines import (
    _PROMPT_MARGIN_TOKENS,
    AgentPipeline,
    EvaluatorVerdict,
    MissingComponent,
    build_round_query,
    extract_answer,
    parse_cited_pages,
    parse_verdict,
    reread_units,
    retrieve_round,
    run_baseline,
)
from finreportqa.retrieval import (
    RetrievalUnit,
    ScoredHit,
    Retriever,
    build_retriever,
    build_sparse_index,
    rechunk,
    search,
)
from finreportqa.rundir import to_json


class TestExtractAnswer:
    def test_simple(self):
        assert extract_answer("answer is {{147.82}}") == 147.82

    def test_last_group_wins(self):
        assert extract_answer("{{3.49}} and {{3.50}}") == 3.50

    def test_zero_is_insufficient(self):
        assert extract_answer("{{0}}") is None

    def test_zero_point_zero_is_a_number(self):
        assert extract_answer("{{0.00}}") == 0.0

    def test_no_braces(self):
        with pytest.raises(AnswerExtractionError):
            extract_answer("no braces here")

    def test_unparseable_last_group_falls_back(self):
        assert extract_answer("{{1.5}} then {{n/a}}") == 1.5

    def test_formatted_number(self):
        assert extract_answer("{{1,234.50}}") == 1234.50

    @pytest.mark.parametrize("value", ["NaN", "nan", "sNaN", "Infinity", "-inf", "1e999999"])
    def test_non_finite_group_is_not_an_answer(self, value):
        with pytest.raises(AnswerExtractionError):
            extract_answer("{{" + value + "}}")
        assert extract_answer("{{2.5}} then {{" + value + "}}") == 2.5


class TestReplyFuzz:
    def test_every_reply_is_an_answer_a_verdict_and_a_score(self):
        """Braces around NaN, infinities and exponents past the decimal
        context are among the replies: each is no answer, not an exception.
        So is a page cited by a number past int()'s digit limit."""
        rng = random.Random(20261019)
        for _ in range(5000):
            reply = random_reply(rng)
            try:
                answer = extract_answer(reply)
            except AnswerExtractionError:
                pass
            else:
                assert answer is None or math.isfinite(answer), reply
            assert isinstance(parse_verdict(reply), EvaluatorVerdict), reply
            assert all(page >= 0 for page in parse_cited_pages(reply)), reply
            for pred, gold in ((reply, "1.55"), ("1.55", reply), (reply, reply)):
                assert score_instance(pred, gold).tol_correct in (0, 1), reply


class TestParseCitedPages:
    def test_multiple_mentions(self):
        text = "From page_number: 50 and also page_number: 51 we read values."
        assert parse_cited_pages(text) == frozenset({50, 51})

    def test_alternate_punctuation(self):
        assert parse_cited_pages("page_number=31, page_number 34") == frozenset({31, 34})

    def test_none(self):
        assert parse_cited_pages("no references at all") == frozenset()

    def test_number_past_the_int_digit_limit_is_skipped(self):
        text = "page_number: " + "9" * 5000 + " and page_number: 31"
        assert parse_cited_pages(text) == frozenset({31})


class TestParseVerdict:
    def test_none_is_complete(self):
        assert parse_verdict("NONE").complete

    def test_none_case_insensitive_trimmed(self):
        assert parse_verdict("  none. ").complete

    def test_plain_component_list(self):
        verdict = parse_verdict("net income, total assets")
        assert not verdict.complete
        assert verdict.missing_components == (
            MissingComponent("net income"), MissingComponent("total assets"))

    def test_colon_synonyms(self):
        verdict = parse_verdict("COGS: cost of goods sold, cost of sales")
        assert verdict.missing_components == (
            MissingComponent("COGS", ("cost of goods sold", "cost of sales")),)

    def test_parenthesized_synonyms(self):
        verdict = parse_verdict("COGS (cost of goods sold, cost of sales), net income")
        assert verdict.missing_components == (
            MissingComponent("COGS", ("cost of goods sold", "cost of sales")),
            MissingComponent("net income"),
        )

    def test_quoted_items_unwrapped(self):
        verdict = parse_verdict("'net income', 'total assets'")
        assert verdict.missing_components == (
            MissingComponent("net income"), MissingComponent("total assets"))

    def test_unparseable_reply_fails_open(self):
        verdict = parse_verdict(",,,")
        assert not verdict.complete
        assert verdict.missing_components == (MissingComponent(",,,"),)


class TestBuildRoundQuery:
    def test_round_one_is_question_plus_formula_terms(self):
        query = build_round_query("net debt please", "EBITDA / liabilities")
        assert query == "net debt please EBITDA / liabilities"

    def test_feedback_phrases_present_once(self):
        query = build_round_query(
            "the ratio", "A / B",
            [MissingComponent("COGS", ("cost of goods sold", "cost of sales"))])
        assert query.count("cost of goods sold") == 1
        assert query.count("cost of sales") == 1
        assert query.count("COGS") == 1

    def test_duplicates_across_question_and_formula_collapse(self):
        query = build_round_query("EBITDA margin", "EBITDA / revenue")
        assert query.split().count("EBITDA") == 1

    def test_dedup_is_case_insensitive_order_stable(self):
        query = build_round_query("Net Income growth", "net income / equity")
        assert query.split()[0] == "Net"
        assert "net" not in query.split()[2:]


class TestRetrieveRound:
    def _retriever(self, n=40):
        rng = random.Random(17)
        vocab = ["net", "income", "assets", "interest", "w1", "w2", "w3"]
        units = [
            RetrievalUnit(f"u{i:03d}", i + 1,
                          " ".join(rng.choices(vocab, k=rng.randint(3, 12))))
            for i in range(n)
        ]
        return Retriever(units)

    def test_empty_exclude_equals_plain_search(self):
        retriever = self._retriever()
        hits, ranked = retrieve_round(retriever, "net income", 15, set(), budget_left=100)
        assert hits == ranked == retriever.search("net income", 15)

    def test_excluding_top_k_yields_next_rank_band(self):
        retriever = self._retriever()
        top30 = retriever.search("net income interest", 30)
        exclude = {h.unit_id for h in top30[:15]}
        hits, ranked = retrieve_round(retriever, "net income interest", 15, exclude,
                                      budget_left=100)
        assert [h.unit_id for h in hits] == [h.unit_id for h in top30[15:30]]
        assert ranked == top30  # the held units ranked among the fresh ones

    def test_budget_truncation(self):
        retriever = self._retriever()
        hits, _ = retrieve_round(retriever, "net income", 15, set(), budget_left=3)
        assert len(hits) == 3

    def test_zero_budget_returns_nothing(self):
        retriever = self._retriever()
        assert retrieve_round(retriever, "net", 15, set(), budget_left=0) == ([], [])


class TestSolverAndEvaluator:
    def test_solver_parses_pages_and_answer(self, dscr_report, dscr_client):
        agent = AgentPipeline(dscr_client, build_retriever(dscr_report, "bm25"))
        pages = [(31, dscr_report.page(31).text), (50, dscr_report.page(50).text)]
        output = agent.solve(DSCR_QUESTION, ROUND2_FORMULA, pages)
        assert output.answer == 1.55
        assert output.cited_pages == [31, 34, 50]

    def test_solver_insufficient_on_zero(self, dscr_report, dscr_client):
        agent = AgentPipeline(dscr_client, build_retriever(dscr_report, "bm25"))
        pages = [(10, dscr_report.page(10).text)]
        output = agent.solve(DSCR_QUESTION, "X / Y", pages)
        assert output.answer is None
        assert output.insufficient and not output.extraction_failed

    def test_solver_retries_once_then_gives_up(self, dscr_report):
        backend = ScriptedBackend(
            [("annual report in Markdown form", "no braces at all"),
             ("annual report in Markdown form", "still no braces")],
            mode="consume-once")
        client = LLMClient(RunConfig(), backend)
        agent = AgentPipeline(client, build_retriever(dscr_report, "bm25"))
        output = agent.solve("q", "f", [(1, "text")])
        assert output.answer is None
        assert output.extraction_failed
        assert backend.calls == 2

    def test_solver_retry_can_recover(self, dscr_report):
        backend = ScriptedBackend(
            [("annual report in Markdown form", "garbled"),
             ("annual report in Markdown form", "fixed {{2.5}}")],
            mode="consume-once")
        client = LLMClient(RunConfig(), backend)
        agent = AgentPipeline(client, build_retriever(dscr_report, "bm25"))
        output = agent.solve("q", "f", [(1, "text")])
        assert output.answer == 2.5
        assert not output.extraction_failed

    def test_expand_includes_feedback(self, dscr_report):
        captured = {}

        class Spy(ScriptedBackend):
            def generate(self, config, messages, body):
                captured["prompt"] = "\n".join(m.content for m in messages)
                return super().generate(config, messages, body)

        client = LLMClient(RunConfig(), Spy(DSCR_SCRIPT))
        agent = AgentPipeline(client, build_retriever(dscr_report, "bm25"))
        formula, _ = agent.expand(
            DSCR_QUESTION, [MissingComponent("interest expense", ("interest and other expense",))])
        assert "interest expense" in captured["prompt"]
        assert "interest and other expense" in captured["prompt"]
        assert formula == ROUND2_FORMULA


class TestAgentRun:
    def test_two_round_scenario_completes(self, dscr_report, dscr_client):
        agent = AgentPipeline(dscr_client, build_retriever(dscr_report, "bm25"))
        transcript = agent.run(DSCR_QUESTION, question_id="q-dscr-1")

        assert transcript.termination == "Complete"
        assert len(transcript.rounds) == 2
        assert transcript.final_answer == 1.55

        round1, round2 = transcript.rounds
        assert 31 not in round1.new_pages
        assert 31 in round2.new_pages
        assert round1.verdict.missing_components == (
            MissingComponent("interest expense", ("interest and other expense",)),)
        assert round2.verdict.complete

    def test_round_queries_gain_feedback_terms(self, dscr_report, dscr_client):
        agent = AgentPipeline(dscr_client, build_retriever(dscr_report, "bm25"))
        transcript = agent.run(DSCR_QUESTION)
        assert "interest and other expense" in transcript.rounds[1].query
        assert "interest and other expense" not in transcript.rounds[0].query

    def test_a_retriever_function_is_called_once_after_the_first_expansion(self, dscr_report):
        retriever = build_retriever(dscr_report, "bm25")
        client = make_scripted_client(ALWAYS_MISSING_SCRIPT)
        calls_before = []

        def get_retriever():
            calls_before.append(client.backend_calls)
            return retriever

        transcript = AgentPipeline(client, get_retriever).run(DSCR_QUESTION)
        # read once over five rounds, after round 1's expansion call only
        assert calls_before == [1]
        assert transcript == AgentPipeline(make_scripted_client(ALWAYS_MISSING_SCRIPT),
                                           retriever).run(DSCR_QUESTION)

    def test_always_missing_hits_round_limit(self, dscr_report):
        client = make_scripted_client(ALWAYS_MISSING_SCRIPT)
        agent = AgentPipeline(client, build_retriever(dscr_report, "bm25"))
        transcript = agent.run(DSCR_QUESTION)
        assert transcript.termination == "RoundLimit"
        assert len(transcript.rounds) == 5
        assert transcript.final_answer == 0.0  # last solver said {{0}}

    def test_budget_termination(self):
        pages = "".join(
            f"<!-- page: {i} -->\nshared metric value item{i}\n" for i in range(1, 21))
        report = parse_report(pages, report_id="Big_2002")
        client = make_scripted_client(ALWAYS_MISSING_SCRIPT, max_rounds=5, k_per_round=5,
                                      chunk_budget=6)
        agent = AgentPipeline(client, build_retriever(report, "bm25"))
        transcript = agent.run("what is the shared metric value?")
        assert transcript.termination == "Budget"
        total_units = sum(len(r.new_unit_ids) for r in transcript.rounds)
        assert total_units == 6

    def test_budget_cap_on_large_corpus(self):
        pages = "".join(
            f"<!-- page: {i} -->\nshared metric value item{i}\n" for i in range(1, 201))
        report = parse_report(pages, report_id="Big_2002")
        client = make_scripted_client(ALWAYS_MISSING_SCRIPT)
        agent = AgentPipeline(client, build_retriever(report, "bm25"))  # defaults: 15 x 5, cap 75
        transcript = agent.run("what is the shared metric value?")
        total_units = sum(len(r.new_unit_ids) for r in transcript.rounds)
        assert total_units <= 75
        new_sets = [set(r.new_unit_ids) for r in transcript.rounds]
        for i, a in enumerate(new_sets):
            for b in new_sets[i + 1:]:
                assert a.isdisjoint(b)

    def test_transcripts_byte_identical(self, dscr_report):
        runs = []
        for _ in range(2):
            client = make_scripted_client(DSCR_SCRIPT)
            agent = AgentPipeline(client, build_retriever(dscr_report, "bm25"))
            runs.append(to_json(agent.run(DSCR_QUESTION, question_id="q1")))
        assert runs[0].encode() == runs[1].encode()

    def test_transcript_of_a_failed_extraction_and_a_parenthesized_verdict(self, tmp_path):
        """The solver's retry fallback and the parenthesis synonyms, as written."""
        report = tmp_path / "DemoCo_2002.md"
        report.write_text(DSCR_REPORT_MD, encoding="utf-8")
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"mode": "consume-once", "entries": [
            {"matcher": matcher, "response": response} for matcher, response in [
                ("financial text understanding", ROUND1_FORMULA),
                ("annual report in Markdown form", "no braces here"),
                ("annual report in Markdown form", "still no braces"),
                ("inspects a generated answer", "COGS (cost of goods sold, cost of sales)"),
                ("Missing components to cover", ROUND2_FORMULA),
                ("annual report in Markdown form", "cannot tell {{0}}"),
                ("inspects a generated answer", "NONE"),
            ]]}), encoding="utf-8")
        assert main(["ask", "--question", DSCR_QUESTION, "--report", str(report),
                     "--backend", "scripted", "--script-path", str(script),
                     "--output-dir", str(tmp_path / "out")]) == 0
        transcript = json.loads((tmp_path / "out" / "ask_transcript.json").read_text())
        assert (transcript["final_answer"], transcript["termination"]) == (0.0, "Complete")
        assert [(r["round"], r["solver"], r["verdict"]) for r in transcript["rounds"]] == [
            (1, {"raw_text": "still no braces", "answer": None, "insufficient": True,
                 "cited_pages": [], "extraction_failed": True},
             {"kind": "Missing", "missing_components": [
                 {"name": "COGS", "synonyms": ["cost of goods sold", "cost of sales"]}]}),
            (2, {"raw_text": "cannot tell {{0}}", "answer": None, "insufficient": True,
                 "cited_pages": [], "extraction_failed": False},
             {"kind": "Complete", "missing_components": []}),
        ]
        assert "COGS (synonyms: cost of goods sold, cost of sales)" in \
            transcript["rounds"][1]["expansion_input"]

    def test_context_is_monotone(self, dscr_report, dscr_client):
        agent = AgentPipeline(dscr_client, build_retriever(dscr_report, "bm25"))
        transcript = agent.run(DSCR_QUESTION)
        previous: set[int] = set()
        for record in transcript.rounds:
            current = set(record.cumulative_pages)
            assert previous <= current
            previous = current


# Pages 1-10 carry the question's terms, ranked 1 to 10 by length. Page 7
# also carries the feedback's synonym, so round 2 ranks it above pages 3-6.
# Pages 11-18 are found only through the feedback.
REREAD_REPORT_MD = "".join(
    f"<!-- page: {i} -->\nalpha metric{' delta' if i == 7 else ''}{' pad' * i}\n"
    for i in range(1, 11)) + "".join(
    f"<!-- page: {i} -->\nbeta delta figure{' pad' * (i - 10)}\n" for i in range(11, 19))
REREAD_QUESTION = "What is the alpha metric?"
REREAD_SCRIPT = [
    ("Missing components to cover", "Alpha / Beta"),
    ("financial text understanding", "Alpha / Beta"),
    ("beta delta figure", "Alpha = 3 (page_number: 1). Beta = 2 (page_number: 11). {{1.5}}"),
    ("annual report in Markdown form", "Alpha = 3 (page_number: 1). Missing: beta. {{0}}"),
    ("{{1.5}}", "NONE"),
    ("inspects a generated answer", "beta: delta figure"),
]


class TestSolverContext:
    """Round r > 1 re-reads held units on cited pages and a re-offer of the rest."""

    def _run(self, monkeypatch, script=REREAD_SCRIPT):
        solver_prompts = []
        searches = []

        class Spy(ScriptedBackend):
            def generate(self, config, messages, body):
                if messages[0].content == SOLVING_SYSTEM:
                    solver_prompts.append(messages[-1].content)
                return super().generate(config, messages, body)

        report = parse_report(REREAD_REPORT_MD, report_id="Demo_2002")
        client = LLMClient(RunConfig(k_per_round=8), Spy(script))
        agent = AgentPipeline(client, build_retriever(report, "bm25"))
        search = type(agent.retriever).search

        def counted(retriever, query, k):
            searches.append(query)
            return search(retriever, query, k)

        monkeypatch.setattr(type(agent.retriever), "search", counted)
        transcript = agent.run(REREAD_QUESTION)
        return agent, transcript, solver_prompts, searches

    def test_round_one_reads_the_stock_context(self, monkeypatch):
        agent, transcript, solver_prompts, _ = self._run(monkeypatch)
        first = transcript.rounds[0]
        units = [agent.retriever.units[unit_id] for unit_id in first.new_unit_ids]
        assert solver_prompts[0] == SOLVING_USER.format(
            question=REREAD_QUESTION, formula=first.formula,
            context=render_context([(unit.page_number, unit.text) for unit in units]))
        assert first.new_pages == (1, 2, 3, 4, 5, 6, 7, 8)
        assert first.solver_pages == first.new_pages

    def test_later_round_reads_cited_then_reoffered_then_new(self, monkeypatch):
        _, transcript, solver_prompts, _ = self._run(monkeypatch)
        assert transcript.termination == "Complete" and len(transcript.rounds) == 2
        second = transcript.rounds[1]
        sent = [int(page) for page in re.findall(r"\[page_number: (\d+)\]", solver_prompts[1])]
        # page 1 was cited; 2, 3, 4, 5 and 7 rank best of the other held pages
        # this round, so 6 and 8 are left out; then the round's new hits
        assert second.new_pages == (11, 12, 13, 14, 15, 16, 17, 18)
        assert sent == [1, 2, 3, 4, 5, 7, *second.new_pages]
        assert second.solver_pages == tuple(sorted(sent))
        assert second.cumulative_pages == (*range(1, 9), *range(11, 19))
        assert transcript.final_answer == 1.5

    def test_each_round_searches_once(self, monkeypatch):
        script = [("financial text understanding", "Alpha / Beta"),
                  ("annual report in Markdown form", "nothing here {{0}}"),
                  ("inspects a generated answer", "beta: delta figure")]
        _, transcript, _, searches = self._run(monkeypatch, script)
        assert transcript.termination == "RoundLimit"
        assert searches == [record.query for record in transcript.rounds]
        # nothing was cited, so each later round re-reads five held pages
        assert [len(record.solver_pages) - len(record.new_pages)
                for record in transcript.rounds] == [0, 5, 5, 5, 5]

    def test_held_units_the_query_does_not_rank_are_still_reoffered(self):
        units = {f"u{i}": RetrievalUnit(f"u{i}", i, f"text {i}") for i in range(1, 9)}
        held = ["u3", "u1", "u8", "u2", "u5", "u4", "u7"]
        unrelated = [ScoredHit("u6", 6, 1.0)]
        assert reread_units(held, unrelated, set(), units) == ["u3", "u1", "u8", "u2", "u5"]
        assert reread_units(held, [], {4}, units) == ["u3", "u1", "u8", "u2", "u5", "u4"]
        # ranked units go first; the unranked fill the re-offer in held order
        ranked = [ScoredHit("u7", 7, 2.0), ScoredHit("u5", 5, 1.0)]
        assert reread_units(held, ranked, set(), units) == ["u3", "u1", "u8", "u5", "u7"]


class TestBaselines:
    def test_no_context(self):
        client = make_scripted_client([("Question", "from memory {{0.12}}")])
        result = run_baseline("no_context", "What margin?", client)
        assert result.answer == 0.12
        assert result.context_pages == ()

    def test_long_context_respects_budget(self, dscr_report):
        # report + instructions total ~185 tokens unbudgeted; 150 forces a cut
        client = make_scripted_client(
            [("Question", "{{1.0}}")], max_input_tokens=150)
        result = run_baseline("long_context", "What is the DSCR?", client,
                              report=dscr_report)
        assert result.prompt_tokens <= 150
        assert result.answer == 1.0

    def test_long_context_includes_prefix_only(self, dscr_report):
        captured = {}

        class Spy(ScriptedBackend):
            def generate(self, config, messages, body):
                captured["user"] = messages[-1].content
                return super().generate(config, messages, body)

        client = LLMClient(RunConfig(max_input_tokens=150),
                           Spy([("Question", "{{1.0}}")]))
        run_baseline("long_context", "What is the DSCR?", client, report=dscr_report)
        assert "Quarterly revenue summary" in captured["user"]  # page 10 leads
        assert "reconciliation items" not in captured["user"]  # page 51 truncated

    def test_single_round_rag_context_matches_oracle_top_k(self, dscr_report):
        units = rechunk(dscr_report, "page")
        index = build_sparse_index(units, "bm25")
        retriever = Retriever(units)

        captured = {}

        class Spy(ScriptedBackend):
            def generate(self, config, messages, body):
                captured["user"] = messages[-1].content
                return super().generate(config, messages, body)

        client = LLMClient(RunConfig(baseline_k=3), Spy([("Question", "{{2.0}}")]))
        result = run_baseline("single_round_rag", DSCR_QUESTION, client,
                              report=dscr_report, retriever=retriever)
        oracle_pages = [h.page_number for h in search(index, DSCR_QUESTION, 3)]
        assert list(result.context_pages) == oracle_pages
        for page in oracle_pages:
            assert f"[page_number: {page}]" in captured["user"]

    def test_fixed_budget_retrieves_min_budget_corpus(self):
        pages = "".join(
            f"<!-- page: {i} -->\nshared metric value item{i}\n" for i in range(1, 41))
        report = parse_report(pages, report_id="Mid_2002")
        units = rechunk(report, "page")
        retriever = Retriever(units)
        client = make_scripted_client([("Question", "{{5.0}}")])
        result = run_baseline("fixed_budget_rag", "shared metric value", client,
                              report=report, retriever=retriever)
        assert len(result.context_pages) == min(75, 40)

    def test_unknown_kind_rejected(self):
        client = make_scripted_client([("x", "y")])
        with pytest.raises(ValueError):
            run_baseline("mystery", "q", client)

    def test_insufficient_maps_to_zero(self):
        client = make_scripted_client([("Question", "cannot answer {{0}}")])
        result = run_baseline("no_context", "What?", client)
        assert result.answer == 0.0
        assert result.insufficient


class TestTokenAccounting:
    """Token figures come from the client's replies and keep their values."""

    @pytest.mark.parametrize("script, usage", [(DSCR_SCRIPT, 957),
                                               (ALWAYS_MISSING_SCRIPT, 2241)])
    def test_agent_token_usage(self, dscr_report, script, usage):
        agent = AgentPipeline(make_scripted_client(script), build_retriever(dscr_report, "bm25"))
        assert agent.run(DSCR_QUESTION, question_id="q1").token_usage == usage

    def test_solver_retry_counts_both_calls(self, dscr_report):
        backend = ScriptedBackend(
            [("annual report in Markdown form", "garbled"),
             ("annual report in Markdown form", "fixed {{2.5}}")],
            mode="consume-once")
        agent = AgentPipeline(LLMClient(RunConfig(), backend),
                              build_retriever(dscr_report, "bm25"))
        agent.solve("q", "f", [(1, "text")])
        assert agent._tokens_used == 229

    @pytest.mark.parametrize("texts", [
        None,  # the DSCR fixture report
        ("", "   ", "\t\n", "alpha", "", "beta\tgamma\r\ndelta", "\r\n\r\n",
         "caf\u00e9\u3000au\xa0lait", " \t ", "iota\x1ckappa", ""),
    ])
    def test_long_context_supplies_the_exact_prompt_count(self, dscr_report, texts):
        report = dscr_report if texts is None else Report("r", "", 0, tuple(
            PageChunk(number, text)
            for number, text in enumerate(texts, start=1)))
        sent = []

        class Spy(ScriptedBackend):
            def generate(self, config, messages, body):
                sent.append(messages)
                return super().generate(config, messages, body)

        header = count_message_tokens([system(SOLVING_SYSTEM),
                                       user(f"Question: {DSCR_QUESTION}\n\nReport:\n")])
        for prefix_budget in range(report.total_tokens() + 3):
            config = RunConfig(max_input_tokens=header + _PROMPT_MARGIN_TOKENS + prefix_budget)
            client = LLMClient(config, Spy([("Question", "{{1.0}}")]))
            result = run_baseline("long_context", DSCR_QUESTION, client, report=report)
            assert result.prompt_tokens == count_message_tokens(sent[-1]), prefix_budget
            assert result.prompt_tokens == header + min(prefix_budget, report.total_tokens())
        # an input budget with no room past the header leaves an empty prefix
        client = LLMClient(RunConfig(max_input_tokens=header), Spy([("Question", "{{1.0}}")]))
        result = run_baseline("long_context", DSCR_QUESTION, client, report=report)
        assert (result.prompt_tokens, result.context_pages) == (header, ())
        assert result.prompt_tokens == count_message_tokens(sent[-1])

    @pytest.mark.parametrize("kind, budget, tokens", [
        ("no_context", 128_000, 116),
        ("long_context", 128_000, 194),
        ("long_context", 150, 134),
        ("single_round_rag", 128_000, 184),
        ("fixed_budget_rag", 128_000, 184),
    ])
    def test_baseline_prompt_tokens(self, dscr_report, kind, budget, tokens):
        units = rechunk(dscr_report, "page")
        retriever = Retriever(units)
        client = make_scripted_client([("Question", "{{1.55}}")], max_input_tokens=budget)
        result = run_baseline(kind, DSCR_QUESTION, client, report=dscr_report,
                              retriever=retriever)
        assert result.prompt_tokens == tokens
