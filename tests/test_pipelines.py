import random

import pytest

from conftest import (
    ALWAYS_MISSING_SCRIPT,
    DSCR_QUESTION,
    DSCR_SCRIPT,
    ROUND2_FORMULA,
    make_scripted_client,
)
from finreportqa.corpus import PageChunk, Report, parse_report
from finreportqa.errors import AnswerExtractionError
from finreportqa.llm import (
    LLMClient,
    ProviderConfig,
    ScriptedBackend,
    count_message_tokens,
    system,
    user,
)
from finreportqa.prompts import SOLVING_SYSTEM
from finreportqa.pipelines import (
    _PROMPT_MARGIN_TOKENS,
    INSUFFICIENT,
    AgentConfig,
    AgentPipeline,
    Insufficient,
    build_round_query,
    extract_answer,
    parse_cited_pages,
    parse_verdict,
    retrieve_round,
    run_baseline,
)
from finreportqa.retrieval import (
    RetrievalUnit,
    SparseRetriever,
    build_sparse_index,
    rechunk,
    search,
)


class TestExtractAnswer:
    def test_simple(self):
        assert extract_answer("answer is {{147.82}}") == 147.82

    def test_last_group_wins(self):
        assert extract_answer("{{3.49}} and {{3.50}}") == 3.50

    def test_zero_is_insufficient(self):
        assert isinstance(extract_answer("{{0}}"), Insufficient)

    def test_zero_point_zero_is_a_number(self):
        assert extract_answer("{{0.00}}") == 0.0

    def test_no_braces(self):
        with pytest.raises(AnswerExtractionError):
            extract_answer("no braces here")

    def test_unparseable_last_group_falls_back(self):
        assert extract_answer("{{1.5}} then {{n/a}}") == 1.5

    def test_formatted_number(self):
        assert extract_answer("{{1,234.50}}") == 1234.50

    def test_insufficient_is_singleton(self):
        assert extract_answer("{{0}}") is INSUFFICIENT


class TestParseCitedPages:
    def test_multiple_mentions(self):
        text = "From page_number: 50 and also page_number: 51 we read values."
        assert parse_cited_pages(text) == frozenset({50, 51})

    def test_alternate_punctuation(self):
        assert parse_cited_pages("page_number=31, page_number 34") == frozenset({31, 34})

    def test_none(self):
        assert parse_cited_pages("no references at all") == frozenset()


class TestParseVerdict:
    def test_none_is_complete(self):
        assert parse_verdict("NONE").complete

    def test_none_case_insensitive_trimmed(self):
        assert parse_verdict("  none. ").complete

    def test_plain_component_list(self):
        verdict = parse_verdict("net income, total assets")
        assert not verdict.complete
        assert verdict.missing_components == (
            ("net income", ()), ("total assets", ()))

    def test_colon_synonyms(self):
        verdict = parse_verdict("COGS: cost of goods sold, cost of sales")
        assert verdict.missing_components == (
            ("COGS", ("cost of goods sold", "cost of sales")),)

    def test_parenthesized_synonyms(self):
        verdict = parse_verdict("COGS (cost of goods sold, cost of sales), net income")
        assert verdict.missing_components == (
            ("COGS", ("cost of goods sold", "cost of sales")),
            ("net income", ()),
        )

    def test_quoted_items_unwrapped(self):
        verdict = parse_verdict("'net income', 'total assets'")
        assert verdict.missing_components == (
            ("net income", ()), ("total assets", ()))

    def test_unparseable_reply_fails_open(self):
        verdict = parse_verdict(",,,")
        assert not verdict.complete
        assert verdict.missing_components == ((",,,", ()),)


class TestBuildRoundQuery:
    def test_round_one_is_question_plus_formula_terms(self):
        query = build_round_query("net debt please", "EBITDA / liabilities")
        assert query == "net debt please EBITDA / liabilities"

    def test_feedback_phrases_present_once(self):
        query = build_round_query(
            "the ratio", "A / B",
            [("COGS", ["cost of goods sold", "cost of sales"])])
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
        return SparseRetriever(build_sparse_index(units, "bm25"), units)

    def test_empty_exclude_equals_plain_search(self):
        retriever = self._retriever()
        hits = retrieve_round(retriever, "net income", 15, set(), budget_left=100)
        assert hits == retriever.search("net income", 15)

    def test_excluding_top_k_yields_next_rank_band(self):
        retriever = self._retriever()
        top30 = retriever.search("net income interest", 30)
        exclude = {h.unit_id for h in top30[:15]}
        hits = retrieve_round(retriever, "net income interest", 15, exclude, budget_left=100)
        assert [h.unit_id for h in hits] == [h.unit_id for h in top30[15:30]]

    def test_budget_truncation(self):
        retriever = self._retriever()
        hits = retrieve_round(retriever, "net income", 15, set(), budget_left=3)
        assert len(hits) == 3

    def test_zero_budget_returns_nothing(self):
        retriever = self._retriever()
        assert retrieve_round(retriever, "net", 15, set(), budget_left=0) == []


def _agent_for(report_md, script, config=None, question=DSCR_QUESTION):
    report = parse_report(report_md, report_id="DemoCo_2002")
    client = make_scripted_client(script)
    agent = AgentPipeline.from_report(client, report, config)
    return agent, client


class TestSolverAndEvaluator:
    def test_solver_parses_pages_and_answer(self, dscr_report, dscr_client):
        agent = AgentPipeline.from_report(dscr_client, dscr_report)
        pages = [(31, dscr_report.page(31).text), (50, dscr_report.page(50).text)]
        output = agent.solve(DSCR_QUESTION, ROUND2_FORMULA, pages)
        assert output.answer == 1.55
        assert output.cited_pages == frozenset({31, 34, 50})

    def test_solver_insufficient_on_zero(self, dscr_report, dscr_client):
        agent = AgentPipeline.from_report(dscr_client, dscr_report)
        pages = [(10, dscr_report.page(10).text)]
        output = agent.solve(DSCR_QUESTION, "X / Y", pages)
        assert isinstance(output.answer, Insufficient)
        assert output.answer_value() == 0.0

    def test_solver_retries_once_then_gives_up(self, dscr_report):
        backend = ScriptedBackend(
            [("annual report in Markdown form", "no braces at all"),
             ("annual report in Markdown form", "still no braces")],
            mode="consume-once")
        client = LLMClient(ProviderConfig(), backend)
        agent = AgentPipeline.from_report(client, dscr_report)
        output = agent.solve("q", "f", [(1, "text")])
        assert isinstance(output.answer, Insufficient)
        assert output.extraction_failed
        assert backend.calls == 2

    def test_solver_retry_can_recover(self, dscr_report):
        backend = ScriptedBackend(
            [("annual report in Markdown form", "garbled"),
             ("annual report in Markdown form", "fixed {{2.5}}")],
            mode="consume-once")
        client = LLMClient(ProviderConfig(), backend)
        agent = AgentPipeline.from_report(client, dscr_report)
        output = agent.solve("q", "f", [(1, "text")])
        assert output.answer == 2.5
        assert not output.extraction_failed

    def test_expand_includes_feedback(self, dscr_report):
        captured = {}

        class Spy(ScriptedBackend):
            def generate(self, config, messages, body):
                captured["prompt"] = "\n".join(m.content for m in messages)
                return super().generate(config, messages, body)

        client = LLMClient(ProviderConfig(), Spy(DSCR_SCRIPT))
        agent = AgentPipeline.from_report(client, dscr_report)
        formula, _ = agent.expand(
            DSCR_QUESTION, [("interest expense", ["interest and other expense"])])
        assert "interest expense" in captured["prompt"]
        assert "interest and other expense" in captured["prompt"]
        assert formula == ROUND2_FORMULA


class TestAgentRun:
    def test_two_round_scenario_completes(self, dscr_report, dscr_client):
        agent = AgentPipeline.from_report(dscr_client, dscr_report)
        transcript = agent.run(DSCR_QUESTION, question_id="q-dscr-1")

        assert transcript.termination == "Complete"
        assert len(transcript.rounds) == 2
        assert transcript.final_answer == 1.55

        round1, round2 = transcript.rounds
        assert 31 not in round1.new_pages
        assert 31 in round2.new_pages
        assert round1.verdict.missing_components == (
            ("interest expense", ("interest and other expense",)),)
        assert round2.verdict.complete

    def test_round_queries_gain_feedback_terms(self, dscr_report, dscr_client):
        agent = AgentPipeline.from_report(dscr_client, dscr_report)
        transcript = agent.run(DSCR_QUESTION)
        assert "interest and other expense" in transcript.rounds[1].query
        assert "interest and other expense" not in transcript.rounds[0].query

    def test_always_missing_hits_round_limit(self, dscr_report):
        client = make_scripted_client(ALWAYS_MISSING_SCRIPT)
        agent = AgentPipeline.from_report(client, dscr_report)
        transcript = agent.run(DSCR_QUESTION)
        assert transcript.termination == "RoundLimit"
        assert len(transcript.rounds) == 5
        assert transcript.final_answer == 0.0  # last solver said {{0}}

    def test_budget_termination(self):
        pages = "".join(
            f"<!-- page: {i} -->\nshared metric value item{i}\n" for i in range(1, 21))
        report = parse_report(pages, report_id="Big_2002")
        client = make_scripted_client(ALWAYS_MISSING_SCRIPT)
        config = AgentConfig(max_rounds=5, k_per_round=5, chunk_budget=6)
        agent = AgentPipeline.from_report(client, report, config)
        transcript = agent.run("what is the shared metric value?")
        assert transcript.termination == "Budget"
        total_units = sum(len(r.new_unit_ids) for r in transcript.rounds)
        assert total_units == 6

    def test_budget_cap_on_large_corpus(self):
        pages = "".join(
            f"<!-- page: {i} -->\nshared metric value item{i}\n" for i in range(1, 201))
        report = parse_report(pages, report_id="Big_2002")
        client = make_scripted_client(ALWAYS_MISSING_SCRIPT)
        agent = AgentPipeline.from_report(client, report)  # defaults: 15 x 5, cap 75
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
            agent = AgentPipeline.from_report(client, dscr_report)
            runs.append(agent.run(DSCR_QUESTION, question_id="q1").to_json())
        assert runs[0].encode() == runs[1].encode()

    def test_context_is_monotone(self, dscr_report, dscr_client):
        agent = AgentPipeline.from_report(dscr_client, dscr_report)
        transcript = agent.run(DSCR_QUESTION)
        previous: set[int] = set()
        for record in transcript.rounds:
            current = set(record.cumulative_pages)
            assert previous <= current
            previous = current


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

        client = LLMClient(ProviderConfig(max_input_tokens=150),
                           Spy([("Question", "{{1.0}}")]))
        run_baseline("long_context", "What is the DSCR?", client, report=dscr_report)
        assert "Quarterly revenue summary" in captured["user"]  # page 10 leads
        assert "reconciliation items" not in captured["user"]  # page 51 truncated

    def test_single_round_rag_context_matches_oracle_top_k(self, dscr_report):
        units = rechunk(dscr_report, "page")
        index = build_sparse_index(units, "bm25")
        retriever = SparseRetriever(index, units)

        captured = {}

        class Spy(ScriptedBackend):
            def generate(self, config, messages, body):
                captured["user"] = messages[-1].content
                return super().generate(config, messages, body)

        client = LLMClient(ProviderConfig(), Spy([("Question", "{{2.0}}")]))
        result = run_baseline("single_round_rag", DSCR_QUESTION, client,
                              report=dscr_report, retriever=retriever, k=3)
        oracle_pages = [h.page_number for h in search(index, DSCR_QUESTION, 3)]
        assert list(result.context_pages) == oracle_pages
        for page in oracle_pages:
            assert f"[page_number: {page}]" in captured["user"]

    def test_fixed_budget_retrieves_min_budget_corpus(self):
        pages = "".join(
            f"<!-- page: {i} -->\nshared metric value item{i}\n" for i in range(1, 41))
        report = parse_report(pages, report_id="Mid_2002")
        units = rechunk(report, "page")
        retriever = SparseRetriever(build_sparse_index(units, "bm25"), units)
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
        agent = AgentPipeline.from_report(make_scripted_client(script), dscr_report)
        assert agent.run(DSCR_QUESTION, question_id="q1").token_usage == usage

    def test_solver_retry_counts_both_calls(self, dscr_report):
        backend = ScriptedBackend(
            [("annual report in Markdown form", "garbled"),
             ("annual report in Markdown form", "fixed {{2.5}}")],
            mode="consume-once")
        agent = AgentPipeline.from_report(LLMClient(ProviderConfig(), backend), dscr_report)
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
            config = ProviderConfig(max_input_tokens=header + _PROMPT_MARGIN_TOKENS + prefix_budget)
            client = LLMClient(config, Spy([("Question", "{{1.0}}")]))
            result = run_baseline("long_context", DSCR_QUESTION, client, report=report)
            assert result.prompt_tokens == count_message_tokens(sent[-1]), prefix_budget
            assert result.prompt_tokens == header + min(prefix_budget, report.total_tokens())
        # an input budget with no room past the header leaves an empty prefix
        client = LLMClient(ProviderConfig(max_input_tokens=header), Spy([("Question", "{{1.0}}")]))
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
        retriever = SparseRetriever(build_sparse_index(units, "bm25"), units)
        client = make_scripted_client([("Question", "{{1.55}}")], max_input_tokens=budget)
        result = run_baseline(kind, DSCR_QUESTION, client, report=dscr_report,
                              retriever=retriever)
        assert result.prompt_tokens == tokens
