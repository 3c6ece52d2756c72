import json
from decimal import Decimal

import pytest

from conftest import make_scripted_client
from finreportqa.corpus import instance_to_record, parse_report
from finreportqa.datagen import (
    candidate,
    filter_pipeline,
    generate_qa,
    program_operands,
    read_raw_batch,
    sample_pages,
    strip_fences,
    table_block_values,
)
from finreportqa.errors import SchemaError
from finreportqa.rundir import RunDir

FILTER_REPORT_MD = (
    "<!-- page: 5 -->\n"
    "Revenue disclosure for the year.\n"
    "| Revenue | 4,139 |\n"
    "<!-- page: 7 -->\n"
    "Inventory levels at period ends.\n"
    "| Opening inventory | 45 |\n"
    "| Closing inventory | 11 |\n"
    "<!-- page: 9 -->\n"
    "Miscellaneous metrics table.\n"
    "| Other metric | 300 |\n"
)


def filter_report():
    return parse_report(FILTER_REPORT_MD, report_id="DemoCo_2023", company="DemoCo",
                        fiscal_year=2023)


def raw(id, pages, code, answer, **overrides):
    base = dict(
        id=id, company="DemoCo", year="2023",
        question="What is the ratio?", type="table",
        thoughts="Thought: read the tables.",
        page_numbers=pages, python_code=code, answer=answer,
    )
    base.update(overrides)
    return candidate(base)


CLEAN = dict(pages=[5, 7], code="4139/((45+11)/2)", answer="147.82")


def rejections(**counts):
    """The filter's rejection counts: all six reasons, ``counts`` and zeros."""
    return {**dict.fromkeys(("too_few_pages", "single_table", "calc_error",
                             "incoherent_answer", "parse_error", "duplicate_id"), 0),
            **counts}


class TestSamplePages:
    def _report(self, n_pages):
        md = "".join(f"<!-- page: {i} -->\nword{i} text\n" for i in range(1, n_pages + 1))
        return parse_report(md, report_id="R")

    def test_120_pages_quota_split(self):
        plan = sample_pages(self._report(120), n=40, seed=7)
        assert len(plan.pages) == 40
        assert len(set(plan.pages)) == 40
        assert (len(plan.early), len(plan.middle), len(plan.late)) == (14, 13, 13)

    def test_regions_are_disjoint_thirds(self):
        plan = sample_pages(self._report(120), n=40, seed=7)
        assert all(1 <= p <= 40 for p in plan.early)
        assert all(41 <= p <= 80 for p in plan.middle)
        assert all(81 <= p <= 120 for p in plan.late)

    def test_caps_at_page_count(self):
        plan = sample_pages(self._report(30), n=40, seed=1)
        assert len(plan.pages) == 30

    def test_deterministic_under_seed(self):
        first = sample_pages(self._report(90), n=40, seed=123)
        second = sample_pages(self._report(90), n=40, seed=123)
        assert first == second

    def test_different_seeds_differ(self):
        a = sample_pages(self._report(120), n=40, seed=1)
        b = sample_pages(self._report(120), n=40, seed=2)
        assert a.pages != b.pages

    def test_tiny_report_rejected(self):
        with pytest.raises(ValueError):
            sample_pages(self._report(2), seed=0)


class TestGenerateQA:
    def _records(self):
        return [
            {"id": "g1", "company": "DemoCo", "year": "2023",
             "question": "Q1?", "type": "table", "thoughts": "Thought: a",
             "page_numbers": [5, 7], "python_code": "1+1", "answer": "2"},
            {"id": "g2", "company": "DemoCo", "year": "2023",
             "question": "Q2?", "type": "mixed", "thoughts": "Thought: b",
             "page_numbers": [5, 9], "python_code": "2*3", "answer": "6"},
        ]

    def test_well_formed_array(self):
        client = make_scripted_client(
            [("annual report", json.dumps(self._records()))])
        report = filter_report()
        plan = sample_pages(report, n=3, seed=0)
        batch = generate_qa(report, plan, client)
        assert len(batch.records) == 2
        assert batch.parse_errors == 0
        assert batch.records[0]["id"] == "g1"

    def test_markdown_fences_stripped(self):
        fenced = "```json\n" + json.dumps(self._records()) + "\n```"
        client = make_scripted_client([("annual report", fenced)])
        report = filter_report()
        batch = generate_qa(report, sample_pages(report, n=3, seed=0), client)
        assert len(batch.records) == 2

    def test_not_json_counts_parse_error(self):
        client = make_scripted_client([("annual report", "not json")])
        report = filter_report()
        batch = generate_qa(report, sample_pages(report, n=3, seed=0), client)
        assert batch.records == []
        assert batch.parse_errors == 1

    def test_malformed_elements_dropped(self):
        payload = self._records() + [{"id": "broken"}]
        client = make_scripted_client([("annual report", json.dumps(payload))])
        report = filter_report()
        batch = generate_qa(report, sample_pages(report, n=3, seed=0), client)
        assert len(batch.records) == 2
        assert batch.parse_errors == 1

    def test_elements_that_are_not_objects_are_parse_errors(self):
        payload = self._records() + ["a record", 7, None]
        client = make_scripted_client([("annual report", json.dumps(payload))])
        report = filter_report()
        batch = generate_qa(report, sample_pages(report, n=3, seed=0), client)
        assert [r["id"] for r in batch.records] == ["g1", "g2"]
        assert batch.parse_errors == 3

    def test_reply_nested_past_the_decoder_is_a_parse_error(self):
        client = make_scripted_client([("annual report", "[" * 100_000)])
        report = filter_report()
        batch = generate_qa(report, sample_pages(report, n=3, seed=0), client)
        assert batch.records == []
        assert batch.parse_errors == 1

    def test_empty_question_is_a_parse_error(self):
        payload = self._records()
        payload[1]["question"] = ""
        client = make_scripted_client([("annual report", json.dumps(payload))])
        report = filter_report()
        batch = generate_qa(report, sample_pages(report, n=3, seed=0), client)
        assert [r["id"] for r in batch.records] == ["g1"]
        assert batch.parse_errors == 1

    @pytest.mark.parametrize("bad_page", [31.9, "50", True])
    def test_a_page_number_that_is_not_an_int_is_a_parse_error(self, bad_page):
        payload = self._records()
        payload[1]["page_numbers"] = [5, bad_page]
        client = make_scripted_client([("annual report", json.dumps(payload))])
        report = filter_report()
        batch = generate_qa(report, sample_pages(report, n=3, seed=0), client)
        assert [r["id"] for r in batch.records] == ["g1"]
        assert batch.parse_errors == 1

    def test_prompt_contains_sampled_pages(self):
        captured = {}

        class Spy:
            model = "spy"

            def generate(self, config, messages, body):
                captured["prompt"] = messages[-1].content
                return json.dumps([])

        from finreportqa.config import RunConfig
        from finreportqa.llm import LLMClient

        client = LLMClient(RunConfig(), Spy())
        report = filter_report()
        plan = sample_pages(report, n=3, seed=0)
        generate_qa(report, plan, client, max_pairs=4)
        assert "[page_number: 5]" in captured["prompt"]
        assert "Generate **4** new QA pairs" in captured["prompt"]
        pages = "\n\n".join(f"[page_number: {number}]\n{report.page(number).text.strip()}"
                            for number in plan.pages)
        assert captured["prompt"].endswith("### Report (sampled pages)\n" + pages + "\n")

    def test_strip_fences_plain_text_untouched(self):
        assert strip_fences("[1, 2]") == "[1, 2]"
        assert strip_fences("```json\n[1]\n```") == "[1]"


class TestOperandMatching:
    def test_program_operands_skip_round_digits(self):
        operands = program_operands("round(45/11, 2)")
        assert sorted(operands) == [Decimal("11"), Decimal("45")]

    def test_table_block_values_formats(self):
        values = table_block_values("| Revenue | 4,139 |\n| Loss | (250) |")
        assert Decimal("4139") in values
        assert Decimal("-250") in values
        assert Decimal("250") in values


class TestFilterPipeline:
    def _run(self, batch):
        return filter_pipeline(batch, [filter_report()])

    def test_mixed_defect_batch(self):
        batch = (
            [raw(f"c{i}", **CLEAN) for i in range(4)]
            + [raw(f"s{i}", [5, 7], "45+11", "56") for i in range(3)]
            + [raw(f"e{i}", [5, 9], "10/4", "99") for i in range(2)]
            + [raw("n0", [5, 9], "300+1", "unknown")]
        )
        kept, stats, _ = self._run(batch)
        assert len(kept) == 4
        assert stats.rejections == rejections(single_table=3, calc_error=2,
                                                 incoherent_answer=1)
        assert stats.reconciles()

    def test_single_page_rejected(self):
        batch = [raw("p0", [50], "1+1", "2")]
        _, stats, outcomes = self._run(batch)
        assert stats.rejections == rejections(too_few_pages=1)
        assert outcomes[0].reason == "too_few_pages"

    def test_same_page_listed_twice_is_single_page(self):
        batch = [raw("p0", [5, 5], "1+1", "2")]
        _, stats, _ = self._run(batch)
        assert stats.rejections == rejections(too_few_pages=1)

    def test_out_of_grammar_program_counts_parse_error(self):
        batch = [raw("x0", [5, 7], "import os", "1")]
        _, stats, _ = self._run(batch)
        assert stats.rejections == rejections(parse_error=1)

    def test_execution_failure_is_calc_error(self):
        batch = [raw("d0", [5, 9], "1/(3-3)", "2")]
        _, stats, _ = self._run(batch)
        assert stats.rejections == rejections(calc_error=1)

    @pytest.mark.parametrize("source, reason", [
        ("1e999999", "calc_error"),
        ("-" * 5000 + "1", "parse_error"),
    ], ids=["infinite_literal", "deep_unary_chain"])
    def test_interpreter_range_and_depth_failures_are_dropped(self, source, reason):
        batch = [raw("bad", [5, 9], source, "1"), raw("c0", **CLEAN)]
        kept, stats, outcomes = self._run(batch)
        assert [i.id for i in kept] == ["c0"]
        assert stats.rejections == rejections(**{reason: 1})
        assert outcomes[0].reason == reason

    def test_a_repeated_id_keeps_its_first_kept_candidate(self):
        """A dataset's ids do not repeat, so a second kept one is dropped."""
        batch = [raw("c0", [5], "1+1", "2"), raw("c0", **CLEAN), raw("c1", **CLEAN),
                 raw("c0", **CLEAN, thoughts="Thought: again.")]
        kept, stats, outcomes = self._run(batch)
        assert [i.id for i in kept] == ["c0", "c1"]
        assert kept[0].thoughts == "Thought: read the tables."
        assert stats.rejections == rejections(too_few_pages=1, duplicate_id=1)
        assert [o.reason for o in outcomes] == ["too_few_pages", None, None, "duplicate_id"]
        assert stats.reconciles()

    def test_tolerance_applied_to_answer_agreement(self):
        # eval(10/3) = 3.33 at two decimals; stated 3.33 agrees, 3.43 does not
        ok, stats_ok, _ = self._run([raw("t0", [5, 9], "10/3", "3.33")])
        assert len(ok) == 1 and stats_ok.kept == 1
        _, stats_bad, _ = self._run([raw("t1", [5, 9], "10/3", "3.43")])
        assert stats_bad.rejections == rejections(calc_error=1)

    def test_kept_instance_fields(self):
        kept, _, outcomes = self._run([raw("c0", **CLEAN)])
        (instance,) = kept
        assert instance.report_id == "DemoCo_2023"
        assert instance.page_numbers == [5, 7]
        assert instance.n_evidence_tables == 2  # revenue block + inventory block
        assert instance.difficulty.value == "Medium"

    def test_kept_instance_carries_the_filters_table_count(self):
        kept, _, outcomes = self._run([raw("c0", **CLEAN, n_evidence_tables=9)])
        (instance,) = kept
        assert outcomes[0].n_evidence_tables == 2
        assert instance_to_record(instance)["n_evidence_tables"] == 2
        assert instance.difficulty.value == "Medium"

    def test_idempotent_on_kept_set(self):
        batch = (
            [raw(f"c{i}", **CLEAN) for i in range(5)]
            + [raw("s0", [5, 7], "45+11", "56")]
            + [raw("e0", [5, 9], "10/4", "99")]
        )
        kept, _, _ = self._run(batch)
        again = [candidate(instance_to_record(instance)) for instance in kept]
        kept2, stats2, _ = filter_pipeline(again, [filter_report()])
        assert len(kept2) == len(kept)
        assert stats2.rejections == rejections()

    def test_order_stable(self):
        batch = [raw(f"c{i}", **CLEAN) for i in range(3)]
        kept, _, _ = self._run(batch)
        assert [k.id for k in kept] == ["c0", "c1", "c2"]


def test_raw_batch_round_trip(tmp_path):
    records = [raw("r1", [5, 7], "1+1", "2", tag="x"),
               raw("r2", [5, 9], "2+2", "4")]
    path = RunDir(tmp_path).write_jsonl("raw.jsonl", records)
    again = read_raw_batch(path)
    assert again == records


def test_raw_batch_with_an_empty_question_is_a_schema_error(tmp_path):
    path = RunDir(tmp_path).write_jsonl("raw.jsonl", [raw("r1", [5, 7], "1+1", "2"),
                                                      dict(raw("r2", [5, 9], "2+2", "4"),
                                                           question="")])
    with pytest.raises(SchemaError, match="^line 2: .*question must be non-empty$"):
        read_raw_batch(path)
