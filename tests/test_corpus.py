import json
import random
import re
import sys
import threading

import pytest

from finreportqa.corpus import (
    DEFAULT_PAGE_DELIMITER,
    PageChunk,
    Report,
    corpus_stats,
    count_tokens,
    detect_table_spans,
    instance_from_record,
    make_report_id,
    parse_report,
    read_dataset,
    render_markdown,
    write_dataset,
)
from finreportqa.errors import (
    DanglingReferenceError,
    DuplicatePageNumberError,
    EmptyDocumentError,
    SchemaError,
)

TWO_PAGE_MD = "<!-- page: 1 -->\nA\n<!-- page: 2 -->\nB\n"

TABLE_PAGE_MD = (
    "<!-- page: 1 -->\n"
    "intro text\n"
    "<!-- page: 2 -->\n"
    "before\n"
    "| a | b |\n"
    "| - | - |\n"
    "| 1 | 2 |\n"
    "after\n"
)


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_whitespace_split(self):
        assert count_tokens("net sales per facility") == 4

    def test_symbol_runs(self):
        assert count_tokens("17 / (11+0)") == 3

    def test_split_whitespace_is_regex_whitespace_on_every_code_point(self):
        # count_tokens uses str.split(); this pins it to the maximal \S+ runs
        every_char = "".join(map(chr, range(sys.maxunicode + 1)))
        regex_ws = {m.start() for m in re.finditer(r"\s", every_char)}
        split_ws = {c for c in range(sys.maxunicode + 1) if chr(c).isspace()}
        assert split_ws == regex_ws
        text = "a".join(chr(c) for c in sorted(regex_ws)) + " tail\u3000end\x1c"
        assert count_tokens(text) == len(re.findall(r"\S+", text))

    def test_ascii_count_equals_split_on_every_ascii_code_point(self):
        for code in range(128):
            char = chr(code)
            for text in (char, f"a{char}b", char * 3, f"{char}ab{char}{char}c{char}"):
                assert count_tokens(text) == len(text.split()), (code, text)

    def test_ascii_count_equals_split_on_random_strings(self):
        rng = random.Random(20261017)
        for _ in range(20_000):
            text = "".join(chr(rng.randrange(128)) for _ in range(rng.randrange(24)))
            assert count_tokens(text) == len(text.split()), text

    def test_non_ascii_count_equals_split(self):
        for text in ("\u00e9", "caf\u00e9  au lait", "a\u3000b", "a\x85b\xa0c",
                     "\u2028x\u2029", " \U0001f600 \t\x1c", "\u00a0"):
            assert not text.isascii()
            assert count_tokens(text) == len(text.split()), text


def _reference_prefix(report: Report, n: int) -> str:
    return " ".join("\n".join(p.text for p in report.pages).split()[:n])


def _report_of(texts) -> Report:
    return Report("r", "", 0, tuple(
        PageChunk(number, text)
        for number, text in enumerate(texts, start=1)))


_AWKWARD_PAGES = (
    "", "   ", "\t\n", "alpha", "", "beta\tgamma\r\ndelta",
    "  eps  \x1czeta\x1f\x1d\x1eeta   theta  ", "\r\n\r\n", "iota",
    "kappa\x0blambda\x0cmu\n\n| a | 1 |\n| b | 2 |\n", " \t ", "",
)


class TestReportPrefix:
    def test_equals_reference_for_every_n(self):
        report = _report_of(_AWKWARD_PAGES)
        total = report.total_tokens()
        assert total == 22
        for n in range(total + 3):
            assert report.prefix(n).text == _reference_prefix(report, n), n

    def test_counts_tokens_and_lists_pages_with_a_token_in_the_prefix(self):
        report = _report_of(_AWKWARD_PAGES)
        total = report.total_tokens()
        for n in range(total + 3):
            prefix = report.prefix(n)
            assert prefix.tokens == count_tokens(prefix.text) == min(n, total), n
            covered, seen = [], 0
            for page in report.pages:
                if seen >= n:
                    break
                if page.token_count:
                    covered.append(page.page_number)
                seen += page.token_count
            assert prefix.page_numbers == tuple(covered), n
        assert report.prefix(1).page_numbers == (4,)
        assert report.prefix(2).page_numbers == (4, 6)
        assert report.prefix(total).page_numbers == (4, 6, 7, 9, 10)

    def test_blank_report_has_empty_prefix(self):
        report = _report_of(("", " \n", "\t"))
        assert [report.prefix(n) for n in range(3)] == [("", 0, ())] * 3

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            _report_of(("a b",)).prefix(-1)

    def test_flattened_on_first_call_not_at_parse(self):
        report = parse_report(TABLE_PAGE_MD)
        assert "_flat" not in vars(report)
        assert report.prefix(3).text == _reference_prefix(report, 3)
        assert "_flat" in vars(report)

    def test_long_report_at_page_boundaries_and_random_n(self):
        rng = random.Random(5)
        vocab = ["".join(rng.choice("bcdfgklmnprst") + rng.choice("aeiou")
                         for _ in range(rng.randint(2, 3))) for _ in range(600)]
        parts = []
        for page in range(1, 301):
            parts.append(f"<!-- page: {page} -->\nAcme annual report 2020, page {page}.\n")
            words = rng.choices(vocab, k=rng.choice((0, 30, 60)))
            for start in range(0, len(words), 15):
                parts.append(" ".join(words[start:start + 15]) + ".\n")
            parts.append("\n| Line item | Amount |\n| --- | --- |\n")
            for _ in range(rng.randint(0, 4)):
                parts.append(f"| {rng.choice(vocab).capitalize()} | {rng.randint(100, 99_999):,} |\n")
            parts.append("\n")
        report = parse_report("".join(parts))
        assert len(report.pages) == 300
        words = "\n".join(p.text for p in report.pages).split()
        total = len(words)
        assert report.total_tokens() == total

        boundaries = {0, 1, total - 1, total, total + 1, total + 2}
        cumulative = 0
        for page in report.pages:
            cumulative += page.token_count
            boundaries.update((cumulative - 1, cumulative, cumulative + 1))
        random_ns = {rng.randrange(total + 3) for _ in range(200)}
        for n in sorted(boundaries | random_ns):
            assert report.prefix(n).text == " ".join(words[:n]), n

    def test_concurrent_first_use(self):
        report = _report_of(_AWKWARD_PAGES * 40)
        total = report.total_tokens()
        ns = (0, 1, 7, total // 2, total - 1, total, total + 1)
        expected = {n: _reference_prefix(report, n) for n in ns}
        start = threading.Barrier(8)
        results: list[list[str]] = [[] for _ in range(8)]

        def work(slot: int) -> None:
            start.wait(timeout=10)
            for n in ns:
                results[slot].append(report.prefix(n).text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [[expected[n] for n in ns]] * 8


class TestParseReport:
    def test_two_pages(self):
        report = parse_report(TWO_PAGE_MD)
        assert report.page_numbers == [1, 2]
        assert report.page(1).text.strip() == "A"
        assert report.page(2).text.strip() == "B"

    def test_no_delimiters_single_page(self):
        text = "just some body text\nwith two lines\n"
        report = parse_report(text)
        assert report.page_numbers == [1]
        assert report.page(1).text == text

    def test_table_span_offsets(self):
        report = parse_report(TABLE_PAGE_MD)
        page = report.page(2)
        # body: "before\n| a | b |\n| - | - |\n| 1 | 2 |\nafter\n"
        assert page.table_block_spans == ((7, 36),)
        start, end = page.table_block_spans[0]
        assert page.text[start:end] == "| a | b |\n| - | - |\n| 1 | 2 |"
        assert page.text[start] == "|"

    def test_sequential_numbering_with_zero_groups(self):
        text = "===\nfirst\n===\nsecond\n"
        report = parse_report(text, delimiter_pattern=r"===")
        assert report.page_numbers == [1, 2]
        assert report.page(2).text == "second\n"

    def test_duplicate_page_numbers_rejected(self):
        text = "<!-- page: 3 -->\nA\n<!-- page: 3 -->\nB\n"
        with pytest.raises(DuplicatePageNumberError):
            parse_report(text)

    def test_empty_document_rejected(self):
        with pytest.raises(EmptyDocumentError):
            parse_report("   \n  \n")

    def test_multi_group_pattern_rejected(self):
        with pytest.raises(ValueError):
            parse_report("x", delimiter_pattern=r"(a)(b)")

    def test_preamble_attaches_to_first_page(self):
        text = "cover text\n<!-- page: 1 -->\nbody\n"
        report = parse_report(text)
        assert report.page_numbers == [1]
        assert "cover text" in report.page(1).text
        assert "body" in report.page(1).text

    def test_pages_sorted_by_captured_number(self):
        text = "<!-- page: 9 -->\nlate\n<!-- page: 2 -->\nearly\n"
        report = parse_report(text)
        assert report.page_numbers == [2, 9]


def _reference_parse(markdown_text, delimiter_pattern=DEFAULT_PAGE_DELIMITER):
    """The line-by-line parse that parse_report must match: (number, text) per page."""
    pattern = re.compile(delimiter_pattern)
    segments, preamble = [], []
    for line in markdown_text.splitlines(keepends=True):
        match = pattern.fullmatch(line.rstrip("\r\n"))
        if match:
            number = int(match.group(1)) if pattern.groups == 1 else None
            segments.append((number, []))
        elif segments:
            segments[-1][1].append(line)
        else:
            preamble.append(line)
    if not segments:
        return [(1, markdown_text)]
    if any(line.strip() for line in preamble):
        segments[0][1][:0] = preamble
    pages, seen = [], set()
    for index, (number, lines) in enumerate(segments, start=1):
        page_number = number if number is not None else index
        if page_number in seen:
            raise DuplicatePageNumberError(f"page {page_number} captured twice")
        seen.add(page_number)
        pages.append((page_number, "".join(lines)))
    return sorted(pages)


_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029")

# (markdown, delimiter pattern) pairs with awkward line breaks and layouts
_PARSE_CASES = [
    *(("<!-- page: 1 -->" + brk + "A" + brk + "<!-- page: 2 -->" + brk + "B" + brk,
       DEFAULT_PAGE_DELIMITER) for brk in _BREAKS),
    *(("<!-- page: 1 -->\nA " + brk + "<!-- page: 2 -->" + brk + " B", DEFAULT_PAGE_DELIMITER)
      for brk in _BREAKS),
    ("<!-- page: 1 -->\r\nA\r\n<!-- page: 2 -->\r\n", DEFAULT_PAGE_DELIMITER),
    ("<!-- page: 1 -->\r\n\r\nA\n<!-- page: 2 -->\r\r\nB", DEFAULT_PAGE_DELIMITER),
    ("<!-- page: 1 -->\n\r\n", DEFAULT_PAGE_DELIMITER),
    ("<!-- page: 1 --> \nA\n<!--page=2-->\nB\n", DEFAULT_PAGE_DELIMITER),
    ("\n \t\n\r\n<!-- page: 1 -->\nA\n", DEFAULT_PAGE_DELIMITER),
    ("\x0c\u2028<!-- page: 4 -->\nA\n", DEFAULT_PAGE_DELIMITER),
    ("cover\n\n<!-- page: 2 -->\nA\n<!-- page: 3 -->\nB", DEFAULT_PAGE_DELIMITER),
    ("cover\x85<!-- page: 2 -->\x85A", DEFAULT_PAGE_DELIMITER),
    ("  x  <!-- page: 1 -->\nbody\n", DEFAULT_PAGE_DELIMITER),
    ("===\nfirst\n===\r\nsecond\n===\n", r"==="),
    ("intro\n===\nfirst\n===\nsecond", r"==="),
    ("\n\n===\n===\n===\n", r"==="),
    ("just some body text\r\nwith two lines\n", DEFAULT_PAGE_DELIMITER),
    ("no delimiter\x1cat all", r"==="),
    ("<!-- page: 3 -->\nA\n<!-- page: 3 -->\nB\n", DEFAULT_PAGE_DELIMITER),
    ("<!-- page: 9 -->\nlate\n<!-- page: 2 -->\nearly\n<!-- page: 5 -->\nmid",
     DEFAULT_PAGE_DELIMITER),
    ("<!-- page: 10 -->\n| a |\n<!-- page: 1 -->\n\n| b |\r\n| c |\r\n",
     DEFAULT_PAGE_DELIMITER),
]


class TestParseMatchesReference:
    @pytest.mark.parametrize("markdown, pattern", _PARSE_CASES)
    def test_same_pages_as_line_loop(self, markdown, pattern):
        try:
            expected = _reference_parse(markdown, pattern)
        except DuplicatePageNumberError:
            with pytest.raises(DuplicatePageNumberError):
                parse_report(markdown, pattern)
            return
        report = parse_report(markdown, pattern)
        assert [(p.page_number, p.text) for p in report.pages] == expected

    def test_random_documents(self):
        rng = random.Random(11)
        pieces = ["<!-- page: {} -->", "===", "text", "| t |", " ", "", *_BREAKS]
        for _ in range(2000):
            numbers = rng.sample(range(1, 40), 12)
            markdown = "".join(rng.choice(pieces).format(numbers.pop())
                               for _ in range(rng.randrange(1, 12)))
            if not markdown.strip():
                continue
            for pattern in (DEFAULT_PAGE_DELIMITER, r"==="):
                try:
                    expected = _reference_parse(markdown, pattern)
                except DuplicatePageNumberError:
                    continue
                report = parse_report(markdown, pattern)
                assert [(p.page_number, p.text) for p in report.pages] == expected, markdown

    @pytest.mark.parametrize("markdown, pattern",
                             _PARSE_CASES[-2:] + [(TABLE_PAGE_MD, DEFAULT_PAGE_DELIMITER)])
    def test_derived_fields_equal_detectors(self, markdown, pattern):
        report = parse_report(markdown, pattern)
        for page in report.pages:
            assert "token_count" not in vars(page)
            assert "table_block_spans" not in vars(page)
            assert page.token_count == count_tokens(page.text)
            assert page.table_block_spans == detect_table_spans(page.text)
            assert vars(page)["token_count"] == page.token_count


class TestReportProperties:
    def test_lossless_reconstruction(self):
        report = parse_report(TABLE_PAGE_MD)
        assert render_markdown(report) == TABLE_PAGE_MD

    def test_parse_is_idempotent_on_serialized_output(self):
        first = parse_report(TABLE_PAGE_MD)
        second = parse_report(render_markdown(first))
        third = parse_report(render_markdown(second))
        assert second == third
        assert first == second

    def test_page_tokens_sum_to_body_tokens(self):
        report = parse_report(TABLE_PAGE_MD)
        body = "\n".join(page.text for page in report.pages)
        assert sum(page.token_count for page in report.pages) == count_tokens(body)

    def test_derived_table_spans_keep_invariants(self):
        texts = [page.text for page in parse_report(TABLE_PAGE_MD).pages]
        texts += ["abc", "|", "| a\r\n| b\rx\n|c", "x\n|\x85|\u2028y", *_AWKWARD_PAGES]
        for text in texts:
            last_end = -1
            for start, end in PageChunk(1, text).table_block_spans:
                assert 0 <= start < end <= len(text), text
                assert start >= last_end, text
                assert text[start:end].startswith("|"), text
                last_end = end

    def test_detect_table_spans_multiple_runs(self):
        text = "| a |\ntext\n| b |\n| c |"
        spans = detect_table_spans(text)
        assert len(spans) == 2
        assert text[spans[1][0]:spans[1][1]] == "| b |\n| c |"


class TestDataset:
    def _record(self, **overrides):
        record = {
            "id": "q1",
            "company": "DemoCo",
            "year": 2023,
            "question": "What is the ratio?",
            "type": "mixed",
            "thoughts": "Thought: look at two pages.",
            "page_numbers": [50, 51],
            "python_code": "10/4",
            "answer": "2.5",
        }
        record.update(overrides)
        return record

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert read_dataset(path) == []

    def test_single_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(self._record()) + "\n", encoding="utf-8")
        (instance,) = read_dataset(path)
        assert instance.evidence_pages == frozenset({50, 51})
        assert instance.report_id == "DemoCo_2023"
        assert instance.program_source == "10/4"

    def test_non_numeric_answer_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(self._record(answer="abc")) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert excinfo.value.line_number == 1
        assert excinfo.value.field == "answer"

    def test_missing_field_reports_name_and_line(self, tmp_path):
        record = self._record()
        del record["question"]
        path = tmp_path / "missing.jsonl"
        path.write_text(json.dumps(self._record()) + "\n" + json.dumps(record) + "\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert excinfo.value.line_number == 2
        assert excinfo.value.field == "question"

    def test_bad_type_rejected(self, tmp_path):
        path = tmp_path / "bad_type.jsonl"
        path.write_text(json.dumps(self._record(type="chart")) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_dataset(path)

    def test_round_trip_identity(self, tmp_path):
        records = [
            self._record(),
            self._record(id="q2", answer="(1,234)", type="table",
                         custom_tag="kept", page_numbers=[2, 9, 14]),
        ]
        path = tmp_path / "ds.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        instances = read_dataset(path)
        assert instances[1].extras == {"custom_tag": "kept"}

        out = tmp_path / "out.jsonl"
        write_dataset(instances, out)
        again = read_dataset(out)
        assert again == instances

    def test_difficulty_follows_table_count(self):
        instance = instance_from_record(self._record(n_evidence_tables=3))
        assert instance.difficulty.value == "Hard"


class TestCorpusStats:
    def _instances(self):
        return [
            instance_from_record({
                "id": f"q{i}", "company": "DemoCo", "year": 2023,
                "question": "?", "type": "mixed", "thoughts": "t",
                "page_numbers": pages, "python_code": "1+1", "answer": "2",
            })
            for i, pages in enumerate([[10, 60], [1, 2, 3, 120]])
        ]

    def _report(self):
        return parse_report(TWO_PAGE_MD, report_id="DemoCo_2023", company="DemoCo")

    def test_evidence_count_stats(self):
        stats = corpus_stats([self._report()], self._instances())
        assert stats.evidence_pages_mean == pytest.approx(3.0)
        assert stats.evidence_pages_median == pytest.approx(3.0)
        assert stats.evidence_pages_min == 2
        assert stats.evidence_pages_max == 4

    def test_histogram_sums_to_occurrences(self):
        stats = corpus_stats([self._report()], self._instances())
        assert sum(stats.page_histogram.values()) == 6
        assert stats.page_histogram["1-50"] == 4
        assert stats.page_histogram["51-100"] == 1
        assert stats.page_histogram["101-150"] == 1

    def test_zero_instances(self):
        stats = corpus_stats([self._report()], [])
        assert stats.qa_count == 0
        assert stats.evidence_pages_mean is None
        assert stats.token_mean is not None

    def test_dangling_reference(self):
        instance = self._instances()[0]
        other = parse_report(TWO_PAGE_MD, report_id="OtherCo_2020")
        with pytest.raises(DanglingReferenceError):
            corpus_stats([other], [instance])

    def test_table_count(self):
        report = parse_report(TABLE_PAGE_MD, report_id="DemoCo_2023")
        stats = corpus_stats([report], [])
        assert stats.n_tables == 1


def test_make_report_id_slug():
    assert make_report_id("Acme Corp, Inc.", 2023) == "Acme_Corp_Inc_2023"


def test_load_report_recovers_metadata_from_filename(tmp_path):
    from finreportqa.corpus import load_report

    path = tmp_path / "DemoCo_2002.md"
    path.write_text(TWO_PAGE_MD, encoding="utf-8")
    report = load_report(path)
    assert report.report_id == "DemoCo_2002"
    assert report.company == "DemoCo"
    assert report.fiscal_year == 2002

    plain = tmp_path / "notes.md"
    plain.write_text(TWO_PAGE_MD, encoding="utf-8")
    assert load_report(plain).company == ""
