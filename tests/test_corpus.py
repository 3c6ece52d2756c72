import dataclasses
import json
import random
import re
import sys
import threading
import tracemalloc

import pytest

from finreportqa import corpus as corpus_mod
from finreportqa.corpus import (
    DEFAULT_PAGE_DELIMITER,
    REQUIRED_KEYS,
    PageChunk,
    QAInstance,
    Report,
    ReportPrefix,
    corpus_stats,
    count_tokens,
    detect_table_spans,
    instance_from_record,
    instance_to_record,
    load_corpus,
    load_report,
    make_report_id,
    parse_report,
    read_dataset,
    render_markdown,
)
from finreportqa.errors import (
    ConfigError,
    DanglingReferenceError,
    DuplicatePageNumberError,
    EmptyDocumentError,
    FinReportQAError,
    PageNumberError,
    ReportEncodingError,
    SchemaError,
)
from finreportqa.rundir import RunDir
from oracles import random_report

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

# reports with non-ASCII text, quotes and backslashes, control characters and
# empty pages
_EDGE_REPORTS = [
    _AWKWARD_PAGES,
    ("Revenue | 1,200 |", "  net\tincome\n{4} ~x' "),
    ('said "so"', "", "C:\\x", "nul\x00 del\x7f"),
    ("caf\u00e9 \u20ac1.2bn", "\U0001f600 \u2028 \ud800", " \r\n\x1c "),
    ("", " \n"),
]


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
        assert [report.prefix(n) for n in range(3)] == [ReportPrefix(0, (), (), True)] * 3
        assert report.prefix(2).text == ""

    @pytest.mark.parametrize("texts", _EDGE_REPORTS)
    def test_escaped_is_json_dumps_of_every_prefix(self, texts):
        report = _report_of(texts)
        for page in report.pages:
            text = " ".join(page.text.split())
            assert page.flat == (json.dumps(text)[1:-1].encode(), count_tokens(page.text))
        for n in range(report.total_tokens() + 2):
            prefix = report.prefix(n)
            assert b"".join(prefix.escaped) == \
                json.dumps(_reference_prefix(report, n))[1:-1].encode(), n

    @pytest.mark.parametrize("texts", _EDGE_REPORTS)
    def test_a_prefix_of_a_prefix_is_the_report_prefix(self, texts):
        """A held prefix answers every shorter prefix as its report does,
        whether it ends inside a page or with one, and refuses a longer one
        unless it holds the whole report."""
        report = _report_of(texts)
        total = report.total_tokens()
        for n in range(total + 2):
            held = report.prefix(n)
            assert held.whole == (n >= total), n
            for m in range(n + 1):
                assert held.prefix(m) == report.prefix(m), (n, m)
            for m in (n + 1, n + 2):
                if held.whole:
                    assert held.prefix(m) == report.prefix(m), (n, m)
                else:
                    with pytest.raises(ValueError):
                        held.prefix(m)
            with pytest.raises(ValueError):
                held.prefix(-1)

    def test_escaped_is_json_dumps_of_random_prefixes(self):
        rng = random.Random(20261019)
        alphabet = ['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\U0001f600", "\n", "\t"]
        for case in range(1000):
            pages = ["".join(rng.choice(alphabet) if rng.random() < 0.1 else rng.choice("ab |1")
                             for _ in range(rng.randrange(12))) for _ in range(rng.randint(1, 4))]
            report = _report_of(pages)
            for n in range(report.total_tokens() + 1):
                prefix = report.prefix(n)
                assert prefix.text == _reference_prefix(report, n), (case, pages, n)
                assert b"".join(prefix.escaped) == json.dumps(prefix.text)[1:-1].encode(), \
                    (case, pages, n)

    def test_a_page_holds_only_its_escaped_bytes(self):
        """A flattened page keeps its escaped flat text, as bytes, and its
        word count, and a prefix's piece for a whole page is that same object."""
        report = _report_of(("Revenue | 1,200 |", 'net "4"', "  net {4} ~x'", "a b"))
        plain, quoted, spaced, _ = (page.flat for page in report.pages)
        assert plain == (b"Revenue | 1,200 |", 4) and spaced == (b"net {4} ~x'", 3)
        assert quoted == (b'net \\"4\\"', 2)
        escaped = report.prefix(report.total_tokens() - 1).escaped
        assert escaped[0] is plain.escaped and escaped[2] is quoted.escaped
        assert escaped[4] is spaced.escaped and escaped[6] == b"a"
        assert escaped[1::2] == (b" ",) * 3

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            _report_of(("a b",)).prefix(-1)

    def test_no_page_flattened_at_parse_or_past_the_cut(self):
        report = parse_report("".join(f"<!-- page: {number} -->\nw{number} x\n"
                                      for number in range(1, 7)))
        assert not [page for page in report.pages if "flat" in vars(page)]
        assert report.prefix(5).text == _reference_prefix(report, 5)
        assert ["flat" in vars(page) for page in report.pages] == [True] * 3 + [False] * 3
        # a prefix that ends with a page reads no page after it
        assert report.prefix(8).text == _reference_prefix(report, 8)
        assert ["flat" in vars(page) for page in report.pages] == [True] * 4 + [False] * 2

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
        report = _report_of((*_AWKWARD_PAGES, 'say "so" C:\\x caf\u00e9') * 40)
        total = report.total_tokens()
        ns = (0, 1, 7, total // 2, total - 1, total, total + 1)
        expected = {n: (_reference_prefix(report, n),
                        json.dumps(_reference_prefix(report, n)).encode()) for n in ns}
        start = threading.Barrier(8)
        results: list[list[tuple[str, bytes]]] = [[] for _ in range(8)]

        def work(slot: int) -> None:
            start.wait(timeout=10)
            for n in ns:
                prefix = report.prefix(n)
                results[slot].append((prefix.text, b'"' + b"".join(prefix.escaped) + b'"'))

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

    def test_duplicate_page_numbers_rejected(self):
        text = "<!-- page: 3 -->\nA\n<!-- page: 3 -->\nB\n"
        with pytest.raises(DuplicatePageNumberError):
            parse_report(text)

    def test_empty_document_rejected(self):
        with pytest.raises(EmptyDocumentError):
            parse_report("   \n  \n")

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

    def test_delimiter_begins_with_the_literal_the_scan_finds(self):
        # parse_report tries only lines that begin with "<!--"; a quantifier
        # on its last "-" or a top-level alternative would let a delimiter
        # line begin otherwise
        assert corpus_mod._DELIMITER_PREFIX == "<!--"
        assert DEFAULT_PAGE_DELIMITER.startswith("<!--")
        assert DEFAULT_PAGE_DELIMITER[4] not in "*+?{"
        assert "|" not in DEFAULT_PAGE_DELIMITER


def _reference_parse(markdown_text, delimiter_pattern=DEFAULT_PAGE_DELIMITER):
    """The line-by-line parse that parse_report must match: (number, text) per page."""
    pattern = re.compile(delimiter_pattern)
    segments, preamble = [], []
    for line in markdown_text.splitlines(keepends=True):
        match = pattern.fullmatch(line.rstrip("\r\n"))
        if match:
            segments.append((int(match.group(1)), []))
        elif segments:
            segments[-1][1].append(line)
        else:
            preamble.append(line)
    if not segments:
        return [(1, markdown_text)]
    if any(line.strip() for line in preamble):
        segments[0][1][:0] = preamble
    pages, seen = [], set()
    for page_number, lines in segments:
        if page_number in seen:
            raise DuplicatePageNumberError(f"page {page_number} captured twice")
        seen.add(page_number)
        pages.append((page_number, "".join(lines)))
    return sorted(pages)


_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029")

# (markdown, delimiter pattern) pairs with awkward line breaks and layouts; the
# pattern is the one the reference parse matches lines against
_PARSE_CASES = [
    *(("<!-- page: 1 -->" + brk + "A" + brk + "<!-- page: 2 -->" + brk + "B" + brk,
       DEFAULT_PAGE_DELIMITER) for brk in _BREAKS),
    *(("<!-- page: 1 -->\nA " + brk + "<!-- page: 2 -->" + brk + " B", DEFAULT_PAGE_DELIMITER)
      for brk in _BREAKS),
    ("<!-- page: 1 -->\r\nA\r\n<!-- page: 2 -->\r\n", DEFAULT_PAGE_DELIMITER),
    ("<!-- page: 1 -->\r\n\r\nA\n<!-- page: 2 -->\r\r\nB", DEFAULT_PAGE_DELIMITER),
    ("<!-- page: 1 -->\n\r\n", DEFAULT_PAGE_DELIMITER),
    ("<!-- page: 1 --> \nA\n<!--page=2-->\nB\n", DEFAULT_PAGE_DELIMITER),
    ("<!--  Page  7  -->\nA\n<!-- page 8-->\nB\n<!--\tpage:\t9\t-->\r\nC", DEFAULT_PAGE_DELIMITER),
    ("\n \t\n\r\n<!-- page: 1 -->\nA\n", DEFAULT_PAGE_DELIMITER),
    ("\x0c\u2028<!-- page: 4 -->\nA\n", DEFAULT_PAGE_DELIMITER),
    ("cover\n\n<!-- page: 2 -->\nA\n<!-- page: 3 -->\nB", DEFAULT_PAGE_DELIMITER),
    ("cover\x85<!-- page: 2 -->\x85A", DEFAULT_PAGE_DELIMITER),
    ("  x  <!-- page: 1 -->\nbody\n", DEFAULT_PAGE_DELIMITER),
    ("===\nfirst\n===\r\nsecond\n===\n", DEFAULT_PAGE_DELIMITER),
    ("intro\n===\nfirst\n===\nsecond", DEFAULT_PAGE_DELIMITER),
    ("\n\n===\n===\n===\n", DEFAULT_PAGE_DELIMITER),
    ("just some body text\r\nwith two lines\n", DEFAULT_PAGE_DELIMITER),
    ("no delimiter\x1cat all", DEFAULT_PAGE_DELIMITER),
    ("<!-- page: 3 -->\nA\n<!-- page: 3 -->\nB\n", DEFAULT_PAGE_DELIMITER),
    ("<!-- page: 9 -->\nlate\n<!-- page: 2 -->\nearly\n<!-- page: 5 -->\nmid",
     DEFAULT_PAGE_DELIMITER),
    ("<!-- page: 10 -->\n| a |\n<!-- page: 1 -->\n\n| b |\r\n| c |\r\n",
     DEFAULT_PAGE_DELIMITER),
]


# near misses: a delimiter or its "<!--" prefix where no delimiter line starts
# or ends, or cut by a line break; and delimiter lines at the end of the text
_NEAR_MISS_CASES = [
    *(("A <!-- page: 1 -->" + brk + "B", DEFAULT_PAGE_DELIMITER) for brk in ("\n", "\r\n")),
    ("<!-- page: 1 -->\nA <!-- page: 2 -->\nB <!-- page: 3 -->", DEFAULT_PAGE_DELIMITER),
    ("<!-- page: 1 --> text\nA\n<!-- page: 2 -->-->\nB", DEFAULT_PAGE_DELIMITER),
    *(("<!-- page:" + brk + "1 -->\nA", DEFAULT_PAGE_DELIMITER) for brk in _BREAKS),
    *(("<!-- page: 1 -->\nA\n<!-- page: 2 -->" + brk + "B", DEFAULT_PAGE_DELIMITER)
      for brk in _BREAKS),
    ("<!--\nA\n<!-- page: 2 -->\nB\n<!--", DEFAULT_PAGE_DELIMITER),
    ("<!--", DEFAULT_PAGE_DELIMITER),
    ("<!--<!-- page: 1 -->\nA", DEFAULT_PAGE_DELIMITER),
    ("A\n<!-- page: 2 -->", DEFAULT_PAGE_DELIMITER),
    ("<!-- page: 5 -->", DEFAULT_PAGE_DELIMITER),
    ("A\r<!-- page: 2 -->\r\r\nB\r\n<!-- page: 3 -->\n\r", DEFAULT_PAGE_DELIMITER),
]


_BLANK_DOCUMENTS = ("", " ", "\n", " \r\n\t\x0b\x0c\u2028 \r", "\u3000\x85\n" * 5)


def _random_documents(count=2000, seed=11):
    """Seeded random non-blank documents of delimiter lines, near misses,
    text and every line break; no page number repeats in one."""
    rng = random.Random(seed)
    pieces = ["<!-- page: {} -->", "<!--Page={}-->", "text", "| t |", " ", "", *_BREAKS,
              # near misses: mid-line, followed by text, broken by a line
              # break, ended by each break, a lone "<!--"
              "x <!-- page: {} -->", "<!-- page: {} --> x", "<!-- page:", " {} -->",
              *("<!-- page:" + brk + "{} -->" for brk in _BREAKS),
              *("<!-- page: {} -->" + brk for brk in _BREAKS), "<!--", "-->"]
    documents = 0
    while documents < count:
        numbers = rng.sample(range(1, 40), 12)  # distinct, so no duplicate pages
        markdown = "".join(rng.choice(pieces).format(numbers.pop())
                           for _ in range(rng.randrange(1, 12)))
        if rng.random() < 0.1:
            markdown += "<!-- page: {} -->".format(numbers.pop())  # no break after it
        if not markdown.strip():
            continue
        documents += 1
        yield markdown


def _as_read(markdown):
    r"""The text a text-mode read of ``markdown``'s file gives: "\r\n" and
    "\r" read as "\n"."""
    return markdown.replace("\r\n", "\n").replace("\r", "\n")


@pytest.fixture(scope="module")
def document_files(tmp_path_factory):
    """Every parse case, blank document and random document, each written
    once to its own file: rewriting one file in place can cost a flush per
    write, where a new file costs almost nothing."""
    root = tmp_path_factory.mktemp("documents")
    documents = [markdown for markdown, _ in _PARSE_CASES + _NEAR_MISS_CASES]
    files = []
    for index, markdown in enumerate(documents + list(_BLANK_DOCUMENTS)
                                     + list(_random_documents())):
        path = root / f"Doc{index}_2001.md"
        path.write_bytes(markdown.encode("utf-8"))
        files.append((markdown, path))
    return files


class TestParseMatchesReference:
    @pytest.mark.parametrize("markdown, pattern", _PARSE_CASES + _NEAR_MISS_CASES)
    def test_same_pages_as_line_loop(self, markdown, pattern):
        try:
            expected = _reference_parse(markdown, pattern)
        except DuplicatePageNumberError:
            with pytest.raises(DuplicatePageNumberError):
                parse_report(markdown)
            return
        report = parse_report(markdown)
        assert [(p.page_number, p.text) for p in report.pages] == expected

    def test_random_documents(self):
        for markdown in _random_documents():
            report = parse_report(markdown)
            assert [(p.page_number, p.text) for p in report.pages] == _reference_parse(markdown), \
                markdown

    @pytest.mark.parametrize("read_size", [1, 2, 3, 7, corpus_mod._READ_SIZE])
    def test_load_report_at_every_read_size(self, document_files, monkeypatch, read_size):
        # each document is cut into pieces at every read boundary the size
        # allows, including inside a multi-byte character, a "\r\n" and a
        # delimiter line
        monkeypatch.setattr(corpus_mod, "_READ_SIZE", read_size)
        for markdown, path in document_files:
            try:
                expected = _reference_parse(_as_read(markdown))
            except DuplicatePageNumberError:
                with pytest.raises(DuplicatePageNumberError, match="captured twice"):
                    load_report(path)
                continue
            if not markdown.strip():
                with pytest.raises(EmptyDocumentError):
                    load_report(path)
                continue
            report = load_report(path)
            assert [(p.page_number, p.text) for p in report.pages] == expected, markdown

    @pytest.mark.parametrize("markdown, pattern",
                             _PARSE_CASES[-2:] + [(TABLE_PAGE_MD, DEFAULT_PAGE_DELIMITER)])
    def test_derived_fields_equal_detectors(self, markdown, pattern):
        report = parse_report(markdown)
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
        assert instance.page_numbers == [50, 51]
        assert instance.report_id == "DemoCo_2023"
        assert instance.python_code == "10/4"

    def test_non_numeric_answer_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(self._record(answer="abc")) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert excinfo.value.line_number == 1
        assert excinfo.value.field == "answer"

    @pytest.mark.parametrize("field, value", [
        *(("answer", answer) for answer in ("NaN", "nan", "sNaN", "Infinity", "-inf", "1e999999")),
        ("year", float("inf")), ("year", float("-inf")), ("year", float("nan")), ("year", True),
        ("year", "Infinity"), ("n_evidence_tables", True), ("n_evidence_tables", float("inf")),
        ("n_evidence_tables", float("nan")),
    ])
    def test_non_finite_or_bool_number_field_rejected(self, field, value):
        with pytest.raises(SchemaError) as excinfo:
            instance_from_record(self._record(**{field: value}), 7)
        assert (excinfo.value.line_number, excinfo.value.field) == (7, field)

    def test_empty_question_rejected(self):
        with pytest.raises(SchemaError, match="^line 7: field 'question' is empty$") as excinfo:
            instance_from_record(self._record(question=""), 7)
        assert excinfo.value.field == "question"

    @pytest.mark.parametrize("year", [2023, 2023.0, "2023"])
    def test_year_may_be_an_integral_number_or_string(self, year):
        assert instance_from_record(self._record(year=year)).year == 2023

    @pytest.mark.parametrize("year", [2023.5, 2022.999, -0.5])
    def test_fractional_year_rejected(self, year):
        """int() would truncate it to some other report's year."""
        with pytest.raises(SchemaError) as excinfo:
            instance_from_record(self._record(year=year), 7)
        assert (excinfo.value.line_number, excinfo.value.field) == (7, "year")

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

    def test_non_string_report_id_rejected(self, tmp_path):
        path = tmp_path / "bad_report_id.jsonl"
        path.write_text(json.dumps(self._record(report_id=["DemoCo_2023"])) + "\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert (excinfo.value.line_number, excinfo.value.field) == (1, "report_id")

    @pytest.mark.parametrize("report_id", ["../escape", "Bad\u0000Name", "a\\b", ".", ".."])
    def test_report_id_that_is_no_file_name_rejected(self, report_id):
        """bench opens <corpus_dir>/<report_id>.md."""
        with pytest.raises(SchemaError, match="field 'report_id' must be one plain file name"
                           ) as excinfo:
            instance_from_record(self._record(report_id=report_id), 7)
        assert (excinfo.value.line_number, excinfo.value.field) == (7, "report_id")

    @pytest.mark.parametrize("pages", [[50, 31.9], [50, "51"], [50, True], [0, 50], 50])
    def test_page_numbers_must_be_ints_of_at_least_one(self, tmp_path, pages):
        path = tmp_path / "bad_pages.jsonl"
        path.write_text(json.dumps(self._record(page_numbers=pages)) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert (excinfo.value.line_number, excinfo.value.field) == (1, "page_numbers")

    @pytest.mark.parametrize("question_id", ["", ".", "..", "../../escaped", "a/b", "a\\b",
                                             "a\0b"])
    def test_id_must_be_one_plain_file_name(self, tmp_path, question_id):
        path = tmp_path / "bad_id.jsonl"
        path.write_text(json.dumps(self._record(id=question_id)) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert (excinfo.value.line_number, excinfo.value.field) == (1, "id")

    @pytest.mark.parametrize("mode", ["bogus", "Percent", 1, True, ["percent"]])
    def test_percent_mode_must_be_a_known_mode(self, tmp_path, mode):
        path = tmp_path / "bad_mode.jsonl"
        path.write_text(json.dumps(self._record(id="q0"))
                        + "\n" + json.dumps(self._record(percent_mode=mode)) + "\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert (excinfo.value.line_number, excinfo.value.field) == (2, "percent_mode")

    @pytest.mark.parametrize("mode", [{}, {"percent_mode": None}, {"percent_mode": ""},
                                      {"percent_mode": "as_given"}, {"percent_mode": "fraction"},
                                      {"percent_mode": "percent"}])
    def test_percent_mode_may_be_absent_or_a_known_mode(self, tmp_path, mode):
        path = tmp_path / "mode.jsonl"
        path.write_text(json.dumps(self._record(**mode)) + "\n", encoding="utf-8")
        (instance,) = read_dataset(path)
        assert instance.extras == mode

    def test_repeated_id_rejected(self, tmp_path):
        """Its rows would be scored against the other record's gold."""
        path = tmp_path / "repeated.jsonl"
        path.write_text(json.dumps(self._record(id="q1", answer="10")) + "\n"
                        + json.dumps(self._record(id="q2")) + "\n"
                        + json.dumps(self._record(id="q1", answer="5")) + "\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            read_dataset(path)
        assert str(excinfo.value) == f"line 3: {path}: id 'q1' repeats"
        assert (excinfo.value.line_number, excinfo.value.field) == (3, "id")

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

        out = RunDir(tmp_path).write_jsonl("out.jsonl", map(instance_to_record, instances))
        again = read_dataset(out)
        assert again == instances

    def test_instance_fields_are_the_record_keys(self):
        names = [f.name for f in dataclasses.fields(QAInstance)]
        assert names == [*REQUIRED_KEYS, "report_id", "n_evidence_tables", "extras"]

    def test_page_numbers_are_sorted_without_repeats(self):
        instance = instance_from_record(self._record(page_numbers=[51, 50, 51]))
        assert instance.page_numbers == [50, 51]
        assert instance_to_record(instance)["page_numbers"] == [50, 51]

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
        assert stats["evidence_pages"]["mean"] == pytest.approx(3.0)
        assert stats["evidence_pages"]["median"] == pytest.approx(3.0)
        assert stats["evidence_pages"]["min"] == 2
        assert stats["evidence_pages"]["max"] == 4

    def test_histogram_sums_to_occurrences(self):
        stats = corpus_stats([self._report()], self._instances())
        assert sum(stats["evidence_page_histogram"].values()) == 6
        assert stats["evidence_page_histogram"]["1-50"] == 4
        assert stats["evidence_page_histogram"]["51-100"] == 1
        assert stats["evidence_page_histogram"]["101-150"] == 1

    def test_zero_instances(self):
        stats = corpus_stats([self._report()], [])
        assert stats["qa_count"] == 0
        assert stats["evidence_pages"]["mean"] is None
        assert stats["tokens_mean"] is not None

    def test_dangling_reference(self):
        instance = self._instances()[0]
        other = parse_report(TWO_PAGE_MD, report_id="OtherCo_2020")
        with pytest.raises(DanglingReferenceError):
            corpus_stats([other], [instance])

    def test_table_count(self):
        report = parse_report(TABLE_PAGE_MD, report_id="DemoCo_2023")
        stats = corpus_stats([report], [])
        assert stats["tables"] == 1


def test_make_report_id_slug():
    assert make_report_id("Acme Corp, Inc.", 2023) == "Acme_Corp_Inc_2023"


def test_load_report_recovers_metadata_from_filename(tmp_path):
    path = tmp_path / "DemoCo_2002.md"
    path.write_text(TWO_PAGE_MD, encoding="utf-8")
    report = load_report(path)
    assert report.report_id == "DemoCo_2002"
    assert report.company == "DemoCo"
    assert report.fiscal_year == 2002

    plain = tmp_path / "notes.md"
    plain.write_text(TWO_PAGE_MD, encoding="utf-8")
    assert load_report(plain).company == ""


@pytest.mark.parametrize("stem", ["Acme_\u00b2\u2070\u00b2\u00b3", "Acme_\u0662\u0660\u0662\u0663",
                                  "Acme_\uff12\uff10\uff12\uff13"])
def test_load_report_ignores_a_year_of_non_ascii_digits(tmp_path, stem):
    path = tmp_path / f"{stem}.md"
    path.write_text(TWO_PAGE_MD, encoding="utf-8")
    report = load_report(path)
    assert (report.report_id, report.company, report.fiscal_year) == (stem, "", 0)
    assert report.page_numbers == [1, 2]


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_load_corpus_of_a_path_that_is_not_a_directory_is_config_error(tmp_path, kind):
    path = tmp_path / "corpus"
    if kind == "file":
        path.write_text("<!-- page: 1 -->\ntext\n")
    with pytest.raises(ConfigError, match=f"corpus_dir {path}: not a directory"):
        load_corpus(path)


def test_load_corpus_reads_each_report_file_in_name_order(tmp_path):
    for name in ("Zeta_2002.md", "Acme_2003.md", "notes.txt"):
        (tmp_path / name).write_text(TWO_PAGE_MD, encoding="utf-8")
    (tmp_path / "nested").mkdir()
    (tmp_path / "nested" / "Beta_2001.md").write_text(TWO_PAGE_MD, encoding="utf-8")
    assert [report.report_id for report in load_corpus(tmp_path)] == ["Acme_2003", "Zeta_2002"]


def test_load_report_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "DemoCo_2002.md"
    path.write_bytes(b"<!-- page: 1 -->\nbad \xff byte\n")
    with pytest.raises(ReportEncodingError, match="DemoCo_2002.md"):
        load_report(path)


def test_load_report_names_the_byte_offset_of_a_bad_byte_past_the_first_read(tmp_path):
    path = tmp_path / "DemoCo_2002.md"
    path.write_bytes(b"<!-- page: 1 -->\n" + b"x" * (70000 - 17) + b"\xff tail\n")
    with pytest.raises(ReportEncodingError,
                       match=re.escape(f"{path}: not UTF-8 (invalid start byte at byte 70000)")):
        load_report(path)


@pytest.mark.parametrize("read_size", [1, 2, 3, 7, corpus_mod._READ_SIZE])
@pytest.mark.parametrize("at, bad", [(0, b"\xff"), (65535, b"\xe2\x80A"), (65535, b"\xe2\x80"),
                                     (65534, b"\xf0\x9f\x98"), (70000, b"\xed\xa0\x80")])
def test_load_report_not_utf8_message_equals_read_texts(tmp_path, monkeypatch, read_size, at, bad):
    # a multi-byte sequence cut by the end of a read, or by the end of the
    # file, is reported at the byte it starts at, as one whole read reports it
    monkeypatch.setattr(corpus_mod, "_READ_SIZE", read_size)
    path = tmp_path / "DemoCo_2002.md"
    path.write_bytes(b"x" * at + bad)
    with pytest.raises(ReportEncodingError) as whole:
        corpus_mod.read_text(path, ReportEncodingError)
    assert f"at byte {at})" in str(whole.value)
    with pytest.raises(ReportEncodingError) as loaded:
        load_report(path)
    assert str(loaded.value) == str(whole.value)


def test_load_report_read_byte_by_byte_equals_parse_report_of_its_text(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus_mod, "_READ_SIZE", 1)
    path = tmp_path / "DemoCo_2002.md"
    path.write_bytes("cover \u2019\r\n<!-- page: 2 -->\r\nit\u2019s\x85<!-- page: 3 -->\x85"
                     "A\u2028<!-- page: 4 -->\r\n| \u00e9 |\r\r\n<!-- page: 5 -->\r"
                     "\U0001F600 end".encode("utf-8"))
    expected = parse_report(path.read_text(encoding="utf-8"))
    report = load_report(path)
    assert [(p.page_number, p.text) for p in report.pages] == \
        [(p.page_number, p.text) for p in expected.pages]
    assert report.page_numbers == [2, 4, 5]
    assert "\r" not in report.page(2).text and "\u2028" in report.page(2).text


@pytest.mark.parametrize("content, error, message", [
    (" \n\n", EmptyDocumentError, "document has no non-whitespace content"),
    ("<!-- page: 3 -->\nA\n<!-- page: 3 -->\nB\n", DuplicatePageNumberError,
     "page 3 captured twice"),
    ("<!-- page: 00 -->\nA\n<!-- page: 1 -->\nB\n", PageNumberError,
     "page 0: pages are numbered from 1"),
])
def test_load_report_names_the_file_in_a_parse_error(tmp_path, content, error, message):
    path = tmp_path / "Blank_2003.md"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(error) as caught:
        load_report(path)
    assert str(caught.value) == f"{path}: {message}"


def test_load_report_names_a_page_number_too_long_for_int(tmp_path):
    path = tmp_path / "Long_2003.md"
    path.write_text("<!-- page: " + "1" * 5000 + " -->\nA\n", encoding="utf-8")
    with pytest.raises(PageNumberError) as caught:
        load_report(path)
    assert str(caught.value) == f"{path}: a page number of 5000 digits"


def test_report_file_fuzz(tmp_path):
    """Every seeded report file loads as parse_report reads its text, or
    raises the package error parse_report raises (a ReportEncodingError when
    the bytes are not UTF-8), naming the file."""
    rng = random.Random(20261020)
    for index in range(1000):
        path = tmp_path / f"Fuzz{index}_2024.md"
        path.write_bytes(random_report(rng))
        try:
            expected = parse_report(path.read_text(encoding="utf-8"), report_id=path.stem)
        except (UnicodeDecodeError, FinReportQAError) as exc:
            error = ReportEncodingError if isinstance(exc, UnicodeDecodeError) else type(exc)
            with pytest.raises(error, match=f"^{re.escape(str(path))}: "):
                load_report(path)
            continue
        report = load_report(path)
        assert [(p.page_number, p.text) for p in report.pages] == \
            [(p.page_number, p.text) for p in expected.pages], path.read_bytes()


def test_load_report_holds_one_copy_of_the_text(tmp_path):
    # a 300-page report of about 1 MB: the load's allocation peak is the
    # pages' text and little more, not the file's text beside them
    rng = random.Random(5)
    words = ["revenue", "net", "income", "cash", "flow", "1,234.5", "2023", "the", "of", "and"]
    parts = []
    for page_number in range(1, 301):
        parts.append(f"<!-- page: {page_number} -->\n")
        parts.extend(" ".join(rng.choices(words, k=10)) + "\n" for _ in range(60))
        parts.append("| segment | 12.5 |\n| total | 40.1 |\n")
    path = tmp_path / "DemoCo_2002.md"
    path.write_text("".join(parts), encoding="ascii")
    assert 0.9e6 < path.stat().st_size < 1.2e6
    tracemalloc.start()
    try:
        report = load_report(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    text_length = sum(len(page.text) for page in report.pages)
    assert len(report.pages) == 300
    assert peak < 1.4 * text_length, peak / text_length
