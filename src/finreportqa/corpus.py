"""Document model: page-delimited Markdown reports and the QA dataset.

A report is an ordered sequence of page chunks split on standalone
delimiter lines. Detected Markdown table blocks are recorded as character
spans. The QA dataset is JSON-lines, one instance per line.
"""

from __future__ import annotations

import bisect
import json
import re
import statistics
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DanglingReferenceError,
    DuplicatePageNumberError,
    EmptyDocumentError,
    SchemaError,
)
from .metrics import Difficulty, bucket_difficulty, normalize_answer

# Delimiter lines look like "<!-- page: 12 -->"; the single capture group is
# the page number. A pattern with zero groups numbers pages sequentially.
DEFAULT_PAGE_DELIMITER = r"<!--\s*[Pp]age[:=\s]\s*(\d+)\s*-->"

QUESTION_TYPES = ("table", "text", "mixed")

# Histogram bucket width for evidence-page locations.
PAGE_BUCKET_WIDTH = 50

# Each ASCII byte mapped to b" " if str.split() breaks on it, else to b"x".
# The ten ASCII whitespace code points are \t \n \v \f \r, \x1c-\x1f and space.
_ASCII_WORD_MARKS = bytes(
    ord(" ") if c < 128 and chr(c).isspace() else ord("x") for c in range(256))


def count_tokens(text: str) -> int:
    r"""Approximate token count: the number of maximal non-whitespace runs,
    ``len(text.split())``.

    str.split() breaks on exactly the code points regex ``\s`` matches. ASCII
    text is counted without building the word list: each byte is marked as
    space or word, and a run starts at every space-to-word step and at a word
    in first position.
    """
    if not text.isascii():
        return len(text.split())
    marked = text.encode("ascii").translate(_ASCII_WORD_MARKS)
    return marked.count(b" x") + marked.startswith(b"x")


@dataclass(frozen=True)
class PageChunk:
    page_number: int
    text: str
    token_count: int
    table_block_spans: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.page_number < 1:
            raise ValueError("page_number must be positive")
        last_end = -1
        for start, end in self.table_block_spans:
            if not (0 <= start < end <= len(self.text)):
                raise ValueError(f"table span ({start}, {end}) out of bounds")
            if start < last_end:
                raise ValueError("table spans overlap")
            if not self.text[start:end].startswith("|"):
                raise ValueError("table span does not start at a table row marker")
            last_end = end

    def table_blocks(self) -> list[str]:
        return [self.text[s:e] for s, e in self.table_block_spans]


class _FlatText(NamedTuple):
    """A report's whitespace-normalised text and where each page starts in it.

    ``cumulative_tokens[i]`` is the token count of the pages before page
    index ``i``; its last entry is the report's total.
    """

    text: str
    page_starts: tuple[int, ...]
    cumulative_tokens: tuple[int, ...]


class ReportPrefix(NamedTuple):
    """The start of a report's normalised text, as ``Report.prefix`` returns it."""

    text: str
    tokens: int
    page_numbers: tuple[int, ...]


@dataclass(frozen=True)
class Report:
    report_id: str
    company: str
    fiscal_year: int
    pages: tuple[PageChunk, ...]

    def __post_init__(self) -> None:
        if not self.report_id:
            raise ValueError("report_id must be non-empty")
        if not self.pages:
            raise ValueError("report must have at least one page")
        numbers = [p.page_number for p in self.pages]
        if len(set(numbers)) != len(numbers):
            raise DuplicatePageNumberError(f"duplicate page numbers in {self.report_id}")
        if numbers != sorted(numbers):
            raise ValueError("pages must be sorted by page_number")

    def page(self, page_number: int) -> PageChunk:
        for chunk in self.pages:
            if chunk.page_number == page_number:
                return chunk
        raise KeyError(page_number)

    @property
    def page_numbers(self) -> list[int]:
        return [p.page_number for p in self.pages]

    def n_tables(self) -> int:
        return sum(len(p.table_block_spans) for p in self.pages)

    def total_tokens(self) -> int:
        return sum(p.token_count for p in self.pages)

    def prefix(self, n: int) -> ReportPrefix:
        r"""The report's first ``n`` whitespace tokens, joined by single spaces.

        The text equals ``" ".join("\n".join(p.text for p in pages).split()[:n])``,
        but only the page holding token ``n`` is split on each call. ``tokens``
        is its token count, ``min(n, total)``; ``page_numbers`` lists the pages
        with at least one token in it.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        flat = self._flat
        cumulative = flat.cumulative_tokens
        index = bisect.bisect_left(cumulative, n) - 1
        if index < 0:
            return ReportPrefix("", 0, ())
        pages = tuple(page.page_number for page, start, end
                      in zip(self.pages[:index + 1], cumulative, cumulative[1:]) if end > start)
        if index == len(self.pages):
            return ReportPrefix(flat.text, cumulative[-1], pages)
        words = self.pages[index].text.split()[:n - cumulative[index]]
        return ReportPrefix(flat.text[:flat.page_starts[index] + len(" ".join(words))], n, pages)

    @cached_property
    def _flat(self) -> _FlatText:
        # Built on the first prefix() call, not at parse time: only the
        # long-context baseline reads it, and it holds one more copy of the text.
        parts: list[str] = []
        starts: list[int] = []
        cumulative = [0]
        offset = 0
        for page in self.pages:
            words = page.text.split()
            starts.append(offset)
            cumulative.append(cumulative[-1] + len(words))
            if words:
                parts.append(" ".join(words))
                offset += len(parts[-1]) + 1
        return _FlatText(" ".join(parts), tuple(starts), tuple(cumulative))


def detect_table_spans(text: str) -> tuple[tuple[int, int], ...]:
    """Maximal runs of lines starting with '|' as (start, end) char spans.

    A span ends at the last character of its final row, excluding the
    trailing newline.
    """
    spans: list[tuple[int, int]] = []
    offset = 0
    run_start: Optional[int] = None
    run_end = 0
    for line in text.splitlines(keepends=True):
        stripped = line.rstrip("\r\n")
        if stripped.startswith("|"):
            if run_start is None:
                run_start = offset
            run_end = offset + len(stripped)
        else:
            if run_start is not None:
                spans.append((run_start, run_end))
                run_start = None
        offset += len(line)
    if run_start is not None:
        spans.append((run_start, run_end))
    return tuple(spans)


def _make_page(page_number: int, text: str) -> PageChunk:
    return PageChunk(
        page_number=page_number,
        text=text,
        token_count=count_tokens(text),
        table_block_spans=detect_table_spans(text),
    )


def parse_report(markdown_text: str, delimiter_pattern: str = DEFAULT_PAGE_DELIMITER,
                 *, report_id: str = "report", company: str = "", fiscal_year: int = 0) -> Report:
    """Split page-delimited Markdown into a Report.

    The delimiter regex must have one capture group (the page number) or
    zero groups (pages numbered sequentially from 1). A delimiter line
    opens a page; content before the first delimiter is attached to the
    first page. With no delimiter matches the whole text becomes page 1.
    """
    pattern = re.compile(delimiter_pattern)
    if pattern.groups > 1:
        raise ValueError("delimiter pattern must have zero or one capture group")
    if not markdown_text.strip():
        raise EmptyDocumentError("document has no non-whitespace content")

    segments: list[tuple[Optional[int], list[str]]] = []
    preamble: list[str] = []
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
        return Report(report_id, company, fiscal_year, (_make_page(1, markdown_text),))

    if any(line.strip() for line in preamble):
        segments[0][1][:0] = preamble

    pages: list[PageChunk] = []
    seen: set[int] = set()
    for index, (number, lines) in enumerate(segments, start=1):
        page_number = number if number is not None else index
        if page_number in seen:
            raise DuplicatePageNumberError(f"page {page_number} captured twice")
        seen.add(page_number)
        pages.append(_make_page(page_number, "".join(lines)))

    pages.sort(key=lambda p: p.page_number)
    return Report(report_id, company, fiscal_year, tuple(pages))


def render_markdown(report: Report) -> str:
    """Serialize a report back to page-delimited Markdown (canonical form)."""
    parts: list[str] = []
    for page in report.pages:
        parts.append(f"<!-- page: {page.page_number} -->\n")
        parts.append(page.text if page.text.endswith("\n") or not page.text else page.text + "\n")
    return "".join(parts)


def load_report(path: str | Path, delimiter_pattern: str = DEFAULT_PAGE_DELIMITER) -> Report:
    """Parse a report file; a {company}_{year} filename fills the metadata."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    company, _, year = path.stem.rpartition("_")
    if company and year.isdigit():
        return parse_report(text, delimiter_pattern, report_id=path.stem,
                            company=company, fiscal_year=int(year))
    return parse_report(text, delimiter_pattern, report_id=path.stem)


# --- QA dataset -------------------------------------------------------------

@dataclass
class QAInstance:
    id: str
    company: str
    fiscal_year: int
    question: str
    gold_answer: str
    question_type: str
    evidence_pages: frozenset[int]
    program_source: str
    reasoning_trace: str
    n_evidence_tables: int = 0
    report_id: str = ""
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.report_id:
            self.report_id = make_report_id(self.company, self.fiscal_year)

    @property
    def difficulty(self) -> Difficulty:
        return bucket_difficulty(self.n_evidence_tables)


def make_report_id(company: str, fiscal_year: int) -> str:
    slug = re.sub(r"[^A-Za-z0-9]+", "_", company).strip("_") or "report"
    return f"{slug}_{fiscal_year}"


def _require(record: dict, key: str, line_number: int):
    if key not in record:
        raise SchemaError(f"missing required field {key!r}", line_number, key)
    return record[key]


_REQUIRED_KEYS = ("id", "company", "year", "question", "type", "thoughts",
                  "page_numbers", "python_code", "answer")
_OPTIONAL_KEYS = ("report_id", "n_evidence_tables")


def instance_from_record(record: dict, line_number: int = 0) -> QAInstance:
    """Validate one dataset record and build a QAInstance."""
    values = {key: _require(record, key, line_number) for key in _REQUIRED_KEYS}

    for key in ("id", "company", "question", "thoughts", "python_code", "answer"):
        if not isinstance(values[key], str):
            raise SchemaError(f"field {key!r} must be a string", line_number, key)

    try:
        year = int(values["year"])
    except (TypeError, ValueError):
        raise SchemaError("field 'year' must be an integer", line_number, "year") from None

    qtype = values["type"]
    if qtype not in QUESTION_TYPES:
        raise SchemaError(f"field 'type' must be one of {QUESTION_TYPES}", line_number, "type")

    raw_pages = values["page_numbers"]
    if not isinstance(raw_pages, list) or not all(isinstance(p, int) and p >= 1 for p in raw_pages):
        raise SchemaError("field 'page_numbers' must be a list of positive integers",
                          line_number, "page_numbers")

    if not normalize_answer(values["answer"]).is_numeric:
        raise SchemaError(f"field 'answer' is non-numeric: {values['answer']!r}",
                          line_number, "answer")

    n_tables = record.get("n_evidence_tables", 0)
    if not isinstance(n_tables, int) or n_tables < 0:
        raise SchemaError("field 'n_evidence_tables' must be a non-negative integer",
                          line_number, "n_evidence_tables")

    extras = {k: v for k, v in record.items() if k not in _REQUIRED_KEYS + _OPTIONAL_KEYS}

    return QAInstance(
        id=values["id"],
        company=values["company"],
        fiscal_year=year,
        question=values["question"],
        gold_answer=values["answer"],
        question_type=qtype,
        evidence_pages=frozenset(raw_pages),
        program_source=values["python_code"],
        reasoning_trace=values["thoughts"],
        n_evidence_tables=n_tables,
        report_id=record.get("report_id", ""),
        extras=extras,
    )


def instance_to_record(instance: QAInstance) -> dict:
    record = {
        "id": instance.id,
        "company": instance.company,
        "year": instance.fiscal_year,
        "question": instance.question,
        "type": instance.question_type,
        "thoughts": instance.reasoning_trace,
        "page_numbers": sorted(instance.evidence_pages),
        "python_code": instance.program_source,
        "answer": instance.gold_answer,
        "report_id": instance.report_id,
        "n_evidence_tables": instance.n_evidence_tables,
    }
    record.update(instance.extras)
    return record


def read_dataset(path: str | Path) -> list[QAInstance]:
    instances: list[QAInstance] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc}", line_number) from None
            if not isinstance(record, dict):
                raise SchemaError("record must be a JSON object", line_number)
            instances.append(instance_from_record(record, line_number))
    return instances


def write_dataset(instances: Iterable[QAInstance], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
            fh.write(json.dumps(instance_to_record(instance), sort_keys=True) + "\n")


# --- corpus statistics ------------------------------------------------------

@dataclass
class CorpusStats:
    n_reports: int
    n_companies: int
    n_tables: int
    token_mean: Optional[float]
    token_median: Optional[float]
    qa_count: int
    counts_by_type: dict[str, int]
    evidence_pages_mean: Optional[float]
    evidence_pages_median: Optional[float]
    evidence_pages_min: Optional[int]
    evidence_pages_max: Optional[int]
    page_histogram: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "reports": self.n_reports,
            "companies": self.n_companies,
            "tables": self.n_tables,
            "tokens_mean": self.token_mean,
            "tokens_median": self.token_median,
            "token_scheme": "whitespace",
            "qa_count": self.qa_count,
            "counts_by_type": dict(self.counts_by_type),
            "evidence_pages": {
                "mean": self.evidence_pages_mean,
                "median": self.evidence_pages_median,
                "min": self.evidence_pages_min,
                "max": self.evidence_pages_max,
            },
            "evidence_page_histogram": dict(self.page_histogram),
        }


def _bucket_label(page: int, width: int = PAGE_BUCKET_WIDTH) -> str:
    low = ((page - 1) // width) * width + 1
    return f"{low}-{low + width - 1}"


def corpus_stats(reports: Sequence[Report], instances: Sequence[QAInstance]) -> CorpusStats:
    known = {r.report_id for r in reports}
    for instance in instances:
        if instance.report_id not in known:
            raise DanglingReferenceError(
                f"instance {instance.id!r} references unknown report {instance.report_id!r}")

    token_totals = [r.total_tokens() for r in reports]
    evidence_counts = [len(i.evidence_pages) for i in instances]

    histogram: dict[str, int] = {}
    for instance in instances:
        for page in sorted(instance.evidence_pages):
            label = _bucket_label(page)
            histogram[label] = histogram.get(label, 0) + 1

    counts_by_type = {qtype: 0 for qtype in QUESTION_TYPES}
    for instance in instances:
        counts_by_type[instance.question_type] += 1

    return CorpusStats(
        n_reports=len(reports),
        n_companies=len({r.company for r in reports if r.company}),
        n_tables=sum(r.n_tables() for r in reports),
        token_mean=statistics.mean(token_totals) if token_totals else None,
        token_median=statistics.median(token_totals) if token_totals else None,
        qa_count=len(instances),
        counts_by_type=counts_by_type,
        evidence_pages_mean=statistics.mean(evidence_counts) if evidence_counts else None,
        evidence_pages_median=statistics.median(evidence_counts) if evidence_counts else None,
        evidence_pages_min=min(evidence_counts) if evidence_counts else None,
        evidence_pages_max=max(evidence_counts) if evidence_counts else None,
        page_histogram=histogram,
    )
