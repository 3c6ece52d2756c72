"""Document model: page-delimited Markdown reports and the QA dataset.

A report is an ordered sequence of page chunks split on standalone
delimiter lines. A page holds only its number and text: its token count,
its Markdown table blocks (as character spans) and its whitespace-normalised
text, escaped for a JSON string, are derived from the text the first time
each is read, so loading a report does no per-page work that no caller
reads. ``load_report`` streams the file into the same delimiter scan that
``parse_report`` runs, a piece at a time, so it holds one copy of the
report's text, its pages; each of its errors names the file. The QA
dataset is JSON-lines, one instance per line.
"""

from __future__ import annotations

import codecs
import io
import json
import re
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    ConfigError,
    DanglingReferenceError,
    DuplicatePageNumberError,
    EmptyDocumentError,
    PageNumberError,
    ReportEncodingError,
    SchemaError,
)
from .metrics import Difficulty, PercentMode, bucket_difficulty, normalize_answer

# Delimiter lines look like "<!-- page: 12 -->"; the capture group is the page
# number. parse_report tries only lines that begin with _DELIMITER_PREFIX, so
# the pattern must begin with that literal.
DEFAULT_PAGE_DELIMITER = r"<!--\s*[Pp]age[:=\s]\s*(\d+)\s*-->"
_DELIMITER = re.compile(DEFAULT_PAGE_DELIMITER)
_DELIMITER_PREFIX = "<!--"

# Bytes load_report reads from a report file at a time.
_READ_SIZE = 1 << 16
_UTF8_DECODER = codecs.getincrementaldecoder("utf-8")

# The characters str.splitlines ends a line at ("\r\n" is one break).
_LINE_BREAK_CHARS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(f"[{re.escape(_LINE_BREAK_CHARS)}]")

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


class FlatPage(NamedTuple):
    """A page's words joined by single spaces and escaped as a JSON string
    holds them (``json.dumps`` without the quotes, so ASCII), as bytes, and
    the word count."""

    escaped: bytes
    tokens: int

    def head(self, n: int) -> "FlatPage":
        """The page's first ``n`` words, for ``n`` below ``tokens``."""
        # escaping turns no character into a space, so the escaped words are
        # split by single spaces, as the words are
        return FlatPage(b" ".join(self.escaped.split(b" ", n)[:n]), n)


def decode_escaped(pieces: Sequence[bytes]) -> str:
    """The text whose JSON-string escaping is the join of ``pieces``."""
    return json.loads(b"".join((b'"', *pieces, b'"')))


@dataclass(frozen=True)
class PageChunk:
    """One page's text; its token count, table spans and flat text are worked
    out from the text the first time each is read."""

    page_number: int
    text: str

    def __post_init__(self) -> None:
        if self.page_number < 1:
            raise ValueError("page_number must be positive")

    @cached_property
    def token_count(self) -> int:
        return count_tokens(self.text)

    @cached_property
    def table_block_spans(self) -> tuple[tuple[int, int], ...]:
        return detect_table_spans(self.text)

    @cached_property
    def flat(self) -> FlatPage:
        words = self.text.split()
        return FlatPage(json.dumps(" ".join(words))[1:-1].encode("ascii"), len(words))

    def table_blocks(self) -> list[str]:
        return [self.text[s:e] for s, e in self.table_block_spans]


@dataclass(frozen=True)
class ReportPrefix:
    """The start of a report's normalised text, as ``Report.prefix`` returns it.

    ``pages`` holds the flat text of each page in ``page_numbers``, the last
    one cut where the prefix ends, so a prefix answers ``prefix`` for any
    shorter prefix without its report. ``whole`` is whether it holds every
    token of the report. ``escaped`` is the text as a JSON string holds it, in
    byte pieces: each page's escaped flat text, with ``b" "`` between pages.
    ``text`` decodes it.
    """

    tokens: int
    page_numbers: tuple[int, ...]
    pages: tuple[FlatPage, ...]
    whole: bool

    @property
    def escaped(self) -> tuple[bytes, ...]:
        pieces = [b" "] * (2 * len(self.pages) - 1)
        pieces[::2] = [page.escaped for page in self.pages]
        return tuple(pieces)

    @property
    def text(self) -> str:
        return decode_escaped(self.escaped)

    def prefix(self, n: int) -> "ReportPrefix":
        """``Report.prefix(n)`` of the report this prefix was cut from. An
        ``n`` above ``tokens`` is a ValueError unless the prefix is whole."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if n >= self.tokens:
            if n > self.tokens and not self.whole:
                raise ValueError(f"a prefix of {self.tokens} tokens of a longer report "
                                 f"holds no prefix of {n}")
            return self
        page_numbers: list[int] = []
        flats: list[FlatPage] = []
        tokens = 0
        for page_number, flat in zip(self.page_numbers, self.pages):
            if tokens == n:
                break
            if flat.tokens > n - tokens:
                flat = flat.head(n - tokens)
            page_numbers.append(page_number)
            flats.append(flat)
            tokens += flat.tokens
        return ReportPrefix(n, tuple(page_numbers), tuple(flats), False)


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

        The text equals ``" ".join("\n".join(p.text for p in pages).split()[:n])``.
        It is built from each page's ``flat`` text, so no page past the one
        holding token ``n`` is flattened, and only that page is cut on each
        call. ``tokens`` is its token count, ``min(n, total)``;
        ``page_numbers`` lists the pages with at least one token in it, and
        ``whole`` is whether it holds every token, ``n >= total``.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        page_numbers: list[int] = []
        flats: list[FlatPage] = []
        tokens = 0
        for index, page in enumerate(self.pages):
            if tokens == n:
                # whole unless a later page holds a token, counted without
                # flattening that page
                whole = not any(later.token_count for later in self.pages[index:])
                return ReportPrefix(tokens, tuple(page_numbers), tuple(flats), whole)
            flat = page.flat
            if not flat.tokens:
                continue
            if flat.tokens > n - tokens:
                page_numbers.append(page.page_number)
                flats.append(flat.head(n - tokens))
                return ReportPrefix(n, tuple(page_numbers), tuple(flats), False)
            page_numbers.append(page.page_number)
            flats.append(flat)
            tokens += flat.tokens
        return ReportPrefix(tokens, tuple(page_numbers), tuple(flats), True)


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


class _PageScan:
    """The delimiter scan behind ``parse_report`` and ``load_report``, fed the
    text in pieces.

    Every piece but the last must end with ``"\\n"``, so that a line that
    begins with ``<!--`` lies, with its line break, in one piece, and a piece
    starts a line. Each page's text is joined from the slices of the pieces
    it spans.
    """

    def __init__(self) -> None:
        self.page_numbers: list[str] = []  # each delimiter line's digits, in text order
        self.texts: list[str] = []  # the closed pages' texts, in the same order
        self.open: list[str] = []  # the slices of the open page, or of the preamble

    def feed(self, text: str) -> None:
        start = 0  # where the open page's text in this piece begins
        hit = text.find(_DELIMITER_PREFIX)
        while hit >= 0:
            if hit and text[hit - 1] not in _LINE_BREAK_CHARS:
                hit = text.find(_DELIMITER_PREFIX, hit + len(_DELIMITER_PREFIX))
                continue
            found = _LINE_BREAK.search(text, hit)
            end = found.start() if found else len(text)
            line_break = "\r\n" if text.startswith("\r\n", end) else text[end:end + 1]
            if line_break in ("", "\n", "\r", "\r\n"):  # any other break never matches
                match = _DELIMITER.fullmatch(text, hit, end)
                if match:
                    self._close(text[start:hit])
                    self.page_numbers.append(match.group(1))
                    start = end + len(line_break)
            hit = text.find(_DELIMITER_PREFIX, end)
        if start < len(text):
            self.open.append(text[start:])

    def _close(self, last: str) -> None:
        """End the open text at a delimiter line; ``last`` is its final slice."""
        if last:
            self.open.append(last)
        if self.page_numbers:
            self.texts.append("".join(self.open))
            self.open = []
        elif all(part.isspace() for part in self.open):
            self.open = []  # a blank preamble is dropped; any other opens the first page

    def report(self, report_id: str, company: str, fiscal_year: int) -> Report:
        """The pages of all the text fed."""
        text = "".join(self.open)
        if not self.page_numbers:
            if not text or text.isspace():
                raise EmptyDocumentError("document has no non-whitespace content")
            return Report(report_id, company, fiscal_year, (PageChunk(1, text),))

        pages: list[PageChunk] = []
        seen: set[int] = set()
        for digits, page_text in zip(self.page_numbers, [*self.texts, text]):
            try:
                page_number = int(digits)
            except ValueError:  # more digits than int() converts
                raise PageNumberError(f"a page number of {len(digits)} digits") from None
            if page_number < 1:
                raise PageNumberError(f"page {page_number}: pages are numbered from 1")
            if page_number in seen:
                raise DuplicatePageNumberError(f"page {page_number} captured twice")
            seen.add(page_number)
            pages.append(PageChunk(page_number, page_text))

        pages.sort(key=lambda p: p.page_number)
        return Report(report_id, company, fiscal_year, tuple(pages))


def parse_report(markdown_text: str, *, report_id: str = "report", company: str = "",
                 fiscal_year: int = 0) -> Report:
    """Split page-delimited Markdown into a Report.

    A delimiter line opens a page; content before the first delimiter is
    attached to the first page unless it is blank. With no delimiter line
    the whole text becomes page 1.

    A delimiter line is a line, as ``str.splitlines`` splits them, that
    ``DEFAULT_PAGE_DELIMITER`` fullmatches without its ``\\n``, ``\\r`` or
    ``\\r\\n`` break; a line ended by any other break is never one. Only a
    line that begins with the literal ``<!--`` can match, so those are found
    with ``str.find`` and each page is one slice of the input.
    """
    scan = _PageScan()
    scan.feed(markdown_text)
    return scan.report(report_id, company, fiscal_year)


def render_markdown(report: Report) -> str:
    """Serialize a report back to page-delimited Markdown (canonical form)."""
    parts: list[str] = []
    for page in report.pages:
        parts.append(f"<!-- page: {page.page_number} -->\n")
        parts.append(page.text if page.text.endswith("\n") or not page.text else page.text + "\n")
    return "".join(parts)


def _read_error(path: str | Path, error: type[Exception],
                exc: OSError | UnicodeDecodeError, at: int = 0) -> Exception:
    """``error`` naming ``path``, for a file that cannot be read or is not
    UTF-8; ``at`` is the file offset of the input the decoder failed on."""
    if isinstance(exc, UnicodeDecodeError):
        return error(f"{path}: not UTF-8 ({exc.reason} at byte {at + exc.start})")
    return error(f"{path}: cannot read: {exc.strerror or exc}")


def read_text(path: str | Path, error: type[Exception] = SchemaError) -> str:
    """A file's text, read with one ``read_text`` call. A file that is missing,
    a directory, unreadable or not UTF-8 raises ``error`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _read_error(path, error, exc) from None


def check_opens(path: str | Path, error: type[Exception] = SchemaError) -> None:
    """Open a file and close it unread; a file ``read_text`` cannot open
    (missing, a directory or unreadable) raises the same ``error``."""
    try:
        with open(path, "rb"):
            pass
    except OSError as exc:
        raise _read_error(path, error, exc) from None


def load_report(path: str | Path) -> Report:
    """Parse a report file; a {company}_{year} filename fills the metadata.

    The pages are those ``parse_report`` makes of the file's ``read_text``
    text (UTF-8, with ``\\r\\n`` and ``\\r`` read as ``\\n``), but the file is
    read ``_READ_SIZE`` bytes at a time and the scan is fed the text up to
    each read's last ``\\n``, so the whole text is never held beside the
    pages. Every error, ReportEncodingError or the scan's, names the file.
    """
    path = Path(path)
    scan = _PageScan()
    decoder = io.IncrementalNewlineDecoder(_UTF8_DECODER(), translate=True)
    tail: list[str] = []  # the text decoded since its last "\n"
    read = 0  # bytes read so far
    try:
        with open(path, "rb") as fh:
            while True:
                data = fh.read(_READ_SIZE)
                read += len(data)
                text = decoder.decode(data, final=not data)
                cut = text.rfind("\n") + 1
                if cut:
                    tail.append(text[:cut])
                    scan.feed("".join(tail))
                    tail = [text[cut:]]
                else:
                    tail.append(text)
                if not data:
                    break
    except UnicodeDecodeError as exc:
        # the decoder's input was the bytes it held back from before, then data
        raise _read_error(path, ReportEncodingError, exc, read - len(exc.object)) from None
    except OSError as exc:
        raise _read_error(path, ReportEncodingError, exc) from None
    scan.feed("".join(tail))

    company, _, year = path.stem.rpartition("_")
    if not (company and year.isascii() and year.isdigit()):
        company, year = "", "0"
    try:
        return scan.report(path.stem, company, int(year))
    except (EmptyDocumentError, DuplicatePageNumberError, PageNumberError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_corpus(directory: str | Path) -> list[Report]:
    """Every ``*.md`` report directly under ``directory``, in file-name order;
    a ConfigError when ``directory`` is not a directory."""
    if not Path(directory).is_dir():
        raise ConfigError(f"corpus_dir {directory}: not a directory")
    return [load_report(path) for path in sorted(Path(directory).glob("*.md"))]


def reports_by_id(reports: Sequence[Report], instances: Iterable[QAInstance]) -> dict[str, Report]:
    """Each report by id; a DanglingReferenceError when an instance names
    a report that is not among ``reports``."""
    by_id = {report.report_id: report for report in reports}
    for instance in instances:
        if instance.report_id not in by_id:
            raise DanglingReferenceError(
                f"instance {instance.id!r} references unknown report {instance.report_id!r}")
    return by_id


# --- QA dataset -------------------------------------------------------------

@dataclass
class QAInstance:
    """One dataset record: its fields, in order, are the record's keys, and
    ``extras`` holds the record's other keys. ``page_numbers`` is the
    record's pages, sorted and without repeats."""

    id: str
    company: str
    year: int
    question: str
    type: str
    thoughts: str
    page_numbers: list[int]
    python_code: str
    answer: str  # the gold answer
    report_id: str = ""
    n_evidence_tables: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.report_id:
            self.report_id = make_report_id(self.company, self.year)

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


# The keys of every dataset record, QAInstance's fields without a default;
# datagen's candidates hold them too. A record may also hold the fields with
# a default value; extras is the record's other keys.
REQUIRED_KEYS = tuple(f.name for f in fields(QAInstance)
                      if f.default is MISSING and f.default_factory is MISSING)
_OPTIONAL_KEYS = tuple(f.name for f in fields(QAInstance) if f.default is not MISSING)


def is_file_name(value: str) -> bool:
    """One plain path component: not empty, ``.`` or ``..``, and no ``/``,
    ``\\`` or NUL."""
    return value not in ("", ".", "..") and not any(c in value for c in "/\\\0")


# a record's percent_mode: absent (None or "") or a PercentMode value
PERCENT_MODES = (None, "", *(mode.value for mode in PercentMode))


def is_page_list(value) -> bool:
    """A list of page numbers: ints >= 1, never a bool."""
    return isinstance(value, list) and all(type(p) is int and p >= 1 for p in value)


def instance_from_record(record: dict, line_number: int = 0) -> QAInstance:
    """Validate one dataset record and build a QAInstance."""
    values = {key: _require(record, key, line_number) for key in REQUIRED_KEYS}

    for key in ("id", "company", "question", "thoughts", "python_code", "answer"):
        if not isinstance(values[key], str):
            raise SchemaError(f"field {key!r} must be a string", line_number, key)
    if not values["question"]:
        raise SchemaError("field 'question' is empty", line_number, "question")
    if not is_file_name(values["id"]):
        raise SchemaError(f"field 'id' must be one plain file name, got {values['id']!r}",
                          line_number, "id")

    raw_year = values["year"]
    try:
        year = int(raw_year)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an infinite float
        year = None
    # int() accepts a bool and truncates a float: 2023.5 is no year
    if (year is None or isinstance(raw_year, bool)
            or isinstance(raw_year, float) and not raw_year.is_integer()):
        raise SchemaError("field 'year' must be an integer", line_number, "year")
    values["year"] = year

    if values["type"] not in QUESTION_TYPES:
        raise SchemaError(f"field 'type' must be one of {QUESTION_TYPES}", line_number, "type")

    if not is_page_list(values["page_numbers"]):
        raise SchemaError("field 'page_numbers' must be a list of positive integers",
                          line_number, "page_numbers")
    values["page_numbers"] = sorted(set(values["page_numbers"]))

    if not normalize_answer(values["answer"]).is_numeric:
        raise SchemaError(f"field 'answer' is non-numeric: {values['answer']!r}",
                          line_number, "answer")

    report_id = record.get("report_id", "")
    if not isinstance(report_id, str):
        raise SchemaError("field 'report_id' must be a string", line_number, "report_id")
    if report_id and not is_file_name(report_id):  # it names the report's file
        raise SchemaError(f"field 'report_id' must be one plain file name, got {report_id!r}",
                          line_number, "report_id")

    n_tables = record.get("n_evidence_tables", 0)
    if type(n_tables) is not int or n_tables < 0:
        raise SchemaError("field 'n_evidence_tables' must be a non-negative integer",
                          line_number, "n_evidence_tables")

    if record.get("percent_mode") not in PERCENT_MODES:
        raise SchemaError(f"field 'percent_mode' must be one of {PERCENT_MODES[2:]}",
                          line_number, "percent_mode")

    extras = {k: v for k, v in record.items() if k not in REQUIRED_KEYS + _OPTIONAL_KEYS}

    return QAInstance(**values, report_id=report_id, n_evidence_tables=n_tables,
                      extras=extras)


def instance_to_record(instance: QAInstance) -> dict:
    """The dataset record of an instance: its fields, with ``extras`` merged in."""
    record = vars(instance).copy()
    record.update(record.pop("extras"))
    return record


def read_json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    r"""(line number, object) for each non-blank line of a JSON-lines file.

    Lines are counted as text-mode file iteration counts them: ``read_text``
    turns ``\r\n`` and ``\r`` into ``\n``, and the text is split on ``\n``
    only. A file that cannot be read raises SchemaError naming it; a line
    that is not a JSON object raises one naming the file and the line.
    """
    for line_number, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise SchemaError(f"{path}: invalid JSON: {exc}", line_number) from None
        if not isinstance(record, dict):
            raise SchemaError(f"{path}: not a JSON object", line_number)
        yield line_number, record


def read_dataset(path: str | Path) -> list[QAInstance]:
    """The dataset's instances; an id that repeats is a SchemaError naming it."""
    instances: dict[str, QAInstance] = {}
    for line_number, record in read_json_lines(path):
        instance = instance_from_record(record, line_number)
        if instance.id in instances:
            raise SchemaError(f"{path}: id {instance.id!r} repeats", line_number, "id")
        instances[instance.id] = instance
    return list(instances.values())


# --- corpus statistics ------------------------------------------------------

def _bucket_label(page: int, width: int = PAGE_BUCKET_WIDTH) -> str:
    low = ((page - 1) // width) * width + 1
    return f"{low}-{low + width - 1}"


def corpus_stats(reports: Sequence[Report], instances: Sequence[QAInstance]) -> dict:
    """The figures ``stats`` prints, keyed as it prints them."""
    import statistics  # only the stats command reads these figures

    reports_by_id(reports, instances)

    token_totals = [r.total_tokens() for r in reports]
    evidence_counts = [len(i.page_numbers) for i in instances]

    histogram: dict[str, int] = {}
    for instance in instances:
        for page in instance.page_numbers:
            label = _bucket_label(page)
            histogram[label] = histogram.get(label, 0) + 1

    counts_by_type = {qtype: 0 for qtype in QUESTION_TYPES}
    for instance in instances:
        counts_by_type[instance.type] += 1

    return {
        "reports": len(reports),
        "companies": len({r.company for r in reports if r.company}),
        "tables": sum(r.n_tables() for r in reports),
        "tokens_mean": statistics.mean(token_totals) if token_totals else None,
        "tokens_median": statistics.median(token_totals) if token_totals else None,
        "token_scheme": "whitespace",
        "qa_count": len(instances),
        "counts_by_type": counts_by_type,
        "evidence_pages": {
            "mean": statistics.mean(evidence_counts) if evidence_counts else None,
            "median": statistics.median(evidence_counts) if evidence_counts else None,
            "min": min(evidence_counts) if evidence_counts else None,
            "max": max(evidence_counts) if evidence_counts else None,
        },
        "evidence_page_histogram": histogram,
    }
