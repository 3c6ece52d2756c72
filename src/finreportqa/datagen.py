"""QA candidate generation and the rule-based filter pipeline.

Generation samples pages from the early/middle/late thirds of a report,
prompts the model for structured QA records, and decodes the JSON batch.
Filtering enforces, in order: a multi-page constraint, removal of cases
solvable from a single table block, agreement between the arithmetic
program and the stated answer, and a numeric-answer constraint.

A candidate is a dataset record, as ``corpus.instance_from_record`` reads
it, and each kept candidate becomes an instance through that function.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Optional, Sequence

from .corpus import (
    PERCENT_MODES,
    QUESTION_TYPES,
    REQUIRED_KEYS,
    QAInstance,
    Report,
    instance_from_record,
    is_file_name,
    is_page_list,
    make_report_id,
    read_json_lines,
)
from .errors import ProgramError, SchemaError, SyntaxUnsupportedError
from .llm import LLMClient, system, user
from .metrics import normalize_answer, tolerance_correct
from .program import parse_program, run_source
from .prompts import QA_GENERATION_TEMPLATE, render_context

GENERATION_SYSTEM = "You are a seasoned financial analyst."

REJECTION_REASONS = ("too_few_pages", "single_table", "calc_error",
                     "incoherent_answer", "parse_error", "duplicate_id")

# Candidate numeric strings inside a table block: optional currency/comma
# formatting and parentheses negatives.
_TABLE_NUMBER_RE = re.compile(r"\(?-?[$€£]?\d[\d,]*(?:\.\d+)?\)?%?")


def candidate(record) -> dict:
    """A QA candidate: a dataset record the filter can read, with its scalar
    fields as strings. Anything else raises ValueError: not a JSON object, a
    required key missing or null, an empty question, ``page_numbers`` not a
    page list, ``id`` not one file name, ``report_id`` not a string or, when
    set, not one file name, or an unknown ``percent_mode``."""
    if not isinstance(record, dict):
        raise ValueError("record must be a JSON object")
    missing = [key for key in REQUIRED_KEYS if record.get(key) is None]
    if missing:
        raise ValueError(f"record missing fields: {missing}")
    fields = {key: str(record[key]) for key in REQUIRED_KEYS if key != "page_numbers"}
    if not fields["question"]:
        raise ValueError("question must be non-empty")
    if not is_page_list(record["page_numbers"]):
        raise ValueError("page_numbers must be positive integers")
    if not is_file_name(fields["id"]):
        raise ValueError("id must be one plain file name")
    report_id = record.get("report_id", "")
    if not isinstance(report_id, str):
        raise ValueError("report_id must be a string")
    if report_id and not is_file_name(report_id):
        raise ValueError("report_id must be one plain file name")
    if record.get("percent_mode") not in PERCENT_MODES:
        raise ValueError(f"percent_mode must be one of {PERCENT_MODES[2:]}")
    return {**record, **fields}


# --- page sampling -----------------------------------------------------------

@dataclass(frozen=True)
class PageSamplingPlan:
    report_id: str
    seed: int
    early: tuple[int, ...]
    middle: tuple[int, ...]
    late: tuple[int, ...]

    @property
    def pages(self) -> tuple[int, ...]:
        return tuple(sorted(self.early + self.middle + self.late))


def sample_pages(report: Report, n: int = 40, *, seed: int) -> PageSamplingPlan:
    """Pick n pages from the early/middle/late thirds, deterministically by ``seed``.

    Quotas are proportional to region sizes with remainders assigned to
    earlier regions; n is capped at the page count.
    """
    page_numbers = report.page_numbers
    total = len(page_numbers)
    if total < 3:
        raise ValueError("sampling needs a report with at least 3 pages")
    n = min(n, total)

    third = total // 3
    regions = [
        page_numbers[:third],
        page_numbers[third:2 * third],
        page_numbers[2 * third:],
    ]
    quotas = [n * len(region) // total for region in regions]
    leftover = n - sum(quotas)
    for index in range(len(regions)):
        if leftover == 0:
            break
        room = len(regions[index]) - quotas[index]
        take = min(room, leftover)
        quotas[index] += take
        leftover -= take

    rng = random.Random(seed)
    picks = [tuple(sorted(rng.sample(region, quota)))
             for region, quota in zip(regions, quotas)]
    return PageSamplingPlan(
        report_id=report.report_id,
        seed=seed,
        early=picks[0],
        middle=picks[1],
        late=picks[2],
    )


# --- generation ---------------------------------------------------------------

@dataclass
class GenerationBatch:
    records: list[dict]  # candidates
    parse_errors: int = 0


def strip_fences(text: str) -> str:
    stripped = text.strip()
    if stripped.startswith("```"):
        stripped = re.sub(r"^```[a-zA-Z]*\s*", "", stripped)
        stripped = re.sub(r"\s*```$", "", stripped)
    return stripped.strip()


def generate_qa(report: Report, plan: PageSamplingPlan, client: LLMClient,
                max_pairs: int = 10) -> GenerationBatch:
    """Prompt for QA candidates over the sampled pages and decode the reply."""
    sampled = [report.page(p) for p in plan.pages]
    rendered_pages = render_context([(page.page_number, page.text) for page in sampled])
    content = QA_GENERATION_TEMPLATE.format(max_pairs=max_pairs, report=rendered_pages)
    reply = client.complete([system(GENERATION_SYSTEM), user(content)])

    cleaned = strip_fences(reply)
    try:
        decoded = json.loads(cleaned)
    except (json.JSONDecodeError, RecursionError):  # RecursionError: nested too deep
        return GenerationBatch(records=[], parse_errors=1)

    if isinstance(decoded, dict):
        decoded = [decoded]
    if not isinstance(decoded, list):
        return GenerationBatch(records=[], parse_errors=1)

    records: list[dict] = []
    errors = 0
    for element in decoded[:max_pairs]:
        try:
            records.append(candidate(element))
        except ValueError:
            errors += 1
    return GenerationBatch(records=records, parse_errors=errors)


# --- filtering ----------------------------------------------------------------

@dataclass
class FilterOutcome:
    raw: dict  # the candidate
    kept: bool
    reason: Optional[str] = None  # one of REJECTION_REASONS when rejected
    n_evidence_tables: int = 0


@dataclass
class FilterStats:
    """The filter's counts: its fields are the filter report's keys."""

    input: int = 0
    kept: int = 0
    rejections: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(REJECTION_REASONS, 0))

    def reconciles(self) -> bool:
        return self.kept + sum(self.rejections.values()) == self.input


def program_operands(source: str) -> list[Decimal]:
    """Numeric literals of the program, excluding round()'s digit count."""
    import ast as ast_module

    program = parse_program(source)
    operands: list[Decimal] = []

    def walk(node):
        for child in ast_module.iter_child_nodes(node):
            if isinstance(child, ast_module.Call) and getattr(child.func, "id", "") == "round":
                walk(child.func)
                if child.args:
                    walk(child.args[0])
                continue
            if isinstance(child, ast_module.Constant) and isinstance(child.value, (int, float)):
                operands.append(Decimal(str(child.value)))
                continue
            walk(child)

    for stmt in program.statements:
        walk(stmt)
    return operands


def table_block_values(block_text: str) -> set[Decimal]:
    """All numbers readable from a table block, format-tolerant."""
    values: set[Decimal] = set()
    for raw in _TABLE_NUMBER_RE.findall(block_text):
        normalized = normalize_answer(raw)
        if normalized.is_numeric:
            values.add(normalized.numeric_value)
            values.add(abs(normalized.numeric_value))
    return values


def _tables_with_operands(raw: dict, report: Report) -> tuple[int, int]:
    """Count (blocks containing every operand, blocks containing any operand)
    over the table blocks of the instance's evidence pages."""
    try:
        operands = program_operands(raw["python_code"])
    except ProgramError:
        return 0, 0
    if not operands:
        return 0, 0

    blocks_containing_all = 0
    blocks_touched = 0
    for page_number in raw["page_numbers"]:
        try:
            page = report.page(page_number)
        except KeyError:
            continue
        for block in page.table_blocks():
            values = table_block_values(block)
            if not values:
                continue
            hits = [op for op in operands if op in values or abs(op) in values]
            if hits:
                blocks_touched += 1
            if len(hits) == len(operands):
                blocks_containing_all += 1
    return blocks_containing_all, blocks_touched


def filter_pipeline(raw_batch: Sequence[dict], reports: dict[str, Report] | Sequence[Report]
                    ) -> tuple[list[QAInstance], FilterStats, list[FilterOutcome]]:
    """Apply the rule-based filters in order and keep survivors.

    Rules: (1) at least two distinct evidence pages; (2) reject when every
    program operand sits inside one table block; (3) reject when the program
    fails or its value contradicts a numeric stated answer; (4) reject
    non-numeric or empty answers. Out-of-grammar programs count as
    parse_error. Of the candidates kept under one id, the first is kept and
    each later one is a duplicate_id, since a dataset's ids do not repeat.
    """
    if not isinstance(reports, dict):
        reports = {report.report_id: report for report in reports}

    stats = FilterStats(input=len(raw_batch))
    outcomes: list[FilterOutcome] = []
    kept: dict[str, QAInstance] = {}  # by id

    for raw in raw_batch:
        outcome = _filter_one(raw, reports)
        if outcome.kept and raw["id"] in kept:
            outcome = FilterOutcome(raw, kept=False, reason="duplicate_id")
        outcomes.append(outcome)
        if outcome.kept:
            stats.kept += 1
            kept[raw["id"]] = _to_instance(raw, outcome.n_evidence_tables)
        else:
            stats.rejections[outcome.reason] += 1  # type: ignore[index]
    return list(kept.values()), stats, outcomes


def _year(raw: dict) -> int:
    """The candidate's year, or 0 when it is not an integer."""
    try:
        return int(raw["year"])
    except ValueError:
        return 0


def _resolve_report(raw: dict, reports: dict[str, Report]) -> Optional[Report]:
    report_id = raw.get("report_id")
    if report_id and report_id in reports:
        return reports[report_id]
    if len(reports) == 1:
        return next(iter(reports.values()))
    return reports.get(make_report_id(raw["company"], _year(raw)))


def _filter_one(raw: dict, reports: dict[str, Report]) -> FilterOutcome:
    # (1) multi-page constraint
    distinct_pages = set(raw["page_numbers"])
    if len(distinct_pages) < 2:
        return FilterOutcome(raw, kept=False, reason="too_few_pages")

    report = _resolve_report(raw, reports)

    # program must be in-grammar before the table and execution checks
    try:
        parse_program(raw["python_code"])
    except SyntaxUnsupportedError:
        return FilterOutcome(raw, kept=False, reason="parse_error")
    except ProgramError:
        return FilterOutcome(raw, kept=False, reason="calc_error")

    # (2) single-table removal
    n_tables = 0
    if report is not None:
        blocks_containing_all, blocks_touched = _tables_with_operands(raw, report)
        if blocks_containing_all:
            return FilterOutcome(raw, kept=False, reason="single_table")
        n_tables = blocks_touched

    # (3) program execution and answer agreement
    stated = normalize_answer(raw["answer"])
    try:
        computed = run_source(raw["python_code"])
    except ProgramError:
        return FilterOutcome(raw, kept=False, reason="calc_error")
    if stated.is_numeric and not tolerance_correct(computed, stated.numeric_value):
        return FilterOutcome(raw, kept=False, reason="calc_error")

    # (4) answer-type constraint
    if not stated.is_numeric or not raw["answer"].strip():
        return FilterOutcome(raw, kept=False, reason="incoherent_answer")

    return FilterOutcome(raw, kept=True, n_evidence_tables=n_tables)


def _to_instance(raw: dict, n_evidence_tables: int) -> QAInstance:
    """The dataset instance of a kept candidate: a year that is not an integer
    reads 0, an unknown type reads ``mixed``, and the table count is the
    filter's."""
    return instance_from_record({
        **raw,
        "year": _year(raw),
        "type": raw["type"] if raw["type"] in QUESTION_TYPES else "mixed",
        "n_evidence_tables": n_evidence_tables,
    })


def read_raw_batch(path) -> list[dict]:
    """The candidates of a raw batch file; a bad file or record raises SchemaError."""
    records: list[dict] = []
    for line_number, record in read_json_lines(path):
        try:
            records.append(candidate(record))
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}", line_number) from None
    return records
