"""QA candidate generation and the rule-based filter pipeline.

Generation samples pages from the early/middle/late thirds of a report,
prompts the model for structured QA records, and decodes the JSON batch.
Filtering enforces, in order: a multi-page constraint, removal of cases
solvable from a single table block, agreement between the arithmetic
program and the stated answer, and a numeric-answer constraint.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Optional, Sequence

from .corpus import QAInstance, Report, instance_to_record
from .errors import ProgramError, SyntaxUnsupportedError
from .llm import LLMClient, system, user
from .metrics import normalize_answer, tolerance_correct
from .program import parse_program, run_source
from .prompts import QA_GENERATION_TEMPLATE

GENERATION_SYSTEM = "You are a seasoned financial analyst."

REJECTION_REASONS = ("too_few_pages", "single_table", "calc_error",
                     "incoherent_answer", "parse_error")

# Candidate numeric strings inside a table block: optional currency/comma
# formatting and parentheses negatives.
_TABLE_NUMBER_RE = re.compile(r"\(?-?[$€£]?\d[\d,]*(?:\.\d+)?\)?%?")


@dataclass
class RawQA:
    """One generated record, schema-matching but unvalidated."""
    id: str
    company: str
    year: str
    question: str
    type: str
    thoughts: str
    page_numbers: list[int]
    python_code: str
    answer: str
    extras: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, record: dict) -> "RawQA":
        known = {f: record.get(f) for f in
                 ("id", "company", "year", "question", "type", "thoughts",
                  "page_numbers", "python_code", "answer")}
        if any(known[f] is None for f in known):
            missing = [f for f, v in known.items() if v is None]
            raise ValueError(f"record missing fields: {missing}")
        if not isinstance(known["page_numbers"], list):
            raise ValueError("page_numbers must be a list")
        extras = {k: v for k, v in record.items() if k not in known}
        return cls(
            id=str(known["id"]),
            company=str(known["company"]),
            year=str(known["year"]),
            question=str(known["question"]),
            type=str(known["type"]),
            thoughts=str(known["thoughts"]),
            page_numbers=[int(p) for p in known["page_numbers"]],
            python_code=str(known["python_code"]),
            answer=str(known["answer"]),
            extras=extras,
        )

    @classmethod
    def from_instance(cls, instance: QAInstance) -> "RawQA":
        record = instance_to_record(instance)
        record["year"] = str(record["year"])
        return cls.from_dict(record)

    def to_dict(self) -> dict:
        record = {
            "id": self.id,
            "company": self.company,
            "year": self.year,
            "question": self.question,
            "type": self.type,
            "thoughts": self.thoughts,
            "page_numbers": list(self.page_numbers),
            "python_code": self.python_code,
            "answer": self.answer,
        }
        record.update(self.extras)
        return record


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


def sample_pages(report: Report, n: int = 40, seed: int = 0) -> PageSamplingPlan:
    """Pick n pages from the early/middle/late thirds, deterministically.

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
    records: list[RawQA]
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
    rendered_pages = "\n\n".join(
        f"[page_number: {page.page_number}]\n{page.text.strip()}" for page in sampled)
    content = QA_GENERATION_TEMPLATE.format(max_pairs=max_pairs, report=rendered_pages)
    reply = client.complete([system(GENERATION_SYSTEM), user(content)])

    cleaned = strip_fences(reply)
    try:
        decoded = json.loads(cleaned)
    except json.JSONDecodeError:
        return GenerationBatch(records=[], parse_errors=1)

    if isinstance(decoded, dict):
        decoded = [decoded]
    if not isinstance(decoded, list):
        return GenerationBatch(records=[], parse_errors=1)

    records: list[RawQA] = []
    errors = 0
    for element in decoded[:max_pairs]:
        try:
            records.append(RawQA.from_dict(element))
        except (ValueError, TypeError):
            errors += 1
    return GenerationBatch(records=records, parse_errors=errors)


# --- filtering ----------------------------------------------------------------

@dataclass
class FilterOutcome:
    raw: RawQA
    kept: bool
    reason: Optional[str] = None  # one of REJECTION_REASONS when rejected
    n_evidence_tables: int = 0


@dataclass
class FilterStats:
    input_count: int = 0
    kept: int = 0
    rejections: dict[str, int] = field(default_factory=dict)

    def record(self, reason: str) -> None:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def reconciles(self) -> bool:
        return self.kept + sum(self.rejections.values()) == self.input_count

    def to_dict(self) -> dict:
        return {
            "input": self.input_count,
            "kept": self.kept,
            "rejections": {r: self.rejections.get(r, 0) for r in REJECTION_REASONS},
        }


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


def _tables_with_operands(raw: RawQA, report: Report) -> tuple[int, int]:
    """Count (blocks containing every operand, blocks containing any operand)
    over the table blocks of the instance's evidence pages."""
    try:
        operands = program_operands(raw.python_code)
    except ProgramError:
        return 0, 0
    if not operands:
        return 0, 0

    blocks_containing_all = 0
    blocks_touched = 0
    for page_number in raw.page_numbers:
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


def filter_pipeline(raw_batch: Sequence[RawQA], reports: dict[str, Report] | Sequence[Report]
                    ) -> tuple[list[QAInstance], FilterStats, list[FilterOutcome]]:
    """Apply the rule-based filters in order and keep survivors.

    Rules: (1) at least two distinct evidence pages; (2) reject when every
    program operand sits inside one table block; (3) reject when the program
    fails or its value contradicts a numeric stated answer; (4) reject
    non-numeric or empty answers. Out-of-grammar programs count as
    parse_error.
    """
    if not isinstance(reports, dict):
        reports = {report.report_id: report for report in reports}

    stats = FilterStats(input_count=len(raw_batch))
    outcomes: list[FilterOutcome] = []
    kept: list[QAInstance] = []

    for raw in raw_batch:
        outcome = _filter_one(raw, reports)
        outcomes.append(outcome)
        if outcome.kept:
            stats.kept += 1
            kept.append(_to_instance(raw, outcome.n_evidence_tables))
        else:
            stats.record(outcome.reason)  # type: ignore[arg-type]
    return kept, stats, outcomes


def _resolve_report(raw: RawQA, reports: dict[str, Report]) -> Optional[Report]:
    candidate = raw.extras.get("report_id")
    if candidate and candidate in reports:
        return reports[candidate]
    if len(reports) == 1:
        return next(iter(reports.values()))
    from .corpus import make_report_id

    try:
        year = int(raw.year)
    except ValueError:
        year = 0
    return reports.get(make_report_id(raw.company, year))


def _filter_one(raw: RawQA, reports: dict[str, Report]) -> FilterOutcome:
    # (1) multi-page constraint
    distinct_pages = set(raw.page_numbers)
    if len(distinct_pages) < 2:
        return FilterOutcome(raw, kept=False, reason="too_few_pages")

    report = _resolve_report(raw, reports)

    # program must be in-grammar before the table and execution checks
    try:
        parse_program(raw.python_code)
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
    stated = normalize_answer(raw.answer)
    try:
        computed = run_source(raw.python_code)
    except ProgramError:
        return FilterOutcome(raw, kept=False, reason="calc_error")
    if stated.is_numeric and not tolerance_correct(computed, stated.numeric_value):
        return FilterOutcome(raw, kept=False, reason="calc_error")

    # (4) answer-type constraint
    if not stated.is_numeric or not raw.answer.strip():
        return FilterOutcome(raw, kept=False, reason="incoherent_answer")

    return FilterOutcome(raw, kept=True, n_evidence_tables=n_tables)


def _to_instance(raw: RawQA, n_evidence_tables: int) -> QAInstance:
    try:
        year = int(raw.year)
    except ValueError:
        year = 0
    return QAInstance(
        id=raw.id,
        company=raw.company,
        fiscal_year=year,
        question=raw.question,
        gold_answer=raw.answer,
        question_type=raw.type if raw.type in ("table", "text", "mixed") else "mixed",
        evidence_pages=frozenset(raw.page_numbers),
        program_source=raw.python_code,
        reasoning_trace=raw.thoughts,
        n_evidence_tables=n_evidence_tables,
        report_id=raw.extras.get("report_id", ""),
        extras={k: v for k, v in raw.extras.items() if k != "report_id"},
    )


def write_raw_batch(records: Sequence[RawQA], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def read_raw_batch(path) -> list[RawQA]:
    records: list[RawQA] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(RawQA.from_dict(json.loads(line)))
    return records
