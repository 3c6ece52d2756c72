"""Scoring for numerical QA: exact match, tolerance accuracy, token F1.

Answers are normalized (currency symbols, comma grouping, parentheses
negatives, percent signs) before comparison. Aggregation reports
percentages overall, per difficulty bucket, and per question type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal, DecimalException, InvalidOperation, getcontext
from enum import Enum
from typing import Optional, Sequence

from .errors import EmptyScoresError, NonNumericError

CURRENCY_SYMBOLS = "$€£"

# Tolerance: |pred - gold| <= A_TOL + R_TOL * max(|gold|, EPSILON).
A_TOL = 1e-4
R_TOL = 1e-3
EPSILON = 1e-12

# Numbers keep their decimal point as one token; everything else splits on
# whitespace/punctuation. "1.55 million" -> ["1.55", "million"].
_TOKEN_RE = re.compile(r"\d+(?:\.\d+)?|[a-z]+")


class PercentMode(str, Enum):
    AS_GIVEN = "as_given"
    FRACTION = "fraction"
    PERCENT = "percent"


class Difficulty(str, Enum):
    EASY = "Easy"
    MEDIUM = "Medium"
    HARD = "Hard"


class ErrorCategory(str, Enum):
    """Label schema for manual failure annotation (not assigned automatically)."""

    RETRIEVAL = "retrieval"
    EVIDENCE_UTILIZATION = "evidence_utilization"
    VALUE_EXTRACTION = "value_extraction"
    REASONING_CALCULATION = "reasoning_calculation"


@dataclass(frozen=True)
class NormalizedAnswer:
    canonical_string: str
    numeric_value: Optional[Decimal]

    @property
    def is_numeric(self) -> bool:
        return self.numeric_value is not None


def _canonical_decimal_string(value: Decimal) -> str:
    """Shortest plain-notation string for the value (no trailing zeros).

    A value that is not finite, that has more integer digits than the decimal
    context's precision, or whose first significant digit lies more places
    than that after the point, raises a DecimalException: written out, its
    zeros would make the string unboundedly longer than the input.
    """
    if not value.is_finite():
        raise InvalidOperation(f"not a finite number: {value}")
    if value == 0:
        return "0"
    if value.adjusted() < -getcontext().prec:
        raise InvalidOperation(f"too small to write out: {value}")
    normalized = value.normalize()
    # normalize() may switch to scientific notation for multiples of ten.
    if normalized.as_tuple().exponent > 0:
        normalized = normalized.quantize(Decimal(1))
    return format(normalized, "f")


def normalize_answer(raw: str, percent_mode: PercentMode = PercentMode.AS_GIVEN) -> NormalizedAnswer:
    """Strip formatting from an answer string and parse its numeric value.

    Removes comma grouping, currency symbols, and whitespace; converts
    parentheses negatives ("(1,234)" -> -1234); strips a trailing percent
    sign, dividing by 100 in fraction mode and keeping the face value
    otherwise. Non-numeric input, including a value that is not finite or
    that the canonical form cannot hold, yields numeric_value=None with the
    cleaned string kept for string-level comparison.
    """
    cleaned = raw.strip()
    for symbol in CURRENCY_SYMBOLS:
        cleaned = cleaned.replace(symbol, "")
    cleaned = cleaned.replace(",", "")
    cleaned = re.sub(r"\s+", "", cleaned)

    had_percent = cleaned.endswith("%")
    if had_percent:
        cleaned = cleaned[:-1]

    negative_parens = cleaned.startswith("(") and cleaned.endswith(")")
    if negative_parens:
        cleaned = "-" + cleaned[1:-1]

    try:
        value: Optional[Decimal] = Decimal(cleaned)
        if had_percent and percent_mode is PercentMode.FRACTION:
            value = value / Decimal(100)
        canonical = _canonical_decimal_string(value)
    except (DecimalException, ValueError):
        value, canonical = None, cleaned

    return NormalizedAnswer(canonical_string=canonical, numeric_value=value)


def exact_match(pred: NormalizedAnswer, gold: NormalizedAnswer) -> int:
    """1 iff the canonical strings are identical (same percent mode assumed)."""
    return int(pred.canonical_string == gold.canonical_string)


def tolerance_correct(pred: float | Decimal | None, gold: float | Decimal | None) -> int:
    """1 iff |pred - gold| <= A_TOL + R_TOL * max(|gold|, EPSILON)."""
    if pred is None or gold is None:
        raise NonNumericError("tolerance comparison requires numeric prediction and gold")
    p = float(pred)
    g = float(gold)
    return int(abs(p - g) <= A_TOL + R_TOL * max(abs(g), EPSILON))


def _f1_tokens(raw: str) -> list[str]:
    """Tokens for F1: light normalization, then number-preserving split."""
    cleaned = raw.strip().lower()
    for symbol in CURRENCY_SYMBOLS:
        cleaned = cleaned.replace(symbol, "")
    cleaned = cleaned.replace(",", "")
    cleaned = re.sub(r"\((-?[\d.]+)\)", r"-\1", cleaned)
    return _TOKEN_RE.findall(cleaned)


def token_f1(pred_string: str, gold_string: str) -> float:
    """Multiset token F1 over the lightly-normalized strings."""
    pred_tokens = _f1_tokens(pred_string)
    gold_tokens = _f1_tokens(gold_string)
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    gold_counts: dict[str, int] = {}
    for tok in gold_tokens:
        gold_counts[tok] = gold_counts.get(tok, 0) + 1
    overlap = 0
    for tok in pred_tokens:
        if gold_counts.get(tok, 0) > 0:
            overlap += 1
            gold_counts[tok] -= 1
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def bucket_difficulty(n_evidence_tables: int) -> Difficulty:
    """<=1 table Easy, exactly 2 Medium, >=3 Hard."""
    if n_evidence_tables < 0:
        raise ValueError("table count must be non-negative")
    if n_evidence_tables <= 1:
        return Difficulty.EASY
    if n_evidence_tables == 2:
        return Difficulty.MEDIUM
    return Difficulty.HARD


@dataclass
class InstanceScore:
    """One score row: its fields are the row's keys."""

    id: str
    em: int
    tol_correct: int
    f1: float
    difficulty: Difficulty
    question_type: Optional[str] = None
    matched_variant: Optional[str] = None
    reason: Optional[str] = None


def score_instance(pred_raw: str, gold_raw: str, *, instance_id: str = "",
                   difficulty: Difficulty = Difficulty.EASY,
                   question_type: Optional[str] = None,
                   percent_mode: Optional[PercentMode] = None) -> InstanceScore:
    """Score one prediction against gold.

    When no explicit percent mode is supplied, both sides are compared
    as given; additionally the x100 / /100 variants of the prediction are
    accepted under tolerance, with the matching variant recorded.
    """
    mode = percent_mode or PercentMode.AS_GIVEN
    pred = normalize_answer(pred_raw, mode)
    gold = normalize_answer(gold_raw, mode)

    em = exact_match(pred, gold)
    # rounded as written, so that aggregate averages what the rows hold
    f1 = round(token_f1(pred_raw, gold_raw), 6)

    matched_variant: Optional[str] = None
    reason: Optional[str] = None
    if pred.is_numeric and gold.is_numeric:
        tol = tolerance_correct(pred.numeric_value, gold.numeric_value)
        if tol:
            matched_variant = "as_given"
        elif percent_mode is None:
            for label, factor in (("x100", Decimal(100)), ("/100", Decimal("0.01"))):
                if tolerance_correct(pred.numeric_value * factor, gold.numeric_value):
                    tol = 1
                    matched_variant = label
                    break
    else:
        tol = 0
        reason = "non_numeric_prediction" if not pred.is_numeric else "non_numeric_gold"
    if em and pred.is_numeric and gold.is_numeric:
        tol = 1
        matched_variant = matched_variant or "as_given"

    return InstanceScore(
        id=instance_id,
        em=em,
        tol_correct=tol,
        f1=f1,
        difficulty=difficulty,
        question_type=question_type,
        matched_variant=matched_variant,
        reason=reason,
    )


@dataclass
class EvalReport:
    """The evaluation report: its fields are the report file's keys. Each
    value is a percentage rounded to 2 places; ``instances`` and
    ``counts_by_difficulty`` are counts."""

    instances: int
    em: float
    tol_acc: float
    f1: float
    em_by_difficulty: dict[str, float]
    counts_by_difficulty: dict[str, int]
    by_type: dict[str, dict[str, float]] = field(default_factory=dict)


def _pct(values) -> float:
    """The mean of 0-1 values as a percentage, rounded to 2 places."""
    values = list(values)
    return round(100.0 * sum(values) / len(values), 2)


def aggregate(scores: Sequence[InstanceScore]) -> EvalReport:
    """Mean instance scores as percentages, with difficulty/type breakdowns."""
    if not scores:
        raise EmptyScoresError("cannot aggregate zero scores")

    em_by_difficulty: dict[str, float] = {}
    counts: dict[str, int] = {}
    for bucket in Difficulty:
        members = [s for s in scores if s.difficulty is bucket]
        if members:
            counts[bucket.value] = len(members)
            em_by_difficulty[bucket.value] = _pct(s.em for s in members)

    by_type: dict[str, dict[str, float]] = {}
    for qtype in sorted({s.question_type for s in scores if s.question_type}):
        members = [s for s in scores if s.question_type == qtype]
        by_type[qtype] = {
            "em": _pct(s.em for s in members),
            "tol_acc": _pct(s.tol_correct for s in members),
            "f1": _pct(s.f1 for s in members),
            "count": float(len(members)),
        }

    return EvalReport(
        instances=len(scores),
        em=_pct(s.em for s in scores),
        tol_acc=_pct(s.tol_correct for s in scores),
        f1=_pct(s.f1 for s in scores),
        em_by_difficulty=em_by_difficulty,
        counts_by_difficulty=counts,
        by_type=by_type,
    )
