import random
from decimal import Decimal

import pytest

from finreportqa.errors import EmptyScoresError, NonNumericError
from finreportqa.metrics import (
    A_TOL,
    EPSILON,
    R_TOL,
    Difficulty,
    PercentMode,
    aggregate,
    bucket_difficulty,
    exact_match,
    normalize_answer,
    score_instance,
    token_f1,
    tolerance_correct,
)

# (raw, mode, canonical, numeric) covering currency, commas, parens
# negatives, percent handling, and trailing-zero canonicalization.
NORMALIZATION_GOLDEN = [
    ("(1,234)", PercentMode.AS_GIVEN, "-1234", -1234.0),
    ("$4,139", PercentMode.AS_GIVEN, "4139", 4139.0),
    ("12.5%", PercentMode.FRACTION, "0.125", 0.125),
    ("12.5%", PercentMode.PERCENT, "12.5", 12.5),
    ("12.5%", PercentMode.AS_GIVEN, "12.5", 12.5),
    ("518.750", PercentMode.AS_GIVEN, "518.75", 518.75),
    ("518.75", PercentMode.AS_GIVEN, "518.75", 518.75),
    (" 1 234 ", PercentMode.AS_GIVEN, "1234", 1234.0),
    ("€2,500.10", PercentMode.AS_GIVEN, "2500.1", 2500.1),
    ("£0.0600", PercentMode.AS_GIVEN, "0.06", 0.06),
    ("-352", PercentMode.AS_GIVEN, "-352", -352.0),
    ("(0.26)", PercentMode.AS_GIVEN, "-0.26", -0.26),
    ("1200", PercentMode.AS_GIVEN, "1200", 1200.0),
    ("1.2e3", PercentMode.AS_GIVEN, "1200", 1200.0),
    ("0", PercentMode.AS_GIVEN, "0", 0.0),
    ("0.000", PercentMode.AS_GIVEN, "0", 0.0),
    ("100%", PercentMode.FRACTION, "1", 1.0),
    ("$ (2,073)", PercentMode.AS_GIVEN, "-2073", -2073.0),
    ("3.49", PercentMode.AS_GIVEN, "3.49", 3.49),
    ("147.8200", PercentMode.AS_GIVEN, "147.82", 147.82),
]

# values Decimal parses that are not finite, or past the context's exponent range
NON_FINITE = ("NaN", "nan", "sNaN", "Infinity", "-inf", "1e999999")


class TestNormalizeAnswer:
    @pytest.mark.parametrize("raw,mode,canonical,numeric", NORMALIZATION_GOLDEN)
    def test_golden(self, raw, mode, canonical, numeric):
        result = normalize_answer(raw, mode)
        assert result.canonical_string == canonical
        assert result.is_numeric
        assert float(result.numeric_value) == pytest.approx(numeric, abs=0)

    def test_non_numeric_keeps_string(self):
        result = normalize_answer("not available")
        assert not result.is_numeric
        assert result.canonical_string == "notavailable"

    def test_parens_negative_example(self):
        assert float(normalize_answer("(1,234)").numeric_value) == -1234.0

    @pytest.mark.parametrize("raw, cleaned", [
        *((value, value) for value in NON_FINITE),
        ("1e28", "1e28"), ("9" * 29, "9" * 29), ("(sNaN)", "-sNaN"), ("$ Infinity%", "Infinity"),
        ("1e-999999", "1e-999999"), ("1e-29", "1e-29"), ("-0.9e-28", "-0.9e-28"),
    ])
    @pytest.mark.parametrize("mode", list(PercentMode))
    def test_non_finite_or_too_long_is_non_numeric(self, raw, cleaned, mode):
        """The canonical form holds at most the context's 28 integer digits,
        and a first significant digit at most 28 places after the point."""
        result = normalize_answer(raw, mode)
        assert not result.is_numeric
        assert result.canonical_string == cleaned

    def test_longest_integer_the_canonical_form_holds(self):
        assert normalize_answer("1e27").canonical_string == "1" + "0" * 27
        assert normalize_answer("9" * 28).canonical_string == "9" * 28

    def test_smallest_fractions_the_canonical_form_holds(self):
        assert normalize_answer("1e-28").canonical_string == "0." + "0" * 27 + "1"
        assert normalize_answer("0.0001").canonical_string == "0.0001"
        third = normalize_answer(f"{Decimal(100) / 3}%", PercentMode.FRACTION)
        assert third.canonical_string == "0." + "3" * 28


class TestExactMatch:
    def test_identical(self):
        assert exact_match(normalize_answer("518.75"), normalize_answer("518.75")) == 1

    def test_trailing_zeros_canonicalized(self):
        assert exact_match(normalize_answer("518.750"), normalize_answer("518.75")) == 1

    def test_mismatch(self):
        assert exact_match(normalize_answer("0.26"), normalize_answer("0.06")) == 0


class TestToleranceCorrect:
    def test_constants_pinned(self):
        assert A_TOL == 1e-4
        assert R_TOL == 1e-3
        assert EPSILON == 1e-12

    def test_close_prediction_accepted(self):
        # 0.05 <= 1e-4 + 1e-3 * 518.75
        assert tolerance_correct(518.80, 518.75) == 1

    def test_far_prediction_rejected(self):
        assert tolerance_correct(0.584, 0.82) == 0

    def test_zero_equals_zero(self):
        assert tolerance_correct(0.0, 0.0) == 1

    def test_identity_random(self):
        rng = random.Random(7)
        for _ in range(50):
            x = rng.uniform(-1e6, 1e6)
            assert tolerance_correct(x, x) == 1

    def test_symmetric_in_error_sign(self):
        rng = random.Random(11)
        for _ in range(100):
            gold = rng.uniform(-1e4, 1e4)
            delta = rng.uniform(0, abs(gold) * 2e-3 + 1e-3)
            assert tolerance_correct(gold + delta, gold) == tolerance_correct(gold - delta, gold)

    def test_non_numeric_raises(self):
        with pytest.raises(NonNumericError):
            tolerance_correct(None, 1.0)


class TestTokenF1:
    def test_identity(self):
        assert token_f1("1.55", "1.55") == 1.0

    def test_partial_overlap(self):
        # pred has 2 tokens {1.55, million}, gold has 1: P=1/2, R=1 -> 2/3
        assert token_f1("1.55 million", "1.55") == pytest.approx(2 / 3)

    def test_empty_vs_nonempty(self):
        assert token_f1("", "352") == 0.0

    def test_both_empty(self):
        assert token_f1("", "") == 1.0

    def test_symmetric(self):
        rng = random.Random(3)
        words = ["net", "income", "1.55", "352", "total", "assets"]
        for _ in range(50):
            a = " ".join(rng.choices(words, k=rng.randint(0, 5)))
            b = " ".join(rng.choices(words, k=rng.randint(0, 5)))
            assert token_f1(a, b) == pytest.approx(token_f1(b, a))

    def test_order_invariant(self):
        assert token_f1("net income 352", "352 income net") == 1.0


class TestBucketDifficulty:
    @pytest.mark.parametrize("n,expected", [
        (0, Difficulty.EASY),
        (1, Difficulty.EASY),
        (2, Difficulty.MEDIUM),
        (3, Difficulty.HARD),
        (9, Difficulty.HARD),
    ])
    def test_buckets(self, n, expected):
        assert bucket_difficulty(n) is expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bucket_difficulty(-1)


class TestScoreInstance:
    def test_exact(self):
        score = score_instance("518.75", "518.75")
        assert score.em == 1 and score.tol_correct == 1 and score.f1 == 1.0

    def test_em_implies_tolerance(self):
        rng = random.Random(5)
        for _ in range(50):
            value = f"{rng.uniform(-1e4, 1e4):.2f}"
            score = score_instance(value, value)
            assert score.em == 1
            assert score.tol_correct == 1

    def test_percent_dual_accept(self):
        score = score_instance("0.125", "12.5")
        assert score.em == 0
        assert score.tol_correct == 1
        assert score.matched_variant == "x100"

    def test_percent_dual_accept_down(self):
        score = score_instance("12.5", "0.125")
        assert score.tol_correct == 1
        assert score.matched_variant == "/100"

    def test_explicit_mode_disables_dual_accept(self):
        score = score_instance("0.125", "12.5", percent_mode=PercentMode.AS_GIVEN)
        assert score.tol_correct == 0

    def test_non_numeric_prediction(self):
        score = score_instance("no idea", "352")
        assert score.em == 0 and score.tol_correct == 0
        assert score.reason == "non_numeric_prediction"

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_prediction_or_gold(self, value):
        assert score_instance(value, "352").reason == "non_numeric_prediction"
        assert score_instance("352", value).reason == "non_numeric_gold"
        assert score_instance(value, value).tol_correct == 0


class TestAggregate:
    def _score(self, em, difficulty=Difficulty.EASY, qtype="mixed"):
        return score_instance("1" if em else "2", "1", instance_id="x",
                              difficulty=difficulty, question_type=qtype)

    def test_half_mean(self):
        report = aggregate([self._score(1), self._score(0)])
        assert report.em == pytest.approx(50.0)

    def test_all_correct(self):
        report = aggregate([self._score(1) for _ in range(4)])
        assert report.em == 100.0
        assert report.tol_acc == 100.0
        assert report.f1 == 100.0

    def test_difficulty_breakdown(self):
        scores = [self._score(1, Difficulty.EASY), self._score(0, Difficulty.MEDIUM),
                  self._score(1, Difficulty.MEDIUM)]
        report = aggregate(scores)
        assert report.em_by_difficulty["Easy"] == 100.0
        assert report.em_by_difficulty["Medium"] == pytest.approx(50.0)
        assert report.counts_by_difficulty == {"Easy": 1, "Medium": 2}

    def test_permutation_invariant(self):
        scores = [self._score(1), self._score(0), self._score(1, Difficulty.HARD)]
        forward = aggregate(scores)
        backward = aggregate(list(reversed(scores)))
        assert vars(forward) == vars(backward)

    def test_aggregate_matches_mean_exactly(self):
        rng = random.Random(13)
        scores = [self._score(rng.random() < 0.5) for _ in range(37)]
        report = aggregate(scores)
        assert report.em == round(100.0 * sum(s.em for s in scores) / 37, 2)

    def test_empty_rejected(self):
        with pytest.raises(EmptyScoresError):
            aggregate([])

    def test_two_decimal_rendering(self):
        report = aggregate([self._score(1), self._score(0), self._score(0)])
        assert report.em == round(100.0 / 3, 2)
