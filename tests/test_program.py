"""Interpreter tests: worked ratio programs, grammar enforcement, and
agreement with an independent eval()-based oracle on random programs."""

import ast
import random
from decimal import Decimal

import pytest

from finreportqa.errors import (
    DivisionByZeroError,
    NestingTooDeepError,
    NumericRangeError,
    SyntaxUnsupportedError,
    UndefinedIdentifierError,
)
from finreportqa.program import ProgramAST, eval_program, parse_program, run_source


class TestWorkedPrograms:
    def test_turnover_ratio(self):
        assert run_source("4139/((45+11)/2)") == Decimal("147.82")

    def test_coverage_ratio(self):
        assert run_source("17/(11+0)") == Decimal("1.55")

    def test_weighted_score(self):
        source = ("1.2*(3730/6298)+1.4*(2325/6298)+3.3*(17/6298)"
                  "+0.6*(4925/2203)+1.0*(5742/6298)")
        assert run_source(source) == Decimal("3.49")


class TestGrammar:
    def test_assignments_and_final_value(self):
        source = "cogs = 4139\navg = (45 + 11) / 2\ncogs / avg"
        assert run_source(source) == Decimal("147.82")

    def test_final_assignment_is_program_value(self):
        assert run_source("x = 2 + 3") == Decimal("5.00")

    def test_round_half_away_from_zero(self):
        assert run_source("round(2.675, 2)", round_final=False) == Decimal("2.68")
        assert run_source("round(-2.675, 2)", round_final=False) == Decimal("-2.68")
        assert run_source("round(2.5)", round_final=False) == Decimal("3")
        assert run_source("round(-2.5)", round_final=False) == Decimal("-3")

    def test_builtin_calls(self):
        assert run_source("min(3, 5) + max(1, 2) + abs(-4)") == Decimal("9.00")

    def test_unary_minus(self):
        assert run_source("-(3 - 5)") == Decimal("2.00")

    def test_undefined_identifier(self):
        with pytest.raises(UndefinedIdentifierError):
            run_source("a + 1")

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            run_source("1 / (2 - 2)")

    @pytest.mark.parametrize("source", [
        "import os",
        "x ** 2",
        "x = 1; y = [1, 2]",
        "print(3)",
        "1 if True else 2",
        "x, y = 1, 2",
        "'text'",
        "lambda: 1",
        "x = 1\nx += 1",
        "",
    ])
    def test_out_of_grammar_rejected(self, source):
        with pytest.raises(SyntaxUnsupportedError):
            parse_program(source)


# --- random-program oracle ----------------------------------------------------

def _random_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return str(rng.randint(1, 5000))
        return f"{rng.uniform(0.1, 900):.4f}"
    choice = rng.random()
    if choice < 0.55:
        op = rng.choice(["+", "-", "*", "/"])
        return f"({_random_expr(rng, depth - 1)} {op} {_random_expr(rng, depth - 1)})"
    if choice < 0.7:
        return f"(-{_random_expr(rng, depth - 1)})"
    if choice < 0.85:
        return f"abs({_random_expr(rng, depth - 1)})"
    fn = rng.choice(["min", "max"])
    return f"{fn}({_random_expr(rng, depth - 1)}, {_random_expr(rng, depth - 1)})"


def _random_program(rng: random.Random) -> str:
    lines = []
    names = []
    for index in range(rng.randint(0, 3)):
        name = f"v{index}"
        lines.append(f"{name} = {_random_expr(rng, 2)}")
        names.append(name)
    final = _random_expr(rng, 3)
    for name in names:
        if rng.random() < 0.5:
            final = f"({final} + {name})"
    lines.append(final)
    return "\n".join(lines)


def _oracle_eval(source: str) -> float:
    """Independent path: plain Python eval of the validated source."""
    env: dict = {"abs": abs, "min": min, "max": max}
    result = None
    for line in source.splitlines():
        if "=" in line:
            name, _, expr = line.partition("=")
            result = eval(expr, {"__builtins__": {}}, env)  # noqa: S307
            env[name.strip()] = result
        else:
            result = eval(line, {"__builtins__": {}}, env)  # noqa: S307
    return result


def test_random_programs_match_oracle():
    rng = random.Random(20240817)
    checked = 0
    while checked < 1000:
        source = _random_program(rng)
        try:
            expected = _oracle_eval(source)
        except ZeroDivisionError:
            with pytest.raises(DivisionByZeroError):
                run_source(source)
            checked += 1
            continue
        if abs(expected) > 1e12:
            continue  # keep the tolerance comparison meaningful
        got = float(run_source(source, round_final=False))
        assert got == pytest.approx(expected, abs=1e-9, rel=1e-9), source
        checked += 1


class TestOnlyProgramErrors:
    """Inputs that once leaked decimal or recursion errors past the interpreter."""

    def test_infinite_literal_is_numeric_range_error(self):
        with pytest.raises(NumericRangeError):
            run_source("1e999999")

    @pytest.mark.parametrize("source", [
        "x = 1e300\n" + "x = x * x\n" * 25,
        "round(1, 1e999999)",
        "round(1, 1e20)",
        "round(1.5, 1000000)",
        "round(1.5, -29)",
        "round(1.5, 29)",
        "abs(-1e999999)",
    ])
    def test_overflow_and_impossible_rounding(self, source):
        with pytest.raises(NumericRangeError):
            run_source(source)

    def test_round_takes_up_to_the_evaluation_precision(self):
        assert run_source("round(1.5, 28.9)", round_final=False) == Decimal("1.5")
        assert run_source("round(15, -28.9)", round_final=False) == 0

    def test_deep_unary_chain_is_nesting_error(self):
        with pytest.raises(NestingTooDeepError):
            run_source("-" * 5000 + "1")
        assert issubclass(NestingTooDeepError, SyntaxUnsupportedError)

    def test_deep_tree_at_eval_is_nesting_error(self):
        node = ast.Constant(value=1)
        for _ in range(20_000):
            node = ast.UnaryOp(op=ast.USub(), operand=node)
        program = ProgramAST(source="<built>", statements=(ast.Expr(value=node),))
        with pytest.raises(NestingTooDeepError):
            eval_program(program)
