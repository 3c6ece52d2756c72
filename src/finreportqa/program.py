"""Restricted arithmetic-program interpreter.

Programs are a small Python subset: assignment statements and expressions
built from numbers, previously-assigned names, unary minus, + - * /, and
round/abs/min/max calls. Parsing goes through ast with a strict whitelist,
so nothing outside the grammar can execute. Evaluation uses Decimal with
half-away-from-zero rounding; the program value is the last statement's
value rounded to two decimals.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from decimal import (
    ROUND_HALF_UP,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
    localcontext,
)

from .errors import (
    DivisionByZeroError,
    NestingTooDeepError,
    NumericRangeError,
    SyntaxUnsupportedError,
    UndefinedIdentifierError,
)

ALLOWED_CALLS = ("round", "abs", "min", "max")

# Significant digits of evaluation; also the most places round() takes, since
# its cost in time and memory grows with the count of places.
PRECISION = 28

_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


@dataclass(frozen=True)
class ProgramAST:
    """Validated program: ast statements plus the original source."""
    source: str
    statements: tuple[ast.stmt, ...]


def _validate_expr(node: ast.expr) -> None:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise SyntaxUnsupportedError(f"unsupported literal: {node.value!r}")
        return
    if isinstance(node, ast.Name):
        return
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, ast.USub):
            raise SyntaxUnsupportedError("only unary minus is supported")
        _validate_expr(node.operand)
        return
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise SyntaxUnsupportedError(
                f"unsupported operator: {type(node.op).__name__}")
        _validate_expr(node.left)
        _validate_expr(node.right)
        return
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in ALLOWED_CALLS:
            raise SyntaxUnsupportedError("only round/abs/min/max calls are supported")
        if node.keywords:
            raise SyntaxUnsupportedError("keyword arguments are not supported")
        if not node.args:
            raise SyntaxUnsupportedError(f"{node.func.id}() needs at least one argument")
        if node.func.id == "round" and len(node.args) > 2:
            raise SyntaxUnsupportedError("round() takes at most two arguments")
        if node.func.id == "abs" and len(node.args) != 1:
            raise SyntaxUnsupportedError("abs() takes exactly one argument")
        for arg in node.args:
            _validate_expr(arg)
        return
    raise SyntaxUnsupportedError(f"unsupported construct: {type(node).__name__}")


def parse_program(source: str) -> ProgramAST:
    """Parse source into a validated AST or raise SyntaxUnsupportedError."""
    try:
        return _parse_program(source)
    except RecursionError:
        raise NestingTooDeepError("program nests too deeply to parse") from None


def _parse_program(source: str) -> ProgramAST:
    try:
        module = ast.parse(source, mode="exec")
    except SyntaxError as exc:
        raise SyntaxUnsupportedError(f"not parseable: {exc.msg}") from None
    if not module.body:
        raise SyntaxUnsupportedError("empty program")
    for stmt in module.body:
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
                raise SyntaxUnsupportedError("assignment must target a single name")
            _validate_expr(stmt.value)
        elif isinstance(stmt, ast.Expr):
            _validate_expr(stmt.value)
        else:
            raise SyntaxUnsupportedError(
                f"unsupported statement: {type(stmt).__name__}")
    return ProgramAST(source=source, statements=tuple(module.body))


def round_half_away(value: Decimal, ndigits: int = 0) -> Decimal:
    exponent = Decimal(1).scaleb(-ndigits)
    with localcontext() as ctx:
        # quantize needs room for every integral digit plus the requested places
        ctx.prec = max(PRECISION, len(value.as_tuple().digits) + abs(ndigits) + 2)
        return value.quantize(exponent, rounding=ROUND_HALF_UP)


def _to_decimal(value: int | float) -> Decimal:
    # str() keeps the shortest repr of floats, so 1.2 -> Decimal("1.2").
    return Decimal(str(value))


def _eval_expr(node: ast.expr, env: dict[str, Decimal]) -> Decimal:
    if isinstance(node, ast.Constant):
        return _to_decimal(node.value)
    if isinstance(node, ast.Name):
        try:
            return env[node.id]
        except KeyError:
            raise UndefinedIdentifierError(f"name {node.id!r} used before assignment") from None
    if isinstance(node, ast.UnaryOp):
        return -_eval_expr(node.operand, env)
    if isinstance(node, ast.BinOp):
        left = _eval_expr(node.left, env)
        right = _eval_expr(node.right, env)
        op = _BINOPS[type(node.op)]
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        try:
            return left / right
        except (DivisionByZero, InvalidOperation):
            raise DivisionByZeroError("division by zero") from None
    if isinstance(node, ast.Call):
        name = node.func.id  # type: ignore[union-attr]
        args = [_eval_expr(arg, env) for arg in node.args]
        if name == "round":
            # bounded before int(), which is slow for a huge count
            if len(args) == 2 and abs(args[1]) >= PRECISION + 1:
                raise NumericRangeError(f"round() takes at most {PRECISION} places")
            ndigits = int(args[1]) if len(args) == 2 else 0
            return round_half_away(args[0], ndigits)
        if name == "abs":
            return abs(args[0])
        if name == "min":
            return min(args)
        return max(args)
    raise SyntaxUnsupportedError(f"unsupported construct: {type(node).__name__}")


def eval_program(program: ProgramAST, *, round_final: bool = True) -> Decimal:
    """Run the program; the last statement's value, rounded to 2 decimals.

    Set round_final=False to get the raw final value. Every failure is a
    ProgramError.
    """
    try:
        return _eval_program(program, round_final)
    except RecursionError:
        raise NestingTooDeepError("program nests too deeply to evaluate") from None
    except ArithmeticError as exc:  # decimal signals, int() of an infinity
        raise NumericRangeError(
            f"value out of range: {type(exc).__name__}") from None


def _eval_program(program: ProgramAST, round_final: bool) -> Decimal:
    env: dict[str, Decimal] = {}
    value: Decimal | None = None
    with localcontext() as ctx:
        ctx.prec = PRECISION
        ctx.traps[Overflow] = True
        for stmt in program.statements:
            if isinstance(stmt, ast.Assign):
                value = _eval_expr(stmt.value, env)
                env[stmt.targets[0].id] = value  # type: ignore[union-attr]
            else:
                value = _eval_expr(stmt.value, env)  # type: ignore[union-attr]
    assert value is not None
    return round_half_away(value, 2) if round_final else value


def run_source(source: str, *, round_final: bool = True) -> Decimal:
    return eval_program(parse_program(source), round_final=round_final)
