"""Closed-form expression mini-language for catalog right-hand sides.

Grammar (spaces may go between tokens):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-'? power
    power  := atom ('^' unary)?
    atom   := number | 'pi' | ('sqrt'|'gamma'|'cos') '(' expr ')' | '(' expr ')'
    number := uint | uint'/'uint | decimal

Digits are ASCII and names ASCII letters, split off by the scanner of the
product-term grammar (``ratfun._Tokens``); a ``p/q`` literal is one number,
so ``2^3/4`` is ``2^(3/4)``.  Power binds tighter than unary minus and
associates right.  Values like ``gamma(1/4)/(sqrt(2)*pi^(3/4))`` evaluate
through the local Gamma implementation, so the whole catalog shares one
numeric authority; a Gamma pole, a negative root, or a number or an
operation without a finite binary64 value is an ``ExprDomainError``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .gammafn import gamma
from .ratfun import _is_number, _Tokens


class ExprDomainError(ValueError):
    """Evaluation left the defined domain (negative sqrt, Gamma pole, ...)."""


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Num | Pi | Neg | BinOp | Call

_FUNCTIONS = ("sqrt", "gamma", "cos")
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
          "^": operator.pow}
_EXPR_TOKENS = re.compile(r"\s*([0-9]+(?:/[0-9]+|\.[0-9]*)?|[A-Za-z]+|\S)")


def _parse_expr(tk: _Tokens, levels=(("+", "-"), ("*", "/"))) -> Expr:
    """expr, or term once the '+'/'-' level is passed: left-associative."""
    if not levels:
        return _parse_unary(tk)
    node = _parse_expr(tk, levels[1:])
    while tk.peek() in levels[0]:
        op = tk.take()
        node = BinOp(op, node, _parse_expr(tk, levels[1:]))
    return node


def _parse_unary(tk: _Tokens) -> Expr:
    if tk.peek() == "-":
        tk.take()
        return Neg(_parse_power(tk))
    return _parse_power(tk)


def _parse_power(tk: _Tokens) -> Expr:
    base = _parse_atom(tk)
    if tk.peek() == "^":
        tk.take()
        return BinOp("^", base, _parse_unary(tk))
    return base


def _parse_atom(tk: _Tokens) -> Expr:
    at = tk.i
    tok = tk.take()
    if tok == "(":
        inner = _parse_expr(tk)
        tk.expect(")")
        return inner
    if _is_number(tok):
        try:
            return Num(Fraction(tok))
        except ZeroDivisionError:
            raise tk.error(f"zero denominator in {tok}", at) from None
    if tok == "pi":
        return Pi()
    if tok in _FUNCTIONS:
        tk.expect("(")
        inner = _parse_expr(tk)
        tk.expect(")")
        return Call(tok, inner)
    raise tk.error(f"unexpected input {tok!r}", at)


def parse_expr(text: str) -> Expr:
    tk = _Tokens(_EXPR_TOKENS, text)
    node = _parse_expr(tk)
    if tk.peek():
        raise tk.error("unexpected trailing input")
    return node


def eval_expr(node: Expr) -> float:
    """The value of an expression in binary64.  A Gamma pole, a negative
    root, a negative base under a fractional exponent, or a number or an
    operation without a finite binary64 value is an ExprDomainError; each
    number and operation is checked once, so every argument is finite.  A
    Gamma value past binary64 is gammafn's GammaDomainError."""
    if isinstance(node, Pi):
        return math.pi
    if isinstance(node, Neg):
        return -eval_expr(node.arg)
    if isinstance(node, Call):
        x = eval_expr(node.arg)
        if node.fn == "sqrt":
            if x < 0:
                raise ExprDomainError(f"sqrt of negative value {x}")
            return math.sqrt(x)
        if node.fn == "cos":
            return math.cos(x)
        if x <= 0 and x.is_integer():
            raise ExprDomainError(f"gamma pole at {x}")
        return gamma(x).real
    if isinstance(node, Num):
        op, args, what = float, (node.value,), ""
    elif isinstance(node, BinOp):
        op, args, what = _ARITH[node.op], (eval_expr(node.left), eval_expr(node.right)), node.op
        if node.op == "^" and args[0] < 0 and not args[1].is_integer():
            raise ExprDomainError(f"negative base {args[0]} with fractional exponent")
    else:
        raise TypeError(f"not an expression node: {node!r}")
    try:
        value = op(*args)
    except (ZeroDivisionError, OverflowError):
        value = math.inf
    if not math.isfinite(value):
        raise ExprDomainError(f"{f' {what} '.join(map(str, args))} has no finite value")
    return value
