"""Closed-form expression mini-language for catalog right-hand sides.

Grammar (whitespace ignored):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-'? power
    power  := atom ('^' unary)?
    atom   := number | 'pi' | ('sqrt'|'gamma'|'cos') '(' expr ')' | '(' expr ')'
    number := uint | uint'/'uint | decimal

Power binds tighter than unary minus and associates right.  Values like
``gamma(1/4)/(sqrt(2)*pi^(3/4))`` evaluate through the local Gamma
implementation, so the whole catalog shares one numeric authority.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .gammafn import gamma
from .ratfun import ParseError, _Cursor


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


class _Scanner(_Cursor):
    def match_word(self) -> str | None:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos] if self.pos > start else None

    def read_number(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        # rational p/q (greedy) or decimal
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            save = self.pos
            self.pos += 1
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos > dstart:
                return Fraction(int(self.text[start:save]), int(self.text[dstart:self.pos]))
            self.pos = save
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return Fraction(self.text[start:self.pos])
        return Fraction(int(self.text[start:self.pos]))


def _parse_expr(sc: _Scanner) -> Expr:
    node = _parse_term(sc)
    while sc.peek() in ("+", "-"):
        op = sc.take()
        node = BinOp(op, node, _parse_term(sc))
    return node


def _parse_term(sc: _Scanner) -> Expr:
    node = _parse_unary(sc)
    while sc.peek() in ("*", "/"):
        op = sc.take()
        node = BinOp(op, node, _parse_unary(sc))
    return node


def _parse_unary(sc: _Scanner) -> Expr:
    if sc.peek() == "-":
        sc.take()
        return Neg(_parse_power(sc))
    return _parse_power(sc)


def _parse_power(sc: _Scanner) -> Expr:
    base = _parse_atom(sc)
    if sc.peek() == "^":
        sc.take()
        return BinOp("^", base, _parse_unary(sc))
    return base


def _parse_atom(sc: _Scanner) -> Expr:
    c = sc.peek()
    if c == "(":
        sc.take()
        inner = _parse_expr(sc)
        sc.expect(")")
        return inner
    if c.isdigit():
        return Num(sc.read_number())
    word = sc.match_word()
    if word == "pi":
        return Pi()
    if word in _FUNCTIONS:
        sc.expect("(")
        inner = _parse_expr(sc)
        sc.expect(")")
        return Call(word, inner)
    raise ParseError(f"unexpected input {word or c!r}", sc.pos)


def parse_expr(text: str) -> Expr:
    sc = _Scanner(text)
    node = _parse_expr(sc)
    if sc.peek():
        raise ParseError("unexpected trailing input", sc.pos)
    return node


def eval_expr(node: Expr) -> float:
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Pi):
        return math.pi
    if isinstance(node, Neg):
        return -eval_expr(node.arg)
    if isinstance(node, BinOp):
        left = eval_expr(node.left)
        right = eval_expr(node.right)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right == 0:
                raise ExprDomainError("division by zero")
            return left / right
        if left < 0 and right != int(right):
            raise ExprDomainError(f"negative base {left} with fractional exponent")
        return left**right
    if isinstance(node, Call):
        x = eval_expr(node.arg)
        if node.fn == "sqrt":
            if x < 0:
                raise ExprDomainError(f"sqrt of negative value {x}")
            return math.sqrt(x)
        if node.fn == "cos":
            return math.cos(x)
        if x <= 0 and x == int(x):
            raise ExprDomainError(f"gamma pole at {x}")
        return gamma(x).real
    raise TypeError(f"not an expression node: {node!r}")
