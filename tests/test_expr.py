import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gtmprod.expr import (
    BinOp,
    ExprDomainError,
    Neg,
    Num,
    Pi,
    eval_expr,
    parse_expr,
)
from gtmprod.ratfun import ParseError


def value_of(text: str) -> float:
    return eval_expr(parse_expr(text))


def format_expr(node) -> str:
    """Parenthesized rendering; reparsing is value-identical."""
    if isinstance(node, Num):
        v = node.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(node, Pi):
        return "pi"
    if isinstance(node, Neg):
        return f"-{format_expr(node.arg)}"
    if isinstance(node, BinOp):
        return f"({format_expr(node.left)}{node.op}{format_expr(node.right)})"
    return f"{node.fn}({format_expr(node.arg)})"


class TestEvaluation:
    def test_catalog_style_values(self):
        assert abs(value_of("1/sqrt(3)") - 0.5773502691896258) < 1e-15
        assert abs(value_of("gamma(1/4)/(sqrt(2)*pi^(3/4))") - 1.086434811213308) < 1e-12
        assert abs(value_of("sqrt(2*sqrt(2)-2)") - 0.9101797211244548) < 1e-12
        assert abs(value_of("sqrt(3)*gamma(1/3)*gamma(1/6)/(4*pi^(3/2))")
                   - 1.1595952669639284) < 1e-12
        assert value_of("pi") == math.pi
        assert value_of("1/(3*sqrt(3))") == 1 / (3 * math.sqrt(3))

    def test_precedence(self):
        assert abs(value_of("2^(2/3)") - 2 ** (2 / 3)) < 1e-15
        assert value_of("2*3+4") == 10
        assert value_of("2+3*4") == 14
        assert value_of("-2^2") == -4          # power binds tighter than minus
        assert value_of("2^-1") == 0.5          # unary allowed in exponents
        assert value_of("3*2^(-5/3)") == 3 * 2 ** (-5 / 3)
        assert value_of("2^3^2") == 512         # right associative
        assert value_of("(2^3)^2") == 64
        assert value_of("6/3/2") == 1.0         # division is left associative

    def test_rational_and_decimal_numbers(self):
        assert parse_expr("3/4") == Num(Fraction(3, 4))
        assert value_of("0.25") == 0.25
        assert value_of("10/4") == 2.5

    def test_rational_literal_is_one_number(self):
        # p/q is one token, so it binds tighter than '^'; other '/' divide
        assert parse_expr("2^3/4") == parse_expr("2^(3/4)")
        assert parse_expr("2^3 / 4") == BinOp("/", parse_expr("2^3"), Num(Fraction(4)))
        assert parse_expr(" 1 / 2 ") == BinOp("/", Num(Fraction(1)), Num(Fraction(2)))

    def test_cos(self):
        assert abs(value_of("cos(pi/3)") - 0.5) < 1e-15


class TestErrors:
    @pytest.mark.parametrize("text", ["", "2+", "sqrt 3", "foo(2)", "2)", "((2)", "1..2"])
    def test_syntax(self, text):
        with pytest.raises(ParseError):
            parse_expr(text)

    # the position is where the offending token starts, len(text) at the end
    @pytest.mark.parametrize("text,message,pos", [
        ("", "unexpected input ''", 0),
        ("2+", "unexpected input ''", 2),
        ("sqrt(", "unexpected input ''", 5),
        ("*2", "unexpected input '*'", 0),
        ("x", "unexpected input 'x'", 0),
        ("pie", "unexpected input 'pie'", 0),
        ("foo(2)", "unexpected input 'foo'", 0),
        ("2+foo", "unexpected input 'foo'", 2),
        ("sqrt 3", "expected '('", 5),
        ("gamma", "expected '('", 5),
        ("((2)", "expected ')'", 4),
        ("2)", "unexpected trailing input", 1),
        ("1..2", "unexpected trailing input", 2),
        ("pi(", "unexpected trailing input", 2),
        ("2 3", "unexpected trailing input", 2),
        ("1/0", "zero denominator in 1/0", 0),
        ("0/0", "zero denominator in 0/0", 0),
        ("2^3/0", "zero denominator in 3/0", 2),
        # digits are ASCII: a superscript two used to escape as a bare
        # ValueError from int(), and an Arabic-Indic three was read as 3
        ("\u00b2", "unexpected input '\u00b2'", 0),
        ("\u0663/4", "unexpected input '\u0663'", 0),
        ("3/\u0663", "unexpected input '\u0663'", 2),
    ])
    def test_message_and_position(self, text, message, pos):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert (str(err.value), err.value.pos) == (f"{message} (at position {pos})", pos)

    def test_domain(self):
        with pytest.raises(ExprDomainError):
            value_of("sqrt(0-1)")
        with pytest.raises(ExprDomainError):
            value_of("gamma(0-2)")
        with pytest.raises(ExprDomainError):
            value_of("1/(2-2)")
        with pytest.raises(ExprDomainError):
            value_of("(0-2)^(1/2)")
        # these used to escape as ZeroDivisionError, OverflowError or a bare
        # ValueError, or to give inf
        for text in ("0^(0-1)", "10^400", "9^9^9", "(0-2)^(10^300*10^300)", "1" + "0" * 400,
                     "gamma(0-10^300*10^300)", "cos(10^300*10^300)", "10^300*10^300"):
            with pytest.raises(ExprDomainError):
                value_of(text)


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        "1/sqrt(2)", "gamma(1/4)/(sqrt(2)*pi^(3/4))", "sqrt(2*sqrt(2)-2)",
        "3*2^(-5/3)", "(sqrt(5)-1)/2^(2/5)", "2^(1/4)", "cos(pi/7)+1/3",
    ])
    def test_print_parse_value_identity(self, text):
        node = parse_expr(text)
        again = parse_expr(format_expr(node))
        assert eval_expr(again) == eval_expr(node)
        assert format_expr(parse_expr(format_expr(node))) == format_expr(node)


# the expression alphabet plus noise: a superscript two, an Arabic-Indic
# three, '.', '*' and spaces
_EXPR_PIECES = ["(", ")", "1", "3/4", "2.5", "0", "+", "-", "*", "/", "^", " ", "pi",
                "sqrt", "gamma", "cos", "x", "\u00b2", "\u0663", "."]


@given(st.one_of(
    st.text(st.sampled_from("()0123456789+-*/^. pisqrtgamcox\u00b2\u0663"), max_size=24),
    st.lists(st.sampled_from(_EXPR_PIECES), max_size=16).map("".join),
))
def test_any_text_parses_or_fails_at_a_token(text):
    try:
        parse_expr(text)
    except ParseError as err:
        assert 0 <= err.pos <= len(text)
        assert err.pos == len(text) or not text[err.pos].isspace()
