"""Exact product terms in factored form, and the product-term surface syntax.

A product term is carried in factored form: a list of (alpha*n + beta)
with integer slopes and signed integer exponents, plus a rational
constant multiplier collected from bare integer factors like ``(2)``.
Every exact decision the package makes about a term is read off those
factors, with c_f = beta_f/alpha_f and K the constant.  Equal offsets
merge once per term into K' * prod (n + c)^E with every c = m/L over one
denominator L, the term's one derived form (``FactorList.integer_form``),
and the decisions read that:

* zeros and poles are the integers -c (``factored_zeros_poles``);
* convergence needs sum E = 0, K' = K * prod alpha_f^e_f = 1 and, for
  theta exponents, sum E c = 0 (``factored_convergence``);
* the sign of R(n) changes only at the roots -c, so positivity for
  every n >= start is decided at finitely many integers
  (``first_non_positive``);
* beta_j = (-1)^(j+1)/j * sum E c^j are the coefficients of ln R(n)
  in powers of 1/n (``FactorList.log_pairs``);
* R(n) itself is K' L^-(sum E) prod (L n + m)^E, a quotient of integer
  products (``value_pairs``, and ``exact_real_value`` as a Fraction).

The form is plain ints: K' is a reduced pair (num, den), L and each m
are ints, so each decision is an integer comparison, and each beta_j an
integer pair (p_j, r_j).  ``Fraction`` appears only where the parser
builds a term and where a public helper returns an exact rational;
floating point enters only through correctly rounded int divisions.

Product terms and the right-hand sides of ``expr`` are read by one scanner,
``_Tokens``: a compiled pattern per grammar splits the text once into
tokens, and a ``ParseError`` gives where the offending token starts.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import NamedTuple

from .sequences import FrozenValue


class ParseError(ValueError):
    """Syntax error in the product-term grammar, with position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvaluationError(ValueError):
    """A factor of the term vanishes where its exact value was asked for."""


def as_fraction(x) -> Fraction:
    """An exact rational parameter: int or Fraction; anything else is a TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Factor(NamedTuple):
    alpha: int
    beta: Fraction
    exponent: int


class FactorList(FrozenValue):
    """Product of (alpha*n + beta)^exponent factors times a rational constant."""

    _fields = ("factors", "constant")

    def __init__(self, factors: tuple[Factor, ...], constant: Fraction = Fraction(1)):
        for f in factors:
            if f.alpha < 1:
                raise ValueError(f"factor slope must be a positive integer, got {f.alpha}")
            if f.exponent == 0:
                raise ValueError("factor exponents must be nonzero")
            if not isinstance(f.beta, Fraction):
                raise TypeError("factor offsets must be Fraction")
        if constant == 0:
            raise ValueError("constant multiplier must be nonzero")
        self._set(factors, constant)

    @cached_property
    def integer_form(self) -> tuple[tuple[int, int], int, tuple[tuple[int, int], ...]]:
        """(K', L, ((m, E), ...)): the term as K' * prod (n + c)^E with every
        offset c = m/L over one denominator.  K' = K * prod alpha^e is a
        reduced pair (num, den), L > 0 the lcm of the reduced denominators of
        the offsets c = beta/alpha, and E the summed exponents of the factors
        with offset c, in the order the offsets first appear.  Sums of 0 are
        kept, so the -m/L are every root of the unreduced term."""
        num, den = self.constant.numerator, self.constant.denominator
        merged = {}
        for alpha, beta, e in self.factors:
            if e > 0:
                num *= alpha**e
            else:
                den *= alpha**-e
            p, d = beta.numerator, beta.denominator * alpha
            g = math.gcd(p, d)
            key = (p // g, d // g)
            merged[key] = merged.get(key, 0) + e
        g = math.gcd(num, den)
        L = math.lcm(*(d for _, d in merged))
        return (num // g, den // g), L, tuple((p * (L // d), e) for (p, d), e in merged.items())

    def log_pairs(self, J: int) -> tuple[tuple[int, int, float], ...]:
        """(p_j, r_j, |beta_j|) for j = 1..J: beta_j = p_j/r_j are the 1/n
        coefficients of ``factored_log_expansion``, with c = m/L over the
        integer form, p_j = (-1)^(j+1) sum E m^j and r_j = j L^j.  Kept on
        the term; a longer J recomputes them."""
        pairs = self.__dict__.get("_log_pairs", ())
        if len(pairs) < J:
            _, L, offsets = self.integer_form
            sums = [0] * J  # sum E m^j, offset by offset
            for m, e in offsets:
                if m and e:
                    power = e
                    for j in range(J):
                        power *= m  # E m^(j+1)
                        sums[j] += power
            out, L_j = [], 1
            for j, total in enumerate(sums, start=1):
                L_j *= L
                p, r = (total if j % 2 else -total), j * L_j
                out.append((p, r, abs(p) / r))
            pairs = self.__dict__["_log_pairs"] = tuple(out)
        return pairs[:J]

    def __str__(self) -> str:
        return format_product_term(self)


def factor_list(triples, constant=Fraction(1)) -> FactorList:
    """Build a FactorList from (alpha, beta, exponent) triples."""
    return FactorList(tuple(Factor(int(a), as_fraction(b), int(e)) for a, b, e in triples),
                      as_fraction(constant))


class _Tokens:
    """A text split once into tokens by a grammar's pattern, whose one group
    is a token and which skips the spaces before it; both grammars, product
    terms here and ``expr``'s right-hand sides, read one.  The list ends in
    "", which starts at len(text).  Where a token starts in the text is
    worked out only for an error."""

    def __init__(self, pattern: re.Pattern, text: str):
        self.pattern = pattern
        self.text = text
        self.toks = pattern.findall(text) + [""]
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i]

    def take(self) -> str:
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, tok: str):
        if self.toks[self.i] != tok:
            raise self.error(f"expected {tok!r}")
        self.i += 1

    def error(self, message: str, i: int | None = None) -> ParseError:
        """A ParseError where token i (by default the current one) starts."""
        m = next(islice(self.pattern.finditer(self.text), self.i if i is None else i, None), None)
        return ParseError(message, m.start(1) if m else len(self.text))


def _is_number(tok: str) -> bool:
    """Number tokens, and only they, start with an ASCII digit."""
    return "0" <= tok[:1] <= "9"


# ---------------------------------------------------------------------------
# product-term grammar
#
#   product   := part ('/' part)?
#   part      := '(' factorseq ')' | factorseq
#   factorseq := factor+
#   factor    := '(' linear ')' ('^' int)?
#   linear    := [int] 'n' (('+'|'-') uint)? | int
#
# a token is a run of ASCII digits or one other non-space character, and
# spaces may go between tokens; an omitted slope means 1; integer factors
# like (2) fold into the constant multiplier.
# ---------------------------------------------------------------------------

_TERM_TOKENS = re.compile(r"\s*([0-9]+|\S)")


def _sign(tk: _Tokens) -> int:
    """Takes an optional '+' or '-': -1 after a '-', else 1."""
    return -1 if tk.peek() in ("+", "-") and tk.take() == "-" else 1


def _int(tk: _Tokens) -> int:
    sign = _sign(tk)
    if not _is_number(tk.peek()):
        raise tk.error("expected digits")
    return sign * int(tk.take())


def _parse_linear(tk: _Tokens) -> tuple[int, int | None]:
    """(alpha, beta) of alpha*n + beta, or (value, None) for an integer."""
    start = tk.i
    sign = _sign(tk)
    coeff = int(tk.take()) if _is_number(tk.peek()) else None
    if tk.peek() != "n":
        if coeff is None:
            raise tk.error("expected a linear factor or integer", start)
        return sign * coeff, None
    tk.take()
    alpha = sign * (1 if coeff is None else coeff)
    if alpha <= 0:
        raise tk.error(f"slope must be positive, got {alpha}", start)
    return alpha, _int(tk) if tk.peek() in ("+", "-") else 0


def _parse_factorseq(tk: _Tokens) -> tuple[list[Factor], Fraction]:
    """factor+, with integer factors folded into the constant; a zero
    exponent or constant is reported where its integer starts."""
    if tk.peek() != "(":
        raise tk.error("expected at least one factor")
    factors, constant = [], Fraction(1)
    while tk.peek() == "(":
        tk.take()
        start = tk.i
        a, b = _parse_linear(tk)
        tk.expect(")")
        e = 1
        if tk.peek() == "^":
            tk.take()
            at = tk.i
            e = _int(tk)
            if e == 0:
                raise tk.error("factor exponent must be nonzero", at)
        if b is not None:
            factors.append(Factor(a, Fraction(b), e))
        elif a == 0:
            raise tk.error("zero constant factor", start)
        else:
            constant *= Fraction(a) ** e
    return factors, constant


def _parse_part(tk: _Tokens) -> tuple[list[Factor], Fraction]:
    """A factorseq, or one wrapped in parentheses: a factor's linear never
    starts with '(', so only a part that opens with '((' may be wrapped."""
    if tk.peek() == "(" and tk.toks[tk.i + 1] == "(":
        save = tk.i
        try:
            tk.expect("(")
            fs = _parse_factorseq(tk)
            tk.expect(")")
            if tk.peek() in ("/", ""):
                return fs
        except ParseError:
            pass
        tk.i = save
    return _parse_factorseq(tk)


def parse_product_term(text: str) -> FactorList:
    """Parse product-term syntax like ``(2n+1)/(2n+2)`` into a FactorList."""
    tk = _Tokens(_TERM_TOKENS, text)
    factors, constant = _parse_part(tk)
    if tk.peek() == "/":
        tk.take()
        dfactors, dconstant = _parse_part(tk)
        factors += [Factor(f.alpha, f.beta, -f.exponent) for f in dfactors]
        constant /= dconstant
    if tk.peek():
        raise tk.error("unexpected trailing input")
    return FactorList(tuple(factors), constant)


def _format_linear(alpha: int, beta: Fraction) -> str:
    head = "n" if alpha == 1 else f"{alpha}n"
    if beta == 0:
        return head
    if beta.denominator == 1:
        b = beta.numerator
        return f"{head}+{b}" if b > 0 else f"{head}-{-b}"
    # non-integer offsets are not grammar-expressible; printed for debugging
    return f"{head}+({beta})"


def format_product_term(f: FactorList) -> str:
    """Render to the grammar; reparsing gives the term, numerator factors first."""
    num_parts, den_parts = [], []
    p, q = f.constant.numerator, f.constant.denominator
    if p != 1:
        num_parts.append(f"({p})")
    if q != 1:
        den_parts.append(f"({q})")
    for fac in f.factors:
        side = num_parts if fac.exponent > 0 else den_parts
        e = abs(fac.exponent)
        body = f"({_format_linear(fac.alpha, fac.beta)})"
        side.append(body if e == 1 else f"{body}^{e}")
    if not num_parts:
        num_parts = ["(1)"]
    num = "".join(num_parts)
    if not den_parts:
        return num
    den = "".join(den_parts)
    if len(num_parts) > 1:
        num = f"({num})"
    if len(den_parts) > 1:
        den = f"({den})"
    return f"{num}/{den}"


class ProductCheck(NamedTuple):
    """An exact verdict: ok, or the first criterion missed as ``reason``."""
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


# ---------------------------------------------------------------------------
# exact decisions read off the factors
# ---------------------------------------------------------------------------


def factored_zeros_poles(f: FactorList, n_start: int) -> list[int]:
    """Integers n >= n_start where a factor of the unreduced term vanishes."""
    _, L, offsets = f.integer_form
    return sorted(-m // L for m, _ in offsets if m % L == 0 and -m >= n_start * L)


def factored_convergence(f: FactorList, mode: str) -> ProductCheck:
    """The paper's criteria, read off the integer form.  Delta exponents need
    equal degrees (sum E = 0) and equal leading coefficients (K' = 1); theta
    exponents also need equal root sums (sum E c = 0, that is sum E m = 0).
    A failure names the first criterion missed."""
    if mode not in ("delta", "theta"):
        raise ValueError(f"mode must be 'delta' or 'theta', got {mode!r}")
    (num, den), _, offsets = f.integer_form
    if sum(e for _, e in offsets) != 0:
        return ProductCheck(False, "degree")
    if num != den:
        return ProductCheck(False, "leading-coefficient")
    if mode == "theta" and sum(m * e for m, e in offsets) != 0:
        return ProductCheck(False, "sum-of-roots")
    return ProductCheck(True)


def first_non_positive(f: FactorList, n_start: int) -> int | None:
    """Smallest integer n >= n_start where R(n) is zero, a pole or negative;
    None when R(n) > 0 for every such n.

    R(n) has the sign of K times (-1)^(sum of E over the roots -c above n),
    which changes only at the roots.  So the integers that decide it are
    n_start and the smallest integer >= each root; at an integer root R has
    a zero or a pole (a root whose E sums to 0 included), which fails at once.
    With c = m/L, n is at the root when n L = -m and below it when n L < -m,
    and the smallest integer >= -m/L is -(m // L).
    """
    (num, _), L, offsets = f.integer_form
    candidates = {n_start} | {-(m // L) for m, _ in offsets if -m >= n_start * L}
    for n in sorted(candidates):
        below = 0
        for m, e in offsets:
            if n * L == -m:
                return n
            if n * L < -m:
                below += e
        if (below % 2 == 1) == (num > 0):
            return n
    return None


def factored_log_expansion(f: FactorList, J: int) -> list[Fraction]:
    """Exact beta_1..beta_J with ln R(n) = sum_j beta_j n^-j + O(n^-(J+1)).

    Each factor contributes ln(alpha n) + ln(1 + c/n) with c = beta/alpha,
    so beta_j = (-1)^(j+1)/j * sum E c^j once the delta-mode criteria
    (required) have cancelled the ln n and constant terms.  Each beta_j is
    the Fraction p_j/r_j of the term's ``log_pairs``.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    verdict = factored_convergence(f, "delta")
    if not verdict:
        raise ValueError(f"expansion needs delta-convergent R ({verdict.reason})")
    return [Fraction(p, r) for p, r, _ in f.log_pairs(J)]


def value_pairs(f: FactorList, ns):
    """(P, Q) for each n of ns, over the term's integer form: P the product
    of (L n + m)^E over E > 0 and Q that of (L n + m)^-E over E < 0.  R(n)
    is K' L^-(sum E) P/Q, and P/Q for a convergent term (K' = 1, sum E = 0)."""
    _, L, offsets = f.integer_form
    ups = [(m, e) for m, e in offsets if e > 0]
    downs = [(m, -e) for m, e in offsets if e < 0]
    for n in ns:
        p = q = 1
        for m, e in ups:
            p *= (L * n + m) ** e
        for m, e in downs:
            q *= (L * n + m) ** e
        yield p, q


def exact_real_value(f: FactorList, n: int) -> Fraction:
    """Exact R(n) from ``value_pairs``; a factor that vanishes at n, cancelled
    or not, is an error."""
    (num, den), L, offsets = f.integer_form
    if any(L * n + m == 0 for m, _ in offsets):
        raise EvaluationError(f"a factor vanishes at n={n}")
    p, q = next(value_pairs(f, (n,)))
    degree = sum(e for _, e in offsets)
    return Fraction(num * p * L ** max(0, -degree), den * q * L ** max(0, degree))
