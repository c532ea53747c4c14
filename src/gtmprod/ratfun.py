"""Exact product terms in factored form, and the product-term surface syntax.

A product term is carried in factored form: a list of (alpha*n + beta)
with integer slopes and signed integer exponents, plus a rational
constant multiplier collected from bare integer factors like ``(2)``.
Every exact decision the package makes about a term is read off those
factors, with c_f = beta_f/alpha_f and K the constant.  Equal offsets
merge once per term into the normal form K' * prod (n + c)^E
(``FactorList.normal_form``), and the decisions read that:

* zeros and poles are the integers -c (``factored_zeros_poles``);
* convergence needs sum E = 0, K' = K * prod alpha_f^e_f = 1 and, for
  theta exponents, sum E c = 0 (``factored_convergence``);
* the sign of R(n) changes only at the roots -c, so positivity for
  every n >= start is decided at finitely many integers
  (``first_non_positive``);
* beta_j = (-1)^(j+1)/j * sum E c^j are the coefficients of ln R(n)
  in powers of 1/n (``FactorList.log_pairs``, over the integer offsets
  of ``FactorList.integer_form``);
* R(n) itself is a quotient of integer products (``exact_real_value``).

The normal form is plain ints: K' is a reduced pair (num, den) and each
offset c a reduced pair (p, d), so each decision is an integer
comparison, and each beta_j an integer pair (p_j, r_j).  ``Fraction``
appears only where the parser builds a term and where a public helper
returns an exact rational; floating point enters only through
correctly rounded int divisions and the ``evaluate_real`` boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .sequences import FrozenValue


class ParseError(ValueError):
    """Syntax error in the product-term grammar, with position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvaluationError(ValueError):
    """A factor hit zero, or a real evaluation produced a non-positive value."""


def as_fraction(x) -> Fraction:
    """An exact rational parameter: int or Fraction; anything else is a TypeError."""
    if isinstance(x, (int, Fraction)):
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
    def normal_form(self) -> tuple[tuple[int, int], dict[tuple[int, int], int]]:
        """The term as K' * prod (n + c)^E: K' = K * prod alpha^e as a reduced
        pair (num, den), and E the summed exponents of the factors with
        offset c = beta/alpha, keyed by c as a reduced pair (p, d); both
        denominators are positive.  Sums of 0 are kept, so the keys are every
        root -c of the unreduced term.  The dict is shared by every reader of
        the term: read it, never change it."""
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
        return (num // g, den // g), merged

    @cached_property
    def integer_form(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(L, [(m, E)]): the offsets of the normal form with E != 0 over one
        common denominator L of every offset, c = m/L."""
        merged = self.normal_form[1]
        L = math.lcm(*(d for _, d in merged))
        return L, tuple((p * (L // d), e) for (p, d), e in merged.items() if e)

    def log_pairs(self, J: int) -> tuple[tuple[int, int, float], ...]:
        """(p_j, r_j, |beta_j|) for j = 1..J: beta_j = p_j/r_j are the 1/n
        coefficients of ``factored_log_expansion``, with c = m/L over the
        integer form, p_j = (-1)^(j+1) sum E m^j and r_j = j L^j.  Kept on
        the term; a longer J recomputes them."""
        pairs = self.__dict__.get("_log_pairs", ())
        if len(pairs) < J:
            L, offsets = self.integer_form
            powers = [e for _, e in offsets]  # E m^j, j = 0 so far
            out = []
            for j in range(1, J + 1):
                powers = [x * m for x, (m, _) in zip(powers, offsets)]
                total = sum(powers)
                p, r = (total if j % 2 else -total), j * L**j
                out.append((p, r, abs(p) / r))
            pairs = self.__dict__["_log_pairs"] = tuple(out)
        return pairs[:J]

    def max_root_magnitude(self) -> float:
        """max |c| over the offsets with E != 0; the series radius of ln R(n)."""
        L, offsets = self.integer_form
        return max((abs(m) for m, _ in offsets), default=0) / L

    def __str__(self) -> str:
        return format_product_term(self)


def make_factor(alpha: int, beta, exponent: int) -> Factor:
    return Factor(int(alpha), as_fraction(beta), int(exponent))


def factor_list(triples, constant=Fraction(1)) -> FactorList:
    """Build a FactorList from (alpha, beta, exponent) triples."""
    return FactorList(tuple(make_factor(a, b, e) for a, b, e in triples),
                      as_fraction(constant))


# ---------------------------------------------------------------------------
# product-term grammar
#
#   product   := part ('/' part)?
#   part      := '(' factorseq ')' | factorseq
#   factorseq := factor+
#   factor    := '(' linear ')' ('^' int)?
#   linear    := [int] 'n' (('+'|'-') uint)? | int
#
# whitespace is ignored; an omitted slope means 1; integer factors like (2)
# fold into the constant multiplier.
# ---------------------------------------------------------------------------


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        if c:
            self.pos += 1
        return c

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def at_end(self) -> bool:
        return self.peek() == ""

    def read_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected digits", start)
        return int(self.text[start:self.pos])

    def read_int(self) -> int:
        self.skip_ws()
        sign = 1
        if self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -1
        return sign * self.read_uint()


def _parse_linear(cur: _Cursor) -> tuple[str, int, int]:
    """Return ('lin', alpha, beta) or ('const', value, 0)."""
    cur.skip_ws()
    start = cur.pos
    sign = 1
    if cur.peek() in ("+", "-"):
        if cur.take() == "-":
            sign = -1
    coeff = None
    if cur.peek().isdigit():
        coeff = cur.read_uint()
    if cur.peek() == "n":
        cur.take()
        alpha = sign * (1 if coeff is None else coeff)
        if alpha <= 0:
            raise ParseError(f"slope must be positive, got {alpha}", start)
        beta = 0
        if cur.peek() in ("+", "-"):
            neg = cur.take() == "-"
            b = cur.read_uint()
            beta = -b if neg else b
        return ("lin", alpha, beta)
    if coeff is None:
        raise ParseError("expected a linear factor or integer", start)
    return ("const", sign * coeff, 0)


def _parse_factor(cur: _Cursor) -> tuple[str, int, int, int]:
    """One parenthesized factor with optional exponent."""
    cur.expect("(")
    kind, a, b = _parse_linear(cur)
    cur.expect(")")
    exponent = 1
    if cur.peek() == "^":
        cur.take()
        exponent = cur.read_int()
        if exponent == 0:
            raise ParseError("factor exponent must be nonzero", cur.pos)
    return (kind, a, b, exponent)


def _parse_factorseq(cur: _Cursor) -> tuple[list[Factor], Fraction]:
    factors: list[Factor] = []
    constant = Fraction(1)
    saw_any = False
    while cur.peek() == "(":
        kind, a, b, e = _parse_factor(cur)
        saw_any = True
        if kind == "lin":
            factors.append(make_factor(a, b, e))
        else:
            if a == 0:
                raise ParseError("zero constant factor", cur.pos)
            constant *= Fraction(a) ** e
    if not saw_any:
        raise ParseError("expected at least one factor", cur.pos)
    return factors, constant


def _parse_part(cur: _Cursor) -> tuple[list[Factor], Fraction]:
    if cur.peek() == "(":
        save = cur.pos
        try:
            cur.expect("(")
            fs = _parse_factorseq(cur)
            cur.expect(")")
            if cur.peek() in ("/", ""):
                return fs
            raise ParseError("trailing input after wrapped part", cur.pos)
        except ParseError:
            cur.pos = save
    return _parse_factorseq(cur)


def parse_product_term(text: str) -> FactorList:
    """Parse product-term syntax like ``(2n+1)/(2n+2)`` into a FactorList."""
    cur = _Cursor(text)
    factors, constant = _parse_part(cur)
    if cur.peek() == "/":
        cur.take()
        dfactors, dconstant = _parse_part(cur)
        factors += [Factor(f.alpha, f.beta, -f.exponent) for f in dfactors]
        constant /= dconstant
    if not cur.at_end():
        raise ParseError("unexpected trailing input", cur.pos)
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
    """Render to the grammar; reparsing a rendered term is the identity."""
    num_parts = []
    den_parts = []
    if f.constant != 1:
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
    return sorted(-p for p, d in f.normal_form[1] if d == 1 and -p >= n_start)


def factored_convergence(f: FactorList, mode: str) -> ProductCheck:
    """The paper's criteria, read off the normal form.  Delta exponents need
    equal degrees (sum E = 0) and equal leading coefficients (K' = 1); theta
    exponents also need equal root sums (sum E c = 0, over the integer form
    sum E m = 0).  A failure names the first criterion missed."""
    if mode not in ("delta", "theta"):
        raise ValueError(f"mode must be 'delta' or 'theta', got {mode!r}")
    (num, den), merged = f.normal_form
    if sum(merged.values()) != 0:
        return ProductCheck(False, "degree")
    if num != den:
        return ProductCheck(False, "leading-coefficient")
    if mode == "theta" and sum(m * e for m, e in f.integer_form[1]) != 0:
        return ProductCheck(False, "sum-of-roots")
    return ProductCheck(True)


def first_non_positive(f: FactorList, n_start: int) -> int | None:
    """Smallest integer n >= n_start where R(n) is zero, a pole or negative;
    None when R(n) > 0 for every such n.

    R(n) has the sign of K times (-1)^(sum of E over the roots -c above n),
    which changes only at the roots.  So the integers that decide it are
    n_start and the smallest integer >= each root; at an integer root R has
    a zero or a pole (a root whose E sums to 0 included), which fails at once.
    With c = p/d, d > 0, n is at the root when n d = -p and below it when
    n d < -p, and the smallest integer >= -p/d is -(p // d).
    """
    (num, _), merged = f.normal_form
    candidates = {n_start} | {-(p // d) for p, d in merged if -p >= n_start * d}
    for n in sorted(candidates):
        below = 0
        for (p, d), e in merged.items():
            if n * d == -p:
                return n
            if n * d < -p:
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


def exact_real_value(f: FactorList, n: int) -> Fraction:
    """Exact R(n) as one quotient of integer products; zero factors are
    errors."""
    num, den = f.constant.numerator, f.constant.denominator
    for fac in f.factors:
        b = fac.beta
        v = fac.alpha * n * b.denominator + b.numerator  # (alpha n + beta) * den(beta)
        if v == 0:
            raise EvaluationError(f"zero factor ({fac.alpha}n+{fac.beta}) at n={n}")
        e = fac.exponent
        if e > 0:
            num *= v**e
            den *= b.denominator**e
        else:
            num *= b.denominator**-e
            den *= v**-e
    return Fraction(num, den)


def evaluate_real(f: FactorList, n: int) -> float:
    """Exact R(n) mapped to binary64; must be positive."""
    v = exact_real_value(f, n)
    if v <= 0:
        raise EvaluationError(f"term value at n={n} is not positive: {v}")
    return float(v)
