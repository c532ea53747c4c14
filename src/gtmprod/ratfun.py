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

A term is stored in plain ints: each factor as (alpha, p, d, e) with
beta = p/d reduced, and K as a reduced pair.  The parser and the
identity builders (``evaluator.build_*_term``, ``families``) emit that
store directly, putting their rational parameters over one common
denominator (``over_common_denominator``); a term built from ``Factor``
triples converts to it once.  The integer form is derived from the store
with int gcd and lcm: K' is a reduced pair (num, den), L and each m are
ints, so each decision is an integer comparison, and each beta_j an
integer pair (p_j, r_j).  ``Fraction`` appears only in the public view of
a term (``FactorList.factors`` and ``.constant``, built when read), in
``as_fraction`` and ``factor_list``, and where a public helper returns an
exact rational, and ``fractions`` is imported only there; floating point
enters only through correctly rounded int divisions.

Product terms and the right-hand sides of ``expr`` are read by one scanner,
``_Tokens``: a compiled pattern per grammar splits the text once into
tokens, and a ``ParseError`` gives where the offending token starts.

The module also holds what both evaluators share: the product spec
(``ProductSpec``), its exact check (``check_product``) and refusal
(``ProductRejectedError``), and the result both return (``EvalResult``).
It imports only ``sequences``, so a spec is built and checked, and the
direct oracle runs, without loading the Dirichlet ladder.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

from .sequences import FrozenValue, _as_int

if TYPE_CHECKING:
    from fractions import Fraction

    from .sequences import MultiplicativeSequence

_ROUND_UP = 1.0 + 2.0**-30  # covers the binary64 rounding of error bounds


class ParseError(ValueError):
    """Syntax error in the product-term grammar, with position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvaluationError(ValueError):
    """A factor of the term vanishes where its exact value was asked for."""


def as_pair(x) -> tuple[int, int]:
    """An exact rational parameter as a reduced pair (p, d), d > 0: int or
    Fraction; anything else, bool included, is a TypeError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x, 1
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _fraction(p: int, d: int) -> Fraction:
    """The Fraction p/d: ``fractions`` is imported where a Fraction is built."""
    from fractions import Fraction

    return Fraction(p, d)


def as_fraction(x) -> Fraction:
    """An exact rational parameter (see ``as_pair``) as a Fraction; a Fraction
    is returned unchanged."""
    from fractions import Fraction

    return x if isinstance(x, Fraction) else Fraction(*as_pair(x))


def over_common_denominator(xs) -> tuple[list[int], int]:
    """Exact rational parameters (see ``as_pair``) as ints X_i over one
    denominator D > 0, the lcm of theirs: x_i = X_i/D."""
    pairs = [as_pair(x) for x in xs]
    D = math.lcm(*(d for _, d in pairs))
    return [p * (D // d) for p, d in pairs], D


class Factor(NamedTuple):
    alpha: int
    beta: Fraction
    exponent: int


class FactorList(FrozenValue):
    """Product of (alpha*n + beta)^exponent factors times a rational constant.

    The term is stored in plain ints: each factor as (alpha, p, d, e) with
    beta = p/d reduced, d > 0, and the constant K as a reduced pair (num,
    den), den > 0; equality and hashing read these.  ``factors`` and
    ``constant``, the public shape of ``Factor`` triples and a ``Fraction``,
    are views built when first read; a term built from ``Factor`` triples
    keeps the ``factors`` it was given, and an int or Fraction ``constant``
    only as its pair."""

    _fields = ("factors", "constant")

    def __init__(self, factors: tuple[Factor, ...], constant: int | Fraction = 1):
        from fractions import Fraction

        for f in factors:
            if _as_int(f.alpha, "factor slope") < 1:
                raise ValueError(f"factor slope must be a positive integer, got {f.alpha}")
            if _as_int(f.exponent, "factor exponent") == 0:
                raise ValueError("factor exponents must be nonzero")
            if not isinstance(f.beta, Fraction):
                raise TypeError("factor offsets must be Fraction")
        k = as_pair(constant)
        if k[0] == 0:
            raise ValueError("constant multiplier must be nonzero")
        self.__dict__.update(factors=factors, _constant=k, _factors=tuple(
            (f.alpha, f.beta.numerator, f.beta.denominator, f.exponent) for f in factors))

    @classmethod
    def from_ints(cls, triples, D: int = 1, constant: tuple[int, int] = (1, 1)) -> FactorList:
        """The term of (alpha, P, e) int triples, with offsets beta = P/D over
        one denominator D > 0, times the constant given as a reduced pair
        (num, den), den > 0.  The callers, the parser and the builders, have
        checked that every slope is positive, every exponent nonzero and num
        nonzero."""
        factors = []
        for alpha, p, e in triples:
            g = math.gcd(p, D)
            factors.append((alpha, p // g, D // g, e))
        term = cls.__new__(cls)
        term.__dict__.update(_factors=tuple(factors), _constant=constant)
        return term

    def _key(self) -> tuple:
        return self._factors, self._constant

    @cached_property
    def factors(self) -> tuple[Factor, ...]:
        return tuple(Factor(alpha, _fraction(p, d), e) for alpha, p, d, e in self._factors)

    @cached_property
    def constant(self) -> Fraction:
        return _fraction(*self._constant)

    @cached_property
    def integer_form(self) -> tuple[tuple[int, int], int, tuple[tuple[int, int], ...]]:
        """(K', L, ((m, E), ...)): the term as K' * prod (n + c)^E with every
        offset c = m/L over one denominator.  K' = K * prod alpha^e is a
        reduced pair (num, den), L > 0 the lcm of the reduced denominators of
        the offsets c = beta/alpha, and E the summed exponents of the factors
        with offset c, in the order the offsets first appear.  Sums of 0 are
        kept, so the -m/L are every root of the unreduced term."""
        num, den = self._constant
        merged = {}
        for alpha, p, d, e in self._factors:
            if alpha != 1:
                if e > 0:
                    num *= alpha**e
                else:
                    den *= alpha**-e
                d *= alpha
                g = math.gcd(p, d)
                p, d = p // g, d // g
            merged[p, d] = merged.get((p, d), 0) + e
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


def factor_list(triples, constant=1) -> FactorList:
    """Build a FactorList from (alpha, beta, exponent) triples: int slopes
    and exponents, int or Fraction offsets and constant."""
    return FactorList(tuple(Factor(a, as_fraction(b), e) for a, b, e in triples), constant)


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


def _parse_factorseq(tk: _Tokens) -> tuple[list[tuple[int, int, int]], int, int]:
    """factor+ as (alpha, beta, e) int triples, with integer factors folded
    into the constant num/den; a zero exponent or constant is reported where
    its integer starts."""
    if tk.peek() != "(":
        raise tk.error("expected at least one factor")
    factors, num, den = [], 1, 1
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
            factors.append((a, b, e))
        elif a == 0:
            raise tk.error("zero constant factor", start)
        elif e > 0:
            num *= a**e
        else:
            den *= a**-e
    return factors, num, den


def _parse_part(tk: _Tokens) -> tuple[list[tuple[int, int, int]], int, int]:
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
    factors, num, den = _parse_part(tk)
    if tk.peek() == "/":
        tk.take()
        dfactors, dnum, dden = _parse_part(tk)
        factors += [(a, b, -e) for a, b, e in dfactors]
        num, den = num * dden, den * dnum
    if tk.peek():
        raise tk.error("unexpected trailing input")
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return FactorList.from_ints(factors, 1, (num // g, den // g))


def _format_linear(alpha: int, p: int) -> str:
    head = "n" if alpha == 1 else f"{alpha}n"
    if p == 0:
        return head
    return f"{head}+{p}" if p > 0 else f"{head}-{-p}"


def format_product_term(f: FactorList) -> str:
    """Render to the grammar, numerator factors first.  An offset p/d prints
    as (alpha n + p/d)^e = d^-e (alpha d n + p)^e, with d^-e folded into the
    constant, so reparsing gives a term of the same integer form, and the
    term itself when every offset is an integer."""
    num_parts, den_parts = [], []
    p, q = f._constant
    for _, _, d, e in f._factors:
        if e > 0:
            q *= d**e
        else:
            p *= d**-e
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if p != 1:
        num_parts.append(f"({p})")
    if q != 1:
        den_parts.append(f"({q})")
    for alpha, b, d, e in f._factors:
        side = num_parts if e > 0 else den_parts
        body = f"({_format_linear(alpha * d, b)})"
        side.append(body if abs(e) == 1 else f"{body}^{abs(e)}")
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
    return [_fraction(p, r) for p, r, _ in f.log_pairs(J)]


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
    return _fraction(num * p * L ** max(0, -degree), den * q * L ** max(0, degree))


# ---------------------------------------------------------------------------
# the product spec, its exact check, and the evaluators' shared result
# ---------------------------------------------------------------------------


class ProductRejectedError(ValueError):
    """The product spec fails a convergence or well-definedness criterion."""

    def __init__(self, reason: str):
        super().__init__(f"rejected: {reason}")
        self.reason = reason


class ProductSpec(FrozenValue):
    """An infinite product: sequence, exponent mode, start index (an int, not
    a bool), and term."""

    _fields = ("seq", "mode", "start", "term")

    def __init__(self, seq: MultiplicativeSequence, mode: str, start: int, term: FactorList):
        if mode not in ("delta", "theta"):
            raise ValueError(f"mode must be 'delta' or 'theta', got {mode!r}")
        _as_int(start, "start")
        self._set(seq, mode, start, term)

    @cached_property
    def verdict(self) -> ProductCheck:
        """``check_product`` of this spec, decided once: a spec is immutable."""
        return check_product(self)


class EvalResult(NamedTuple):
    value: float
    log_value: float
    est_error: float
    method: str
    terms_used: int
    dirichlet_orders: int


def check_product(spec: ProductSpec) -> ProductCheck:
    """Enforce every ProductSpec invariant, reporting the first violation.

    Every decision is exact and read off the term's factors; positivity is
    decided for every n >= start, not sampled.
    """
    if not spec.seq.nontrivial:
        return ProductCheck(False, "trivial-pattern")
    if spec.start not in (0, 1):
        return ProductCheck(False, "start-out-of-range")
    offenders = factored_zeros_poles(spec.term, spec.start)
    if offenders:
        return ProductCheck(False, f"zero-or-pole at n={offenders[0]}")
    verdict = factored_convergence(spec.term, spec.mode)
    if not verdict:
        return verdict
    n = first_non_positive(spec.term, spec.start)
    if n is not None:
        return ProductCheck(False, f"non-positive-term at n={n}")
    return ProductCheck(True)


def _require_ok(spec: ProductSpec):
    if not spec.verdict:
        raise ProductRejectedError(spec.verdict.reason)


def _log_quotient(num: int, den: int) -> float:
    """ln(num/den) for a positive quotient of ints, num/den rounded once.  A
    quotient that may leave binary64's normal range, 2^(k-1) < num/den <
    2^(k+1) with k outside [-1021, 1022], is first scaled exactly by 2^-k,
    into (1/2, 2], and k ln 2 is added back."""
    k = num.bit_length() - den.bit_length()
    if -1021 <= k <= 1022:
        return math.log(num / den)
    x = num / (den << k) if k > 0 else (num << -k) / den
    return math.log(x) + k * math.log(2.0)


def _exp(log_value: float) -> float:
    """exp(log_value) rounded to binary64.  Past ln(2^1024) that is inf,
    returned where math.exp raises OverflowError, as it returns 0.0 past
    the underflow threshold."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf
