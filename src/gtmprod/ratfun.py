"""Exact product terms in factored form, and the product-term surface syntax.

A product term is carried in factored form: a list of (alpha*n + beta)
with integer slopes and signed integer exponents, plus a rational
constant multiplier collected from bare integer factors like ``(2)``.
Every exact decision the package makes about a term is read off those
factors, with c_f = beta_f/alpha_f and K the constant:

* equal offsets merge into K' * prod (n + c)^E (``factored_normal_form``);
* zeros and poles are the integers -c_f (``factored_zeros_poles``);
* convergence needs sum e_f = 0, K * prod alpha_f^e_f = 1 and, for theta
  exponents, sum e_f c_f = 0 (``factored_convergence``);
* the sign of R(n) changes only at the roots -c_f, so positivity for
  every n >= start is decided at finitely many integers
  (``first_non_positive``);
* beta_j = (-1)^(j+1)/j * sum_f e_f c_f^j are the coefficients of ln R(n)
  in powers of 1/n (``factored_log_expansion``);
* R(n) itself is a quotient of integer products (``exact_real_value``).

Offsets are Gaussian rationals (pairs of ``fractions.Fraction``), so each
decision is an exact comparison; floating point enters only through the
``evaluate_real`` boundary.  The dense route -- ``to_rational_function``
into ``Poly`` numerator and denominator, then ``integer_zeros_poles``,
``convergence_check`` and ``log_expansion`` -- stays public and serves as
an independent oracle for the factored decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

Rational = Fraction  # exact arbitrary-precision rationals; stdlib does this job


class ParseError(ValueError):
    """Syntax error in the product-term grammar, with position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvaluationError(ValueError):
    """A factor hit zero, or a real evaluation produced a non-positive value."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        return GaussRational(_frac(x))

    def __add__(self, other):
        o = GaussRational.of(other)
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussRational.of(other)
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussRational.of(other) - self

    def __mul__(self, other):
        o = GaussRational.of(other)
        return GaussRational(self.re * o.re - self.im * o.im,
                             self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussRational.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        return GaussRational((self.re * o.re + self.im * o.im) / n,
                             (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        return GaussRational.of(other) / self

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def magnitude(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


_GR_ZERO = GaussRational()
_GR_ONE = GaussRational(Fraction(1))


class Poly:
    """Dense polynomial over GaussRational, constant coefficient first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [GaussRational.of(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls) -> "Poly":
        return cls([_GR_ONE])

    @classmethod
    def linear(cls, alpha, beta) -> "Poly":
        return cls([GaussRational.of(beta), GaussRational.of(alpha)])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> GaussRational:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly([])
        out = [_GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = GaussRational.of(c)
        return Poly([a * c for a in self.coeffs])

    def eval_at(self, n) -> GaussRational:
        x = GaussRational.of(n)
        acc = _GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def root_sum(self) -> GaussRational:
        """Sum of roots by Vieta: -c_{d-1}/c_d (zero for constants)."""
        if self.is_zero:
            raise ValueError("zero polynomial has no roots sum")
        if self.degree == 0:
            return _GR_ZERO
        return -self.coeffs[-2] / self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"


class Factor(NamedTuple):
    alpha: int
    beta: GaussRational
    exponent: int


@dataclass(frozen=True)
class FactorList:
    """Product of (alpha*n + beta)^exponent factors times a rational constant."""

    factors: tuple[Factor, ...]
    constant: Fraction = Fraction(1)

    def __post_init__(self):
        for f in self.factors:
            if f.alpha < 1:
                raise ValueError(f"factor slope must be a positive integer, got {f.alpha}")
            if f.exponent == 0:
                raise ValueError("factor exponents must be nonzero")
            if not isinstance(f.beta, GaussRational):
                raise TypeError("factor offsets must be GaussRational")
        if self.constant == 0:
            raise ValueError("constant multiplier must be nonzero")

    @property
    def is_real(self) -> bool:
        return all(f.beta.is_real for f in self.factors)

    def max_root_magnitude(self) -> float:
        """max |beta/alpha| over factors; the series radius of ln R(n)."""
        best = 0.0
        for f in self.factors:
            best = max(best, f.beta.magnitude() / f.alpha)
        return best

    def __str__(self) -> str:
        return format_product_term(self)


def make_factor(alpha: int, beta, exponent: int) -> Factor:
    return Factor(int(alpha), GaussRational.of(beta), int(exponent))


def factor_list(triples, constant=Fraction(1)) -> FactorList:
    """Build a FactorList from (alpha, beta, exponent) triples."""
    return FactorList(tuple(make_factor(a, b, e) for a, b, e in triples),
                      _frac(constant))


@dataclass(frozen=True)
class RationalFunction:
    """Unreduced numerator/denominator pair; no gcd cancellation ever."""

    num: Poly
    den: Poly

    def __post_init__(self):
        if self.den.is_zero:
            raise ValueError("denominator must not be the zero polynomial")


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


def _format_linear(alpha: int, beta: GaussRational) -> str:
    head = "n" if alpha == 1 else f"{alpha}n"
    if beta.is_zero:
        return head
    if beta.is_real and beta.re.denominator == 1:
        b = beta.re.numerator
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


def to_rational_function(f: FactorList) -> RationalFunction:
    """Expand the factored form into exact numerator/denominator polynomials."""
    num = Poly.one().scale(GaussRational(Fraction(f.constant.numerator)))
    den = Poly.one().scale(GaussRational(Fraction(f.constant.denominator)))
    for fac in f.factors:
        p = Poly.linear(fac.alpha, fac.beta)
        side = num if fac.exponent > 0 else den
        for _ in range(abs(fac.exponent)):
            side = side * p
        if fac.exponent > 0:
            num = side
        else:
            den = side
    return RationalFunction(num, den)


@dataclass(frozen=True)
class ConvergenceVerdict:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def convergence_check(R: RationalFunction, mode: str) -> ConvergenceVerdict:
    """Exact criteria: equal degrees and leading coefficients for delta
    exponents; theta exponents additionally need equal root sums (Vieta)."""
    if mode not in ("delta", "theta"):
        raise ValueError(f"mode must be 'delta' or 'theta', got {mode!r}")
    if R.num.is_zero:
        raise ValueError("numerator is the zero polynomial")
    if R.num.degree != R.den.degree:
        return ConvergenceVerdict(False, "degree")
    if R.num.leading != R.den.leading:
        return ConvergenceVerdict(False, "leading-coefficient")
    if mode == "theta" and R.num.root_sum() != R.den.root_sum():
        return ConvergenceVerdict(False, "sum-of-roots")
    return ConvergenceVerdict(True)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return out


_DIVISOR_SCAN_LIMIT = 10**12
_ROOT_SCAN_LIMIT = 2 * 10**6


def _log_magnitude(c: GaussRational) -> float:
    """log of an upper estimate of |c| that is safe for huge integers."""
    m = max(abs(c.re.numerator) * c.im.denominator,
            abs(c.im.numerator) * c.re.denominator)
    if m == 0:
        return -math.inf
    return math.log(m) - math.log(c.re.denominator * c.im.denominator) + 0.5 * math.log(2)


def _fujiwara_root_bound(p: Poly) -> int:
    """Every root satisfies |z| <= 2 max_k |c_{d-k}/c_d|^(1/k) (Fujiwara).

    Computed through logarithms so astronomically large exact coefficients
    do not overflow; the estimate is inflated a little, which only adds a
    few candidates to verify.
    """
    d = p.degree
    log_lead = _log_magnitude(p.leading) - 0.5 * math.log(2)  # lower estimate
    worst = 0.0
    for k in range(1, d + 1):
        lc = _log_magnitude(p.coeffs[d - k])
        if lc == -math.inf:
            continue
        worst = max(worst, (lc - log_lead) / k)
    return 2 + math.ceil(2.0 * math.exp(worst))


def _integer_roots(p: Poly) -> set[int]:
    """All integer roots of a nonzero GaussRational polynomial, exactly.

    Candidates come from the divisors of the trailing integer coefficient
    when that is small enough to enumerate; otherwise from the integers
    inside Cauchy's root bound.  Either candidate set is verified by exact
    evaluation, so the result is exact in both regimes.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    denom_lcm = 1
    for c in p.coeffs:
        denom_lcm = math.lcm(denom_lcm, c.re.denominator, c.im.denominator)
    re_int = [int(c.re * denom_lcm) for c in p.coeffs]
    im_int = [int(c.im * denom_lcm) for c in p.coeffs]
    base = re_int if any(re_int) else im_int
    m = next(i for i, c in enumerate(base) if c)
    roots = set()
    if m > 0 and p.eval_at(0).is_zero:
        roots.add(0)
    if abs(base[m]) <= _DIVISOR_SCAN_LIMIT:
        candidates = (s * d for d in _divisors(base[m]) for s in (1, -1))
    else:
        bound = _fujiwara_root_bound(p)
        if bound > _ROOT_SCAN_LIMIT:
            raise ArithmeticError(
                "integer-root search infeasible: trailing coefficient too "
                f"large to factor and root bound {bound} too large to scan")
        candidates = (c for c in range(-bound, bound + 1) if c != 0)
    for cand in candidates:
        if p.eval_at(cand).is_zero:
            roots.add(cand)
    return roots


def integer_zeros_poles(R: RationalFunction, n_start: int) -> list[int]:
    """Integers n >= n_start where the unreduced term has a zero or a pole."""
    if R.num.is_zero:
        raise ValueError("numerator is the zero polynomial")
    bad = _integer_roots(R.num) | _integer_roots(R.den)
    return sorted(r for r in bad if r >= n_start)


def _series_log(f: list[GaussRational], J: int) -> list[GaussRational]:
    """log of a truncated series with f[0] = 1, via the standard recurrence
    L_n = f_n - sum_{k<n} (k/n) L_k f_{n-k}."""
    L = [_GR_ZERO] * (J + 1)
    for m in range(1, J + 1):
        acc = f[m]
        for k in range(1, m):
            if not (L[k].is_zero or f[m - k].is_zero):
                acc = acc - L[k] * f[m - k] * GaussRational(Fraction(k, m))
        L[m] = acc
    return L


def _reversed_series(p: Poly, J: int) -> list[GaussRational]:
    """Coefficients of p(n) / (lead * n^deg) as a series in x = 1/n."""
    d = p.degree
    lead = p.leading
    out = []
    for j in range(J + 1):
        c = p.coeffs[d - j] if d - j >= 0 else _GR_ZERO
        out.append(c / lead)
    return out


def log_expansion(R: RationalFunction, J: int) -> list[GaussRational]:
    """Exact beta_1..beta_J with ln R(n) = sum_j beta_j n^-j + O(n^-(J+1)).

    Requires the delta-mode convergence criteria, which kill the constant
    and positive-power terms of the expansion.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    verdict = convergence_check(R, "delta")
    if not verdict:
        raise ValueError(f"expansion needs delta-convergent R ({verdict.reason})")
    log_num = _series_log(_reversed_series(R.num, J), J)
    log_den = _series_log(_reversed_series(R.den, J), J)
    return [log_num[j] - log_den[j] for j in range(1, J + 1)]


# ---------------------------------------------------------------------------
# exact decisions read off the factors; the dense functions above are their
# oracle in the tests
# ---------------------------------------------------------------------------


def _offset(fac: Factor):
    """c = beta/alpha, as a Fraction when the offset is real."""
    if fac.beta.is_real:
        return fac.beta.re / fac.alpha
    return fac.beta / fac.alpha


def factored_zeros_poles(f: FactorList, n_start: int) -> list[int]:
    """Integers n >= n_start where a factor of the unreduced term vanishes."""
    out = set()
    for fac in f.factors:
        if fac.beta.is_real:
            root = -_offset(fac)
            if root.denominator == 1 and root >= n_start:
                out.add(int(root))
    return sorted(out)


def factored_normal_form(f: FactorList) -> tuple[Fraction, dict]:
    """f as K' * prod (n + c)^E: K' = K * prod alpha^e, and E the summed
    exponents of the factors with offset c = beta/alpha (sums of 0 kept)."""
    scale = Fraction(f.constant)
    merged = {}
    for fac in f.factors:
        scale *= Fraction(fac.alpha) ** fac.exponent
        c = _offset(fac)
        merged[c] = merged.get(c, 0) + fac.exponent
    return scale, merged


def factored_convergence(f: FactorList, mode: str) -> ConvergenceVerdict:
    """The criteria of ``convergence_check``, read off the factors: the
    exponents sum to 0, K * prod alpha^e = 1, and for theta exponents also
    sum e * beta/alpha = 0."""
    if mode not in ("delta", "theta"):
        raise ValueError(f"mode must be 'delta' or 'theta', got {mode!r}")
    scale, merged = factored_normal_form(f)
    if sum(merged.values()) != 0:
        return ConvergenceVerdict(False, "degree")
    if scale != 1:
        return ConvergenceVerdict(False, "leading-coefficient")
    if mode == "theta" and not GaussRational.of(sum(e * c for c, e in merged.items())).is_zero:
        return ConvergenceVerdict(False, "sum-of-roots")
    return ConvergenceVerdict(True)


def first_non_positive(f: FactorList, n_start: int) -> int | None:
    """Smallest integer n >= n_start where R(n) is zero, a pole or negative;
    None when R(n) > 0 for every such n.  Needs real offsets.

    R(n) has the sign of K times (-1)^(sum of e over the factors with
    n < -beta/alpha), which changes only at the roots.  So the integers
    that decide it are n_start and the smallest integer >= each root; at
    an integer root R has a zero or a pole, which fails at once.
    """
    if not f.is_real:
        raise ValueError("positivity is decided for real offsets only")
    roots = [(-_offset(fac), fac.exponent) for fac in f.factors]
    candidates = {n_start} | {math.ceil(root) for root, _ in roots if root >= n_start}
    for n in sorted(candidates):
        below = 0
        for root, e in roots:
            if n == root:
                return n
            if n < root:
                below += e
        if (below % 2 == 1) == (f.constant > 0):
            return n
    return None


def factored_log_expansion(f: FactorList, J: int) -> list[GaussRational]:
    """Exact beta_1..beta_J with ln R(n) = sum_j beta_j n^-j + O(n^-(J+1)).

    Each factor contributes ln(alpha n) + ln(1 + c/n) with c = beta/alpha,
    so beta_j = (-1)^(j+1)/j * sum_f e_f c_f^j once the delta-mode criteria
    (required) have cancelled the ln n and constant terms.
    """
    if J < 0:
        raise ValueError("J must be >= 0")
    verdict = factored_convergence(f, "delta")
    if not verdict:
        raise ValueError(f"expansion needs delta-convergent R ({verdict.reason})")
    _, merged = factored_normal_form(f)
    sums = [0] * J
    for c, e in merged.items():
        if e == 0 or c == 0:
            continue
        power = e
        for j in range(J):
            power = power * c
            sums[j] += power
    return [GaussRational.of(s * Fraction(-1 if j % 2 else 1, j + 1))
            for j, s in enumerate(sums)]


def exact_real_value(f: FactorList, n: int) -> Fraction:
    """Exact R(n) for real offsets, as one quotient of integer products;
    zero factors are errors."""
    num, den = f.constant.numerator, f.constant.denominator
    for fac in f.factors:
        if not fac.beta.is_real:
            raise ValueError("exact_real_value needs real offsets")
        b = fac.beta.re
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


def evaluate_factorlist(f: FactorList, n: int) -> GaussRational:
    """Exact value of the product term at integer n; zero factors are errors."""
    acc = GaussRational(f.constant)
    x = GaussRational.of(n)
    for fac in f.factors:
        v = x * fac.alpha + fac.beta
        if v.is_zero:
            raise EvaluationError(f"zero factor ({fac.alpha}n+{fac.beta}) at n={n}")
        e = fac.exponent
        if e > 0:
            for _ in range(e):
                acc = acc * v
        else:
            for _ in range(-e):
                acc = acc / v
    return acc


def evaluate_rational(R: RationalFunction, n: int) -> GaussRational:
    """Exact value num(n)/den(n); raises on a zero or a pole."""
    den = R.den.eval_at(n)
    if den.is_zero:
        raise EvaluationError(f"pole at n={n}")
    num = R.num.eval_at(n)
    if num.is_zero:
        raise EvaluationError(f"zero at n={n}")
    return num / den


def evaluate_at(term: Union[FactorList, RationalFunction], n: int) -> GaussRational:
    if isinstance(term, FactorList):
        return evaluate_factorlist(term, n)
    if isinstance(term, RationalFunction):
        return evaluate_rational(term, n)
    raise TypeError(f"expected FactorList or RationalFunction, got {type(term).__name__}")


def evaluate_real(f: FactorList, n: int) -> float:
    """Exact R(n) of a real term mapped to binary64; must be positive."""
    v = exact_real_value(f, n)
    if v <= 0:
        raise EvaluationError(f"term value at n={n} is not positive: {v}")
    return float(v)
