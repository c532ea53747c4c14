"""The factored decisions in ratfun against small brute-force references.

Random factor lists with small slopes and offsets, including repeated,
cancelling and same-slope paired factors (paired factors make the
convergence criteria hold often enough to exercise the expansion).  Each
reference works from the definition of R(n) = K prod (alpha n + beta)^e:
an integer scan for zeros and poles, an exact Fraction product for values
and signs, and R(n) at huge n in mpmath for convergence and the 1/n
expansion.
"""

import math
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gtmprod.evaluator import _log1p_pairs, _log_quotient, _series_cutoff
from gtmprod.ratfun import (
    EvaluationError,
    Factor,
    FactorList,
    exact_real_value,
    factor_list,
    factored_convergence,
    factored_log_expansion,
    factored_zeros_poles,
    first_non_positive,
)

offsets = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 2))
exponents = st.sampled_from([-2, -1, 1, 2])


@st.composite
def factor_lists(draw, balance=None):
    """balance: None (anything), 'delta' (paired slopes and exponents, K = 1)
    or 'theta' (as delta, plus a pair that zeroes sum e * beta/alpha)."""
    base = draw(st.lists(st.tuples(st.integers(1, 4), offsets, exponents), max_size=4))
    triples = []
    for a, b, e in base:
        triples.append((a, b, e))
        kind = "pair" if balance else draw(st.sampled_from(["none", "repeat", "cancel", "pair"]))
        if kind == "repeat":
            triples.append((a, b, e))
        elif kind == "cancel":
            triples.append((a, b, -e))
        elif kind == "pair":
            triples.append((a, draw(offsets), -e))
    if balance == "theta":
        root_sum = sum(b * Fraction(e, a) for a, b, e in triples)
        x = draw(offsets)
        triples += [(1, x, 1), (1, root_sum + x, -1)]
    constant = Fraction(1) if balance else draw(
        st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-1)]))
    return factor_list(draw(st.permutations(triples)), constant)


any_lists = st.one_of(factor_lists(), factor_lists(balance="delta"),
                      factor_lists(balance="theta"))


def fraction_product(f: FactorList, n: int) -> Fraction:
    """R(n) = K prod (alpha n + beta)^e, one factor at a time."""
    value = f.constant
    for fac in f.factors:
        x = fac.alpha * n + fac.beta
        if x == 0:
            raise ZeroDivisionError(f"factor vanishes at n={n}")
        value *= x**fac.exponent
    return value


def scan_zeros_poles(f: FactorList, start: int) -> list[int]:
    """Integers start <= n <= 20 where some factor is zero (|beta/alpha| <= 9)."""
    return [n for n in range(start, 21)
            if any(fac.alpha * n + fac.beta == 0 for fac in f.factors)]


def ln_abs(x: Fraction):
    return mp.log(abs(mp.mpf(x.numerator) / x.denominator))


def asymptotic_verdict(f: FactorList, mode: str):
    """The verdict read off ln R(n) = D ln n + ln K' + S/n + O(n^-2) at
    n = 10^40 and 10^80 (R exact, its log in 120-digit mpmath): D != 0 moves
    ln |R| by 92 D between them, K' != 1 keeps it away from 0 (K' < 0 makes
    R negative), and in theta mode S != 0 leaves n ln R(n) near S."""
    n = 10**40
    r1, r2 = fraction_product(f, n), fraction_product(f, n * n)
    with mp.workdps(120):
        if abs(ln_abs(r2) - ln_abs(r1)) > 1:
            return "degree"
        if r1 < 0 or abs(ln_abs(r1)) > mp.mpf(10) ** -30:
            return "leading-coefficient"
        if mode == "theta" and abs(n * ln_abs(r1)) > mp.mpf(10) ** -20:
            return "sum-of-roots"
    return None


@given(factor_lists(), st.integers(-3, 3))
def test_zeros_poles_match_scan(f, start):
    assert factored_zeros_poles(f, start) == scan_zeros_poles(f, start)


@given(any_lists, st.sampled_from(["delta", "theta"]))
def test_convergence_matches_asymptotics(f, mode):
    ours = factored_convergence(f, mode)
    assert ours.reason == asymptotic_verdict(f, mode)
    assert ours.ok == (ours.reason is None)


@given(any_lists)
def test_log_expansion_meets_remainder_bound(f):
    """|ln R(n) - sum_{j<=8} beta_j n^-j| <= C n^-9 at n = 10^40, where
    C = sum_f |e_f| |c_f|^9 / (9 (1 - |c_f|/n)) bounds the tail of each
    ln(1 + c_f/n).  A beta_j off by d leaves d n^-j.  Here |c_f| < 200, so
    C < 10^20, and every c_f has a denominator dividing 24, so a wrong beta_j
    of the form sum e c^j / j is off by d >= 1/(8 * 24^8), far above C n^-9."""
    J, n = 8, 10**40
    if asymptotic_verdict(f, "delta") is not None:
        with pytest.raises(ValueError):
            factored_log_expansion(f, J)
        return
    betas = factored_log_expansion(f, J)
    assert all(isinstance(b, Fraction) for b in betas)
    with mp.workdps(420):
        ln_r = ln_abs(fraction_product(f, n))
        series = mp.fsum(mp.mpf(b.numerator) / b.denominator / mp.mpf(n) ** j
                         for j, b in enumerate(betas, start=1))
        cs = [(abs(fac.exponent), abs(mp.mpf(fac.beta.numerator) / fac.beta.denominator / fac.alpha))
              for fac in f.factors]
        bound = mp.fsum(e * c**9 / (9 * (1 - c / n)) for e, c in cs) / mp.mpf(n) ** 9
        assert abs(ln_r - series) <= bound + mp.mpf(10) ** -400
    if asymptotic_verdict(f, "theta") is None:
        assert betas[0] == 0  # theta convergence kills beta_1


def brute_first_non_positive(f: FactorList, start: int, hi: int):
    for n in range(start, hi + 1):
        try:
            if fraction_product(f, n) <= 0:
                return n
        except ZeroDivisionError:
            return n
    return None


@given(st.one_of(factor_lists(), factor_lists(balance="delta")), st.integers(-3, 3))
def test_positivity_matches_brute_force(f, start):
    roots = [-fac.beta / fac.alpha for fac in f.factors]
    hi = max([start] + [math.floor(r) + 2 for r in roots])
    assert first_non_positive(f, start) == brute_first_non_positive(f, start, hi)


@given(factor_lists(), st.integers(-12, 40))
def test_exact_value_matches_fraction_product(f, n):
    try:
        expected = fraction_product(f, n)
    except ZeroDivisionError:
        with pytest.raises(EvaluationError):
            exact_real_value(f, n)
        return
    ours = exact_real_value(f, n)
    assert ours == expected
    if ours > 0:
        assert _log_quotient(ours.numerator, ours.denominator) == math.log(float(expected))


@given(factor_lists(), st.integers(-12, 40))
def test_normal_form_reproduces_value(f, n):
    try:
        expected = fraction_product(f, n)
    except ZeroDivisionError:
        return  # a factor vanishes at n
    scale, L, offsets = f.integer_form
    value = Fraction(*scale)
    for m, e in offsets:
        value *= (n + Fraction(m, L)) ** e
    assert value == expected


def fraction_offsets(f: FactorList) -> dict[Fraction, int]:
    """{c: E} with c = beta/alpha as exact Fractions, E summed, 0 kept."""
    merged: dict[Fraction, int] = {}
    for fac in f.factors:
        c = fac.beta / fac.alpha
        merged[c] = merged.get(c, 0) + fac.exponent
    return merged


@given(factor_lists())
@example(factor_list([(1, 1, 1), (1, 1, -1), (2, 3, 1), (2, 3, 1), (4, 6, -2), (1, 5, 1),
                      (3, -7, -1)]))
@example(factor_list([(1, 500, 1), (1, 1, 1), (1, 500, -1), (1, 2, -1)]))
def test_integer_core_matches_fraction_offsets(f):
    """The ints and floats of the integer form, the expansion and the log1p
    pairs, each distinct pair once with its count, equal what exact Fraction
    offsets give, repeated and cancelled offsets included."""
    merged = fraction_offsets(f)
    (num, den), L, offsets = f.integer_form
    scale = f.constant * math.prod(Fraction(fac.alpha) ** fac.exponent for fac in f.factors)
    assert (num, den) == (scale.numerator, scale.denominator)
    assert {Fraction(m, L): e for m, e in offsets} == merged and len(offsets) == len(merged)
    assert L == math.lcm(*(c.denominator for c in merged))

    short = f.log_pairs(3)
    full = f.log_pairs(7)
    assert short == full[:3] and f.log_pairs(2) == full[:2]
    for j, (p, r, mag) in enumerate(full, start=1):
        beta = Fraction((-1) ** (j + 1), j) * sum(e * c**j for c, e in merged.items())
        assert type(p) is int and r == j * L**j
        assert Fraction(p, r) == beta and mag == float(abs(beta))

    top = max((abs(c) for c, e in merged.items() if e), default=Fraction(0))
    assert _series_cutoff(f) == math.ceil(2 * max(1, top)) + 1
    ups = sorted(c for c, e in merged.items() for _ in range(e))
    downs = sorted(c for c, e in merged.items() for _ in range(-e))
    counts = Counter(zip(ups, downs))
    assert _log1p_pairs(f) == [(float(a - b), float(a), float(b), c) for (a, b), c in counts.items()]


def test_complex_offsets_rejected_by_real_helpers():
    """Offsets are Fractions: a complex or float offset never reaches a
    helper, because neither builder accepts it."""
    for offset in (1j, complex(1, 1), complex(2, 0), 0.5, 1.0):
        with pytest.raises(TypeError):
            factor_list([(1, offset, 1), (1, 1, -1)])
        with pytest.raises(TypeError):
            FactorList((Factor(1, offset, 1), Factor(1, Fraction(1), -1)))
