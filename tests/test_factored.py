"""The factored decisions in ratfun against the dense-polynomial oracle.

Random factor lists with small slopes and offsets, including repeated,
cancelling and same-slope paired factors (paired factors make the
convergence criteria hold often enough to exercise the expansion).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gtmprod.ratfun import (
    EvaluationError,
    FactorList,
    GaussRational,
    convergence_check,
    evaluate_factorlist,
    evaluate_real,
    exact_real_value,
    factor_list,
    factored_convergence,
    factored_log_expansion,
    factored_normal_form,
    factored_zeros_poles,
    first_non_positive,
    integer_zeros_poles,
    log_expansion,
    to_rational_function,
)

offsets = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 2))
complex_offsets = st.builds(GaussRational, offsets, st.builds(Fraction, st.integers(-3, 3)))
exponents = st.sampled_from([-2, -1, 1, 2])


@st.composite
def factor_lists(draw, complex_ok=False, balance=None):
    """balance: None (anything), 'delta' (paired slopes and exponents, K = 1)
    or 'theta' (as delta, plus a pair that zeroes sum e * beta/alpha)."""
    beta = st.one_of(offsets, complex_offsets) if complex_ok else offsets
    base = draw(st.lists(st.tuples(st.integers(1, 4), beta, exponents), max_size=4))
    triples = []
    for a, b, e in base:
        triples.append((a, b, e))
        kind = "pair" if balance else draw(st.sampled_from(["none", "repeat", "cancel", "pair"]))
        if kind == "repeat":
            triples.append((a, b, e))
        elif kind == "cancel":
            triples.append((a, b, -e))
        elif kind == "pair":
            triples.append((a, draw(beta), -e))
    if balance == "theta":
        root_sum = sum(GaussRational.of(b) * Fraction(e, a) for a, b, e in triples)
        x = draw(offsets)
        triples += [(1, x, 1), (1, root_sum + x, -1)]
    constant = Fraction(1) if balance else draw(
        st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-1)]))
    return factor_list(draw(st.permutations(triples)), constant)


def dense_outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


@given(factor_lists(complex_ok=True), st.integers(-3, 3))
def test_zeros_poles_match_dense(f, start):
    assert factored_zeros_poles(f, start) == integer_zeros_poles(to_rational_function(f), start)


@given(st.one_of(factor_lists(complex_ok=True), factor_lists(complex_ok=True, balance="delta"),
                 factor_lists(complex_ok=True, balance="theta")),
       st.sampled_from(["delta", "theta"]))
def test_convergence_matches_dense(f, mode):
    ours = factored_convergence(f, mode)
    dense = convergence_check(to_rational_function(f), mode)
    assert (ours.ok, ours.reason) == (dense.ok, dense.reason)


@given(st.one_of(factor_lists(complex_ok=True), factor_lists(complex_ok=True, balance="delta"),
                 factor_lists(balance="theta")))
def test_log_expansion_matches_dense(f):
    J = 8
    ours = dense_outcome(factored_log_expansion, f, J)
    assert ours == dense_outcome(log_expansion, to_rational_function(f), J)
    if factored_convergence(f, "theta") and ours is not ValueError:
        assert ours[0].is_zero  # theta convergence kills beta_1


def brute_first_non_positive(f: FactorList, start: int, hi: int):
    for n in range(start, hi + 1):
        try:
            v = evaluate_factorlist(f, n)
        except EvaluationError:
            return n
        if v.re <= 0:
            return n
    return None


@given(st.one_of(factor_lists(), factor_lists(balance="delta")), st.integers(-3, 3))
def test_positivity_matches_brute_force(f, start):
    roots = [-fac.beta.re / fac.alpha for fac in f.factors]
    hi = max([start] + [math.floor(r) + 2 for r in roots])
    assert first_non_positive(f, start) == brute_first_non_positive(f, start, hi)


@given(factor_lists(), st.integers(-12, 40))
def test_exact_value_matches_dense(f, n):
    try:
        dense = evaluate_factorlist(f, n)
    except EvaluationError:
        with pytest.raises(EvaluationError):
            exact_real_value(f, n)
        return
    ours = exact_real_value(f, n)
    assert dense.is_real and ours == dense.re
    if ours > 0:
        assert evaluate_real(f, n) == float(dense.re)


@given(factor_lists(complex_ok=True), st.integers(-12, 40))
def test_normal_form_reproduces_value(f, n):
    try:
        dense = evaluate_factorlist(f, n)
    except EvaluationError:
        return  # a factor vanishes at n
    scale, merged = factored_normal_form(f)
    value = GaussRational(scale)
    for c, e in merged.items():
        x = GaussRational.of(c) + n
        for _ in range(abs(e)):
            value = value * x if e > 0 else value / x
    assert value == dense


def test_complex_offsets_rejected_by_real_helpers():
    f = factor_list([(1, GaussRational(Fraction(1), Fraction(1)), 1), (1, 1, -1)])
    with pytest.raises(ValueError):
        first_non_positive(f, 0)
    with pytest.raises(ValueError):
        exact_real_value(f, 0)
    with pytest.raises(ValueError):
        evaluate_real(f, 0)
