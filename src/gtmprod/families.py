"""Parametrized identity families: combined product term plus closed-form log.

Each builder returns (seq, mode, FactorList, rhs_log) ready to feed the
evaluator; the right-hand sides are assembled in log space through the
local Gamma implementation.  These are the identities with free
parameters; the fixed concrete equalities live in the builtin catalog.

Every builder works in ints and builds no ``Fraction``: its parameters
(int or Fraction) go over one common denominator D, a = A/D, so each
offset is an int combination of A and D, each domain check an int
comparison, and each float argument, of log Gamma or of cos, one
correctly rounded int division A/D, as ``float`` of the Fraction gives.
"""

from __future__ import annotations

import math

from .evaluator import _gamma_ratio_term, _log_quotient, _scaling_term, build_gamma_ratio_term
from .gammafn import log_gamma
from .ratfun import FactorList, over_common_denominator
from .sequences import make_sequence

_TM = make_sequence("gtm", 2, bits="1")


def _lg(p: int, d: int) -> float:
    """Re log Gamma(p/d), the argument one correctly rounded int division."""
    return log_gamma(p / d).real


def shifted_ratio_family(seq, a, b, c):
    """Theta-weighted product with parameters (a, b, c); RHS is the Gamma
    ratio over digits k with theta_k = 1.  Specialization a_list=(a, b+c),
    b_list=(b, a+c) of the Gamma-ratio self-similarity."""
    (A, B, C), D = over_common_denominator((a, b, c))
    term, rhs_log = _gamma_ratio_term(seq, [A, B + C], [B, A + C], D)
    return seq, "theta", term, rhs_log


def _zero_sum(seq, X, D):
    """``zero_sum_family`` of x_i = X_i/D."""
    if sum(X) != 0:
        raise ValueError("parameters must sum to zero exactly")
    if any(x <= -D for x in X):
        raise ValueError("parameters must exceed -1")
    term, rhs_log = _gamma_ratio_term(seq, X, [0] * len(X), D)
    return seq, "theta", term, rhs_log


def zero_sum_family(seq, a_list):
    """Theta-weighted product for parameters summing to zero (all b_i = 0)."""
    return _zero_sum(seq, *over_common_denominator(a_list))


def symmetric_pair_family(seq, a):
    """Theta-weighted product for the (a, -a) zero-sum pair."""
    (A,), D = over_common_denominator((a,))
    if not 0 < abs(A) < D:
        raise ValueError("parameter must satisfy 0 < |a| < 1")
    return _zero_sum(seq, [A, -A], D)


def tm_gamma_ratio_family(a_list, b_list):
    """Classical-sequence Gamma-ratio family: per index i the term is
    (n+a_i)(2n+b_i)(2n+a_i+1) / ((n+b_i)(2n+a_i)(2n+b_i+1))."""
    term, rhs_log = build_gamma_ratio_term(_TM, a_list, b_list)
    return _TM, "theta", term, rhs_log


def tm_three_parameter_family(a, b, c):
    return shifted_ratio_family(_TM, a, b, c)


def _positive(a, b):
    """a = A/D and b = B/D, both positive rationals."""
    (A, B), D = over_common_denominator((a, b))
    if A <= 0 or B <= 0:
        raise ValueError("parameters must be positive rationals")
    return A, B, D


def tm_beta_like_family(a, b):
    """2(n+a)(n+b)(2n+a+1)(2n+b+1)(2n+a+b) over
    (2n+1)(n+a+b)(2n+a)(2n+b)(2n+a+b+1): sqrt(pi)-normalized Gamma ratio."""
    A, B, D = _positive(a, b)
    term = FactorList.from_ints([
        (1, A, 1), (1, B, 1), (2, A + D, 1), (2, B + D, 1), (2, A + B, 1),
        (2, D, -1), (1, A + B, -1), (2, A, -1), (2, B, -1), (2, A + B + D, -1),
    ], D, (2, 1))
    rhs_log = 0.5 * math.log(math.pi) + _lg(A + B + D, 2 * D) \
        - _lg(A + D, 2 * D) - _lg(B + D, 2 * D)
    return _TM, "theta", term, rhs_log


def tm_beta_like_reciprocal_family(a, b):
    """(n+a+b)(2n+a+2)(2n+2a+1)(2n+b)(2n+a+b+1) over
    (n+2a+1)(2n+a+1)(2n+b+1)(2n+2b)(2n+a+b): 2^a-weighted Gamma ratio."""
    A, B, D = _positive(a, b)
    term = FactorList.from_ints([
        (1, A + B, 1), (2, A + 2 * D, 1), (2, 2 * A + D, 1), (2, B, 1), (2, A + B + D, 1),
        (1, 2 * A + D, -1), (2, A + D, -1), (2, B + D, -1), (2, 2 * B, -1), (2, A + B, -1),
    ], D)
    rhs_log = A / D * math.log(2.0) + _lg(A + D, 2 * D) + _lg(B + D, 2 * D) \
        - 0.5 * math.log(math.pi) - _lg(A + B + D, 2 * D)
    return _TM, "theta", term, rhs_log


def _positive_one(a):
    """a = A/D, a positive rational."""
    (A,), D = over_common_denominator((a,))
    if A <= 0:
        raise ValueError("parameter must be a positive rational")
    return A, D


def tm_power_of_two_family(a):
    """(n+a)(2n+a+2)(2n+2a+1) / ((n+2a+1)(2n+1)(2n+a)) -> 2^a."""
    A, D = _positive_one(a)
    term = FactorList.from_ints([
        (1, A, 1), (2, A + 2 * D, 1), (2, 2 * A + D, 1),
        (1, 2 * A + D, -1), (2, D, -1), (2, A, -1),
    ], D)
    return _TM, "theta", term, A / D * math.log(2.0)


def tm_power_over_linear_family(a):
    """(n+1)(n+a+2)(2n+a+3)(2n+2a+1) / ((n+2)(n+2a+1)(2n+3)(2n+a+1))
    -> 2^a / (a+1)."""
    A, D = _positive_one(a)
    term = FactorList.from_ints([
        (1, D, 1), (1, A + 2 * D, 1), (2, A + 3 * D, 1), (2, 2 * A + D, 1),
        (1, 2 * D, -1), (1, 2 * A + D, -1), (2, 3 * D, -1), (2, A + D, -1),
    ], D)
    return _TM, "theta", term, A / D * math.log(2.0) - math.log(A / D + 1.0)


def _unit_interval(a):
    """a = A/D with 0 < a < 1."""
    (A,), D = over_common_denominator((a,))
    if not 0 < A < D:
        raise ValueError("parameter must lie in (0, 1)")
    return A, D


def tm_cosine_family(a):
    """(2n+a+1)(2n-a+1)(2n+2a)(2n-2a) / ((2n+1)^2(2n+a)(2n-a)) -> cos(pi a/2)."""
    A, D = _unit_interval(a)
    term = FactorList.from_ints([
        (2, A + D, 1), (2, D - A, 1), (2, 2 * A, 1), (2, -2 * A, 1),
        (2, D, -2), (2, A, -1), (2, -A, -1),
    ], D)
    return _TM, "theta", term, math.log(math.cos(math.pi * (A / D) / 2.0))


def tm_scaled_cosine_family(a):
    """(2n+a+1)(2n-a+1)(2n+2a)(2n-4a+2) / ((2n+1)(2n+a)(2n-a+2)(2n-2a+1))
    -> 2^a cos(pi a/2)."""
    A, D = _unit_interval(a)
    term = FactorList.from_ints([
        (2, A + D, 1), (2, D - A, 1), (2, 2 * A, 1), (2, 2 * D - 4 * A, 1),
        (2, D, -1), (2, A, -1), (2, 2 * D - A, -1), (2, D - 2 * A, -1),
    ], D)
    rhs_log = A / D * math.log(2.0) + math.log(math.cos(math.pi * (A / D) / 2.0))
    return _TM, "theta", term, rhs_log


def tm_quartic_reflection_family(a):
    """(2n+a+1)(2n-a+1)(4n+a+3)(4n-a+3) / ((2n+2)^2(4n+a+1)(4n-a+1))
    -> sqrt(pi) / (Gamma((3+a)/4) Gamma((3-a)/4))."""
    A, D = _unit_interval(a)
    term = FactorList.from_ints([
        (2, A + D, 1), (2, D - A, 1), (4, A + 3 * D, 1), (4, 3 * D - A, 1),
        (2, 2 * D, -2), (4, A + D, -1), (4, D - A, -1),
    ], D)
    rhs_log = 0.5 * math.log(math.pi) - _lg(3 * D + A, 4 * D) - _lg(3 * D - A, 4 * D)
    return _TM, "theta", term, rhs_log


def tm_factorial_family(d: int):
    """(n+1)(2n+d)(2n+2)^(2d-1) / ((n+d)(2n+d+1)(2n+1)^(2d-1))
    -> pi^((d-1)/2) Gamma((d+1)/2)."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError("d must be a positive integer")
    term = FactorList.from_ints([
        (1, 1, 1), (2, d, 1), (2, 2, 2 * d - 1),
        (1, d, -1), (2, d + 1, -1), (2, 1, -(2 * d - 1)),
    ])
    rhs_log = 0.5 * (d - 1) * math.log(math.pi) + _lg(d + 1, 2)
    return _TM, "theta", term, rhs_log


def scaling_family(seq, a, b):
    """Delta-weighted combined scaling product and the log of its exact RHS."""
    term, num, den = _scaling_term(seq, a, b)
    return seq, "delta", term, _log_quotient(num, den)
