"""Parametrized identity families: combined product term plus closed-form log.

Each builder returns (seq, mode, FactorList, rhs_log) ready to feed the
evaluator; the right-hand sides are assembled in log space through the
local Gamma implementation.  These are the identities with free
parameters; the fixed concrete equalities live in the builtin catalog.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .evaluator import build_gamma_ratio_term, build_scaling_term
from .gammafn import log_gamma
from .ratfun import as_fraction, factor_list
from .sequences import make_sequence

_TM = make_sequence("gtm", 2, bits="1")


def _lg(x: Fraction) -> float:
    return log_gamma(complex(x)).real


def shifted_ratio_family(seq, a, b, c):
    """Theta-weighted product with parameters (a, b, c); RHS is the Gamma
    ratio over digits k with theta_k = 1.  Specialization a_list=(a, b+c),
    b_list=(b, a+c) of the Gamma-ratio self-similarity."""
    a, b, c = as_fraction(a), as_fraction(b), as_fraction(c)
    term, rhs_log = build_gamma_ratio_term(seq, [a, b + c], [b, a + c])
    return seq, "theta", term, rhs_log


def zero_sum_family(seq, a_list):
    """Theta-weighted product for parameters summing to zero (all b_i = 0)."""
    a_list = [as_fraction(x) for x in a_list]
    if sum(a_list) != 0:
        raise ValueError("parameters must sum to zero exactly")
    if any(x <= -1 for x in a_list):
        raise ValueError("parameters must exceed -1")
    term, rhs_log = build_gamma_ratio_term(seq, a_list, [Fraction(0)] * len(a_list))
    return seq, "theta", term, rhs_log


def symmetric_pair_family(seq, a):
    """Theta-weighted product for the (a, -a) zero-sum pair."""
    a = as_fraction(a)
    if not 0 < abs(a) < 1:
        raise ValueError("parameter must satisfy 0 < |a| < 1")
    return zero_sum_family(seq, [a, -a])


def tm_gamma_ratio_family(a_list, b_list):
    """Classical-sequence Gamma-ratio family: per index i the term is
    (n+a_i)(2n+b_i)(2n+a_i+1) / ((n+b_i)(2n+a_i)(2n+b_i+1))."""
    term, rhs_log = build_gamma_ratio_term(_TM, a_list, b_list)
    return _TM, "theta", term, rhs_log


def tm_three_parameter_family(a, b, c):
    return shifted_ratio_family(_TM, a, b, c)


def tm_beta_like_family(a, b):
    """2(n+a)(n+b)(2n+a+1)(2n+b+1)(2n+a+b) over
    (2n+1)(n+a+b)(2n+a)(2n+b)(2n+a+b+1): sqrt(pi)-normalized Gamma ratio."""
    a, b = as_fraction(a), as_fraction(b)
    if a <= 0 or b <= 0:
        raise ValueError("parameters must be positive rationals")
    term = factor_list([
        (1, a, 1), (1, b, 1), (2, a + 1, 1), (2, b + 1, 1), (2, a + b, 1),
        (2, 1, -1), (1, a + b, -1), (2, a, -1), (2, b, -1), (2, a + b + 1, -1),
    ], constant=Fraction(2))
    rhs_log = 0.5 * math.log(math.pi) + _lg((a + b + 1) / 2) \
        - _lg((a + 1) / 2) - _lg((b + 1) / 2)
    return _TM, "theta", term, rhs_log


def tm_beta_like_reciprocal_family(a, b):
    """(n+a+b)(2n+a+2)(2n+2a+1)(2n+b)(2n+a+b+1) over
    (n+2a+1)(2n+a+1)(2n+b+1)(2n+2b)(2n+a+b): 2^a-weighted Gamma ratio."""
    a, b = as_fraction(a), as_fraction(b)
    if a <= 0 or b <= 0:
        raise ValueError("parameters must be positive rationals")
    term = factor_list([
        (1, a + b, 1), (2, a + 2, 1), (2, 2 * a + 1, 1), (2, b, 1), (2, a + b + 1, 1),
        (1, 2 * a + 1, -1), (2, a + 1, -1), (2, b + 1, -1), (2, 2 * b, -1), (2, a + b, -1),
    ])
    rhs_log = float(a) * math.log(2.0) + _lg((a + 1) / 2) + _lg((b + 1) / 2) \
        - 0.5 * math.log(math.pi) - _lg((a + b + 1) / 2)
    return _TM, "theta", term, rhs_log


def tm_power_of_two_family(a):
    """(n+a)(2n+a+2)(2n+2a+1) / ((n+2a+1)(2n+1)(2n+a)) -> 2^a."""
    a = as_fraction(a)
    if a <= 0:
        raise ValueError("parameter must be a positive rational")
    term = factor_list([
        (1, a, 1), (2, a + 2, 1), (2, 2 * a + 1, 1),
        (1, 2 * a + 1, -1), (2, 1, -1), (2, a, -1),
    ])
    return _TM, "theta", term, float(a) * math.log(2.0)


def tm_power_over_linear_family(a):
    """(n+1)(n+a+2)(2n+a+3)(2n+2a+1) / ((n+2)(n+2a+1)(2n+3)(2n+a+1))
    -> 2^a / (a+1)."""
    a = as_fraction(a)
    if a <= 0:
        raise ValueError("parameter must be a positive rational")
    term = factor_list([
        (1, 1, 1), (1, a + 2, 1), (2, a + 3, 1), (2, 2 * a + 1, 1),
        (1, 2, -1), (1, 2 * a + 1, -1), (2, 3, -1), (2, a + 1, -1),
    ])
    return _TM, "theta", term, float(a) * math.log(2.0) - math.log(float(a) + 1.0)


def tm_cosine_family(a):
    """(2n+a+1)(2n-a+1)(2n+2a)(2n-2a) / ((2n+1)^2(2n+a)(2n-a)) -> cos(pi a/2)."""
    a = as_fraction(a)
    if not 0 < a < 1:
        raise ValueError("parameter must lie in (0, 1)")
    term = factor_list([
        (2, a + 1, 1), (2, 1 - a, 1), (2, 2 * a, 1), (2, -2 * a, 1),
        (2, 1, -2), (2, a, -1), (2, -a, -1),
    ])
    return _TM, "theta", term, math.log(math.cos(math.pi * float(a) / 2.0))


def tm_scaled_cosine_family(a):
    """(2n+a+1)(2n-a+1)(2n+2a)(2n-4a+2) / ((2n+1)(2n+a)(2n-a+2)(2n-2a+1))
    -> 2^a cos(pi a/2)."""
    a = as_fraction(a)
    if not 0 < a < 1:
        raise ValueError("parameter must lie in (0, 1)")
    term = factor_list([
        (2, a + 1, 1), (2, 1 - a, 1), (2, 2 * a, 1), (2, 2 - 4 * a, 1),
        (2, 1, -1), (2, a, -1), (2, 2 - a, -1), (2, 1 - 2 * a, -1),
    ])
    rhs_log = float(a) * math.log(2.0) + math.log(math.cos(math.pi * float(a) / 2.0))
    return _TM, "theta", term, rhs_log


def tm_quartic_reflection_family(a):
    """(2n+a+1)(2n-a+1)(4n+a+3)(4n-a+3) / ((2n+2)^2(4n+a+1)(4n-a+1))
    -> sqrt(pi) / (Gamma((3+a)/4) Gamma((3-a)/4))."""
    a = as_fraction(a)
    if not 0 < a < 1:
        raise ValueError("parameter must lie in (0, 1)")
    term = factor_list([
        (2, a + 1, 1), (2, 1 - a, 1), (4, a + 3, 1), (4, 3 - a, 1),
        (2, 2, -2), (4, a + 1, -1), (4, 1 - a, -1),
    ])
    rhs_log = 0.5 * math.log(math.pi) - _lg((3 + a) / 4) - _lg((3 - a) / 4)
    return _TM, "theta", term, rhs_log


def tm_factorial_family(d: int):
    """(n+1)(2n+d)(2n+2)^(2d-1) / ((n+d)(2n+d+1)(2n+1)^(2d-1))
    -> pi^((d-1)/2) Gamma((d+1)/2)."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    term = factor_list([
        (1, 1, 1), (2, d, 1), (2, 2, 2 * d - 1),
        (1, d, -1), (2, d + 1, -1), (2, 1, -(2 * d - 1)),
    ])
    rhs_log = 0.5 * (d - 1) * math.log(math.pi) + _lg(Fraction(d + 1, 2))
    return _TM, "theta", term, rhs_log


def scaling_family(seq, a, b):
    """Delta-weighted combined scaling product and its exact rational RHS."""
    term, rhs = build_scaling_term(seq, a, b)
    return seq, "delta", term, math.log(float(rhs))
