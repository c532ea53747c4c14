"""Complex Gamma and log-Gamma with an identity checking suite.

The right half-plane uses the classic 9-term Lanczos approximation
(g = 7); the left half-plane is folded over with the reflection formula
through a log-sin that stays finite for large imaginary parts.  All
products of Gamma values are assembled in log space and exponentiated
once, which avoids overflow and keeps branch handling out of callers.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .ratfun import as_fraction

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LN_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)
_TWO_PI = 2.0 * math.pi


class GammaDomainError(ValueError):
    """Argument outside an identity's stated domain (pole or excluded set)."""


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real.is_integer()


def _lanczos_log_gamma(z: complex) -> complex:
    """Principal log-Gamma for Re(z) >= 0.5."""
    zm = z - 1.0
    s = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[i] / (zm + i)
    t = zm + _LANCZOS_G + 0.5
    return _LN_SQRT_TWO_PI + (zm + 0.5) * cmath.log(t) - t + cmath.log(s)


def _log_sin_pi_upper(z: complex) -> complex:
    """log sin(pi z) for Im(z) >= 0, branch-matched to principal log-Gamma.

    Factoring out the dominant exponential keeps |exp| <= 1, so the inner
    principal log never crosses its cut and the formula is continuous on
    the closed upper half-plane (integers excluded).
    """
    w = cmath.exp(2j * math.pi * z)
    return -1j * math.pi * z + complex(-math.log(2.0), 0.5 * math.pi) + cmath.log(1.0 - w)


def log_gamma(z) -> complex:
    """Principal branch of log Gamma.

    Its accuracy is measured, not proven.  Against 40-digit mpmath at every
    x = k/d with d <= 16 and 0 < x < 8, the real part is off by at most
    8.9e-15 (the worst is 8.8e-15, at x = 71/9), so exp of it is Gamma(x)
    to 8.9e-15 relative.  Relative to log Gamma itself the error reaches
    6.7e-14 near its zeros at x = 1 and x = 2.

    Valid away from the poles at 0, -1, -2, ...; raises GammaDomainError
    there.  Conjugate symmetry holds exactly by construction.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise GammaDomainError(f"non-finite argument {z}")
    if _is_nonpositive_integer(z):
        raise GammaDomainError(f"log_gamma pole at {z}")
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    if z.real >= 0.5:
        return _lanczos_log_gamma(z)
    return _LN_PI - _log_sin_pi_upper(z) - _lanczos_log_gamma(1.0 - z)


def gamma(z) -> complex:
    """Gamma via exp(log_gamma); raises on poles and on overflow."""
    try:
        out = cmath.exp(log_gamma(z))
    except OverflowError:
        raise GammaDomainError(f"gamma({z}) overflows binary64") from None
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise GammaDomainError(f"gamma({z}) overflows binary64")
    return out


def log_gamma_product(a_list, b_list) -> complex:
    """log of Gamma(b_1)...Gamma(b_d) / (Gamma(a_1)...Gamma(a_d)).

    Requires equal lengths, exactly equal sums, and no entry in
    {0, -1, -2, ...}; this is the closed form of the plain product
    prod_n prod_i (n+a_i)/(n+b_i).
    """
    a = [as_fraction(x) for x in a_list]
    b = [as_fraction(x) for x in b_list]
    if len(a) != len(b):
        raise ValueError("parameter lists must have equal lengths")
    sa, sb = sum(a), sum(b)
    if sa != sb:
        raise ValueError(f"sum mismatch: {sa} != {sb}")
    for x in a + b:
        if x.denominator == 1 and x <= 0:
            raise GammaDomainError(f"parameter {x} is a nonpositive integer")
    total = 0j
    for y in b:
        total += log_gamma(complex(y))
    for x in a:
        total -= log_gamma(complex(x))
    return total


def _wrap_angle(x: float) -> float:
    """Reduce to (-pi, pi]."""
    y = math.fmod(x, _TWO_PI)
    if y > math.pi:
        y -= _TWO_PI
    elif y <= -math.pi:
        y += _TWO_PI
    return y


def _log_residual(lhs_log: complex, rhs_log: complex) -> float:
    """Relative difference of the underlying values, computed in log space.

    The imaginary part is reduced mod 2*pi so that branch offsets between
    independently assembled logs do not register as errors.
    """
    d = lhs_log - rhs_log
    d = complex(d.real, _wrap_angle(d.imag))
    return abs(cmath.exp(d) - 1.0)


_SPECIAL_VALUES = {
    (1, 1): 1.0,
    (2, 1): 1.0,
    (1, 2): math.sqrt(math.pi),
    (3, 2): 0.5 * math.sqrt(math.pi),
}


def check_gamma_identity(identity: str, z, n: int | None = None) -> float:
    """Relative residual of one Gamma identity at z.

    identity is one of 'multiplication' (needs the order n >= 1),
    'recurrence', 'duplication', 'reflection', 'special'.  For 'special',
    z must be one of 1, 2, 1/2, 3/2.  A z that is not finite is outside
    every identity's domain.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise GammaDomainError(f"non-finite argument {z}")
    if identity == "multiplication":
        if n is None or n < 1:
            raise ValueError("multiplication identity needs an order n >= 1")
        for j in range(n):
            if _is_nonpositive_integer(z + j / n):
                raise GammaDomainError(f"pole at z + {j}/{n}")
        if _is_nonpositive_integer(n * z):
            raise GammaDomainError(f"pole at {n}z")
        lhs = sum(log_gamma(z + j / n) for j in range(n))
        rhs = (0.5 * (n - 1)) * math.log(2.0 * math.pi) \
            + (0.5 - n * z) * math.log(n) + log_gamma(n * z)
        return _log_residual(lhs, rhs)
    if identity == "recurrence":
        if _is_nonpositive_integer(z) or z == 0:
            raise GammaDomainError(f"pole at {z}")
        return _log_residual(log_gamma(z + 1), cmath.log(z) + log_gamma(z))
    if identity == "duplication":
        if _is_nonpositive_integer(z) or _is_nonpositive_integer(z / 2) \
                or _is_nonpositive_integer((z + 1) / 2):
            raise GammaDomainError(f"pole among z/2, (z+1)/2 for z={z}")
        lhs = log_gamma(z / 2) + log_gamma((z + 1) / 2)
        rhs = (1.0 - z) * math.log(2.0) + 0.5 * _LN_PI + log_gamma(z)
        return _log_residual(lhs, rhs)
    if identity == "reflection":
        if z.imag == 0.0 and z.real.is_integer():
            raise GammaDomainError(f"reflection needs non-integer z, got {z}")
        lhs = log_gamma(z) + log_gamma(1.0 - z)
        if z.imag >= 0:
            rhs = _LN_PI - _log_sin_pi_upper(z)
        else:
            rhs = (_LN_PI - _log_sin_pi_upper(z.conjugate())).conjugate()
        return _log_residual(lhs, rhs)
    if identity == "special":
        if z.imag != 0.0:
            raise GammaDomainError("special values are real")
        key = Fraction(z.real).limit_denominator(2)
        if float(key) != z.real or (key.numerator, key.denominator) not in _SPECIAL_VALUES:
            raise GammaDomainError(f"no tabulated special value at {z}")
        want = _SPECIAL_VALUES[(key.numerator, key.denominator)]
        got = gamma(z)
        return abs(got - want) / abs(want)
    raise ValueError(f"unknown identity {identity!r}")
