import cmath
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gtmprod.gammafn import (
    GammaDomainError,
    check_gamma_identity,
    gamma,
    log_gamma,
    log_gamma_product,
)

SQRT_PI = math.sqrt(math.pi)


def random_point(rng, radius=50.0, pole_margin=0.05):
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z.imag) > pole_margin or abs(z.real - round(z.real)) > pole_margin:
            return z


class TestLogGamma:
    def test_special_points(self):
        assert abs(log_gamma(0.5) - math.log(SQRT_PI)) < 1e-14
        assert abs(log_gamma(2.0)) < 1e-14
        assert abs(log_gamma(1.0)) < 1e-14
        # Gamma(5/2) = (3/2)(1/2)Gamma(1/2)
        assert abs(log_gamma(2.5) - math.log(0.75 * SQRT_PI)) < 1e-14

    def test_gamma_values(self):
        assert abs(gamma(1.5) - SQRT_PI / 2) < 1e-15
        assert abs(gamma(1.0) - 1.0) < 1e-15
        assert abs(gamma(0.25) * gamma(0.75) - math.pi * math.sqrt(2)) < 1e-13

    def test_poles_raise(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(GammaDomainError):
                log_gamma(z)
            with pytest.raises(GammaDomainError):
                gamma(z)

    def test_overflow_raises(self):
        with pytest.raises(GammaDomainError):
            gamma(500.0)

    def test_relative_accuracy_against_mpmath(self):
        rng = random.Random(424242)
        mpmath.mp.dps = 30
        worst = 0.0
        for _ in range(500):
            mag = 10 ** rng.uniform(-3, 3)
            ang = rng.uniform(-math.pi, math.pi)
            z = cmath.rect(mag, ang)
            if abs(z.imag) < 1e-6 and z.real <= 0:
                continue
            if min(abs(z - (-k)) for k in range(6)) < 1e-3:
                continue
            ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
            err = abs(log_gamma(z) - ref) / max(abs(ref), 1e-3)
            worst = max(worst, err)
        assert worst < 1e-12, worst

    def test_rational_points_within_documented_error(self):
        # the figure in log_gamma's docstring: k/d with d <= 16 and 0 < k/d < 8
        worst = 0.0
        with mpmath.workdps(40):
            for x in {Fraction(k, d) for d in range(1, 17) for k in range(1, 8 * d)}:
                ref = mpmath.loggamma(mpmath.mpf(x.numerator) / x.denominator)
                worst = max(worst, float(abs(log_gamma(float(x)).real - ref)))
        assert worst <= 8.9e-15, worst

    def test_conjugate_symmetry(self):
        rng = random.Random(7)
        for _ in range(200):
            z = random_point(rng)
            assert log_gamma(z.conjugate()) == log_gamma(z).conjugate()
            gz = gamma(z)
            gc = gamma(z.conjugate())
            assert abs(gc - gz.conjugate()) <= 1e-12 * abs(gz)


class TestIdentities:
    def test_point_examples(self):
        assert check_gamma_identity("multiplication", 0.7, n=3) < 1e-10
        assert check_gamma_identity("recurrence", 1.0) < 1e-13
        assert check_gamma_identity("reflection", 0.25) < 1e-13
        assert check_gamma_identity("special", 1.5) < 1e-13

    def test_random_sweep(self):
        rng = random.Random(2024)
        count = 0
        while count < 200:
            z = random_point(rng)
            try:
                residuals = [
                    check_gamma_identity("recurrence", z),
                    check_gamma_identity("duplication", z),
                    check_gamma_identity("reflection", z),
                ]
                for n in (2, 3, 4, 5):
                    residuals.append(check_gamma_identity("multiplication", z, n=n))
            except GammaDomainError:
                continue
            assert max(residuals) < 1e-10, (z, residuals)
            count += 1

    def test_special_values_all(self):
        for z in (1.0, 2.0, 0.5, 1.5):
            assert check_gamma_identity("special", z) < 1e-13

    def test_domain_errors(self):
        with pytest.raises(GammaDomainError):
            check_gamma_identity("reflection", 3.0)
        with pytest.raises(GammaDomainError):
            check_gamma_identity("recurrence", -2.0)
        with pytest.raises(GammaDomainError):
            check_gamma_identity("special", 0.3)
        with pytest.raises(ValueError):
            check_gamma_identity("nonsense", 1.0)
        # these used to escape as OverflowError
        for identity in ("reflection", "special"):
            with pytest.raises(GammaDomainError):
                check_gamma_identity(identity, math.inf)


class TestClosedFormProduct:
    def test_examples(self):
        assert abs(cmath.exp(log_gamma_product([1, 3], [2, 2])) - 0.5) < 1e-14
        x = Fraction(7, 3)
        assert cmath.exp(log_gamma_product([x], [x])) == 1.0
        v = cmath.exp(log_gamma_product([Fraction(1, 2), Fraction(3, 2)], [1, 1]))
        assert abs(v - 2.0 / math.pi) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            log_gamma_product([1], [1, 2])
        with pytest.raises(ValueError):
            log_gamma_product([1, 2], [2, 2])
        with pytest.raises(GammaDomainError):
            log_gamma_product([0, 3], [1, 2])
        with pytest.raises(GammaDomainError):
            log_gamma_product([Fraction(5, 2), Fraction(-3, 2)], [-1, 2])

    def test_rejects_inexact_parameters(self):
        # parameters are exact rationals: complex and float input is a type error
        for a, b in (([1j, 1], [1, 1j]), ([complex(2, 0)], [2]), ([0.5, 1], [1, 0.5])):
            with pytest.raises(TypeError):
                log_gamma_product(a, b)

    def test_against_partial_products(self):
        rng = random.Random(99)
        N = 10**5
        n = np.arange(0, N, dtype=np.float64)
        for _ in range(5):
            d = rng.randint(1, 3)
            a = [Fraction(rng.randint(1, 40), 10) for _ in range(d)]
            b = [Fraction(rng.randint(1, 40), 10) for _ in range(d - 1)]
            b.append(sum(a) - sum(b))
            if b[-1] <= 0:
                shift = 1 - b[-1]
                a[0] += shift
                b[-1] += shift
            log_partial = 0.0
            for ai, bi in zip(a, b):
                log_partial += float(np.log(n + float(ai)).sum() - np.log(n + float(bi)).sum())
            closed = log_gamma_product(a, b).real
            # second-order telescoping tail ~ c / N
            c = 2.0 + sum(abs(float(ai * ai - bi * bi)) for ai, bi in zip(a, b))
            assert abs(closed - log_partial) <= 4.0 * c / N
