import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gtmprod import families
from gtmprod.evaluator import build_gamma_ratio_term, build_scaling_term
from gtmprod.gammafn import log_gamma_product
from gtmprod.ratfun import (
    EvaluationError,
    FactorList,
    ParseError,
    as_fraction,
    exact_real_value,
    factor_list,
    factored_convergence,
    factored_log_expansion,
    factored_zeros_poles,
    first_non_positive,
    format_product_term,
    parse_product_term,
)
from gtmprod.sequences import make_sequence


def triples(fl: FactorList):
    return [(f.alpha, f.beta, f.exponent) for f in fl.factors]


def random_factor_list(rng, max_factors=4, allow_const=True) -> FactorList:
    fs = []
    for _ in range(rng.randint(1, max_factors)):
        fs.append((rng.randint(1, 9), rng.randint(-20, 20),
                   rng.choice([-3, -2, -1, 1, 2, 3])))
    const = Fraction(rng.randint(1, 9)) if allow_const and rng.random() < 0.3 else Fraction(1)
    return factor_list(fs, const)


def random_delta_convergent(rng, max_pairs=3) -> FactorList:
    """Matched slopes and exponents on both sides, so degree/leading agree."""
    fs = []
    for _ in range(rng.randint(1, max_pairs)):
        alpha = rng.randint(1, 6)
        e = rng.randint(1, 2)
        fs.append((alpha, rng.randint(-6, 6), e))
        fs.append((alpha, rng.randint(-6, 6), -e))
    return factor_list(fs)


def random_theta_convergent(rng, max_pairs=3) -> FactorList:
    """Slope-1 pairs with exactly balanced offset sums."""
    d = rng.randint(2, max_pairs + 1)
    a = [Fraction(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(d - 1)]
    b = [Fraction(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(d - 1)]
    shift = Fraction(rng.randint(0, 8), rng.randint(1, 4))
    a.append(shift + sum(b) - sum(a) + max(sum(a) - sum(b), 0) * 2)
    b.append(shift + max(sum(a[:-1]) - sum(b), 0) * 2)
    # rebalance exactly
    b[-1] = sum(a) - sum(b[:-1])
    if b[-1] <= 0:
        bump = 1 - b[-1]
        a[0] += bump
        b[-1] += bump
    fs = [(1, x, 1) for x in a] + [(1, y, -1) for y in b]
    return factor_list(fs)


# Every product-term reject with its message and position: the position is
# where the offending token starts (a zero exponent or constant: where its
# integer starts, sign included), len(text) at the end of input.
REJECTS = [
    ("", "expected at least one factor", 0),
    ("   ", "expected at least one factor", 3),
    ("2n+1", "expected at least one factor", 0),
    ("n", "expected at least one factor", 0),
    ("/(n)", "expected at least one factor", 0),
    ("(2n+1)/", "expected at least one factor", 7),
    ("(n)/", "expected at least one factor", 4),
    ("(n) /", "expected at least one factor", 5),
    ("(0n+1)", "slope must be positive, got 0", 1),
    ("(-2n+1)", "slope must be positive, got -2", 1),
    ("(-n)", "slope must be positive, got -1", 1),
    ("(2n+1)^0", "factor exponent must be nonzero", 7),
    ("(2n+1)^-0", "factor exponent must be nonzero", 7),
    ("(2n+1)^+0", "factor exponent must be nonzero", 7),
    ("(2n+1)^ 0 ", "factor exponent must be nonzero", 8),
    ("(2n+1)^0 (n+1)", "factor exponent must be nonzero", 7),
    ("(0)^0", "factor exponent must be nonzero", 4),
    ("(0)", "zero constant factor", 1),
    ("(-0)", "zero constant factor", 1),
    ("( 0 )", "zero constant factor", 2),
    ("(0) (n+1)", "zero constant factor", 1),
    ("(0)^2 / (n)", "zero constant factor", 1),
    ("(n)/(0)", "zero constant factor", 5),
    ("(0", "expected ')'", 2),
    ("(2n+1", "expected ')'", 5),
    ("(n 1)", "expected ')'", 3),
    ("(1 2n)", "expected ')'", 3),
    ("(n+1.5)", "expected ')'", 4),
    ("(2n+1)^", "expected digits", 7),
    ("(2n+1)^x", "expected digits", 7),
    ("(2n+1)^-", "expected digits", 8),
    ("(n+)", "expected digits", 3),
    ("(n+x)", "expected digits", 3),
    ("(n-+1)", "expected digits", 3),
    ("(x)", "expected a linear factor or integer", 1),
    ("()", "expected a linear factor or integer", 1),
    ("(-)", "expected a linear factor or integer", 1),
    ("(+)", "expected a linear factor or integer", 1),
    ("(N)", "expected a linear factor or integer", 1),
    ("(n)(", "expected a linear factor or integer", 4),
    ("(n)/()", "expected a linear factor or integer", 5),
    ("(n)/((0)(n+1))", "expected a linear factor or integer", 5),
    ("((n)", "expected a linear factor or integer", 1),
    ("((n)(n+1)", "expected a linear factor or integer", 1),
    ("((n))(n)", "expected a linear factor or integer", 1),
    ("((n)) x", "expected a linear factor or integer", 1),
    ("((0))", "expected a linear factor or integer", 1),
    ("((n+1))/((n+2)", "expected a linear factor or integer", 9),
    ("(2n+1))", "unexpected trailing input", 6),
    ("(n)/(n)/(n)", "unexpected trailing input", 7),
    ("(n)^2^3", "unexpected trailing input", 5),
    ("(n+1) x", "unexpected trailing input", 6),
    ("(n+1)\xa0x", "unexpected trailing input", 6),
    ("(2n+1)*(n)", "unexpected trailing input", 6),
    ("(n+1)/ (n+2) )", "unexpected trailing input", 13),
    ("(n+1)^2 ^", "unexpected trailing input", 8),
    # digits are ASCII: a superscript two used to escape as a bare ValueError
    # from int(), and an Arabic-Indic three was read as 3
    ("(\u00b2n+1)/(n+2)", "expected a linear factor or integer", 1),
    ("(n+1)^\u00b2", "expected digits", 6),
    ("(n+\u00b2)", "expected digits", 3),
    ("(\u0663n+1)/(3n+2)", "expected a linear factor or integer", 1),
    ("(n+1)^\u0663", "expected digits", 6),
    ("(n+\u0663)", "expected digits", 3),
    ("(3n+1)/(\u0663n+2)", "expected a linear factor or integer", 8),
]

# the product-term alphabet plus noise: a superscript two, an Arabic-Indic
# three, '.', '*' and spaces
_TERM_PIECES = ["(", ")", "n", "2n", "0", "1", "12", "+", "-", "^", "/", " ",
                "\u00b2", "\u0663", ".", "*"]
_term_texts = st.one_of(
    st.text(st.sampled_from("()n0123456789+-^/ \u00b2\u0663.*"), max_size=24),
    st.lists(st.sampled_from(_TERM_PIECES), max_size=16).map("".join),
    st.lists(st.tuples(st.sampled_from(["", "2", "3"]), st.sampled_from(["+1", "-2", "", "+10"]),
                       st.sampled_from(["", "^2", "^-1", "^ 3"])), min_size=1, max_size=4)
    .map(lambda fs: "".join(f"({a}n{b}){e}" for a, b, e in fs)),
)


class TestParser:
    def test_spec_examples(self):
        fl = parse_product_term("((3n+2)^2)/((3n+1)(3n+4)(3n+6))")
        assert triples(fl) == [(3, 2, 2), (3, 1, -1), (3, 4, -1), (3, 6, -1)]
        assert triples(parse_product_term("(2n+1)/(2n+2)")) == [(2, 1, 1), (2, 2, -1)]
        assert triples(parse_product_term("(n+1)")) == [(1, 1, 1)]

    def test_whitespace_and_plain_n(self):
        fl = parse_product_term(" ( 2n + 1 ) / ( n ) ")
        assert triples(fl) == [(2, 1, 1), (1, 0, -1)]

    def test_constants_fold(self):
        fl = parse_product_term("(2)(n+1)^2/((3)(n+2)^2)")
        assert fl.constant == Fraction(2, 3)
        assert triples(fl) == [(1, 1, 2), (1, 2, -2)]

    def test_negative_exponent(self):
        fl = parse_product_term("(2n+1)^-2(2n+2)^2")
        assert triples(fl) == [(2, 1, -2), (2, 2, 2)]

    def test_constant_with_negative_exponent(self):
        # (2)^-1 folds into the denominator, which prints as its own factor
        fl = parse_product_term("(2)^-1(n+1)/(n+2)")
        assert fl.constant == Fraction(1, 2) and triples(fl) == [(1, 1, 1), (1, 2, -1)]
        assert format_product_term(fl) == "(n+1)/((2)(n+2))"
        assert parse_product_term(format_product_term(fl)) == fl

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_product_term("(2n+1")
        assert "position" in str(err.value)

    @pytest.mark.parametrize("text", [
        "", "(0n+1)", "(-2n+1)", "(2n+1)^0", "(0)", "2n+1", "(2n+1)/", "(2n+1))",
    ])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_product_term(text)

    @pytest.mark.parametrize("text,message,pos", REJECTS)
    def test_reject_message_and_position(self, text, message, pos):
        with pytest.raises(ParseError) as err:
            parse_product_term(text)
        assert (str(err.value), err.value.pos) == (f"{message} (at position {pos})", pos)

    @given(_term_texts)
    def test_any_text_parses_or_fails_at_a_token(self, text):
        # a rendered term reparses to the term with its numerator factors
        # first, which is the term itself when they already come first
        try:
            term = parse_product_term(text)
        except ParseError as err:
            assert 0 <= err.pos <= len(text)
            assert err.pos == len(text) or not text[err.pos].isspace()
            return
        upper = tuple(f for f in term.factors if f.exponent > 0)
        lower = tuple(f for f in term.factors if f.exponent < 0)
        assert parse_product_term(format_product_term(term)) == FactorList(upper + lower,
                                                                            term.constant)

    def test_print_parse_round_trip_random(self):
        # printing normalizes to numerator-then-denominator order; on that
        # normalized form parse -> print -> parse is the identity
        rng = random.Random(7)
        for _ in range(200):
            fl = random_factor_list(rng)
            normalized = parse_product_term(format_product_term(fl))
            assert parse_product_term(format_product_term(normalized)) == normalized
            assert sorted(triples(normalized)) == sorted(triples(fl))
            assert normalized.constant == fl.constant

    def test_print_parse_identity_on_normalized(self):
        rng = random.Random(8)
        for _ in range(100):
            fs = [(rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 3))]
            fs += [(rng.randint(1, 9), rng.randint(-9, 9), -rng.randint(1, 3))
                   for _ in range(rng.randint(0, 3))]
            fl = factor_list(fs)
            assert parse_product_term(format_product_term(fl)) == fl




class TestConvergence:
    def test_woods_robbins_modes(self):
        fl = parse_product_term("(2n+1)/(2n+2)")
        assert factored_convergence(fl, "delta").ok
        v = factored_convergence(fl, "theta")
        assert not v.ok and v.reason == "sum-of-roots"

    def test_theta_pass_instance(self):
        fl = factor_list([(1, 1, 1), (2, 3, 1), (2, 3, 1),
                          (1, 3, -1), (2, 1, -1), (2, 1, -1)])
        assert factored_convergence(fl, "theta").ok

    def test_identical_sides(self):
        fl = parse_product_term("(n+1)/(n+1)")
        assert factored_convergence(fl, "delta").ok
        assert factored_convergence(fl, "theta").ok

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ValueError, match="^mode must be 'delta' or 'theta', got 'plain'$"):
            factored_convergence(parse_product_term("(2n+1)/(2n+2)"), "plain")

    def test_degree_mismatch(self):
        fl = parse_product_term("((n+1)(n+2))/(n+3)")
        assert factored_convergence(fl, "delta").reason == "degree"

    def test_exactness_flips_on_tiny_perturbation(self):
        eps = Fraction(1, 10**9)
        # leading coefficients (1 + eps) * 2 against 2
        fl = factor_list([(2, 1, 1), (2, 2, -1)], constant=1 + eps)
        assert factored_convergence(fl, "delta").reason == "leading-coefficient"
        # theta: perturb one root so the root sums differ by 1e-9
        fl2 = factor_list([(1, 1 + eps, 1), (1, 1, -1)])
        assert factored_convergence(fl2, "delta").ok
        assert factored_convergence(fl2, "theta").reason == "sum-of-roots"


class TestIntegerZerosPoles:
    def test_examples(self):
        assert factored_zeros_poles(parse_product_term("(n-3)/(n+1)"), 1) == [3]
        assert factored_zeros_poles(parse_product_term("(2n-1)/(2n+2)"), 0) == []
        assert factored_zeros_poles(
            parse_product_term("((6n-3)(6n+3))/((6n-1)(6n+5))"), 0) == []

    def test_n_start_filters(self):
        fl = parse_product_term("((n-2)(n-7))/(n-4)")
        assert factored_zeros_poles(fl, 0) == [2, 4, 7]
        assert factored_zeros_poles(fl, 3) == [4, 7]
        assert factored_zeros_poles(fl, 8) == []

    def test_zero_at_origin(self):
        assert factored_zeros_poles(parse_product_term("(n)/(n+1)"), 0) == [0]


class TestLogExpansion:
    def test_woods_robbins_coefficients(self):
        betas = factored_log_expansion(parse_product_term("(2n+1)/(2n+2)"), 3)
        assert betas == [Fraction(-1, 2), Fraction(3, 8), Fraction(-7, 24)]
        assert all(isinstance(b, Fraction) for b in betas)

    def test_trivial_all_zero(self):
        assert all(b == 0 for b in factored_log_expansion(parse_product_term("(n+1)/(n+1)"), 6))

    def test_requires_delta_convergence(self):
        with pytest.raises(ValueError):
            factored_log_expansion(parse_product_term("(2n+1)/(n+1)"), 4)

    def test_negative_order_is_refused(self):
        with pytest.raises(ValueError, match="^J must be >= 0$"):
            factored_log_expansion(parse_product_term("(2n+1)/(2n+2)"), -1)

    def test_beta1_vanishes_for_theta_convergent(self):
        rng = random.Random(5)
        for _ in range(100):
            fl = random_theta_convergent(rng)
            assert factored_convergence(fl, "theta").ok
            assert factored_log_expansion(fl, 2)[0] == 0

    def test_remainder_decay_order(self):
        # |ln R(n) - sum beta_j n^-j| should shrink ~2^(J+1) when n doubles
        rng = random.Random(31)
        J = 8
        checked = 0
        while checked < 10:
            fl = random_delta_convergent(rng)
            betas = factored_log_expansion(fl, J + 2)
            if betas[J] == 0:
                continue
            with mp.workdps(60):
                ratios = []
                for n in (2**10, 2**11):
                    v = exact_real_value(fl, n)
                    lnr = mp.log(mp.mpf(v.numerator) / v.denominator)
                    series = mp.fsum(
                        (mp.mpf(b.numerator) / b.denominator) * mp.mpf(n) ** -j
                        for j, b in enumerate(betas[:J], start=1))
                    ratios.append(lnr - series)
                if ratios[1] == 0:
                    continue
                ratio = abs(ratios[0] / ratios[1])
            assert 2**J <= ratio <= 2 ** (J + 2), (fl, float(ratio))
            checked += 1


def polynomial_form_value(fl: FactorList, n: int) -> Fraction:
    """num(n)/den(n): the numerator and denominator products, each taken
    factor by factor and unexpanded, then divided."""
    num, den = Fraction(fl.constant.numerator), Fraction(fl.constant.denominator)
    for f in fl.factors:
        if f.exponent > 0:
            num *= (f.alpha * n + f.beta) ** f.exponent
        else:
            den *= (f.alpha * n + f.beta) ** -f.exponent
    return num / den


class TestEvaluation:
    def test_examples(self):
        v = exact_real_value(parse_product_term("((6n-3)(6n+3))/((6n-1)(6n+5))"), 0)
        assert v == Fraction(9, 5)
        assert exact_real_value(parse_product_term("(2n+1)/(2n+2)"), 0) == Fraction(1, 2)
        with pytest.raises(EvaluationError):
            exact_real_value(parse_product_term("(n-3)/(n+1)"), 3)

    def test_rational_function_path(self):
        # the exact quotient of a rational term, and its pole
        assert exact_real_value(parse_product_term("(2n+1)/(2n+2)"), 1) == Fraction(3, 4)
        with pytest.raises(EvaluationError):
            exact_real_value(parse_product_term("(n+1)/(n-1)"), 1)

    def test_real_requires_positive(self):
        # R(1) is exact and negative, and the positivity check finds it
        term = parse_product_term("(n-3)/(n+1)")
        assert exact_real_value(term, 1) == -1
        assert first_non_positive(term, 1) == 1

    def test_factorlist_matches_polynomial_form(self):
        rng = random.Random(3)
        for _ in range(50):
            fl = random_factor_list(rng)
            n = rng.randint(21, 60)
            assert exact_real_value(fl, n) == polynomial_form_value(fl, n)


def test_one_coercion_rule_for_rational_parameters():
    """Every entry point that takes exact rationals coerces through
    ratfun.as_fraction: int and Fraction pass, anything else is a TypeError
    with one message."""
    q3 = make_sequence("gtm", 3, bits="01")
    calls = [
        lambda x: as_fraction(x),
        lambda x: factor_list([(1, x, 1), (1, 1, -1)]),
        lambda x: families.tm_cosine_family(x),
        lambda x: build_scaling_term(q3, x, 1),
        lambda x: log_gamma_product([x], [x]),
        lambda x: build_gamma_ratio_term(q3, [x], [x]),
    ]
    for call in calls:
        call(Fraction(1, 2))
        for bad in (0.5, 1j, "1/2"):
            with pytest.raises(TypeError, match="expected int or Fraction"):
                call(bad)
    assert as_fraction(3) == Fraction(3) and isinstance(as_fraction(3), Fraction)


def test_as_fraction_returns_a_fraction_unchanged():
    half = Fraction(1, 2)
    assert as_fraction(half) is half
    term = factor_list([(2, half, 1), (2, 1, -1)])
    assert term.factors[0].beta is half


@pytest.mark.parametrize("triples_,kind", [
    ([(2.7, 1, 1), (2, 1, -1)], "float"),
    ([(2, 1, 1), (2, 1, -1.0)], "float"),
    ([(True, 1, 1), (1, 1, -1)], "bool"),
    ([(1, 1, True), (1, 2, -1)], "bool"),
], ids=["float-slope", "float-exponent", "bool-slope", "bool-exponent"])
def test_factor_list_takes_int_slopes_and_exponents_only(triples_, kind):
    # a float slope used to be truncated and a float exponent kept, so the
    # first case built (2n+1)/(2n+1); offsets were already int or Fraction only
    with pytest.raises(TypeError, match=f"must be an int, got {kind}"):
        factor_list(triples_)


def test_bool_is_not_a_rational_parameter():
    """bool is an int subclass, but True is no parameter: the one coercion
    rule refuses it with its message, and the factorial family's degree too."""
    q3 = make_sequence("gtm", 3, bits="01")
    calls = [
        lambda x: as_fraction(x),
        lambda x: factor_list([(1, x, 1), (1, 1, -1)]),
        lambda x: build_scaling_term(q3, x, 2),
        lambda x: build_gamma_ratio_term(q3, [x, 1], [1, x]),
        lambda x: families.tm_power_of_two_family(x),
        lambda x: families.symmetric_pair_family(q3, x),
        lambda x: log_gamma_product([x], [x]),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="expected int or Fraction, got bool"):
            call(True)
    with pytest.raises(ValueError, match="d must be a positive integer"):
        families.tm_factorial_family(True)
