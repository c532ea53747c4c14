import math
import random
import re
from fractions import Fraction

import mpmath as mp
import pytest

from gtmprod import families
from gtmprod.catalog import load_catalog
from gtmprod.dirichlet import DirichletCache, EpsUnachievableError
from gtmprod.evaluator import (
    ProductRejectedError,
    ProductSpec,
    build_gamma_ratio_term,
    build_scaling_term,
    check_product,
    evaluate_direct,
    evaluate_product,
    plain_product_log_closed,
    verify_functional_equation,
    verify_identity,
)
from gtmprod.evaluator import (
    _HEAD_RUN,
    MAX_J,
    MAX_N,
    _direct_sums,
    _head_logs,
    _series_cutoff,
    _tail_bound,
)
from gtmprod.gammafn import gamma
from gtmprod.ratfun import (
    FactorList,
    factor_list,
    first_non_positive,
    parse_product_term,
)
from gtmprod.sequences import make_sequence, parse_seq_spec, sign_at

TM = parse_seq_spec("gtm:2:1")
G3 = parse_seq_spec("gtm:3:001")
WR_TERM = parse_product_term("(2n+1)/(2n+2)")
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def wr_spec(mode="delta"):
    return ProductSpec(TM, mode, 0, WR_TERM)


class TestCheckProduct:
    def test_accepts_woods_robbins(self):
        assert check_product(wr_spec()).ok

    def test_rejects_theta_for_unbalanced_roots(self):
        chk = check_product(wr_spec("theta"))
        assert not chk.ok and chk.reason == "sum-of-roots"

    def test_rejects_trivial_pattern(self):
        allplus = make_sequence("gtm", 2, bits="0")
        chk = check_product(ProductSpec(allplus, "delta", 0, WR_TERM))
        assert chk.reason == "trivial-pattern"

    def test_rejects_zero_or_pole(self):
        term = parse_product_term("(n-3)/(n-4)")
        chk = check_product(ProductSpec(TM, "delta", 0, term))
        assert chk.reason.startswith("zero-or-pole")

    def test_rejects_cancelled_pole(self):
        # (n-2) cancels in R, but the integer form keeps its offset with E = 0,
        # so the factor that vanishes at n = 2 is still seen
        term = parse_product_term("((n-2)(n+1))/((n-2)(n+2))")
        assert term.integer_form == ((1, 1), 1, ((-2, 0), (1, 1), (2, -1)))
        chk = check_product(ProductSpec(TM, "delta", 0, term))
        assert chk.reason == "zero-or-pole at n=2"
        assert first_non_positive(term, 0) == 2

    def test_rejects_bad_start(self):
        chk = check_product(ProductSpec(TM, "delta", 2, WR_TERM))
        assert chk.reason == "start-out-of-range"

    def test_rejects_negative_term_value(self):
        term = parse_product_term("(n-20)/(n+1)")  # negative on a long prefix
        chk = check_product(ProductSpec(TM, "delta", 0, term))
        assert chk.reason.startswith("zero-or-pole") or "non-positive" in chk.reason

    @pytest.mark.parametrize("start", [0, 1])
    def test_rejects_late_negative_value(self, start):
        # positive up to n = 100, -1 at n = 101
        term = parse_product_term("(2n-201)/(2n-203)")
        chk = check_product(ProductSpec(TM, "delta", start, term))
        assert chk.reason == "non-positive-term at n=101"

    def test_rejects_far_negative_value_without_scanning(self):
        term = parse_product_term("(2n-2000000000001)/(2n-2000000000003)")
        chk = check_product(ProductSpec(TM, "delta", 1, term))
        assert chk.reason == "non-positive-term at n=1000000000001"

    def test_rejects_degree_mismatch(self):
        term = parse_product_term("((n+1)(n+2))/(n+3)")
        assert check_product(ProductSpec(TM, "delta", 0, term)).reason == "degree"

    def test_evaluate_raises_on_rejection(self):
        with pytest.raises(ProductRejectedError):
            evaluate_product(wr_spec("theta"), eps=1e-9)

    def test_a_spec_is_checked_once(self, monkeypatch):
        # a library caller's evaluate_product still checks a fresh spec, and
        # a spec evaluated again reads its verdict instead of a second check
        import gtmprod.evaluator as emod

        calls = []
        monkeypatch.setattr(emod, "check_product",
                            lambda spec, real=check_product: calls.append(spec) or real(spec))
        good, bad = wr_spec(), wr_spec("theta")
        for _ in range(2):
            evaluate_product(good, eps=1e-9)
            with pytest.raises(ProductRejectedError, match="sum-of-roots"):
                evaluate_product(bad, eps=1e-9)
        assert calls == [good, bad]
        assert good.verdict.ok and not bad.verdict.ok


class TestAcceleratedEvaluator:
    def test_woods_robbins(self, cache):
        res = evaluate_product(wr_spec(), eps=1e-9, cache=cache)
        assert res.est_error <= 1e-9
        assert abs(res.log_value - math.log(INV_SQRT2)) <= res.est_error + 1e-14
        assert abs(res.value - INV_SQRT2) < 1e-11
        assert res.method == "accel"
        assert math.exp(res.log_value) == res.value

    def test_base3_example(self, cache):
        spec = ProductSpec(G3, "delta", 0, parse_product_term("(3n+2)/(3n+3)"))
        res = evaluate_product(spec, eps=1e-9, cache=cache)
        assert abs(res.value - 1.0 / math.sqrt(3.0)) < 1e-11

    def test_theta_gamma_record(self, cache):
        term = parse_product_term("((2n+1)(4n+3))/((2n+2)(4n+1))")
        res = evaluate_product(ProductSpec(TM, "theta", 0, term), eps=1e-9, cache=cache)
        rhs = (gamma(0.25) / (math.sqrt(2.0) * math.pi**0.75)).real
        assert abs(res.value - rhs) < 1e-10
        assert abs(rhs - 1.0864) < 1e-4

    def test_negative_factor_head_is_exact(self, cache):
        term = parse_product_term("((6n-3)(6n+3))/((6n-1)(6n+5))")
        res = evaluate_product(ProductSpec(G3, "delta", 0, term), eps=1e-9, cache=cache)
        assert abs(res.value - 1.0) < 1e-11

    def test_determinism(self, cache):
        a = evaluate_product(wr_spec(), eps=1e-9, cache=cache)
        b = evaluate_product(wr_spec(), eps=1e-9, cache=cache)
        assert (a.value, a.log_value, a.est_error) == (b.value, b.log_value, b.est_error)

    def test_eps_unachievable(self, cache):
        with pytest.raises(EpsUnachievableError):
            evaluate_product(wr_spec(), eps=1e-18, cache=cache)

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0, math.inf])
    def test_rejects_bad_eps_before_any_work(self, eps):
        fresh = DirichletCache()
        with pytest.raises(ValueError):
            evaluate_product(wr_spec(), eps=eps, cache=fresh)
        assert fresh.mp_lookup(TM.spec, 1) is None

    def test_refuses_past_max_n_before_summing(self, cache):
        # the cutoff alone, 4M with M = 800003, is past MAX_N
        spec = ProductSpec(TM, "delta", 0, parse_product_term("(n+400000)/(n+400001)"))
        with pytest.raises(EpsUnachievableError, match="N <= 1000000"):
            evaluate_product(spec, eps=1e-9, cache=cache)

    def test_refuses_below_dirichlet_accuracy_before_summing(self, cache, monkeypatch):
        # F(1) is good to about 4e-32, so |beta_1| = 1/2 charges about 2e-32,
        # past eps/4: no order fits (J = 0), and no N could mend that
        import gtmprod.evaluator as emod

        summed = []
        monkeypatch.setattr(emod, "_head_logs", lambda *args: summed.append(args) or [])
        with pytest.raises(EpsUnachievableError,
                           match="below the accuracy of the Dirichlet constants") as info:
            evaluate_product(wr_spec(), eps=5e-32, cache=cache)
        assert "N <=" not in str(info.value) and summed == []

    def test_refusal_blames_dirichlet_constants_that_cap_j(self, cache, monkeypatch):
        # at eps 1e-31 order 1 fits and order 2 does not, so J = 1, whose
        # tail bound at MAX_N is near 6e-7: no N could mend it, while all
        # MAX_J orders would fit, so the constants are named, not N
        import gtmprod.evaluator as emod

        summed = []
        monkeypatch.setattr(emod, "_head_logs", lambda *args: summed.append(args) or [])
        with pytest.raises(EpsUnachievableError,
                           match="below the accuracy of the Dirichlet constants: "
                                 "order 2 is good to") as info:
            evaluate_product(wr_spec(), eps=1e-31, cache=cache)
        assert "N <=" not in str(info.value) and summed == []

    def test_refusal_blames_n_where_the_tail_is_the_limit(self, cache):
        # a root near 2e5 keeps 4M below MAX_N, but its tail bound at MAX_N
        # is past eps/4 even with every order, so N is the limit
        spec = ProductSpec(TM, "delta", 0, parse_product_term("(n+200000)/(n+200001)"))
        with pytest.raises(EpsUnachievableError, match="cannot be certified with N <= 1000000"):
            evaluate_product(spec, eps=1e-9, cache=cache)


def _rhs_log_30(text: str):
    """log of a catalog right-hand side, evaluated by mpmath at 30 digits.

    The text is the builtin catalog's own: integers become mpf and ^ is **."""
    src = re.sub(r"\d+", lambda m: f"mpf({m.group()})", text.replace("^", "**"))
    names = {"mpf": mp.mpf, "sqrt": mp.sqrt, "gamma": mp.gamma, "cos": mp.cos, "pi": mp.pi}
    with mp.workdps(30):
        return mp.log(eval(src, {"__builtins__": {}}, names))


def _ladder_specs():
    q5 = make_sequence("gtm", 5, bits="1011")
    q3 = make_sequence("gtm", 3, bits="01")
    a = [Fraction(40), Fraction(1, 8)]
    b = [Fraction(20, 3), sum(a) - Fraction(20, 3)]  # equal sums, offsets up to 40
    records = {r.id: r.product_spec() for r in load_catalog("builtin")}
    return {
        "wr": wr_spec(),
        "g1.q5.k4": records["g1.q5.k4"],
        "cor1.10.5.16": records["cor1.10.5.16"],
        "ex1.6.13": records["ex1.6.13"],
        "thm_f-offset-59": ProductSpec(
            q5, "delta", 1, build_scaling_term(q5, Fraction(59), Fraction(1, 12))[0]),
        "thm_frak-offset-40": ProductSpec(q3, "theta", 1, build_gamma_ratio_term(q3, a, b)[0]),
    }


_M0 = 16


def _reference_dirichlet(seq, t, memo):
    """F(t) = sum_{n>=1} delta_n n^-t at the working precision, apart from the
    ladder: the direct sum below q M0, and for n = qm + k with m >= M0 the
    binomial expansion of (qm + k)^-t, whose ratio is below 1/M0.  With
    H_s = sum_{m<M0} delta_m m^-s and c_i = sum_k delta_k k^i,
    F(t) (1 - c_0 q^-t) = sum_{n<q M0} delta_n n^-t - c_0 q^-t H_t
                          + sum_{i>=1} C(-t,i) c_i q^-(t+i) (F(t+i) - H_(t+i)).
    Orders t >= 40 are summed directly."""
    if t in memo:
        return memo[t]
    q, signs = seq.q, seq.signs
    floor = mp.mpf(10) ** -(mp.mp.dps + 10)

    def head(s, n_max):
        if (s, n_max) not in memo:
            memo[s, n_max] = mp.fsum(mp.mpf(sign_at(seq, n)) / n**s for n in range(1, n_max))
        return memo[s, n_max]

    if t >= 40:  # n^-t is below floor past n_max
        value = head(t, int(floor ** (-1.0 / t)) + 2)
    else:
        c0 = sum(signs)
        value = head(t, q * _M0) - c0 * head(t, _M0) / mp.mpf(q) ** t
        i, binom = 0, 1
        while True:
            i += 1
            binom = binom * (-t - i + 1) // i  # C(-t, i)
            c = sum(s * k**i for k, s in enumerate(signs))
            if c:
                tail = _reference_dirichlet(seq, t + i, memo) - head(t + i, _M0)
                value += tail * (binom * c) / q ** (t + i)
            # the i-th term is at most |C(-t,i)| (q-1)^(i+1) (1 + M0) (q M0)^-(t+i),
            # and past i = t the ratio of these bounds is below 1/8
            if i > t and abs(binom) * (q - 1) ** (i + 1) * (1 + _M0) < floor * (q * _M0) ** (t + i):
                break
        value /= 1 - c0 / mp.mpf(q) ** t
    memo[t] = value
    return value


def _series_specs():
    """The catalog records, and theta-weighted thm_frak instances for q = 2..5."""
    specs = [r.product_spec() for r in load_catalog("builtin")]
    rng = random.Random(4242)
    for bits in ("1", "01", "11", "011", "101", "1011", "0110"):
        seq = make_sequence("gtm", len(bits) + 1, bits=bits)
        a = [Fraction(rng.randint(1, 40), rng.randint(1, 6)) for _ in range(2)]
        b = [Fraction(rng.randint(1, 20), rng.randint(1, 6))]
        b.append(sum(a) - b[0])
        specs.append(ProductSpec(seq, "theta", 1, build_gamma_ratio_term(seq, a, b)[0]))
    return specs


class TestCertificate:
    def test_series_within_charge_of_60_digit_reference(self, cache):
        # sum_j beta_j T_j, T_j = sum_{n>N} w_n n^-j at N = 4M (the least N the
        # evaluator takes), against mpmath at 60 digits with F(j) from
        # _reference_dirichlet and zeta(j) from mpmath
        memos = {}
        with mp.workdps(60):
            for spec in _series_specs():
                N = 4 * _series_cutoff(spec.term)
                pairs = spec.term.log_pairs(MAX_J)
                record = cache.series_record(spec.seq, spec.mode)
                J, orders, charge = record.fit(pairs, math.inf)
                assert J == MAX_J and orders
                w = [sign_at(spec.seq, n) for n in range(N + 1)]
                if spec.mode == "theta":
                    w = [(1 - x) // 2 for x in w]
                series = record.series(orders, w)
                memo = memos.setdefault(spec.seq.spec, {})
                ref = mp.mpf(0)
                for j, p, r in orders:
                    g = _reference_dirichlet(spec.seq, j, memo)
                    if spec.mode == "theta":
                        g = (mp.zeta(j) - g) / 2
                    t = g - mp.fsum(mp.mpf(w[n]) / n**j for n in range(1, N + 1))
                    ref += mp.mpf(p) / r * t
                # the charge bounds the fixed-point sum; the division rounds once more
                dev = float(abs(mp.mpf(series) - ref))
                assert dev <= charge + 2.0**-53 * abs(series), (spec, dev, charge)

    def test_head_runs_stay_inside_binary64(self):
        # ((n+1)/(n+2))^300 over n = 0..9 multiplies to 11^-300, about 2^-1038,
        # which binary64 cannot hold: the run has to end early
        term = parse_product_term("((n+1)^300)/((n+2)^300)")
        for sign in (1, -1):
            logs = _head_logs(term, 0, [sign] * 10)
            assert len(logs) > 1
            assert abs(math.fsum(logs) + sign * 300 * math.log(11)) <= 1e-12
        # a single term outside binary64, 2^-3000 or 2^3000, is one run of its own
        term = parse_product_term("((n+1)^3000)/((n+2)^3000)")
        for sign in (1, -1):
            assert _head_logs(term, 0, [sign]) == [-sign * 3000 * math.log(2.0)]
        logs = _head_logs(parse_product_term("(n+1)/(n+2)"), 0, [1] * 200)
        assert len(logs) == math.ceil(200 / _HEAD_RUN)
        assert abs(math.fsum(logs) + math.log(201)) <= 1e-14

    def test_head_term_outside_binary64(self, cache):
        # R(0) = 2^-2400 of R = r^2400, r = (n+1)/(n+2), is far below binary64
        # and ends its head run on its own; both evaluators give 2400 ln P(r)
        def spec(e):
            return ProductSpec(TM, "delta", 0, parse_product_term(f"((n+1)^{e})/((n+2)^{e})"))

        base, res = (evaluate_product(spec(e), eps=1e-9, cache=cache) for e in (1, 2400))
        assert abs(res.log_value - 2400 * base.log_value) <= res.est_error + 2400 * base.est_error
        (_, base, base_round), (_, mean, fl_round) = (_direct_sums(spec(e), 7) for e in (1, 2400))
        assert abs(mean - 2400 * base) <= fl_round + 2400 * base_round

    def test_value_past_binary64_is_inf(self, cache):
        # log P = 6000 ln P(r), about 877.6, is past ln(2^1024): the value
        # rounds to inf, as a log below -745 gives 0.0, and the certified log
        # stands; the direct oracle agrees within both certificates
        spec = ProductSpec(TM, "delta", 1,
                           parse_product_term("((n+1)^6000(n+3)^6000)/((n+2)^12000)"))
        res = evaluate_product(spec, eps=1e-6, cache=cache)
        direct = evaluate_direct(spec)
        assert res.value == direct.value == math.inf
        assert 877.0 < res.log_value < 878.0 and res.est_error <= 1e-6
        assert abs(res.log_value - direct.log_value) <= res.est_error + direct.est_error
        base = evaluate_product(ProductSpec(TM, "delta", 1, parse_product_term(
            "((n+1)(n+3))/((n+2)^2)")), eps=1e-13, cache=cache)
        assert abs(res.log_value - 6000 * base.log_value) <= res.est_error + 6000 * base.est_error
        small = evaluate_product(ProductSpec(TM, "delta", 1, parse_product_term(
            "((n+2)^12000)/((n+1)^6000(n+3)^6000)")), eps=1e-6, cache=cache)
        assert small.value == 0.0
        assert abs(small.log_value + res.log_value) <= small.est_error + res.est_error

    def test_huge_exponents_keep_head_runs_small(self, cache, monkeypatch):
        # a run ends before its numerator passes _HEAD_BITS (its denominator
        # stays within 960 bits of it), so no product reaches the million
        # bits of 64 such terms; the log is bitwise the one of unbounded
        # runs, and the bound, which charges each run, stays near the 9.1e-13
        # of unbounded runs and inside eps
        import gtmprod.evaluator as emod

        sizes = []
        real = emod._log_quotient
        monkeypatch.setattr(emod, "_log_quotient", lambda num, den: sizes.append(
            max(num.bit_length(), den.bit_length())) or real(num, den))
        spec = ProductSpec(TM, "delta", 1,
                           parse_product_term("((n+1)^6000(n+3)^6000)/((n+2)^12000)"))
        res = evaluate_product(spec, eps=1e-6, cache=cache)
        assert res.log_value.hex() == "0x1.b6cd02eb6b55ap+9"
        assert (res.terms_used, res.dirichlet_orders) == (28, 16)
        assert 9.0e-13 <= res.est_error <= 2e-12
        assert sizes and max(sizes) <= emod._HEAD_BITS + 960

    @pytest.mark.parametrize("J", [1, 4, 16])
    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(3), Fraction(15, 2)])
    def test_tail_bound_is_proven_and_close(self, c, J):
        # sum_{n>N} |ln(1 + c/n) - sum_{j<=J} (-1)^(j+1) (c/n)^j / j| at N = 4M
        N = 4 * (math.ceil(2 * c) + 1)
        with mp.workdps(60):
            cm = mp.mpf(c.numerator) / c.denominator
            true = mp.nsum(lambda n: abs(mp.log1p(cm / n) - mp.fsum(
                (-1) ** (j + 1) * (cm / n) ** j / j for j in range(1, J + 1))), [N + 1, mp.inf])
        bound = _tail_bound([(float(c), 2)], J, N) / 2
        assert true <= bound <= 4 * true, (float(true), bound)

    @pytest.mark.parametrize("eps", [2.5e-9, 1e-13])
    def test_covers_true_error_on_catalog(self, eps, cache):
        for record in load_catalog("builtin"):
            res = evaluate_product(record.product_spec(), eps=eps, cache=cache)
            with mp.workdps(30):
                dlog = float(abs(mp.mpf(res.log_value) - _rhs_log_30(record.rhs)))
            assert dlog <= res.est_error <= eps, (record.id, dlog, res.est_error)

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-11])
    def test_wide_offsets_within_certificate(self, eps, cache):
        # |beta_16| err_16 is about 1e-3 at offsets near 60: J has to come from the budget
        q5 = make_sequence("gtm", 5, bits="1011")
        term, rhs = build_scaling_term(q5, Fraction(59), Fraction(1, 12))
        res = evaluate_product(ProductSpec(q5, "delta", 1, term), eps=eps, cache=cache)
        with mp.workdps(30):
            exact = mp.log(mp.mpf(rhs.numerator) / rhs.denominator)
            dlog = float(abs(mp.mpf(res.log_value) - exact))
        assert dlog <= res.est_error <= eps, (dlog, res.est_error)

    @pytest.mark.parametrize("name", sorted(_ladder_specs()))
    def test_certified_eps_form_upper_set(self, name, cache):
        spec = _ladder_specs()[name]
        certified = []
        for eps in (10.0**-k for k in range(6, 16)):
            try:
                res = evaluate_product(spec, eps=eps, cache=cache)
            except EpsUnachievableError:
                certified.append(False)
            else:
                assert res.est_error <= eps
                certified.append(True)
        assert certified[0] and certified == sorted(certified, reverse=True), certified


class TestDirectEvaluator:
    def test_woods_robbins_within_estimate(self, cache):
        res = evaluate_direct(wr_spec(), 1 << 20, cache=cache)
        assert abs(res.log_value - math.log(INV_SQRT2)) <= res.est_error
        assert res.terms_used == 1 << 20

    def test_base3_within_estimate(self, cache):
        spec = ProductSpec(G3, "delta", 0, parse_product_term("(3n+2)/(3n+3)"))
        res = evaluate_direct(spec, 3**12, cache=cache)
        assert abs(res.log_value - math.log(1.0 / math.sqrt(3.0))) <= res.est_error

    def test_trivial_term_exact_one(self, cache):
        spec = ProductSpec(TM, "delta", 0, parse_product_term("(n+1)/(n+1)"))
        for n in (16, 4096):
            res = evaluate_direct(spec, n, cache=cache)
            assert res.value == 1.0 and res.log_value == 0.0
        res = evaluate_product(spec, eps=1e-9, cache=cache)
        assert res.value == 1.0

    def test_theta_mode(self, cache):
        term = parse_product_term("((n+1)(2n+3)^2)/((n+3)(2n+1)^2)")
        spec = ProductSpec(TM, "theta", 0, term)
        res = evaluate_direct(spec, 1 << 16, cache=cache)
        assert abs(res.log_value - math.log(2.0)) <= res.est_error

    def test_root_past_binary64_is_summed_exactly(self, cache):
        # thm_f at a = 10^400: a root past MAX_N and past binary64, which the
        # accelerated path refuses; every term below 64 lies below the roots,
        # so the oracle takes them all exactly and builds no float offset
        term, rhs = build_scaling_term(TM, 10**400, 1)
        assert 4 * _series_cutoff(term) > MAX_N
        res = evaluate_direct(ProductSpec(TM, "delta", 1, term), 64, cache=cache)
        with mp.workdps(30):
            exact = float(mp.log(mp.mpf(rhs.numerator) / rhs.denominator))
        assert abs(res.log_value - exact) <= res.est_error

    def test_n_too_small(self, cache):
        with pytest.raises(ValueError):
            evaluate_direct(wr_spec(), 3, cache=cache)


class TestVerifyIdentity:
    def test_pass(self, cache):
        rep = verify_identity(wr_spec(), INV_SQRT2, 1e-8, cache=cache)
        assert rep.ok and rep.abs_dlog < 1e-11

    def test_fail_with_reported_gap(self, cache):
        rep = verify_identity(wr_spec(), 0.5, 1e-8, cache=cache)
        assert not rep.ok
        assert abs(rep.abs_dlog - math.log(math.sqrt(2.0))) < 1e-9

    def test_direct_method(self, cache):
        rep = verify_identity(wr_spec(), INV_SQRT2, 1e-4, cache=cache,
                              method="direct", direct_n=1 << 16)
        assert rep.ok and rep.method == "direct"

    def test_rejection_becomes_failure_report(self, cache):
        rep = verify_identity(wr_spec("theta"), 1.0, 1e-8, cache=cache)
        assert not rep.ok and "sum-of-roots" in rep.reason

    def test_rhs_must_be_positive(self, cache):
        with pytest.raises(ValueError):
            verify_identity(wr_spec(), -1.0, 1e-8, cache=cache)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_rejects_bad_tol_before_any_work(self, tol):
        fresh = DirichletCache()
        with pytest.raises(ValueError):
            verify_identity(wr_spec(), INV_SQRT2, tol, cache=fresh)
        with pytest.raises(ValueError):
            verify_functional_equation("thm_f", 2, "1", {"a": 1, "b": 2}, tol=tol, cache=fresh)
        assert fresh.mp_lookup(TM.spec, 1) is None


class TestFunctionalEquations:
    def test_scaling_instance(self, cache):
        rep = verify_functional_equation(
            "thm_f", 2, "1", {"a": Fraction(1), "b": Fraction(2)}, cache=cache)
        assert rep.ok
        # RHS is ((a+1)/(b+1))^(delta_1) with delta_1 = -1
        assert abs(rep.rhs_value - 1.5) < 1e-14

    def test_scaling_degenerate_exactly_one(self, cache):
        for q, bits in ((2, "1"), (3, "01"), (4, "011")):
            a = Fraction(5, 3)
            rep = verify_functional_equation(
                "thm_f", q, bits, {"a": a, "b": a}, cache=cache)
            assert rep.ok and rep.lhs_value == 1.0 and rep.rhs_value == 1.0

    def test_gamma_ratio_instance(self, cache):
        rep = verify_functional_equation(
            "thm_frak", 2, "1", {"a_list": [1, 3], "b_list": [2, 2]}, cache=cache)
        assert rep.ok
        assert abs(rep.rhs_value - math.pi / 4.0) < 1e-13

    def test_random_batches(self, cache):
        # each batch has its seed and its bases for thm_f and thm_frak: the
        # small ones, then q = 6..16, the large bases the contract promises
        for seed, f_bases, frak_bases in ((7331, (2, 5), (2, 4)), (1616, (6, 16), (6, 16))):
            rng = random.Random(seed)
            for _ in range(10):
                q = rng.randint(*f_bases)
                bits = "".join(rng.choice("01") for _ in range(q - 1))
                if "1" not in bits:
                    bits = "1" + bits[1:]
                a = Fraction(rng.randint(1, 60), rng.randint(1, 12))
                b = Fraction(rng.randint(1, 60), rng.randint(1, 12))
                rep = verify_functional_equation("thm_f", q, bits,
                                                 {"a": a, "b": b}, cache=cache)
                assert rep.ok, (q, bits, a, b, rep)
            for _ in range(10):
                q = rng.randint(*frak_bases)
                bits = "".join(rng.choice("01") for _ in range(q - 1))
                if "1" not in bits:
                    bits = "1" + bits[1:]
                d = rng.randint(1, 3)
                a = [Fraction(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(d)]
                b = [Fraction(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(d - 1)]
                b.append(sum(a) - sum(b))
                if b[-1] <= 0:
                    a[0] += 1 - b[-1]
                    b[-1] += 1 - b[-1]
                rep = verify_functional_equation("thm_frak", q, bits,
                                                 {"a_list": a, "b_list": b}, cache=cache)
                assert rep.ok, (q, bits, a, b, rep)

    def test_value_past_binary64_is_certified(self, cache):
        # the product's log is about 862, past ln(2^1024): the right-hand side
        # is reported as inf, as the left-hand side is, not an OverflowError
        rep = verify_functional_equation(
            "thm_frak", 2, "1", {"a_list": [Fraction(2501, 2)] * 2, "b_list": [2500, 1]},
            tol=1e-7, cache=cache)
        assert rep.ok and rep.lhs_value == rep.rhs_value == math.inf
        assert rep.abs_dlog <= 1e-7 + rep.est_error

    def test_huge_scaling_parameter_reaches_the_evaluator(self, cache):
        # the rational right-hand side is about 1e-399, below binary64: its log
        # is taken exactly, and the evaluator's own refusal is what stops it
        q5, a, b = make_sequence("gtm", 5, bits="1011"), Fraction(10**200), Fraction(1, 3)
        _, _, _, rhs_log = families.scaling_family(q5, a, b)
        _, rhs = build_scaling_term(q5, a, b)
        with mp.workdps(30):
            exact = mp.log(mp.mpf(rhs.numerator) / rhs.denominator)
        assert math.isfinite(rhs_log) and abs(rhs_log - exact) <= 1e-15 * abs(exact)
        with pytest.raises(EpsUnachievableError, match="N <= 1000000"):
            verify_functional_equation("thm_f", 5, "1011", {"a": a, "b": b}, cache=cache)

    @pytest.mark.parametrize("kind, params, error, match", [
        ("thm_f", {"a": Fraction(10**400), "b": 1}, EpsUnachievableError, "N <= 1000000"),
        ("thm_frak", {"a_list": [Fraction(10**400), 1], "b_list": [1, Fraction(10**400)]},
         ValueError, "Gamma argument .* past binary64"),
        ("thm_frak", {"a_list": [Fraction(10**400), 2], "b_list": [Fraction(10**400 + 1), 1]},
         ValueError, "Gamma argument .* past binary64"),
    ], ids=["thm_f", "thm_frak-swapped", "thm_frak-shifted"])
    def test_offsets_past_binary64_are_refused(self, cache, kind, params, error, match):
        # each has a root past MAX_N and past binary64: thm_f reaches the
        # evaluator's own refusal, and thm_frak's Gamma right-hand side,
        # formed first, is refused as out of range; neither overflows
        with pytest.raises(error, match=match):
            verify_functional_equation(kind, 2, "1", params, cache=cache)

    def test_domain_validation(self, cache):
        with pytest.raises(ValueError):
            verify_functional_equation("thm_f", 2, "1",
                                       {"a": Fraction(-1, 2), "b": Fraction(1)},
                                       cache=cache)
        with pytest.raises(ValueError):
            verify_functional_equation("thm_frak", 2, "1",
                                       {"a_list": [1], "b_list": [2]}, cache=cache)
        with pytest.raises(ValueError):
            verify_functional_equation("nope", 2, "1", {}, cache=cache)


class TestBuilderTerms:
    """The factor triples of both builders, in order, and their right-hand
    sides, pinned: the base-q step feeds every self-similarity identity."""

    @pytest.mark.parametrize("spec,a,b,triples,rhs", [
        ("gtm:2:1", 1, 2,  # delta = (1, -1)
         [(1, "1", 1), (1, "2", -1), (2, "2", 1), (2, "1", -1), (2, "2", 1), (2, "3", -1)],
         "3/2"),
        ("gtm:3:01", Fraction(5, 3), Fraction(1, 2),  # delta = (1, 1, -1)
         [(1, "5/3", 1), (1, "1/2", -1), (3, "1/2", 1), (3, "5/3", -1), (3, "3/2", 1),
          (3, "8/3", -1), (3, "11/3", 1), (3, "5/2", -1)],
         "40/33"),
        ("gtm:5:1011", 59, Fraction(1, 12),  # delta = (1, -1, 1, -1, -1)
         [(1, "59", 1), (1, "1/12", -1), (5, "1/12", 1), (5, "59", -1), (5, "60", 1),
          (5, "13/12", -1), (5, "25/12", 1), (5, "61", -1), (5, "62", 1), (5, "37/12", -1),
          (5, "63", 1), (5, "49/12", -1)],
         "205387/120528000"),
    ])
    def test_scaling_term_is_pinned(self, spec, a, b, triples, rhs):
        term, got_rhs = build_scaling_term(parse_seq_spec(spec), a, b)
        assert [(f.alpha, str(f.beta), f.exponent) for f in term.factors] == triples
        assert term.constant == 1 and str(got_rhs) == rhs

    @pytest.mark.parametrize("spec,a_list,b_list,triples,rhs_log", [
        ("gtm:2:1", [1, 3], [2, 2],  # delta = (1, -1)
         [(1, "1", 1), (1, "2", -1), (2, "2", 1), (2, "1", -1), (2, "2", 1), (2, "3", -1),
          (1, "3", 1), (1, "2", -1), (2, "2", 1), (2, "3", -1), (2, "4", 1), (2, "3", -1)],
         "-0x1.eeb95b094c160p-3"),
        ("gtm:4:010", [Fraction(3, 2), Fraction(1, 3)], [Fraction(5, 6), 1],  # (1, 1, -1, 1)
         [(1, "3/2", 1), (1, "5/6", -1), (4, "5/6", 1), (4, "3/2", -1), (4, "11/6", 1),
          (4, "5/2", -1), (4, "7/2", 1), (4, "17/6", -1), (4, "23/6", 1), (4, "9/2", -1),
          (1, "1/3", 1), (1, "1", -1), (4, "1", 1), (4, "1/3", -1), (4, "2", 1),
          (4, "4/3", -1), (4, "7/3", 1), (4, "3", -1), (4, "4", 1), (4, "10/3", -1)],
         "-0x1.cc6add34fa900p-5"),
    ])
    def test_gamma_ratio_term_is_pinned(self, spec, a_list, b_list, triples, rhs_log):
        term, got_log = build_gamma_ratio_term(parse_seq_spec(spec), a_list, b_list)
        assert [(f.alpha, str(f.beta), f.exponent) for f in term.factors] == triples
        assert term.constant == 1 and got_log.hex() == rhs_log


class TestModeConsistency:
    @pytest.mark.parametrize("lhs", [
        "((2n+1)(4n+3))/((2n+2)(4n+1))",
        "((n+1)(2n+3)^2)/((n+3)(2n+1)^2)",
        "((8n+1)(8n+7))/((8n+3)(8n+5))",
    ])
    def test_theta_delta_plain_identity(self, lhs, cache):
        term = parse_product_term(lhs)
        r_theta = evaluate_product(ProductSpec(TM, "theta", 0, term), eps=1e-9, cache=cache)
        r_delta = evaluate_product(ProductSpec(TM, "delta", 0, term), eps=1e-9, cache=cache)
        closed = plain_product_log_closed(term, 0)
        combined = 2.0 * r_theta.log_value + r_delta.log_value
        assert abs(combined - closed) <= 2 * r_theta.est_error + r_delta.est_error + 1e-10

    def test_closed_form_rejects_divergent(self):
        with pytest.raises(ValueError):
            plain_product_log_closed(WR_TERM, 0)  # root sums differ


class TestTelescoping:
    @pytest.mark.parametrize("q,a", [(3, 2), (2, 1), (5, Fraction(1, 3)),
                                     (7, Fraction(5, 2)), (16, 3)])
    def test_identity_is_certified(self, q, a, cache):
        # prod_{n>=0} ((qn+a)(qn+a+q)/((qn+qa)(qn+qa+q)))^((-1)^n) = 1/q
        term = factor_list([(q, a, 1), (q, a + q, 1), (q, q * a, -1), (q, q * a + q, -1)])
        spec = ProductSpec(parse_seq_spec("gtm:3:10"), "delta", 0, term)
        res = evaluate_product(spec, eps=1e-14, cache=cache)
        assert abs(res.log_value + math.log(q)) <= res.est_error <= 1e-14


class TestCancelledOffsets:
    def test_cancelled_offset_leaves_n_alone(self, cache):
        # (n+500) cancels in R: the cutoff and N come from the offsets left,
        # so both spellings take the same N
        plain = ProductSpec(TM, "delta", 1, parse_product_term("(n+1)/(n+2)"))
        padded = ProductSpec(TM, "delta", 1, parse_product_term("((n+500)(n+1))/((n+500)(n+2))"))
        res = evaluate_product(padded, eps=2.5e-13, cache=cache)
        assert res == evaluate_product(plain, eps=2.5e-13, cache=cache)
        assert res.terms_used == 20 and res.est_error <= 2.5e-13
        direct = evaluate_direct(padded, 1 << 20)
        assert abs(res.log_value - direct.log_value) <= res.est_error + direct.est_error

    @pytest.mark.parametrize("pad", ["n+500", "2n-7"])
    def test_padded_telescoping_is_certified(self, pad, cache):
        # the q = 3, a = 2 telescoping identity, 1/3, times a factor that cancels
        seq = parse_seq_spec("gtm:3:10")
        plain = parse_product_term("((3n+2)(3n+5))/((3n+6)(3n+9))")
        padded = parse_product_term(f"(({pad})(3n+2)(3n+5))/(({pad})(3n+6)(3n+9))")
        res = evaluate_product(ProductSpec(seq, "delta", 0, padded), eps=1e-14, cache=cache)
        assert res == evaluate_product(ProductSpec(seq, "delta", 0, plain), eps=1e-14, cache=cache)
        assert abs(res.log_value + math.log(3)) <= res.est_error <= 1e-14


def _pinned_specs():
    """Ten catalog records, four family instances and a term with negative
    offsets, none with an offset whose exponents sum to 0."""
    records = {r.id: r.product_spec() for r in load_catalog("builtin")}
    specs = {i: records[i] for i in ("wr", "ex1.5.9", "ex1.6.14", "ex1.7.10", "ex1.7.16",
                                     "cor1.10.5.6", "cor1.10.5.9", "g1.q4.k2", "g1.q5.k2",
                                     "g2.q5")}
    q5 = make_sequence("gtm", 5, bits="1011")
    q3 = make_sequence("gtm", 3, bits="01")
    specs["thm_f"] = ProductSpec(
        q5, "delta", 1, build_scaling_term(q5, Fraction(7, 3), Fraction(5, 2))[0])
    specs["thm_frak"] = ProductSpec(q3, "theta", 1, build_gamma_ratio_term(
        q3, [Fraction(9, 4), Fraction(2, 5)], [Fraction(7, 3), Fraction(19, 60)])[0])
    seq, mode, term, _ = families.tm_beta_like_family(Fraction(3, 2), Fraction(5, 4))
    specs["beta_like"] = ProductSpec(seq, mode, 1, term)
    seq, mode, term, _ = families.tm_cosine_family(Fraction(3, 10))
    specs["cosine"] = ProductSpec(seq, mode, 1, term)
    specs["neg_offsets"] = ProductSpec(TM, "delta", 0, parse_product_term("((2n-9)^2)/((2n-7)^2)"))
    return specs


# (float.hex(log_value), float.hex(est_error), terms_used, dirichlet_orders)
# from a fresh cache: a change to the exact core must not move one bit of them
_PINNED = {
    ("wr", 2.5e-09): ("-0x1.62e42fefa39eep-2", "0x1.5de4e3b357cadp-51", 12, 16),
    ("ex1.5.9", 2.5e-09): ("-0x1.0000000000000p-56", "0x1.18513f52027a0p-52", 20, 16),
    ("ex1.6.14", 2.5e-09): ("0x0.0p+0", "0x1.23ce8b1cc0083p-51", 12, 16),
    ("ex1.7.10", 2.5e-09): ("-0x1.a5ddfb803848fp+0", "0x1.1092c1c39740dp-49", 16, 16),
    ("ex1.7.16", 2.5e-09): ("-0x1.e000000000000p-55", "0x1.22301777053f1p-52", 28, 16),
    ("cor1.10.5.6", 2.5e-09): ("0x1.2f3fde182a658p-3", "0x1.a2723efec9a57p-52", 12, 16),
    ("cor1.10.5.9", 2.5e-09): ("0x1.1f642ca90d2a5p+0", "0x1.7bcae3c1cda03p-50", 28, 16),
    ("g1.q4.k2", 2.5e-09): ("-0x1.62e42fefa39f0p-1", "0x1.e2b6dfe5ed5e2p-51", 12, 16),
    ("g1.q5.k2", 2.5e-09): ("-0x1.9c041f7ed8d34p-1", "0x1.ff15995a07133p-51", 12, 16),
    ("g2.q5", 2.5e-09): ("-0x1.9c041f7ed8d33p-1", "0x1.2c2f411c0ead2p-50", 12, 16),
    ("thm_f", 2.5e-09): ("0x1.15b249943be0cp-4", "0x1.4e6c58c5aecadp-52", 24, 16),
    ("thm_frak", 2.5e-09): ("0x1.b816bb4207bb6p-6", "0x1.1da6043c6949dp-52", 24, 16),
    ("beta_like", 2.5e-09): ("0x1.5db0822dd17d3p-1", "0x1.fc5bee04272d6p-51", 28, 16),
    ("cosine", 2.5e-09): ("-0x1.d8b15efd43014p-4", "0x1.817d3145258f4p-52", 12, 16),
    ("wr", 1e-13): ("-0x1.62e42fefa39eep-2", "0x1.5de4e3b357cadp-51", 12, 16),
    ("ex1.5.9", 1e-13): ("-0x1.0000000000000p-56", "0x1.18513f52027a0p-52", 20, 16),
    ("ex1.6.14", 1e-13): ("0x0.0p+0", "0x1.23ce8b1cc0083p-51", 12, 16),
    ("ex1.7.10", 1e-13): ("-0x1.a5ddfb803848fp+0", "0x1.1092c1c39740dp-49", 16, 16),
    ("ex1.7.16", 1e-13): ("-0x1.e000000000000p-55", "0x1.22301777053f1p-52", 28, 16),
    ("cor1.10.5.6", 1e-13): ("0x1.2f3fde182a658p-3", "0x1.a2723efec9a57p-52", 12, 16),
    ("cor1.10.5.9", 1e-13): ("0x1.1f642ca90d2a5p+0", "0x1.7bcae3c1cda03p-50", 28, 16),
    ("g1.q4.k2", 1e-13): ("-0x1.62e42fefa39f0p-1", "0x1.e2b6dfe5ed5e2p-51", 12, 16),
    ("g1.q5.k2", 1e-13): ("-0x1.9c041f7ed8d34p-1", "0x1.ff15995a07133p-51", 12, 16),
    ("g2.q5", 1e-13): ("-0x1.9c041f7ed8d33p-1", "0x1.2c2f411c0ead2p-50", 12, 16),
    ("thm_f", 1e-13): ("0x1.15b249943be0cp-4", "0x1.4e6c58c5aecadp-52", 24, 16),
    ("thm_frak", 1e-13): ("0x1.b816bb4207bb6p-6", "0x1.1da6043c6949dp-52", 24, 16),
    ("beta_like", 1e-13): ("0x1.5db0822dd17d3p-1", "0x1.fc5bee04272d6p-51", 28, 16),
    ("cosine", 1e-13): ("-0x1.d8b15efd43014p-4", "0x1.817d3145258f4p-52", 12, 16),
    ("neg_offsets", 2.5e-09): ("-0x1.7ed3ce8ef43b7p+0", "0x1.02e882d9d2681p-49", 40, 16),
    ("neg_offsets", 1e-13): ("-0x1.7ed3ce8ef43b7p+0", "0x1.02e882d9d2681p-49", 40, 16),
}

# (float.hex(log_value), float.hex(est_error)) of evaluate_direct at N = q^7;
# every term but cosine sums an exact head below its roots (n_safe > start)
_PINNED_DIRECT = {
    "wr": ("-0x1.62e42145360dep-2", "0x1.dc49c39704187p-20"),
    "ex1.5.9": ("0x1.0b4f7ced5cecbp-21", "0x1.200ddf5f98f8bp-6"),
    "ex1.6.14": ("-0x1.030bb1f6df842p-10", "0x1.c7882f1b68424p-6"),
    "ex1.7.10": ("-0x1.a5ddf975010b1p+0", "0x1.3a80fcecc5c29p-7"),
    "ex1.7.16": ("0x1.0c42f00ffb9aep-22", "0x1.41470ffe75e86p-6"),
    "cor1.10.5.6": ("0x1.2ccd5fde47fb9p-3", "0x1.38ccd1377a04ap-8"),
    "cor1.10.5.9": ("0x1.1c267e744f3e8p+0", "0x1.9aa1e95d2befdp-5"),
    "g1.q4.k2": ("-0x1.6157280494313p-1", "0x1.301daba66237ap-3"),
    "g1.q5.k2": ("-0x1.94c30ef9b138bp-1", "0x1.96457841fcdecp-1"),
    "g2.q5": ("-0x1.9c041f7e24affp-1", "0x1.0623fad9d9594p-6"),
    "thm_f": ("0x1.15ae0df000030p-4", "0x1.d38d5188a6608p-8"),
    "thm_frak": ("0x1.b734a92616885p-6", "0x1.b906039ae8b94p-10"),
    "beta_like": ("0x1.5893c6cbb1328p-1", "0x1.4387846d1239ep-5"),
    "cosine": ("-0x1.d6b30e0e85272p-4", "0x1.003f3c9ea68c6p-9"),
    "neg_offsets": ("-0x1.7ed3ba5c53d07p+0", "0x1.54428e97638fep-17"),
}


class TestBitwiseAnswers:
    @pytest.mark.parametrize("eps", [2.5e-9, 1e-13])
    def test_answers_are_pinned(self, eps):
        cache = DirichletCache()
        for name, spec in _pinned_specs().items():
            assert all(e for _, e in spec.term.integer_form[2]), name
            res = evaluate_product(spec, eps=eps, cache=cache)
            got = (res.log_value.hex(), res.est_error.hex(), res.terms_used, res.dirichlet_orders)
            assert got == _PINNED[name, eps], name

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_pins_hold_in_any_order_through_one_cache(self, order):
        # one cache serves both eps, so each pattern's record is asked for its
        # N in an order other than the pins'; the answers must not move a bit
        cases = [(name, spec, eps) for eps in (2.5e-9, 1e-13)
                 for name, spec in _pinned_specs().items()]
        if order == "reversed":
            cases.reverse()
        else:
            random.Random(2718).shuffle(cases)
        cache = DirichletCache()
        for name, spec, eps in cases:
            res = evaluate_product(spec, eps=eps, cache=cache)
            got = (res.log_value.hex(), res.est_error.hex(), res.terms_used, res.dirichlet_orders)
            assert got == _PINNED[name, eps], (name, eps)

    def test_direct_answers_are_pinned(self):
        for name, spec in _pinned_specs().items():
            res = evaluate_direct(spec, spec.seq.q**7)
            assert (res.log_value.hex(), res.est_error.hex()) == _PINNED_DIRECT[name], name

    def test_evaluation_builds_no_fraction(self, monkeypatch):
        # each term is a fresh copy whose integer form has not been read: the
        # check, the integer form, the expansion, the series, the head and the
        # tail bound run on ints and floats alone, cold ladders included, and
        # so do the direct oracle's exact head and its log1p pairs
        specs = [ProductSpec(s.seq, s.mode, s.start, FactorList(s.term.factors, s.term.constant))
                 for s in _pinned_specs().values()]
        cache = DirichletCache()
        built = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        for spec in specs:
            evaluate_product(spec, eps=1e-13, cache=cache)
            evaluate_direct(spec, spec.seq.q**7)
        assert built == []
        assert Fraction(1, 3) and built == [(1, 3)]  # the patch does count


class TestSeriesReuse:
    def test_one_pattern_reads_its_ladders_once(self, monkeypatch):
        # ten thm_frak instances on one pattern, through one cold cache: the
        # pattern's record is built once, so F(j) and zeta(j) are looked up
        # once each (zeta_fixed goes through dirichlet_fixed), not once an op
        import gtmprod.dirichlet as dmod
        import gtmprod.evaluator as emod

        calls = []
        real = dmod.dirichlet_fixed

        def counting(seq, s, cache=None):
            calls.append((seq.gtm_spec, s))
            return real(seq, s, cache)

        for module in (dmod, emod):
            monkeypatch.setattr(module, "dirichlet_fixed", counting, raising=False)
        rng = random.Random(1618)
        cache = DirichletCache()
        for _ in range(10):
            a = [Fraction(rng.randint(1, 30), rng.randint(1, 5)) for _ in range(2)]
            b0 = sum(a) * Fraction(rng.randint(1, 9), 10)
            rep = verify_functional_equation("thm_frak", 3, "01",
                                             {"a_list": a, "b_list": [b0, sum(a) - b0]},
                                             tol=1e-9, cache=cache)
            assert rep.ok
        assert 0 < len(calls) <= 2 * MAX_J, len(calls)


class TestFamilyBuilders:
    def test_all_families_validate(self, cache):
        rng = random.Random(5150)
        q3 = make_sequence("gtm", 3, bits="01")
        cases = [
            families.shifted_ratio_family(q3, Fraction(1, 2), Fraction(3, 4), Fraction(2, 3)),
            families.zero_sum_family(q3, [Fraction(1, 2), Fraction(-1, 2)]),
            families.symmetric_pair_family(q3, Fraction(2, 5)),
            families.tm_gamma_ratio_family([1, 3], [2, 2]),
            families.tm_three_parameter_family(Fraction(1, 2), Fraction(5, 4), Fraction(1, 3)),
            families.tm_beta_like_family(Fraction(1, 2), Fraction(3, 2)),
            families.tm_beta_like_reciprocal_family(Fraction(2, 3), Fraction(1, 2)),
            families.tm_power_of_two_family(Fraction(1, 3)),
            families.tm_power_over_linear_family(Fraction(3, 4)),
            families.tm_cosine_family(Fraction(1, 2)),
            families.tm_scaled_cosine_family(Fraction(1, 4)),
            families.tm_quartic_reflection_family(Fraction(2, 3)),
            families.tm_factorial_family(3),
            families.scaling_family(q3, Fraction(3, 2), Fraction(5, 2)),
        ]
        for seq, mode, term, rhs_log in cases:
            spec = ProductSpec(seq, mode, 1, term)
            assert check_product(spec).ok
            res = evaluate_product(spec, eps=1e-9, cache=cache)
            assert abs(res.log_value - rhs_log) <= 1e-7 + res.est_error

    def test_power_of_two_special_value(self, cache):
        # a = 1/2 gives sqrt(2) on the nose
        seq, mode, term, rhs_log = families.tm_power_of_two_family(Fraction(1, 2))
        res = evaluate_product(ProductSpec(seq, mode, 1, term), eps=1e-9, cache=cache)
        assert abs(res.value - math.sqrt(2.0)) < 1e-10

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            families.tm_cosine_family(Fraction(3, 2))
        with pytest.raises(ValueError):
            families.zero_sum_family(TM, [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(ValueError):
            families.tm_factorial_family(0)


Q3 = make_sequence("gtm", 3, bits="01")
Q5 = make_sequence("gtm", 5, bits="1011")
HALF = Fraction(1, 2)

# (builder, arguments with int parameters, arguments with Fraction ones); None
# where the builder's domain has no such instance.  zero_sum_family's "int"
# case mixes ints and Fractions: its only all-int instance is all zeros.
_BUILDER_ARGS = [
    ("build_scaling_term", (Q5, 2, 3), (Q5, Fraction(7, 3), Fraction(5, 2))),
    ("build_gamma_ratio_term", (Q5, [1, 3], [2, 2]),
     (Q5, [Fraction(9, 4), Fraction(2, 5)], [Fraction(7, 3), Fraction(19, 60)])),
    ("scaling_family", (Q3, 1, 2), (Q3, Fraction(3, 2), Fraction(5, 2))),
    ("shifted_ratio_family", (Q3, 1, 2, 3), (Q3, HALF, Fraction(3, 4), Fraction(2, 3))),
    ("zero_sum_family", (Q3, [1, -HALF, -HALF]), (Q3, [HALF, -HALF])),
    ("symmetric_pair_family", None, (Q3, Fraction(2, 5))),
    ("tm_gamma_ratio_family", ([1, 3], [2, 2]), ([HALF, Fraction(5, 2)], [1, 2])),
    ("tm_three_parameter_family", (1, 2, 3), (HALF, Fraction(5, 4), Fraction(1, 3))),
    ("tm_beta_like_family", (1, 2), (HALF, Fraction(3, 2))),
    ("tm_beta_like_reciprocal_family", (1, 2), (Fraction(2, 3), HALF)),
    ("tm_power_of_two_family", (1,), (Fraction(1, 3),)),
    ("tm_power_over_linear_family", (2,), (Fraction(3, 4),)),
    ("tm_cosine_family", None, (HALF,)),
    ("tm_scaled_cosine_family", None, (Fraction(1, 4),)),
    ("tm_quartic_reflection_family", None, (Fraction(2, 3),)),
    ("tm_factorial_family", (3,), None),
]


def _counting_fractions(monkeypatch) -> list:
    """Patches Fraction.__new__ to record the arguments of every Fraction built."""
    built, new = [], Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    return built


class TestIntegerBuilders:
    """The builders work in ints: the term is stored as ints, and its public
    Factor/Fraction view is built only when read."""

    @pytest.mark.parametrize("name,args", [
        pytest.param(name, args, id=f"{name}-{kind}")
        for name, *cases in _BUILDER_ARGS
        for kind, args in zip(("int", "Fraction"), cases) if args is not None])
    def test_builders_build_no_fraction(self, name, args, cache, monkeypatch):
        builder = getattr(families, name, None) or globals()[name]
        built = _counting_fractions(monkeypatch)
        out = builder(*args)
        if name == "build_scaling_term":  # the exact RHS it returns is its one Fraction
            assert built == [(out[1].numerator, out[1].denominator)]
            built.clear()
            seq, mode, term = args[0], "delta", out[0]
        elif name == "build_gamma_ratio_term":
            seq, mode, term = args[0], "theta", out[0]
        else:
            seq, mode, term, _ = out
        assert built == []
        res = evaluate_product(ProductSpec(seq, mode, 1, term), eps=1e-9, cache=cache)
        assert built == [] and res.est_error <= 1e-9

    def test_int_store_and_public_view_agree(self):
        rng = random.Random(4242)

        def rat(integer):
            den = 1 if integer else rng.randint(1, 12)
            x = Fraction(rng.randint(1, 5 * den), den)
            return int(x) if integer else x

        terms = []
        for q in range(2, 17):
            bits = "".join(rng.choice("01") for _ in range(q - 2)) + "1"
            seq = make_sequence("gtm", q, bits=bits)
            for integer in (True, False):
                terms.append(build_scaling_term(seq, rat(integer), rat(integer))[0])
                terms.append(families.scaling_family(seq, rat(integer), rat(integer))[2])
                a_list = [rat(integer), rat(integer)]
                b0 = rng.randint(1, sum(a_list) - 1) if integer \
                    else sum(a_list) * Fraction(rng.randint(1, 9), 10)
                terms.append(build_gamma_ratio_term(seq, a_list, [b0, sum(a_list) - b0])[0])
                terms.append(families.shifted_ratio_family(
                    seq, rat(integer), rat(integer), rat(integer))[2])
            x = Fraction(rng.randint(1, 19), 20)
            terms.append(families.zero_sum_family(seq, [x, 1 - x, -HALF, -HALF])[2])
            terms.append(families.symmetric_pair_family(seq, x)[2])
        for name, *cases in _BUILDER_ARGS:
            if name.startswith("tm_"):
                terms += [getattr(families, name)(*args)[2] for args in cases if args is not None]
        round_trips = 0
        for term in terms:
            view = FactorList(term.factors, term.constant)
            assert view == term and hash(view) == hash(term)
            assert view.integer_form == term.integer_form
            if all(f.beta.denominator == 1 for f in term.factors):
                # the grammar prints the numerator's factors first
                ups = tuple(f for f in term.factors if f.exponent > 0)
                downs = tuple(f for f in term.factors if f.exponent < 0)
                assert parse_product_term(str(term)) == FactorList(ups + downs, term.constant)
                round_trips += 1
        assert round_trips >= 60
