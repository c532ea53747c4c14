import math
import random
import sys
import threading
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import gtmprod.dirichlet as dmod
from gtmprod.catalog import load_catalog
from gtmprod.dirichlet import (
    _BITS,
    _M0,
    MAX_J,
    S_DIRECT,
    DirichletCache,
    SeriesRecord,
    _direct_terms,
    _ladder_extent,
    _ladder_fixed,
    _moment_bound,
    dirichlet_direct,
    dirichlet_fixed,
    dirichlet_mp,
    dirichlet_value,
    power_moments,
    zeta_fixed,
    zeta_mp,
)
from gtmprod.sequences import make_sequence, parse_seq_spec, sign_prefix


class TestPowerMoments:
    def test_examples(self):
        tm = parse_seq_spec("gtm:2:1")
        assert power_moments(tm, 0) == 0
        for i in (1, 2, 5):
            assert power_moments(tm, i) == -1
        assert power_moments(parse_seq_spec("gtm:3:001"), 0) == 1

    def test_zeroth_moment_is_delta_q(self):
        for spec in ("gtm:3:01", "dcount:5:2", "dparity:4"):
            seq = parse_seq_spec(spec)
            assert power_moments(seq, 0) == seq.delta_q

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            power_moments(parse_seq_spec("gtm:2:1"), -1)


class TestLadder:
    def test_zeta_values(self, cache):
        z2, e2 = zeta_mp(2, cache)
        z4, e4 = zeta_mp(4, cache)
        assert abs(float(z2) - math.pi**2 / 6) < 1e-10
        assert abs(float(z4) - math.pi**4 / 90) < 1e-10
        assert e2 < 1e-20 and e4 < 1e-20

    def test_alternating_closed_forms(self, cache):
        alt = parse_seq_spec("gtm:3:10")  # delta_n = (-1)^n
        f1, _ = dirichlet_mp(alt, 1, cache)
        assert abs(float(f1) + math.log(2)) < 1e-14
        f2, _ = dirichlet_mp(alt, 2, cache)
        assert abs(float(f2) + math.pi**2 / 12) < 1e-14

    def test_high_order_dominated_by_first_term(self, cache):
        tm = parse_seq_spec("gtm:2:1")
        value, eps = dirichlet_value(tm, 40, cache=cache)
        assert abs(value + 1.0) < 2.0**-39
        assert eps < 1e-12

    def test_all_plus_needs_s_at_least_2(self, cache):
        zeta_seq = make_sequence("gtm", 2, bits="0")
        with pytest.raises(ValueError):
            dirichlet_value(zeta_seq, 1, cache=cache)
        v, _ = dirichlet_value(zeta_seq, 2, cache=cache)
        assert abs(v - math.pi**2 / 6) < 1e-12

    @pytest.mark.parametrize("spec", ["gtm:2:1", "gtm:3:01", "dcount:4:3", "dparity:5"])
    def test_ladder_vs_direct(self, spec, cache):
        seq = parse_seq_spec(spec)
        for s in (1, 2, 3, 4):
            v, err = dirichlet_mp(seq, s, cache)
            dv, derr = dirichlet_direct(seq, s, 2 * 10**5)
            assert abs(float(v) - dv) <= 4 * err + derr, (spec, s)

    def test_direct_oracle_reference_at_s1(self, cache):
        # slow-but-independent reference at N = 10^7 agrees within 1e-6 budget
        seq = parse_seq_spec("gtm:3:001")
        v, err = dirichlet_mp(seq, 1, cache)
        dv, derr = dirichlet_direct(seq, 1, 10**7)
        assert 4 * err < 1e-6
        assert abs(float(v) - dv) <= 1e-6 + derr

    @pytest.mark.parametrize("q", range(2, 17))
    def test_moment_bound_stays_in_range(self, q):
        # q^-i alone underflows (i = 463 for q = 5) and (q-1)^(i+1) alone
        # overflows binary64 (q >= 10); the bound itself must do neither
        for i in (1, 340, 463, 1000):
            b = _moment_bound(q, i)
            assert math.isfinite(b) and b > 0, (q, i)

    @pytest.mark.parametrize("q", [10, 13, 16])
    def test_large_base_matches_plain_sum(self, q):
        seq = parse_seq_spec(f"gtm:{q}:" + "1" * (q - 1))
        value, eps = dirichlet_value(seq, 3, cache=DirichletCache())
        # delta_n = (-1)^(number of nonzero base-q digits of n)
        N = 1 << 20
        n = np.arange(1, N + 1)
        nonzero = np.zeros(N, dtype=np.int64)
        rest = n.copy()
        while rest.any():
            nonzero += rest % q != 0
            rest //= q
        signs = 1.0 - 2.0 * (nonzero % 2)
        plain = math.fsum(signs * n.astype(np.float64) ** -3.0)
        tail = 1.0 / (2.0 * N * N)  # |sum_{n>N} delta_n n^-3| <= int_N^inf x^-3 dx
        assert abs(value - plain) <= tail + eps + 1e-15

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0])
    def test_rejects_bad_eps_before_any_work(self, eps):
        fresh = DirichletCache()
        with pytest.raises(ValueError):
            dirichlet_value(parse_seq_spec("gtm:2:1"), 3, eps=eps, cache=fresh)
        assert fresh.mp_lookup("gtm:2:1", 3) is None

    def test_monotone_under_tighter_internal_caps(self, cache, monkeypatch):
        import gtmprod.dirichlet as dmod
        seq = parse_seq_spec("gtm:3:11")
        v1, eps1 = dirichlet_value(seq, 2, cache=cache)
        monkeypatch.setattr(dmod, "_MP_EPS", dmod._MP_EPS / 100.0)
        monkeypatch.setattr(dmod, "_MP_DPS", dmod._MP_DPS + 10)
        v2, _ = dirichlet_value(seq, 2, cache=DirichletCache())
        assert abs(v1 - v2) <= eps1


def _interval_ladder(seq):
    """F(t) for t = 1..S_DIRECT-1 from the shifted equation in mpmath.iv, with
    the sweep's extents and direct-sum lengths, each widened by its truncation
    bound: the head sum_{n<q M0} delta_n (q/n)^t, c_0 H(t), and the series over
    T(t+i), a sum from M0 (plus its tail interval) at t+i >= S_DIRECT and
    F(t+i) - H(t+i) below it; and F(S_DIRECT) = H(S_DIRECT) + T(S_DIRECT)."""
    iv = mp.iv
    q, c0 = seq.q, power_moments(seq, 0)
    levels = range(S_DIRECT - 1, 0 if seq.nontrivial else 1, -1)
    extents = {t: _ladder_extent(q, t, q**t - c0) for t in levels}
    top = max(t + n for t, (n, _) in extents.items())
    signs = sign_prefix(seq, max(q * _M0, _direct_terms(S_DIRECT)) + 1)

    def plus_minus(x):
        return iv.mpf([-x, x])

    def power_sum(t, lo, hi):  # sum_{lo<=n<=hi} delta_n n^-t
        return sum((signs[n] / iv.mpf(n) ** t for n in range(lo, hi + 1)), iv.mpf(0))

    tails = {}
    for t in range(S_DIRECT, top + 1):
        n_max = max(_M0, _direct_terms(t))
        tails[t] = power_sum(t, _M0, n_max) + plus_minus(iv.mpf(n_max) ** (1 - t) / (t - 1))
    values = {S_DIRECT: power_sum(S_DIRECT, 1, _M0 - 1) + tails[S_DIRECT]}
    for t in levels:
        n_terms, trunc = extents[t]
        h = power_sum(t, 1, _M0 - 1)
        acc = iv.mpf(q) ** t * power_sum(t, 1, q * _M0 - 1) - c0 * h
        binom = 1
        for i in range(1, n_terms + 1):
            binom = binom * (-t - i + 1) // i
            acc += binom * power_moments(seq, i) * tails[t + i] / iv.mpf(q) ** i
        values[t] = acc / (q**t - c0) + plus_minus(trunc)
        tails[t] = values[t] - h
    return values


def _exact(raw):
    """An mpmath interval endpoint as a Fraction."""
    sign, man, exp, _ = raw
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


class TestSweep:
    @pytest.mark.parametrize("q", range(2, 17))
    def test_truncation_covers_remaining_terms(self, q):
        # the term bounds b_j = C(s+j-1, j) (q-1)^(j+1) q^-j M0^-(s+j) (1 + M0/(s+j-1))
        # past the break index, summed exactly until they fall below 1e-25 of the first of them
        c0 = power_moments(parse_seq_spec(f"gtm:{q}:" + "1" * (q - 1)), 0)
        for s in range(1, 16):
            denom = q**s - c0
            stop, trunc = _ladder_extent(q, s, denom)

            def b(j):
                t = s + j
                return Fraction(math.comb(t - 1, j) * (q - 1) ** (j + 1) * (t - 1 + _M0),
                                q**j * _M0**t * (t - 1))

            first = b(stop + 1)
            total, j = Fraction(0), stop + 1
            while b(j) > first / 10**25:
                total += b(j)
                j += 1
            assert Fraction(trunc) * denom >= total, (q, s)

    def test_extent_stays_within_64_terms(self):
        # every base up to 16, order below S_DIRECT and c_0 = sum_k delta_k
        # (delta_0 = 1, so c_0 is q, q - 2, ..., 2 - q; q only for the all-plus pattern)
        for q in range(2, 17):
            for c0 in range(2 - q, q + 1, 2):
                for s in range(1 if c0 < q else 2, S_DIRECT):
                    stop, _ = _ladder_extent(q, s, q**s - c0)
                    assert stop <= 64, (q, c0, s, stop)

    @pytest.mark.parametrize("spec", ["gtm:2:1", "gtm:2:0", "gtm:3:01", "gtm:5:0110",
                                      "gtm:16:010011101100101"])
    def test_accounting_contains_interval_recurrence(self, spec):
        # X 2^-B +- err, before the x4 factor, holds the whole 70-digit interval
        seq = parse_seq_spec(spec)
        swept = _ladder_fixed(seq, _BITS)
        prec = mp.iv.prec
        mp.iv.dps = 70
        try:
            values = _interval_ladder(seq)
        finally:
            mp.iv.prec = prec
        assert sorted(values) == sorted(swept)
        for t, (x, err) in swept.items():
            lo, hi = (_exact(e) for e in values[t]._mpi_)
            mid = Fraction(x, 1 << _BITS)
            assert mid - Fraction(err) <= lo and hi <= mid + Fraction(err), (spec, t)
            assert hi - lo > Fraction(err), (spec, t)  # and is at most twice as wide

    @pytest.mark.parametrize("q", range(3, 16, 2))
    def test_alternating_closed_forms_at_1e30(self, q):
        # odd q with bits 1010...: delta_n = (-1)^n, so F(s) = -(1 - 2^(1-s)) zeta(s)
        seq = parse_seq_spec(f"gtm:{q}:" + "10" * ((q - 1) // 2))
        cache = DirichletCache()
        with mp.workdps(60):
            for s in range(1, 16):
                value, err = dirichlet_mp(seq, s, cache)
                closed = -mp.log(2) if s == 1 else -(1 - mp.mpf(2) ** (1 - s)) * mp.zeta(s)
                assert abs(value - closed) <= err, (q, s)
                assert err <= 1e-27, (q, s)

    def test_zeta_at_1e30(self):
        cache = DirichletCache()
        with mp.workdps(60):
            for s in range(2, 16):
                value, err = zeta_mp(s, cache)
                assert abs(value - mp.zeta(s)) <= err, s
                assert err <= 1e-27, s

    def test_fresh_cache_stays_cold(self):
        seq = parse_seq_spec("gtm:3:01")
        first = DirichletCache()
        dirichlet_mp(seq, 1, first)
        zeta_mp(2, first)
        fresh = DirichletCache()
        for s in range(1, 17):
            assert fresh.mp_lookup(seq.spec, s) is None, s
            assert fresh.mp_lookup("gtm:2:0", s) is None, s

    def test_one_moment_call_per_order(self, monkeypatch):
        import gtmprod.dirichlet as dmod
        calls = []

        def counted(seq, i):
            calls.append((seq.spec, i))
            return power_moments(seq, i)

        monkeypatch.setattr(dmod, "power_moments", counted)
        cache = DirichletCache()
        seq = parse_seq_spec("gtm:5:0110")
        for s in (2, 1, 7, 15, 16, 20):
            dirichlet_mp(seq, s, cache)
        zeta_mp(3, cache)
        zeta_mp(2, cache)
        assert calls and len(calls) == len(set(calls))
        # the first miss filled the ladder down to order 1
        assert all(cache.mp_lookup(seq.spec, s) is not None for s in range(1, 16))


def _clear_shared_rows():
    """Empty the process-wide memos of the sweep's pattern-independent rows."""
    for memo in (dmod._floors, dmod._extent):
        memo.cache_clear()


class TestSharedRows:
    # The memo of every pattern with q = 2..7 and of the all-plus pattern,
    # each swept once (from order 1, or 2 for an all-plus pattern) and summed
    # directly at S_DIRECT + 1, one sorted line per triple in the text the
    # cache file once held, seqspec|s|hex(X)|bits|float.hex(err).  Its digest
    # was taken from that file before the sweeps shared their rows: a sweep
    # from shared rows must not move a bit.
    SAVE_DIGEST = "5e444edec058e3a848d61d19a62ac4f8dfaf0d2a830208b838d00dd1a9c7b572"

    def test_save_text_is_pinned(self):
        import hashlib
        import itertools

        seqs = [make_sequence("gtm", q, bits="".join(bits))
                for q in range(2, 8) for bits in itertools.product("01", repeat=q - 1)]
        cache = DirichletCache()
        for seq in seqs + [dmod._ALL_PLUS]:
            dirichlet_fixed(seq, 1 if seq.nontrivial else 2, cache)
            dirichlet_fixed(seq, S_DIRECT + 1, cache)
        text = "".join(f"{spec}|{s}|{x:x}|{bits}|{err.hex()}\n"
                       for (spec, s), (x, bits, err) in sorted(cache._mp.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == self.SAVE_DIGEST

    def test_sweeps_agree_in_any_order_cold_or_warm(self):
        # the catalog's patterns and the all-plus one, swept in two orders,
        # each once with the shared rows cold and once warm
        seqs = list({r.product_spec().seq for r in load_catalog("builtin")}) + [dmod._ALL_PLUS]
        runs = []
        try:
            for order in (seqs, seqs[::-1]):
                _clear_shared_rows()
                for _ in ("cold", "warm"):
                    runs.append({seq.gtm_spec: _ladder_fixed(seq, _BITS) for seq in order})
        finally:
            _clear_shared_rows()
        assert len(runs[0]) == 14
        assert all(run == runs[0] for run in runs)

    def test_rows_follow_the_ladder_target(self, monkeypatch):
        # the extent and the direct-sum rows are kept per target: asked again
        # under a tighter _MP_EPS, they grow instead of handing out the old ones
        seq = parse_seq_spec("gtm:3:11")
        denom = 3**2 - power_moments(seq, 0)
        extent = _ladder_extent(3, 2, denom)
        (x, err), = dmod._direct_fixed(seq, range(S_DIRECT, S_DIRECT + 1), _BITS, _M0).values()
        monkeypatch.setattr(dmod, "_MP_EPS", dmod._MP_EPS / 1e6)
        tighter = _ladder_extent(3, 2, denom)
        (_, tight_err), = dmod._direct_fixed(seq, range(S_DIRECT, S_DIRECT + 1), _BITS,
                                             _M0).values()
        assert tighter[0] > extent[0] and tighter[1] < extent[1]
        assert tight_err < err


class TestCache:
    def test_aliases_share_one_ladder(self, monkeypatch):
        # dcount:3:1, dparity:3 and gtm:3:10 are all (-1)^n: one sweep, filed under gtm:3:10
        cache = DirichletCache()
        first = dirichlet_fixed(parse_seq_spec("dcount:3:1"), 2, cache)
        monkeypatch.setattr(dmod, "_ladder_fixed", None)  # a second sweep would raise
        monkeypatch.setattr(dmod, "_direct_fixed", None)  # so would a direct sum
        for spec in ("dparity:3", "gtm:3:10"):
            assert dirichlet_fixed(parse_seq_spec(spec), 2, cache) == first
            assert cache.mp_lookup(parse_seq_spec(spec).gtm_spec, S_DIRECT) is not None
        assert sorted(cache._mp) == [("gtm:3:10", s) for s in range(1, S_DIRECT + 1)]


class TestDirectOracle:
    def test_zeta3_by_summation(self):
        seq = make_sequence("gtm", 3, bits="00")
        v, err = dirichlet_direct(seq, 3, 10**4)
        assert abs(v - 1.2020569031595943) < 1e-7
        assert abs(v - 1.2020569031595943) <= err

    def test_error_estimate_covers(self, cache):
        with mp.workdps(40):
            for spec in ("gtm:2:1", "gtm:4:010", "dcount:3:2"):
                seq = parse_seq_spec(spec)
                for s in (1, 2):
                    truth, terr = dirichlet_mp(seq, s, cache)
                    v, err = dirichlet_direct(seq, s, 10**5)
                    assert abs(v - float(truth)) <= err + 4 * terr, (spec, s)

    def test_error_covers_40_digit_reference(self, cache):
        # the (sequence, s, N) cases of the direct-oracle checks here and in
        # acceptance criterion 7; the reference is the ladder at 40 digits
        # (zeta(3) for the all-plus case), whose own error counts against err
        cases = {(spec, s, 2 * 10**5)
                 for spec in ("gtm:2:1", "gtm:3:01", "gtm:3:11", "gtm:3:10", "gtm:4:011",
                              "dcount:4:2", "dcount:5:1", "dparity:4", "dparity:5", "gtm:5:0111")
                 for s in range(1, 9)}
        cases |= {(spec, s, 2 * 10**5) for spec in ("gtm:2:1", "gtm:3:01", "dcount:4:3", "dparity:5")
                  for s in (1, 2, 3, 4)}
        cases |= {(spec, s, 10**5) for spec in ("gtm:2:1", "gtm:4:010", "dcount:3:2") for s in (1, 2)}
        cases.add(("gtm:3:00", 3, 10**4))
        assert len(cases) == 91
        for spec, s, N in sorted(cases):
            seq = parse_seq_spec(spec)
            value, err = dirichlet_direct(seq, s, N)
            with mp.workdps(40):
                truth, terr = dirichlet_mp(seq, s, cache) if seq.nontrivial else (mp.zeta(s), 0.0)
                assert float(abs(mp.mpf(value) - truth)) + terr <= err, (spec, s, N)

    def test_input_validation(self):
        seq = parse_seq_spec("gtm:2:1")
        with pytest.raises(ValueError):
            dirichlet_direct(seq, 0, 100)
        with pytest.raises(ValueError):
            dirichlet_direct(seq, 2, 3)


def _tails_from_scratch(seq, mode, n_top, cache):
    """T_j 2^B = X_j - sum_{0<n<=N} w_n floor(2^B / n^j) for j = 1..MAX_J,
    with X_j 2^-B the fixed-point G_j = sum_{n>=1} w_n n^-j taken straight
    from the ladders and each floor formed on its own."""
    w = sign_prefix(seq, n_top + 1)
    if mode == "theta":
        w = [(1 - s) // 2 for s in w]
    out = [None] if mode == "theta" else []
    for j in range(len(out) + 1, MAX_J + 1):
        x, bits, _ = dirichlet_fixed(seq, j, cache)
        if mode == "theta":  # sum theta_n n^-j = (zeta(j) - F(j))/2
            x, bits = zeta_fixed(j, cache)[0] - x, bits + 1
        one = 1 << bits
        out.append(x - sum(w[n] * (one // n**j) for n in range(1, n_top + 1)))
    return out, w


class TestSeriesRecord:
    @pytest.mark.parametrize("mode", ["delta", "theta"])
    @pytest.mark.parametrize("spec", ["gtm:2:1", "gtm:3:01", "gtm:4:101", "gtm:5:0110",
                                      "gtm:16:010011101100101"])
    def test_tails_match_a_sum_from_scratch(self, spec, mode, cache):
        # each order of asking gets a record of its own: increasing N extends,
        # decreasing N starts from 0 each time, and a repeated N is a hit
        seq = parse_seq_spec(spec)
        asks = {"increasing": [5, 36, 37, 160], "decreasing": [160, 37, 36, 5],
                "repeated": [37, 37, 5, 36, 37, 160, 5]}
        expected = {n: _tails_from_scratch(seq, mode, n, cache) for n in (5, 36, 37, 160)}
        for name, ns in asks.items():
            record = SeriesRecord(seq, mode, cache)
            for n in ns:
                tails, w = expected[n]
                assert record.tails(w) == tails, (name, n)
            assert sorted(record._sums) == [0, 5, 36, 37, 160], name

    def test_threads_sharing_a_record_agree(self, cache):
        # more threads than cores ask one record for every N up to 300, each in
        # its own order, with a short switch interval; every answer is the sum
        # from scratch, and no N is lost from the sorted list of memoized N
        seq = parse_seq_spec("gtm:3:01")
        n_top = 300
        w = sign_prefix(seq, n_top + 1)
        expected = [_tails_from_scratch(seq, "delta", 0, cache)[0]]
        for n in range(1, n_top + 1):  # T_j(n) = T_j(n - 1) - w_n floor(2^B / n^j)
            expected.append([t - w[n] * ((1 << _BITS) // n**j)
                             for j, t in enumerate(expected[-1], start=1)])
        record = DirichletCache().series_record(seq, "delta")
        wrong = []

        def ask(k):
            ns = list(range(1, n_top + 1))
            random.Random(k).shuffle(ns)
            for n in ns:
                if record.tails(w[:n + 1]) != expected[n]:
                    wrong.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and wrong == []
        assert record._ns == sorted(record._sums) == list(range(n_top + 1))

    @pytest.mark.parametrize("mode", ["delta", "theta"])
    def test_orders_are_the_ladders(self, mode, cache):
        seq = parse_seq_spec("gtm:3:10")
        record = cache.series_record(seq, mode)
        assert cache.series_record(parse_seq_spec("dparity:3"), mode) is record  # its alias
        for j, g in enumerate(record.orders, start=1):
            x, bits, err = dirichlet_fixed(seq, j, cache)
            if mode == "delta":
                assert g == (x, bits, err)
            elif j == 1:
                assert g is None  # zeta's pole
            else:
                z, _, z_err = zeta_fixed(j, cache)
                assert g == (z - x, bits + 1, (z_err + err) / 2)
        assert record.bits == _BITS + (mode == "theta")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            DirichletCache().series_record(parse_seq_spec("gtm:2:1"), "plain")
