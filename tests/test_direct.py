"""The block-wise direct oracle against a brute-force reference.

The reference sums w_n ln R(n) term by term at 40 digits, with ln R(n) taken
from the exact rational value, and forms the q^k boundary sums and the mean
over the final block from those.  The block length is shrunk in some cases
(``_BLOCK_CAP``) so that small N still run many blocks, blocks outside the
final one, and a first block that starts off a multiple of B.  Every capped
case also reaches the blocks far from the roots that are summed from their
sign moments, and the oracle's proven fl_round must cover those sums, their
truncation included, against the reference; its estimate stays an
estimate.  The oracle reads no Dirichlet constant.
"""

import math
import tracemalloc

import mpmath as mp
import pytest

from gtmprod import evaluator
from gtmprod.catalog import load_catalog
from gtmprod.evaluator import (
    ProductSpec,
    _block_moments,
    _direct_sums,
    _top_exponent,
    build_gamma_ratio_term,
    evaluate_direct,
)
from gtmprod.ratfun import exact_real_value, parse_product_term
from gtmprod.sequences import parse_seq_spec, sign_at, sign_prefix


def reference_sums(spec, K):
    q = spec.seq.q
    n_used, fb_lo = q**K, q ** (K - 1)
    boundaries = {q**k for k in range(1, K + 1)}
    sums = {}
    with mp.workdps(40):
        s = mean = mp.mpf(0)
        for n in range(spec.start, n_used):
            if n in boundaries:
                sums[n] = s
            sign = sign_at(spec.seq, n)
            w = sign if spec.mode == "delta" else (1 - sign) // 2
            if w:
                v = exact_real_value(spec.term, n)
                s += w * (mp.log(v.numerator) - mp.log(v.denominator))
            if n >= fb_lo:
                mean += s
        sums[n_used] = s
        return sums, mean / (n_used - fb_lo)


# (sequence, mode, start, term, N, block cap)
CASES = [
    ("gtm:2:1", "delta", 0, "(2n+1)/(2n+2)", 2**12 + 5, None),
    ("gtm:2:1", "theta", 0, "((n+1)(2n+3)^2)/((n+3)(2n+1)^2)", 2**11, None),
    ("gtm:3:01", "delta", 1, "((2n+3)(3n+1)(6n+7))/((2n+1)(3n+2)(6n+5))", 3**7 + 100, None),
    ("gtm:3:11", "theta", 1, "((n+1)(n+5)(n+6))/((n+2)(n+3)(n+7))", 3**7, None),
    ("dcount:4:2", "delta", 0, "(4n+2)/(4n+3)", 4**6, None),
    ("dcount:4:1", "theta", 1, "((4n+1)(4n+3))/((4n+2)^2)", 4**6 - 1, None),
    ("dparity:5", "delta", 1, "((5n+1)(5n+3))/((5n+2)(5n+4))", 5**5, None),
    ("gtm:5:0110", "theta", 0, "((n+1)(n+4))/((n+2)(n+3))", 5**5 + 17, None),
    ("dcount:6:5", "delta", 0, "(6n+1)/(6n+5)", 6**5, None),
    ("gtm:7:101010", "theta", 1, "((n+2)(n+5))/((n+3)(n+4))", 7**4 + 3, None),
    # n_safe = 303 lies inside the final block [256, 512): B = 256
    ("gtm:2:1", "delta", 0, "((2n+601)(2n+605))/((2n+603)^2)", 2**9, None),
    # B = 9: chunks before the final block, the head ends in chunk 2
    ("gtm:3:01", "theta", 1, "((n+20)(n+22))/((n+21)^2)", 3**7, 16),
    ("gtm:2:1", "delta", 1, "((3n+1)(6n+5))/((3n+2)(6n+1))", 2**12, 8),
    ("dcount:7:3", "delta", 0, "((7n+3)(7n+10))/((7n+5)(7n+8))", 7**4, 49),
    # a = -9/2 < b = -7/2: where w_n = -1 the offset is n + a, 1/2 at n_safe = 5
    ("gtm:2:1", "delta", 0, "((2n-9)^2)/((2n-7)^2)", 2**12, None),
    # three pairs, B = 9: the final block [729, 2187) spans chunks of both signs
    ("gtm:3:01", "delta", 1, "((3n+1)(3n+5)(n+4))/((3n+2)(3n+4)(n+3))", 3**7, 16),
    # B = 11 and B = 16: 121 and 256 blocks, most of them summed from moments
    ("gtm:11:1011001101", "delta", 0, "((11n+2)(11n+9))/((11n+4)(11n+7))", 11**3, 11),
    ("dparity:16", "theta", 0, "((n+1)(n+6))/((n+2)(n+5))", 16**3, 16),
    # theta from start 1, B = 25
    ("gtm:5:1011", "theta", 1, "((5n+1)(5n+4))/((5n+2)(5n+3))", 5**5, 25),
    # the pair a = -9/2 < b = -7/2, taken twice, is live where w_n = -1, in
    # the outright blocks and in the moment blocks; B = 8
    ("gtm:2:1", "delta", 0, "((2n-9)^2(3n+1))/((2n-7)^2(3n+2))", 2**12, 8),
]


@pytest.mark.parametrize("seq_text, mode, start, lhs, N, cap", CASES)
def test_matches_brute_force_reference(seq_text, mode, start, lhs, N, cap, monkeypatch):
    moment_blocks = []
    if cap is not None:
        monkeypatch.setattr(evaluator, "_BLOCK_CAP", cap)
        real = evaluator._moment_blocks

        def counting(*args):
            for chunk in real(*args):
                moment_blocks.append(len(chunk[1]))
                yield chunk

        monkeypatch.setattr(evaluator, "_moment_blocks", counting)
    spec = ProductSpec(parse_seq_spec(seq_text), mode, start, parse_product_term(lhs))
    q = spec.seq.q
    K = _top_exponent(q, N)
    ref, ref_mean = reference_sums(spec, K)
    sums, mean, fl_round = _direct_sums(spec, K)
    # a capped case must reach the moment path, whatever its threshold becomes
    assert (cap is None) or sum(moment_blocks) > 0
    assert sorted(sums) == [q**k for k in range(1, K + 1)]
    # fl_round is a worst-case bound: it covers every sum and the mean
    for k in range(1, K + 1):
        assert abs(sums[q**k] - ref[q**k]) <= fl_round, k
    assert abs(mean - ref_mean) <= min(fl_round, 1e-12)
    assert fl_round < 1e-10

    res = evaluate_direct(spec, N)
    assert res.terms_used == q**K and res.log_value == mean
    last = [ref[q**k] for k in range(max(1, K - q + 1), K + 1)]
    est_ref = float(2 * q * (max(last) - min(last) + abs(ref[q**K] - ref_mean)))
    # four sums enter the estimate, each within fl_round of the reference
    assert abs(res.est_error - (est_ref + fl_round)) <= 8 * q * fl_round + 1e-15 * est_ref


def test_memory_stays_within_one_block():
    spec = ProductSpec(parse_seq_spec("dcount:4:2"), "delta", 0,
                       parse_product_term("(4n+2)/(4n+3)"))
    tracemalloc.start()
    try:
        res = evaluate_direct(spec, 4**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.terms_used == 4**12
    assert abs(res.log_value - math.log(0.5)) <= res.est_error
    assert peak < 16 * 2**20


def test_memory_stays_within_one_block_at_65536_blocks():
    # N = 4^16: B = 4^8 and 65,536 blocks, all but 16 summed from moments;
    # neither they nor the q^k boundaries are kept per block
    spec = ProductSpec(parse_seq_spec("dcount:4:2"), "delta", 0,
                       parse_product_term("(4n+2)/(4n+3)"))
    tracemalloc.start()
    try:
        res = evaluate_direct(spec, 4**16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.terms_used == 4**16
    assert abs(res.log_value - math.log(0.5)) <= res.est_error
    assert peak < 16 * 2**20


@pytest.mark.parametrize("seq_text, m", [("gtm:2:1", 5), ("gtm:3:01", 4), ("gtm:5:1011", 3),
                                         ("dcount:7:3", 2), ("dparity:16", 2)])
def test_block_moments_match_a_sum_over_the_block(seq_text, m):
    seq = parse_seq_spec(seq_text)
    B = seq.q**m
    signs = sign_prefix(seq, B)
    for H in (0, B // 2, B - 1):
        for sgn, got in ((signs, _block_moments(seq.signs, m, H, 12)),
                         ([1] * B, _block_moments((1,) * seq.q, m, H, 12))):
            assert got == [sum(s * (j - H) ** i for j, s in enumerate(sgn)) for i in range(13)]


def _moment_cases():
    records = {r.id: r.product_spec() for r in load_catalog("builtin")}
    q5 = parse_seq_spec("gtm:5:1011")
    frak = ProductSpec(q5, "theta", 1, build_gamma_ratio_term(q5, [1, 3], [2, 2])[0])
    return [(records["g1.q4.k2"], 11), (records["g1.q5.k4"], 10), (records["g2.q5"], 10),
            (frak, 9)]


@pytest.mark.parametrize("case", range(4), ids=["g1.q4.k2", "g1.q5.k4", "g2.q5", "thm_frak"])
def test_moment_path_agrees_with_the_outright_sums(case, monkeypatch):
    # each case reaches blocks past k = 16; with the moment path off every
    # term is summed outright, and both results hold within both fl_rounds
    spec, K = _moment_cases()[case]
    q = spec.seq.q
    sums, mean, fl_round = _direct_sums(spec, K)
    monkeypatch.setattr(evaluator, "_MOMENT_SPAN", q ** (K + 1))
    out_sums, out_mean, out_round = _direct_sums(spec, K)
    assert fl_round < out_round
    for k in range(1, K + 1):
        assert abs(sums[q**k] - out_sums[q**k]) <= fl_round + out_round, k
    assert abs(mean - out_mean) <= fl_round + out_round


def test_repeated_pairs_take_one_pass():
    # R = r^3000, r = ((n+1)(n+3))/((n+2)^2): two distinct pairs, each taken
    # 3000 times, give 3000 times the log of r
    seq = parse_seq_spec("gtm:2:1")
    base, big = (ProductSpec(seq, "delta", 1, parse_product_term(
        f"((n+1)^{e}(n+3)^{e})/((n+2)^{2 * e})")) for e in (1, 3000))
    assert evaluator._log1p_pairs(big.term) == [(-1.0, 1.0, 2.0, 3000), (1.0, 3.0, 2.0, 3000)]
    base, big = evaluate_direct(base), evaluate_direct(big)
    assert abs(big.log_value - 3000 * base.log_value) <= 3000 * base.est_error + big.est_error


@pytest.mark.parametrize("q", range(2, 17))
def test_top_exponent_at_and_below_powers(q):
    for K in range(2, 61):
        assert _top_exponent(q, q**K) == K
        assert _top_exponent(q, q**K - 1) == K - 1
