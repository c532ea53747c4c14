"""The block-wise direct oracle against a brute-force reference.

The reference sums w_n ln R(n) term by term at 40 digits, with ln R(n) taken
from the exact rational value, and forms the q^k boundary sums and the mean
over the final block from those.  The block length is shrunk in some cases
(``_BLOCK_CAP``) so that small N still run many blocks, blocks outside the
final one, and a first block that starts off a multiple of B.
"""

import math
import tracemalloc

import mpmath as mp
import pytest

from gtmprod import evaluator
from gtmprod.evaluator import ProductSpec, _direct_sums, _top_exponent, evaluate_direct
from gtmprod.ratfun import exact_real_value, parse_product_term
from gtmprod.sequences import parse_seq_spec, sign_at


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
]


@pytest.mark.parametrize("seq_text, mode, start, lhs, N, cap", CASES)
def test_matches_brute_force_reference(seq_text, mode, start, lhs, N, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(evaluator, "_BLOCK_CAP", cap)
    spec = ProductSpec(parse_seq_spec(seq_text), mode, start, parse_product_term(lhs))
    q = spec.seq.q
    K = _top_exponent(q, N)
    ref, ref_mean = reference_sums(spec, K)
    sums, mean, fl_round = _direct_sums(spec, K)
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


@pytest.mark.parametrize("q", range(2, 17))
def test_top_exponent_at_and_below_powers(q):
    for K in range(2, 61):
        assert _top_exponent(q, q**K) == K
        assert _top_exponent(q, q**K - 1) == K - 1
