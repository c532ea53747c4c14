"""The block-wise direct oracle against a brute-force reference.

The reference sums w_n ln R(n) term by term at 40 digits, with ln R(n) taken
from the exact rational value, and forms the q^k boundary sums and the mean
over the final block from those.  The oracle sums a short prefix term by
term, each term from the exact R(n) and the sums chained by ``math.fsum``,
and each later level [q^j, q^(j+1)) in a fixed number of blocks from their
sign moments.  ``_BLOCK_CAP`` is shrunk in some cases so that the prefix
still runs several fsum chunks, cut at the cap and at the boundaries q^i,
and the moment blocks several passes; every capped case reaches the moment
blocks.  The oracle's proven fl_round must cover every sum, the moment
blocks' truncation included, against the reference; its estimate stays an
estimate.  The oracle reads no Dirichlet constant: its module loads neither
``dirichlet`` nor ``evaluator`` (``test_the_oracle_loads_no_accelerated_code``).
"""

import json
import math
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from gtmprod import direct
from gtmprod.catalog import load_catalog
from gtmprod.direct import _direct_sums, _top_exponent
from gtmprod.evaluator import (
    ProductSpec,
    build_gamma_ratio_term,
    build_scaling_term,
    evaluate_direct,
    evaluate_product,
)
from gtmprod.ratfun import exact_real_value, parse_product_term
from gtmprod.sequences import (
    block_moments,
    make_sequence,
    parse_seq_spec,
    sign_at,
    sign_prefix,
    sign_range,
)
from test_evaluator import _pinned_specs


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
    # n_safe = 303 lies inside the final block [256, 512)
    ("gtm:2:1", "delta", 0, "((2n+601)(2n+605))/((2n+603)^2)", 2**9, None),
    # n_safe = 23, n_out = 27: the prefix is cut at 3, 9 and the cap, into
    # [1, 3), [3, 9), [9, 25) and [25, 27)
    ("gtm:3:01", "theta", 1, "((n+20)(n+22))/((n+21)^2)", 3**7, 16),
    ("gtm:2:1", "delta", 1, "((3n+1)(6n+5))/((3n+2)(6n+1))", 2**12, 8),
    ("dcount:7:3", "delta", 0, "((7n+3)(7n+10))/((7n+5)(7n+8))", 7**4, 49),
    # a = -9/2 < b = -7/2: both roots above 0, n_safe = 5
    ("gtm:2:1", "delta", 0, "((2n-9)^2)/((2n-7)^2)", 2**12, None),
    # three pairs; the prefix [1, 27) is cut at 3, 9 and the cap
    ("gtm:3:01", "delta", 1, "((3n+1)(3n+5)(n+4))/((3n+2)(3n+4)(n+3))", 3**7, 16),
    # caps 11 and 16: 121 and 256 blocks, most of them summed from moments
    ("gtm:11:1011001101", "delta", 0, "((11n+2)(11n+9))/((11n+4)(11n+7))", 11**3, 11),
    ("dparity:16", "theta", 0, "((n+1)(n+6))/((n+2)(n+5))", 16**3, 16),
    # theta from start 1, cap 25
    ("gtm:5:1011", "theta", 1, "((5n+1)(5n+4))/((5n+2)(5n+3))", 5**5, 25),
    # the pair a = -9/2 < b = -7/2, taken twice, in the moment blocks; cap 8
    ("gtm:2:1", "delta", 0, "((2n-9)^2(3n+1))/((2n-7)^2(3n+2))", 2**12, 8),
]


def _count_moment_blocks(monkeypatch) -> list[int]:
    """Wrap ``_moment_blocks``: the list returned gets the number of blocks
    of each vector pass it yields."""
    counts, real = [], direct._moment_blocks

    def counting(*args):
        for chunk in real(*args):
            counts.append(len(chunk[1]))
            yield chunk

    monkeypatch.setattr(direct, "_moment_blocks", counting)
    return counts


@pytest.mark.parametrize("seq_text, mode, start, lhs, N, cap", CASES)
def test_matches_brute_force_reference(seq_text, mode, start, lhs, N, cap, monkeypatch):
    moment_blocks = []
    if cap is not None:
        monkeypatch.setattr(direct, "_BLOCK_CAP", cap)
        moment_blocks = _count_moment_blocks(monkeypatch)
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
    # N = 4^16: 16 terms summed outright, then 14 levels of 48 moment
    # blocks each; no array grows with N
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
        for sgn, got in ((signs, block_moments(seq.signs, m, H, 12)),
                         ([1] * B, block_moments((1,) * seq.q, m, H, 12))):
            want = [sum(s * (j - H) ** i for j, s in enumerate(sgn)) for i in range(13)]
            assert list(got) == want


def _moment_cases():
    records = {r.id: r.product_spec() for r in load_catalog("builtin")}
    q5 = parse_seq_spec("gtm:5:1011")
    frak = ProductSpec(q5, "theta", 1, build_gamma_ratio_term(q5, [1, 3], [2, 2])[0])
    cases = {"g1.q4.k2": (records["g1.q4.k2"], 8), "g1.q5.k4": (records["g1.q5.k4"], 8),
             "g2.q5": (records["g2.q5"], 8), "thm_frak": (frak, 8)}
    cases.update((f"pinned-{name}", (spec, 7)) for name, spec in _pinned_specs().items())
    return cases


@pytest.mark.parametrize("case", list(_moment_cases()))
def test_moment_path_agrees_with_the_outright_sums(case, monkeypatch):
    # each case reaches the moment path; with it off every term is summed
    # outright, and both results hold within both fl_rounds
    spec, K = _moment_cases()[case]
    q = spec.seq.q
    blocks = _count_moment_blocks(monkeypatch)
    sums, mean, fl_round = _direct_sums(spec, K)
    n_blocks = sum(blocks)
    monkeypatch.setattr(direct, "_MOMENT_SPAN", q ** (K + 1))
    out_sums, out_mean, out_round = _direct_sums(spec, K)
    assert n_blocks > 0 and sum(blocks) == n_blocks  # the second call takes no moment block
    if K > 7:  # long outright chunks: the moment path's bound is the smaller
        assert fl_round < out_round
    for k in range(1, K + 1):
        assert abs(sums[q**k] - out_sums[q**k]) <= fl_round + out_round, k
    assert abs(mean - out_mean) <= fl_round + out_round


def _count_outright_ends(monkeypatch) -> list[int]:
    """Wrap ``_block_plan``: the list returned gets the end n_out of the
    outright terms of each plan."""
    ends, real = [], direct._block_plan

    def counting(*args):
        n_out, runs = real(*args)
        ends.append(n_out)
        return n_out, runs

    monkeypatch.setattr(direct, "_block_plan", counting)
    return ends


@pytest.mark.parametrize("seq_text, mode, start, lhs, c, cut", [
    ("gtm:2:1", "delta", 0, "(2n+1)/(2n+2)", 4, 0),
    ("dcount:4:2", "delta", 0, "(4n+2)/(4n+3)", 2, 0),
    ("gtm:5:1011", "theta", 1, "((5n+1)(5n+4))/((5n+2)(5n+3))", 2, 0),
    # a root < 0: the first block of each level is cut into its q sub-blocks
    ("gtm:2:1", "delta", 0, "((2n-9)^2)/((2n-7)^2)", 4, 1),
])
def test_cost_follows_k_not_n(seq_text, mode, start, lhs, c, cut, monkeypatch):
    # q^K to q^(K+4) adds four levels of (q - 1) q^c moment blocks, q - 1
    # more for each cut block, and no outright term
    spec = ProductSpec(parse_seq_spec(seq_text), mode, start, parse_product_term(lhs))
    q = spec.seq.q
    blocks, ends = _count_moment_blocks(monkeypatch), _count_outright_ends(monkeypatch)
    cost = []
    for K in (8, 12):
        del blocks[:]
        evaluate_direct(spec, q**K)
        cost.append(sum(blocks))
    assert ends == [q**c, q**c]
    assert cost[1] - cost[0] == 4 * ((q - 1) * q**c + cut * (q - 1))


# SHA-256 of id|hex(log_value)|hex(est_error) of evaluate_direct, one line per
# builtin record in id order at N = q^7, then at N = q^12.  A change that
# moves an answer on purpose re-pins it and says why.
CATALOG_DIGEST = "7a3757680bee836ccb76a2fea0633654f6b8ffeb456644358a0c25afc58b1c2c"


def test_catalog_answers_are_pinned():
    import hashlib

    records = sorted(load_catalog("builtin"), key=lambda r: r.id)
    text = ""
    for K in (7, 12):
        for r in records:
            spec = r.product_spec()
            res = evaluate_direct(spec, spec.seq.q**K)
            text += f"{r.id}|{res.log_value.hex()}|{res.est_error.hex()}\n"
    assert text.count("\n") == 2 * 79
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DIGEST


def test_the_oracle_loads_no_accelerated_code():
    # a fresh interpreter builds a catalog spec from ratfun and sequences and
    # runs the oracle at 5^12: it gives this process's answer bit for bit and
    # has loaded neither the ladder's module nor the accelerated evaluator's
    record = next(r for r in load_catalog("builtin") if r.id == "g1.q5.k4")
    script = textwrap.dedent(f"""
        import json, sys
        from gtmprod.ratfun import ProductSpec, parse_product_term
        from gtmprod.sequences import parse_seq_spec
        from gtmprod.direct import evaluate_direct
        spec = ProductSpec(parse_seq_spec({record.seqspec!r}), {record.mode!r},
                           {record.start!r}, parse_product_term({record.lhs!r}))
        res = evaluate_direct(spec, 5**12)
        print(json.dumps([res.log_value.hex(), res.est_error.hex(),
                          sorted(m for m in sys.modules if m.startswith("gtmprod"))]))
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    log_hex, est_hex, loaded = json.loads(proc.stdout)
    res = evaluate_direct(record.product_spec(), 5**12)
    assert (log_hex, est_hex) == (res.log_value.hex(), res.est_error.hex())
    assert loaded == ["gtmprod", "gtmprod.direct", "gtmprod.ratfun", "gtmprod.sequences"]


def test_a_term_equal_to_one_sums_no_term(monkeypatch):
    # every offset cancels, so R = 1 and no term is evaluated: 3^14 zeros
    # were once summed one by one
    spec = ProductSpec(parse_seq_spec("gtm:3:01"), "delta", 0,
                       parse_product_term("((n+2)(n+1))/((n+2)(n+1))"))
    evaluated, real = [], direct.value_pairs

    def counting(term, ns):
        evaluated.extend(ns)
        return real(term, ns)

    monkeypatch.setattr(direct, "value_pairs", counting)
    t0 = time.perf_counter()
    res = evaluate_direct(spec, 3**14)
    assert time.perf_counter() - t0 < 0.1
    assert (res.log_value, res.est_error, res.terms_used) == (0.0, 0.0, 3**14)
    assert evaluated == []


def test_woods_robbins_at_ten_to_the_fifteen():
    # 2^49 terms in 45 levels: the moment chain is short, so fl_round stays small
    spec = ProductSpec(parse_seq_spec("gtm:2:1"), "delta", 0, parse_product_term("(2n+1)/(2n+2)"))
    res = evaluate_direct(spec, 10**15)
    assert res.terms_used == 2**49
    assert abs(res.log_value + math.log(2) / 2) <= res.est_error <= 1e-9


@pytest.mark.parametrize("N", [1e6, 4.0, 4096.5, True])
def test_non_int_n_is_a_type_error(N):
    # refused before any work: this spec would be rejected if it were checked
    spec = ProductSpec(parse_seq_spec("gtm:2:0"), "delta", 0, parse_product_term("(2n+1)/(2n+2)"))
    with pytest.raises(TypeError, match=r"^N must be an int, got "):
        evaluate_direct(spec, N)


def test_n_is_refused_from_two_to_the_500():
    # theta weights sum to B/2 over a block, so a final block's ramp weight
    # is about B^2/4, which leaves binary64 for B past 2^511
    spec = ProductSpec(parse_seq_spec("gtm:2:1"), "theta", 0,
                       parse_product_term("((n+1)(2n+3)^2)/((n+3)(2n+1)^2)"))
    res = evaluate_direct(spec, 2**500 - 1)
    assert res.terms_used == 2**499 and abs(res.log_value - math.log(2)) <= res.est_error
    with pytest.raises(ValueError, match=r"^direct evaluation needs N < 2\^500$"):
        evaluate_direct(spec, 2**500)


@pytest.mark.parametrize("q", range(6, 17))
def test_large_bases_agree_with_the_accelerated_value(q, cache, monkeypatch):
    # a seeded thm_f instance per base: the oracle at q^8, its far levels
    # summed from moments, against the accelerated value
    rng = random.Random(2400 + q)
    bits = "".join(rng.choice("01") for _ in range(q - 2)) + "1"
    seq = make_sequence("gtm", q, bits="".join(rng.sample(bits, len(bits))))
    a, b = (Fraction(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(2))
    spec = ProductSpec(seq, "delta", 1, build_scaling_term(seq, a, b)[0])
    blocks = _count_moment_blocks(monkeypatch)
    direct = evaluate_direct(spec, q**8)
    accel = evaluate_product(spec, eps=1e-9, cache=cache)
    assert direct.terms_used == q**8 and sum(blocks) > 0
    assert abs(direct.log_value - accel.log_value) <= direct.est_error + accel.est_error


def test_repeated_pairs_take_one_pass():
    # R = r^3000, r = ((n+1)(n+3))/((n+2)^2): two distinct pairs, each taken
    # 3000 times, give 3000 times the log of r
    seq = parse_seq_spec("gtm:2:1")
    base, big = (ProductSpec(seq, "delta", 1, parse_product_term(
        f"((n+1)^{e}(n+3)^{e})/((n+2)^{2 * e})")) for e in (1, 3000))
    assert direct._log1p_pairs(big.term) == [(-1.0, 1.0, 2.0, 3000), (1.0, 3.0, 2.0, 3000)]
    base, big = evaluate_direct(base), evaluate_direct(big)
    assert abs(big.log_value - 3000 * base.log_value) <= 3000 * base.est_error + big.est_error


@pytest.mark.parametrize("seq_text", ["gtm:2:1", "gtm:3:01", "dcount:7:3", "dparity:16",
                                      "gtm:5:1011", "gtm:16:010011101100101"])
def test_sign_range_matches_sign_at(seq_text):
    # widths up to 3 q^3 at lo up to 10^15, so the range is cut from blocks
    # of several lengths, and every prefix up to q^3 + 1 (``sign_prefix``)
    seq = parse_seq_spec(seq_text)
    q = seq.q
    rng = random.Random(q)
    for lo in [0, 1, q - 1] + [rng.randrange(10 ** rng.randint(3, 15)) for _ in range(60)]:
        hi = lo + rng.randrange(3 * q ** rng.randint(1, 3) + 1)
        assert sign_range(seq, lo, hi) == [sign_at(seq, n) for n in range(lo, hi)], (lo, hi)
    want = [sign_at(seq, n) for n in range(q**3 + 1)]
    for n in range(q**3 + 2):
        assert sign_range(seq, 0, n) == sign_prefix(seq, n) == want[:n], n
    with pytest.raises(ValueError):
        sign_range(seq, 5, 4)


@pytest.mark.parametrize("q", range(2, 17))
def test_top_exponent_at_and_below_powers(q):
    for K in range(2, 61):
        assert _top_exponent(q, q**K) == K
        assert _top_exponent(q, q**K - 1) == K - 1
