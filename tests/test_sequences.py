import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gtmprod.sequences import (
    SequenceError,
    asymptotic_exponent,
    delta_prefix,
    extremal_partial_sums,
    geometric_bound,
    k0_threshold,
    make_sequence,
    normalize_gtm_bits,
    parse_seq_spec,
    partial_sum,
    partial_sums_upto,
    sign_at,
    sign_prefix,
)


def naive_partial_sums(seq, n_max):
    """Independent oracle: cumulative sums of the materialized sign prefix."""
    return np.concatenate(([0], np.cumsum(delta_prefix(seq, n_max), dtype=np.int64)))


def theta_at(seq, n):
    """Definition oracle: theta_n = (1 - delta_n)/2 in {0, 1}."""
    return (1 - sign_at(seq, n)) // 2


def morphism_prefix(q, theta_bits, length):
    """Independent oracle: the first ``length`` letters (theta values) of the
    fixed point of 0 -> 0 t_1 .. t_{q-1}, 1 -> complemented image, iterated
    from the letter 0 with no digit arithmetic."""
    tail = normalize_gtm_bits(q, theta_bits)
    img = ((0,) + tail, (1,) + tuple(1 - b for b in tail))
    word = [0]
    while len(word) < length:
        word = [b for letter in word for b in img[letter]]
    return word[:length]


def digit_stats(q, n):
    """((N_1, ..., N_{q-1}), digit sum): counts of each nonzero base-q digit
    of n, and their weighted sum."""
    counts = [0] * q
    s = 0
    while n:
        n, d = divmod(n, q)
        counts[d] += 1
        s += d
    return tuple(counts[1:]), s


def random_pattern(rng, q_max=6):
    q = rng.randint(2, q_max)
    while True:
        bits = "".join(rng.choice("01") for _ in range(q - 1))
        if "1" in bits:
            return make_sequence("gtm", q, bits=bits)


class TestConstruction:
    def test_gtm_signs(self):
        seq = make_sequence("gtm", 3, bits="001")
        assert seq.signs == (1, 1, -1)
        assert seq.spec == "gtm:3:01"
        assert parse_seq_spec("gtm:3:01").signs == seq.signs

    def test_dcount_matches_classical(self):
        assert make_sequence("dcount", 2, k=1).signs == make_sequence("gtm", 2, bits="1").signs

    def test_dparity_q3_alternates(self):
        seq = make_sequence("dparity", 3)
        assert seq.signs == (1, -1, 1)
        for n in range(200):
            assert sign_at(seq, n) == (-1) ** n

    def test_aliases_are_one_sequence(self):
        # equality and hash read (q, signs); the name stays the one given
        names = ["dcount:3:1", "dparity:3", "gtm:3:10", "gtm:3:010"]
        seqs = [parse_seq_spec(name) for name in names]
        assert all(seq == seqs[0] for seq in seqs) and len(set(seqs)) == 1
        assert len({hash(seq) for seq in seqs}) == 1
        assert [seq.spec for seq in seqs] == ["dcount:3:1", "dparity:3", "gtm:3:10", "gtm:3:10"]
        assert [str(seq) for seq in seqs] == [seq.spec for seq in seqs]
        assert {seq.gtm_spec for seq in seqs} == {"gtm:3:10"}
        assert parse_seq_spec("dcount:3:2") != seqs[0]
        assert parse_seq_spec("dcount:3:2").gtm_spec == "gtm:3:01"

    def test_all_plus_is_trivial_but_constructible(self):
        seq = make_sequence("gtm", 4, bits="000")
        assert not seq.nontrivial
        assert partial_sum(seq, 17) == 17

    @pytest.mark.parametrize("call", [
        lambda: make_sequence("gtm", 1, bits="1"),
        lambda: make_sequence("gtm", 3, bits="2"),
        lambda: make_sequence("gtm", 3, bits="111"),   # q-length must start with 0
        lambda: make_sequence("gtm", 3, bits="1"),     # wrong length
        lambda: make_sequence("dcount", 3, k=0),
        lambda: make_sequence("dcount", 3, k=3),
        lambda: make_sequence("nope", 3, bits="01"),
        lambda: parse_seq_spec("dparity:zz"),
        lambda: parse_seq_spec("gtm:3"),
    ])
    def test_bad_construction(self, call):
        with pytest.raises(SequenceError):
            call()


class TestElementAccess:
    def test_sign_examples(self):
        g = parse_seq_spec("gtm:3:001")
        assert sign_at(g, 7) == -1
        assert sign_at(g, 0) == 1
        assert sign_at(parse_seq_spec("gtm:2:1"), 3) == 1

    def test_theta_prefixes(self):
        g = parse_seq_spec("gtm:3:001")
        assert [theta_at(g, n) for n in range(9)] == [0, 0, 1, 0, 0, 1, 1, 1, 0]
        tm = parse_seq_spec("gtm:2:1")
        assert [theta_at(tm, n) for n in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]
        assert theta_at(g, 0) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            sign_at(parse_seq_spec("gtm:2:1"), -1)

    @pytest.mark.parametrize("spec", ["gtm:2:1", "gtm:3:01", "dcount:5:3", "dparity:16"])
    def test_sign_prefix_matches_digit_access(self, spec):
        seq = parse_seq_spec(spec)
        for length in (0, 1, seq.q, 1000):
            want = [sign_at(seq, n) for n in range(length)]
            assert sign_prefix(seq, length) == want
            assert delta_prefix(seq, length).tolist() == want
        with pytest.raises(ValueError):
            sign_prefix(seq, -1)


class TestMorphismOracle:
    def test_prefix_examples(self):
        assert morphism_prefix(3, "001", 9) == [0, 0, 1, 0, 0, 1, 1, 1, 0]
        assert morphism_prefix(3, "011", 9) == [0, 1, 1, 1, 0, 0, 1, 0, 0]
        assert morphism_prefix(2, "1", 4) == [0, 1, 1, 0]

    @pytest.mark.parametrize("q,bits", [(2, "1"), (3, "01"), (3, "11"),
                                        (4, "101"), (5, "0011")])
    def test_agreement_with_digit_access(self, q, bits):
        seq = make_sequence("gtm", q, bits=bits)
        word = morphism_prefix(q, bits, q**5)
        assert word == [theta_at(seq, n) for n in range(q**5)]


class TestPartialSums:
    def test_examples(self):
        assert partial_sum(parse_seq_spec("gtm:3:001"), 10) == 2
        assert partial_sum(parse_seq_spec("gtm:2:1"), 5) == -1
        assert partial_sum(parse_seq_spec("gtm:2:1"), 0) == 0

    def test_fast_equals_naive_sampled_patterns(self):
        rng = random.Random(20240)
        for _ in range(12):
            seq = random_pattern(rng)
            n_max = 20_000
            fast = partial_sums_upto(seq, n_max)
            assert (fast == naive_partial_sums(seq, n_max)).all()
            for n in rng.sample(range(n_max), 25):
                assert partial_sum(seq, n) == fast[n]

    def test_power_identity_exact(self):
        for spec in ("gtm:2:1", "gtm:3:01", "gtm:4:011", "gtm:5:0101", "dcount:5:2"):
            seq = parse_seq_spec(spec)
            for k in range(13):
                assert partial_sum(seq, seq.q**k) == seq.delta_q**k


class TestMultiplicativity:
    @pytest.mark.parametrize("spec", ["gtm:2:1", "gtm:3:01", "gtm:3:11",
                                      "dcount:4:2", "dparity:5"])
    def test_exhaustive_small(self, spec):
        seq = parse_seq_spec(spec)
        q = seq.q
        upper = 10_000
        pre = delta_prefix(seq, (upper + 1) * q).astype(np.int64)
        blocks = pre[: (upper + 1) * q].reshape(upper + 1, q)
        assert (blocks == np.outer(pre[: upper + 1], np.array(seq.signs))).all()

    def test_random_large_indices(self):
        rng = random.Random(99)
        for _ in range(1000):
            seq = random_pattern(rng)
            n = rng.randint(0, 10**12)
            k = rng.randint(0, seq.q - 1)
            assert sign_at(seq, n * seq.q + k) == sign_at(seq, n) * seq.signs[k]

    @given(st.integers(2, 6), st.integers(0, 10**9), st.data())
    def test_multiplicativity_property(self, q, n, data):
        bits = data.draw(st.lists(st.integers(0, 1), min_size=q - 1, max_size=q - 1))
        seq = make_sequence("gtm", q, bits=bits)
        k = data.draw(st.integers(0, q - 1))
        assert sign_at(seq, n * q + k) == sign_at(seq, n) * seq.signs[k]


class TestThetaRecursion:
    @pytest.mark.parametrize("spec", ["gtm:2:1", "gtm:3:01", "gtm:4:110", "gtm:5:1001"])
    def test_recursion_exact(self, spec):
        seq = parse_seq_spec(spec)
        q = seq.q
        theta = (1 - delta_prefix(seq, (10_000 + 1) * q).astype(np.int64)) // 2
        n = np.arange(10_001)
        for k in range(q):
            assert (theta[n * q + k] == theta[n] * (-1) ** theta[k] + theta[k]).all()


class TestDigitFunctions:
    def test_digit_stats_examples(self):
        assert digit_stats(3, 14) == ((2, 1), 4)
        assert digit_stats(2, 7) == ((3,), 3)
        assert digit_stats(7, 0) == ((0,) * 6, 0)

    @pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (3, 2), (5, 3)])
    def test_dcount_sign_is_count_parity(self, q, k):
        seq = make_sequence("dcount", q, k=k)
        for n in range(2000):
            counts, _ = digit_stats(q, n)
            assert sign_at(seq, n) == (-1) ** counts[k - 1]

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_dparity_sign_is_digit_sum_parity(self, q):
        seq = make_sequence("dparity", q)
        for n in range(2000):
            _, s = digit_stats(q, n)
            assert sign_at(seq, n) == (-1) ** s

    @pytest.mark.parametrize("q", [3, 5])
    def test_odd_dparity_alternates(self, q):
        seq = make_sequence("dparity", q)
        pre = delta_prefix(seq, 10_001).astype(np.int64)
        n = np.arange(10_001)
        assert (pre == (-1) ** (n % 2)).all()


class TestExtremalSums:
    def test_examples(self):
        assert extremal_partial_sums(3, 2) == (1, 3)
        assert extremal_partial_sums(4, 3) == (8, 15)
        for q in (2, 3, 4, 5):
            assert extremal_partial_sums(q, 0) == (1, 1)

    def test_witness_pattern_attains_maximum(self):
        # delta = (+,+,-) attains Delta_5 = 3 = 1 + (3-2) + (3-2)^2
        seq = make_sequence("gtm", 3, bits="01")
        assert partial_sum(seq, 5) == 3

    def test_caps(self):
        with pytest.raises(ValueError):
            extremal_partial_sums(7, 1)
        with pytest.raises(ValueError):
            extremal_partial_sums(3, 7)

    @pytest.mark.parametrize("q,k", [(2, 4), (3, 3), (4, 2)])
    def test_matches_closed_forms_small(self, q, k):
        at_power, upto = extremal_partial_sums(q, k)
        assert at_power == (q - 2) ** k if q > 2 else at_power == (q - 2) ** k
        assert upto == geometric_bound(q, k)


class TestBounds:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_geometric_bound_small(self, q):
        k = 4
        top = q**k
        from itertools import product as cartesian
        for tail in cartesian((0, 1), repeat=q - 1):
            if not any(tail):
                continue
            seq = make_sequence("gtm", q, bits=tail)
            deltas = naive_partial_sums(seq, top)
            assert int(np.abs(deltas).max()) <= geometric_bound(q, k)

    def test_k0_values(self):
        assert [k0_threshold(q) for q in (2, 3, 4, 5)] == [0, 2, 4, 6]

    @pytest.mark.parametrize("q", [2, 3])
    def test_asymptotic_bound_sampled(self, q):
        from itertools import product as cartesian
        lo, hi = q ** k0_threshold(q), q**8
        alpha = asymptotic_exponent(q)
        n = np.arange(max(lo, 1), hi + 1)
        bound = n.astype(np.float64) ** alpha + 1e-9
        for tail in cartesian((0, 1), repeat=q - 1):
            if not any(tail):
                continue
            seq = make_sequence("gtm", q, bits=tail)
            deltas = naive_partial_sums(seq, hi)[max(lo, 1): hi + 1]
            assert (np.abs(deltas) <= bound).all()
