"""Sign-weighted Dirichlet constants F(s) = sum_n delta_n n^-s at integer s.

Splitting the index as n = q*m + k and expanding (qm+k)^-s binomially
turns strong q-multiplicativity into the functional equation of Allouche
and Cohen (Bull. LMS 17, 1985).  Expanding only the m >= M0 part, where
k/(qm) <= (q-1)/(q M0), gives the shifted form

    F(s) (q^s - c_0) = sum_{n<q M0} delta_n (q/n)^s - c_0 H(s)
                       + sum_{i>=1} C(-s,i) c_i q^-i T(s+i)

with c_i = sum_k delta_k k^i, H(t) = sum_{m<M0} delta_m m^-t and
T(t) = F(t) - H(t) = sum_{m>=M0} delta_m m^-t.  Its terms fall like
((q-1)/(q M0))^i, so an order takes a few dozen of them for every base
q <= 16.  Orders s > S_DIRECT are summed directly (the tail is below
N^(1-s)/(s-1)).  A miss at or below S_DIRECT runs one sweep that fills
the whole ladder of the sequence, from S_DIRECT down to order 1 (2 for
the all-plus pattern, which supplies zeta), with the moments c_i, the
powers q^i and one sign prefix computed once; T(t) comes from a direct
sum from M0 at t >= S_DIRECT and from F(t) - H(t) below it, and
F(S_DIRECT) is H(S_DIRECT) + T(S_DIRECT).

The sweep is exact integer fixed point: F(t) is held as an integer X with
|X 2^-B - F(t)| <= err(t), B = _MP_DPS digits plus _GUARD_BITS.  C(-s,i)
is an exact integer and q^-i an exact floor division, so each floor
costs under one unit 2^-B.  err(s) is the sum of those units (the head,
c_0 H(s) and the series), the propagated sum_i |C(-s,i) c_i| q^-i
err_T(s+i), and the truncation bound of _ladder_extent, each over
q^s - c_0.  ``dirichlet_fixed`` hands out (X, B, err) with err times a
further safety factor of 4.

Most of a sweep depends on no pattern: the floors of 2^B / n^t of the
direct sums (n from M0) and of H(t) (n < M0), the head floors of
2^B q^t / n^t (n < q M0), the extent of each order and the binomials
|C(-t, i)| up to it.  Pure functions build them at the first sweep that
reads them and keep them for the process (``functools.cache``: the
``_floors`` and ``_direct_row`` rows, ``_extent`` and ``_binomials``),
keyed on what may vary: B, q, t and the range of n, whose end follows
the target _MP_EPS for a direct sum, for an extent q^t - c_0 and the
target, and for the binomials t and the extent.  No row forms a power
whose floors its bit length shows to be 0.  A sweep itself takes the
moments c_0..c_I from ``sequences.block_moments`` (its m = 1 row),
forms the signed sums of the rows over its pattern's signs and runs the
moment series.  Each memo and shortcut pays for itself (medians, 2-core x86-64, Python 3.11): the builtin
catalog's 14 sweeps (13 patterns and zeta's) take 5.8 ms with the memos
cold and 3.5 ms warm; a direct-sum row above the lowest order of its sum
is the row below it divided by n (``_direct_row``), which saves 0.15 ms
of the cold 5.8; ``_binomials`` holds a warm sweep at 250 us, 300 us
without it; and dividing by q^i with a shift where q is a power of two
takes such a warm sweep from 245 us to 220 us.  Nothing is built at import.

The result stays in fixed point.  The accelerated evaluator multiplies
X by exact expansion coefficients that grow geometrically, in integers;
binary64 intermediate values would silently lose the product's tail.
``dirichlet_value`` rounds X 2^-B straight to binary64, and only
``dirichlet_mp`` and ``zeta_mp`` build an mpf from it (at _MP_DPS digits,
which adds one relative rounding to their error), importing mpmath on
demand.  numpy is imported only by the partial-summation oracle
``dirichlet_direct``.  ``DirichletCache`` memoizes the triples (X, B, err)
under the pattern's gtm spec for as long as the cache object lives; nothing
is written to disk, since a sweep of a catalog pattern costs 0.6-1.0 ms
with none of the rows above built, 0.2-0.4 ms with them (2-core x86-64,
Python 3.11).  It also keeps
one ``SeriesRecord`` per (pattern, weight mode), the owner of the
accelerated evaluator's series: it holds the MAX_J orders of G_j =
sum_n w_n n^-j and the exact partial sums of w_n n^-j at every N asked so
far, hands out the weights, chooses and charges the orders J of a term,
and forms the series in fixed point.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from itertools import compress, islice, repeat

from .ratfun import _ROUND_UP
from .sequences import (
    MultiplicativeSequence,
    _as_int,
    block_moments,
    delta_prefix,
    make_sequence,
    sign_prefix,
)

S_DIRECT = 16
MAX_J = 16  # the orders of a SeriesRecord; <= S_DIRECT, so one ladder sweep fills them
MAX_N = 1_000_000  # the most head terms of a product; a SeriesRecord's charge counts on it
_MP_DPS = 40
_MP_EPS = 1e-30
_GUARD_BITS = 32  # fixed-point bits beyond _MP_DPS digits
_BITS = math.ceil(_MP_DPS * math.log2(10)) + _GUARD_BITS  # the fixed point's B
_M0 = 8  # the sweep expands (qm + k)^-s binomially only for m >= _M0
_T_MAX = 1023 // (_M0.bit_length() - 1)  # the largest t with _M0**t (a power of two) in binary64
_ROW = 256  # dirichlet_direct sums rows of this many terms, then fsums the rows


class EpsUnachievableError(ArithmeticError):
    """Requested accuracy cannot be certified within the configured caps."""


def check_eps(value: float, name: str = "eps") -> float:
    """value if it is a positive finite number; ValueError otherwise (NaN too)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


class DirichletCache:
    """In-memory memo of the ladder's fixed-point triples and the series records.

    An entry maps (seqspec, s) to (X, bits, err), |X 2^-bits - F(s)| <= err,
    before the x4 factor of ``dirichlet_fixed``; seqspec is the pattern's
    ``gtm_spec``, which all of its names share.  The memo lives as long as
    the cache object: a fresh cache starts cold.

    ``series_record`` hands out the ``SeriesRecord`` of a (seqspec, mode),
    built from the memo on first use.  Each holds one entry of MAX_J ints
    for each distinct N it was asked for.
    """

    def __init__(self):
        self._mp: dict[tuple[str, int], tuple[int, int, float]] = {}
        self._records: dict[tuple[str, str], SeriesRecord] = {}
        self._lock = threading.Lock()

    def mp_lookup(self, spec: str, s: int):
        with self._lock:
            return self._mp.get((spec, s))

    def mp_store(self, spec: str, s: int, x: int, bits: int, err: float):
        with self._lock:
            self._mp[(spec, s)] = (x, bits, err)

    def series_record(self, seq: MultiplicativeSequence, mode: str) -> SeriesRecord:
        """The record of seq's weights in mode 'delta' or 'theta', built on
        first use outside the lock (``dirichlet_fixed`` takes it); of two
        builds at once, the first published wins."""
        key = (seq.gtm_spec, mode)
        with self._lock:
            record = self._records.get(key)
        if record is None:
            record = SeriesRecord(seq, mode, self)
            with self._lock:
                record = self._records.setdefault(key, record)
        return record


def _moment_bound(q: int, i: int) -> float:
    """Bound on q^-i |c_i|: |c_i| <= (q-1)^(i+1), so ((q-1)/q)^i (q-1).

    Formed from the ratio so that it stays inside binary64 range where
    q^-i alone underflows and (q-1)^(i+1) alone overflows.
    """
    return ((q - 1) / q) ** i * (q - 1)


def _ladder_extent(q: int, s: int, denom: int) -> tuple[int, float]:
    """Last index I of the ladder sum for F(s), and a bound on what follows.

    The i-th term over ``denom`` = q^s - c_0 is |C(-s,i) c_i| q^-i |T(s+i)|
    / denom <= b_i / denom, with |c_i| <= (q-1)^(i+1), |T(t)| <= M0^-t
    (1 + M0/(t-1)) (the sum from M0 against the integral past it), so
    b_i = |C(-s,i)| _moment_bound(q, i) M0^-(s+i) (1 + M0/(s+i-1)).  The
    ratio b_{i+1}/b_i is below r(i) = (s+i)/(i+1) (q-1)/(q M0), which falls
    with i, so once r(I) < 1 the terms after I sum to at most
    b_I r(I) / (1 - r(I)) / denom.

    I is the first i >= 1 with r(i) < 1 and b_i / denom, evaluated as one
    float expression, under the target.  That predicate flips once: it is
    false below the first i0 with r(i0) < 1 (r and its float value fall
    with i, for s >= 1), and past i0 each step multiplies the true bound by
    less than r(i) <= 1 - 1/(q M0 (i+1)), about 2.3e-5 (1/43648) below 1
    for i <= _T_MAX - 1 = 340 and q <= 16, while the expression is good to
    a few ulps of a normal binary64.  So ``_extent`` bisects for it and
    returns the index, and the bound at it, that a scan from i = 1
    returns.  No i past _T_MAX - s is tried (M0^(s+i) must stay in
    binary64); past it the series is refused.
    """
    return _extent(q, s, denom, _MP_EPS / 10.0)


@functools.cache
def _extent(q: int, s: int, denom: int, target: float) -> tuple[int, float]:
    """``_ladder_extent`` for the bound target on the last term, kept for
    the process.  No probe goes more than 32 past the last miss, since the
    extents at the ladder's target are 6-34."""
    limit = _T_MAX - s
    lo, hi, last = 0, limit + 1, None  # not found at lo, found at hi (or hi > limit)
    while hi - lo > 1:
        i = min((lo + hi) // 2, lo + 32)
        t = s + i
        r = t / (i + 1) * (q - 1) / (q * _M0)
        b = math.comb(t - 1, i) * _moment_bound(q, i) * (1.0 + _M0 / (t - 1)) / _M0**t / denom
        if r < 1.0 and b < target:  # found: r(i) < 1 and b_i / denom < target
            hi, last = i, (r, b)
        else:
            lo = i
    if last is None:
        raise EpsUnachievableError(f"ladder series did not converge by i={limit}")
    r, b = last
    return hi, b * r / (1.0 - r) * _ROUND_UP


def _direct_terms(t: int) -> int:
    """Terms summed directly for F(t), t >= 2: the tail N^(1-t)/(t-1) is below _MP_EPS/10.

    A t past binary64's range takes 4 terms, whose tail is below 4^(1-t)."""
    target = _MP_EPS / 10.0
    try:
        return max(4, int(math.ceil((10.0 / (target * (t - 1))) ** (1.0 / (t - 1)))))
    except OverflowError:  # float(t - 1)
        return 4


def _direct_err(t: int, n_max: int, floors: int, bits: int) -> float:
    """Error of a fixed-point sum of delta_n n^-t up to n_max: its floors and the tail past n_max.

    For a t past binary64's range the tail, below 2^(1-t), is charged 0:
    _ROUND_UP covers it, as floors >= 1 (n_max >= 2) charges at least 2^-bits."""
    try:
        tail = float(n_max) ** (1 - t) / (t - 1)
    except OverflowError:  # float(1 - t)
        tail = 0.0
    return (math.ldexp(floors, -bits) + tail) * _ROUND_UP


@functools.cache
def _floors(bits: int, q: int, t: int, lo: int, hi: int) -> tuple[int, tuple[int, ...], int]:
    """(lo, floors, total): floor(2^bits q^t / n^t) for n = lo..hi, and their sum.

    A row depends on no pattern, so it is built at the first sweep that
    reads it and kept for the process; the key holds every value it reads.
    The row ends before the first n whose floor bit lengths alone show to
    be 0: from n = 2^ceil(len(num)/t) on, n^t >= 2^len(num) > num.  So a
    large t forms no large power.
    """
    num = (1 << bits) * q**t
    end = min(hi, (1 << -(-num.bit_length() // t)) - 1)
    floors = tuple(map(num.__floordiv__, map(pow, range(lo, end + 1), repeat(t))))
    return lo, floors, sum(floors)


@functools.cache
def _direct_row(bits: int, t: int, lo: int, first: int, eps: float):
    """(row, err) of a direct sum of order t from lo: the q = 1 ``_floors``
    row over n = lo..max(lo, _direct_terms(t)) at _MP_EPS = eps (the key
    holds what _direct_terms reads), and the sum's ``_direct_err``.  The row
    is built as such at t = first; above it, it is the row of order t - 1,
    whose range is no shorter, cut to this range and divided by n:
    floor(floor(a/b)/c) = floor(a/(bc)).
    """
    hi = max(lo, _direct_terms(t))
    err = _direct_err(t, hi, hi + 1 - max(lo, 2), bits)
    if t == first:
        return _floors(bits, 1, t, lo, hi), err
    (_, lower, _), _ = _direct_row(bits, t - 1, lo, first, eps)
    floors = tuple(map(operator.floordiv, lower[:hi + 1 - lo], range(lo, hi + 1)))
    return (lo, floors, sum(floors)), err


def _signed_sum(plus: list[bool], row) -> int:
    """sum_n delta_n f_n over a ``_floors`` row, where plus[n] is delta_n = 1."""
    lo, floors, total = row
    return 2 * sum(compress(floors, islice(plus, lo, None))) - total


def _plus(seq: MultiplicativeSequence, length: int) -> list[bool]:
    """[delta_n = 1 for n < length], the signs ``_signed_sum`` reads."""
    return [s > 0 for s in sign_prefix(seq, length)]


def _direct_fixed(seq: MultiplicativeSequence, orders: range, bits: int, start: int = 1,
                  plus: list[bool] | None = None) -> dict[int, tuple[int, float]]:
    """Fixed-point sum_{n>=start} delta_n n^-t for each t in ``orders`` (all >= 2).

    Each floor of 2^bits / n^t loses less than one unit (n = 1 is exact);
    one sign prefix, as long as the lowest order needs (``plus``, when the
    caller has it), serves every order.
    """
    if plus is None:
        plus = _plus(seq, max(start, _direct_terms(orders[0])) + 1)
    out = {}
    for t in orders:
        row, err = _direct_row(bits, t, start, orders[0], _MP_EPS)
        out[t] = (_signed_sum(plus, row), err)
    return out


@functools.cache
def _binomials(t: int, n: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """|C(-t, i)| = C(t + i - 1, i) for i = 0..n, as ints and as floats, kept
    for the process."""
    sizes = tuple(map(math.comb, range(t - 1, t + n), range(n + 1)))
    return sizes, tuple(map(float, sizes))


def _ladder_fixed(seq: MultiplicativeSequence, bits: int) -> dict[int, tuple[int, float]]:
    """Fixed-point F(t) for every t from the lowest order up to S_DIRECT.

    F(S_DIRECT) is H(S_DIRECT) plus the direct sum of T(S_DIRECT) from M0,
    the same sum and the same accounting as a direct sum from n = 1.  The
    lower orders are computed top down by the shifted equation, so every
    T(t+i) exists when F(t) needs it: a direct sum from M0 for
    t + i >= S_DIRECT, F(t+i) - H(t+i) below, whose error is err(t+i)
    plus the M0 - 2 floors of H.  F(t) takes q M0 - 2 floors for the head
    sum_{n<q M0} delta_n (q/n)^t and |c_0| (M0 - 2) for c_0 H(t) (n = 1
    and m = 1 are exact), one per series term and one for the division
    by q^t - c_0.
    """
    q = seq.q
    c0 = sum(seq.signs)  # c_0
    levels = range(S_DIRECT - 1, 0 if seq.nontrivial else 1, -1)
    extents = {t: _ladder_extent(q, t, q**t - c0) for t in levels}
    top = max(t + n_terms for t, (n_terms, _) in extents.items())
    n_top = _direct_terms(S_DIRECT)
    plus = _plus(seq, max(q * _M0, n_top + 1))  # the head's n < q M0 and the direct sums'
    tails = _direct_fixed(seq, range(S_DIRECT, top + 1), bits, _M0, plus)

    i_max = max(n_terms for n_terms, _ in extents.values())
    moments = block_moments(seq.signs, 1, 0, i_max)  # c_0..c_i_max
    # C(-t, i) c_i = |C(-t, i)| (-1)^i c_i
    signed = [-c if i % 2 else c for i, c in enumerate(moments)]
    q_pows = [q**i for i in range(i_max + 1)]
    moment_sizes = [abs(c) / qi for c, qi in zip(moments, q_pows)]  # |c_i| q^-i
    shift = q.bit_length() - 1 if q & (q - 1) == 0 else 0  # q = 2^shift: // q^i is >> shift i
    head_units = q * _M0 - 2 + abs(c0) * (_M0 - 2)
    h_top = _signed_sum(plus, _floors(bits, 1, S_DIRECT, 1, _M0 - 1))
    known = {S_DIRECT: (h_top + tails[S_DIRECT][0],
                        _direct_err(S_DIRECT, n_top, n_top - 1, bits))}
    for t in levels:
        n_terms, trunc = extents[t]
        binoms, binom_floats = _binomials(t, n_terms)  # |C(-t, i)| as ints and floats
        denom = q**t - c0  # > 0: c_0 <= q, with equality only for the all-plus pattern
        h = _signed_sum(plus, _floors(bits, 1, t, 1, _M0 - 1))  # 2^bits H(t)
        acc = _signed_sum(plus, _floors(bits, q, t, 1, q * _M0 - 1)) - c0 * h
        units = head_units
        carried = 0.0
        for i in range(1, n_terms + 1):
            if signed[i]:
                x, e = tails[t + i]
                term = binoms[i] * signed[i] * x
                acc += term >> shift * i if shift else term // q_pows[i]
                carried += binom_floats[i] * moment_sizes[i] * e
                units += 1
        # F(t) = (head - c_0 H(t) + sum_i C(-t,i) c_i q^-i T(t+i)) / (q^t - c_0)
        x = acc // denom
        err = (math.ldexp(1.0 + units / denom, -bits) + carried / denom + trunc) * _ROUND_UP
        known[t] = (x, err)
        tails[t] = (x - h, err + math.ldexp(_M0 - 2, -bits))
    return known


def dirichlet_fixed(seq: MultiplicativeSequence, s: int,
                    cache: DirichletCache | None = None) -> tuple[int, int, float]:
    """F(s) in fixed point: (X, bits, err) with |X 2^-bits - F(s)| <= err.

    err carries a x4 safety factor over the accounted error.  A miss at or
    below S_DIRECT sweeps the whole ladder of the sequence into the cache's
    memo; a miss above it sums F(s) directly.  s must be an int (a bool or a
    float is a TypeError).
    """
    if _as_int(s, "s") < 1:
        raise ValueError("s must be a positive integer")
    if not seq.nontrivial and s < 2:
        raise ValueError("the all-plus pattern needs s >= 2 (zeta pole at s=1)")
    if cache is None:
        cache = DirichletCache()
    hit = cache.mp_lookup(seq.gtm_spec, s)
    if hit is None:
        if s > S_DIRECT:
            fixed = _direct_fixed(seq, range(s, s + 1), _BITS)
        else:
            fixed = _ladder_fixed(seq, _BITS)
        for t, (x, e) in fixed.items():
            cache.mp_store(seq.gtm_spec, t, x, _BITS, e)
        hit = (fixed[s][0], _BITS, fixed[s][1])
    x, bits, err = hit
    return x, bits, 4.0 * err  # a x4 safety factor over the accounted error


_ALL_PLUS = make_sequence("gtm", 2, bits="0")


def zeta_fixed(s: int, cache: DirichletCache | None = None) -> tuple[int, int, float]:
    """zeta(s) for integer s >= 2 in fixed point, through the all-plus ladder."""
    return dirichlet_fixed(_ALL_PLUS, s, cache)


class SeriesRecord:
    """The Dirichlet series of one weight sequence w_n in {-1, 0, 1}: a
    pattern's delta_n (mode 'delta') or theta_n = (1 - delta_n)/2 ('theta').

    ``orders`` holds the (X_j, B, err_j) of G_j = sum_{n>=1} w_n n^-j for j =
    1..MAX_J, as ``dirichlet_fixed`` hands it out, with one B for all: G_j =
    F(j) for delta, and for theta G_j = (zeta(j) - F(j))/2, which is zeta - F
    at one bit more, with the mean of the two errors.  It is None at j = 1
    for theta, where zeta has its pole (a theta product has beta_1 = 0).

    The record forms the evaluator's series sum_j beta_j T_j, with T_j =
    sum_{n>N} w_n n^-j, N < MAX_N and beta_j = p_j/r_j.  T_j 2^B is X_j less
    the exact sum S_j(N) = sum_{0<n<=N} w_n floor(2^B / n^j).  Each floor
    loses less than one unit 2^-B (n = 1 is exact), so T_j is off by err_j
    plus fewer than MAX_N units 2^-B.  The series is sum_j floor(p_j T_j 2^B
    / r_j) 2^-B, which loses less than one more unit per order.  So ``fit``
    charges each order |beta_j| (err_j + MAX_N 2^-B) + 2^-B, and ``series``
    rounds the fixed-point sum to binary64 once more.

    S_j(N) is kept for every N asked, one signed entry of MAX_J ints each,
    in a dict keyed on N.  A new N extends the sums of the largest N below
    it, so the loop over n runs only up to the largest N asked.  The lock is
    the cache's: new sums are built outside it and published under it, and
    never change after.
    """

    def __init__(self, seq: MultiplicativeSequence, mode: str, cache: DirichletCache):
        if mode not in ("delta", "theta"):
            raise ValueError(f"mode must be 'delta' or 'theta', got {mode!r}")
        orders = [None] if mode == "theta" else []
        for j in range(len(orders) + 1, MAX_J + 1):
            x, bits, e = dirichlet_fixed(seq, j, cache)
            if mode == "theta":
                z, _, ze = zeta_fixed(j, cache)
                x, bits, e = z - x, bits + 1, (ze + e) / 2
            orders.append((x, bits, e))
        self.orders, self.bits = tuple(orders), bits
        self._seq, self._theta = seq, mode == "theta"
        self._lock = cache._lock
        self._sums = {0: (0,) * MAX_J}  # N -> (S_1(N), ..., S_MAX_J(N))

    def weights(self, N: int) -> list[int]:
        """w_0..w_N."""
        w = sign_prefix(self._seq, N + 1)
        return [(1 - s) // 2 for s in w] if self._theta else w

    def fit(self, pairs, budget: float):
        """(J, orders, err, over) for the (p_j, r_j, |beta_j|) of a term's
        ``log_pairs``: J is the most orders whose charges fit in budget,
        orders holds (j, p_j, r_j) for each nonzero beta_j = p_j/r_j up to J,
        err is the sum of their charges, and over is the charge of order J +
        1, the one that did not fit (0.0 if every order fit)."""
        J, orders, err = 0, [], 0.0
        max_n_units, unit = math.ldexp(MAX_N, -self.bits), math.ldexp(1.0, -self.bits)
        for j, ((p, r, mag), g) in enumerate(zip(pairs, self.orders), start=1):
            if p:
                charge = mag * (g[2] + max_n_units) + unit
                if err + charge > budget:
                    return J, orders, err, charge
                err += charge
                orders.append((j, p, r))
            J = j
        return J, orders, err, 0.0

    def series(self, orders, w) -> float:
        """sum_j beta_j T_j over the orders of ``fit``, for w = w_0..w_N,
        summed in fixed point and rounded to binary64 once."""
        if not orders:
            return 0.0
        tails = self.tails(w)
        return sum(p * tails[j - 1] // r for j, p, r in orders) / (1 << self.bits)

    def tails(self, w) -> list[int | None]:
        """T_j 2^B = X_j - S_j(N) for j = 1..MAX_J and w = w_0..w_N; None where
        X_j is.  One pass over n builds every j, as floor(floor(2^B /
        n^(j-1)) / n) = floor(2^B / n^j)."""
        n_top = len(w) - 1
        with self._lock:  # an exact hit, or the largest N below to extend
            low = n_top if n_top in self._sums else max(n for n in self._sums if n < n_top)
            sums = self._sums[low]
        if low < n_top:
            acc, one = list(sums), 1 << self.bits
            for n in range(low + 1, n_top + 1):
                if w[n] > 0:
                    x = one
                    for j in range(MAX_J):
                        x //= n
                        acc[j] += x
                elif w[n]:
                    x = one
                    for j in range(MAX_J):
                        x //= n
                        acc[j] -= x
            with self._lock:
                sums = self._sums.setdefault(n_top, tuple(acc))
        return [None if g is None else g[0] - s for g, s in zip(self.orders, sums)]


def dirichlet_mp(seq: MultiplicativeSequence, s: int,
                 cache: DirichletCache | None = None):
    """F(s) as an mpmath mpf at _MP_DPS digits, with its certified error.

    The one rounding of X 2^-bits adds a relative ulp of the value to the
    error of dirichlet_fixed (the x4 factor applies to it too)."""
    import mpmath as mp

    x, bits, err = dirichlet_fixed(seq, s, cache)
    with mp.workdps(_MP_DPS):
        value = mp.mpf((x, -bits))
        rel = math.ldexp(1.0, 1 - mp.mp.prec)
    return value, err + 4.0 * abs(float(value)) * rel


def zeta_mp(s: int, cache: DirichletCache | None = None):
    """zeta(s) for integer s >= 2 through the all-plus ladder, as an mpf."""
    return dirichlet_mp(_ALL_PLUS, s, cache)


def dirichlet_value(seq: MultiplicativeSequence, s: int, eps: float = 1e-15,
                    cache: DirichletCache | None = None) -> tuple[float, float]:
    """Binary64 F(s) with certified eps_achieved <= eps.

    X 2^-bits is rounded once, correctly, to binary64: half an ulp, which
    the 2^-52 |value| term covers."""
    check_eps(eps)
    x, bits, err = dirichlet_fixed(seq, s, cache)
    value = x / (1 << bits)
    eps_achieved = err + abs(value) * 2.0**-52 + 5e-324
    if eps_achieved > eps:
        raise EpsUnachievableError(
            f"achieved eps {eps_achieved:g} exceeds requested {eps:g}")
    return value, eps_achieved


def _pattern_delta_bound(seq: MultiplicativeSequence):
    """Per-pattern bound |Delta_n| <= b1 * n^alpha + b0 (valid for n >= 1).

    From |Delta_{s q^k + t}| <= A D^k + M_k with D = |Delta_q| and
    A = max_{s<q} |Delta_s|: geometric growth when D >= 2, additive in the
    digit count when D <= 1 (covered by a generous constant).
    """
    A = max(abs(x) for x in seq.prefix_sums[: seq.q])
    A = max(A, 1)
    D = abs(seq.delta_q)
    if D >= 2:
        alpha = math.log(D) / math.log(seq.q)
        b1 = 1 + A * D / (D - 1)
        return float(b1), alpha, 0.0

    def log_bound(n: float) -> float:
        return 1 + A * (math.log(max(n, 1.0)) / math.log(seq.q) + 1)

    return None, 0.0, log_bound


def dirichlet_direct(seq: MultiplicativeSequence, s: int, N: int) -> tuple[float, float]:
    """Partial-summation oracle: plain sum to N plus the Abel boundary term.

    Rewriting the tail through Delta gives
    F - F_N = -Delta_{N+1} (N+1)^-s + sum_{n>N+1} Delta_n ((n-1)^-s - n^-s),
    so the returned value applies the boundary correction and the error
    estimate integrates the Delta-bound against s n^-(s+1).  s and N must
    be ints (a bool or a float is a TypeError); an s past binary64's range
    gives delta_1, as F(s) - delta_1 is below 2^(1-s).
    """
    if _as_int(s, "s") < 1:
        raise ValueError("s must be a positive integer")
    if _as_int(N, "N") < 4:
        raise ValueError("N must be at least 4")
    try:
        power = -float(s)
    except OverflowError:
        return float(seq.signs[1]), 5e-324
    import numpy as np

    signs = delta_prefix(seq, N + 1)
    terms = np.arange(1, N + 1, dtype=np.float64)
    np.power(terms, power, out=terms)
    terms *= signs[1:]  # exact: the signs are +-1
    whole = N - N % _ROW
    rows = terms[:whole].reshape(-1, _ROW).sum(axis=1)
    partial = math.fsum(rows.tolist() + terms[whole:].tolist())
    delta_next = int(signs.sum())  # exact: an integer below 2^53
    boundary = delta_next * float(N + 1) ** (-s)
    value = partial - boundary

    b1, alpha, log_bound = _pattern_delta_bound(seq)
    if b1 is not None:
        # sum_{n>N} b1 n^(alpha-s-1) * s <= s*b1*N^(alpha-s)/(s-alpha) + edge
        err = s * b1 * (N ** (alpha - s)) / (s - alpha) + b1 * N ** (alpha - s - 1)
    else:
        bound_at = log_bound(4.0 * N)
        err = s * bound_at * (N ** (-s)) / s + bound_at * N ** (-s - 1)
        err += bound_at * N ** (-s)  # slack for the slowly growing log factor
    # Rounding, worst case, with u = 2^-53.  Each n^-s is good to 4 ulps, so
    # off by 8u n^-s, and its sign multiplies it exactly; sum_{n<=N} n^-s <=
    # A = 1 + ln N for s = 1 and 1 + 1/(s - 1) for s >= 2.  A row of _ROW
    # terms summed in any order is off by gamma_(_ROW-1) times its absolute
    # sum (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    # 4.2), and fsum rounds the exact sum of the rows once: u |partial|.  The
    # boundary term takes a pow and a product, 9u |boundary|, and the
    # difference u |value|.  (_ROW + 8) A and 10 |boundary| cover the
    # second-order terms, _ROUND_UP the rounding of this bound.
    A = 1.0 + (math.log(N) if s == 1 else 1.0 / (s - 1))
    err_round = 2.0**-53 * _ROUND_UP * (
        (_ROW + 8) * A + abs(partial) + 10.0 * abs(boundary) + abs(value))
    err = 2.0 * err + err_round + 1e-16 * abs(value)
    return value, err
