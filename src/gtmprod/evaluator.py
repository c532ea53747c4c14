"""Certified evaluation of sign-weighted infinite products of rational terms.

``check_product`` decides every precondition of a product exactly from
the term's factors (see ``ratfun``): zeros and poles, the convergence
criteria, and positivity of R(n) for every n >= start.  For a product
term R with weights w_n = delta_n or theta_n = (1 - delta_n)/2 the
accelerated evaluator writes

    log P = head + sum_j beta_j * T_j + tail,

where the head is sum_{start<=n<=N} w_n ln R(n), beta_j are the exact
coefficients of ln R(n) in powers of 1/n (a closed form in the factors'
offsets), T_j is the Dirichlet tail sum_{n>N} w_n n^-j (F(j) from the
ladder, or (zeta(j) - F(j))/2 for theta, less the terms up to N), and the
tail sum_{n>N} w_n rho_J(n), with rho_J(n) = ln R(n) - sum_{j<=J} beta_j
n^-j, is bounded, not summed.  Both sums are exact until one rounding:
R(n) is a quotient of integer products (``ratfun.value_pairs``), so the
head is one log per run of exact products (``_head_logs``), and sum_j
beta_j T_j is formed in the ladder's integer fixed point.  T_j depends on
the pattern, the mode and N alone, not on R, so the series belongs to the
cache's record of the pattern's weights (``dirichlet.SeriesRecord``): it
holds G_j = sum_{n>=1} w_n n^-j and the exact partial sums at every N
asked so far, which ops on one pattern share, hands out w_0..w_N, picks
J and charges it, and forms the series; its docstring derives the charge.
Past the series cutoff M the pairing of beta_j and T_j is free of the
cancellation that ruins the naive split at n = 1.  (J, N) are read off
eps in one step: J is the most orders whose Dirichlet and fixed-point
errors fit in eps/4 (``SeriesRecord.fit``), and N >= 4M the fewest terms
whose proven bound on the tail, from the form prod (n + c)^E, fits in
eps/4.  The rest of the certificate is a worst-case rounding bound of a
few ulps.  The term's one integer form K' prod (n + m/L)^E and its 1/n
expansion are plain ints (see ``ratfun``), computed once per term, and
feed the check, the series, the head and the tail bound; no ``Fraction``
is built on the way.  The self-similarity builders ``build_scaling_term``
and ``build_gamma_ratio_term`` work in ints too: the parameters over one
common denominator D, the base-q step's offsets (b + kD)/D, and each Gamma
argument of the right-hand side one int division; the only ``Fraction``
they build is the exact right-hand side ``build_scaling_term`` returns.
The plain series uses zeta from the all-plus ladder rather than the Gamma
closed form, so closed forms remain an independent cross-check.

The accelerated path runs on Python ints and floats, with its signs from
the record's ``weights``.  In this module numpy is imported only by the
baseline ``evaluate_direct``, and mpmath not at all.

The baseline evaluator sums the terms, averages the partial log-sums over
the final base-q block, and estimates its error from the spread of the
last few block-boundary partial sums; that estimate is not a proof.  It
reads no Dirichlet constant, ladder or 1/n expansion at infinity, so it
stays independent of the accelerated path.  It sums a short prefix term by
term, in chunks of at most 2^17 terms whose signs come from one prefix of
the sequence (delta over [kB, (k+1)B) is delta_k times delta over [0, B)),
and cuts each later level [q^j, q^(j+1)) into a fixed number of blocks of
q^(j-c) terms, so its cost and memory grow with log N, not N; fl_round is
a proven bound on the rounding, and on the truncation below, of every sum
it returns.  Below the roots it takes ln R(n) of the exact R(n) of
``ratfun.value_pairs``, as the accelerated head does.  Past the roots it
takes w_n ln R(n) as one log1p per distinct numerator/denominator pair (a,
b) of R(n) = prod (n + a)/(n + b) (``_log1p_pairs``), times the number of
times the pair occurs, with the weight folded into the argument: with d = a
- b, w_n log1p(d/(n + b)) is log1p(d/(n + b)), log1p(-d/(n + a)) or 0 for
w_n = 1, -1 or 0, since -ln(1 + d/(n + b)) = ln(1 - d/(n + a)).  A term
costs one add, one divide and one log1p per distinct pair, and no pass
over the chunk applies weights.  A level's blocks lie past the roots with
their half-widths at most 1/_MOMENT_SPAN of their distance to the nearest
root (``_block_plan``; a block too near a root is cut into its q
sub-blocks), and each is summed without forming its terms
(``_moment_blocks``): ln R is smooth across it while the signs stay
q-multiplicative, so its sum is a short series in the exact sign moments of
its length (``_block_moments``, one memoized digit recursion for all
lengths), one vector pass per order and distinct pair over the blocks of
all levels at once.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .dirichlet import (
    _ROUND_UP,
    MAX_J,
    MAX_N,
    DirichletCache,
    EpsUnachievableError,
    check_eps,
)
from .ratfun import (
    FactorList,
    ProductCheck,
    _as_int,
    _fraction,
    as_pair,
    factored_convergence,
    factored_zeros_poles,
    first_non_positive,
    over_common_denominator,
    value_pairs,
)
from .sequences import FrozenValue, MultiplicativeSequence, delta_prefix, sign_at

if TYPE_CHECKING:
    from fractions import Fraction

_HEAD_RUN = 64  # the most terms whose exact product is rounded at once
_HEAD_BITS = 1 << 16  # bits of a run's numerator; catalog, family and pinned runs stay below 2^15


class ProductRejectedError(ValueError):
    """The product spec fails a convergence or well-definedness criterion."""

    def __init__(self, reason: str):
        super().__init__(f"rejected: {reason}")
        self.reason = reason


class ProductSpec(FrozenValue):
    """An infinite product: sequence, exponent mode, start index (an int, not
    a bool), and term."""

    _fields = ("seq", "mode", "start", "term")

    def __init__(self, seq: MultiplicativeSequence, mode: str, start: int, term: FactorList):
        if mode not in ("delta", "theta"):
            raise ValueError(f"mode must be 'delta' or 'theta', got {mode!r}")
        _as_int(start, "start")
        self._set(seq, mode, start, term)

    @cached_property
    def verdict(self) -> ProductCheck:
        """``check_product`` of this spec, decided once: a spec is immutable."""
        return check_product(self)


class EvalResult(NamedTuple):
    value: float
    log_value: float
    est_error: float
    method: str
    terms_used: int
    dirichlet_orders: int


def check_product(spec: ProductSpec) -> ProductCheck:
    """Enforce every ProductSpec invariant, reporting the first violation.

    Every decision is exact and read off the term's factors; positivity is
    decided for every n >= start, not sampled.
    """
    if not spec.seq.nontrivial:
        return ProductCheck(False, "trivial-pattern")
    if spec.start not in (0, 1):
        return ProductCheck(False, "start-out-of-range")
    offenders = factored_zeros_poles(spec.term, spec.start)
    if offenders:
        return ProductCheck(False, f"zero-or-pole at n={offenders[0]}")
    verdict = factored_convergence(spec.term, spec.mode)
    if not verdict:
        return verdict
    n = first_non_positive(spec.term, spec.start)
    if n is not None:
        return ProductCheck(False, f"non-positive-term at n={n}")
    return ProductCheck(True)


def _require_ok(spec: ProductSpec):
    if not spec.verdict:
        raise ProductRejectedError(spec.verdict.reason)


def _series_cutoff(term: FactorList) -> int:
    """First index where the 1/n expansion terms are uniformly below 2^-j:
    ceil(2 max(1, |c|)) + 1 over the roots -c with E != 0, read exactly off
    the integer form, so a root past binary64 gives a cutoff past MAX_N."""
    _, L, offsets = term.integer_form
    top = max((abs(m) for m, e in offsets if e), default=0)
    return -(-2 * max(L, top) // L) + 1


def _tail_bound(offsets, J: int, N: int) -> float:
    """Bound on sum_{n>N} |rho_J(n)| from the (|c|, |E|) of the integer form
    prod (n + c)^E, for N >= 2|c|.

    ln R(n) = sum E ln(1 + c/n), and ln(1 + x) less its first J terms is at
    most |x|^(J+1)/((J+1)(1 - |x|)), so |rho_J(n)| <= sum |E| |c|^(J+1) /
    ((J+1) n^J (n - |c|)).  For n > N, n/(n - |c|) <= (N+1)/(N+1-|c|) and
    sum_{n>N} n^-(J+1) <= N^-J / J.
    """
    return _ROUND_UP * sum(e * c * (c / N) ** J * (N + 1) / ((N + 1 - c) * (J + 1) * J)
                           for c, e in offsets)


def _log_quotient(num: int, den: int) -> float:
    """ln(num/den) for a positive quotient of ints, num/den rounded once.  A
    quotient that may leave binary64's normal range, 2^(k-1) < num/den <
    2^(k+1) with k outside [-1021, 1022], is first scaled exactly by 2^-k,
    into (1/2, 2], and k ln 2 is added back."""
    k = num.bit_length() - den.bit_length()
    if -1021 <= k <= 1022:
        return math.log(num / den)
    x = num / (den << k) if k > 0 else (num << -k) / den
    return math.log(x) + k * math.log(2.0)


def _head_logs(term: FactorList, start: int, w) -> list[float]:
    """sum_{start<=n<=N} w_n ln R(n) for w = w_0..w_N, as one log per run of
    at most _HEAD_RUN indices, each of the run's exact product rounded to
    binary64 once.  A run also ends before its quotient leaves (2^-961,
    2^961), inside binary64's normal range, and before its numerator
    passes _HEAD_BITS bits, which keeps huge exponents from building
    million-bit products; a single term outside either is taken alone, and
    scaled by ``_log_quotient`` if it needs to be.

    A checked term has K' = 1 and sum E = 0, so R(n) = P/Q is the quotient
    of integer products of ``value_pairs``.
    """
    logs, num, den, size = [], 1, 1, 0
    ns = [n for n in range(start, len(w)) if w[n]]
    for n, (p, q) in zip(ns, value_pairs(term, ns)):
        if w[n] < 0:
            p, q = q, p
        run_num, run_den = num * p, den * q
        num_bits = run_num.bit_length()  # the quotient test keeps the den within 960 bits
        if size and (size == _HEAD_RUN or num_bits > _HEAD_BITS
                     or abs(num_bits - run_den.bit_length()) > 960):
            logs.append(_log_quotient(num, den))
            run_num, run_den, size = p, q, 0
        num, den, size = run_num, run_den, size + 1
    if size:
        logs.append(_log_quotient(num, den))
    return logs


def _exp(log_value: float) -> float:
    """exp(log_value) rounded to binary64.  Past ln(2^1024) that is inf,
    returned where math.exp raises OverflowError, as it returns 0.0 past
    the underflow threshold."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _accel_components(spec: ProductSpec, eps: float, cache: DirichletCache):
    """(log P, est, N, J) for a checked spec, with (J, N) read off eps."""
    seq, term = spec.seq, spec.term
    M = _series_cutoff(term)
    lo, hi = 4 * M, MAX_N
    refusal = f"eps {eps:g} cannot be certified with N <= {MAX_N}"
    if lo > hi:
        raise EpsUnachievableError(refusal)
    budget = eps / 4.0
    # J: the most orders whose errors fit in eps/4 (the ladder's and the series')
    record = cache.series_record(seq, spec.mode)
    J, orders, series_err = record.fit(term.log_pairs(MAX_J), budget)
    # N: the fewest terms, at least 4M, whose tail bound fits in eps/4.  The
    # bound falls as N grows, and N = 4M fits on most terms, so it is tried first
    _, L, live = term.integer_form
    offsets = [(abs(m) / L, abs(e)) for m, e in live if m and e]
    N = lo
    if J == 0 or _tail_bound(offsets, J, lo) > budget:
        if J == 0 or _tail_bound(offsets, J, hi) > budget:
            # no N up to MAX_N fits.  If all MAX_J orders would fit, it is the
            # Dirichlet constants that fail: order J + 1 was charged past eps/4
            if J == 0 or _tail_bound(offsets, MAX_J, hi) <= budget:
                raise EpsUnachievableError(
                    f"eps {eps:g} is below the accuracy of the Dirichlet constants: "
                    f"order {J + 1} is good to {record.orders[J][2]:.1e}")
            raise EpsUnachievableError(refusal)
        while hi - lo > 1:  # the bound is over budget at lo and within it at hi
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _tail_bound(offsets, J, mid) > budget else (lo, mid)
        N = hi
    w = record.weights(N)
    head = _head_logs(term, spec.start, w)
    series = record.series(orders, w)
    log_value = math.fsum(head + [series])
    # Rounding, with u = 2^-53.  Each head run rounds its exact product once,
    # which moves its log by at most 2u, and takes a log good to 4 ulps: off
    # by <= 2u + 8u|t|.  A run that _log_quotient scales has |k| >= 1022, so
    # |t| > 700: its scaled log, |ln x| <= ln 2, is off by <= 2u + 6u, k ln 2
    # rounds twice, <= 2u(|t| + 1), and the addition once, u|t|; 10u + 3u|t|
    # is within the same bound.  float(series) adds u|series|, and fsum
    # rounds the exact sum once: u|log P|.  _ROUND_UP covers the rounding of
    # this bound.
    fl_round = 2.0**-53 * _ROUND_UP * math.fsum(
        [2 * len(head), 8 * sum(map(abs, head)), abs(series), abs(log_value)])
    return log_value, _tail_bound(offsets, J, N) + series_err + fl_round, N, J


def evaluate_product(spec: ProductSpec, eps: float = 1e-9,
                     cache: DirichletCache | None = None) -> EvalResult:
    """Accelerated evaluation with certified absolute error on the logarithm.

    (J, N) are chosen once from eps: J is the largest order <= MAX_J whose
    Dirichlet and fixed-point errors fit in eps/4, N the smallest N >= 4M whose
    proven tail bound fits in eps/4.  Raises EpsUnachievableError, before
    any summing, if that N would exceed MAX_N, and after it if the rounding
    bound takes the certified error past eps.
    """
    check_eps(eps)
    _require_ok(spec)
    if cache is None:
        cache = DirichletCache()
    log_value, est, n, j = _accel_components(spec, eps, cache)
    if est > eps:
        raise EpsUnachievableError(f"certified error {est:g} exceeds eps {eps:g}")
    return EvalResult(_exp(log_value), log_value, est, "accel", n, j)

DIRECT_N_LIMIT = 2**500  # evaluate_direct's N is below it
_BLOCK_CAP = 1 << 17  # the most terms of an outright chunk, and of moment blocks in one pass
_MOMENT_SPAN = 32  # half-widths from a block to its nearest root, past which its moments sum it


def _top_exponent(q: int, n: int) -> int:
    """Largest K with q^K <= n (n >= 1), in exact integer arithmetic."""
    return next(k for k in range(n.bit_length()) if q ** (k + 1) > n)


def _log1p_pairs(term: FactorList) -> list[tuple[float, float, float, int]]:
    """(a - b, a, b, count) for the distinct pairs (a, b) with R(n) =
    prod_i (n + a_i)/(n + b_i), in the order they first appear: over the
    integer form, c = m/L, the sorted numerator offsets a_i matched with the
    sorted denominator offsets b_i (a checked term has K' = 1), each float
    one correctly rounded int division, and count the times (a, b) occurs."""
    _, L, offsets = term.integer_form
    num = sorted(m for m, e in offsets for _ in range(e))
    den = sorted(m for m, e in offsets for _ in range(-e))
    counts = Counter(zip(num, den))
    return [((a - b) / L, a / L, b / L, c) for (a, b), c in counts.items()]


@lru_cache(maxsize=1024)
def _block_moments(signs: tuple[int, ...], m: int, H: int, top: int) -> tuple[int, ...]:
    """sum_{j<q^m} s_j (j - H)^i for i = 0..top, exactly, where q =
    len(signs) and s_j is the product of signs[d] over the base-q digits d
    of j.  From the moments M' of q^(m-1) about its centre G = q^(m-1)//2:
    j = q j' + d gives j - H = q (j' - G) + t_d, t_d = qG + d - H, so M_i =
    sum_l C(i, l) q^l M'_l c_(i-l) with c_t = sum_d signs[d] t_d^t.  Every
    block length of every call walks this one memoized recursion."""
    if m == 0:
        return tuple((-H) ** i for i in range(top + 1))
    q, G = len(signs), len(signs) ** (m - 1) // 2
    prev = _block_moments(signs, m - 1, G, top)
    c = [sum(s * (q * G + d - H) ** t for d, s in enumerate(signs)) for t in range(top + 1)]
    return tuple(sum(math.comb(i, l) * q**l * prev[l] * c[i - l] for l in range(i + 1))
                 for i in range(top + 1))


@lru_cache(maxsize=256)
def _block_weights(signs: tuple[int, ...], mode: str, top: int, I: int):
    """(table, sigma), read-only arrays for the blocks of length B = q^m, m
    <= top: sigma[m] = 2^e is the largest power of two <= max(H, 1), H =
    B//2, and table[i, t, 2m + (s < 0)] is (-1)^(i+1) V/(i sigma^i) for
    order i <= I, block sign s and V = W_i (t = 0, sums) or (B - H) W_i -
    W_(i+1) (t = 1, ramps), V itself for i = 0, where W_i = sum_j w_j (j -
    H)^i with w_j = s delta_j (delta) or (1 - s delta_j)/2 (theta): exact
    ints from the sign moments, each rounded once."""
    import numpy as np

    q, table = len(signs), np.empty((I + 1, 2, 2 * (top + 1)))
    for m in range(top + 1):
        B, H = q**m, q**m // 2
        e = max(H.bit_length() - 1, 0)
        mu, nu = (_block_moments(p, m, H, I + 1) for p in (signs, (1,) * q))
        for t, s in enumerate((1, -1)):
            W = [s * a if mode == "delta" else (b - s * a) // 2 for a, b in zip(mu, nu)]
            for i in range(I + 1):
                v = (W[i], (B - H) * W[i] - W[i + 1])
                table[i, :, 2 * m + t] = [(-1) ** (i + 1) * x / (i << e * i) if i else float(x)
                                          for x in v]
    sigma = np.array([2.0 ** max((q**m // 2).bit_length() - 1, 0) for m in range(top + 1)])
    table.flags.writeable = sigma.flags.writeable = False
    return table, sigma


def _block_plan(q: int, K: int, c: int, n_safe: int, L: int, low: int):
    """(n_out, runs): the terms below n_out are summed outright, and [n_out,
    q^K) is tiled in order by runs (x0, m, count) of count blocks of length
    B = q^m from x0, a multiple of B, each summed from its sign moments.

    Level j, [q^j, q^(j+1)) for c <= j < K, is cut into blocks of q^(j-c).
    A block [x0, x0 + B) is a moment block when x0 >= n_safe and its
    half-width H = B//2 is at most 1/_MOMENT_SPAN of x0 + low/L, its
    distance to the nearest root; as x0 >= q^c B >= _MOMENT_SPAN H, that
    holds for every block of a level past roots >= 0.  A block wholly below
    n_safe is summed outright; one that straddles n_safe or lies too near a
    root < 0 is cut into its q sub-blocks, and those pass once past both.
    The terms up to the end of the last outright block are all summed
    outright, so the outright terms are a prefix."""
    span, runs, n_out = _MOMENT_SPAN, [], q**c

    def visit(x0: int, m: int, count: int):
        nonlocal n_out
        B, H = q**m, q**m // 2
        below = min(count, max(0, (n_safe - x0) // B))
        first = min(count, max(below, -(-(n_safe - x0) // B),
                               -(-(span * H * L - low - x0 * L) // (B * L))))
        if below:
            runs.clear()
            n_out = x0 + below * B
        for i in range(below, first):  # m > 0: a single term past n_safe passes
            visit(x0 + i * B, m - 1, q)
        if first < count:
            runs.append((x0 + first * B, m, count - first))

    for j in range(c, K):
        visit(q**j, j - c, (q - 1) * q**c)
    return n_out, runs


def _moment_blocks(spec: ProductSpec, pairs, x, ms, plus, n_ramp: int, I: int):
    """Yield (i0, totals, ramps) for the moment blocks i0.., at most
    _BLOCK_CAP at a time.  Block i has length B = q^ms[i], H = B//2,
    centre x[i] = x0 + H and sign plus[i]; totals[i] approximates sum_j w_n
    ln R(n) over n = x0 + j, j < B, and ramps, for the chunk's blocks among
    the last n_ramp, sum_j (B - j) w_n ln R(n), both from the expansion of
    ln R to order I about x.

    With h = n - x, y_c = 1/(x + c) and d = a - b, each pair gives
    ln((x + a + h)/(x + b + h)) = log1p(d y_b) + sum_{i=1..I} ((-1)^(i+1)/i)
    h^i (y_a^i - y_b^i) + remainder, and y_a^i - y_b^i = -d y_a y_b S_i,
    S_1 = 1, S_(i+1) = y_a S_i + y_b^i, a sum of positive terms.  A block's
    two sums are then sum_i e_i W_i, e_i the pairs' coefficients, with W_i
    = sum_j w_j h^i for the sums and (B - H) W_i - W_(i+1) for the ramps:
    exact ints from the sign moments of one block, with w_j = s_k delta_j
    or (1 - s_k delta_j)/2 for the block sign s_k.  Order i is carried as
    e_i sigma^i and W_i sigma^-i for sigma = 2^e <= max(H, 1): with Y_c =
    sigma y_c, e_i sigma^i = -d y_a Y_b S'_i, S'_1 = 1, S'_(i+1) = Y_a S'_i
    + Y_b^i, so a power of two scales both exactly and neither leaves
    binary64's range as B grows.
    """
    import numpy as np

    table, sigma = _block_weights(spec.seq.signs, spec.mode, int(ms.max()), I)
    flat, sigma = 2 * ms + ~plus, sigma[ms]
    n = len(x)
    for i0 in range(0, n, _BLOCK_CAP):
        i1 = min(n, i0 + _BLOCK_CAP)
        f = min(i1 - i0, max(0, n - n_ramp - i0))  # the chunk's first block that takes a ramp
        xc, fc, sg = x[i0:i1], flat[i0:i1], sigma[i0:i1]
        e = np.zeros(i1 - i0)
        series = []  # per pair: Y_a, Y_b, -c d y_a Y_b S'_i and -c d y_a Y_b Y_b^i
        for d, a, b, count in pairs:
            yb = xc + b
            y = np.log1p(np.divide(d, yb))
            if count > 1:
                y *= count
            e += y
            np.divide(sg, yb, out=yb)
            ya = np.divide(sg, xc + a)
            g = ya * (-count * d)
            g *= yb
            g /= sg
            series.append((ya, yb, g, g * yb))
        tw, rw = table[:, 0, fc], table[:, 1, fc[f:]]  # every order's weights at once
        totals, ramps = tw[0] * e, rw[0] * e[f:]
        for i in range(1, I + 1):
            for ya, yb, g, p in series if i > 1 else ():  # S'_i and Y_b^i from order i - 1
                g *= ya
                g += p
                p *= yb
            e = sum(g for _, _, g, _ in series)
            totals += tw[i] * e
            ramps += rw[i] * e[f:]
        yield i0, totals, ramps


def _direct_sums(spec: ProductSpec, K: int):
    """Partial sums S_m = sum_{start <= n < m} w_n ln R(n): ({m: S_m} for
    the boundaries m = q^1..q^K only, the mean of S_(n+1) over [q^(K-1),
    q^K), fl_round), where fl_round bounds the error of each.

    ``_block_plan`` cuts each level [q^j, q^(j+1)) into (q - 1) q^c blocks,
    so block lengths grow with n.  The terms of a prefix, below q^c, below
    n_safe and in blocks too near a root, are summed outright; every later
    block lies past n_safe with its half-width at most 1/_MOMENT_SPAN of
    its distance to the nearest root, and ``_moment_blocks`` sums it from
    the sign moments of its length, all such blocks in one vector pass per
    order and distinct pair.  A call costs about K (q - 1) q^c blocks
    beyond the prefix, whatever q^K is.  fl_round covers the moment blocks'
    truncation as well as all rounding.  Block totals are chained in
    order."""
    import numpy as np

    seq, term, start, q = spec.seq, spec.term, spec.start, spec.seq.q
    n_used, fb_lo = q**K, q ** (K - 1)
    bounds = {q**i for i in range(1, K)}
    _, L, offsets = term.integer_form
    live = [m for m, e in offsets if e]
    n_safe = max(start, max(map(abs, live), default=0) // L + 1)
    pairs = _log1p_pairs(term) if n_safe < n_used else []  # floats for the bulk past the roots
    c = next((c for c in range(K) if 2 * q**c >= _MOMENT_SPAN), K)
    n_out, runs = _block_plan(q, K, c, n_safe, L, min(live)) if pairs else (n_used, [])
    # outright chunks of B = q^mo, up to n_out: delta over [kB, (k+1)B) is
    # delta_k times delta over [0, B), and B divides fb_lo
    B = q ** min(K - 1, _top_exponent(q, _BLOCK_CAP), next(m for m in range(K + 1)
                                                           if q**m >= n_out))
    base = delta_prefix(seq, B)
    weights = {s: s * base if spec.mode == "delta" else (1 - s * base) // 2 for s in (1, -1)}
    # w_n ln R(n) is log1p(nu/(n + c)) per pair (a, b), d = a - b: nu = d and
    # c = b where w_n = 1, nu = -d and c = a where w_n = -1, as -ln(1 + d/(n +
    # b)) = ln(1 - d/(n + a)), and nu = 0 where w_n = 0.  For each block sign,
    # nu and j + c over j in [0, B) are formed once.
    j = np.arange(B, dtype=np.float64)
    terms = {s: [(d * w, j + np.where(w < 0, a, b), count) for d, a, b, count in pairs]
             for s, w in weights.items()}
    logs, tmp = np.empty(B), np.empty(B)
    sums: dict[int, float] = {}
    running = abs_head = mean_acc = 0.0
    pos = start
    while pos < n_out:
        if pos in bounds:
            sums[pos] = running
        k, j0 = divmod(pos, B)
        lo, s = k * B, sign_at(seq, k)
        hi = min(lo + B, n_out)
        lv, e = logs[j0:hi - lo], min(max(n_safe, pos), hi)
        if e > pos:  # exact terms below n_safe
            w = weights[s]
            ns = range(pos, e)
            lv[:e - pos] = [int(w[n - lo]) * _log_quotient(p, q)
                            for n, (p, q) in zip(ns, value_pairs(term, ns))]
            abs_head += float(np.abs(lv[:e - pos]).sum())
        # w_n ln R(n) for n = j + kB in [e, hi): one add, divide and log1p per
        # distinct pair, times its count, the first pair in place in lv
        out, x = lv[e - pos:], tmp[e - lo:hi - lo]
        if not pairs:  # R(n) = 1
            out.fill(0.0)
        for i, (nu, off, count) in enumerate(terms[s]):
            y = x if i else out
            np.add(off[e - lo:hi - lo], float(lo), out=y)
            np.log1p(np.divide(nu[e - lo:hi - lo], y, out=y), out=y)
            if count > 1:
                y *= count
            if i:
                out += y
        if pos < B:  # chunk 0 holds the boundaries below B; running is 0 here
            cs = np.cumsum(lv)
            sums.update((q**i, float(cs[q**i - pos - 1])) for i in range(1, K) if q**i <= hi)
            total = float(cs[-1])
        else:
            total = running + float(np.einsum("i->", lv))
        if pos >= fb_lo:  # sum_{pos<=n<hi} S_(n+1) = (hi-pos) S_pos + sum_n t_n (hi-n)
            ramp = np.arange(hi - pos, 0, -1, dtype=np.float64)
            mean_acc += (hi - pos) * running + float(np.einsum("i,i->", ramp, lv))
        running, pos = total, hi
    if runs:
        # the moment path's order I is the least with r^(I+1)/(1 - r) <= 2^-53
        # for r = 1/_MOMENT_SPAN, which bounds each block's r_k = H/(x0 + low/L)
        span, I = _MOMENT_SPAN, 0
        while span ** (I + 1) * (span - 1) < span << 53:
            I += 1
        # block i: centre x, length q^ms, sign plus: delta over the block of
        # index k = x0/B is delta_k times delta over [0, B), and a run's k lie
        # in one window of q^(c+1), where delta_k = delta_(k div q^(c+1)) T[k mod q^(c+1)]
        window = q ** (c + 1)
        T = delta_prefix(seq, window)
        counts = [n for *_, n in runs]
        firsts = np.cumsum([0] + counts)  # a run's first block
        k0 = [x0 // q**m for x0, m, _ in runs]  # in ints: q^K may pass 2^63

        def per_block(values):
            return np.repeat(values, counts)

        j = np.arange(firsts[-1]) - per_block(firsts[:-1])  # a block's place in its run
        x = per_block([float(x0 + q**m // 2) for x0, m, _ in runs]) \
            + j * per_block([float(q**m) for _, m, _ in runs])
        ms = per_block([m for _, m, _ in runs])
        plus = per_block([sign_at(seq, k // window) for k in k0]) \
            * T[per_block([k % window for k in k0]) + j] > 0
        n_ramp = sum(n for x0, _, n in runs if x0 >= fb_lo)
        # a boundary q^j >= n_out starts level j, and so a run: at[i] = q^j for its first block i
        at = {int(i): x0 for i, (x0, _, _) in zip(firsts, runs) if x0 in bounds}
        sizes = [q**m for m in range(int(ms.max()) + 1)]
        lengths, halves = (np.array(v, dtype=np.float64)[ms]
                           for v in (sizes, [b // 2 for b in sizes]))
        for i0, totals, ramps in _moment_blocks(spec, pairs, x, ms, plus, n_ramp, I):
            # chained in order, as the outright chunks are: run[i] is S at block i0 + i
            run = np.cumsum(np.concatenate(([running], totals)))
            i1 = i0 + len(totals)
            sums.update((p, float(run[i - i0])) for i, p in at.items() if i0 <= i < i1)
            if len(ramps):  # the chunk's final-block sums, B S_x0 + ramp each
                f = len(totals) - len(ramps)
                mean_acc += float(np.sum(lengths[i0 + f:i1] * run[f:-1] + ramps))
            running = float(run[-1])
    sums[n_used] = running
    # fl_round, with u = 2^-53 and n0 = min(n_safe, q^K).  Outright terms: each of the
    # h = n0 - start exact terms rounds R(n) and takes a log good to 4 ulps,
    # times w_n exactly: off by <= 2u + 8u |t|, which covers the scaling of an
    # R(n) outside binary64's normal range as in _accel_components.  For a
    # pair with offset c (b or a), rounding c, j + c and kB + (j + c) moves
    # n + c by (2 + 3 rho) u (n + c), where rho = max(1, -m/(n0 + m)), m =
    # min(a, b), bounds |c|/(n + c), so that |j + c| <= (1 + 2 rho)(n + c)
    # covers a negative c.  With the
    # rounding of d and of the quotient, x = nu/(n + c) moves by (4 + 3 rho) u
    # |x|, hence log1p(x) by (4 + 3 rho) u |d|/(n + m), as |x/(1 + x)| is |d|/(n
    # + a) or |d|/(n + b); log1p's own 4 ulps of |log1p(x)| <= |d|/(n + m) add
    # 8u |d|/(n + m), and adding up P pairs (P - 1) u |d|/(n + m).  A pair
    # taken c > 1 times is one log1p times c: the product adds u c |log1p(x)|,
    # and c - 1 additions fewer are made, so charging P, the pairs counted
    # with multiplicity, still covers it.  As A_i =
    # c |d| (1/(n0 + m) + ln((n1 - 1 + m)/(n0 + m))) >= sum_{n0 <= n < n1}
    # c |d|/(n + m), n1 = n_out the end of the outright terms, these are off
    # by E <= u (2h + 8 abs_head + sum_i (P + 11 + 3 rho_i) A_i), and A =
    # abs_head + sum_i A_i >= sum |t_n|.  Sums: each
    # S_m, m <= n1, is a tree of additions of depth D <= B + chunks + 2 (a chunk sum,
    # einsum or cumsum in any order, has depth < B): off by E + D u A to first
    # order.  The mean adds the final block's term and ramp-dot errors times
    # B/(q^K - q^(K-1)) <= 1, the products, the additions and the division: 2E
    # + 5 D u A; a sixth D u A covers O(u^2).
    #
    # Moment block k, [x0, x0 + B_k), H_k = B_k//2, r_k = H_k/(x0 + low/L),
    # charged with its own B_k and r_k.  Truncation: with y = 1/(x0 + m),
    # the pair's order-i term is at most c |d| y |h y|^i, as S_i <= i y^(i-1),
    # so past order I a term is off by c |d| y r_k^(I+1)/(1 - r_k) <= u c |d|
    # y, and the block by u Z_k, with Z_k = sum_pairs c |d| B_k/(x0 + m).
    # Rounding, with rho_k = max(1, -m/(x0 + m)): x is exact while q^K <=
    # 2^53 and within 4u x beyond, and x <= (1 + rho_k)(x + c), so x + c is
    # off by alpha u relative, alpha = 5 + 5 rho_k; Y_c by alpha + 1; -c d
    # y_a Y_b by 2 alpha + 6; S'_i by a further (i - 1)(alpha + 3), its terms
    # being positive; log1p(d/(x + b)) by (alpha + 11) u |d| y as for the
    # outright terms.  Scaling by sigma is exact.  The sum over pairs, the
    # rounding of W_i/(i sigma^i) (an exact int divided once), the product
    # and the sum over orders add (P - 1) + 2 + I.  So order i of a pair is
    # off by kappa_k u times c |d| y^(i+1) A_i, A_i = sum_h |h|^i >= |W_i|,
    # kappa_k = 9I + 17 + 5 (I + 1) rho_k + P, and sum_i y^i A_i <= B_k/(1 -
    # r_k): the block is off by E_k <= u sum_pairs (kappa_k/(1 - r_k) + 1) c
    # |d| B_k/(x0 + m).  A ramp weight is at most B_k, so a ramp sum is off
    # by B_k E_k, and the mean's division by q^K - q^(K-1) >= B_k keeps it
    # within E_k.  Z = sum_k Z_k bounds the moment blocks' sum |t_n|.  The
    # chain adds each block once, and the mean one product and one addition
    # per final block, each off by u (A + Z): S_m is off by E + D u A + E_mom
    # + n u (A + Z), n the number of moment blocks, and the mean by 2E_mom +
    # (2n + 3) u (A + Z) beyond the outright charge; 6 (n + 2) u (A + Z)
    # covers that with O(u^2).
    n0, u = min(n_safe, n_used), 2.0**-53
    P = sum(count for *_, count in pairs)
    a_tot, e_bulk = abs_head, 0.0
    for d, a, b, count in pairs if n0 < n_out else ():
        d, m = count * abs(d), min(a, b)
        a_i = d * (1.0 / (n0 + m) + math.log((n_out - 1 + m) / (n0 + m)))
        a_tot += a_i
        e_bulk += (P + 11 + 3 * max(1.0, -m / (n0 + m))) * a_i
    depth_u = (B - (-n_out // B) - start // B + 2) * u
    fl_round = 2.0 * u * (2 * (n0 - start) + 8 * abs_head + e_bulk) + 6.0 * depth_u * a_tot
    if runs:
        x0 = x - halves
        r = halves / (x0 + min(live) / L)
        z_tot = e_mom = 0.0
        for d, a, b, count in pairs:
            m = min(a, b)
            z = count * abs(d) * lengths / (x0 + m)
            kappa = 9 * I + 17 + 5 * (I + 1) * np.maximum(1.0, -m / (x0 + m)) + P
            z_tot += float(z.sum())
            e_mom += float(((kappa / (1.0 - r) + 1) * z).sum())
        fl_round += _ROUND_UP * u * (2 * e_mom + 6 * (len(x) + 2) * (a_tot + z_tot))
    return sums, mean_acc / (n_used - fb_lo), fl_round


def evaluate_direct(spec: ProductSpec, N: int | None = None,
                    cache: DirichletCache | None = None) -> EvalResult:
    """Baseline oracle: sum weighted logs to the largest q^K <= N, with
    N = q^10 when None.

    The log is the mean of the partial sums over the final block; the
    estimate is the spread of the last few block-boundary partial sums, plus
    the gap between the last of them and the mean, times 2q (q is the
    worst-case ratio implied by the n^(log_q(q-1)) growth of the partial
    sums of the exponents), plus fl_round.  fl_round is proven; the rest is
    an estimate.  Each level [q^j, q^(j+1)) past a short prefix is summed
    from the sign moments of a fixed number of blocks (see
    ``_direct_sums``), so the cost grows with K = log_q N, not with N.  N
    must be an int (a bool or a float is a TypeError) below 2^500.  ``cache`` is
    accepted, for a signature shared with evaluate_product, but not read:
    the oracle uses no Dirichlet value."""
    if N is not None and (not isinstance(N, int) or isinstance(N, bool)):
        raise TypeError(f"N must be an int, got {N!r}")
    _require_ok(spec)
    q = spec.seq.q
    if N is None:
        N = q**10
    if N < q * q:
        raise ValueError(f"direct evaluation needs N >= q^2 = {q * q}")
    if N >= DIRECT_N_LIMIT:  # past it a final block's ramp weights, ~B^2, may leave binary64
        raise ValueError("direct evaluation needs N < 2^500")
    K = _top_exponent(q, N)
    sums, log_value, fl_round = _direct_sums(spec, K)
    last = [sums[q**k] for k in range(max(1, K - q + 1), K + 1)]
    est = 2.0 * q * (max(last) - min(last) + abs(sums[q**K] - log_value)) + fl_round
    return EvalResult(_exp(log_value), log_value, est, "direct", q**K, 0)


class IdentityReport(NamedTuple):
    ok: bool
    lhs_value: float
    rhs_value: float
    abs_dlog: float
    est_error: float
    terms_used: int
    method: str
    reason: str | None = None


def _verify_eps(tol: float) -> float:
    """The eps a verification at tolerance tol asks of evaluate_product."""
    return check_eps(tol, "tol") / 4.0


def _passes(res: EvalResult, rhs_log: float, tol: float) -> tuple[bool, float]:
    """The pass rule of every verification: (|dlog| <= tol + est_error, |dlog|)."""
    dlog = abs(res.log_value - rhs_log)
    return dlog <= tol + res.est_error, dlog


def verify_identity(spec: ProductSpec, rhs_value: float, tol: float,
                    cache: DirichletCache | None = None,
                    method: str = "accel", direct_n: int | None = None) -> IdentityReport:
    """Compare the evaluated product with a positive closed-form value.

    Passes iff |log lhs - log rhs| <= tol + est_error (``_passes``); the
    accelerated method asks for eps = tol/4.  Evaluation failures are
    reported as failures with a reason, not raised.
    """
    eps = _verify_eps(tol)
    if rhs_value <= 0:
        raise ValueError("rhs_value must be positive")
    try:
        if method == "accel":
            res = evaluate_product(spec, eps=eps, cache=cache)
        elif method == "direct":
            res = evaluate_direct(spec, direct_n, cache=cache)
        else:
            raise ValueError(f"unknown method {method!r}")
    except (EpsUnachievableError, ProductRejectedError) as exc:
        return IdentityReport(False, math.nan, rhs_value, math.inf, math.inf,
                              0, method, reason=str(exc))
    ok, dlog = _passes(res, math.log(rhs_value), tol)
    return IdentityReport(ok, res.value, rhs_value, dlog, res.est_error,
                          res.terms_used, method)


def plain_product_log_closed(term: FactorList, start: int) -> float:
    """log of prod_{n>=start} R(n) via the Gamma closed form.

    Needs sum of exponents, of weighted slopes-with-constant, and of
    exponent-weighted roots all balanced (the plain product converges
    exactly then); arguments start + beta/alpha must avoid 0, -1, -2, ...
    """
    from .gammafn import log_gamma

    verdict = factored_convergence(term, "theta")  # the plain product's criteria
    if not verdict:
        raise ValueError(f"plain product diverges: {verdict.reason}")
    total = 0j
    for f in term.factors:
        c = f.beta / f.alpha + start
        if c.denominator == 1 and c <= 0:
            raise ValueError(f"Gamma argument {c} is a nonpositive integer")
        total -= f.exponent * log_gamma(complex(c))
    if abs(total.imag % (2 * math.pi)) > 1e-6 and \
            abs(total.imag % (2 * math.pi) - 2 * math.pi) > 1e-6:
        raise ArithmeticError(f"closed form is not positive real: {total}")
    return total.real


# ---------------------------------------------------------------------------
# functional-equation verification
# ---------------------------------------------------------------------------


def _base_q_step(seq: MultiplicativeSequence, A: int, B: int, D: int) -> list:
    """(alpha, P, e) triples, offsets P/D, of (n+a)/(n+b) with a = A/D and
    b = B/D, and of its base-q step: for every digit k, (qn+b+k)/(qn+a+k)
    where delta_k = 1 and its inverse where delta_k = -1."""
    q, triples = seq.q, [(1, A, 1), (1, B, -1)]
    for k in range(q):
        kD = k * D
        up, down = (B + kD, A + kD) if seq.signs[k] == 1 else (A + kD, B + kD)
        triples += [(q, up, 1), (q, down, -1)]
    return triples


def _scaling_term(seq: MultiplicativeSequence, a, b) -> tuple[FactorList, int, int]:
    """``build_scaling_term`` with its RHS as a reduced pair num/den, den > 0."""
    (A, B), D = over_common_denominator((a, b))
    triples = _base_q_step(seq, A, B, D)
    num = den = 1
    for (_, up, _), (_, down, _) in zip(triples[4::2], triples[5::2]):
        num, den = num * down, den * up
    if den == 0:
        raise ZeroDivisionError("the right-hand side has a zero denominator")
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return FactorList.from_ints(triples, D), num // g, den // g


def build_scaling_term(seq: MultiplicativeSequence, a, b) -> tuple[FactorList, Fraction]:
    """Combined single-product form of the base/q self-similarity for
    f(a,b) = prod ((n+a)/(n+b))^delta_n, and its exact rational RHS
    prod_{k=1}^{q-1} ((a+k)/(b+k))^delta_k, the step's digit factors past
    k = 0 turned upside down."""
    term, num, den = _scaling_term(seq, a, b)
    return term, _fraction(num, den)


def _gamma_ratio_term(seq: MultiplicativeSequence, A_list, B_list,
                      D: int) -> tuple[FactorList, float]:
    """``build_gamma_ratio_term`` of a_i = A_i/D and b_i = B_i/D, whose sums
    the caller has checked; each Gamma argument (B_i + kD)/(qD) is one
    correctly rounded int division."""
    from .gammafn import log_gamma

    q = seq.q
    triples = [t for A, B in zip(A_list, B_list) for t in _base_q_step(seq, A, B, D)]
    rhs_log = 0.0
    try:
        for k in range(1, q):
            if seq.signs[k] == -1:  # theta_k = 1
                for A, B in zip(A_list, B_list):
                    rhs_log += (log_gamma((B + k * D) / (q * D))
                                - log_gamma((A + k * D) / (q * D))).real
    except OverflowError:  # from the int division
        raise ValueError("a Gamma argument of the right-hand side is past binary64's "
                         "range") from None
    return FactorList.from_ints(triples, D), rhs_log


def build_gamma_ratio_term(seq: MultiplicativeSequence, a_list, b_list) -> tuple[FactorList, float]:
    """Combined single-product form of the base/q self-similarity for the
    theta-weighted product of prod_i (n+a_i)/(n+b_i), plus its Gamma RHS log.
    A parameter so large that a Gamma argument (b_i + k)/q or (a_i + k)/q is
    past binary64's range is a ValueError."""
    a_list, b_list = list(a_list), list(b_list)
    nums, D = over_common_denominator(a_list + b_list)
    if len(a_list) != len(b_list):
        raise ValueError("parameter lists must have equal lengths")
    A_list, B_list = nums[:len(a_list)], nums[len(a_list):]
    if sum(A_list) != sum(B_list):
        raise ValueError("parameter sums must match exactly")
    return _gamma_ratio_term(seq, A_list, B_list, D)


class FunctionalEquationReport(NamedTuple):
    ok: bool
    kind: str
    lhs_value: float
    rhs_value: float
    abs_dlog: float
    est_error: float


def verify_functional_equation(kind: str, q: int, theta_bits, params: dict,
                               tol: float = 1e-7,
                               cache: DirichletCache | None = None) -> FunctionalEquationReport:
    """Numerically verify one instance of the self-similarity equations.

    kind 'thm_f' takes params {'a','b'} (positive rationals) and checks
    the delta-weighted combined product against its rational RHS; kind
    'thm_frak' takes {'a_list','b_list'} (positive rationals, equal sums)
    and checks the theta-weighted combined product against its Gamma RHS.
    Passes by verify_identity's rule (``_passes``) at eps = tol/4; a rational
    RHS enters as its exact log, and rhs_value is inf past binary64.  A
    thm_frak parameter whose Gamma argument is past binary64 is a ValueError
    (see build_gamma_ratio_term); a parameter past MAX_N, of either kind,
    is otherwise refused by evaluate_product (EpsUnachievableError).
    """
    from .families import scaling_family
    from .sequences import make_sequence

    eps = _verify_eps(tol)
    seq = make_sequence("gtm", q, bits=theta_bits)
    if kind == "thm_f":
        a, b = params["a"], params["b"]
        if as_pair(a)[0] <= 0 or as_pair(b)[0] <= 0:
            raise ValueError("thm_f needs a, b > 0")
        _, mode, term, rhs_log = scaling_family(seq, a, b)
    elif kind == "thm_frak":
        a_list, b_list = list(params["a_list"]), list(params["b_list"])
        if any(as_pair(x)[0] <= 0 for x in a_list + b_list):
            raise ValueError("thm_frak needs positive parameters")
        term, rhs_log = build_gamma_ratio_term(seq, a_list, b_list)
        mode = "theta"
    else:
        raise ValueError(f"unknown functional equation kind {kind!r}")
    res = evaluate_product(ProductSpec(seq, mode, 1, term), eps=eps, cache=cache)
    ok, dlog = _passes(res, rhs_log, tol)
    return FunctionalEquationReport(ok, kind, res.value, _exp(rhs_log), dlog, res.est_error)
