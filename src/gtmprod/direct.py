"""The direct oracle: sign-weighted products summed term by term and block by block.

``evaluate_direct`` sums the terms, averages the partial log-sums over the
final base-q block, and estimates its error from the spread of the last
few block-boundary partial sums; that estimate is not a proof.  It reads
no Dirichlet constant, ladder or 1/n expansion at infinity, so it stays
independent of the accelerated evaluator: this module imports only
``ratfun`` and ``sequences`` (and numpy inside the functions that need
it), never ``dirichlet`` or ``evaluator``.  It sums a short prefix term by
term and cuts each later level [q^j, q^(j+1)) into a fixed number of
blocks of q^(j-c) terms, so its cost and memory grow with log N, not N;
fl_round is a proven bound on the rounding, and on the truncation below,
of every sum it returns.  A prefix term is w_n ln R(n) of the exact R(n)
of ``ratfun.value_pairs``, as in the accelerated head, with its signs from
``sequences.sign_range``, and the prefix is chained by ``math.fsum``, in
chunks of at most _BLOCK_CAP terms.  A level's blocks lie past the roots
with their half-widths at most 1/_MOMENT_SPAN of their distance to the
nearest root (``_block_plan``; a block too near a root is cut into its q
sub-blocks), and each is summed without forming its terms
(``_moment_blocks``): ln R is smooth across it while the signs stay
q-multiplicative, so its sum is a short series in the exact sign moments
of its length (``sequences.block_moments``, one memoized digit recursion
for all lengths), one vector pass per order and distinct
numerator/denominator pair of R(n) = prod (n + a)/(n + b)
(``_log1p_pairs``) over the blocks of all levels at once.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

from .ratfun import (
    _ROUND_UP,
    EvalResult,
    FactorList,
    ProductSpec,
    _as_int,
    _exp,
    _log_quotient,
    _require_ok,
    value_pairs,
)
from .sequences import block_moments, sign_at, sign_range

DIRECT_N_LIMIT = 2**500  # evaluate_direct's N is below it
_BLOCK_CAP = 1 << 17  # the most terms in one fsum of the prefix, and moment blocks in one pass
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
        mu, nu = (block_moments(p, m, H, I + 1) for p in (signs, (1,) * q))
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
    n_safe and in blocks too near a root, are summed outright, each from its
    exact R(n) and chained by ``math.fsum``; every later block lies past
    n_safe with its half-width at most 1/_MOMENT_SPAN of its distance to
    the nearest root, and ``_moment_blocks`` sums it from the sign moments
    of its length, all such blocks in one vector pass per order and
    distinct pair.  A call costs about K (q - 1) q^c blocks beyond the
    prefix, whatever q^K is.  fl_round covers the moment blocks' truncation
    as well as all rounding.  Block totals are chained in order."""
    seq, term, start, q = spec.seq, spec.term, spec.start, spec.seq.q
    n_used, fb_lo = q**K, q ** (K - 1)
    bounds = {q**i for i in range(1, K)}
    _, L, offsets = term.integer_form
    live = [m for m, e in offsets if e]
    if not live:  # R = 1: every term is 0
        return dict.fromkeys((q**i for i in range(1, K + 1)), 0.0), 0.0, 0.0
    n_safe = max(start, max(map(abs, live)) // L + 1)
    pairs = _log1p_pairs(term) if n_safe < n_used else []  # floats for the blocks past the roots
    c = next((c for c in range(K) if 2 * q**c >= _MOMENT_SPAN), K)
    n_out, runs = _block_plan(q, K, c, n_safe, L, min(live)) if pairs else (n_used, [])
    # outright: t_n = w_n ln R(n) of the exact R(n) for every n in [start, n_out)
    # with w_n != 0 (delta_n, or 1 where delta_n = -1 for theta), in chunks of
    # at most _BLOCK_CAP that end at the boundaries, each fsummed; S at a
    # boundary is the fsum of the chunk sums before it
    delta = spec.mode == "delta"
    sums: dict[int, float] = {}
    chunks, ramp_sums, h, a_tot = [], [], 0, 0.0
    pos = start
    for stop in sorted(b for b in bounds if b < n_out) + [n_out]:
        while pos < stop:
            end = min(pos + _BLOCK_CAP, stop)
            ws = {n: s if delta else 1 for n, s in zip(range(pos, end), sign_range(seq, pos, end))
                  if delta or s < 0}
            t = [w * _log_quotient(num, den)
                 for w, (num, den) in zip(ws.values(), value_pairs(term, ws))]
            chunks.append(math.fsum(t))
            h, a_tot = h + len(t), a_tot + math.fsum(map(abs, t))
            if pos >= fb_lo:  # sum_{fb_lo<=n<n_out} S_(n+1) = (n_out - fb_lo) S_fb_lo + this
                ramp_sums.append(math.fsum([x * (n_out - n) for n, x in zip(ws, t)]))
            pos = end
        running = math.fsum(chunks)
        if stop in bounds:
            sums[stop] = running
    mean_acc = (n_out - fb_lo) * sums[fb_lo] + math.fsum(ramp_sums) if n_out > fb_lo else 0.0
    if runs:
        import numpy as np

        # the moment path's order I is the least with r^(I+1)/(1 - r) <= 2^-53
        # for r = 1/_MOMENT_SPAN, which bounds each block's r_k = H/(x0 + low/L)
        span, I = _MOMENT_SPAN, 0
        while span ** (I + 1) * (span - 1) < span << 53:
            I += 1
        # block i: centre x, length q^ms, sign plus: delta over the block of
        # index k = x0/B is delta_k times delta over [0, B), and a run's k lie
        # in one window of q^(c+1), where delta_k = delta_(k div q^(c+1)) T[k mod q^(c+1)]
        window = q ** (c + 1)
        T = np.array(sign_range(seq, 0, window))
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
            # chained in order from the outright sum: run[i] is S at block i0 + i
            run = np.cumsum(np.concatenate(([running], totals)))
            i1 = i0 + len(totals)
            sums.update((p, float(run[i - i0])) for i, p in at.items() if i0 <= i < i1)
            if len(ramps):  # the chunk's final-block sums, B S_x0 + ramp each
                f = len(totals) - len(ramps)
                mean_acc += float(np.sum(lengths[i0 + f:i1] * run[f:-1] + ramps))
            running = float(run[-1])
    sums[n_used] = running
    # fl_round, with u = 2^-53.  Outright terms: each of the h terms of nonzero
    # weight rounds its exact R(n) once and takes a log good to 4 ulps, times
    # w_n exactly: off by <= 2u + 8u |t_n|, which covers the scaling of an R(n)
    # outside binary64's normal range as in evaluator._accel_components.  In all they
    # are off by E = u (2h + 8A), A = sum |t_n|.  fsum rounds the exact sum of
    # its inputs once, so a chunk's sum is off by u times its terms' sum |t_n|
    # beyond their own errors, and S_m, m <= n_out, the fsum of the chunk sums
    # before m, by E + 2uA.  The W = n_out - fb_lo outright terms of the final
    # block add W S_(fb_lo) + sum_n t_n (n_out - n) to the mean's numerator.
    # The weights are exact ints below 2^53 (every term below n_out is
    # visited), each product rounds once and the ramp's two fsums once each:
    # off by W (E + 3uA); W S_(fb_lo) by W (E + 2uA) and its product's
    # rounding, u W A; their sum by one more rounding, u W A.  Dividing by
    # q^K - q^(K-1) >= W, itself rounded to a float, adds two roundings: the
    # mean is off by 2E + 9uA, which covers every S_m as well.
    #
    # Moment block k, [x0, x0 + B_k), H_k = B_k//2, r_k = H_k/(x0 + low/L),
    # charged with its own B_k and r_k.  Truncation: with y = 1/(x0 + m),
    # m = min(a, b), the pair's order-i term is at most c |d| y |h y|^i, as
    # S_i <= i y^(i-1), so past order I a term is off by c |d| y r_k^(I+1)/(1
    # - r_k) <= u c |d| y, and the block by u Z_k, with Z_k = sum_pairs c |d|
    # B_k/(x0 + m).  Rounding, with rho_k = max(1, -m/(x0 + m)): x is exact
    # while q^K <= 2^53 and within 4u x beyond, and x <= (1 + rho_k)(x + c),
    # so x + c is off by alpha u relative, alpha = 5 + 5 rho_k; Y_c by alpha +
    # 1; -c d y_a Y_b by 2 alpha + 6; S'_i by a further (i - 1)(alpha + 3),
    # its terms being positive.  log1p(d/(x + b)) is off by (alpha + 11) u |d|
    # y: d and the quotient round once each, which moves the argument by
    # (alpha + 2) u times itself and the log1p by (alpha + 2) u |d|/(x + a),
    # log1p's own 4 ulps of at most |d| y add 8, and the product by the
    # pair's count 1.  Scaling by sigma is exact.  The sum over pairs, the
    # rounding of W_i/(i sigma^i) (an exact int divided once), the product
    # and the sum over orders add (P - 1) + 2 + I, P the pairs counted with
    # multiplicity.  So order i of a pair is off by kappa_k u times c |d|
    # y^(i+1) A_i, A_i = sum_h |h|^i >= |W_i|, kappa_k = 9I + 17 + 5 (I + 1)
    # rho_k + P, and sum_i y^i A_i <= B_k/(1 - r_k): the block is off by E_k
    # <= u sum_pairs (kappa_k/(1 - r_k) + 1) c |d| B_k/(x0 + m).  A ramp
    # weight is at most B_k, so a ramp sum is off by B_k E_k, and the mean's
    # division by q^K - q^(K-1) >= B_k keeps it within E_k.  Z = sum_k Z_k
    # bounds the moment blocks' sum |t_n|.  The chain adds each block once,
    # and the mean one product and one addition per final block, each off by
    # u (A + Z): S_m is off by E + 2uA + E_mom + n u (A + Z), n the number of
    # moment blocks, and the mean by 2E_mom + (2n + 3) u (A + Z) beyond the
    # outright charge; 6 (n + 2) u (A + Z) covers that with O(u^2).
    # _ROUND_UP covers the outright O(u^2) and the rounding of this bound.
    fl_round = 4 * h + 25 * a_tot
    if runs:
        x0 = x - halves
        r = halves / (x0 + min(live) / L)
        P = sum(count for *_, count in pairs)
        z_tot = e_mom = 0.0
        for d, a, b, count in pairs:
            m = min(a, b)
            z = count * abs(d) * lengths / (x0 + m)
            kappa = 9 * I + 17 + 5 * (I + 1) * np.maximum(1.0, -m / (x0 + m)) + P
            z_tot += float(z.sum())
            e_mom += float(((kappa / (1.0 - r) + 1) * z).sum())
        fl_round += 2 * e_mom + 6 * (len(x) + 2) * (a_tot + z_tot)
    return sums, mean_acc / (n_used - fb_lo), _ROUND_UP * 2.0**-53 * fl_round


def evaluate_direct(spec: ProductSpec, N: int | None = None, cache=None) -> EvalResult:
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
    if N is not None:
        _as_int(N, "N")
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
