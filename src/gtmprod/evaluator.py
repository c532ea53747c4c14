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
R(n) is a quotient of integer products, so the head is one log per run
of exact products (``_head_logs``), and sum_j beta_j T_j is formed in the
ladder's integer fixed point (``_series``).  Past the series cutoff M the
pairing of beta_j and T_j is free of the cancellation that ruins the
naive split at n = 1.  (J, N) are read off eps in one step: J is the most
orders whose Dirichlet and fixed-point errors fit in eps/4, and N >= 4M
the fewest terms whose proven bound on the tail, from the normal form
prod (n + c)^E, fits in eps/4.  The rest of the certificate is a
worst-case rounding bound of a few ulps.  The term's normal form is
computed once per evaluation and feeds the check, the expansion, the
head and the tail bound.  The plain series uses zeta from the all-plus
ladder rather than the Gamma closed form, so closed forms remain an
independent cross-check.

The accelerated path runs on Python ints and floats, with its signs from
``sign_prefix``.  In this module numpy is imported only by the baseline
``evaluate_direct``, and mpmath not at all.

The baseline evaluator sums terms outright, averages the partial
log-sums over the final base-q block, and certifies the result from the
spread of the last few block-boundary partial sums.  It takes its signs
block by block from one prefix of B = q^m <= 2^17 signs (delta over
[kB, (k+1)B) is delta_k times delta over [0, B)), so memory is O(B) for
every N; fl_round bounds the rounding of every sum in the worst case.
Past the roots it takes w_n ln R(n) as one log1p per numerator/denominator
pair (a, b) of R(n) = prod (n + a)/(n + b) (``_log1p_pairs``), with the
weight folded into the argument: with d = a - b, w_n log1p(d/(n + b)) is
log1p(d/(n + b)), log1p(-d/(n + a)) or 0 for w_n = 1, -1 or 0, since
-ln(1 + d/(n + b)) = ln(1 - d/(n + a)).  A term costs one add, one divide
and one log1p per pair, and no pass over the block applies weights.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .dirichlet import (
    _ROUND_UP,
    DirichletCache,
    EpsUnachievableError,
    check_eps,
    dirichlet_fixed,
    zeta_fixed,
)
from .ratfun import (
    EvaluationError,
    FactorList,
    ProductCheck,
    as_fraction,
    evaluate_real,
    factor_list,
    factored_convergence,
    factored_log_expansion,
    factored_normal_form,
    factored_zeros_poles,
    first_non_positive,
    integer_offsets,
)
from .sequences import FrozenValue, MultiplicativeSequence, delta_prefix, sign_at, sign_prefix

MAX_J = 16
MAX_N = 1_000_000
_HEAD_RUN = 64  # the most terms whose exact product is rounded at once


class ProductRejectedError(ValueError):
    """The product spec fails a convergence or well-definedness criterion."""

    def __init__(self, reason: str):
        super().__init__(f"rejected: {reason}")
        self.reason = reason


class PositivityError(ArithmeticError):
    """A term value failed to be a positive real during evaluation."""


class ProductSpec(FrozenValue):
    """An infinite product: sequence, exponent mode, start index, and term."""

    _fields = ("seq", "mode", "start", "term")

    def __init__(self, seq: MultiplicativeSequence, mode: str, start: int, term: FactorList):
        if mode not in ("delta", "theta"):
            raise ValueError(f"mode must be 'delta' or 'theta', got {mode!r}")
        self._set(seq, mode, start, term)


class EvalResult(NamedTuple):
    value: float
    log_value: float
    est_error: float
    method: str
    terms_used: int
    dirichlet_orders: int


def check_product(spec: ProductSpec, normal_form=None) -> ProductCheck:
    """Enforce every ProductSpec invariant, reporting the first violation.

    Every decision is exact and read off the term's factors; positivity is
    decided for every n >= start, not sampled.  ``normal_form`` is the
    term's ``factored_normal_form``, when the caller has it.
    """
    if not spec.seq.nontrivial:
        return ProductCheck(False, "trivial-pattern")
    if spec.start not in (0, 1):
        return ProductCheck(False, "start-out-of-range")
    offenders = factored_zeros_poles(spec.term, spec.start)
    if offenders:
        return ProductCheck(False, f"zero-or-pole at n={offenders[0]}")
    verdict = factored_convergence(spec.term, spec.mode, normal_form)
    if not verdict:
        return verdict
    if spec.term.constant <= 0:
        return ProductCheck(False, "non-positive-term")
    n = first_non_positive(spec.term, spec.start)
    if n is not None:
        return ProductCheck(False, f"non-positive-term at n={n}")
    return ProductCheck(True)


def _require_ok(spec: ProductSpec, normal_form=None):
    chk = check_product(spec, normal_form)
    if not chk:
        raise ProductRejectedError(chk.reason)


def _series_cutoff(term: FactorList) -> int:
    """First index where the 1/n expansion terms are uniformly below 2^-j."""
    return int(math.ceil(2.0 * max(1.0, term.max_root_magnitude()))) + 1


def _tail_bound(offsets, J: int, N: int) -> float:
    """Bound on sum_{n>N} |rho_J(n)| from the (|c|, |E|) of the normal form
    prod (n + c)^E, for N >= 2|c|.

    ln R(n) = sum E ln(1 + c/n), and ln(1 + x) less its first J terms is at
    most |x|^(J+1)/((J+1)(1 - |x|)), so |rho_J(n)| <= sum |E| |c|^(J+1) /
    ((J+1) n^J (n - |c|)).  For n > N, n/(n - |c|) <= (N+1)/(N+1-|c|) and
    sum_{n>N} n^-(J+1) <= N^-J / J.
    """
    return _ROUND_UP * sum(e * c * (c / N) ** J * (N + 1) / ((N + 1 - c) * (J + 1) * J)
                           for c, e in offsets)


def _dirichlet_orders(spec: ProductSpec, betas, budget: float, cache: DirichletCache):
    """(J, orders, err): J is the most orders whose charges fit in budget,
    orders holds (j, beta_j, X_j, bits) for each nonzero beta_j up to J, with
    X_j 2^-bits the fixed-point G_j = sum_{n>=1} w_n n^-j, and err is the sum
    of the charges, which bounds the error of _series over those orders."""
    J, orders, err = 0, [], 0.0
    for j, bj in enumerate(betas, start=1):
        if bj:
            x, bits, e = dirichlet_fixed(spec.seq, j, cache)
            if spec.mode == "theta":  # sum theta_n n^-j = (zeta - F)/2; beta_1 = 0 here
                z, _, ze = zeta_fixed(j, cache)
                x, bits, e = z - x, bits + 1, (ze + e) / 2
            charge = abs(float(bj)) * (e + math.ldexp(MAX_N, -bits)) + math.ldexp(1.0, -bits)
            if err + charge > budget:
                break
            err += charge
            orders.append((j, bj, x, bits))
        J = j
    return J, orders, err


def _series(orders, w) -> float:
    """sum_j beta_j T_j over the orders of _dirichlet_orders, where
    T_j = G_j - sum_{0<n<=N} w_n n^-j = sum_{n>N} w_n n^-j and w holds
    w_0..w_N (N < MAX_N); exact fixed point, rounded to binary64 once.

    With B the orders' bits, T_j is X_j - sum_n w_n floor(2^B / n^j).  One
    pass over n builds every j, as floor(floor(2^B / n^(j-1)) / n) =
    floor(2^B / n^j); each floor loses less than one unit 2^-B (n = 1 is
    exact), so T_j is off by err_j plus fewer than MAX_N units.  The series
    is sum_j floor(p_j T_j / r_j) for beta_j = p_j/r_j, which loses less than
    one unit per order.  That is the charge |beta_j| (err_j + MAX_N 2^-B) +
    2^-B of _dirichlet_orders; the final division rounds once more.
    """
    if not orders:
        return 0.0
    bits, top = orders[0][3], orders[-1][0]
    t = {j: x for j, _, x, _ in orders}
    for n in range(1, len(w)):
        if w[n]:
            p = 1 << bits
            for j in range(1, top + 1):
                p //= n
                if j in t:
                    t[j] -= w[n] * p
    total = sum(bj.numerator * t[j] // bj.denominator for j, bj, _, _ in orders)
    return total / (1 << bits)


def _head_logs(merged: dict, start: int, w) -> list[float]:
    """sum_{start<=n<=N} w_n ln R(n) for w = w_0..w_N, as one log per run of
    at most _HEAD_RUN indices, each of the run's exact product rounded to
    binary64 once.  A run also ends before its quotient leaves (2^-961,
    2^961), inside binary64's normal range.

    A checked term is prod (n + c)^E over the normal form {c: E}, with
    K' = 1 and sum E = 0; with every c = m/L over one common denominator,
    R(n) = prod (L n + m)^E, a quotient of integer products.
    """
    L, offsets = integer_offsets(merged)
    ups = [(m, e) for m, e in offsets if e > 0]
    downs = [(m, -e) for m, e in offsets if e < 0]
    logs, num, den, size = [], 1, 1, 0
    for n in range(start, len(w)):
        if not w[n]:
            continue
        p = q = 1
        for m, e in ups:
            p *= (L * n + m) ** e
        for m, e in downs:
            q *= (L * n + m) ** e
        if w[n] < 0:
            p, q = q, p
        if size and (size == _HEAD_RUN
                     or abs((num * p).bit_length() - (den * q).bit_length()) > 960):
            logs.append(math.log(num / den))
            num, den, size = 1, 1, 0
        num, den, size = num * p, den * q, size + 1
    if size:
        logs.append(math.log(num / den))
    return logs


def _accel_components(spec: ProductSpec, eps: float, cache: DirichletCache, normal_form):
    """(log P, est, N, J) for a checked spec, with (J, N) read off eps."""
    seq, term = spec.seq, spec.term
    M = _series_cutoff(term)
    lo, hi = 4 * M, MAX_N
    refusal = f"eps {eps:g} cannot be certified with N <= {MAX_N}"
    if lo > hi:
        raise EpsUnachievableError(refusal)
    betas = factored_log_expansion(term, MAX_J, normal_form)
    budget = eps / 4.0
    # J: the most orders whose errors fit in eps/4 (the ladder's and _series')
    J, orders, series_err = _dirichlet_orders(spec, betas, budget, cache)
    # N: the fewest terms, at least 4M, whose tail bound fits in eps/4
    merged = normal_form[1]
    offsets = [(abs(float(c)), abs(e)) for c, e in merged.items() if c and e]
    if J == 0 or _tail_bound(offsets, J, hi) > budget:
        raise EpsUnachievableError(refusal)
    while _tail_bound(offsets, J, lo) > budget:  # the bound falls as N grows
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if _tail_bound(offsets, J, mid) > budget else (lo + 1, mid)
    N = lo
    w = sign_prefix(seq, N + 1)
    if spec.mode == "theta":
        w = [(1 - s) // 2 for s in w]  # theta_n, 0 or 1
    head = _head_logs(merged, spec.start, w)
    series = _series(orders, w)
    log_value = math.fsum(head + [series])
    # Rounding, with u = 2^-53.  Each head run rounds its exact product once,
    # which moves its log by at most 2u, and takes a log good to 4 ulps: off
    # by <= 2u + 8u|t|.  float(series) adds u|series|, and fsum rounds the
    # exact sum once: u|log P|.  _ROUND_UP covers the rounding of this bound.
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
    normal_form = factored_normal_form(spec.term)
    _require_ok(spec, normal_form)
    if cache is None:
        cache = DirichletCache()
    log_value, est, n, j = _accel_components(spec, eps, cache, normal_form)
    if est > eps:
        raise EpsUnachievableError(f"certified error {est:g} exceeds eps {eps:g}")
    return EvalResult(math.exp(log_value), log_value, est, "accel", n, j)

_BLOCK_CAP = 1 << 17


def _top_exponent(q: int, n: int) -> int:
    """Largest K with q^K <= n (n >= 1), in exact integer arithmetic."""
    return next(k for k in range(n.bit_length()) if q ** (k + 1) > n)


def _log1p_pairs(merged: dict) -> list[tuple[Fraction, Fraction]]:
    """Pairs (a_i, b_i) with R(n) = prod_i (n + a_i)/(n + b_i), from the
    offsets {c: E} of the normal form: the sorted numerator offsets a_i
    matched with the sorted denominator offsets b_i (a checked term has
    K' = 1)."""
    num = sorted(c for c, e in merged.items() for _ in range(e))
    den = sorted(c for c, e in merged.items() for _ in range(-e))
    return list(zip(num, den))


def _direct_sums(spec: ProductSpec, K: int, normal_form):
    """Partial sums S_m = sum_{start <= n < m} w_n ln R(n): ({m: S_m} for
    m = q^1..q^K and every block start, the mean of S_(n+1) over [q^(K-1),
    q^K), fl_round), where fl_round bounds the rounding error of each."""
    import numpy as np

    seq, term, start, q = spec.seq, spec.term, spec.start, spec.seq.q
    n_used, fb_lo = q**K, q ** (K - 1)
    n_safe = max(start, int(math.floor(term.max_root_magnitude())) + 1)
    pairs = _log1p_pairs(normal_form[1])
    # delta over [kB, (k+1)B) is delta_k times delta over [0, B)
    B = q ** min(K - 1, _top_exponent(q, _BLOCK_CAP))  # divides fb_lo
    base = delta_prefix(seq, B)
    weights = {s: s * base if spec.mode == "delta" else (1 - s * base) // 2 for s in (1, -1)}
    # w_n ln R(n) is log1p(nu/(n + c)) per pair (a, b), d = a - b: nu = d and
    # c = b where w_n = 1, nu = -d and c = a where w_n = -1, as -ln(1 + d/(n +
    # b)) = ln(1 - d/(n + a)), and nu = 0 where w_n = 0.  For each block sign,
    # nu and j + c over j in [0, B) are formed once.
    j = np.arange(B, dtype=np.float64)
    terms = {s: [(float(a - b) * w, j + np.where(w < 0, float(a), float(b))) for a, b in pairs]
             for s, w in weights.items()}
    ramp = B - j  # hi - n over a block
    logs, tmp = np.empty(B), np.empty(B)
    sums: dict[int, float] = {}
    running = abs_head = mean_acc = 0.0
    pos = start
    while pos < n_used:
        sums[pos] = running
        k, j0 = divmod(pos, B)
        lo, hi, s = k * B, (k + 1) * B, sign_at(seq, k)
        lv, e = logs[j0:], min(max(n_safe, pos), hi)
        if e > pos:  # exact terms below n_safe
            w = weights[s]
            try:
                lv[:e - pos] = [int(w[n - lo]) * math.log(evaluate_real(term, n))
                                for n in range(pos, e)]
            except EvaluationError as exc:
                raise PositivityError(str(exc)) from None
            abs_head += float(np.abs(lv[:e - pos]).sum())
        # w_n ln R(n) for n = j + kB in [e, hi): one add, divide and log1p per
        # pair, the first pair in place in lv
        out, x = lv[e - pos:], tmp[e - lo:]
        if not pairs:  # R(n) = 1
            out.fill(0.0)
        for i, (nu, off) in enumerate(terms[s]):
            y = x if i else out
            np.add(off[e - lo:], float(lo), out=y)
            np.log1p(np.divide(nu[e - lo:], y, out=y), out=y)
            if i:
                out += y
        if pos < B:  # chunk 0 holds the boundaries below B; running is 0 here
            cs = np.cumsum(lv)
            sums.update((q**i, float(cs[q**i - pos - 1])) for i in range(1, K) if q**i < B)
            total = float(cs[-1])
        else:
            total = running + float(np.einsum("i->", lv))
        if pos >= fb_lo:  # sum_{pos<=n<hi} S_(n+1) = (hi-pos) S_pos + sum_n t_n (hi-n)
            mean_acc += (hi - pos) * running + float(np.einsum("i,i->", ramp[j0:], lv))
        running, pos = total, hi
    sums[n_used] = running

    # fl_round, with u = 2^-53 and n0 = min(n_safe, q^K).  Terms: each of the
    # h = n0 - start exact terms rounds R(n) and takes a log good to 4 ulps,
    # times w_n exactly: off by <= 2u + 8u |t|.  For a pair with offset c (b or
    # a), rounding c, j + c and kB + (j + c) moves n + c by (2 + 3 rho) u (n +
    # c), where rho = max(1, -m/(n0 + m)), m = min(a, b), bounds |c|/(n + c),
    # so that |j + c| <= (1 + 2 rho)(n + c) covers a negative c.  With the
    # rounding of d and of the quotient, x = nu/(n + c) moves by (4 + 3 rho) u
    # |x|, hence log1p(x) by (4 + 3 rho) u |d|/(n + m), as |x/(1 + x)| is |d|/(n
    # + a) or |d|/(n + b); log1p's own 4 ulps of |log1p(x)| <= |d|/(n + m) add
    # 8u |d|/(n + m), and adding up P pairs (P - 1) u |d|/(n + m).  As A_i =
    # |d| (1/(n0 + m) + ln((q^K - 1 + m)/(n0 + m))) >= sum_{n0 <= n < q^K}
    # |d|/(n + m), the terms are off by E <= u (2h + 8 abs_head + sum_i (P + 11
    # + 3 rho_i) A_i), and A = abs_head + sum_i A_i >= sum |t_n|.  Sums: each
    # S_m is a tree of additions of depth D <= B + chunks + 2 (a chunk sum,
    # einsum or cumsum in any order, has depth < B): off by E + D u A to first
    # order.  The mean adds the final block's term and ramp-dot errors times
    # B/(q^K - q^(K-1)) <= 1, the products, the additions and the division: 2E
    # + 5 D u A; a sixth D u A covers O(u^2).
    n0, u = min(n_safe, n_used), 2.0**-53
    a_tot, e_bulk = abs_head, 0.0
    for a, b in pairs if n0 < n_used else ():
        d, m = abs(float(a - b)), float(min(a, b))
        a_i = d * (1.0 / (n0 + m) + math.log((n_used - 1 + m) / (n0 + m)))
        a_tot += a_i
        e_bulk += (len(pairs) + 11 + 3 * max(1.0, -m / (n0 + m))) * a_i
    depth_u = (B + n_used // B - start // B + 2) * u
    fl_round = 2.0 * u * (2 * (n0 - start) + 8 * abs_head + e_bulk) + 6.0 * depth_u * a_tot
    return sums, mean_acc / (n_used - fb_lo), fl_round


def evaluate_direct(spec: ProductSpec, N: int,
                    cache: DirichletCache | None = None) -> EvalResult:
    """Baseline oracle: sum weighted logs to the largest q^K <= N.

    The log is the mean of the partial sums over the final block; the
    estimate is the spread of the last few block-boundary partial sums, plus
    the gap between the last of them and the mean, times 2q (q is the
    worst-case ratio implied by the n^(log_q(q-1)) growth of the partial
    sums of the exponents), plus fl_round."""
    normal_form = factored_normal_form(spec.term)
    _require_ok(spec, normal_form)
    q = spec.seq.q
    if N < q * q:
        raise ValueError(f"direct evaluation needs N >= q^2 = {q * q}")
    K = _top_exponent(q, N)
    sums, log_value, fl_round = _direct_sums(spec, K, normal_form)
    last = [sums[q**k] for k in range(max(1, K - q + 1), K + 1)]
    est = 2.0 * q * (max(last) - min(last) + abs(sums[q**K] - log_value)) + fl_round
    return EvalResult(math.exp(log_value), log_value, est, "direct", q**K, 0)


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


def verify_identity(spec: ProductSpec, rhs_value: float, tol: float,
                    cache: DirichletCache | None = None,
                    method: str = "accel", direct_n: int | None = None) -> IdentityReport:
    """Compare the evaluated product with a positive closed-form value.

    Passes iff |log lhs - log rhs| <= tol + est_error; the accelerated
    method asks for eps = tol/4.  Evaluation failures are reported as
    failures with a reason, not raised.
    """
    eps = _verify_eps(tol)
    if rhs_value <= 0:
        raise ValueError("rhs_value must be positive")
    try:
        if method == "accel":
            res = evaluate_product(spec, eps=eps, cache=cache)
        elif method == "direct":
            n = direct_n if direct_n is not None else spec.seq.q**10
            res = evaluate_direct(spec, n, cache=cache)
        else:
            raise ValueError(f"unknown method {method!r}")
    except (PositivityError, EpsUnachievableError, ProductRejectedError) as exc:
        return IdentityReport(False, math.nan, rhs_value, math.inf, math.inf,
                              0, method, reason=str(exc))
    dlog = abs(res.log_value - math.log(rhs_value))
    ok = dlog <= tol + res.est_error
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


def build_scaling_term(seq: MultiplicativeSequence, a, b) -> tuple[FactorList, Fraction]:
    """Combined single-product form of the base/q self-similarity for
    f(a,b) = prod ((n+a)/(n+b))^delta_n, and its exact rational RHS
    prod_{k=1}^{q-1} ((a+k)/(b+k))^delta_k."""
    a, b = as_fraction(a), as_fraction(b)
    q = seq.q
    triples = [(1, a, 1), (1, b, -1), (q, b, 1), (q, a, -1)]
    rhs = Fraction(1)
    for k in range(1, q):
        if seq.signs[k] == 1:
            triples += [(q, b + k, 1), (q, a + k, -1)]
            rhs *= Fraction(a + k, b + k)
        else:
            triples += [(q, a + k, 1), (q, b + k, -1)]
            rhs *= Fraction(b + k, a + k)
    return factor_list(triples), rhs


def build_gamma_ratio_term(seq: MultiplicativeSequence, a_list, b_list) -> tuple[FactorList, float]:
    """Combined single-product form of the base/q self-similarity for the
    theta-weighted product of prod_i (n+a_i)/(n+b_i), plus its Gamma RHS log."""
    from .gammafn import log_gamma

    a_list = [as_fraction(x) for x in a_list]
    b_list = [as_fraction(x) for x in b_list]
    if len(a_list) != len(b_list):
        raise ValueError("parameter lists must have equal lengths")
    if sum(a_list) != sum(b_list):
        raise ValueError("parameter sums must match exactly")
    q = seq.q
    triples = []
    for a, b in zip(a_list, b_list):
        triples += [(1, a, 1), (1, b, -1)]
        for k in range(q):
            if seq.signs[k] == 1:
                triples += [(q, b + k, 1), (q, a + k, -1)]
            else:
                triples += [(q, a + k, 1), (q, b + k, -1)]
    rhs_log = 0.0
    for k in range(1, q):
        if seq.signs[k] == -1:  # theta_k = 1
            for a, b in zip(a_list, b_list):
                rhs_log += (log_gamma(float((b + k) / q)) - log_gamma(float((a + k) / q))).real
    return factor_list(triples), rhs_log


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
    """
    from .sequences import make_sequence

    eps = _verify_eps(tol)
    seq = make_sequence("gtm", q, bits=theta_bits)
    if kind == "thm_f":
        a, b = as_fraction(params["a"]), as_fraction(params["b"])
        if a <= 0 or b <= 0:
            raise ValueError("thm_f needs a, b > 0")
        term, rhs = build_scaling_term(seq, a, b)
        rhs_log = math.log(float(rhs))
        mode = "delta"
    elif kind == "thm_frak":
        a_list = [as_fraction(x) for x in params["a_list"]]
        b_list = [as_fraction(x) for x in params["b_list"]]
        if any(x <= 0 for x in a_list + b_list):
            raise ValueError("thm_frak needs positive parameters")
        term, rhs_log = build_gamma_ratio_term(seq, a_list, b_list)
        mode = "theta"
    else:
        raise ValueError(f"unknown functional equation kind {kind!r}")
    spec = ProductSpec(seq, mode, 1, term)
    res = evaluate_product(spec, eps=eps, cache=cache)
    dlog = abs(res.log_value - rhs_log)
    return FunctionalEquationReport(dlog <= tol + res.est_error, kind,
                                    res.value, math.exp(rhs_log), dlog,
                                    res.est_error)
