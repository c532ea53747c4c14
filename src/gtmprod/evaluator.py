"""Certified evaluation of sign-weighted infinite products of rational terms.

``check_product`` decides every precondition of a product exactly from
the term's factors (see ``ratfun``): zeros and poles, the convergence
criteria, and positivity of R(n) for every n >= start.  For a product
term R with exponents delta_n the evaluator then writes

    log P = head + sum_j beta_j * T_j + sum_n delta_n rho_J(n) + tail,

where beta_j are the exact coefficients of ln R(n) in powers of 1/n
(a closed form in the factors' offsets), T_j is the Dirichlet tail
sum_{n>=M} delta_n n^-j, and rho_J is the literal difference
ln R(n) - sum_j beta_j n^-j.  The head below the series cutoff M is
evaluated exactly, as quotients of integer products, which keeps the
beta_j / T_j pairing free of the cancellation that ruins the naive split
at n = 1.
Theta exponents use theta_n = (1 - delta_n)/2, so the theta logarithm is
half the difference of the plain and delta logarithms; the plain series
uses zeta tails from the all-plus ladder rather than the Gamma closed
form, so closed forms remain an independent cross-check.

The baseline evaluator sums terms outright, averages the partial
log-sums over the final base-q block, and certifies the result from the
spread of the last few block-boundary partial sums.  Past the roots it
takes ln R(n) as one log1p per numerator/denominator pair, and its signs
block by block from one prefix of B = q^m <= 2^17 signs (delta over
[kB, (k+1)B) is delta_k times delta over [0, B)), so memory is O(B) for
every N; fl_round bounds the rounding of every sum in the worst case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .dirichlet import DirichletCache, EpsUnachievableError, dirichlet_mp, zeta_mp
from .ratfun import (
    EvaluationError,
    FactorList,
    evaluate_real,
    exact_real_value,
    factor_list,
    factored_convergence,
    factored_log_expansion,
    factored_normal_form,
    factored_zeros_poles,
    first_non_positive,
)
from .sequences import MultiplicativeSequence, delta_prefix, sign_at

DEFAULT_J = 12
DEFAULT_N = 20_000
MAX_J = 16
MAX_N = 1_000_000


class ProductRejectedError(ValueError):
    """The product spec fails a convergence or well-definedness criterion."""

    def __init__(self, reason: str):
        super().__init__(f"rejected: {reason}")
        self.reason = reason


class PositivityError(ArithmeticError):
    """A term value failed to be a positive real during evaluation."""


@dataclass(frozen=True)
class ProductSpec:
    """An infinite product: sequence, exponent mode, start index, and term."""

    seq: MultiplicativeSequence
    mode: str
    start: int
    term: FactorList

    def __post_init__(self):
        if self.mode not in ("delta", "theta"):
            raise ValueError(f"mode must be 'delta' or 'theta', got {self.mode!r}")


@dataclass(frozen=True)
class ProductCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class EvalResult:
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
        return ProductCheck(False, verdict.reason)
    if spec.term.constant <= 0:
        return ProductCheck(False, "non-positive-term")
    n = first_non_positive(spec.term, spec.start)
    if n is not None:
        return ProductCheck(False, f"non-positive-term at n={n}")
    return ProductCheck(True)


def _require_ok(spec: ProductSpec):
    chk = check_product(spec)
    if not chk:
        raise ProductRejectedError(chk.reason)


def _series_cutoff(term: FactorList) -> int:
    """First index where the 1/n expansion terms are uniformly below 2^-j."""
    return int(math.ceil(2.0 * max(1.0, term.max_root_magnitude()))) + 1


def _consolidated_offsets(term: FactorList):
    """Normalize to K * prod (n + c)^E with exact root-wise consolidation.

    For convergent terms K = constant * prod alpha^exponent is exactly 1,
    so factors that cancel algebraically vanish before any float work and
    the vector evaluation of ln R(n) carries no cancellation noise.
    """
    scale, merged = factored_normal_form(term)
    offsets = [(float(c), e) for c, e in sorted(merged.items()) if e != 0]
    return math.log(float(scale)) if scale != 1 else 0.0, offsets


def _log_term_vector(term: FactorList, n: np.ndarray) -> np.ndarray:
    ln_k, offsets = _consolidated_offsets(term)
    out = np.full(n.shape, ln_k)
    for c, e in offsets:
        out += e * np.log(n + c)
    return out


def _log_magnitude_bound(term: FactorList, n_hi: float) -> float:
    """Bound on the intermediate magnitudes inside the vector ln R(n)."""
    _, offsets = _consolidated_offsets(term)
    return 1.0 + sum(abs(e) for _, e in offsets) * math.log(max(n_hi, 2.0) + 1.0)


def _accel_components(term: FactorList, seq: MultiplicativeSequence, mode: str,
                      J: int, N: int, cache: DirichletCache):
    """Shared machinery: returns delta-part (n>=1), plain part (theta only),
    and the combined error estimate pieces."""
    betas = factored_log_expansion(term, J)
    M = _series_cutoff(term)
    N_eff = max(N, 4 * M)

    head_delta = 0.0
    head_plain = 0.0
    abs_acc = 0.0
    for n in range(1, M):
        try:
            v = evaluate_real(term, n)
        except EvaluationError as exc:
            raise PositivityError(str(exc)) from None
        l = math.log(v)
        head_delta += sign_at(seq, n) * l
        head_plain += l
        abs_acc += abs(l)

    mp_err = 0.0
    with mp.workdps(40):
        s_delta = mp.mpf(0)
        s_plain = mp.mpf(0)
        for j, bj in enumerate(betas, start=1):
            if bj == 0:
                continue
            bj_mp = mp.mpf(bj.numerator) / bj.denominator
            f_j, err_j = dirichlet_mp(seq, j, cache)
            t_j = f_j - mp.fsum(
                sign_at(seq, n) * mp.power(n, -j) for n in range(1, M))
            s_delta += bj_mp * t_j
            mp_err += abs(float(bj)) * err_j
            abs_acc += abs(float(bj_mp * t_j))
            if mode == "theta":
                z_j, zerr_j = zeta_mp(j, cache)  # beta_1 = 0 in theta mode
                zt_j = z_j - mp.fsum(mp.power(n, -j) for n in range(1, M))
                s_plain += bj_mp * zt_j
                mp_err += abs(float(bj)) * zerr_j
                abs_acc += abs(float(bj_mp * zt_j))
        s_delta = float(s_delta)
        s_plain = float(s_plain)

    n_arr = np.arange(M, N_eff + 1, dtype=np.float64)
    ln_r = _log_term_vector(term, n_arr)
    x = 1.0 / n_arr
    series = np.zeros_like(n_arr)
    for bj in reversed(betas):
        series = (series + float(bj)) * x
    rho = ln_r - series
    weights = delta_prefix(seq, N_eff + 1)[M:].astype(np.float64)
    rho_delta = float(np.einsum("i,i->", weights, rho))
    rho_plain = float(np.sum(rho))
    abs_acc += float(np.abs(rho).sum())

    # the literal remainder at the cutoff, evaluated precisely so the tail
    # estimate reflects the analytic decay rather than the float noise floor
    with mp.workdps(40):
        v = exact_real_value(term, N_eff)  # positive beyond M
        ln_exact = mp.log(mp.mpf(v.numerator)) - mp.log(mp.mpf(v.denominator))
        series_exact = mp.fsum(
            (mp.mpf(b.numerator) / b.denominator) * mp.mpf(N_eff) ** -j
            for j, b in enumerate(betas, start=1))
        rho_cut = abs(float(ln_exact - series_exact))
    tail = 4.0 * N_eff * max(rho_cut, 5e-324)

    count = N_eff - M + 1.0
    mag = _log_magnitude_bound(term, N_eff)
    fl_round = 2.0**-52 * mag * (16.0 + 4.0 * math.sqrt(count)) \
        + 2.0**-50 * (1.0 + abs_acc)
    est = tail + mp_err + fl_round

    l_delta = head_delta + s_delta + rho_delta
    l_plain = head_plain + s_plain + rho_plain
    return l_delta, l_plain, est, N_eff


def _accel_log(spec: ProductSpec, J: int, N: int, cache: DirichletCache):
    l_delta, l_plain, est, n_eff = _accel_components(
        spec.term, spec.seq, spec.mode, J, N, cache)
    if spec.mode == "delta":
        log_value = l_delta
        if spec.start == 0:
            try:
                log_value += math.log(evaluate_real(spec.term, 0))
            except EvaluationError as exc:
                raise PositivityError(str(exc)) from None
        return log_value, est, n_eff
    # theta_0 = 0, so start 0 and 1 agree in theta mode
    return 0.5 * (l_plain - l_delta), est, n_eff


def evaluate_product(spec: ProductSpec, eps: float = 1e-9,
                     cache: DirichletCache | None = None) -> EvalResult:
    """Accelerated evaluation with certified absolute error on the logarithm.

    Starts at (J, N) = (12, 20000) and escalates by doubling N and then
    bumping J, capped at (16, 10^6); raises EpsUnachievableError if the
    caps cannot certify eps.
    """
    _require_ok(spec)
    if cache is None:
        cache = DirichletCache()
    j, n = DEFAULT_J, DEFAULT_N
    while True:
        log_value, est, n_eff = _accel_log(spec, j, n, cache)
        if est <= eps or (j >= MAX_J and n >= MAX_N):
            break
        n = min(2 * n, MAX_N)
        j = min(j + 1, MAX_J)
    if est > eps:
        raise EpsUnachievableError(
            f"certified error {est:g} exceeds eps {eps:g} at caps")
    return EvalResult(math.exp(log_value), log_value, est, "accel", n_eff, j)


_BLOCK_CAP = 1 << 17


def _top_exponent(q: int, n: int) -> int:
    """Largest K with q^K <= n (n >= 1), in exact integer arithmetic."""
    return next(k for k in range(n.bit_length()) if q ** (k + 1) > n)


def _direct_sums(spec: ProductSpec, K: int):
    """Partial sums S_m = sum_{start <= n < m} w_n ln R(n): ({m: S_m} for
    m = q^1..q^K and every block start, the mean of S_(n+1) over [q^(K-1),
    q^K), fl_round), where fl_round bounds the rounding error of each."""
    seq, term, start, q = spec.seq, spec.term, spec.start, spec.seq.q
    n_used, fb_lo = q**K, q ** (K - 1)
    n_safe = max(start, int(math.floor(term.max_root_magnitude())) + 1)
    # ln R(n) = sum_i log1p((a_i - b_i)/(n + b_i)); a checked term has K' = 1
    _, merged = factored_normal_form(term)
    num = sorted(c for c, e in merged.items() for _ in range(e))
    den = sorted(c for c, e in merged.items() for _ in range(-e))
    pairs = [(float(a - b), b) for a, b in zip(num, den)]
    # delta over [kB, (k+1)B) is delta_k times delta over [0, B)
    B = q ** min(K - 1, _top_exponent(q, _BLOCK_CAP))  # divides fb_lo
    base = delta_prefix(seq, B).astype(np.float64)
    weights = {s: s * base if spec.mode == "delta" else 0.5 - 0.5 * s * base
               for s in (1, -1)}
    j_all = np.arange(B, dtype=np.float64)
    ramps = {s: w * (B - j_all) for s, w in weights.items()}
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
            try:
                lv[:e - pos] = [math.log(evaluate_real(term, n)) for n in range(pos, e)]
            except EvaluationError as exc:
                raise PositivityError(str(exc)) from None
            abs_head += float(np.abs(lv[:e - pos]).sum())
        lv[e - pos:] = 0.0
        for d, b in pairs:  # n + b = j + (kB + b)
            x = np.add(j_all[e - lo:], float(lo + b), out=tmp[e - lo:])
            lv[e - pos:] += np.log1p(np.divide(d, x, out=x), out=x)
        w = weights[s][j0:]
        if pos < B:  # chunk 0 holds the boundaries below B
            cs = running + np.cumsum(w * lv)
            sums.update((q**i, float(cs[q**i - pos - 1])) for i in range(1, K) if q**i < B)
            total = float(cs[-1])
        else:
            total = running + float(np.einsum("i,i->", w, lv))
        if pos >= fb_lo:  # sum_{pos<=n<hi} S_(n+1) = (hi-pos) S_pos + sum_n t_n (hi-n)
            mean_acc += (hi - pos) * running + float(np.einsum("i,i->", ramps[s][j0:], lv))
        running, pos = total, hi
    sums[n_used] = running

    # fl_round, with u = 2^-53 and n0 = min(n_safe, q^K).  Terms: each of the
    # h = n0 - start exact terms rounds R(n) and takes a log good to 4 ulps:
    # off by <= 2u + 8u |t|.  For a pair, rounding d, kB + b, j + (kB + b) and
    # the quotient moves x = d/(n + b) by (3 + rho) u |x|, where rho = max(1,
    # -b/(n0 + b)) covers a negative kB + b (rounded relative to |b|), hence
    # log1p(x) by (3 + rho) u |d|/(n + m), m = min(a, b); log1p's own 4 ulps
    # of |log1p(x)| <= |d|/(n + m) add 8u |d|/(n + m), and adding up P pairs
    # (P - 1) u |d|/(n + m).  As A_i = |d| (1/(n0 + m) + ln((q^K - 1 + m)/(n0
    # + m))) >= sum_{n0 <= n < q^K} |d|/(n + m), the terms are off by E <= u (2h
    # + 8 abs_head + sum_i (P + 10 + rho_i) A_i), and A = abs_head + sum_i A_i
    # >= sum |t_n|.  Sums: each S_m is a tree of additions of depth D <= B +
    # chunks + 2 (a chunk sum, einsum or cumsum in any order, has depth < B):
    # off by E + D u A to first order.  The mean adds the final block's term
    # and ramp-dot errors times B/(q^K - q^(K-1)) <= 1, the products, the
    # additions and the division: 2E + 5 D u A; a sixth D u A covers O(u^2).
    n0, u = min(n_safe, n_used), 2.0**-53
    a_tot, e_bulk = abs_head, 0.0
    for d, b in pairs if n0 < n_used else ():
        m = float(b) + min(d, 0.0)
        a_i = abs(d) * (1.0 / (n0 + m) + math.log((n_used - 1 + m) / (n0 + m)))
        a_tot += a_i
        e_bulk += (len(pairs) + 10 + max(1.0, -float(b) / (n0 + float(b)))) * a_i
    depth_u = (B + n_used // B - start // B + 2) * u
    fl_round = 2.0 * u * (2 * (n0 - start) + 8 * abs_head + e_bulk) + 6.0 * depth_u * a_tot
    return sums, mean_acc / (n_used - fb_lo), fl_round


def evaluate_direct(spec: ProductSpec, N: int,
                    cache: DirichletCache | None = None) -> EvalResult:
    """Baseline oracle: sum weighted logs to the largest q^K <= N.

    The log is the mean of the partial sums over the final block; the
    estimate is the spread of the last few block-boundary partial sums times
    q, the worst-case ratio implied by the n^(log_q(q-1)) growth of the
    partial sums of the exponents, plus fl_round."""
    _require_ok(spec)
    q = spec.seq.q
    if N < q * q:
        raise ValueError(f"direct evaluation needs N >= q^2 = {q * q}")
    K = _top_exponent(q, N)
    sums, log_value, fl_round = _direct_sums(spec, K)
    last = [sums[q**k] for k in range(max(1, K - q + 1), K + 1)]
    est = 2.0 * q * (max(last) - min(last) + abs(sums[q**K] - log_value)) + fl_round
    return EvalResult(math.exp(log_value), log_value, est, "direct", q**K, 0)


@dataclass(frozen=True)
class IdentityReport:
    ok: bool
    lhs_value: float
    rhs_value: float
    abs_dlog: float
    est_error: float
    terms_used: int
    method: str
    reason: str | None = None


def verify_identity(spec: ProductSpec, rhs_value: float, tol: float,
                    cache: DirichletCache | None = None,
                    method: str = "accel", direct_n: int | None = None) -> IdentityReport:
    """Compare the evaluated product with a positive closed-form value.

    Passes iff |log lhs - log rhs| <= tol + est_error.  Evaluation
    failures are reported as failures with a reason, not raised.
    """
    if rhs_value <= 0:
        raise ValueError("rhs_value must be positive")
    try:
        if method == "accel":
            res = evaluate_product(spec, eps=max(tol / 4.0, 1e-13), cache=cache)
        elif method == "direct":
            res = evaluate_direct(spec, direct_n or spec.seq.q**10, cache=cache)
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


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational parameter, got {type(x).__name__}")


def build_scaling_term(seq: MultiplicativeSequence, a, b) -> tuple[FactorList, Fraction]:
    """Combined single-product form of the base/q self-similarity for
    f(a,b) = prod ((n+a)/(n+b))^delta_n, and its exact rational RHS
    prod_{k=1}^{q-1} ((a+k)/(b+k))^delta_k."""
    a, b = _as_fraction(a), _as_fraction(b)
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

    a_list = [_as_fraction(x) for x in a_list]
    b_list = [_as_fraction(x) for x in b_list]
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


@dataclass(frozen=True)
class FunctionalEquationReport:
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

    seq = make_sequence("gtm", q, bits=theta_bits)
    if kind == "thm_f":
        a, b = _as_fraction(params["a"]), _as_fraction(params["b"])
        if a <= 0 or b <= 0:
            raise ValueError("thm_f needs a, b > 0")
        term, rhs = build_scaling_term(seq, a, b)
        rhs_log = math.log(float(rhs))
        mode = "delta"
    elif kind == "thm_frak":
        a_list = [_as_fraction(x) for x in params["a_list"]]
        b_list = [_as_fraction(x) for x in params["b_list"]]
        if any(x <= 0 for x in a_list + b_list):
            raise ValueError("thm_frak needs positive parameters")
        term, rhs_log = build_gamma_ratio_term(seq, a_list, b_list)
        mode = "theta"
    else:
        raise ValueError(f"unknown functional equation kind {kind!r}")
    spec = ProductSpec(seq, mode, 1, term)
    res = evaluate_product(spec, eps=max(tol / 10.0, 1e-12), cache=cache)
    dlog = abs(res.log_value - rhs_log)
    return FunctionalEquationReport(dlog <= tol + res.est_error, kind,
                                    res.value, math.exp(rhs_log), dlog,
                                    res.est_error)


def telescoping_partial_closed(q: int, a, N: int) -> Fraction:
    """Exact partial product of the alternating telescoping identity:
    P_N = (1/q) * ((a+(N+1)q)/(qa+(N+1)q))^(+-1), sign (-1)^N."""
    a = _as_fraction(a)
    ratio = Fraction(a + (N + 1) * q, q * a + (N + 1) * q)
    return Fraction(1, q) * (ratio if N % 2 == 0 else 1 / ratio)


def telescoping_limit(q: int, a, N: int = 100_000) -> float:
    """Partial product at N of prod ((qn+a)(qn+a+q)/((qn+qa)(qn+qa+q)))^(-1)^n.

    The limit is 1/q; partial products collapse in pairs, so the value at
    N is within O(1/N) of the limit.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    a = _as_fraction(a)
    if a <= 0:
        raise ValueError("a must be positive")
    n = np.arange(0, N + 1, dtype=np.float64)
    af = float(a)
    total = (np.log(q * n + af) + np.log(q * n + af + q)
             - np.log(q * n + q * af) - np.log(q * n + q * af + q))
    signs = 1.0 - 2.0 * (np.arange(0, N + 1) % 2)
    return math.exp(float(np.einsum("i,i->", signs, total)))
