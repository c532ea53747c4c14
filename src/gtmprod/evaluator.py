"""Certified evaluation of sign-weighted infinite products of rational terms.

``ratfun.check_product`` decides every precondition of a product exactly
from the term's factors: zeros and poles, the convergence criteria, and
positivity of R(n) for every n >= start.  For a product term R with
weights w_n = delta_n or theta_n = (1 - delta_n)/2 the accelerated
evaluator writes

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
the record's ``weights``; this module imports neither numpy nor mpmath.

The direct oracle, ``evaluate_direct``, lives in ``direct``, which
imports neither this module nor ``dirichlet``, so its independence of the
ladder holds by import.  The product spec, its exact check and the result
both evaluators return live in ``ratfun``.  ``ProductSpec``,
``check_product``, ``ProductRejectedError``, ``EvalResult``,
``evaluate_direct`` and ``DIRECT_N_LIMIT`` are importable from here too;
``verify_identity`` calls the oracle for ``method="direct"``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .direct import DIRECT_N_LIMIT, evaluate_direct  # DIRECT_N_LIMIT: re-exported
from .dirichlet import MAX_J, MAX_N, DirichletCache, EpsUnachievableError, check_eps
from .ratfun import (
    _ROUND_UP,
    EvalResult,
    FactorList,
    ProductRejectedError,
    ProductSpec,
    _exp,
    _fraction,
    _log_quotient,
    _require_ok,
    as_pair,
    check_product,  # re-exported
    factored_convergence,
    over_common_denominator,
    value_pairs,
)
from .sequences import MultiplicativeSequence, partial_sum

if TYPE_CHECKING:
    from fractions import Fraction

_HEAD_RUN = 64  # the most terms whose exact product is rounded at once
_HEAD_BITS = 1 << 16  # bits of a run's numerator; catalog, family and pinned runs stay below 2^15


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
    pairs = term.log_pairs(MAX_J)
    J, orders, series_err, over = record.fit(pairs, budget)
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
                spent = f" and the {series_err:.1e} of orders 1-{J} are" if J else " is"
                raise EpsUnachievableError(
                    f"eps {eps:g} is below the accuracy of the Dirichlet constants: "
                    f"order {J + 1} is good to {record.orders[J][2]:.1e}; its charge "
                    f"{over:.1e} (|beta_{J + 1}| = {pairs[J][2]:.1e}){spent} past "
                    f"eps/4 = {budget:.1e}")
            raise EpsUnachievableError(refusal)
        while hi - lo > 1:  # the bound is over budget at lo and within it at hi
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _tail_bound(offsets, J, mid) > budget else (lo, mid)
        N = hi
    # The head has k weighted terms in [start, N], so at least ceil(k/_HEAD_RUN)
    # runs, and fl_round below charges 2u for each: its fsum is at least
    # 2 len(head).  Formed the same way, least <= the final estimate, so this
    # refusal, before the head is summed, refuses only what the final check would
    k = N + 1 - spec.start
    if spec.mode == "theta":  # the n with delta_n = -1
        k = (k - partial_sum(seq, N + 1) + partial_sum(seq, spec.start)) // 2
    bound = _tail_bound(offsets, J, N) + series_err
    least = bound + 2.0**-53 * _ROUND_UP * (2 * -(-k // _HEAD_RUN))
    if least > eps:
        raise EpsUnachievableError(f"certified error of at least {least:g} exceeds eps "
                                   f"{eps:g} (a lower bound, taken before the head is summed)")
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
    return log_value, bound + fl_round, N, J


def evaluate_product(spec: ProductSpec, eps: float = 1e-9,
                     cache: DirichletCache | None = None) -> EvalResult:
    """Accelerated evaluation with certified absolute error on the logarithm.

    (J, N) are chosen once from eps: J is the largest order <= MAX_J whose
    Dirichlet and fixed-point errors fit in eps/4, N the smallest N >= 4M whose
    proven tail bound fits in eps/4.  Raises EpsUnachievableError, before
    any summing, if that N would exceed MAX_N or if the head's least rounding
    bound already takes the certified error past eps, and after it if the
    whole rounding bound does.
    """
    check_eps(eps)
    _require_ok(spec)
    if cache is None:
        cache = DirichletCache()
    log_value, est, n, j = _accel_components(spec, eps, cache)
    if est > eps:
        raise EpsUnachievableError(f"certified error {est:g} exceeds eps {eps:g}")
    return EvalResult(_exp(log_value), log_value, est, "accel", n, j)

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
