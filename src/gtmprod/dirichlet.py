"""Sign-weighted Dirichlet constants F(s) = sum_n delta_n n^-s at integer s.

Splitting the index as n = q*m + k and expanding (qm+k)^-s binomially
turns strong q-multiplicativity into a downward ladder

    F(s) * (1 - c_0 q^-s) = P(s) + q^-s * sum_{i>=1} C(-s,i) q^-i c_i F(s+i)

with c_i = sum_k delta_k k^i and P(s) = sum_{k=1}^{q-1} delta_k k^-s.
Orders s >= 16 are summed directly (the tail is below N^(1-s)/(s-1));
lower orders descend one integer at a time.  The same machinery with the
all-plus pattern supplies zeta(s) for s >= 2.

The ladder runs in mpmath working precision because its consumers multiply
F(j) by exactly computed expansion coefficients that grow geometrically;
binary64 intermediate values would silently lose the product's tail.  The
persisted cache stores binary64 (that is its file contract); the extended
values are memoized per cache object only.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np

from .sequences import MultiplicativeSequence, delta_prefix, make_sequence

S_DIRECT = 16
_MP_DPS = 40
_MP_EPS = 1e-30
_I_CAP = 20000


class EpsUnachievableError(ArithmeticError):
    """Requested accuracy cannot be certified within the configured caps."""


def power_moments(seq: MultiplicativeSequence, i: int) -> int:
    """c_i = sum_{k=0}^{q-1} delta_k k^i, with 0^0 := 1."""
    if i < 0:
        raise ValueError("moment order must be >= 0")
    total = 0
    for k, s in enumerate(seq.signs):
        total += s * (1 if (k == 0 and i == 0) else k**i)
    return total


@dataclass
class CacheEntry:
    value: float
    eps: float
    method: str


def default_cache_path() -> Path:
    env = os.environ.get("GTMPROD_CACHE_DIR")
    base = Path(env) if env else Path.home() / ".cache" / "gtmprod"
    return base / "dirichlet.cache"


def _encode_value(v: float) -> str:
    return struct.pack(">d", v).hex()


def _decode_value(text: str) -> float:
    return struct.unpack(">d", bytes.fromhex(text))[0]


class DirichletCache:
    """Float64 cache of F(s) values with optional line-oriented persistence.

    File lines are ``seqspec|s|hex-binary64|eps|method``; unknown or
    malformed lines are ignored on load.  A cached value is reused only if
    its eps is at least as tight as the request.  Extended-precision
    values live in memory only.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[tuple[str, int], CacheEntry] = {}
        self._mp: dict[tuple[str, int], tuple[mp.mpf, float]] = {}
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self):
        for line in self.path.read_text().splitlines():
            parts = line.strip().split("|")
            if len(parts) != 5:
                continue
            spec, s_text, v_text, eps_text, method = parts
            try:
                key = (spec, int(s_text))
                entry = CacheEntry(_decode_value(v_text), float(eps_text), method)
            except (ValueError, struct.error):
                continue
            self._entries[key] = entry

    def save(self):
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lines = []
        for (spec, s), e in sorted(self._entries.items()):
            lines.append(f"{spec}|{s}|{_encode_value(e.value)}|{e.eps!r}|{e.method}")
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text("\n".join(lines) + ("\n" if lines else ""))
        os.replace(tmp, self.path)

    def lookup(self, spec: str, s: int, eps: float) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get((spec, s))
        if entry is not None and entry.eps <= eps:
            return entry
        return None

    def store(self, spec: str, s: int, value: float, eps: float, method: str):
        with self._lock:
            self._entries[(spec, s)] = CacheEntry(value, eps, method)
        self.save()

    def mp_lookup(self, spec: str, s: int):
        with self._lock:
            return self._mp.get((spec, s))

    def mp_store(self, spec: str, s: int, value, err: float):
        with self._lock:
            self._mp[(spec, s)] = (value, err)


def _direct_mp(seq: MultiplicativeSequence, s: int) -> tuple[mp.mpf, float]:
    """Plain summation for s >= S_DIRECT; tail below N^(1-s)/(s-1)."""
    target = _MP_EPS / 10.0
    n_terms = max(4, int(math.ceil((10.0 / (target * (s - 1))) ** (1.0 / (s - 1)))))
    signs = delta_prefix(seq, n_terms + 1)
    total = mp.mpf(0)
    for n in range(1, n_terms + 1):
        total += int(signs[n]) * mp.power(n, -s)
    tail = float(n_terms) ** (1 - s) / (s - 1)
    return total, tail + 1e-38


def _moment_bound(q: int, i: int) -> float:
    """Bound on q^-i |c_i|: |c_i| <= (q-1)^(i+1), so ((q-1)/q)^i (q-1).

    Formed from the ratio so that it stays inside binary64 range where
    q^-i alone underflows and (q-1)^(i+1) alone overflows.
    """
    return ((q - 1) / q) ** i * (q - 1)


def _ladder_level(seq: MultiplicativeSequence, s: int, cache: DirichletCache,
                  errs: dict[int, float]) -> mp.mpf:
    """One functional-equation step; F(s+i) values must already be memoized."""
    q = seq.q
    c0 = power_moments(seq, 0)
    denom = 1 - mp.mpf(c0) * mp.power(q, -s)
    denom_f = abs(float(denom))
    if denom_f < 1e-12:
        raise EpsUnachievableError(f"functional equation degenerates at s={s}")
    p_term = mp.mpf(0)
    for k in range(1, q):
        p_term += seq.signs[k] * mp.power(k, -s)
    zbound = 1.7  # |F(sigma)| <= zeta(2) for sigma >= 2
    total = mp.mpf(0)
    err_acc = 0.0
    binom = Fraction(1)
    i = 0
    peak = max(1, s * (q - 1) - q)
    qs = mp.power(q, -s)
    while True:
        i += 1
        binom *= Fraction(-s - i + 1, i)
        ci = power_moments(seq, i)
        if ci != 0:
            coef = mp.mpf(binom.numerator) / binom.denominator * mp.power(q, -i) * ci
            fv, ferr = _mp_F(seq, s + i, cache, errs)
            total += coef * fv
            err_acc += abs(float(coef * qs)) / denom_f * ferr
        bound = abs(float(mp.mpf(binom.numerator) / binom.denominator)) \
            * _moment_bound(q, i) * zbound
        if i > peak and bound * float(qs) / denom_f < _MP_EPS / 10.0:
            break
        if i > _I_CAP:
            raise EpsUnachievableError(f"ladder series did not converge by i={_I_CAP}")
    value = (p_term + qs * total) / denom
    # past the peak the term bounds decay at least geometrically; 8x covers
    # the remaining tail for every q <= 16
    trunc = 8.0 * bound * float(qs) / denom_f
    errs[s] = err_acc + trunc + 1e-36
    return value


def _mp_F(seq: MultiplicativeSequence, s: int, cache: DirichletCache,
          errs: dict[int, float] | None = None) -> tuple[mp.mpf, float]:
    """Extended-precision F(s) with a certified error bound."""
    hit = cache.mp_lookup(seq.spec, s)
    if hit is not None:
        return hit
    if errs is None:
        errs = {}
    with mp.workdps(_MP_DPS):
        if s >= S_DIRECT:
            value, err = _direct_mp(seq, s)
        else:
            value = _ladder_level(seq, s, cache, errs)
            err = errs[s]
    cache.mp_store(seq.spec, s, value, err)
    return value, err


def dirichlet_mp(seq: MultiplicativeSequence, s: int,
                 cache: DirichletCache | None = None) -> tuple[mp.mpf, float]:
    """F(s) in extended precision (internal engine behind dirichlet_value)."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    if not seq.nontrivial and s < 2:
        raise ValueError("the all-plus pattern needs s >= 2 (zeta pole at s=1)")
    if cache is None:
        cache = DirichletCache()
    value, err = _mp_F(seq, s, cache)
    return value, 4.0 * err  # first-order accounting with a x4 safety factor


_ZETA_SEQS: dict[int, MultiplicativeSequence] = {}


def zeta_mp(s: int, cache: DirichletCache | None = None) -> tuple[mp.mpf, float]:
    """zeta(s) for integer s >= 2 through the all-plus ladder."""
    if s < 2:
        raise ValueError("zeta ladder needs s >= 2")
    seq = _ZETA_SEQS.get(2)
    if seq is None:
        seq = make_sequence("gtm", 2, bits="0")
        _ZETA_SEQS[2] = seq
    return dirichlet_mp(seq, s, cache)


def dirichlet_value(seq: MultiplicativeSequence, s: int, eps: float = 1e-15,
                    cache: DirichletCache | None = None) -> tuple[float, float]:
    """Binary64 F(s) with certified eps_achieved <= eps (cache-aware)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if cache is None:
        cache = DirichletCache()
    if s >= 1 and (seq.nontrivial or s >= 2):
        hit = cache.lookup(seq.spec, s, eps)
        if hit is not None:
            return hit.value, hit.eps
    value_mp, err = dirichlet_mp(seq, s, cache)
    value = float(value_mp)
    eps_achieved = err + abs(value) * 2.0**-52 + 5e-324
    if eps_achieved > eps:
        raise EpsUnachievableError(
            f"achieved eps {eps_achieved:g} exceeds requested {eps:g}")
    cache.store(seq.spec, s, value, eps_achieved, "ladder")
    return value, eps_achieved


def _pattern_delta_bound(seq: MultiplicativeSequence):
    """Per-pattern bound |Delta_n| <= b1 * n^alpha + b0 (valid for n >= 1).

    From |Delta_{s q^k + t}| <= A D^k + M_k with D = |Delta_q| and
    A = max_{s<q} |Delta_s|: geometric growth when D >= 2, additive in the
    digit count when D <= 1 (covered by a generous constant).
    """
    A = max(abs(x) for x in seq.pattern.prefix_sums[: seq.q])
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
    estimate integrates the Delta-bound against s n^-(s+1).
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    if N < 4:
        raise ValueError("N must be at least 4")
    signs = delta_prefix(seq, N + 1).astype(np.float64)
    n = np.arange(1, N + 1, dtype=np.float64)
    powers = n**(-float(s))
    partial = float(np.dot(signs[1:], powers))
    abs_sum = float(powers.sum())
    delta_next = int(np.sum(delta_prefix(seq, N + 1), dtype=np.int64))
    value = partial - delta_next * float(N + 1) ** (-s)

    b1, alpha, log_bound = _pattern_delta_bound(seq)
    if b1 is not None:
        # sum_{n>N} b1 n^(alpha-s-1) * s <= s*b1*N^(alpha-s)/(s-alpha) + edge
        err = s * b1 * (N ** (alpha - s)) / (s - alpha) + b1 * N ** (alpha - s - 1)
    else:
        bound_at = log_bound(4.0 * N)
        err = s * bound_at * (N ** (-s)) / s + bound_at * N ** (-s - 1)
        err += bound_at * N ** (-s)  # slack for the slowly growing log factor
    # accumulated float64 noise: elementwise pow error plus dot-product
    # rounding, which behaves like a random walk over N terms
    err_round = 2.0**-52 * abs_sum * (math.sqrt(N) + 8.0)
    err = 2.0 * err + err_round + 1e-16 * abs(value)
    return value, err
