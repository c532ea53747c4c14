"""Strongly q-multiplicative sign sequences.

A sequence here is a map n -> delta_n in {+1, -1} with delta_0 = +1 and
delta_{nq+k} = delta_n * delta_k for every base-q digit k.  It is fully
determined by its first q signs, so a ``MultiplicativeSequence`` is
``(q, signs)`` plus the ``spec`` it was named by.  Element access and partial sums walk
the base-q digits of n in O(log n) exact integer arithmetic, with no
array.  One engine lists signs, ``sign_range`` (delta over [lo, hi), with
``sign_prefix`` its lo = 0 case): it serves the accelerated evaluator's
weights, the ladder's direct sums, the direct oracle and ``gtmprod seq``.
One engine takes sign moments, ``block_moments`` (sum_j delta_j (j - H)^i
over a block of q^m, memoized): it serves the ladder's c_i and the
oracle's moment blocks.  One numpy engine grows a prefix block by block:
``delta_prefix`` (the signs, for the bulk arrays of ``dirichlet_direct``)
and ``partial_sums_upto`` (the partial sums, which the extremal
enumeration reads) are its two callers.  numpy is imported only inside the
bulk routines (``delta_prefix``, ``partial_sums_upto`` and
``extremal_partial_sums``), so digit access loads no array library.

Supported names:

* ``gtm``     -- fixed point of 0 -> 0 t_1 .. t_{q-1}, 1 -> complement,
                 read through (-1)^theta;
* ``dcount``  -- parity of the number of occurrences of one digit k;
* ``dparity`` -- parity of the base-q digit sum.

The last two name gtm patterns: ``dcount:3:1``, ``dparity:3`` and
``gtm:3:10`` are all (-1)^n, one sequence whose ``gtm_spec`` is gtm:3:10.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache
from itertools import product as _cartesian
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

EXTREMAL_Q_CAP = 6
EXTREMAL_K_CAP = 6


class SequenceError(ValueError):
    """Bad sequence construction parameters or spec string."""


class FrozenValue:
    """An immutable value, the base of the package's plain value classes.

    A subclass names its fields in ``_fields``, validates its arguments in
    ``__init__`` and stores them with ``_set``.  It is equal to and hashed
    by ``_key()``, its fields unless it overrides that, and is shown as
    ``Name(field=value, ...)``.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _as_int(x, what: str) -> int:
    """x itself if it is an int; anything else, bool included, is a TypeError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"{what} must be an int, got {type(x).__name__}")


def _check_q(q) -> int:
    """q if it is an int >= 2: a float or bool is a TypeError, a smaller int
    a SequenceError."""
    if _as_int(q, "q") < 2:
        raise SequenceError(f"q must be >= 2, got {q}")
    return q


def _as_bit(value) -> int:
    b = int(value)
    if b not in (0, 1):
        raise SequenceError(f"bit must be 0 or 1, got {value!r}")
    return b


def normalize_gtm_bits(q: int, bits) -> tuple[int, ...]:
    """Return (theta_1, ..., theta_{q-1}) from either accepted surface form.

    Both the bare tail ``t_1..t_{q-1}`` and the full word ``t_0 t_1..t_{q-1}``
    (which then must start with 0) are accepted; both appear in the wild.
    """
    if isinstance(bits, str):
        seq = [_as_bit(c) for c in bits]
    else:
        seq = [_as_bit(b) for b in bits]
    if len(seq) == q - 1:
        return tuple(seq)
    if len(seq) == q:
        if seq[0] != 0:
            raise SequenceError("q-length bit word must start with 0")
        return tuple(seq[1:])
    raise SequenceError(
        f"expected {q - 1} bits (or {q} with a leading 0), got {len(seq)}"
    )


def _gtm_spec(q: int, signs) -> str:
    """The ``gtm:<q>:<bits>`` spec of a sign pattern (theta_k = 1 where delta_k = -1)."""
    return "gtm:%d:%s" % (q, "".join("1" if s < 0 else "0" for s in signs[1:]))


class MultiplicativeSequence(FrozenValue):
    """A strongly q-multiplicative +-1 sequence, delta_0 .. delta_{q-1} = ``signs``.

    Equality and hashing read ``(q, signs)`` only; ``spec`` is the name it
    was given and is shown by.  q must be an int (a bool or a float is a
    TypeError).
    """

    _fields = ("q", "signs", "spec")

    def __init__(self, q: int, signs: tuple[int, ...], spec: str):
        _check_q(q)
        if len(signs) != q:
            raise SequenceError("need exactly q signs")
        if any(s not in (1, -1) for s in signs):
            raise SequenceError("signs must be +1 or -1")
        if signs[0] != 1:
            raise SequenceError("signs[0] must be +1")
        self._set(q, signs, spec)

    def _key(self):
        return (self.q, self.signs)

    @cached_property
    def nontrivial(self) -> bool:
        return any(s == -1 for s in self.signs)

    @cached_property
    def prefix_sums(self) -> tuple[int, ...]:
        """(Delta_0, ..., Delta_q): running sums of the first q signs."""
        out = [0]
        for s in self.signs:
            out.append(out[-1] + s)
        return tuple(out)

    @property
    def delta_q(self) -> int:
        return self.prefix_sums[self.q]

    @cached_property
    def gtm_spec(self) -> str:
        """The gtm spec of the pattern, shared by all of its names."""
        return _gtm_spec(self.q, self.signs)

    def __str__(self) -> str:
        return self.spec


def make_sequence(kind: str, q: int, *, bits=None, k: int | None = None) -> MultiplicativeSequence:
    """Construct a sequence of the given kind.

    ``gtm`` needs ``bits`` (theta_1..theta_{q-1}); ``dcount`` needs the
    counted digit ``k`` with 1 <= k <= q-1; ``dparity`` needs neither.
    The all-plus gtm pattern is constructible but flagged trivial; product
    evaluation rejects it downstream.  q and k must be ints (a bool or a
    float is a TypeError).
    """
    _check_q(q)
    if kind == "gtm":
        if bits is None:
            raise SequenceError("gtm sequence needs theta bits")
        signs = (1,) + tuple(1 - 2 * b for b in normalize_gtm_bits(q, bits))
        spec = _gtm_spec(q, signs)
    elif kind == "dcount":
        if k is None or not 1 <= _as_int(k, "k") <= q - 1:
            raise SequenceError(f"dcount digit k must satisfy 1 <= k <= q-1, got {k}")
        signs = tuple(-1 if j == k else 1 for j in range(q))
        spec = f"dcount:{q}:{k}"
    elif kind == "dparity":
        signs = tuple(1 - 2 * (j % 2) for j in range(q))
        spec = f"dparity:{q}"
    else:
        raise SequenceError(f"unknown sequence kind {kind!r}")
    return MultiplicativeSequence(q, signs, spec)


def parse_seq_spec(text: str) -> MultiplicativeSequence:
    """Parse ``gtm:<q>:<bits>``, ``dcount:<q>:<k>`` or ``dparity:<q>``."""
    parts = text.strip().split(":")
    try:
        if parts[0] == "gtm" and len(parts) == 3:
            return make_sequence("gtm", int(parts[1]), bits=parts[2])
        if parts[0] == "dcount" and len(parts) == 3:
            return make_sequence("dcount", int(parts[1]), k=int(parts[2]))
        if parts[0] == "dparity" and len(parts) == 2:
            return make_sequence("dparity", int(parts[1]))
    except SequenceError:
        raise
    except ValueError as exc:
        raise SequenceError(f"bad sequence spec {text!r}: {exc}") from None
    raise SequenceError(f"bad sequence spec {text!r}")


def _digits_msb(n: int, q: int) -> list[int]:
    if n == 0:
        return []
    out = []
    while n:
        n, d = divmod(n, q)
        out.append(d)
    out.reverse()
    return out


def sign_at(seq: MultiplicativeSequence, n: int) -> int:
    """delta_n: product of the pattern signs over the base-q digits of n."""
    if _as_int(n, "n") < 0:
        raise ValueError("n must be >= 0")
    signs = seq.signs
    q = seq.q
    out = 1
    while n:
        n, d = divmod(n, q)
        out *= signs[d]
    return out


def sign_range(seq: MultiplicativeSequence, lo: int, hi: int) -> list[int]:
    """delta_lo .. delta_(hi-1) as a list, the package's one list of signs.

    delta over [kB, (k+1)B), B = q^K, is delta_k times delta over [0, B).
    [0, B) and its negation grow by list extends to the largest B below hi -
    lo (1 for one sign), so the at most q + 1 blocks k0..k1-1 that cover
    [lo, hi) hold fewer than 3 (hi - lo) signs.  delta_k = delta_(k div q)
    delta_(k mod q) takes one ``sign_at`` per value of k div q, and none
    when k1 <= q, as from lo = 0.
    """
    if not 0 <= _as_int(lo, "lo") <= _as_int(hi, "hi"):
        raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi})")
    q, signs = seq.q, seq.signs
    plus, minus = [1], [-1]  # delta over [0, B) and its negation
    while len(plus) * q < hi - lo:
        up, down = [], []
        for s in signs:
            up += plus if s > 0 else minus
            down += minus if s > 0 else plus
        plus, minus = up, down
    B = len(plus)
    k0, k1 = lo // B, -(-hi // B)
    if k1 <= q:
        heads = signs[k0:k1]
    else:
        t = k0 // q
        tops = (sign_at(seq, t), sign_at(seq, t + 1))
        heads = [tops[k // q - t] * signs[k % q] for k in range(k0, k1)]
    out = []
    for s in heads:
        out += plus if s > 0 else minus
    del out[hi - k0 * B:], out[:lo - k0 * B]
    return out


def sign_prefix(seq: MultiplicativeSequence, length: int) -> list[int]:
    """delta_0 .. delta_(length-1): ``sign_range`` from 0."""
    return sign_range(seq, 0, _as_int(length, "length"))


@lru_cache(maxsize=1024)
def block_moments(signs: tuple[int, ...], m: int, H: int, top: int) -> tuple[int, ...]:
    """sum_{j<q^m} s_j (j - H)^i for i = 0..top, exactly, where q =
    len(signs) and s_j is the product of signs[d] over the base-q digits d
    of j: the package's one engine of sign moments.  From the moments M' of
    q^(m-1) about its centre G = q^(m-1)//2: j = q j' + d gives j - H = q
    (j' - G) + t_d, t_d = qG + d - H, so M_i = sum_l C(i, l) q^l M'_l
    c_(i-l) with the digit sums c_t = sum_d signs[d] t_d^t, built as running
    products.  At m = 1, M' is (1, 0, 0, ...) and M_i = c_i; at m = 1 and H
    = 0 these are c_i = sum_d delta_d d^i, with 0^0 = 1.  Every block
    length of every call walks this one memoized recursion."""
    if m == 0:
        return tuple((-H) ** i for i in range(top + 1))
    q, G = len(signs), len(signs) ** (m - 1) // 2
    steps = range(q * G - H, q * G - H + q)  # t_d
    terms = list(signs)  # signs[d] t_d^0, with 0^0 = 1
    c = [sum(terms)]
    for _ in range(top):
        terms = list(map(operator.mul, terms, steps))
        c.append(sum(terms))
    if m == 1:
        return tuple(c)
    prev = block_moments(signs, m - 1, G, top)
    return tuple(sum(math.comb(i, l) * q**l * prev[l] * c[i - l] for l in range(i + 1))
                 for i in range(top + 1))


def partial_sum(seq: MultiplicativeSequence, n: int) -> int:
    """Delta_n = delta_0 + ... + delta_{n-1} via the digit recursion.

    Folding digits most-significant first keeps the pair
    (Delta_of_prefix, delta_of_prefix); appending digit d maps
    Delta -> Delta * Delta_q + delta * Delta_d.
    """
    if _as_int(n, "n") < 0:
        raise ValueError("n must be >= 0")
    pre = seq.prefix_sums
    dq = seq.delta_q
    signs = seq.signs
    total, s = 0, 1
    for d in _digits_msb(n, seq.q):
        total = total * dq + s * pre[d]
        s *= signs[d]
    return total


def _grow(seq: MultiplicativeSequence, length: int, sums: bool) -> np.ndarray:
    """f(0) .. f(length - 1): the signs delta_n as int8, or with ``sums``
    the partial sums Delta_n as int64; the package's one numpy grower.

    Over [dB, (d+1)B), B = q^K, f is o_d(K) + delta_d f(x) for x in [0, B),
    with o = 0 for the signs and o = Delta_d Delta_q^K for the sums, as
    Delta_(dB) = Delta_d Delta_B.  The blocks grow from f(0) to the largest
    B below length, and the last step forms only the blocks that reach
    length, cut at it.
    """
    import numpy as np

    q, signs = seq.q, seq.signs
    pre = seq.prefix_sums if sums else (0,) * q  # o_d(K) = pre[d] Delta_B
    arr = np.array([0 if sums else 1], dtype=np.int64 if sums else np.int8)
    delta_b = 1  # Delta_B = Delta_q^K
    while arr.size < length:
        B = arr.size
        out = np.empty(min(B * q, length), dtype=arr.dtype)
        for d in range(-(-out.size // B)):
            block = out[d * B:(d + 1) * B]
            off = pre[d] * delta_b
            np.multiply(arr[:block.size], signs[d], out=block)
            if off:  # 0 for the signs, at d = 0, and past K = 0 when Delta_q = 0
                block += off
        arr, delta_b = out, delta_b * seq.delta_q
    return arr[:length]


def partial_sums_upto(seq: MultiplicativeSequence, n_max: int) -> np.ndarray:
    """Delta_0 .. Delta_{n_max} as int64, from the numpy grower."""
    if _as_int(n_max, "n_max") < 0:
        raise ValueError("n_max must be >= 0")
    return _grow(seq, n_max + 1, sums=True)


def delta_prefix(seq: MultiplicativeSequence, length: int) -> np.ndarray:
    """delta_0 .. delta_(length-1) as int8, from the numpy grower."""
    if _as_int(length, "length") < 0:
        raise ValueError("length must be >= 0")
    return _grow(seq, length, sums=False)


def geometric_bound(q: int, k: int) -> int:
    """1 + (q-2) + ... + (q-2)^k with the 0^0 := 1 convention."""
    _check_q(q)
    if _as_int(k, "k") < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    total = 0
    for i in range(k + 1):
        total += 1 if i == 0 else (q - 2) ** i
    return total


def extremal_partial_sums(q: int, k: int) -> tuple[int, int]:
    """Brute-force extremes of |Delta| over all nontrivial sign tuples.

    Returns (max |Delta_{q^k}|, max_{n <= q^k} |Delta_n|), both maximized
    over every (delta_1..delta_{q-1}) != (+1,...,+1).  No closed formulas
    are used here; matching them is left to the tests.
    """
    import numpy as np

    if _as_int(q, "q") < 2 or _as_int(k, "k") < 0:
        raise ValueError("need q >= 2 and k >= 0")
    if q > EXTREMAL_Q_CAP or k > EXTREMAL_K_CAP:
        raise ValueError(
            f"enumeration capped at q <= {EXTREMAL_Q_CAP}, k <= {EXTREMAL_K_CAP}"
        )
    best_at_power = 0
    best_upto = 0
    for tail in _cartesian((1, -1), repeat=q - 1):
        if all(s == 1 for s in tail):
            continue
        deltas = partial_sums_upto(MultiplicativeSequence(q, (1,) + tail, "enum"), q**k)
        best_at_power = max(best_at_power, abs(int(deltas[-1])))
        best_upto = max(best_upto, int(np.abs(deltas).max()))
    return best_at_power, best_upto


def k0_threshold(q: int) -> int:
    """Smallest k with 1 + (q-2) + ... + (q-2)^{k+1} <= (q-1)^k.

    Past this level every n >= q^k satisfies |Delta_n| <= n^(log_q(q-1)).
    """
    _check_q(q)
    k = 0
    while geometric_bound(q, k + 1) > (q - 1) ** k:
        k += 1
    return k


def asymptotic_exponent(q: int) -> float:
    """log_q(q-1), the growth exponent of the worst-case partial sums."""
    return math.log(_check_q(q) - 1) / math.log(q)
