"""Strongly q-multiplicative sign sequences.

A sequence here is a map n -> delta_n in {+1, -1} with delta_0 = +1 and
delta_{nq+k} = delta_n * delta_k for every base-q digit k.  It is fully
determined by its first q signs, so a ``MultiplicativeSequence`` is
``(q, signs)`` plus the ``spec`` it was named by.  Element access and partial sums walk
the base-q digits of n in O(log n) exact integer arithmetic, with no
array.  Two routines materialize signs: ``sign_prefix`` builds a short
list for the accelerated evaluator and the ladder's direct sums, and
``delta_prefix`` grows a numpy prefix block by block for the bulk sums
(the direct oracles and the extremal enumeration).  numpy is imported
only inside the bulk routines (``delta_prefix``, ``partial_sums_upto``
and ``extremal_partial_sums``), so digit access loads no array library.

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
from functools import cached_property
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
    was given and is shown by.
    """

    _fields = ("q", "signs", "spec")

    def __init__(self, q: int, signs: tuple[int, ...], spec: str):
        if q < 2:
            raise SequenceError(f"q must be >= 2, got {q}")
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
    evaluation rejects it downstream.
    """
    if q < 2:
        raise SequenceError(f"q must be >= 2, got {q}")
    if kind == "gtm":
        if bits is None:
            raise SequenceError("gtm sequence needs theta bits")
        signs = (1,) + tuple(1 - 2 * b for b in normalize_gtm_bits(q, bits))
        spec = _gtm_spec(q, signs)
    elif kind == "dcount":
        if k is None or not 1 <= k <= q - 1:
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
    if n < 0:
        raise ValueError("n must be >= 0")
    signs = seq.signs
    q = seq.q
    out = 1
    while n:
        n, d = divmod(n, q)
        out *= signs[d]
    return out


def sign_prefix(seq: MultiplicativeSequence, length: int) -> list[int]:
    """delta_0 .. delta_(length-1) as a list, from delta_(nq+k) = delta_n delta_k."""
    if length < 0:
        raise ValueError("length must be >= 0")
    q, signs = seq.q, seq.signs
    out = [1]
    for n in range(1, length):
        out.append(out[n // q] * signs[n % q])
    return out[:length]


def partial_sum(seq: MultiplicativeSequence, n: int) -> int:
    """Delta_n = delta_0 + ... + delta_{n-1} via the digit recursion.

    Folding digits most-significant first keeps the pair
    (Delta_of_prefix, delta_of_prefix); appending digit d maps
    Delta -> Delta * Delta_q + delta * Delta_d.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    pre = seq.prefix_sums
    dq = seq.delta_q
    signs = seq.signs
    total, s = 0, 1
    for d in _digits_msb(n, seq.q):
        total = total * dq + s * pre[d]
        s *= signs[d]
    return total


def partial_sums_upto(seq: MultiplicativeSequence, n_max: int) -> np.ndarray:
    """Vectorized Delta_0..Delta_{n_max} (same digit recursion, all n at once)."""
    import numpy as np

    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    q = seq.q
    pre = np.array(seq.prefix_sums[: q], dtype=np.int64)
    sgn = np.array(seq.signs, dtype=np.int64)
    dq = seq.delta_q
    n = np.arange(n_max + 1, dtype=np.int64)
    total = np.zeros_like(n)
    s = np.ones_like(n)
    ndigits = len(_digits_msb(n_max, q)) if n_max else 0
    for j in range(ndigits - 1, -1, -1):
        d = (n // q**j) % q
        total = total * dq + s * pre[d]
        s = s * sgn[d]
    return total


def delta_prefix(seq: MultiplicativeSequence, length: int) -> np.ndarray:
    """First ``length`` signs as int8, grown block-wise from the pattern.

    Uses delta over [k*q^m, (k+1)*q^m) = delta_k * (delta over [0, q^m)).
    """
    import numpy as np

    if length < 0:
        raise ValueError("length must be >= 0")
    arr = np.array([1], dtype=np.int8)
    signs = seq.signs
    while arr.size < length:
        out = np.empty(arr.size * seq.q, dtype=np.int8)
        for i, s in enumerate(signs):
            block = out[i * arr.size:(i + 1) * arr.size]
            if s < 0:
                np.negative(arr, out=block)
            else:
                block[:] = arr
        arr = out
    return arr[:length]


def geometric_bound(q: int, k: int) -> int:
    """1 + (q-2) + ... + (q-2)^k with the 0^0 := 1 convention."""
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

    if q < 2 or k < 0:
        raise ValueError("need q >= 2 and k >= 0")
    if q > EXTREMAL_Q_CAP or k > EXTREMAL_K_CAP:
        raise ValueError(
            f"enumeration capped at q <= {EXTREMAL_Q_CAP}, k <= {EXTREMAL_K_CAP}"
        )
    n_top = q**k
    best_at_power = 0
    best_upto = 0
    for tail in _cartesian((1, -1), repeat=q - 1):
        if all(s == 1 for s in tail):
            continue
        seq = MultiplicativeSequence(q, (1,) + tail, "enum")
        best_at_power = max(best_at_power, abs(partial_sum(seq, n_top)))
        deltas = np.concatenate(
            ([0], np.cumsum(delta_prefix(seq, n_top), dtype=np.int64))
        )
        best_upto = max(best_upto, int(np.abs(deltas).max()))
    return best_at_power, best_upto


def k0_threshold(q: int) -> int:
    """Smallest k with 1 + (q-2) + ... + (q-2)^{k+1} <= (q-1)^k.

    Past this level every n >= q^k satisfies |Delta_n| <= n^(log_q(q-1)).
    """
    if q < 2:
        raise SequenceError(f"q must be >= 2, got {q}")
    k = 0
    while geometric_bound(q, k + 1) > (q - 1) ** k:
        k += 1
    return k


def asymptotic_exponent(q: int) -> float:
    """log_q(q-1), the growth exponent of the worst-case partial sums."""
    return math.log(q - 1) / math.log(q)
