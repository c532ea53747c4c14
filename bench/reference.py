"""Independent reference values for the benchmark's correctness gate.

Nothing here imports gtmprod: closed forms are evaluated with mpmath,
sign sequences and Dirichlet sums with numpy, and catalog records are read
straight from the catalog file.  A defect in the package therefore cannot
hide inside its own yardstick.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np

CATALOG_PATH = Path("src", "gtmprod", "data", "builtin.catalog")
_DPS = 30


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    seqspec: str
    mode: str
    start: int
    lhs: str
    rhs: str

    @property
    def q(self) -> int:
        return int(self.seqspec.split(":")[1])

    @property
    def factors(self) -> int:
        """Number of linear factors, counted with multiplicity."""
        return sum(abs(e) for _, _, e in term_factors(self.lhs))


def read_catalog(root: Path) -> list[CatalogEntry]:
    """Records of the builtin catalog, in file order."""
    out = []
    for raw in (root / CATALOG_PATH).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rid, _paper, seqspec, mode, start, lhs, rhs, _tags = (p.strip() for p in line.split("|"))
        out.append(CatalogEntry(rid, seqspec, mode, int(start), lhs, rhs))
    return out


def _mpf(x: Fraction | int) -> mp.mpf:
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


_FUNCS = {"sqrt": mp.sqrt, "gamma": mp.gamma, "cos": mp.cos}


def _eval_node(node):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return mp.mpf(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return +mp.pi
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_node(node.operand)
    if isinstance(node, ast.BinOp):
        left, right = _eval_node(node.left), _eval_node(node.right)
        ops = {ast.Add: lambda: left + right, ast.Sub: lambda: left - right,
               ast.Mult: lambda: left * right, ast.Div: lambda: left / right,
               ast.Pow: lambda: left ** right}
        return ops[type(node.op)]()
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _FUNCS and len(node.args) == 1:
        return _FUNCS[node.func.id](_eval_node(node.args[0]))
    raise ValueError(f"unsupported closed-form syntax: {ast.dump(node)}")


def closed_form_log(expr_text: str) -> float:
    """log of a catalog right-hand side such as ``gamma(1/4)/(2*pi^(3/4))``."""
    tree = ast.parse(expr_text.replace("^", "**"), mode="eval")
    with mp.workdps(_DPS):
        return float(mp.log(_eval_node(tree)))


_FACTOR = re.compile(r"\((\d*)n([+-]\d+)?\)(?:\^(\d+))?")


def term_factors(term_text: str) -> list[tuple[int, Fraction, int]]:
    """(alpha, beta, exponent) for each ``(alpha n + beta)^e`` in a catalog term."""
    num, den = term_text.split("/")
    out = []
    for part, sign in ((num, 1), (den, -1)):
        for alpha, beta, e in _FACTOR.findall(part):
            out.append((int(alpha or 1), Fraction(int(beta or 0)), sign * int(e or 1)))
    return out


def plain_product_log(term_text: str, start: int) -> float:
    """log prod_{n>=start} R(n) for a balanced, positive term, via Gamma at each root.

    The product is prod Gamma(start + beta/alpha)^-e; it is positive, so
    only the magnitudes log|Gamma| matter.
    """
    with mp.workdps(_DPS):
        total = mp.mpf(0)
        for alpha, beta, e in term_factors(term_text):
            total -= e * mp.re(mp.loggamma(_mpf(beta / alpha + start)))
        return float(total)


def _lg(x: Fraction) -> mp.mpf:
    return mp.loggamma(_mpf(x))


def gamma_ratio_log(signs: tuple[int, ...], a_list, b_list) -> float:
    """RHS of the base-q self-similarity of prod_i (n+a_i)/(n+b_i) with theta weights."""
    q = len(signs)
    with mp.workdps(_DPS):
        total = mp.mpf(0)
        for k in range(1, q):
            if signs[k] == -1:
                for a, b in zip(a_list, b_list):
                    total += _lg(Fraction(b + k, q)) - _lg(Fraction(a + k, q))
        return float(total)


def scaling_log(signs: tuple[int, ...], a: Fraction, b: Fraction) -> float:
    """RHS of the base-q self-similarity of prod ((n+a)/(n+b))^delta_n."""
    rhs = Fraction(1)
    for k in range(1, len(signs)):
        ratio = Fraction(a + k) / (b + k)
        rhs *= ratio if signs[k] == 1 else 1 / ratio
    with mp.workdps(_DPS):
        return float(mp.log(_mpf(rhs)))


TM_SIGNS = (1, -1)


def family_log(name: str, params: tuple, signs: tuple[int, ...] = TM_SIGNS) -> float:
    """Closed-form log of one parametrized family instance."""
    with mp.workdps(_DPS):
        half_log_pi = mp.log(mp.pi) / 2
        log2 = mp.log(2)
        if name == "shifted_ratio_family":
            a, b, c = params
            return gamma_ratio_log(signs, [a, b + c], [b, a + c])
        if name == "zero_sum_family":
            (zs,) = params
            return gamma_ratio_log(signs, zs, [Fraction(0)] * len(zs))
        if name == "symmetric_pair_family":
            (a,) = params
            return gamma_ratio_log(signs, [a, -a], [Fraction(0)] * 2)
        if name == "tm_gamma_ratio_family":
            a_list, b_list = params
            return gamma_ratio_log(TM_SIGNS, a_list, b_list)
        if name == "tm_three_parameter_family":
            a, b, c = params
            return gamma_ratio_log(TM_SIGNS, [a, b + c], [b, a + c])
        if name == "tm_beta_like_family":
            a, b = params
            v = half_log_pi + _lg((a + b + 1) / 2) - _lg((a + 1) / 2) - _lg((b + 1) / 2)
        elif name == "tm_beta_like_reciprocal_family":
            a, b = params
            v = _mpf(a) * log2 + _lg((a + 1) / 2) + _lg((b + 1) / 2) - half_log_pi \
                - _lg((a + b + 1) / 2)
        elif name == "tm_power_of_two_family":
            (a,) = params
            v = _mpf(a) * log2
        elif name == "tm_power_over_linear_family":
            (a,) = params
            v = _mpf(a) * log2 - mp.log(_mpf(a + 1))
        elif name == "tm_cosine_family":
            (a,) = params
            v = mp.log(mp.cos(mp.pi * _mpf(a) / 2))
        elif name == "tm_scaled_cosine_family":
            (a,) = params
            v = _mpf(a) * log2 + mp.log(mp.cos(mp.pi * _mpf(a) / 2))
        elif name == "tm_quartic_reflection_family":
            (a,) = params
            v = half_log_pi - _lg((3 + a) / 4) - _lg((3 - a) / 4)
        elif name == "tm_factorial_family":
            (d,) = params
            v = (d - 1) * half_log_pi + _lg(Fraction(d + 1, 2))
        else:
            raise ValueError(f"no reference for family {name!r}")
        return float(v)


def pattern_signs(seqspec: str) -> tuple[int, ...]:
    """delta_0 .. delta_{q-1} of a ``gtm:``, ``dcount:`` or ``dparity:`` spec."""
    parts = seqspec.split(":")
    q = int(parts[1])
    if parts[0] == "gtm":
        return (1,) + tuple(1 - 2 * int(b) for b in parts[2])
    if parts[0] == "dcount":
        return tuple(-1 if j == int(parts[2]) else 1 for j in range(q))
    if parts[0] == "dparity":
        return tuple(1 - 2 * (j % 2) for j in range(q))
    raise ValueError(f"unknown sequence spec {seqspec!r}")


def signs_upto(signs: tuple[int, ...], n_max: int) -> np.ndarray:
    """delta_n for n = 0..n_max, as the product of pattern signs over base-q digits."""
    q = len(signs)
    table = np.array(signs, dtype=np.int8)
    n = np.arange(n_max + 1, dtype=np.int64)
    out = np.ones(n_max + 1, dtype=np.int8)
    while n.any():
        out *= table[n % q]
        n //= q
    return out


def dirichlet_reference(seqspec: str, s: int, n_max: int = 1 << 20) -> tuple[float, float]:
    """F(s) = sum_{n>=1} delta_n n^-s for s >= 3, and a bound on its error.

    The tail beyond n_max is at most sum_{n>n_max} n^-s <= n_max^(1-s)/(s-1);
    each binary64 power is within one ulp, and fsum adds no further error,
    so rounding stays below 2^-52 * zeta(3) < 2^-50.
    """
    if s < 3:
        raise ValueError("the plain sum is only accurate enough for s >= 3")
    d = signs_upto(pattern_signs(seqspec), n_max)[1:].astype(np.float64)
    n = np.arange(1, n_max + 1, dtype=np.float64)
    value = math.fsum(d * n ** (-float(s)))
    err = n_max ** (1.0 - s) / (s - 1) + 2.0**-50
    return value, err
