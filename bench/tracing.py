"""Spans around gtmprod's public functions, installed from outside the package.

Each wrapped call records a span ``[key, start, end, parent, info, outer]``:
``key`` names the layer metric it feeds, ``parent`` is the index of the
enclosing span (-1 at top level), ``info`` is a number taken from the
result (lookup hit, array length, terms used) and ``outer`` is false when
a span of the same key encloses it, so recursion is not counted twice.
Spans stay in memory and are aggregated, or written to a file, at exit.

The modules import each other's functions by name, so a wrapper replaces
every module attribute that is the original function, not only the one in
the defining module.  A function that no longer exists is skipped and its
metric reads 0.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (defining module, attribute, metric key, result -> info)
_TARGETS = [
    ("gtmprod.dirichlet", "dirichlet_mp", "dirichlet.dirichlet_mp", None),
    ("gtmprod.dirichlet", "zeta_mp", "dirichlet.zeta_mp", None),
    ("gtmprod.dirichlet", "power_moments", "dirichlet.power_moments", None),
    ("gtmprod.dirichlet", "DirichletCache.mp_lookup", "dirichlet.mp_lookup",
     lambda r: int(r is not None)),
    ("gtmprod.dirichlet", "DirichletCache.store", "dirichlet.store", None),
    ("gtmprod.dirichlet", "DirichletCache.save", "dirichlet.save", None),
    ("gtmprod.ratfun", "parse_product_term", "ratfun.parse_product_term", None),
    ("gtmprod.ratfun", "to_rational_function", "ratfun.to_rational_function", None),
    ("gtmprod.ratfun", "integer_zeros_poles", "ratfun.integer_zeros_poles", None),
    ("gtmprod.ratfun", "convergence_check", "ratfun.convergence_check", None),
    ("gtmprod.ratfun", "log_expansion", "ratfun.log_expansion", None),
    ("gtmprod.ratfun", "evaluate_real", "ratfun.evaluate_real", None),
    ("gtmprod.evaluator", "check_product", "evaluator.check_product", None),
    ("gtmprod.evaluator", "evaluate_product", "evaluator.evaluate_product",
     lambda r: [r.terms_used, r.dirichlet_orders]),
    ("gtmprod.evaluator", "evaluate_direct", "evaluator.evaluate_direct",
     lambda r: r.terms_used),
    ("gtmprod.evaluator", "build_scaling_term", "families.build", None),
    ("gtmprod.evaluator", "build_gamma_ratio_term", "families.build", None),
    ("gtmprod.sequences", "delta_prefix", "sequences.bulk", len),
    ("gtmprod.sequences", "delta_slice", "sequences.bulk", len),
    ("gtmprod.sequences", "sign_at", "sequences.sign_at", None),
    ("gtmprod.gammafn", "log_gamma", "gammafn.log_gamma", None),
    ("gtmprod.expr", "eval_expr", "expr.eval_expr", None),
    ("gtmprod.catalog", "load_catalog", "catalog.load_catalog", None),
    ("gtmprod.catalog", "run_catalog", "catalog.run_catalog", None),
    ("gtmprod.cli", "main", "cli.main", None),
]


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}

    def wrap(self, key: str, fn, info=None):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = active.get(key, 0)
            span = [key, perf_counter(), 0.0, stack[-1] if stack else -1, None, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            active[key] = depth + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                active[key] = depth
            if info is not None:
                span[4] = info(result)
            return result

        return wrapper

    def install(self):
        """Patch every attribute of the imported gtmprod modules that is a target."""
        for modname, attr, key, info in _target_list():
            module = sys.modules.get(modname)
            if module is None:
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            orig = getattr(owner, name, None)
            if orig is None:
                continue
            wrapper = self.wrap(key, orig, info)
            setattr(owner, name, wrapper)
            if owner_name:
                continue
            for other in list(sys.modules.values()):
                if other is None or not getattr(other, "__name__", "").startswith("gtmprod"):
                    continue
                for k, v in list(vars(other).items()):
                    if v is orig:
                        setattr(other, k, wrapper)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _target_list():
    families = sys.modules.get("gtmprod.families")
    builders = sorted(n for n, v in vars(families).items()
                      if n.endswith("_family") and callable(v)) if families else []
    return _TARGETS + [("gtmprod.families", n, "families.build", None) for n in builders]


class Totals:
    """Per-key outermost calls and their inclusive times, self times, and infos."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.info: dict[str, list] = {}

    def add(self, spans: list[list]):
        child = [0.0] * len(spans)
        for key, t0, t1, parent, _info, _outer in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (key, t0, t1, _parent, info, outer) in enumerate(spans):
            if outer:
                self.calls[key] = self.calls.get(key, 0) + 1
                self.incl[key] = self.incl.get(key, 0.0) + (t1 - t0)
            self.self_time[key] = self.self_time.get(key, 0.0) + (t1 - t0 - child[i])
            if info is not None:
                self.info.setdefault(key, []).append(info)

    def count(self, key: str) -> int:
        return self.calls.get(key, 0)

    def seconds(self, key: str) -> float:
        return self.incl.get(key, 0.0)


def layer_metrics(t: Totals, rounds: int, ops: int) -> dict[str, float]:
    """Per-layer metrics per round of the workload (counts and seconds)."""
    r = max(rounds, 1)
    lookups = t.info.get("dirichlet.mp_lookup", [])
    evals = t.info.get("evaluator.evaluate_product", [])
    direct_terms = sum(t.info.get("evaluator.evaluate_direct", []))
    direct_s = t.seconds("evaluator.evaluate_direct")
    return {
        "dirichlet.dirichlet_mp_s": t.seconds("dirichlet.dirichlet_mp") / r,
        "dirichlet.dirichlet_mp_calls": t.count("dirichlet.dirichlet_mp") / r,
        "dirichlet.zeta_mp_s": t.seconds("dirichlet.zeta_mp") / r,
        "dirichlet.mp_lookups": len(lookups) / r,
        "dirichlet.mp_hit_ratio": sum(lookups) / len(lookups) if lookups else 0.0,
        "dirichlet.power_moments_calls": t.count("dirichlet.power_moments") / r,
        "dirichlet.store_calls": t.count("dirichlet.store") / r,
        "dirichlet.save_s": t.seconds("dirichlet.save") / r,
        "ratfun.parse_product_term_s": t.seconds("ratfun.parse_product_term") / r,
        "ratfun.to_rational_function_s": t.seconds("ratfun.to_rational_function") / r,
        "ratfun.integer_zeros_poles_s": t.seconds("ratfun.integer_zeros_poles") / r,
        "ratfun.convergence_check_s": t.seconds("ratfun.convergence_check") / r,
        "ratfun.log_expansion_s": t.seconds("ratfun.log_expansion") / r,
        "ratfun.evaluate_real_calls": t.count("ratfun.evaluate_real") / r,
        "ratfun.evaluate_real_s": t.seconds("ratfun.evaluate_real") / r,
        "evaluator.check_product_s": t.seconds("evaluator.check_product") / r,
        "evaluator.check_product_calls_per_op":
            t.count("evaluator.check_product") / max(ops, 1),
        "evaluator.evaluate_product_self_s":
            t.self_time.get("evaluator.evaluate_product", 0.0) / r,
        "evaluator.evaluate_direct_s": direct_s / r,
        "evaluator.direct_terms_per_s": direct_terms / direct_s if direct_s else 0.0,
        "evaluator.terms_used_mean": sum(e[0] for e in evals) / len(evals) if evals else 0.0,
        "evaluator.orders_mean": sum(e[1] for e in evals) / len(evals) if evals else 0.0,
        "sequences.bulk_s": t.seconds("sequences.bulk") / r,
        "sequences.signs_generated": sum(t.info.get("sequences.bulk", [])) / r,
        "sequences.sign_at_calls": t.count("sequences.sign_at") / r,
        "sequences.sign_at_s": t.seconds("sequences.sign_at") / r,
        "gammafn.log_gamma_calls": t.count("gammafn.log_gamma") / r,
        "gammafn.log_gamma_s": t.seconds("gammafn.log_gamma") / r,
        "expr.eval_expr_s": t.seconds("expr.eval_expr") / r,
        "families.build_s": t.seconds("families.build") / r,
        "catalog.load_catalog_s": t.seconds("catalog.load_catalog") / r,
        "catalog.run_catalog_s": t.seconds("catalog.run_catalog") / r,
    }
