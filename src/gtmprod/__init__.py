"""Generalized Thue-Morse sequences and sign-weighted infinite products.

The package builds strongly q-multiplicative +-1 sequences, decides
convergence of products prod R(n)^(delta_n) and prod R(n)^(theta_n) of
rational terms, evaluates convergent products to certified accuracy, and
batch-verifies a catalog of closed-form identities against Gamma-function
right-hand sides.

Importing the package loads none of its modules: each public name in
``__all__`` imports its defining module on first access (PEP 562), so a
command-line process loads only what its command runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "catalog": ("CatalogError", "CatalogReport", "IdentityRecord", "RecordResult",
                "load_catalog", "parse_catalog_line", "run_catalog"),
    "dirichlet": ("DirichletCache", "EpsUnachievableError", "dirichlet_direct", "dirichlet_mp",
                  "dirichlet_value", "power_moments", "zeta_mp"),
    "evaluator": ("EvalResult", "FunctionalEquationReport", "IdentityReport",
                  "ProductRejectedError", "ProductSpec", "build_gamma_ratio_term",
                  "build_scaling_term", "check_product", "evaluate_direct", "evaluate_product",
                  "plain_product_log_closed", "verify_functional_equation", "verify_identity"),
    "expr": ("eval_expr", "parse_expr"),
    "gammafn": ("GammaDomainError", "check_gamma_identity", "gamma", "log_gamma",
                "log_gamma_product"),
    "ratfun": ("EvaluationError", "Factor", "FactorList", "ParseError", "ProductCheck",
               "exact_real_value", "factor_list", "factored_convergence",
               "factored_log_expansion", "factored_zeros_poles", "first_non_positive",
               "format_product_term", "parse_product_term"),
    "sequences": ("MultiplicativeSequence", "SequenceError", "asymptotic_exponent",
                  "delta_prefix", "extremal_partial_sums", "geometric_bound", "k0_threshold",
                  "make_sequence", "parse_seq_spec", "partial_sum", "partial_sums_upto",
                  "sign_at"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
