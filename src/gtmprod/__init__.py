"""Generalized Thue-Morse sequences and sign-weighted infinite products.

The package builds strongly q-multiplicative +-1 sequences, decides
convergence of products prod R(n)^(delta_n) and prod R(n)^(theta_n) of
rational terms, evaluates convergent products to certified accuracy, and
batch-verifies a catalog of closed-form identities against Gamma-function
right-hand sides.
"""

from .catalog import (
    CatalogError,
    CatalogReport,
    IdentityRecord,
    RecordResult,
    load_catalog,
    parse_catalog_line,
    run_catalog,
)
from .dirichlet import (
    DirichletCache,
    EpsUnachievableError,
    dirichlet_direct,
    dirichlet_mp,
    dirichlet_value,
    power_moments,
    zeta_mp,
)
from .evaluator import (
    EvalResult,
    FunctionalEquationReport,
    IdentityReport,
    PositivityError,
    ProductCheck,
    ProductRejectedError,
    ProductSpec,
    build_gamma_ratio_term,
    build_scaling_term,
    check_product,
    evaluate_direct,
    evaluate_product,
    plain_product_log_closed,
    verify_functional_equation,
    verify_identity,
)
from .expr import eval_expr, parse_expr
from .gammafn import (
    GammaDomainError,
    check_gamma_identity,
    gamma,
    log_gamma,
    log_gamma_product,
)
from .ratfun import (
    EvaluationError,
    Factor,
    FactorList,
    ParseError,
    evaluate_real,
    exact_real_value,
    factor_list,
    factored_convergence,
    factored_log_expansion,
    factored_zeros_poles,
    first_non_positive,
    format_product_term,
    parse_product_term,
)
from .sequences import (
    MultiplicativeSequence,
    SequenceError,
    asymptotic_exponent,
    delta_prefix,
    extremal_partial_sums,
    geometric_bound,
    k0_threshold,
    make_sequence,
    parse_seq_spec,
    partial_sum,
    partial_sums_upto,
    sign_at,
    theta_at,
)

__version__ = "0.1.0"
