"""Multivalued fixed-point toolkit for compact sets on the real line.

The package certifies integral-type contraction inequalities for
multivalued maps and runs the constructive nearest-point iteration those
inequalities guarantee to converge: compact interval-union sets with an
exact Hausdorff metric, cumulative integrand transforms, gauge functions
with axiom probes, an expression mini-language for defining maps, a
pairwise certification sweep, and a trace validator for the predicted
decay law.  The ``mvfix`` command line exposes the same machinery.
"""

from .analysis import (
    ERROR_ROWS,
    MODES,
    VERDICT_SLACK,
    VIOLATION_ROWS,
    CertificateReport,
    PairCheck,
    PairEvaluation,
    certify,
    check_pair_f_integral,
    check_pair_nadler,
    check_pair_ojha,
    evaluate_pair,
    m_value,
)
from .config import (
    ProblemConfig,
    Spec,
    build_domain,
    build_ffunction,
    build_integrand,
    build_map,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from .errors import (
    ConfigError,
    DomainError,
    EvalError,
    InsufficientTraceError,
    InvariantError,
    MvfixError,
    ParseError,
    QuadratureError,
)
from .expr import BinOp, Call, ExprAst, Neg, Num, Var, compile_expr, format_expr, parse_expr
from .ffunctions import (
    FFunction,
    InfimumVerdict,
    LimitVerdict,
    MonotoneVerdict,
    check_f1,
    check_f2_f3,
    check_f4,
    default_f1_grid,
    f_eval,
)
from .integrand import (
    ConstantIntegrand,
    ExponentialIntegrand,
    ExpressionIntegrand,
    Integrand,
    PowerIntegrand,
    adaptive_simpson,
    capital_phi,
    expression_integrand,
    integrand_label,
    phi_eval,
)
from .maps import (
    MultiMap,
    apply_map,
    finite_set_map,
    interval_map,
    is_fixed_point,
    singleton_map,
    table_map,
)
from .sets1d import (
    CompactSet,
    dist_point_set,
    domain_grid,
    excess,
    hausdorff,
    nearest_point,
    sample_point,
    sample_points,
)
from .solver import (
    FixedPointFound,
    IterationError,
    IterationTrace,
    MaxIterReached,
    Outcome,
    ProbeReport,
    ProbeRow,
    TraceParams,
    TraceVerdict,
    gamma_sequence_probe,
    iterate,
    validate_trace,
)
from .worked_example import (
    AuditLine,
    WorkedExampleReport,
    build_example_map,
    run_worked_example,
)

__version__ = "0.1.0"
