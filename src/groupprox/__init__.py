"""Group-sparse l1/lq proximal operators and an accelerated solver.

The toolkit computes the lq-regularized Euclidean projection for any
q >= 1 (closed forms at q = 1, 2, inf; nested zero-finding otherwise),
applies it to all groups at once with one batched kernel per q, and uses
it inside an accelerated proximal-gradient solver with warm-started
regularization paths.
"""

from .grouped import (
    GroupedVector,
    dual_exponent,
    group_norms,
    mixed_norm,
    q_norm,
)
from .experiments import (
    ExperimentConfig,
    MetricsRow,
    balanced_error_rate,
    bench_prox,
    default_ratios,
    metrics_to_csv,
    run_path_experiment,
    support_f1,
    synth_generate,
)
from .losses import Dataset, LossKind, loss_gradient, loss_value, row_group_offsets
from .oracle import (
    FixedPointTrace,
    OracleConfig,
    OracleFailure,
    brute_prox,
    fixed_point_trace,
)
from .prox import (
    ProjectionError,
    ProxDiagnostics,
    c_interval,
    is_zero_solution,
    optimality_residual,
    phi,
    prox_grouped,
    prox_l1,
    prox_l2,
    prox_linf,
    prox_lq_general,
    prox_objective,
)
from .rootfind import RootConfig, l1_ball_threshold
from .solver import (
    NumericalFailure,
    Problem,
    SolverConfig,
    SolverResult,
    lambda_max,
    model_value,
    prox_step,
    reg_path,
    solve,
)

__version__ = "0.1.0"
