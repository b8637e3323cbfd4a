"""Design-based variances, variance bounds, and bound estimators for
linear estimators under enumerable experimental designs."""

from .bound_estimation import (
    BoundEstimate,
    IpwBoundMatrix,
    ht_bound_estimate,
    ipw_bound_matrix,
    plugin_bound_estimate,
)
from .bounds import (
    BoundMatrix,
    algorithm_m_bound,
    aronow_samii_bound,
    build_bound,
    certify,
    derive_mask,
    is_invariant_bounding,
    neyman_bound,
    user_bound,
)
from .conditions import first_order_condition_norm, second_order_condition_norm
from .designs import (
    Assignment,
    Design,
    DesignMatrix,
    ImpossibilityMask,
    IndexLayout,
    JointProbMatrix,
    PiDiagonal,
    arms_to_indicators,
    bernoulli_design,
    block_design,
    build_design,
    cluster_design,
    complete_design,
    custom_design,
    first_order_design_matrix,
    inclusion_probabilities,
    joint_probabilities,
    paired_design,
)
from .errors import (
    BudgetExceededError,
    DesignVarError,
    EstimationInfeasibleError,
    InfeasibleSpecError,
    LayoutMismatchError,
    NeymanPreconditionError,
    NonConvergenceError,
    NonIdentifiedDesignError,
    NotIdentifiedBoundError,
    NumericalError,
    SupportOverflowError,
    ValidationError,
)
from .estimators import (
    EstimatorSpec,
    LinearizationVector,
    ObservedData,
    expand_covariates,
    ht_exact_variance,
    ht_linearization,
    intercept_matrix,
    linearization_vector,
    linearized_estimator,
    observe,
    point_estimate,
    taylor_gap,
    taylor_variance,
)
from .simulate import SimReport, SimScenario, consistency_sweep, run_scenario
from .spectral import (
    ComparisonVerdict,
    DesignComparison,
    EigenReport,
    compare_bounds,
    compare_designs,
    eigen_psd_check,
)

__version__ = "0.1.0"
