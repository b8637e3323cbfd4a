"""Design-based variances, variance bounds, and bound estimators for
linear estimators under enumerable experimental designs.

``import designvar`` loads no submodule.  Each public name is resolved
on first use through the module ``__getattr__`` (PEP 562): the
submodule that defines it is imported and the name is cached here, so
later lookups are plain attribute reads.  ``from designvar import x``
works the same way.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bound_estimation": (
        "BoundEstimate",
        "IpwBoundMatrix",
        "ht_bound_estimate",
        "ipw_bound_matrix",
        "plugin_bound_estimate",
    ),
    "bounds": (
        "BoundMatrix",
        "algorithm_m_bound",
        "aronow_samii_bound",
        "build_bound",
        "certify",
        "derive_mask",
        "is_invariant_bounding",
        "neyman_bound",
        "user_bound",
    ),
    "conditions": ("first_order_condition_norm", "second_order_condition_norm"),
    "designs": (
        "Assignment",
        "Design",
        "DesignMatrix",
        "ImpossibilityMask",
        "IndexLayout",
        "JointProbMatrix",
        "PiDiagonal",
        "arms_to_indicators",
        "bernoulli_design",
        "block_design",
        "build_design",
        "cluster_design",
        "complete_design",
        "custom_design",
        "first_order_design_matrix",
        "inclusion_probabilities",
        "joint_probabilities",
        "paired_design",
    ),
    "errors": (
        "BudgetExceededError",
        "DesignVarError",
        "EstimationInfeasibleError",
        "InfeasibleSpecError",
        "LayoutMismatchError",
        "NeymanPreconditionError",
        "NonConvergenceError",
        "NonIdentifiedDesignError",
        "NotIdentifiedBoundError",
        "NumericalError",
        "SupportOverflowError",
        "ValidationError",
    ),
    "estimators": (
        "EstimatorSpec",
        "LinearizationVector",
        "ObservedData",
        "expand_covariates",
        "ht_exact_variance",
        "ht_linearization",
        "intercept_matrix",
        "linearization_vector",
        "linearized_estimator",
        "observe",
        "point_estimate",
        "taylor_gap",
        "taylor_variance",
    ),
    "simulate": ("SimReport", "SimScenario", "consistency_sweep", "run_scenario"),
    "spectral": (
        "ComparisonVerdict",
        "DesignComparison",
        "EigenReport",
        "compare_bounds",
        "compare_designs",
        "eigen_psd_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS or name in ("cli", "serialization"):  # a submodule
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
