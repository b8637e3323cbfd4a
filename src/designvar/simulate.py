"""Exact-enumeration and Monte Carlo validation harness.

Every per-draw number comes from one batched evaluation: batches of
0/1 indicator rows, ``batch_rows(kn)`` at a time, go through the
estimator engine in ``estimators``.  Exact mode feeds it the whole
support, batch by batch, with its probabilities and therefore returns
deterministic numbers: bias, variance, mean bound estimate, and
normal-interval coverage are all probability-weighted sums.  Monte Carlo
mode feeds it seeded replicate draws, still one deterministic child seed
per replicate, and reports Monte Carlo standard errors alongside each
metric.  The sweep's linearization gap uses the same engine, over the
treated-copy count classes of a tiled population instead of a support.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import build_bound
from .bound_estimation import ipw_bound_matrix
from .conditions import DEFAULT_ENTRY_BUDGET, first_order_condition_norm
from .designs import (
    Design,
    PiDiagonal,
    arms_to_indicators,
    batch_rows,
    complete_design,
    first_order_design_matrix,
    inclusion_probabilities,
)
from .errors import (
    BudgetExceededError,
    EstimationInfeasibleError,
    InfeasiblePointsWarning,
    ValidationError,
)
from .estimators import (
    EstimatorSpec,
    _evaluate_draws,
    _linearization_gap,
    linearization_vector,
    taylor_variance,
)

Z_95 = 1.96


@dataclass(eq=False)
class SimScenario:
    """One simulation: a design, fixed potential outcomes, an estimator,
    and optionally a bound method whose estimates are tracked."""

    design: Design
    y: np.ndarray
    estimator: EstimatorSpec
    bound_method: str | None = "as"
    mode: str = "exact"
    replicates: int = 0
    seed: int | None = None

    def __post_init__(self):
        self.y = self.design.layout.check_vector(self.y, "potential outcomes")
        self.design.layout.check_contrast(self.estimator.contrast)
        if self.mode not in ("exact", "mc"):
            raise ValidationError(f"unknown scenario mode {self.mode!r}")
        if self.mode == "exact":
            self.design.enumerated("exact scenario")
        if self.mode == "mc":
            if self.seed is None:
                raise ValidationError("monte-carlo scenarios require an explicit seed")
            if self.replicates < 1:
                raise ValidationError("monte-carlo scenarios need replicates >= 1")


@dataclass(eq=False)
class SimReport:
    """Summary metrics of a scenario run.

    Metrics conditional on feasibility exclude support points where the
    realized denominator was singular; their count and probability weight
    are reported (in MC mode each replicate weighs 1/replicates).  Negative
    plug-in bound estimates are floored at zero inside the coverage
    intervals and counted.  In MC mode every ``mc_se`` entry is None when
    fewer than two draws were feasible.
    """

    estimand: float
    mean_estimate: float
    bias: float
    empirical_variance: float
    taylor_variance: float
    bound_value: float | None
    mean_bound_estimate: float | None
    coverage_95: float | None
    infeasible_count: int
    infeasible_weight: float
    negative_bound_count: int
    mode: str
    replicates: int
    mc_se: dict[str, float | None] | None = None


def run_scenario(scenario: SimScenario) -> SimReport:
    """Run one scenario, exactly or by seeded replication."""
    design = scenario.design
    layout = design.layout
    spec = scenario.estimator
    y = scenario.y
    pi = inclusion_probabilities(design)
    estimand = float(spec.contrast @ y.reshape(layout.k, layout.n).mean(axis=1))

    z = linearization_vector(spec, y, pi)
    dmat, mask = first_order_design_matrix(design)
    t_var = taylor_variance(z, dmat)

    ipw_matrix = None
    bound_value = None
    if scenario.bound_method is not None:
        bound = build_bound(scenario.bound_method, dmat, mask, contrast=spec.contrast)
        bound_value = float(z.z @ bound.dtilde @ z.z)
        ipw_matrix = ipw_bound_matrix(bound, design).matrix

    # exact mode: support points weigh their probability; MC: each replicate weighs 1 / total
    if scenario.mode == "exact":
        batches, probs, total = design.support_indicators(), design.support.probs.to_float(), 1
    else:
        batches = design.replicate_indicators(scenario.seed, scenario.replicates)
        probs, total = np.ones(scenario.replicates), scenario.replicates
    parts = [_evaluate_draws(spec, pi, y, r, ipw_matrix) for r in batches]
    points, bests, feasible = (
        None if field[0] is None else np.concatenate(field) for field in zip(*parts)
    )
    infeasible_count = int(np.sum(~feasible))
    infeasible_weight = float(probs[~feasible].sum()) / total
    if infeasible_count:
        points_or_draws = "support points" if scenario.mode == "exact" else "draws"
        warnings.warn(
            f"{infeasible_count} {points_or_draws} were estimation-infeasible and excluded "
            "from conditional metrics",
            InfeasiblePointsWarning,
            stacklevel=2,
        )
    if not feasible.any():
        raise EstimationInfeasibleError("estimation failed on every draw")

    ests = points[feasible]
    wnorm = probs[feasible] / probs[feasible].sum()
    mean_est = float(wnorm @ ests)
    emp_var = float(wnorm @ (ests - mean_est) ** 2)

    mean_bound = coverage = None
    negative_bounds = 0
    if ipw_matrix is not None:
        bounds_arr = bests[feasible]
        covered = np.abs(estimand - ests) <= Z_95 * np.sqrt(np.maximum(bounds_arr, 0.0))
        mean_bound = float(wnorm @ bounds_arr)
        coverage = float(np.clip(wnorm @ covered.astype(float), 0.0, 1.0))
        negative_bounds = int(np.sum(bounds_arr < 0.0))

    mc_se = None
    if scenario.mode == "mc":
        n_eff = len(ests)
        centered = ests - mean_est
        mc_se = {
            "mean_estimate": lambda: ests.std(ddof=1) / math.sqrt(n_eff),
            "empirical_variance": lambda: math.sqrt(
                max((centered**4).mean() - emp_var**2, 0.0) / n_eff),
        }
        if ipw_matrix is not None:
            mc_se["mean_bound_estimate"] = lambda: bounds_arr.std(ddof=1) / math.sqrt(n_eff)
            mc_se["coverage_95"] = lambda: math.sqrt(
                max(coverage * (1 - coverage), 0.0) / n_eff)
        # one feasible draw has no spread to estimate them from
        mc_se = {key: float(se()) if n_eff > 1 else None for key, se in mc_se.items()}

    return SimReport(
        estimand=estimand,
        mean_estimate=mean_est,
        bias=mean_est - estimand,
        empirical_variance=emp_var,
        taylor_variance=t_var,
        bound_value=bound_value,
        mean_bound_estimate=mean_bound,
        coverage_95=coverage,
        infeasible_count=infeasible_count,
        infeasible_weight=infeasible_weight,
        negative_bound_count=negative_bounds,
        mode=scenario.mode,
        replicates=scenario.replicates if scenario.mode == "mc" else len(ests),
        mc_se=mc_se,
    )


def _tiled_outcomes(base_y: np.ndarray, copies: int) -> np.ndarray:
    """Stack `copies` repeats of each arm's base outcomes (unit i is a copy
    of base unit i mod B)."""
    return np.concatenate([np.tile(row, copies) for row in base_y])


def _class_count(n_base: int, copies: int, n_treat: int) -> int:
    """Number of ways to treat n_treat units, 0..copies copies of each of
    n_base base units: the coefficient of x^n_treat in
    (1 + x + ... + x^copies)^n_base, in exact integers."""
    coef = [1] + [0] * n_treat
    for _ in range(n_base):
        run = [0, *itertools.accumulate(coef)]
        coef = [run[j + 1] - run[max(j - copies, 0)] for j in range(n_treat + 1)]
    return coef[n_treat]


def _tiled_complete_gap(
    spec: EstimatorSpec, pi: PiDiagonal, y: np.ndarray, n_base: int, copies: int
) -> float:
    """Exact max linearization gap of a balanced two-arm complete design on
    y, ``copies`` tiles of an ``n_base``-unit base population.

    The estimator value depends only on how many copies of each base unit
    land in each arm, so the gap is taken over these treated-copy count
    classes, not over the support.  The classes are counted before any is
    built; BudgetExceededError is raised when classes x kn exceeds
    DEFAULT_ENTRY_BUDGET.  Only their treated-copy counts are held whole:
    arms and indicators are built ``batch_rows(kn)`` classes at a time.
    """
    layout = pi.layout
    n_treat = layout.n // 2
    classes = _class_count(n_base, copies, n_treat)
    if classes * layout.kn > DEFAULT_ENTRY_BUDGET:
        raise BudgetExceededError(
            f"the sweep at n={layout.n} has {classes} count classes; classes x kn = "
            f"{classes * layout.kn} exceeds the entry budget {DEFAULT_ENTRY_BUDGET}"
        )
    # treated-copy counts per base unit summing to n_treat, one base unit at a
    # time; a prefix takes only the counts that keep n_treat reachable, so no
    # intermediate array has more rows than the final one
    counts = np.zeros((1, 0), dtype=int)
    for b in range(n_base):
        partial = counts.sum(axis=1)
        lo = np.maximum(n_treat - partial - (n_base - 1 - b) * copies, 0)
        reps = np.minimum(n_treat - partial, copies) - lo + 1
        step = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        counts = np.column_stack([np.repeat(counts, reps, axis=0), np.repeat(lo, reps) + step])
    # copies of base unit b sit at indices b, b + n_base, b + 2 n_base, ...;
    # a class treats the first counts[b] of them
    units, step = np.arange(layout.n), batch_rows(layout.kn)
    batches = (
        arms_to_indicators(units // n_base < counts[start:start + step, units % n_base], layout)
        for start in range(0, len(counts), step)
    )
    return _linearization_gap(spec, pi, y, batches, "count classes")


def consistency_sweep(
    spec: EstimatorSpec,
    base_y: np.ndarray,
    n_list: list[int],
    *,
    support_cap: int = 10**5,
) -> list[dict]:
    """Rate diagnostics along a sequence of growing balanced designs.

    The population is grown by tiling base_y (one row per arm); each n
    uses a balanced two-arm complete design.  Rows report n * Var of the
    linearized estimator, the max linearization gap (times n), and the
    first-order condition norm, all of which should stay bounded.  The
    estimator takes no covariates or weights: those belong to units and
    cannot be tiled along with base_y.  The gap is exact at every n and
    never enumerates the support (see ``_tiled_complete_gap``), so
    ``support_cap`` is accepted and unread.
    """
    if not n_list:
        raise ValidationError("the sweep needs at least one n in n_list")
    for field in ("covariates", "weights"):
        if getattr(spec, field) is not None:
            raise ValidationError(
                f"the sweep takes no estimator {field}: they are per-unit, "
                "and only base_y is tiled"
            )
    base_y = np.atleast_2d(np.asarray(base_y, dtype=float))
    if base_y.shape[0] != 2 or not base_y.size:
        raise ValidationError("the sweep uses two-arm designs; base_y needs 2 non-empty rows")
    n_base = base_y.shape[1]
    rows = []
    for n in n_list:
        if n % n_base:
            raise ValidationError(
                f"n={n} is not a multiple of the base population size {n_base}"
            )
        if n % 2:
            raise ValidationError(f"balanced design needs even n, got {n}")
        copies = n // n_base
        design = complete_design([n // 2, n // 2])
        pi = inclusion_probabilities(design)
        y = _tiled_outcomes(base_y, copies)
        gap = _tiled_complete_gap(spec, pi, y, n_base, copies)
        dmat, _ = first_order_design_matrix(design)
        z = linearization_vector(spec, y, pi)
        var = taylor_variance(z, dmat)
        rows.append(
            {
                "n": n,
                "n_times_var": n * var,
                "taylor_gap": gap,
                "gap_times_n": gap * n,
                "first_order_norm": first_order_condition_norm(dmat),
            }
        )
    return rows
