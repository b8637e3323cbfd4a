"""Linear estimators of arm-mean contrasts and their linearizations.

Every estimator here has the form c' W(R) R y for a weight matrix W that
may depend on the realized assignment R.  The weighted-least-squares
family covers contrast-of-means (identity weights, intercept-only),
Hajek (inverse-probability weights, intercept-only), and OLS (identity
weights) as special cases; Horvitz-Thompson has a nonrandom W and is
handled on its own.

One batched engine evaluates every draw: an S x kn batch of 0/1
indicators gives point estimates, plug-in bound estimates and a
feasibility mask.  The batch producers (``Design.support_indicators``,
``Design.replicate_indicators``, the sweep's count classes) make batches
of at most ``batch_rows(kn)`` rows, so the engine's per-draw
temporaries, updated in place, are each at most ``BATCH_BYTES``.  The
WLS family shares one stacked realized fit (one condition check and one
solve per batch); a single estimate is a batch of one, and the
population fit is the same fit at R = pi.

Each family member also has a population linearization vector z such
that the estimator behaves, to first order around R = E[R], like an
inverse-probability weighted sum of z.  Quadratic forms of z in the
design matrix then give exact variances for Horvitz-Thompson and
first-order variances for everything else.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .designs import (
    Assignment,
    Design,
    DesignMatrix,
    IndexLayout,
    PiDiagonal,
    inclusion_probabilities,
)
from .errors import (
    EstimationInfeasibleError,
    IllConditionedWarning,
    InfeasiblePointsWarning,
    LayoutMismatchError,
    ValidationError,
)

KINDS = ("ht", "cm", "hj", "ols", "wls")

COND_WARN = 1e12
COND_FAIL = 1e15


def intercept_matrix(layout: IndexLayout) -> np.ndarray:
    """kn x k block matrix with a ones-column per arm."""
    return np.repeat(np.eye(layout.k), layout.n, axis=0)


def expand_covariates(x: np.ndarray | None, layout: IndexLayout) -> np.ndarray:
    """Per-arm intercept columns followed by the covariates tiled per arm.

    With l covariate columns the result is kn x (k + l); l = 0 reduces to
    the plain intercept matrix.
    """
    base = intercept_matrix(layout)
    if x is None:
        return base
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != layout.n:
        raise LayoutMismatchError(
            f"covariate matrix has {x.shape[0]} rows, expected n={layout.n}"
        )
    if not np.all(np.isfinite(x)):
        raise ValidationError("covariates must be finite")
    return np.hstack([base, np.tile(x, (layout.k, 1))])


@dataclass(frozen=True, eq=False)
class EstimatorSpec:
    """Which linear estimator to use and with what contrast.

    kind is one of "ht", "cm", "hj", "ols", "wls".  The contrast has one
    entry per arm; covariate-adjusted estimators pad it internally with
    zeros.  WLS additionally takes the diagonal of its weighting matrix
    (length kn, positive).
    """

    kind: str
    contrast: np.ndarray
    covariates: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise ValidationError(f"estimator kind must be a string, got {self.kind!r}")
        kind = self.kind.lower()
        object.__setattr__(self, "kind", kind)
        if kind not in KINDS:
            raise ValidationError(f"unknown estimator kind {self.kind!r}")
        c = np.asarray(self.contrast, dtype=float)
        object.__setattr__(self, "contrast", c)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValidationError("contrast must be a finite 1-d vector")
        if self.covariates is not None:
            if kind not in ("ols", "wls"):
                raise ValidationError(f"{kind} does not take covariates")
            object.__setattr__(
                self, "covariates", np.atleast_2d(np.asarray(self.covariates, float))
            )
        if kind == "wls":
            if self.weights is None:
                raise ValidationError("wls requires the weighting diagonal")
            w = np.asarray(self.weights, dtype=float)
            object.__setattr__(self, "weights", w)
            if np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise ValidationError("wls weights must be positive and finite")
        elif self.weights is not None:
            raise ValidationError(f"{kind} does not take a weighting diagonal")

    def padded_contrast(self, layout: IndexLayout) -> np.ndarray:
        layout.check_contrast(self.contrast)
        l = 0 if self.covariates is None else self.covariates.shape[1]
        return np.concatenate([self.contrast, np.zeros(l)])

    def design_x(self, layout: IndexLayout) -> np.ndarray:
        return expand_covariates(self.covariates, layout)

    def weight_diag(self, pi: PiDiagonal) -> np.ndarray:
        """Diagonal of the weighting matrix for the WLS-family members."""
        kn = pi.layout.kn
        if self.kind in ("cm", "ols"):
            return np.ones(kn)
        if self.kind == "hj":
            return 1.0 / pi.probs
        if self.kind == "wls":
            w = pi.layout.check_vector(self.weights, "wls weights")
            if not np.all(np.isfinite(pi.probs * w)):
                raise ValidationError("pi times the wls weighting diagonal must be finite")
            return w
        raise ValidationError("horvitz-thompson has no weighting diagonal")


@dataclass(eq=False)
class ObservedData:
    """A realized assignment and the outcomes it reveals.

    y_obs is the full-length kn vector with zeros at unobserved positions.
    """

    assignment: Assignment
    y_obs: np.ndarray

    def __post_init__(self):
        layout = self.assignment.layout
        self.y_obs = layout.check_vector(self.y_obs, "observed outcomes")
        ind = self.assignment.indicators()
        if np.any(self.y_obs[ind == 0.0] != 0.0):
            raise ValidationError(
                "observed outcome vector must be zero at unobserved positions"
            )


def observe(assignment: Assignment, y: np.ndarray) -> ObservedData:
    """Project a full potential-outcome vector onto one assignment."""
    y = assignment.layout.check_vector(y, "potential outcomes")
    return ObservedData(assignment, assignment.indicators() * y)


@dataclass(eq=False)
class LinearizationVector:
    """Population linearization vector z of an estimator, built from full
    potential outcomes; variance quadratics take it."""

    layout: IndexLayout
    z: np.ndarray

    def __post_init__(self):
        self.z = self.layout.check_vector(self.z, "linearization vector")


def _realized_fit(spec: EstimatorSpec, pi: PiDiagonal, y: np.ndarray, r: np.ndarray):
    """The weighted-least-squares fit at each row of r, an S x kn batch of diagonals.

    Solves the stacked system (X' diag(m r_s) X) [b_s, v_s] = [X' diag(m r_s) y, c]
    with one condition check over the whole stack: b_s is the fitted
    coefficient and v_s the bread vector.  Indicator rows give the realized
    fit, r = pi the population one.  Rows whose denominator is singular
    (condition number above COND_FAIL, or not finite) are infeasible and
    come back as NaN.  Returns (X, m, b, v, feasible).
    """
    layout = pi.layout
    xx = spec.design_x(layout)
    m = spec.weight_diag(pi)
    q = xx.shape[1]
    mr = m * r
    outer = (xx[:, :, None] * xx[:, None, :]).reshape(layout.kn, q * q)
    denom = (mr @ outer).reshape(-1, q, q)
    mr *= y
    rhs = np.stack([mr @ xx, np.broadcast_to(spec.padded_contrast(layout), (len(r), q))], 2)
    cond = np.linalg.cond(denom)
    feasible = cond <= COND_FAIL
    if np.any(cond[feasible] > COND_WARN):
        warnings.warn(IllConditionedWarning(cond[feasible].max()), stacklevel=3)
    sol = np.full(rhs.shape, np.nan)
    sol[feasible] = np.linalg.solve(denom[feasible], rhs[feasible])
    return xx, m, sol[:, :, 0], sol[:, :, 1], feasible


def _population_fit(spec: EstimatorSpec, pi: PiDiagonal, y: np.ndarray):
    """The estimator's first-order expansion around R = pi as the affine
    triple (anchor, residual, slope): its value at an indicator vector R is
    anchor + (R residual)' slope.

    WLS family: anchor c'b, residual y - xx b and slope m xx v, from the
    fit at r = pi (coefficient b, bread vector v); raises if that fit's
    denominator is singular.  Horvitz-Thompson is linear in R already:
    anchor 0, residual y and the engine's weights c / (n pi).
    """
    layout = pi.layout
    if spec.kind == "ht":
        return 0.0, y, np.repeat(spec.padded_contrast(layout), layout.n) / (layout.n * pi.probs)
    xx, m, b, v, feasible = _realized_fit(spec, pi, y, pi.probs[None, :])
    if not feasible[0]:
        raise EstimationInfeasibleError("singular population denominator")
    return float(spec.padded_contrast(layout) @ b[0]), y - xx @ b[0], m * (xx @ v[0])


def _evaluate_draws(spec: EstimatorSpec, pi: PiDiagonal, y: np.ndarray, r: np.ndarray,
                    ipw_matrix: np.ndarray | None = None):
    """The estimator and its plug-in bound estimate on one batch of draws.

    r is an S x kn batch of 0/1 indicators, whose producer keeps S at most
    ``batch_rows(kn)``, and y the outcomes (full potential outcomes or an
    observed vector; only R y enters).  Horvitz-Thompson is one
    product with its fixed weight vector; the rest of the family goes through the
    stacked realized fit.  The plug-in vector R z-hat replaces population
    denominators and coefficients by realized ones, and the bound estimate
    is R z-hat' (dtilde / p) R z-hat.

    Returns (points, bounds or None without ipw_matrix, feasible); rows
    with a singular realized denominator are infeasible and hold NaN.
    """
    layout = pi.layout
    fc = spec.padded_contrast(layout)
    rz = r * y  # R y, then in place R z-hat
    if spec.kind == "ht":
        carm = np.repeat(fc, layout.n)
        points = rz @ (carm / (layout.n * pi.probs))
        feasible = np.ones(len(r), dtype=bool)
        rz *= carm
        rz /= layout.n
    else:
        xx, m, b, v, feasible = _realized_fit(spec, pi, y, r)
        points = b @ fc
        fitted = b @ xx.T
        fitted *= r
        rz -= fitted  # the residual
        del fitted
        rz *= pi.probs
        lever = v @ xx.T
        lever *= m
        rz *= lever
        del lever
    bounds = None if ipw_matrix is None else np.einsum("sa,sa->s", rz @ ipw_matrix, rz)
    return points, bounds, feasible


def _evaluate_one(spec: EstimatorSpec, data: ObservedData, pi: PiDiagonal,
                  ipw_matrix: np.ndarray | None = None) -> tuple[float, float | None]:
    """Point and plug-in bound estimate at one realized assignment."""
    if data.assignment.layout != pi.layout:
        raise LayoutMismatchError("data and probabilities use different layouts")
    points, bounds, feasible = _evaluate_draws(
        spec, pi, data.y_obs, data.assignment.indicators()[None, :], ipw_matrix
    )
    if not feasible[0]:
        raise EstimationInfeasibleError(
            "singular realized denominator; likely an arm with no assigned units"
        )
    return float(points[0]), None if bounds is None else float(bounds[0])


def point_estimate(spec: EstimatorSpec, data: ObservedData, pi: PiDiagonal) -> float:
    """Evaluate c' W(R) R y at the realized assignment."""
    return _evaluate_one(spec, data, pi)[0]


def linearization_vector(
    spec: EstimatorSpec, y: np.ndarray, pi: PiDiagonal
) -> LinearizationVector:
    """Population linearization vector for the spec'd estimator.

    Horvitz-Thompson: z = y scaled by its arm's contrast weight over n.
    WLS family: z = pi * residual * slope, from ``_population_fit``: pi *
    (y - xx b) * (m xx (xx' m pi xx)^{-1} c) with b the population
    weighted-least-squares coefficient.
    """
    layout = pi.layout
    y = layout.check_vector(y, "potential outcomes")
    if not np.all(np.isfinite(y)):
        raise ValidationError("potential outcomes must be finite")
    if spec.kind == "ht":
        return ht_linearization(y, spec.contrast, layout)
    _, resid, slope = _population_fit(spec, pi, y)
    return LinearizationVector(layout, pi.probs * resid * slope)


def taylor_variance(z: LinearizationVector, dmat: DesignMatrix) -> float:
    """Quadratic form z' d z; the exact variance of the linearized estimator.

    Negative values within 1e-10 |z|'|d||z| of zero are rounding residue of
    a PSD quadratic and are clamped to zero, at every scale of z; anything
    more negative is returned as-is so broken inputs stay visible.
    """
    if z.layout != dmat.layout:
        raise LayoutMismatchError("linearization vector and design matrix disagree")
    val = float(z.z @ dmat.d @ z.z)
    if val < 0.0 and -val <= 1e-10 * float(np.abs(z.z) @ np.abs(dmat.d) @ np.abs(z.z)):
        return 0.0
    return val


def ht_linearization(y: np.ndarray, c: np.ndarray, layout: IndexLayout) -> LinearizationVector:
    """z for the Horvitz-Thompson estimator, free of any probabilities."""
    y = layout.check_vector(y, "potential outcomes")
    c = layout.check_contrast(c)
    if not np.all(np.isfinite(c)):
        raise ValidationError("contrast must be finite")
    z = y * np.repeat(c, layout.n) / layout.n
    return LinearizationVector(layout, z)


def ht_exact_variance(y: np.ndarray, c: np.ndarray, dmat: DesignMatrix) -> float:
    """Exact variance of the Horvitz-Thompson contrast estimator."""
    return taylor_variance(ht_linearization(y, c, dmat.layout), dmat)


def linearized_estimator(spec: EstimatorSpec, y: np.ndarray, pi: PiDiagonal):
    """Closure evaluating the first-order linearization at indicator vectors.

    The affine form anchor + (R residual)' slope of ``_population_fit``:
    for the WLS family the coefficient-anchored expansion
    c'b + c'w R (y - xx b) around R = pi; for Horvitz-Thompson the
    estimator itself.  The closure takes one indicator vector (returning a
    float) or an S x kn batch (returning S values).
    """
    y = pi.layout.check_vector(y, "potential outcomes")
    anchor, resid, slope = _population_fit(spec, pi, y)

    def linearized(r: np.ndarray):
        r = np.asarray(r, dtype=float)
        values = anchor + (np.atleast_2d(r) * resid) @ slope
        return values if r.ndim == 2 else float(values[0])

    return linearized


def _linearization_gap(
    spec: EstimatorSpec, pi: PiDiagonal, y: np.ndarray, batches: Iterable[np.ndarray], what: str
) -> float:
    """max |estimator - linearization| over the draws in ``batches``, S x kn
    indicator batches.

    Draws with a singular realized denominator are excluded and reported
    through one warning that counts them, over all batches, as ``what``.
    """
    linearized = linearized_estimator(spec, y, pi)
    gap, skipped, total = 0.0, 0, 0
    for r in batches:
        points, _, feasible = _evaluate_draws(spec, pi, y, r)
        skipped += int(np.sum(~feasible))
        total += len(r)
        gap = max(gap, float(np.abs(points - linearized(r))[feasible].max(initial=0.0)))
    if skipped:
        warnings.warn(
            f"{skipped} of {total} {what} were estimation-infeasible and "
            "excluded from the gap",
            InfeasiblePointsWarning,
            stacklevel=3,
        )
    return gap


def taylor_gap(spec: EstimatorSpec, design: Design, y: np.ndarray) -> float:
    """Worst-case gap between the estimator and its linearization.

    Scans the whole support and returns max |point - linearized|; support
    points where the realized denominator is singular are excluded and
    reported through a warning.  A design with no support (see
    ``Design.enumerated``) raises SupportOverflowError.
    """
    design.enumerated("taylor_gap")
    y = design.layout.check_vector(y, "potential outcomes")
    return _linearization_gap(spec, inclusion_probabilities(design), y,
                              design.support_indicators(), "support points")
