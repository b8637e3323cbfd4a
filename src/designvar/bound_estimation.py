"""Estimating variance bounds from one realized assignment.

The workhorse is the inverse-probability weighted bound matrix: divide
the bounding matrix elementwise by the joint assignment probabilities
(0/0 resolving to 0, which identification guarantees is the only zero
division).  Sandwiching it between observed linearization vectors gives
an unbiased estimate of the bound for Horvitz-Thompson and a plug-in
estimate for the rest of the family.  Textbook HC0 and CR0 sandwich
estimators are implemented separately as reference points; under
Bernoulli (resp. independent-cluster) assignment the plug-in estimate
for OLS reproduces them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundMatrix
from .designs import Assignment, ExactMatrix, IndexLayout, JointProbMatrix, PiDiagonal, elementwise
from .errors import (
    EstimationInfeasibleError,
    LayoutMismatchError,
    NotIdentifiedBoundError,
)
from .estimators import EstimatorSpec, ObservedData, _evaluate_one, ht_linearization


@dataclass(eq=False)
class IpwBoundMatrix:
    """Bounding matrix divided elementwise by joint probabilities."""

    layout: IndexLayout
    matrix: np.ndarray
    frac: ExactMatrix | None = None

    def __post_init__(self):
        self.matrix = self.layout.check_matrix(self.matrix, "weighted bound matrix")


@dataclass(eq=False)
class BoundEstimate:
    """A single-draw estimate of a variance bound."""

    value: float
    estimator: str
    bound_method: str
    plug_in: bool


def ipw_bound_matrix(bound: BoundMatrix, p: JointProbMatrix) -> IpwBoundMatrix:
    """Elementwise dtilde / p with the 0/0 -> 0 convention.

    Requires an identified bound: a nonzero dtilde entry over a zero
    joint probability has no unbiased estimator and raises.
    """
    if bound.layout != p.layout:
        raise LayoutMismatchError("bound and joint probabilities use different layouts")
    if bound.certified_identified == "no":
        raise NotIdentifiedBoundError(
            "bound is certified non-identified; cannot inverse-probability weight it"
        )
    dt, joint = bound.frac or bound.dtilde, p.frac or p.p
    unidentified, _ = elementwise(lambda t, pab: (t != 0) * (pab == 0), dt, joint)
    if np.any(unidentified):
        a, b = np.argwhere(unidentified)[0]
        raise NotIdentifiedBoundError(
            f"bound entry ({a},{b}) is nonzero but the joint assignment probability is zero"
        )
    # where p is zero so is dtilde, and dividing by p + 1 = 1 gives the 0
    matrix, frac = elementwise(lambda t, pab: t / (pab + (pab == 0)), dt, joint)
    return IpwBoundMatrix(bound.layout, matrix, frac=frac)


def ht_bound_estimate(
    y: np.ndarray,
    c: np.ndarray,
    assignment: Assignment,
    ipw: IpwBoundMatrix,
    bound_method: str = "user",
) -> BoundEstimate:
    """Unbiased single-draw estimate of the Horvitz-Thompson bound.

    Sandwiches the weighted bound matrix between the observed projection
    of the Horvitz-Thompson linearization vector; only observed
    coordinates of y enter.
    """
    layout = ipw.layout
    if assignment.layout != layout:
        raise LayoutMismatchError("assignment and bound use different layouts")
    z = ht_linearization(y, c, layout).z
    rz = assignment.indicators() * z
    value = float(rz @ ipw.matrix @ rz)
    return BoundEstimate(value, "ht", bound_method, plug_in=False)


def plugin_bound_estimate(
    spec: EstimatorSpec,
    data: ObservedData,
    pi: PiDiagonal,
    ipw: IpwBoundMatrix,
    bound_method: str = "user",
) -> BoundEstimate:
    """Plug-in bound estimate for any estimator in the family.

    Population quantities in the linearization vector are replaced by
    realized-denominator analogues fitted on the observed data.
    """
    value = _evaluate_one(spec, data, pi, ipw.matrix)[1]
    return BoundEstimate(value, spec.kind, bound_method, plug_in=spec.kind != "ht")


def _sandwich_pieces(data: ObservedData, xx: np.ndarray, c: np.ndarray):
    layout = data.assignment.layout
    xx = np.asarray(xx, dtype=float)
    if xx.shape[0] != layout.kn:
        raise LayoutMismatchError("covariate expansion rows do not match kn")
    l = xx.shape[1] - layout.k
    if l < 0:
        raise LayoutMismatchError("covariate expansion has fewer columns than arms")
    c = np.asarray(c, dtype=float)
    if c.shape == (layout.k,):
        fc = np.concatenate([c, np.zeros(l)])
    elif c.shape == (layout.k + l,):
        fc = c
    else:
        raise LayoutMismatchError("contrast length matches neither k nor k+l")
    r = data.assignment.indicators()
    denom = (xx * r[:, None]).T @ xx
    try:
        bhat = np.linalg.solve(denom, xx.T @ data.y_obs)
        bread_c = np.linalg.solve(denom, fc)
    except np.linalg.LinAlgError as exc:
        raise EstimationInfeasibleError(f"singular realized denominator: {exc}") from exc
    u_obs = data.y_obs - r * (xx @ bhat)
    return bread_c, u_obs


def hc0_sandwich(data: ObservedData, xx: np.ndarray, c: np.ndarray) -> float:
    """Heteroskedasticity-consistent (HC0) sandwich for the OLS contrast.

    c' (X'RX)^-1 X' diag(R u-hat^2) X (X'RX)^-1 c with u-hat the realized
    residuals.  Written directly from that formula, independent of the
    bound machinery, so it can serve as an oracle for it.
    """
    bread_c, u_obs = _sandwich_pieces(data, xx, c)
    xx = np.asarray(xx, dtype=float)
    meat = (xx * (u_obs**2)[:, None]).T @ xx
    return float(bread_c @ meat @ bread_c)


def cr0_sandwich(
    data: ObservedData, xx: np.ndarray, c: np.ndarray, clusters: list[list[int]]
) -> float:
    """Cluster-robust (CR0) sandwich for the OLS contrast.

    Meat is the sum over clusters of outer products of within-cluster
    score sums; singleton clusters reduce it to HC0.
    """
    layout = data.assignment.layout
    bread_c, u_obs = _sandwich_pieces(data, xx, c)
    xx = np.asarray(xx, dtype=float)
    meat = np.zeros((xx.shape[1], xx.shape[1]))
    seen = set()
    for cl in clusters:
        seen.update(int(u) for u in cl)
        idx = [r * layout.n + int(u) for r in range(layout.k) for u in cl]
        score = xx[idx].T @ u_obs[idx]
        meat += np.outer(score, score)
    if seen != set(range(layout.n)):
        raise LayoutMismatchError("clusters must partition units 0..n-1")
    return float(bread_c @ meat @ bread_c)
