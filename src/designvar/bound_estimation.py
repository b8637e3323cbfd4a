"""Estimating variance bounds from one realized assignment.

The workhorse is the inverse-probability weighted bound matrix: divide
the bounding matrix elementwise by the joint assignment probabilities
(0/0 resolving to 0, which identification guarantees is the only zero
division), read through ``Design.joint``.  Sandwiching it between
observed linearization vectors gives an unbiased estimate of the bound
for Horvitz-Thompson and a plug-in estimate for the rest of the family.
Under Bernoulli (resp. independent-cluster) assignment the plug-in
estimate for OLS reproduces the HC0 (resp. CR0) sandwich exactly; the
textbook sandwiches it is checked against live with the tests, in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundMatrix
from .designs import (Assignment, Design, ExactMatrix, IndexLayout, JointProbMatrix,
                      PiDiagonal, elementwise)
from .errors import LayoutMismatchError, NotIdentifiedBoundError
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


def ipw_bound_matrix(bound: BoundMatrix, p: Design | JointProbMatrix) -> IpwBoundMatrix:
    """Elementwise dtilde / ``p.joint`` with the 0/0 -> 0 convention.

    Requires an identified bound: a nonzero dtilde entry over a zero
    joint probability has no unbiased estimator and raises.
    """
    if bound.layout != p.layout:
        raise LayoutMismatchError("bound and joint probabilities use different layouts")
    if bound.certified_identified == "no":
        raise NotIdentifiedBoundError(
            "bound is certified non-identified; cannot inverse-probability weight it"
        )
    dt, joint = bound.frac or bound.dtilde, p.joint
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
