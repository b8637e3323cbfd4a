"""Growth-condition norms used to check variance-estimator consistency.

The first-order norm is the entrywise absolute sum of the design matrix
scaled by 1/n; the second-order norm does the same for the fourth-order
dependence tensor of pairwise joint inclusion indicators, weighted by a
candidate bounding matrix.  Both should stay bounded along a sequence of
growing designs for root-n rates to hold.
"""

from __future__ import annotations

import numpy as np

from .designs import Design, DesignMatrix, joint_probabilities
from .errors import BudgetExceededError, ValidationError

DEFAULT_ENTRY_BUDGET = 10**8


def first_order_condition_norm(dmat: DesignMatrix) -> float:
    """(1/n) times the sum of absolute entries of the design matrix."""
    return float(np.abs(dmat.d).sum()) / dmat.layout.n


def second_order_condition_norm(
    design: Design,
    dtilde: np.ndarray,
    *,
    entry_budget: int = DEFAULT_ENTRY_BUDGET,
    block_rows: int = 2048,
) -> float:
    """(1/n) times the weighted absolute sum over the fourth-order tensor.

    The tensor entry for index pairs A=(a,b), B=(c,e) is
    E[R_a R_b R_c R_e] / (p_ab p_ce) - 1 with 0/0 resolving to 0; the sum
    accumulates |dtilde_A| * |dtilde_B| * |tensor_AB|.  Requires the exact
    joint law, so the design must have an enumerated support.  The tensor
    is streamed in blocks of index pairs and never materialized whole, but
    the S x (kn)^2 outer products of the support are: BudgetExceededError
    is raised when kn^4 or S (kn)^2 exceeds ``entry_budget``.
    """
    layout = design.layout
    kn = layout.kn
    if design.support is None:
        raise ValidationError(
            "second-order condition norm requires an exact (enumerated) design"
        )
    s_count = len(design.support)
    for what, entries in (("kn^4", kn**4), ("S (kn)^2", s_count * kn**2)):
        if entries > entry_budget:
            raise BudgetExceededError(
                f"{what} = {entries} exceeds the accumulation budget {entry_budget}"
            )
    dt = layout.check_matrix(np.asarray(dtilde, dtype=float), "bounding matrix")

    mat, probs = design.support_arrays()  # S x kn indicators, S probabilities
    # rows of q are the flattened outer products of the indicator vectors
    q = np.einsum("sa,sb->sab", mat, mat).reshape(s_count, kn * kn)
    w = q * probs[:, None]
    pflat = joint_probabilities(design).p.ravel()
    u = np.abs(dt).ravel()

    total = 0.0
    for start in range(0, kn * kn, block_rows):
        stop = min(start + block_rows, kn * kn)
        e4 = q[:, start:stop].T @ w  # (block, kn^2) fourth-order expectations
        pp = pflat[start:stop, None] * pflat[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            tensor = np.where(pp > 0.0, e4 / pp - 1.0, 0.0)
        total += float(u[start:stop] @ np.abs(tensor) @ u)
    return total / layout.n
