"""Growth-condition norms used to check variance-estimator consistency.

The first-order norm is the entrywise absolute sum of the design matrix
scaled by 1/n; the second-order norm does the same for the fourth-order
dependence tensor of pairwise joint inclusion indicators, weighted by a
candidate bounding matrix.  Both should stay bounded along a sequence of
growing designs for root-n rates to hold.
"""

from __future__ import annotations

import numpy as np

from .designs import (
    Design,
    DesignMatrix,
    arms_to_indicators,
    batch_rows,
    joint_probabilities,
)
from .errors import BudgetExceededError

DEFAULT_ENTRY_BUDGET = 10**8


def first_order_condition_norm(dmat: DesignMatrix) -> float:
    """(1/n) times the sum of absolute entries of the design matrix."""
    return float(np.abs(dmat.d).sum()) / dmat.layout.n


def second_order_condition_norm(
    design: Design,
    dtilde: np.ndarray,
    *,
    entry_budget: int = DEFAULT_ENTRY_BUDGET,
) -> float:
    """(1/n) times the weighted absolute sum over the fourth-order tensor.

    The tensor entry for index pairs A=(a,b), B=(c,e) is
    E[R_a R_b R_c R_e] / (p_ab p_ce) - 1 with 0/0 resolving to 0; the sum
    accumulates |dtilde_A| * |dtilde_B| * |tensor_AB|.  Requires the exact
    joint law, so it enumerates the design's support, and raises
    SupportOverflowError when the design has none (``Design.enumerated``).
    The budgets below are checked on ``Design.support_size``, before it
    enumerates.

    The tensor is summed in blocks of ``batch_rows`` rows, and each
    block's fourth-order expectations accumulate over batches of that many
    support points, so no array holds more than one block or one batch of
    rows at most (kn)^2 wide.  The work still grows as S kn^4, and
    BudgetExceededError is raised when kn^4 or S (kn)^2 exceeds
    ``entry_budget``.
    """
    layout = design.layout
    kn = layout.kn
    # without an enumerable support, ``enumerated`` raises below
    s_count = design.support_size
    if s_count is not None and s_count <= design.support_cap:
        for what, entries in (("kn^4", kn**4), ("S (kn)^2", s_count * kn**2)):
            if entries > entry_budget:
                raise BudgetExceededError(
                    f"{what} = {entries} exceeds the accumulation budget {entry_budget}"
                )
    support = design.enumerated("second_order_condition_norm")
    dt = layout.check_matrix(np.asarray(dtilde, dtype=float), "bounding matrix")

    # the tensor depends on A and B only through the unordered pairs {a, b} and
    # {c, e}, so it is summed over pairs a <= b, each weighted by
    # |dtilde_ab| + |dtilde_ba| (|dtilde_aa| on the diagonal); pairs with
    # p_ab = 0 have a zero tensor row and are left out
    p = joint_probabilities(design).p
    first, second = np.triu_indices(kn)
    keep = p[first, second] > 0.0
    first, second = first[keep], second[keep]
    p_pairs = p[first, second]
    u = np.abs(dt)
    w = u[first, second] + u[second, first]
    w[first == second] *= 0.5
    arms, probs = support.arms, support.probs.to_float()
    # the tensor is symmetric: a block of rows takes its columns from its own
    # first row on, and the columns past the block count twice
    m = len(p_pairs)
    rows = batch_rows(m)
    total = 0.0
    for start in range(0, m, rows):
        size = min(rows, m - start)
        e4 = np.zeros((size, m - start))
        cols = slice(start, None)
        for s in range(0, s_count, rows):
            r = arms_to_indicators(arms[s:s + rows], layout)
            q = r[:, first[cols]]
            q *= r[:, second[cols]]  # rows: outer products of the indicators at the pairs
            e4 += (q[:, :size] * probs[s:s + rows, None]).T @ q
        # in place, e4 becomes |E[R_a R_b R_c R_e] / (p_ab p_ce) - 1|
        e4 /= p_pairs[start:start + size, None]
        e4 /= p_pairs[cols]
        e4 -= 1.0
        np.abs(e4, out=e4)
        col_w = w[cols].copy()
        col_w[size:] *= 2.0
        total += float(w[start:start + size] @ e4 @ col_w)
    return total / layout.n
