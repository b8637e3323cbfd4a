"""Construction and certification of variance-bound matrices.

A candidate bounding matrix dominates the design matrix in quadratic
form exactly when their difference is positive semidefinite; it yields
an *identified* bound when it vanishes wherever a joint assignment is
impossible.  Three constructions are provided: the block-diagonal
(generalized Neyman) bound, the Aronow-Samii bound, and an iterative
projection scheme that alternates PSD projection with re-forcing the
impossible positions.  Certification and the projection both work per
connected component of the nonzero pattern (see ``spectral``): a pair,
a block, a cluster or one unit's arms is decomposed on its own, in one
batched eigendecomposition with every other component of its size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import (DesignMatrix, ExactMatrix, ImpossibilityMask, IndexLayout,
                      _diagonal_matrix, elementwise)
from .errors import (
    LayoutMismatchError,
    NeymanPreconditionError,
    NonConvergenceError,
    ValidationError,
)
from .spectral import DEFAULT_PSD_TOL, connected_components, eigen_psd_check, psd_threshold


@dataclass(eq=False)
class BoundMatrix:
    """A candidate variance-bound matrix with its certification state.

    certified_bounding / certified_identified are tri-state strings
    ("yes", "no", "unchecked"); iterations is set by the projection
    algorithm only.
    """

    layout: IndexLayout
    dtilde: np.ndarray
    method: str  # "neyman" | "aronow-samii" | "algorithm-m" | "user"
    frac: ExactMatrix | None = None
    certified_bounding: str = "unchecked"
    certified_identified: str = "unchecked"
    iterations: int | None = None
    diff_min_eig: float | None = None

    def __post_init__(self):
        self.dtilde = self.layout.check_matrix(self.dtilde, "bounding matrix")


def user_bound(matrix: np.ndarray, layout: IndexLayout) -> BoundMatrix:
    """Wrap a user-supplied matrix for certification."""
    return BoundMatrix(layout, np.asarray(matrix, dtype=float), "user")


def derive_mask(dmat: DesignMatrix) -> ImpossibilityMask:
    """The pairs where d is -1: ``dmat.mask``, derived once and kept."""
    return dmat.mask


def _mask_for(dmat: DesignMatrix, mask: ImpossibilityMask | None) -> ImpossibilityMask:
    """The caller's mask, on the design matrix's layout, or d's own."""
    if mask is None:
        return dmat.mask
    if mask.layout != dmat.layout:
        raise LayoutMismatchError("mask and design matrix use different layouts")
    return mask


def certify(
    bound: BoundMatrix,
    dmat: DesignMatrix,
    mask: ImpossibilityMask | None = None,
    tol: float = DEFAULT_PSD_TOL,
) -> BoundMatrix:
    """Run both certifications and update the bound's tri-states.

    Bounding: the difference dtilde - d must be PSD within tolerance.
    Identified: dtilde must be exactly zero at every pair where d is -1
    (``dmat.mask``) and at every pair a given mask marks besides.
    """
    if bound.layout != dmat.layout:
        raise LayoutMismatchError("bound and design matrix use different layouts")
    mask = _mask_for(dmat, mask)
    report = eigen_psd_check(bound.dtilde - dmat.d, tol)
    bound.certified_bounding = "yes" if report.psd else "no"
    bound.diff_min_eig = report.min_eig
    masked = np.maximum(dmat.mask.mask, mask.mask)
    bound.certified_identified = "yes" if np.all(bound.dtilde[masked == 1.0] == 0.0) else "no"
    return bound


def neyman_bound(
    dmat: DesignMatrix,
    c: np.ndarray,
    mask: ImpossibilityMask | None = None,
    tol: float = DEFAULT_PSD_TOL,
) -> BoundMatrix:
    """Block-diagonal bound: block (r, r) is d_rr - d_01, other blocks zero.

    So dtilde - d = -(1 1') kron d_01, PSD because the shared off-diagonal
    block d_01 is negative semidefinite.  It is the generalized Neyman
    bound sum_s (c_s / c_r) d_rs under that bound's preconditions, which
    the contrast gates but does not enter: no diagonal block of d holds a
    -1 (read off ``dmat.mask``, whatever mask is given), every off-diagonal
    block equals d_01, the contrast sums to zero and has no zero entry.  The
    quadratic-form slack is sum_{r<s} c_r c_s tau_rs' d_01 tau_rs, with
    tau_rs the arm-r-minus-arm-s effect vector.
    """
    layout = dmat.layout
    k, n = layout.k, layout.n
    c = layout.check_contrast(c)
    mask = _mask_for(dmat, mask)
    if not np.all(np.isfinite(c)):
        raise NeymanPreconditionError(f"contrast entries must be finite (got {c})")
    if abs(float(c.sum())) > 1e-12:
        raise NeymanPreconditionError(
            f"contrast entries must sum to zero (got {c.sum()})"
        )
    if np.any(c == 0.0):
        raise NeymanPreconditionError(
            "every contrast entry must be nonzero for the block-diagonal bound"
        )
    arms = np.arange(k)
    diagonal = dmat.mask.mask.reshape(k, n, k, n)[arms, :, arms, :]  # (k, n, n): block (r, r)
    bad = np.flatnonzero((diagonal == 1.0).any(axis=(1, 2))).tolist()
    if bad:
        raise NeymanPreconditionError(
            "the block-diagonal bound does not apply: diagonal block(s) "
            f"{bad} contain -1 entries (impossible same-arm joint assignments)"
        )
    # d - d01, with block (0, 1) of d at every arm pair (exact when d is): the
    # diagonal blocks are the bound's, the off-diagonal ones the gap to block
    # (0, 1), which exact values must close exactly and floats (read from
    # files) within 1e-12; + 0 turns -0.0 into 0.0
    unit = np.tile(np.arange(n), k)
    d = dmat.frac or dmat.d
    dt, frac = elementwise(lambda d, d01: d - d01 + 0, d, d[np.ix_(unit, n + unit)])
    blocks = dt.reshape(k, n, k, n).swapaxes(1, 2)  # a view: (r, s) is block (r, s)
    off = arms[:, None] != arms[None, :]
    worst = np.abs(blocks).max(axis=(2, 3))
    differ = np.argwhere(~(worst <= (1e-12 if frac is None else 0.0)) & off)
    if len(differ):
        r, s = differ[0]
        raise NeymanPreconditionError(
            f"off-diagonal blocks ({r},{s}) and (0,1) differ; the "
            "block-diagonal bound needs them all equal"
        )
    blocks[off] = 0.0  # the float residue; exact values are zero there already
    bound = BoundMatrix(layout, dt, "neyman", frac=frac)
    return certify(bound, dmat, mask, tol)


def aronow_samii_bound(
    dmat: DesignMatrix,
    mask: ImpossibilityMask | None = None,
    tol: float = DEFAULT_PSD_TOL,
) -> BoundMatrix:
    """Zero out impossible positions and absorb them into the diagonal.

    dtilde = d + mask + diag(mask row sums).  The added part has each
    diagonal entry equal to its row's absolute off-diagonal sum, so it is
    PSD by Gershgorin discs for any identified design; the eigen
    certification is still executed.  Over class tables (a built-in
    family's d and mask) the formula runs on the tables.
    """
    layout = dmat.layout
    mask = _mask_for(dmat, mask)
    m = mask.frac if mask.frac is not None else ExactMatrix.of((0, 1), mask.mask)
    dt, frac = elementwise(lambda d, m, r: d + m + r, dmat.frac or dmat.d, m,
                           _diagonal_matrix(mask.mask.sum(axis=1).astype(np.int64), m))
    bound = BoundMatrix(layout, dt, "aronow-samii", frac=frac)
    return certify(bound, dmat, mask, tol)


def algorithm_m_bound(
    dmat: DesignMatrix,
    mask: ImpossibilityMask | None = None,
    tol: float = DEFAULT_PSD_TOL,
    max_iter: int = 10000,
) -> BoundMatrix:
    """Alternating projection: PSD-project, then re-force masked entries.

    Starts from the mask itself and iterates until the working matrix is
    PSD within tolerance while keeping exact ones at every masked
    position.  The converged additive part t gives dtilde = d + t, which
    is identified by construction.

    Both steps keep the connected components of the mask's nonzero
    pattern, so the iterate is held as stacked (count, size, size)
    blocks, one stack per component size, and each step is one batched
    eigendecomposition per stack.  Convergence is judged on the smallest
    and largest eigenvalue over all blocks, which are those of the whole
    matrix.  t is zero outside the blocks.
    """
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    layout = dmat.layout
    mask = _mask_for(dmat, mask)
    m = mask.mask
    # projecting a block-diagonal matrix and re-masking keep it block-diagonal,
    # so every iterate lives in the blocks of the mask's nonzero pattern
    blocks = [(idx[:, :, None], idx[:, None, :])
              for idx in connected_components((m != 0) | (m.T != 0))]
    ms = [m[b] for b in blocks]
    ts = ms
    for iteration in range(1, max_iter + 1):
        ts = [(tb + tb.swapaxes(1, 2)) / 2.0 for tb in ts]
        spectra = [np.linalg.eigh(tb) for tb in ts]
        last_min = min(float(vals[:, 0].min()) for vals, _ in spectra)
        max_eig = max(float(vals[:, -1].max()) for vals, _ in spectra)
        if last_min >= -psd_threshold(max_eig, tol):
            t = np.zeros(m.shape)
            for b, tb in zip(blocks, ts):
                t[b] = tb
            bound = BoundMatrix(layout, dmat.d + t, "algorithm-m", iterations=iteration)
            return certify(bound, dmat, mask, tol)
        projected = [(vecs * np.clip(vals, 0.0, None)[:, None, :]) @ vecs.swapaxes(1, 2)
                     for vals, vecs in spectra]
        ts = [mb + (1.0 - mb) * pb for mb, pb in zip(ms, projected)]
    raise NonConvergenceError(
        f"projection did not converge within {max_iter} iterations "
        f"(last minimum eigenvalue {last_min:.3e})",
        iterations=max_iter,
        last_min_eig=last_min,
    )


BOUND_METHOD_ALIASES = {
    "neyman": "neyman",
    "as": "aronow-samii",
    "aronow-samii": "aronow-samii",
    "algm": "algorithm-m",
    "algorithm-m": "algorithm-m",
}


def build_bound(
    method: str,
    dmat: DesignMatrix,
    mask: ImpossibilityMask | None = None,
    contrast: np.ndarray | None = None,
    tol: float = DEFAULT_PSD_TOL,
    max_iter: int = 10000,
) -> BoundMatrix:
    """Construct a bound by method name ("neyman", "as", "algm")."""
    if not isinstance(method, str):
        raise ValidationError(f"bound method must be a string, got {method!r}")
    canonical = BOUND_METHOD_ALIASES.get(method.lower())
    if canonical is None:
        raise ValidationError(f"unknown bound method {method!r}")
    if canonical == "neyman":
        if contrast is None:
            raise ValidationError("the block-diagonal bound needs a contrast vector")
        return neyman_bound(dmat, contrast, mask, tol)
    if canonical == "aronow-samii":
        return aronow_samii_bound(dmat, mask, tol)
    return algorithm_m_bound(dmat, mask, tol=tol, max_iter=max_iter)


def is_invariant_bounding(
    dtilde: np.ndarray | BoundMatrix, layout: IndexLayout, tol: float = 1e-10
) -> bool:
    """True when each row of every n x n arm-pair partition sums to zero
    within ``tol`` times its absolute sum; a non-finite entry makes it False.

    Quadratic forms of such matrices are unchanged by adding a constant
    within each arm of the outcome vector.
    """
    dt = layout.check_matrix(getattr(dtilde, "dtilde", dtilde), "bounding matrix")
    # rows[a, s]: row a's entries in block column s
    rows = dt.reshape(layout.kn, layout.k, layout.n)
    sums, scale = np.abs(rows.sum(axis=2)), tol * np.abs(rows).sum(axis=2)
    return bool(np.isfinite(dt).all() and np.all(sums <= scale))
