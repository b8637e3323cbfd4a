"""Eigen-based certification and comparison of designs and bounds.

Every decomposition runs per connected component of the matrix's nonzero
pattern: the components of one size are stacked and go through one
batched ``np.linalg.eigh`` call.  Design, mask and bound matrices split
into many small components (a unit's arms, a pair, a block, a cluster),
so their spectra cost little; a dense matrix is one component and is
decomposed whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .designs import DesignMatrix, check_symmetric
from .errors import LayoutMismatchError, ValidationError

DEFAULT_PSD_TOL = 1e-8
PSD_ABS_FLOOR = 1e-10


@dataclass(eq=False)
class EigenReport:
    """Full symmetric eigendecomposition with a PSD verdict.

    Eigenvalues are sorted descending; eigenvector columns match that
    order.  psd is judged against a relative threshold: tol times the
    dominant eigenvalue magnitude, floored at an absolute 1e-10.
    The eigenvectors are kept as per-component blocks, (indices, columns,
    vectors) per component size; ``eigenvectors`` assembles the dense
    matrix from them on first read.
    """

    eigenvalues: np.ndarray
    min_eig: float
    max_eig: float
    psd: bool
    tol: float
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        vecs = np.zeros((len(self.eigenvalues),) * 2)
        for idx, cols, v in self.blocks:
            vecs[idx[:, :, None], cols[:, None, :]] = v
        return vecs


def psd_threshold(max_eig: float, tol: float) -> float:
    """The PSD threshold for a spectrum whose dominant eigenvalue is
    ``max_eig``.  ``tol`` must be finite and in [0, 1): from 1 on the
    threshold is at least the dominant magnitude, so a verdict says nothing."""
    if not 0.0 <= tol < 1.0:
        raise ValidationError(f"tol must be a finite number in [0, 1), got {tol}")
    return max(tol * abs(max_eig), PSD_ABS_FLOOR)


def connected_components(pattern: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean pattern, grouped by size.

    Returns one (count, size) index array per component size, smallest
    size first; each row lists one component's indices in increasing
    order.  An index with an empty row is a component of size one.

    Labels start as the indices.  Each pass hooks every index to the
    smallest label among its neighbours, and every root to the smallest
    label its members see, then jumps pointers (label of the label) until
    they settle; passes repeat until no label changes.
    A pass reads one boolean copy of the pattern with its rows in label
    order, so no kn x kn integer array is formed.
    """
    adj = np.array(pattern, dtype=bool)
    np.fill_diagonal(adj, True)
    labels = np.arange(len(adj))
    while True:
        order = np.argsort(labels, kind="stable")
        # first row in label order that touches each column: its smallest neighbouring label
        hooked = labels[order[adj[order].argmax(axis=0)]]
        # each root also takes the smallest label any of its members sees
        np.minimum.at(hooked, labels, hooked.copy())
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, labels):
            break
        labels = hooked
    sizes = np.bincount(labels)[labels]
    nodes = np.lexsort((labels, sizes))  # stable: indices ascend within a component
    # the distinct sizes, ascending; an index-free np.unique imports numpy.ma (numpy >= 2.3)
    return [nodes[sizes[nodes] == s].reshape(-1, s) for s in np.flatnonzero(np.bincount(sizes))]


def eigen_psd_check(m: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> EigenReport:
    """Symmetric eigendecomposition with a tolerance-based PSD verdict.

    The input must be symmetric to within 1e-10 times its largest entry
    magnitude and is symmetrized as (M + M') / 2 before decomposition.
    The decomposition runs once per component size over the stacked
    blocks of ``connected_components`` of the nonzero pattern; each
    block's eigenvectors are kept with the indices and the (sorted)
    columns they take in the full, zero-padded eigenvector matrix.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValidationError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    check_symmetric(m, "matrix")
    sym = np.add(m, m.T)
    sym /= 2.0
    vals, blocks, start = np.empty(len(sym)), [], 0
    for idx in connected_components(sym != 0):
        w, v = np.linalg.eigh(sym[idx[:, :, None], idx[:, None, :]])
        cols = np.arange(start, start + idx.size).reshape(idx.shape)  # this group's eigenpairs
        vals[cols] = w
        blocks.append((idx, cols, v))
        start += idx.size
    order = np.argsort(vals)[::-1]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))  # the sorted column of each eigenpair
    vals = vals[order]
    max_eig, min_eig = float(vals[0]), float(vals[-1])
    psd = min_eig >= -psd_threshold(max_eig, tol)
    blocks = [(idx, rank[cols], v) for idx, cols, v in blocks]
    return EigenReport(vals, min_eig, max_eig, psd, tol, blocks)


@dataclass(eq=False)
class DesignComparison:
    """Spectrum of the difference of two design matrices.

    Eigenvectors attached to nonzero eigenvalues are reshaped into one
    n-vector per arm; positive eigenvalues point at outcome profiles where
    the second design has smaller variance, negative ones the reverse.
    """

    report: EigenReport
    extremal: list[tuple[float, np.ndarray]]  # (eigenvalue, k x n profile)


def compare_designs(
    d_a: DesignMatrix, d_b: DesignMatrix, tol: float = DEFAULT_PSD_TOL
) -> DesignComparison:
    """Eigendecompose d_a - d_b and extract extremal outcome directions."""
    if d_a.layout != d_b.layout:
        raise LayoutMismatchError("design matrices use different layouts")
    layout = d_a.layout
    report = eigen_psd_check(d_a.d - d_b.d, tol)
    thresh = psd_threshold(report.max_eig, tol)
    extremal = []
    for j, lam in enumerate(report.eigenvalues):
        if abs(lam) > thresh:
            profile = report.eigenvectors[:, j].reshape(layout.k, layout.n)
            extremal.append((float(lam), profile))
    return DesignComparison(report, extremal)


@dataclass(eq=False)
class ComparisonVerdict:
    """Outcome of comparing two candidate bounding matrices.

    relation is "a-tighter", "b-tighter", "equal", or "incomparable";
    evidence holds the eigen report of (b - a).
    """

    relation: str
    evidence: EigenReport


def compare_bounds(
    a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_PSD_TOL
) -> ComparisonVerdict:
    """Which of two bounding matrices dominates, judged spectrally.

    a is tighter when b - a is PSD and nonzero; symmetric for b; an
    indefinite difference means the bounds are incomparable.
    """
    a = np.asarray(getattr(a, "dtilde", a), dtype=float)
    b = np.asarray(getattr(b, "dtilde", b), dtype=float)
    if a.shape != b.shape:
        raise LayoutMismatchError("bound matrices have different shapes")
    report = eigen_psd_check(b - a, tol)
    scale = max(abs(report.max_eig), abs(report.min_eig))
    thresh = psd_threshold(scale, tol)
    has_pos = report.max_eig > thresh
    has_neg = report.min_eig < -thresh
    if not has_pos and not has_neg:
        relation = "equal"
    elif has_pos and not has_neg:
        relation = "a-tighter"
    elif has_neg and not has_pos:
        relation = "b-tighter"
    else:
        relation = "incomparable"
    return ComparisonVerdict(relation, report)
