"""Independent oracle implementations used to cross-check the library.

Everything here is written directly from the defining formulas with its
own linear algebra, deliberately not reusing the library's estimator or
bound machinery, so agreement between the two is informative.  Two
exceptions: ``neyman_identity_check`` reads the library's Neyman bound
as the side of the identity it checks, and ``dense_p`` assembles a
design's p as kn x kn codes with the library's dense exact kernel, as
the builders did before they kept class tables, so that the tables are
checked against the construction they replaced.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from collections.abc import Iterator
from fractions import Fraction

import numpy as np

import designvar as dv
from designvar import Design
from designvar.designs import ExactMatrix, elementwise


def reference_support(spec: dict) -> list[tuple[tuple[int, ...], Fraction]]:
    """Support of a JSON design spec, enumerated with itertools over Fractions.

    Points come in the library's documented order: ``itertools.product``
    over units (Bernoulli, first unit slowest) or over blocks (block and
    paired, first block slowest), lexicographic arm sequences (complete),
    the cluster-level order (cluster), and the given order (custom).
    Zero-probability points are left out.
    """
    kind = spec["type"]
    if kind == "bernoulli":
        probs = spec.get("probs", spec.get("p"))
        if isinstance(probs, list):
            rows = probs if isinstance(probs[0], list) else [probs] * spec["n"]
        else:
            rows = [[1 - Fraction(probs), Fraction(probs)]] * spec["n"]
        table = [[Fraction(x) for x in row] for row in rows]
        table = [[x / sum(row) for x in row] for row in table]
        points = []
        for arms in itertools.product(range(len(table[0])), repeat=len(table)):
            prob = math.prod((table[i][r] for i, r in enumerate(arms)), start=Fraction(1))
            if prob:
                points.append((arms, prob))
        return points
    if kind == "complete":
        sequences = multiset_permutations(spec["counts"])
        return [(arms, Fraction(1, len(sequences))) for arms in sequences]
    if kind in ("paired", "block"):
        if kind == "paired":
            k = spec.get("k", 2)
            blocks = [(pair, {"type": "complete", "counts": [1] * k}) for pair in spec["pairs"]]
        else:
            blocks = [(b["units"], {"n": len(b["units"]), **b}) for b in spec["blocks"]]
        n = sum(len(units) for units, _ in blocks)
        points = []
        for combo in itertools.product(*(reference_support(sub) for _, sub in blocks)):
            arms, prob = [0] * n, Fraction(1)
            for (units, _), (sub_arms, sub_prob) in zip(blocks, combo):
                for unit, arm in zip(units, sub_arms):
                    arms[unit] = arm
                prob *= sub_prob
            points.append((tuple(arms), prob))
        return points
    if kind == "cluster":
        clusters = spec["clusters"]
        cluster_of = {u: g for g, cl in enumerate(clusters) for u in cl}
        level = reference_support({"n": len(clusters), **spec["cluster_design"]})
        return [(tuple(arms[cluster_of[u]] for u in range(len(cluster_of))), prob)
                for arms, prob in level]
    if kind == "custom":
        return [(tuple(e["arms"]), Fraction(e["prob"])) for e in spec["support"]]
    raise ValueError(kind)


def assignments(design: Design) -> Iterator[tuple[dv.Assignment, Fraction]]:
    """Each support point as an (Assignment, exact probability) pair, in support order."""
    for arms, prob in zip(design.support.arms, design.support.probs):
        yield dv.Assignment(design.layout, arms), prob


def support_arrays(design: Design) -> tuple[np.ndarray, np.ndarray]:
    """The support as an S x kn 0/1 indicator matrix and its float probabilities."""
    n = design.layout.n
    arms = design.support.arms
    mat = np.zeros((len(arms), design.layout.kn))
    mat[np.arange(len(arms))[:, None], arms * n + np.arange(n)] = 1.0
    return mat, np.array([float(prob) for prob in design.support.probs])


def block(dmat: dv.DesignMatrix, r: int, s: int) -> np.ndarray:
    """The n x n block of a design matrix between arms r and s."""
    n = dmat.layout.n
    return dmat.d[r * n : (r + 1) * n, s * n : (s + 1) * n]


def exact_moments(design: Design) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Inclusion and joint probabilities as Fractions, summed over the support."""
    layout = design.layout
    kn, n = layout.kn, layout.n
    pi = [Fraction(0)] * kn
    p = [[Fraction(0)] * kn for _ in range(kn)]
    for arms, prob in zip(design.support.arms, design.support.probs):
        flat = [int(arms[i]) * n + i for i in range(n)]
        for a in flat:
            pi[a] += prob
            for b in flat:
                p[a][b] += prob
    return pi, p


def empirical_moments(sampler, layout, seed: int, reps: int) -> tuple[np.ndarray, ...]:
    """Monte Carlo (pi, p, pi se, p se) of ``sampler`` over ``reps`` draws.

    Draw ``rep`` comes from the child generator ``default_rng((seed, rep))``.
    Inclusion and co-inclusion are counted as integers, one draw at a time,
    so the sums are exact before the single division by ``reps``; the
    standard errors are the binomial sqrt(q (1 - q) / reps).
    """
    n = layout.n
    pi_count = np.zeros(layout.kn, dtype=np.int64)
    p_count = np.zeros((layout.kn, layout.kn), dtype=np.int64)
    for rep in range(reps):
        arms = sampler(np.random.default_rng((seed, rep)))
        flat = [int(arms[i]) * n + i for i in range(n)]
        for a in flat:
            pi_count[a] += 1
            for b in flat:
                p_count[a, b] += 1
    pi, p = pi_count / reps, p_count / reps
    pi_se = np.sqrt(np.clip(pi * (1 - pi), 0, None) / reps)
    p_se = np.sqrt(np.clip(p * (1 - p), 0, None) / reps)
    return pi, p, pi_se, p_se


def intercept(k: int, n: int) -> np.ndarray:
    return np.kron(np.eye(k), np.ones((n, 1)))


def covariate_expansion(k: int, x: np.ndarray | None, n: int) -> np.ndarray:
    base = intercept(k, n)
    if x is None or x.size == 0:
        return base
    return np.hstack([base, np.tile(np.atleast_2d(x), (k, 1))])


def w_matrix(kind: str, rdiag: np.ndarray, pi: np.ndarray, k: int, n: int,
             x: np.ndarray | None = None, m: np.ndarray | None = None) -> np.ndarray:
    """Estimator weight matrix straight from its definition."""
    ones = intercept(k, n)
    if kind == "ht":
        return np.linalg.inv(ones.T @ ones) @ ones.T @ np.diag(1.0 / pi)
    if kind == "cm":
        return np.linalg.inv(ones.T @ np.diag(rdiag) @ ones) @ ones.T
    if kind == "hj":
        inv_pi = np.diag(1.0 / pi)
        return np.linalg.inv(ones.T @ inv_pi @ np.diag(rdiag) @ ones) @ ones.T @ inv_pi
    xx = covariate_expansion(k, x, n)
    if kind == "ols":
        return np.linalg.inv(xx.T @ np.diag(rdiag) @ xx) @ xx.T
    if kind == "wls":
        md = np.diag(m)
        return np.linalg.inv(xx.T @ md @ np.diag(rdiag) @ xx) @ xx.T @ md
    raise ValueError(kind)


def estimator_value(kind: str, rdiag: np.ndarray, y: np.ndarray, pi: np.ndarray,
                    c_full: np.ndarray, k: int, n: int,
                    x: np.ndarray | None = None, m: np.ndarray | None = None) -> float:
    w = w_matrix(kind, rdiag, pi, k, n, x=x, m=m)
    return float(c_full @ w @ np.diag(rdiag) @ y)


def plug_in_rz(kind: str, rdiag: np.ndarray, y: np.ndarray, pi: np.ndarray,
               c_full: np.ndarray, k: int, n: int,
               x: np.ndarray | None = None, m: np.ndarray | None = None):
    """Observed plug-in linearization vector R z-hat from its definition.

    Horvitz-Thompson: R y scaled by its arm's contrast weight over n.  The
    rest: pi * (R y - R X b-hat) * (c' W(R))' with b-hat = W(R) R y, i.e.
    realized denominators in place of population ones.  None when the
    realized denominator is singular (condition number above 1e15).
    """
    y_obs = rdiag * y
    if kind == "ht":
        return y_obs * np.repeat(c_full, n) / n
    xx = covariate_expansion(k, x, n) if kind in ("ols", "wls") else intercept(k, n)
    weights = {"cm": np.ones(k * n), "ols": np.ones(k * n), "hj": 1.0 / pi}.get(kind, m)
    denom = xx.T @ np.diag(weights * rdiag) @ xx
    if not np.linalg.cond(denom) <= 1e15:
        return None
    w = w_matrix(kind, rdiag, pi, k, n, x=x, m=m)
    bhat = w @ y_obs
    return pi * (y_obs - rdiag * (xx @ bhat)) * (c_full @ w)


def finite_difference_z(kind: str, y: np.ndarray, pi: np.ndarray, c_full: np.ndarray,
                        k: int, n: int, x: np.ndarray | None = None,
                        m: np.ndarray | None = None, step: float = 1e-5) -> np.ndarray:
    """Central-difference linearization vector: z_a = pi_a * df/dR_a at R = pi."""
    kn = k * n
    z = np.zeros(kn)
    for a in range(kn):
        up = pi.copy()
        up[a] += step
        down = pi.copy()
        down[a] -= step
        fp = estimator_value(kind, up, y, pi, c_full, k, n, x=x, m=m)
        fm = estimator_value(kind, down, y, pi, c_full, k, n, x=x, m=m)
        z[a] = pi[a] * (fp - fm) / (2 * step)
    return z


def enumeration_mean_var(design: Design, fn) -> tuple[float, float]:
    """Probability-weighted mean and variance of fn(assignment) over the support."""
    vals = []
    probs = []
    for assignment, prob in assignments(design):
        vals.append(fn(assignment))
        probs.append(float(prob))
    vals = np.array(vals)
    probs = np.array(probs)
    mean = float(probs @ vals)
    return mean, float(probs @ (vals - mean) ** 2)


def enumeration_design_matrix(design: Design) -> np.ndarray:
    """Covariance of the inverse-probability weighted indicators, enumerated."""
    mat, probs = support_arrays(design)
    pi = probs @ mat
    v = mat / pi[None, :]
    mean = probs @ v
    centered = v - mean[None, :]
    return (centered * probs[:, None]).T @ centered


def brute_force_second_order_norm(design: Design, dtilde: np.ndarray) -> float:
    """Quadruple loop over all index tuples, materializing nothing clever."""
    layout = design.layout
    kn = layout.kn
    mat, probs = support_arrays(design)
    p = (mat * probs[:, None]).T @ mat
    total = 0.0
    for a in range(kn):
        for b in range(kn):
            for cc in range(kn):
                for e in range(kn):
                    e4 = float(np.sum(probs * mat[:, a] * mat[:, b] * mat[:, cc] * mat[:, e]))
                    pp = p[a, b] * p[cc, e]
                    dl = e4 / pp - 1.0 if pp > 0 else 0.0
                    total += abs(dtilde[a, b] * dtilde[cc, e] * dl)
    return total / layout.n


def dense_algorithm_m(mask: np.ndarray, tol: float = 1e-8,
                      max_iter: int = 10000) -> tuple[np.ndarray, int]:
    """Alternating projections on the whole kn x kn matrix, one full eigh a step.

    Start from the mask, symmetrize, stop once the smallest eigenvalue is
    at least -max(tol * max(1, |largest|), 1e-10), else clip the negative
    eigenvalues away and put ones back at every masked position.
    Returns the converged additive part and the number of steps taken.
    """
    m = np.asarray(mask, dtype=float)
    t = m.copy()
    for step in range(1, max_iter + 1):
        t = (t + t.T) / 2.0
        vals, vecs = np.linalg.eigh(t)
        if vals[0] >= -max(tol * max(1.0, abs(vals[-1])), 1e-10):
            return t, step
        t = vecs @ np.diag(np.maximum(vals, 0.0)) @ vecs.T
        t = np.where(m == 1.0, 1.0, t)
    raise AssertionError(f"dense projection did not converge in {max_iter} steps")


def hc0_scalar_loops(y_obs: np.ndarray, rdiag: np.ndarray, xx: np.ndarray,
                     c_full: np.ndarray) -> float:
    """HC0 via explicit scalar summations (no matrix sandwich expression)."""
    kn, q = xx.shape
    denom = np.zeros((q, q))
    for a in range(kn):
        if rdiag[a]:
            for i in range(q):
                for j in range(q):
                    denom[i, j] += xx[a, i] * xx[a, j]
    bread = np.linalg.inv(denom)
    bhat = bread @ xx.T @ y_obs
    total = 0.0
    for a in range(kn):
        if rdiag[a]:
            u = y_obs[a] - float(xx[a] @ bhat)
            lever = float(xx[a] @ bread @ c_full)
            total += (u * lever) ** 2
    return total


def neyman_identity_check(
    dmat: dv.DesignMatrix, c: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """Two independent evaluations of the block-diagonal bound's slack.

    Returns (lhs_gap, rhs_sum): the quadratic-form gap
    n^2 (z' dtilde z - z' d z) for the Horvitz-Thompson linearization of
    y, and the direct double sum over arm pairs of
    c_r c_s tau_rs' d_01 tau_rs with tau_rs the arm-r-minus-arm-s effect
    vector.  The two agree identically and the sum is nonnegative because
    the shared off-diagonal block is negative semidefinite.
    """
    layout = dmat.layout
    k, n = layout.k, layout.n
    c = np.asarray(c, dtype=float)
    y = layout.check_vector(y, "potential outcomes")
    bound = dv.neyman_bound(dmat, c)
    z = dv.ht_linearization(y, c, layout).z
    lhs_gap = float(n**2 * (z @ bound.dtilde @ z - z @ dmat.d @ z))
    d01 = block(dmat, 0, 1)
    arm = [y[r * n : (r + 1) * n] for r in range(k)]
    rhs_sum = 0.0
    for r in range(k - 1):
        for s in range(r + 1, k):
            tau = arm[r] - arm[s]
            rhs_sum += c[r] * c[s] * float(tau @ d01 @ tau)
    return lhs_gap, rhs_sum


def _sandwich_pieces(data: dv.ObservedData, xx: np.ndarray, c: np.ndarray):
    layout = data.assignment.layout
    xx = np.asarray(xx, dtype=float)
    if xx.shape[0] != layout.kn:
        raise dv.LayoutMismatchError("covariate expansion rows do not match kn")
    l = xx.shape[1] - layout.k
    if l < 0:
        raise dv.LayoutMismatchError("covariate expansion has fewer columns than arms")
    c = np.asarray(c, dtype=float)
    if c.shape == (layout.k,):
        fc = np.concatenate([c, np.zeros(l)])
    elif c.shape == (layout.k + l,):
        fc = c
    else:
        raise dv.LayoutMismatchError("contrast length matches neither k nor k+l")
    r = data.assignment.indicators()
    denom = (xx * r[:, None]).T @ xx
    try:
        bhat = np.linalg.solve(denom, xx.T @ data.y_obs)
        bread_c = np.linalg.solve(denom, fc)
    except np.linalg.LinAlgError as exc:
        raise dv.EstimationInfeasibleError(f"singular realized denominator: {exc}") from exc
    u_obs = data.y_obs - r * (xx @ bhat)
    return bread_c, u_obs


def hc0_sandwich(data: dv.ObservedData, xx: np.ndarray, c: np.ndarray) -> float:
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
    data: dv.ObservedData, xx: np.ndarray, c: np.ndarray, clusters: list[list[int]]
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
        raise dv.LayoutMismatchError("clusters must partition units 0..n-1")
    return float(bread_c @ meat @ bread_c)


def hc2_sandwich(data: dv.ObservedData, c: np.ndarray) -> float:
    """Leverage-corrected (HC2) sandwich for a contrast of arm means.

    The unit-level regression of each unit's observed outcome on its arm
    dummies: X is n x k with X[i, r] = 1 when unit i is in arm r, u the
    OLS residuals and h_i = x_i' (X'X)^-1 x_i the leverages.  HC2 is
    c' (X'X)^-1 X' diag(u_i^2 / (1 - h_i)) X (X'X)^-1 c (MacKinnon &
    White 1985), written from that formula with its own linear algebra.
    Every arm needs two units, so that each h_i = 1 / n_r stays below 1.
    """
    layout = data.assignment.layout
    arms = data.assignment.arms
    x = (arms[:, None] == np.arange(layout.k)[None, :]).astype(float)
    y = data.y_obs.reshape(layout.k, layout.n)[arms, np.arange(layout.n)]
    bread = np.linalg.inv(x.T @ x)
    u = y - x @ (bread @ (x.T @ y))
    h = np.einsum("ia,ab,ib->i", x, bread, x)
    meat = (x * (u**2 / (1.0 - h))[:, None]).T @ x
    c = np.asarray(c, dtype=float)
    return float(c @ bread @ meat @ bread @ c)


def random_small_design(
    rng: np.random.Generator, max_n: int = 6, max_k: int = 3, min_n: int = 1
) -> Design:
    """A random enumerable design for property tests."""
    family = rng.choice(["bernoulli", "complete", "paired", "block", "cluster"])
    if family == "bernoulli":
        k = int(rng.integers(2, max_k + 1))
        n = int(rng.integers(min_n, max_n + 1))
        probs = rng.dirichlet(np.ones(k) * 5.0, size=n)
        probs = np.clip(probs, 0.05, None)
        probs /= probs.sum(axis=1, keepdims=True)
        return dv.bernoulli_design([[float(v) for v in row] for row in probs])
    if family == "complete":
        k = int(rng.integers(2, max_k + 1))
        counts = [int(rng.integers(1, 3)) for _ in range(k)]
        return dv.complete_design(counts)
    if family == "paired":
        pairs = int(rng.integers(1, max_n // 2 + 1))
        perm = rng.permutation(2 * pairs)
        return dv.paired_design([tuple(perm[2 * j : 2 * j + 2]) for j in range(pairs)])
    if family == "block":
        b1 = dv.complete_design([1, 1])
        b2 = dv.bernoulli_design(0.5, n=2)
        return dv.block_design([([0, 1], b1), ([2, 3], b2)])
    clusters = [[0, 1], [2], [3, 4]]
    if rng.random() < 0.5:
        level = dv.complete_design([1, 2])
    else:
        level = dv.bernoulli_design(0.5, n=3)
    return dv.cluster_design(clusters, level)


def write_matrix_csv_reference(path, matrix) -> None:
    """Matrix CSV the plain way: csv.writer, one repr() (or int) per cell."""
    matrix = np.atleast_2d(np.asarray(matrix))
    as_int = matrix.dtype.kind in "iub"
    matrix = matrix.astype(float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(range(matrix.shape[1]))
        for row in matrix:
            writer.writerow([str(int(v)) if as_int else repr(float(v)) for v in row])


def read_matrix_csv_reference(path) -> np.ndarray:
    """Matrix CSV the plain way: csv.reader, one float() per cell."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise dv.ValidationError(f"{path}: expected a header row plus data rows")
    width = len(rows[0])
    data = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise dv.ValidationError(f"{path}: row {i} has {len(row)} fields, expected {width}")
        try:
            data.append([float(v) for v in row])
        except ValueError as exc:
            raise dv.ValidationError(f"{path}: row {i}: {exc}") from exc
    return np.array(data)


def grouped_reference(fn, operands) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """``elementwise``'s exact grouping the sorting way: np.unique over the
    rows of broadcast operand codes (lexicographic order), ``fn`` on
    Fractions once per distinct row, the results numbered in the order they
    first appear.  Returns (codes, codebook as (numerator, denominator))."""
    shape = np.broadcast_shapes(*(op.codes.shape for op in operands))
    columns = np.stack([np.broadcast_to(op.codes, shape).ravel() for op in operands], axis=1)
    rows, inverse = np.unique(columns, axis=0, return_inverse=True)
    results = [Fraction(fn(*(op.values[c] for op, c in zip(operands, row)))) for row in rows.tolist()]
    book = list(dict.fromkeys(results))
    number = {value: i for i, value in enumerate(book)}
    codes = np.array([number[value] for value in results], dtype=np.intp)[inverse.ravel()]
    return codes.reshape(shape), [(v.numerator, v.denominator) for v in book]


# ---------------------------------------------------------------------------
# dense exact p: the kn x kn construction the builders used before they kept
# class tables, as the reference for them


def _pair_indicators(layout: dv.IndexLayout) -> tuple[ExactMatrix, ExactMatrix]:
    """0/1 matrices marking flat index pairs (a, b) in the same unit / arm."""
    flat = np.arange(layout.kn)
    unit, arm = flat % layout.n, flat // layout.n
    return (
        ExactMatrix.of((0, 1), unit[:, None] == unit[None, :]),
        ExactMatrix.of((0, 1), arm[:, None] == arm[None, :]),
    )


def _embed(codes: np.ndarray, pieces, books=(), *, reached_only: bool = False) -> ExactMatrix:
    """``codes`` over the concatenated ``books``, with each (index, ExactMatrix)
    piece written in; with ``reached_only`` the codebook is first cut to the
    entries whose float equals that of an entry some code reaches."""
    books = list(books)
    offset = sum(map(len, books))
    for index, piece in pieces:
        codes[index] = piece.codes + offset
        books.append(piece.book)
        offset += len(piece.book)
    num, den = (np.concatenate([getattr(b, part) for b in books]) for part in ("num", "den"))
    if reached_only:
        floats = np.concatenate([b.floats for b in books])
        reached = np.sort(floats[codes])
        keep = reached[np.searchsorted(reached, floats).clip(max=len(reached) - 1)] == floats
        codes, num, den = (np.cumsum(keep) - 1)[codes], num[keep], den[keep]
    return ExactMatrix.of(num, codes, den)


def _dense_outer_pair(v: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    a, b = v.codes[:, None], v.codes[None, :]
    return ExactMatrix(np.minimum(a, b), v.book), ExactMatrix(np.maximum(a, b), v.book)


def dense_complete_p(counts) -> tuple[dv.IndexLayout, ExactMatrix]:
    n, k = sum(counts), len(counts)
    layout = dv.IndexLayout(k, n)
    sizes = ExactMatrix.of(counts, np.repeat(np.arange(k), n))
    _, p = elementwise(
        lambda na, nb, same_unit, same_arm: same_unit * same_arm * na / n
        + (1 - same_unit) * na * (nb - same_arm) / (n * max(n - 1, 1)),
        sizes[:, None], sizes[None, :], *_pair_indicators(layout),
    )
    return layout, p


def dense_block_p(layout: dv.IndexLayout, parts) -> ExactMatrix:
    """p of independent parts, (units, part layout, part p) each: cross-block
    joints are products of the marginals, written around the parts' own p."""
    flats = [np.array([layout.flat(r, u) for r in range(layout.k) for u in units])
             for units, _, _ in parts]
    marginals = (p[np.diag_indices(sub.kn)] for _, sub, p in parts)
    pi = _embed(np.empty(layout.kn, dtype=np.intp), zip(flats, marginals), reached_only=True)
    _, across = elementwise(operator.mul, *_dense_outer_pair(pi))
    within = [(np.ix_(idx, idx), p) for idx, (_, _, p) in zip(flats, parts)]
    return _embed(across.codes.copy(), within, [across.book])


def dense_p(spec: dict) -> tuple[dv.IndexLayout, ExactMatrix]:
    """(layout, dense exact p) of a JSON design spec, built the dense way."""
    kind = spec["type"]
    inherited = {"k": spec["k"]} if "k" in spec else {}
    if kind == "complete":
        return dense_complete_p(spec["counts"])
    if kind == "bernoulli":
        probs = spec.get("probs", spec.get("p"))
        if not isinstance(probs, list):
            rows = [[1 - Fraction(probs), Fraction(probs)]] * spec["n"]
        else:
            rows = [probs] * spec["n"] if not isinstance(probs[0], list) else probs
        rows = [[Fraction(x) for x in row] for row in rows]
        k = len(rows[0])
        parts = []
        for unit, row in enumerate(rows):
            row = [x / sum(row) for x in row]
            one = dv.custom_design(dv.IndexLayout(k, 1), [([r], x) for r, x in enumerate(row) if x])
            parts.append(([unit], one.layout, one.p_frac))
        layout = dv.IndexLayout(k, len(rows))
        return layout, dense_block_p(layout, parts)
    if kind in ("paired", "block"):
        if kind == "paired":
            k = spec.get("k", 2)
            subs = [(list(pair), {"type": "complete", "counts": [1] * k}) for pair in spec["pairs"]]
        else:
            subs = [(b["units"], {**inherited, "n": len(b["units"]), **b}) for b in spec["blocks"]]
        parts = [(units, *dense_p(sub)) for units, sub in subs]
        layout = dv.IndexLayout(parts[0][1].k, sum(len(units) for units, _, _ in parts))
        return layout, dense_block_p(layout, parts)
    if kind == "cluster":
        clusters = spec["clusters"]
        level_layout, level_p = dense_p({**inherited, "n": len(clusters), **spec["cluster_design"]})
        n = sum(map(len, clusters))
        layout = dv.IndexLayout(level_layout.k, n)
        group = np.empty(n, dtype=int)
        for g, cl in enumerate(clusters):
            group[cl] = g
        flat = np.arange(layout.kn)
        to_cluster = level_layout.flat(flat // n, group[flat % n])
        return layout, level_p[np.ix_(to_cluster, to_cluster)]
    if kind == "custom":
        design = dv.build_design(spec)
        return design.layout, design.p_frac
    raise ValueError(kind)


def multiset_permutations(counts) -> list[tuple[int, ...]]:
    """Every arrangement of counts[r] copies of each arm r, in lexicographic
    order, from itertools (n! permutations: small n only)."""
    labels = [r for r, c in enumerate(counts) for _ in range(c)]
    return sorted(set(itertools.permutations(labels)))


def assert_same_exact(got: ExactMatrix, want: ExactMatrix) -> None:
    """Equal Fractions entry by entry (compared as reduced integer pairs, so
    codebook order does not enter) and bit-identical floats."""
    assert got.codes.shape == want.codes.shape
    for part in ("num", "den"):
        assert np.array_equal(getattr(got.book, part)[got.codes], getattr(want.book, part)[want.codes])
    assert got.to_float().tobytes() == want.to_float().tobytes()
