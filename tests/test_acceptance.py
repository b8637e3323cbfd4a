"""Acceptance suite: one test per release criterion.

Each test prints a [PASS] line (visible with -s or -rP) after its
assertions go through, so the suite doubles as a checklist.
"""

import time

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

import designvar as dv
from conftest import (
    D_COMPLETE,
    D_PAIRED,
    DT_AS_PAIRED,
    DT_INVAR_PAIRED,
    DT_M_PAIRED,
    PAIR_HOMOGENEOUS_PATTERN,
)
from oracles import (
    brute_force_second_order_norm,
    cr0_sandwich,
    enumeration_mean_var,
    finite_difference_z,
    hc0_sandwich,
    neyman_identity_check,
    random_small_design,
)

C2 = np.array([-1.0, 1.0])


def ok(num, text):
    print(f"[PASS] criterion {num:2d}: {text}")


def test_criterion_01_paired_design_matrix_exact():
    start = time.perf_counter()
    design = dv.paired_design([(0, 1), (2, 3)])
    dmat, mask = dv.first_order_design_matrix(design)
    elapsed = time.perf_counter() - start
    assert_array_equal(dmat.d, D_PAIRED)
    assert_array_equal(mask.mask, (D_PAIRED == -1).astype(float))
    assert elapsed < 1.0
    ok(1, f"paired n=4 design matrix exact (built in {elapsed * 1e3:.1f} ms)")


def test_criterion_02_complete_design_matrix_exact():
    design = dv.complete_design([2, 2])
    dmat, _ = dv.first_order_design_matrix(design)
    assert_array_equal(dmat.d, D_COMPLETE)
    values = set(np.unique(dmat.d))
    assert values == {1.0, -1.0, 1.0 / 3.0, -1.0 / 3.0}
    ok(2, "complete(4,2) design matrix exact with entries {1, -1, +-1/3}")


def test_criterion_03_design_comparison_spectrum_and_direction():
    d_cr, _ = dv.first_order_design_matrix(dv.complete_design([2, 2]))
    d_pr, _ = dv.first_order_design_matrix(dv.paired_design([(0, 1), (2, 3)]))
    comp = dv.compare_designs(d_cr, d_pr)
    expected = [8 / 3, 0, 0, 0, 0, 0, -4 / 3, -4 / 3]
    assert_allclose(comp.report.eigenvalues, expected, atol=1e-9, rtol=0)
    v = comp.report.eigenvectors[:, 0]
    u = PAIR_HOMOGENEOUS_PATTERN
    dist = min(np.linalg.norm(v - u), np.linalg.norm(v + u))
    assert dist <= 1e-6
    ok(3, f"comparison spectrum {{8/3, 0 x5, -4/3 x2}}; leading direction within {dist:.1e}")


def test_criterion_04_paired_bounds_match_and_m_is_tighter():
    design = dv.paired_design([(0, 1), (2, 3)])
    dmat, mask = dv.first_order_design_matrix(design)
    b_as = dv.aronow_samii_bound(dmat, mask)
    assert_array_equal(b_as.dtilde, DT_AS_PAIRED)  # rational backend: exact
    # the projection algorithm is iterative; run it tight and compare at
    # the criterion's spectral tolerance
    b_m = dv.algorithm_m_bound(dmat, mask, tol=1e-12)
    assert np.max(np.abs(b_m.dtilde - DT_M_PAIRED)) <= 1e-9
    spectrum = dv.eigen_psd_check(b_as.dtilde - b_m.dtilde).eigenvalues
    assert_allclose(spectrum, [2, 2, 2, 2, 0, 0, 0, 0], atol=1e-9, rtol=0)
    assert dv.compare_bounds(b_m, b_as).relation == "a-tighter"
    ok(4, "paired bounds match the worked matrices; projection bound is tighter")


def test_criterion_05_invariant_bound_spectra():
    design = dv.paired_design([(0, 1), (2, 3)])
    dmat, mask = dv.first_order_design_matrix(design)
    bound = dv.certify(dv.user_bound(DT_INVAR_PAIRED, dmat.layout), dmat, mask)
    assert bound.certified_bounding == "yes"
    assert bound.certified_identified == "yes"
    assert dv.is_invariant_bounding(DT_INVAR_PAIRED, dmat.layout)
    s1 = dv.eigen_psd_check(DT_INVAR_PAIRED - dmat.d).eigenvalues
    assert_allclose(s1, [8, 0, 0, 0, 0, 0, 0, 0], atol=1e-9, rtol=0)
    b_m = dv.algorithm_m_bound(dmat, mask, tol=1e-12)
    s2 = dv.eigen_psd_check(DT_INVAR_PAIRED - b_m.dtilde).eigenvalues
    assert_allclose(s2, [4, 0, 0, 0, 0, 0, 0, -4], atol=1e-9, rtol=0)
    assert dv.compare_bounds(b_m, DT_INVAR_PAIRED).relation == "incomparable"
    ok(5, "invariant bound certified; difference spectra {8,0,...} and {4,0,...,-4}")


def _random_bernoulli_dataset(rng, n_max=12, l_max=3):
    n = int(rng.integers(4, n_max + 1))
    l = int(rng.integers(0, l_max + 1))
    probs = rng.uniform(0.25, 0.75, size=n)
    rng.integers(2**31)  # unused, but the datasets drawn after it depend on this position
    design = dv.bernoulli_design([[1.0 - p, p] for p in probs])
    x = rng.normal(size=(n, l)) if l else None
    y = rng.normal(size=2 * n)
    return design, x, y


def _feasible_draw(design, spec, pi, y, rng, tries=40):
    for _ in range(tries):
        arms = design.draw(rng)
        data = dv.observe(dv.Assignment(design.layout, arms), y)
        try:
            dv.point_estimate(spec, data, pi)
            return data
        except dv.EstimationInfeasibleError:
            continue
    return None


def test_criterion_06_sandwich_equivalences():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    methods = ["neyman", "as", "algm"]
    done = 0
    while done < 200:
        design, x, y = _random_bernoulli_dataset(rng)
        pi = dv.inclusion_probabilities(design)
        spec = dv.EstimatorSpec("ols", C2, covariates=x)
        data = _feasible_draw(design, spec, pi, y, rng)
        if data is None:
            continue
        dmat, mask = dv.first_order_design_matrix(design)
        method = methods[done % 3]
        bound = dv.build_bound(method, dmat, mask, contrast=C2, tol=1e-12)
        ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(design))
        plug = dv.plugin_bound_estimate(spec, data, pi, ipw).value
        hc0 = hc0_sandwich(data, spec.design_x(design.layout), C2)
        assert abs(plug - hc0) <= 1e-10 * max(1.0, abs(hc0))
        done += 1

    done = 0
    while done < 100:
        m = int(rng.integers(3, 7))
        sizes = rng.integers(1, 4, size=m)
        units = iter(range(int(sizes.sum())))
        clusters = [[next(units) for _ in range(s)] for s in sizes]
        n = int(sizes.sum())
        level_probs = rng.uniform(0.3, 0.7, size=m)
        rng.integers(2**31)  # unused, but the datasets drawn after it depend on this position
        level = dv.bernoulli_design([[1.0 - p, p] for p in level_probs])
        design = dv.cluster_design(clusters, level)
        l = int(rng.integers(0, 3))
        x = rng.normal(size=(n, l)) if l else None
        y = rng.normal(size=2 * n)
        pi = dv.inclusion_probabilities(design)
        spec = dv.EstimatorSpec("ols", C2, covariates=x)
        data = _feasible_draw(design, spec, pi, y, rng)
        if data is None:
            continue
        dmat, mask = dv.first_order_design_matrix(design)
        bound = dv.neyman_bound(dmat, C2, mask)
        ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(design))
        plug = dv.plugin_bound_estimate(spec, data, pi, ipw).value
        cr0 = cr0_sandwich(data, spec.design_x(design.layout), C2, clusters)
        assert abs(plug - cr0) <= 1e-10 * max(1.0, abs(cr0))
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(6, f"200 HC0 + 100 CR0 equivalences at 1e-10 relative ({elapsed:.1f} s)")


def test_criterion_07_unbiasedness_by_enumeration():
    rng = np.random.default_rng(7)
    checked_bounds = {"aronow-samii": 0, "algorithm-m": 0, "neyman": 0}
    for trial in range(100):
        design = random_small_design(rng)
        layout = design.layout
        y = rng.normal(size=layout.kn)
        c = rng.normal(size=layout.k)
        c -= c.mean()
        if np.any(np.abs(c) < 1e-3):
            c += np.sign(c + 1e-12) * 0.1
            c -= c.mean()
        pi = dv.inclusion_probabilities(design)
        dmat, mask = dv.first_order_design_matrix(design)
        spec = dv.EstimatorSpec("ht", c)
        mean, var = enumeration_mean_var(
            design, lambda a: dv.point_estimate(spec, dv.observe(a, y), pi)
        )
        estimand = float(c @ y.reshape(layout.k, layout.n).mean(axis=1))
        assert abs(mean - estimand) <= 1e-12
        z = dv.ht_linearization(y, c, layout)
        assert abs(var - dv.taylor_variance(z, dmat)) <= 1e-9

        bounds = [dv.aronow_samii_bound(dmat, mask), dv.algorithm_m_bound(dmat, mask)]
        try:
            bounds.append(dv.neyman_bound(dmat, c, mask))
        except dv.NeymanPreconditionError:
            pass
        p = dv.joint_probabilities(design)
        for bound in bounds:
            ipw = dv.ipw_bound_matrix(bound, p)
            mean_est, _ = enumeration_mean_var(
                design, lambda a: dv.ht_bound_estimate(y, c, a, ipw).value
            )
            target = float(z.z @ bound.dtilde @ z.z)
            assert abs(mean_est - target) <= 1e-9
            checked_bounds[bound.method] += 1
    assert checked_bounds["aronow-samii"] == 100
    assert checked_bounds["algorithm-m"] == 100
    assert checked_bounds["neyman"] > 10
    ok(7, "100 triples: HT unbiased, variance = z'dz, bound estimators unbiased "
          f"(neyman valid on {checked_bounds['neyman']})")


def test_criterion_08_neyman_identity():
    rng = np.random.default_rng(8)
    for trial in range(100):
        k = int(rng.integers(2, 4))
        if rng.random() < 0.5:
            counts = [int(rng.integers(2, 5)) for _ in range(k)]
            design = dv.complete_design(counts)
        else:
            n = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(k) * 8.0, size=n)
            probs = np.clip(probs, 0.1, None)
            probs /= probs.sum(axis=1, keepdims=True)
            design = dv.bernoulli_design([[float(v) for v in row] for row in probs])
        layout = design.layout
        c = rng.normal(size=k)
        c -= c.mean()
        while np.any(np.abs(c) < 1e-2):
            c = rng.normal(size=k)
            c -= c.mean()
        y = rng.normal(size=layout.kn)
        dmat, _ = dv.first_order_design_matrix(design)
        lhs, rhs = neyman_identity_check(dmat, c, y)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        assert rhs >= -1e-10
    ok(8, "block-diagonal bound identity holds with nonnegative slack on 100 instances")


def test_criterion_09_condition_norms():
    rng = np.random.default_rng(9)
    pairs = [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (10, 3), (10, 5), (12, 4), (9, 3), (7, 2)]
    for n, n_t in pairs:
        design = dv.complete_design([n - n_t, n_t])
        dmat, _ = dv.first_order_design_matrix(design)
        norm = dv.first_order_condition_norm(dmat)
        n_c = n - n_t
        closed = 2.0 * (n_t / n_c + n_c / n_t + 2.0)
        assert abs(norm - closed) <= 1e-10

    design = dv.complete_design([2, 2])
    dmat, mask = dv.first_order_design_matrix(design)
    bound = dv.neyman_bound(dmat, C2, mask)
    fast = dv.second_order_condition_norm(design, bound.dtilde)
    slow = brute_force_second_order_norm(design, bound.dtilde)
    assert abs(fast - slow) <= 1e-8

    seq = []
    for n in (4, 8, 12):
        d_n = dv.complete_design([n // 2, n // 2])
        dm_n, mk_n = dv.first_order_design_matrix(d_n)
        b_n = dv.neyman_bound(dm_n, C2, mk_n)
        seq.append(dv.second_order_condition_norm(d_n, b_n.dtilde))
    scaled = [v / n for v, n in zip(seq, (4, 8, 12))]
    assert scaled[0] >= scaled[1] >= scaled[2]
    ok(9, f"condition norms: closed form x10, oracle match, per-n sequence "
          f"{[round(v, 2) for v in seq]} non-increasing after normalization")


def _fit_c_over_n(ns, values, rel=0.2, floor=1e-12):
    inv = 1.0 / np.asarray(ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    c = float(inv @ vals / (inv @ inv))
    for n, v in zip(ns, vals):
        assert abs(v - c / n) <= rel * max(abs(c) / n, floor)
    return c


def test_criterion_10_taylor_rates_under_replication():
    base = np.array([[0.0, 1.0, -1.0, 2.0], [1.0, 3.0, -0.5, 2.5]])
    ns = [4, 8, 16, 32]

    # independent-assignment replication: n Var(HT) is exactly constant
    nvars = []
    for n in ns:
        copies = n // base.shape[1]
        y = np.concatenate([np.tile(row, copies) for row in base])
        design = dv.bernoulli_design(0.5, n=n)
        dmat, _ = dv.first_order_design_matrix(design)
        nvars.append(n * dv.ht_exact_variance(y, C2, dmat))
    assert max(nvars) - min(nvars) <= 1e-9

    # fixed-margin replication carries the exact n/(n-1) factor instead;
    # removing it must leave a constant
    corrected = []
    for n in ns:
        copies = n // base.shape[1]
        y = np.concatenate([np.tile(row, copies) for row in base])
        design = dv.complete_design([n // 2, n // 2])
        dmat, _ = dv.first_order_design_matrix(design)
        corrected.append((n - 1) * dv.ht_exact_variance(y, C2, dmat))
    assert max(corrected) - min(corrected) <= 1e-9

    # linearization gaps: CM and Hajek have nonrandom realized denominators
    # on fixed-margin designs, so their worst-case gaps are exactly zero
    # and fit c/n with c = 0
    gaps = {}
    for kind in ("cm", "hj"):
        rows = dv.consistency_sweep(dv.EstimatorSpec(kind, C2), base, ns,
                                    support_cap=10**5)
        gaps[kind] = [row["taylor_gap"] for row in rows]
        assert all(g <= 1e-12 for g in gaps[kind])
        c = _fit_c_over_n(ns, gaps[kind])
        assert abs(c) <= 1e-11
    ok(10, f"n Var(HT) constant to {max(nvars) - min(nvars):.1e}; "
           "fixed-margin law (n-1) Var constant; CM/HJ gaps fit c/n with c = 0")


def test_criterion_11_finite_difference_linearization_oracle():
    rng = np.random.default_rng(11)
    cases = {"cm": 0, "hj": 0, "ols": 0, "wls": 0}
    while min(cases.values()) < 20:
        design = random_small_design(rng, max_n=4, max_k=2, min_n=2)
        layout = design.layout
        pi = dv.inclusion_probabilities(design)
        y = rng.normal(size=layout.kn)
        x = rng.normal(size=(layout.n, 1))
        m = np.abs(rng.normal(size=layout.kn)) + 0.5
        for kind in cases:
            if cases[kind] >= 20:
                continue
            kw = {}
            xc = x if kind in ("ols", "wls") else None
            if xc is not None:
                kw["covariates"] = xc
            if kind == "wls":
                kw["weights"] = m
            spec = dv.EstimatorSpec(kind, C2, **kw)
            z = dv.linearization_vector(spec, y, pi).z
            z_num = finite_difference_z(
                kind, y, pi.probs, spec.padded_contrast(layout),
                layout.k, layout.n, x=xc, m=m if kind == "wls" else None,
            )
            assert np.max(np.abs(z - z_num)) <= 1e-4 * max(1.0, np.max(np.abs(z)))
            cases[kind] += 1
    ok(11, "analytic linearization vectors match central differences on 20 "
           "instances per estimator")
