import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import designvar as dv
from oracles import (
    assignments,
    cr0_sandwich,
    enumeration_mean_var,
    hc0_sandwich,
    hc0_scalar_loops,
    hc2_sandwich,
    random_small_design,
)


def c2():
    return np.array([-1.0, 1.0])


class TestIpwBoundMatrix:
    def test_bernoulli_sandwiches_to_identity(self):
        design = dv.bernoulli_design([[0.3, 0.7], [0.5, 0.5]])
        pi = dv.inclusion_probabilities(design)
        dmat, mask = dv.first_order_design_matrix(design)
        p = dv.joint_probabilities(design)
        bound = dv.neyman_bound(dmat, c2(), mask)
        ipw = dv.ipw_bound_matrix(bound, p)
        assert_allclose(ipw.matrix, np.diag(1.0 / pi.probs**2), rtol=1e-14, atol=0)
        sandwich = np.diag(pi.probs) @ ipw.matrix @ np.diag(pi.probs)
        assert_allclose(sandwich, np.eye(4), rtol=0, atol=1e-14)

    def test_paired_partner_entries(self, paired4, paired4_matrices):
        dmat, mask = paired4_matrices
        bound = dv.algorithm_m_bound(dmat, mask, tol=1e-12)
        ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(paired4))
        # partner cross-arm entries: 2 / (1/2) = 4
        assert_allclose(ipw.matrix[0, 5], 4.0, atol=1e-9)
        assert_allclose(np.diag(ipw.matrix), 4.0, atol=1e-9)

    def test_zero_bound(self, paired4, paired4_matrices):
        dmat, _ = paired4_matrices
        bound = dv.user_bound(np.zeros((8, 8)), dmat.layout)
        ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(paired4))
        assert_array_equal(ipw.matrix, np.zeros((8, 8)))

    def test_not_identified_rejected(self, paired4, paired4_matrices):
        dmat, mask = paired4_matrices
        bound = dv.user_bound(dmat.d.copy(), dmat.layout)  # -1 at masked entries
        with pytest.raises(dv.NotIdentifiedBoundError):
            dv.ipw_bound_matrix(bound, dv.joint_probabilities(paired4))


    @pytest.mark.parametrize("design", [
        dv.paired_design([(0, 1), (2, 3)]),
        dv.complete_design([2, 1, 2]),
        dv.custom_design(dv.IndexLayout(2, 3), [([0, 1, 1], "1/6"), ([1, 0, 1], "1/3"),
                                                 ([1, 1, 0], "1/2")]),
        dv.custom_design(dv.IndexLayout(2, 3), sampler=lambda rng: rng.permutation([0, 1, 1]),
                         seed=2, mc_replicates=500),
    ], ids=["paired", "complete", "custom", "estimated"])
    def test_the_design_weights_as_its_joint_probabilities_do(self, design):
        dmat, mask = dv.first_order_design_matrix(design)
        bound = dv.aronow_samii_bound(dmat, mask)
        from_p = dv.ipw_bound_matrix(bound, dv.joint_probabilities(design))
        from_design = dv.ipw_bound_matrix(bound, design)
        assert_array_equal(from_design.matrix, from_p.matrix)
        assert (from_design.frac is None) == (from_p.frac is None) == (design.p_frac is None)
        if from_p.frac is not None:
            assert from_design.frac.values == from_p.frac.values
            assert_array_equal(from_design.frac.codes, from_p.frac.codes)


class TestHtBoundEstimate:
    def test_unbiased_over_paired_support(self, paired4, paired4_matrices):
        dmat, mask = paired4_matrices
        rng = np.random.default_rng(0)
        y = rng.normal(size=8)
        bound = dv.aronow_samii_bound(dmat, mask)
        ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(paired4))
        z = dv.ht_linearization(y, c2(), dmat.layout).z
        target = float(z @ bound.dtilde @ z)

        mean, _ = enumeration_mean_var(
            paired4, lambda a: dv.ht_bound_estimate(y, c2(), a, ipw).value
        )
        assert_allclose(mean, target, atol=1e-10, rtol=0)

    def test_zero_outcomes(self, paired4, paired4_matrices):
        dmat, mask = paired4_matrices
        bound = dv.aronow_samii_bound(dmat, mask)
        ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(paired4))
        assignment = next(assignments(paired4))[0]
        assert dv.ht_bound_estimate(np.zeros(8), c2(), assignment, ipw).value == 0.0

    def test_non_finite_contrast_rejected(self, paired4, paired4_matrices):
        dmat, mask = paired4_matrices
        ipw = dv.ipw_bound_matrix(dv.aronow_samii_bound(dmat, mask),
                                  dv.joint_probabilities(paired4))
        assignment = next(assignments(paired4))[0]
        with pytest.raises(dv.ValidationError, match="contrast must be finite"):
            dv.ht_bound_estimate(np.ones(8), np.array([np.nan, 1.0]), assignment, ipw)

    def test_complete_neyman_nonnegative_and_unbiased(self, complete42, complete42_matrices):
        dmat, mask = complete42_matrices
        rng = np.random.default_rng(1)
        y = rng.normal(size=8)
        bound = dv.neyman_bound(dmat, c2(), mask)
        ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(complete42))
        z = dv.ht_linearization(y, c2(), dmat.layout).z
        values = []
        for assignment, _ in assignments(complete42):
            values.append(dv.ht_bound_estimate(y, c2(), assignment, ipw).value)
        assert all(v >= -1e-10 for v in values)
        mean, _ = enumeration_mean_var(
            complete42, lambda a: dv.ht_bound_estimate(y, c2(), a, ipw).value
        )
        assert_allclose(mean, float(z @ bound.dtilde @ z), atol=1e-9, rtol=0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_ipw_reconstruction_identity(seed):
    """E[R (dtilde/p) R] recovers dtilde entrywise, by enumeration."""
    rng = np.random.default_rng(seed)
    design = random_small_design(rng, max_n=4)
    dmat, mask = dv.first_order_design_matrix(design)
    bound = dv.aronow_samii_bound(dmat, mask)
    ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(design))
    kn = design.layout.kn
    acc = np.zeros((kn, kn))
    for assignment, prob in assignments(design):
        r = assignment.indicators()
        acc += float(prob) * np.outer(r, r) * ipw.matrix
    assert_allclose(acc, bound.dtilde, atol=1e-10, rtol=0)


class TestSandwichEquivalence:
    def _bernoulli_case(self, seed, n=8, l=2):
        rng = np.random.default_rng(seed)
        design = dv.bernoulli_design(
            [[0.5, 0.5]] * (n // 2) + [[0.35, 0.65]] * (n - n // 2)
        )
        pi = dv.inclusion_probabilities(design)
        x = rng.normal(size=(n, l))
        y = rng.normal(size=2 * n)
        arms = design.draw(np.random.default_rng(seed + 1))
        data = dv.observe(dv.Assignment(design.layout, arms), y)
        return design, pi, x, y, data

    def test_plugin_equals_hc0_for_all_bounds(self):
        design, pi, x, y, data = self._bernoulli_case(3)
        dmat, mask = dv.first_order_design_matrix(design)
        p = dv.joint_probabilities(design)
        spec = dv.EstimatorSpec("ols", c2(), covariates=x)
        xx = dv.expand_covariates(x, design.layout)
        hc0 = hc0_sandwich(data, xx, c2())
        for method in ("neyman", "as"):
            bound = dv.build_bound(method, dmat, mask, contrast=c2())
            plug = dv.plugin_bound_estimate(spec, data, pi, dv.ipw_bound_matrix(bound, p))
            assert_allclose(plug.value, hc0, rtol=1e-12, atol=0)
        algm = dv.algorithm_m_bound(dmat, mask, tol=1e-12)
        plug = dv.plugin_bound_estimate(spec, data, pi, dv.ipw_bound_matrix(algm, p))
        assert_allclose(plug.value, hc0, rtol=1e-10, atol=0)

    def test_hc0_matches_scalar_loop_oracle(self):
        design, pi, x, y, data = self._bernoulli_case(4, n=6, l=1)
        xx = dv.expand_covariates(x, design.layout)
        hc0 = hc0_sandwich(data, xx, c2())
        fc = np.concatenate([c2(), np.zeros(1)])
        oracle = hc0_scalar_loops(data.y_obs, data.assignment.indicators(), xx, fc)
        assert_allclose(hc0, oracle, atol=1e-12, rtol=0)

    def test_zero_residuals_give_zero(self):
        design, pi, x, _, _ = self._bernoulli_case(5)
        layout = design.layout
        xx = dv.expand_covariates(x, layout)
        beta = np.array([1.0, -2.0, 0.5, 3.0])
        y = xx @ beta  # exactly linear outcomes
        arms = design.draw(np.random.default_rng(99))
        data = dv.observe(dv.Assignment(layout, arms), y)
        assert hc0_sandwich(data, xx, c2()) <= 1e-20
        dmat, mask = dv.first_order_design_matrix(design)
        bound = dv.aronow_samii_bound(dmat, mask)
        ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(design))
        spec = dv.EstimatorSpec("ols", c2(), covariates=x)
        assert dv.plugin_bound_estimate(spec, data, pi, ipw).value <= 1e-20

    def test_plugin_equals_cr0_under_cluster_assignment(self):
        rng = np.random.default_rng(6)
        clusters = [[0, 1], [2, 3], [4, 5]]
        level = dv.bernoulli_design([[0.4, 0.6], [0.5, 0.5], [0.7, 0.3]])
        design = dv.cluster_design(clusters, level)
        pi = dv.inclusion_probabilities(design)
        x = rng.normal(size=(6, 1))
        y = rng.normal(size=12)
        for seed in range(20):  # first draw with both arms occupied
            arms = design.draw(np.random.default_rng(seed))
            if len(set(arms)) == 2:
                break
        data = dv.observe(dv.Assignment(design.layout, arms), y)
        dmat, mask = dv.first_order_design_matrix(design)
        bound = dv.neyman_bound(dmat, c2(), mask)
        ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(design))
        spec = dv.EstimatorSpec("ols", c2(), covariates=x)
        plug = dv.plugin_bound_estimate(spec, data, pi, ipw)
        xx = dv.expand_covariates(x, design.layout)
        cr0 = cr0_sandwich(data, xx, c2(), clusters)
        assert_allclose(plug.value, cr0, rtol=1e-12, atol=0)

    def test_neyman_plugin_equals_hc2_under_complete_randomization(self):
        # Samii & Aronow (2012): the Neyman variance estimator sum_r s_r^2 / n_r
        # is the HC2 sandwich of the arm-dummy regression
        rng = np.random.default_rng(2012)
        for _ in range(60):
            counts = [int(v) for v in rng.integers(2, 9, size=2)]
            design = dv.complete_design(counts)
            layout = design.layout
            pi = dv.inclusion_probabilities(design)
            dmat, mask = dv.first_order_design_matrix(design)
            bound = dv.neyman_bound(dmat, c2(), mask)
            ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(design))
            y = rng.normal(size=layout.kn) * 10.0 ** rng.integers(-3, 4)
            arms = design.draw(np.random.default_rng(int(rng.integers(2**31))))
            data = dv.observe(dv.Assignment(layout, arms), y)
            hc2 = hc2_sandwich(data, c2())
            for kind in ("ht", "hj", "cm", "ols"):
                plug = dv.plugin_bound_estimate(dv.EstimatorSpec(kind, c2()), data, pi, ipw)
                assert abs(plug.value - hc2) <= 1e-10 * hc2, (counts, kind)

    def test_cr0_with_singleton_clusters_is_hc0(self):
        design, pi, x, y, data = self._bernoulli_case(8, n=5, l=1)
        xx = dv.expand_covariates(x, design.layout)
        singletons = [[u] for u in range(5)]
        assert_allclose(
            cr0_sandwich(data, xx, c2(), singletons),
            hc0_sandwich(data, xx, c2()),
            atol=1e-14, rtol=0,
        )

    def test_plugin_equals_ht_estimate_for_ht_kind(self, paired4, paired4_matrices):
        dmat, mask = paired4_matrices
        pi = dv.inclusion_probabilities(paired4)
        y = np.random.default_rng(9).normal(size=8)
        bound = dv.aronow_samii_bound(dmat, mask)
        ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(paired4))
        assignment = next(assignments(paired4))[0]
        data = dv.observe(assignment, y)
        plug = dv.plugin_bound_estimate(dv.EstimatorSpec("ht", c2()), data, pi, ipw)
        direct = dv.ht_bound_estimate(y, c2(), assignment, ipw)
        assert_allclose(plug.value, direct.value, atol=1e-14, rtol=0)
        assert not plug.plug_in
