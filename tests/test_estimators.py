import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import designvar as dv
from oracles import (
    assignments,
    enumeration_mean_var,
    estimator_value,
    finite_difference_z,
    random_small_design,
)


def contrast2():
    return np.array([-1.0, 1.0])


class TestCovariateExpansion:
    def test_intercept_only(self):
        layout = dv.IndexLayout(2, 2)
        xx = dv.expand_covariates(None, layout)
        assert_array_equal(xx, np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float))

    def test_single_column_repeats_per_arm(self):
        layout = dv.IndexLayout(2, 2)
        xx = dv.expand_covariates(np.array([[1.0], [2.0]]), layout)
        assert xx.shape == (4, 3)
        assert_array_equal(xx[:, 2], [1.0, 2.0, 1.0, 2.0])

    def test_dimension_mismatch(self):
        layout = dv.IndexLayout(2, 3)
        with pytest.raises(dv.LayoutMismatchError):
            dv.expand_covariates(np.ones((2, 1)), layout)


class TestPointEstimate:
    def test_ht_constant_arms(self):
        design = dv.complete_design([1, 1])
        pi = dv.inclusion_probabilities(design)
        y = np.array([0.0, 0.0, 1.0, 1.0])
        spec = dv.EstimatorSpec("ht", contrast2())
        for assignment, _ in assignments(design):
            est = dv.point_estimate(spec, dv.observe(assignment, y), pi)
            assert_allclose(est, 1.0, atol=1e-14)

    def test_cm_same_setup(self):
        design = dv.complete_design([1, 1])
        pi = dv.inclusion_probabilities(design)
        y = np.array([0.0, 0.0, 1.0, 1.0])
        spec = dv.EstimatorSpec("cm", contrast2())
        for assignment, _ in assignments(design):
            est = dv.point_estimate(spec, dv.observe(assignment, y), pi)
            assert_allclose(est, 1.0, atol=1e-14)

    def test_cm_empty_arm_is_infeasible(self):
        design = dv.bernoulli_design(0.5, n=2)
        pi = dv.inclusion_probabilities(design)
        assignment = dv.Assignment(design.layout, [0, 0])
        data = dv.observe(assignment, np.arange(4.0))
        with pytest.raises(dv.EstimationInfeasibleError):
            dv.point_estimate(dv.EstimatorSpec("cm", contrast2()), data, pi)

    def test_near_collinear_covariates_warn(self):
        rng = np.random.default_rng(6)
        design = dv.complete_design([3, 3])
        pi = dv.inclusion_probabilities(design)
        base = rng.normal(size=6)
        x = np.column_stack([base, base + 1e-6 * rng.normal(size=6)])
        spec = dv.EstimatorSpec("ols", contrast2(), covariates=x)
        y = rng.normal(size=12)
        assignment = dv.Assignment(design.layout, [0, 1, 0, 1, 0, 1])
        with pytest.warns(dv.errors.IllConditionedWarning):
            dv.point_estimate(spec, dv.observe(assignment, y), pi)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_equivalence_chain_per_assignment(seed):
    """OLS(l=0) = CM, WLS(m=1/pi, l=0) = HJ, WLS(m=I) = OLS on every draw."""
    rng = np.random.default_rng(seed)
    design = random_small_design(rng, max_n=5, max_k=2)
    layout = design.layout
    pi = dv.inclusion_probabilities(design)
    y = rng.normal(size=layout.kn)
    x = rng.normal(size=(layout.n, 1))
    c = contrast2()
    cm = dv.EstimatorSpec("cm", c)
    hj = dv.EstimatorSpec("hj", c)
    ols0 = dv.EstimatorSpec("ols", c)
    ols_x = dv.EstimatorSpec("ols", c, covariates=x)
    wls_invpi = dv.EstimatorSpec("wls", c, weights=1.0 / pi.probs)
    wls_id_x = dv.EstimatorSpec("wls", c, covariates=x, weights=np.ones(layout.kn))
    for assignment, _ in assignments(design):
        data = dv.observe(assignment, y)
        try:
            a = dv.point_estimate(ols0, data, pi)
        except dv.EstimationInfeasibleError:
            continue
        assert_allclose(a, dv.point_estimate(cm, data, pi), atol=1e-10, rtol=0)
        assert_allclose(
            dv.point_estimate(wls_invpi, data, pi),
            dv.point_estimate(hj, data, pi),
            atol=1e-10, rtol=0,
        )
        try:
            b = dv.point_estimate(ols_x, data, pi)
        except dv.EstimationInfeasibleError:
            continue
        assert_allclose(b, dv.point_estimate(wls_id_x, data, pi), atol=1e-10, rtol=0)


class TestLinearizationVector:
    def test_ht_closed_form(self):
        layout = dv.IndexLayout(2, 2)
        design = dv.complete_design([1, 1])
        pi = dv.inclusion_probabilities(design)
        y = np.array([0.0, 0.0, 1.0, 1.0])
        z = dv.linearization_vector(dv.EstimatorSpec("ht", contrast2()), y, pi)
        assert_array_equal(z.z, np.array([0.0, 0.0, 0.5, 0.5]))

    def test_hj_equals_wls_invpi_form(self):
        rng = np.random.default_rng(5)
        design = dv.bernoulli_design([[0.3, 0.7], [0.5, 0.5], [0.6, 0.4]])
        pi = dv.inclusion_probabilities(design)
        y = rng.normal(size=6)
        z_hj = dv.linearization_vector(dv.EstimatorSpec("hj", contrast2()), y, pi).z
        z_wls = dv.linearization_vector(
            dv.EstimatorSpec("wls", contrast2(), weights=1.0 / pi.probs), y, pi
        ).z
        assert_allclose(z_hj, z_wls, atol=1e-14, rtol=0)

    def test_ols_no_covariates_centers_outcomes(self):
        design = dv.complete_design([2, 2])
        pi = dv.inclusion_probabilities(design)
        rng = np.random.default_rng(11)
        y = rng.normal(size=8)
        z = dv.linearization_vector(dv.EstimatorSpec("ols", contrast2()), y, pi).z
        arm_means = y.reshape(2, 4).mean(axis=1)
        centered = y - np.repeat(arm_means, 4)
        expected = 0.5 * centered * np.repeat(contrast2(), 4) / (0.5 * 4)
        assert_allclose(z, expected, atol=1e-12, rtol=0)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**9))
def test_linearization_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    design = random_small_design(rng, max_n=4, max_k=2, min_n=2)
    layout = design.layout
    pi = dv.inclusion_probabilities(design)
    y = rng.normal(size=layout.kn)
    x = rng.normal(size=(layout.n, 1))
    m = np.abs(rng.normal(size=layout.kn)) + 0.5
    cases = [
        ("cm", None, None),
        ("hj", None, None),
        ("ols", x, None),
        ("wls", x, m),
    ]
    for kind, xc, mc in cases:
        kw = {}
        if xc is not None:
            kw["covariates"] = xc
        if mc is not None:
            kw["weights"] = mc
        spec = dv.EstimatorSpec(kind, contrast2(), **kw)
        z = dv.linearization_vector(spec, y, pi).z
        fc = spec.padded_contrast(layout)
        z_num = finite_difference_z(
            kind, y, pi.probs, fc, layout.k, layout.n, x=xc, m=mc
        )
        scale = max(1.0, np.max(np.abs(z)))
        assert np.max(np.abs(z - z_num)) / scale < 1e-4


class TestTaylorVariance:
    def test_degenerate_treatment_arm(self):
        design = dv.complete_design([1, 1])
        dmat, _ = dv.first_order_design_matrix(design)
        pi = dv.inclusion_probabilities(design)
        y = np.array([0.0, 0.0, 1.0, 1.0])
        z = dv.linearization_vector(dv.EstimatorSpec("ht", contrast2()), y, pi)
        assert dv.taylor_variance(z, dmat) == 0.0

    def test_zero_vector(self, complete42_matrices):
        dmat, _ = complete42_matrices
        layout = dmat.layout
        z = dv.LinearizationVector(layout, np.zeros(8))
        assert dv.taylor_variance(z, dmat) == 0.0

    def test_zero_outcomes_give_zero_variance(self, complete42_matrices):
        dmat, _ = complete42_matrices
        assert dv.ht_exact_variance(np.zeros(8), np.array([-1.0, 1.0]), dmat) == 0.0

    def test_zero_variance_is_zero_at_every_scale(self):
        # constant outcomes per arm: the HT contrast is the same on every draw
        dmat, _ = dv.first_order_design_matrix(dv.complete_design([3, 4]))
        y = np.repeat([1.3, -0.7], 7)
        for scale in (1.0, 1e6):
            assert dv.ht_exact_variance(scale * y, contrast2(), dmat) == 0.0

    def test_homogeneous_pairs_favor_pairing(self, paired4_matrices, complete42_matrices):
        d_pr, _ = paired4_matrices
        d_cr, _ = complete42_matrices
        y = np.array([0.3536, 0.3536, -0.3536, -0.3536] * 2)
        var_pr = dv.ht_exact_variance(y, contrast2(), d_pr)
        var_cr = dv.ht_exact_variance(y, contrast2(), d_cr)
        assert var_pr == 0.0
        assert var_cr > 0.1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([1e-6, 1e6]))
def test_ht_variance_scales_with_the_square_of_y(seed, s):
    rng = np.random.default_rng(seed)
    design = random_small_design(rng)
    k, n = design.layout.k, design.layout.n
    # half the cases are constant per arm, zero variance under fixed arm sizes
    y = rng.normal(size=k * n) if rng.random() < 0.5 else np.repeat(rng.normal(size=k), n)
    c = rng.normal(size=k)
    dmat, _ = dv.first_order_design_matrix(design)
    z = np.abs(dv.ht_linearization(y, c, design.layout).z)
    base = dv.ht_exact_variance(y, c, dmat)
    scaled = dv.ht_exact_variance(s * y, c, dmat)
    assert abs(scaled - s**2 * base) <= 1e-9 * s**2 * float(z @ np.abs(dmat.d) @ z)
    assert scaled >= 0.0 and base >= 0.0  # rounding residue is clamped at every scale


SCALING_SPECS = {
    "complete": {"type": "complete", "counts": [3, 3]},
    "paired": {"type": "paired", "k": 2, "pairs": [[0, 1], [2, 3], [4, 5]]},
    "bernoulli": {"type": "bernoulli", "n": 4, "p": "1/3"},
    "cluster": {"type": "cluster", "k": 2, "clusters": [[0, 1], [2, 3], [4, 5], [6, 7]],
                "cluster_design": {"type": "complete", "counts": [2, 2]}},
}


@pytest.mark.filterwarnings("ignore")  # infeasible support points, ill-conditioned fits
@pytest.mark.parametrize("family", sorted(SCALING_SPECS))
def test_every_variance_and_bound_scales_with_the_square_of_y(family):
    """By exact enumeration: y times s scales each estimator kind's Taylor
    variance, each bound's quadratic form and each mean bound estimate by
    s**2, within 1e-12 relative, at s = 1e-6 and 1e6."""
    design = dv.build_design(SCALING_SPECS[family])
    layout = design.layout
    rng = np.random.default_rng(5)
    y, x = rng.normal(size=layout.kn), rng.normal(size=(layout.n, 1))
    w = 1.0 / dv.inclusion_probabilities(design).probs + rng.random(layout.kn)
    specs = [dv.EstimatorSpec(kind, contrast2()) for kind in ("ht", "cm", "hj", "ols")] + [
        dv.EstimatorSpec("ols", contrast2(), covariates=x),
        dv.EstimatorSpec("wls", contrast2(), weights=w),
        dv.EstimatorSpec("wls", contrast2(), covariates=x, weights=w)]
    bounds = ["as", "algm"] + (["neyman"] if family != "paired" else [])  # paired: d_rr has -1
    for spec, bound in [(spec, bound) for spec in specs for bound in bounds]:
        base = dv.run_scenario(dv.SimScenario(design, y, spec, bound))
        for s in (1e-6, 1e6):
            scaled = dv.run_scenario(dv.SimScenario(design, s * y, spec, bound))
            for field in ("taylor_variance", "bound_value", "mean_bound_estimate"):
                want = s**2 * getattr(base, field)
                assert abs(getattr(scaled, field) - want) <= 1e-12 * abs(want), (
                    spec.kind, bound, s, field)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_ht_variance_equals_enumeration(seed):
    rng = np.random.default_rng(seed)
    design = random_small_design(rng)
    layout = design.layout
    pi = dv.inclusion_probabilities(design)
    y = rng.normal(size=layout.kn)
    c = rng.normal(size=layout.k)
    dmat, _ = dv.first_order_design_matrix(design)
    spec = dv.EstimatorSpec("ht", c)

    def ht_value(assignment):
        return dv.point_estimate(spec, dv.observe(assignment, y), pi)

    mean, var = enumeration_mean_var(design, ht_value)
    assert_allclose(dv.ht_exact_variance(y, c, dmat), var, atol=1e-10, rtol=0)
    estimand = float(c @ y.reshape(layout.k, layout.n).mean(axis=1))
    assert abs(mean - estimand) <= 1e-12 * max(1.0, abs(estimand))


class TestHtContrast:
    @pytest.mark.parametrize("c", [[np.nan, 1.0], [np.inf, -1.0]])
    def test_non_finite_contrast_rejected(self, complete42_matrices, c):
        dmat, _ = complete42_matrices
        y = np.arange(8.0)
        with pytest.raises(dv.ValidationError, match="contrast must be finite"):
            dv.ht_linearization(y, np.array(c), dmat.layout)
        with pytest.raises(dv.ValidationError, match="contrast must be finite"):
            dv.ht_exact_variance(y, np.array(c), dmat)

    @pytest.mark.parametrize("c", [[1.0], [-1.0, 1.0, 0.0]])
    def test_contrast_of_another_length_rejected(self, complete42, complete42_matrices, c):
        dmat, _ = complete42_matrices
        pi = dv.inclusion_probabilities(complete42)
        with pytest.raises(dv.LayoutMismatchError, match="length k=2"):
            dv.ht_linearization(np.zeros(8), np.array(c), dmat.layout)
        for kind in ("ht", "cm"):
            with pytest.raises(dv.LayoutMismatchError, match="length k=2"):
                dv.linearized_estimator(dv.EstimatorSpec(kind, np.array(c)), np.zeros(8), pi)


class TestTaylorGap:
    def test_ht_gap_is_exactly_zero(self):
        design = dv.bernoulli_design(0.5, n=3)
        y = np.random.default_rng(0).normal(size=6)
        assert dv.taylor_gap(dv.EstimatorSpec("ht", contrast2()), design, y) == 0.0

    def test_cm_gap_zero_on_fixed_margin_designs(self, complete42):
        y = np.random.default_rng(1).normal(size=8)
        gap = dv.taylor_gap(dv.EstimatorSpec("cm", contrast2()), complete42, y)
        assert gap <= 1e-12

    def test_cm_gap_positive_under_bernoulli(self):
        design = dv.bernoulli_design(0.5, n=4)
        y = np.random.default_rng(2).normal(size=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dv.errors.InfeasiblePointsWarning)
            gap = dv.taylor_gap(dv.EstimatorSpec("cm", contrast2()), design, y)
        assert gap > 0.01

    def test_cm_gap_matches_direct_oracle(self):
        design = dv.bernoulli_design(0.5, n=3)
        layout = design.layout
        pi = dv.inclusion_probabilities(design)
        rng = np.random.default_rng(3)
        y = rng.normal(size=6)
        c = contrast2()
        # direct oracle: anchored linearization evaluated from definitions
        ones = np.kron(np.eye(2), np.ones((3, 1)))
        b = np.linalg.solve(ones.T @ np.diag(pi.probs) @ ones, ones.T @ (pi.probs * y))
        q = ones @ np.linalg.solve(ones.T @ np.diag(pi.probs) @ ones, c)
        worst = 0.0
        skipped = 0
        for assignment, _ in assignments(design):
            r = assignment.indicators()
            try:
                point = estimator_value("cm", r, y, pi.probs, c, 2, 3)
            except np.linalg.LinAlgError:
                skipped += 1
                continue
            lin = float(c @ b) + float(q @ (r * (y - ones @ b)))
            worst = max(worst, abs(point - lin))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dv.errors.InfeasiblePointsWarning)
            gap = dv.taylor_gap(dv.EstimatorSpec("cm", c), design, y)
        assert skipped > 0  # the all-one-arm draws
        assert_allclose(gap, worst, atol=1e-12, rtol=0)

    def test_hj_gap_equals_wls_invpi_gap(self, paired4):
        pi = dv.inclusion_probabilities(paired4)
        y = np.random.default_rng(4).normal(size=8)
        g1 = dv.taylor_gap(dv.EstimatorSpec("hj", contrast2()), paired4, y)
        g2 = dv.taylor_gap(
            dv.EstimatorSpec("wls", contrast2(), weights=1.0 / pi.probs), paired4, y
        )
        assert_allclose(g1, g2, atol=1e-12, rtol=0)

    def test_monte_carlo_design_rejected(self):
        design = dv.bernoulli_design(0.5, n=30)
        with pytest.raises(dv.ValidationError):
            dv.taylor_gap(dv.EstimatorSpec("cm", contrast2()), design, np.zeros(60))


L22 = dv.IndexLayout(2, 2)
PI22 = dv.PiDiagonal(L22, np.full(4, 0.5))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: dv.expand_covariates(np.array([[1.0], [np.nan]]), L22), dv.ValidationError,
     "covariates must be finite"),
    (lambda: dv.EstimatorSpec("wls", contrast2()), dv.ValidationError,
     "wls requires the weighting diagonal"),
    (lambda: dv.EstimatorSpec("wls", contrast2(), weights=np.ones(3)).weight_diag(PI22),
     dv.LayoutMismatchError, "wls weights must have shape (4,)"),
    (lambda: dv.EstimatorSpec("ht", contrast2()).weight_diag(PI22), dv.ValidationError,
     "horvitz-thompson has no weighting diagonal"),
    (lambda: dv.ObservedData(dv.Assignment(L22, np.array([0, 1])), np.array([1.0, 0.0, 2.0, 3.0])),
     dv.ValidationError, "observed outcome vector must be zero at unobserved positions"),
    (lambda: dv.point_estimate(dv.EstimatorSpec("cm", contrast2()),
                               dv.observe(dv.Assignment(dv.IndexLayout(2, 3), np.array([0, 1, 0])),
                                          np.ones(6)), PI22),
     dv.LayoutMismatchError, "data and probabilities use different layouts"),
    (lambda: dv.taylor_variance(dv.LinearizationVector(dv.IndexLayout(2, 3), np.ones(6)),
                                dv.first_order_design_matrix(dv.complete_design([1, 1]))[0]),
     dv.LayoutMismatchError, "linearization vector and design matrix disagree"),
], ids=["covariates-finite", "wls-weights", "wls-weights-shape", "ht-weights", "unobserved-y",
        "evaluate-layout", "taylor-layout"])
def test_rejections(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
