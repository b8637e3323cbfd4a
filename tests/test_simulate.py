import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import designvar as dv
from conftest import traced_peak
from oracles import estimator_value, exact_moments, plug_in_rz


def c2():
    return np.array([-1.0, 1.0])


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_an_exact_design_builds_no_joint_probability_matrix(monkeypatch, paired4, mode):
    built = []
    monkeypatch.setattr(dv.JointProbMatrix, "__post_init__", lambda self: built.append(self))
    y = np.random.default_rng(0).normal(size=8)
    dv.run_scenario(dv.SimScenario(paired4, y, dv.EstimatorSpec("hj", c2()), "as", mode=mode,
                                   replicates=20, seed=1))
    assert built == []


class TestRunScenarioExact:
    def test_ht_unbiased_with_matching_variance(self, paired4):
        rng = np.random.default_rng(0)
        y = rng.normal(size=8)
        report = dv.run_scenario(
            dv.SimScenario(paired4, y, dv.EstimatorSpec("ht", c2()), bound_method="as")
        )
        assert abs(report.bias) <= 1e-12
        assert_allclose(report.empirical_variance, report.taylor_variance, atol=1e-9)
        assert report.infeasible_count == 0
        assert_allclose(report.mean_bound_estimate, report.bound_value, atol=1e-9)
        assert report.negative_bound_count == 0  # HT-form estimates stay >= 0 here
        assert report.mc_se is None

    def test_cm_constant_arms_has_zero_variance_full_coverage(self, complete42):
        y = np.concatenate([np.full(4, 2.0), np.full(4, 5.0)])
        report = dv.run_scenario(
            dv.SimScenario(complete42, y, dv.EstimatorSpec("cm", c2()), bound_method="as")
        )
        assert_allclose(report.empirical_variance, 0.0, atol=1e-20)
        assert report.coverage_95 == 1.0
        assert_allclose(report.estimand, 3.0)

    def test_infeasible_draws_are_counted(self):
        design = dv.bernoulli_design(0.5, n=3)
        y = np.arange(6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dv.errors.InfeasiblePointsWarning)
            report = dv.run_scenario(
                dv.SimScenario(design, y, dv.EstimatorSpec("cm", c2()), bound_method=None)
            )
        assert report.infeasible_count == 2  # the two single-arm assignments
        assert_allclose(report.infeasible_weight, 2 * 0.5**3, atol=1e-15)

    def test_mc_infeasible_weight_is_the_infeasible_share(self):
        design = dv.bernoulli_design(0.5, n=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dv.errors.InfeasiblePointsWarning)
            report = dv.run_scenario(
                dv.SimScenario(design, np.arange(6.0), dv.EstimatorSpec("cm", c2()),
                               bound_method=None, mode="mc", replicates=300, seed=23)
            )
        assert report.infeasible_count == 79
        assert report.infeasible_weight == 79 / 300

    def test_exact_requires_enumerable_design(self):
        design = dv.bernoulli_design(0.5, n=30)
        with pytest.raises(dv.ValidationError):
            dv.SimScenario(design, np.zeros(60), dv.EstimatorSpec("ht", c2()))

    @pytest.mark.parametrize("c", [[1.0], [-1.0, 1.0, 0.0]])
    def test_contrast_of_another_length_rejected(self, paired4, c):
        with pytest.raises(dv.LayoutMismatchError, match="contrast must have length k=2"):
            dv.SimScenario(paired4, np.zeros(8), dv.EstimatorSpec("ht", np.array(c)))

    def test_memory_is_bounded_by_the_batch_budget(self):
        # complete [8,8]: the indicators of its 12,870 support points are 3.3 MB
        design = dv.complete_design([8, 8])
        design.support  # enumerated on first read, before the run is traced
        y = np.random.default_rng(2).normal(size=32)
        scenario = dv.SimScenario(design, y, dv.EstimatorSpec("hj", c2()), bound_method="as")
        peak = traced_peak(dv.run_scenario, scenario)
        # per-point results (points, bound estimates, weights) are the only O(S) arrays
        assert peak <= 6 * dv.designs.BATCH_BYTES + 8 * 8 * len(design.support)


class TestRunScenarioMonteCarlo:
    def test_reproducible_for_fixed_seed(self):
        design = dv.bernoulli_design(0.5, n=8)
        rng = np.random.default_rng(2)
        y = rng.normal(size=16)
        spec = dv.EstimatorSpec("ht", c2())
        kwargs = dict(bound_method="as", mode="mc", replicates=200, seed=11)
        r1 = dv.run_scenario(dv.SimScenario(design, y, spec, **kwargs))
        r2 = dv.run_scenario(dv.SimScenario(design, y, spec, **kwargs))
        assert r1.mean_estimate == r2.mean_estimate
        assert r1.mean_bound_estimate == r2.mean_bound_estimate

    def test_reading_the_support_leaves_the_report_unchanged(self):
        # draws come from the sampler, so neither the support nor the cap moves a report
        y = np.random.default_rng(4).normal(size=24)
        reports = []
        for cap, read in ((100, False), (100, True), (10**6, False), (10**6, True)):
            design = dv.complete_design([6, 6])
            design.support_cap = cap
            if read:
                assert (design.support is None) == (cap == 100)
            scenario = dv.SimScenario(design, y, dv.EstimatorSpec("hj", c2()),
                                      mode="mc", replicates=300, seed=9)
            reports.append(dataclasses.asdict(dv.run_scenario(scenario)))
        assert all(report == reports[0] for report in reports)

    def test_seed_required(self):
        design = dv.bernoulli_design(0.5, n=4)
        with pytest.raises(dv.ValidationError):
            dv.SimScenario(
                design, np.zeros(8), dv.EstimatorSpec("ht", c2()), mode="mc", replicates=10
            )

    @pytest.mark.parametrize("kind, replicates, infeasible", [("ht", 1, 0), ("cm", 3, 2)])
    def test_fewer_than_two_feasible_draws_give_no_standard_errors(
            self, kind, replicates, infeasible):
        # cm on Bernoulli n = 2 with seed 0: two of three draws leave an arm empty
        design = dv.bernoulli_design(0.5, n=2)
        scenario = dv.SimScenario(design, np.array([0.0, 1.0, 1.0, 2.0]),
                                  dv.EstimatorSpec(kind, c2()), bound_method="as",
                                  mode="mc", replicates=replicates, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", dv.errors.InfeasiblePointsWarning)
            report = dv.run_scenario(scenario)
        assert report.infeasible_count == infeasible
        assert report.mc_se == dict.fromkeys(
            ["mean_estimate", "empirical_variance", "mean_bound_estimate", "coverage_95"])
        assert np.isfinite(report.mean_estimate) and report.empirical_variance == 0.0

    def test_ols_bound_conservative_under_bernoulli(self):
        rng = np.random.default_rng(7)
        n = 20
        design = dv.bernoulli_design(0.5, n=n)
        x = rng.normal(size=(n, 1))
        y = rng.normal(size=2 * n) + 0.8 * np.tile(x[:, 0], 2)
        spec = dv.EstimatorSpec("ols", c2(), covariates=x)
        report = dv.run_scenario(
            dv.SimScenario(
                design, y, spec, bound_method="as", mode="mc", replicates=4000, seed=7
            )
        )
        slack = report.mean_bound_estimate - report.empirical_variance
        allowed = 2.0 * (
            report.mc_se["mean_bound_estimate"] + report.mc_se["empirical_variance"]
        )
        assert slack >= -allowed

    def test_memory_is_bounded_by_the_batch_budget(self):
        # kn = 200: one batch of all 2,000 draws would be 3.2 MB per temporary
        design = dv.complete_design([50, 50])
        y = np.random.default_rng(2).normal(size=200)
        scenario = dv.SimScenario(design, y, dv.EstimatorSpec("hj", c2()), bound_method="as",
                                  mode="mc", replicates=2000, seed=5)
        peak = traced_peak(dv.run_scenario, scenario)
        # plus the kn x kn matrices the bound and its IPW form need anyway
        assert peak <= 6 * dv.designs.BATCH_BYTES + 16 * 8 * 200**2

    def test_mc_agrees_with_exact_on_small_design(self, paired4):
        rng = np.random.default_rng(3)
        y = rng.normal(size=8)
        spec = dv.EstimatorSpec("hj", c2())
        exact = dv.run_scenario(dv.SimScenario(paired4, y, spec, bound_method="as"))
        mc = dv.run_scenario(
            dv.SimScenario(
                paired4, y, spec, bound_method="as", mode="mc",
                replicates=100000, seed=5,
            )
        )
        for field in ("mean_estimate", "empirical_variance", "mean_bound_estimate"):
            se_key = field if field in mc.mc_se else None
            se = mc.mc_se[se_key] if se_key else 0.0
            assert abs(getattr(mc, field) - getattr(exact, field)) <= max(3 * se, 1e-3)


class TestConsistencySweep:
    def test_balanced_complete_trends(self):
        base = np.array([[0.0, 1.0, -1.0, 2.0], [1.0, 3.0, -0.5, 2.5]])
        ns = [4, 8, 16]
        rows = dv.consistency_sweep(
            dv.EstimatorSpec("ht", c2()), base, ns, support_cap=10**5
        )
        # under tiling, n Var carries the exact finite-population factor
        # n/(n-1); removing it must leave a constant
        corrected = [row["n_times_var"] * (n - 1) / n for row, n in zip(rows, ns)]
        assert_allclose(corrected, corrected[0], atol=1e-9)
        nvars = [row["n_times_var"] for row in rows]
        assert nvars[0] >= nvars[1] >= nvars[2] > 0  # bounded, settling
        norms = [row["first_order_norm"] for row in rows]
        assert_allclose(norms, 8.0, atol=1e-10)

    def test_cm_gap_vanishes_on_complete_designs(self):
        base = np.array([[0.0, 1.0], [1.0, 3.0]])
        rows = dv.consistency_sweep(
            dv.EstimatorSpec("cm", c2()), base, [4, 8], support_cap=10**5
        )
        for row in rows:
            assert row["taylor_gap"] <= 1e-12

    def test_large_n_uses_count_class_enumeration(self):
        base = np.array([[0.0, 1.0, -1.0, 2.0], [1.0, 3.0, -0.5, 2.5]])
        rows = dv.consistency_sweep(
            dv.EstimatorSpec("cm", c2()), base, [8, 32], support_cap=100
        )
        # n=32 cannot be enumerated under that cap; the count-class path
        # must deliver the same zero gap the direct path gives at n=8
        assert rows[0]["taylor_gap"] <= 1e-12
        assert rows[1]["taylor_gap"] <= 1e-11

    def test_empty_n_list_is_a_validation_error(self):
        with pytest.raises(dv.ValidationError):
            dv.consistency_sweep(dv.EstimatorSpec("cm", c2()), np.zeros((2, 2)), [])

    def test_empty_base_rows_are_a_validation_error(self):
        with pytest.raises(dv.ValidationError, match="base_y needs 2 non-empty rows"):
            dv.consistency_sweep(dv.EstimatorSpec("cm", c2()), [[], []], [4])

    @pytest.mark.parametrize("kind, field, size", [("ols", "covariates", (8, 1)),
                                                   ("wls", "weights", 16)])
    def test_per_unit_estimator_inputs_rejected(self, kind, field, size):
        # covariates and weights belong to units, which tiling base_y cannot copy
        values = np.random.default_rng(1).normal(size=size)
        spec = dv.EstimatorSpec(kind, c2(), **{field: np.abs(values) + 0.5})
        base = np.array([[0.5, -1.0, 2.0, 0.3], [2.0, 1.0, -0.4, 1.1]])
        for cap in (10**4, 10):
            with pytest.raises(dv.ValidationError, match=field):
                dv.consistency_sweep(spec, base, [8], support_cap=cap)

    @pytest.mark.parametrize("kind", ["ht", "cm", "hj", "ols"])
    def test_count_class_path_matches_enumeration(self, kind):
        # reference: the gap over the whole enumerated support of the same design
        base = np.array([[0.5, -1.0], [2.0, 1.0]])
        spec = dv.EstimatorSpec(kind, c2())
        n = 8
        row = dv.consistency_sweep(spec, base, [n])[0]
        design = dv.complete_design([n // 2, n // 2])
        y = np.concatenate([np.tile(arm, n // base.shape[1]) for arm in base])
        dmat, _ = dv.first_order_design_matrix(design)
        z = dv.linearization_vector(spec, y, dv.inclusion_probabilities(design))
        assert_allclose(row["taylor_gap"], dv.taylor_gap(spec, design, y), atol=1e-12)
        assert_allclose(row["n_times_var"], n * dv.taylor_variance(z, dmat), atol=1e-12)

    def test_oversized_count_classes_raise_before_allocating(self):
        # a 20-unit base at n = 40 has 377,379,369 count classes (the coefficient
        # of x^20 in (1 + x + x^2)^20): tens of GB as an indicator batch
        base = np.vstack([np.arange(20.0), np.arange(20.0) + 1.0])
        tracemalloc.start()
        try:
            with pytest.raises(dv.BudgetExceededError, match="377379369 count classes"):
                dv.consistency_sweep(dv.EstimatorSpec("cm", c2()), base, [40])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_count_classes_are_evaluated_chunk_by_chunk(self):
        # a 10-unit base at n = 30 has 116,304 count classes; with every class's
        # arms and indicators built at once the sweep peaked at 147.5 MB
        base = np.vstack([np.arange(10.0), np.arange(10.0) + 1.0])
        tracemalloc.start()
        try:
            rows = dv.consistency_sweep(dv.EstimatorSpec("hj", c2()), base, [30])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows[0]["taylor_gap"] <= 1e-12  # additive y: hj is linear in R here
        assert peak < 147.5e6 / 2


class TestRunScenarioAgainstOracle:
    """Every draw-dependent report field, rebuilt draw by draw from the
    oracle estimator value and the oracle plug-in bound estimate."""

    DESIGNS = {
        "paired4": lambda: dv.paired_design([(0, 1), (2, 3)]),
        "complete322": lambda: dv.complete_design([3, 2, 2]),
        "bernoulli3": lambda: dv.bernoulli_design(0.5, n=3),
    }

    @staticmethod
    def setup_case(design, kind):
        k, n = design.layout.k, design.layout.n
        rng = np.random.default_rng(17 * k + n)
        y = rng.normal(size=k * n)
        c = np.array([-1.0, 1.0]) if k == 2 else np.array([-1.0, 0.5, 0.5])
        x = rng.normal(size=(n, 1)) if kind in ("ols", "wls") else None
        m = rng.uniform(0.5, 2.0, size=k * n) if kind == "wls" else None
        spec = dv.EstimatorSpec(kind, c, covariates=x, weights=m)
        return y, c, x, m, spec

    @staticmethod
    def expected(design, y, kind, c, x, m, draws):
        k, n = design.layout.k, design.layout.n
        pi = np.array([float(v) for v in exact_moments(design)[0]])
        c_full = c if x is None else np.concatenate([c, np.zeros(x.shape[1])])
        dmat, mask = dv.first_order_design_matrix(design)
        bound = dv.build_bound("as", dmat, mask, contrast=c)
        ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(design)).matrix
        estimand = float(c @ y.reshape(k, n).mean(axis=1))
        ests, bounds, weights = [], [], []
        infeasible, infeasible_weight = 0, 0.0
        for arms, weight in draws:
            r = np.zeros(k * n)
            r[np.asarray(arms) * n + np.arange(n)] = 1.0
            rz = plug_in_rz(kind, r, y, pi, c_full, k, n, x=x, m=m)
            if rz is None:
                infeasible += 1
                infeasible_weight += weight
                continue
            ests.append(estimator_value(kind, r, y, pi, c_full, k, n, x=x, m=m))
            bounds.append(float(rz @ ipw @ rz))
            weights.append(weight)
        ests, bounds, weights = map(np.array, (ests, bounds, weights))
        wnorm = weights / weights.sum()
        mean_est = float(wnorm @ ests)
        emp_var = float(wnorm @ (ests - mean_est) ** 2)
        covered = np.abs(estimand - ests) <= 1.96 * np.sqrt(np.maximum(bounds, 0.0))
        coverage = float(np.clip(wnorm @ covered, 0.0, 1.0))
        se = {
            "mean_estimate": ests.std(ddof=1) / np.sqrt(ests.size),
            "empirical_variance": np.sqrt(
                max(((ests - mean_est) ** 4).mean() - emp_var**2, 0.0) / ests.size
            ),
            "mean_bound_estimate": bounds.std(ddof=1) / np.sqrt(ests.size),
            "coverage_95": np.sqrt(max(coverage * (1 - coverage), 0.0) / ests.size),
        }
        floats = {
            "estimand": estimand,
            "mean_estimate": mean_est,
            "bias": mean_est - estimand,
            "empirical_variance": emp_var,
            "mean_bound_estimate": float(wnorm @ bounds),
            "coverage_95": coverage,
            "infeasible_weight": infeasible_weight,
        }
        counts = {
            "infeasible_count": infeasible,
            "negative_bound_count": int(np.sum(bounds < 0.0)),
        }
        return floats, counts, ests.size, se

    @staticmethod
    def assert_close(actual, expected, what):
        assert abs(actual - expected) <= 1e-9 * max(1.0, abs(expected)), (what, actual, expected)

    def check(self, report, floats, counts):
        for name, value in floats.items():
            self.assert_close(getattr(report, name), value, name)
        for name, value in counts.items():
            assert getattr(report, name) == value, name

    @pytest.mark.parametrize("kind", ["ht", "cm", "hj", "ols", "wls"])
    @pytest.mark.parametrize("design_name", sorted(DESIGNS))
    def test_exact_report_matches_oracle(self, design_name, kind):
        design = self.DESIGNS[design_name]()
        y, c, x, m, spec = self.setup_case(design, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dv.errors.InfeasiblePointsWarning)
            report = dv.run_scenario(dv.SimScenario(design, y, spec, bound_method="as"))
        support = design.support
        draws = [(arms, float(prob)) for arms, prob in zip(support.arms, support.probs)]
        floats, counts, feasible, _ = self.expected(design, y, kind, c, x, m, draws)
        self.check(report, floats, counts)
        assert report.replicates == feasible
        if design_name == "bernoulli3" and kind != "ht":
            assert report.infeasible_count == 2  # the two single-arm assignments

    @pytest.mark.parametrize(
        "design_name, kind, replicates",
        [
            ("paired4", "hj", 300),
            ("complete322", "ols", 300),
            ("bernoulli3", "cm", 300),
            ("complete322", "wls", 4100),  # spans several batches of draws
        ],
    )
    def test_mc_report_matches_oracle(self, design_name, kind, replicates):
        design = self.DESIGNS[design_name]()
        y, c, x, m, spec = self.setup_case(design, kind)
        seed = 23
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dv.errors.InfeasiblePointsWarning)
            report = dv.run_scenario(
                dv.SimScenario(design, y, spec, bound_method="as", mode="mc",
                               replicates=replicates, seed=seed)
            )
        draws = [(design.draw(np.random.default_rng((seed, rep))), 1.0 / replicates)
                 for rep in range(replicates)]
        floats, counts, _, se = self.expected(design, y, kind, c, x, m, draws)
        self.check(report, floats, counts)
        assert report.replicates == replicates
        assert set(report.mc_se) == set(se)
        for name, value in se.items():
            self.assert_close(report.mc_se[name], value, f"mc_se[{name}]")
