import numpy as np
import pytest
from numpy.testing import assert_allclose

import designvar as dv
from conftest import traced_peak
from oracles import brute_force_second_order_norm


def closed_form_first_order(n: int, n_t: int) -> float:
    n_c = n - n_t
    return 2.0 * (n_t / n_c + n_c / n_t + 2.0)


class TestFirstOrderNorm:
    @pytest.mark.parametrize("n,n_t", [(4, 2), (6, 2), (6, 3), (8, 3), (10, 5)])
    def test_complete_design_closed_form(self, n, n_t):
        design = dv.complete_design([n - n_t, n_t])
        dmat, _ = dv.first_order_design_matrix(design)
        assert_allclose(
            dv.first_order_condition_norm(dmat), closed_form_first_order(n, n_t),
            atol=1e-10, rtol=0,
        )

    def test_zero_matrix(self):
        layout = dv.IndexLayout(2, 2)
        dmat = dv.DesignMatrix(layout, np.zeros((4, 4)))
        assert dv.first_order_condition_norm(dmat) == 0.0


class TestSecondOrderNorm:
    def test_matches_brute_force_oracle(self, complete42, complete42_matrices):
        dmat, mask = complete42_matrices
        bound = dv.neyman_bound(dmat, np.array([-1.0, 1.0]), mask)
        fast = dv.second_order_condition_norm(complete42, bound.dtilde)
        slow = brute_force_second_order_norm(complete42, bound.dtilde)
        assert_allclose(fast, slow, atol=1e-8, rtol=0)

    def test_zero_bound_gives_zero(self, complete42):
        assert dv.second_order_condition_norm(complete42, np.zeros((8, 8))) == 0.0

    def test_streaming_blocks_agree(self, complete42, complete42_matrices, monkeypatch):
        dmat, mask = complete42_matrices
        bound = dv.aronow_samii_bound(dmat, mask)
        norms = []
        # one row per tensor block and per support batch, then the whole tensor in one block
        for budget in (8, 8 * 8**4):
            monkeypatch.setattr(dv.designs, "BATCH_BYTES", budget)
            norms.append(dv.second_order_condition_norm(complete42, bound.dtilde))
        assert_allclose(norms[0], norms[1], rtol=1e-12)

    def test_asymmetric_bound_matches_oracle(self):
        # pairs (a, b) and (b, a) share one tensor row, weighted |dt_ab| + |dt_ba|
        design = dv.complete_design([2, 1, 1])
        dt = np.random.default_rng(4).normal(size=(12, 12))
        assert_allclose(dv.second_order_condition_norm(design, dt),
                        brute_force_second_order_norm(design, dt), rtol=1e-12)

    def test_memory_is_bounded_by_the_batch_budget(self):
        # complete [7,7]: the kn^2 x kn^2 tensor alone is 4.9 MB, and the
        # S x kn^2 outer products of its 3,432 support points 21.5 MB each
        design = dv.complete_design([7, 7])
        dmat, mask = dv.first_order_design_matrix(design)
        bound = dv.aronow_samii_bound(dmat, mask)
        peak = traced_peak(dv.second_order_condition_norm, design, bound.dtilde)
        assert peak <= 6 * dv.designs.BATCH_BYTES + 16 * 8 * design.layout.kn**2

    def test_monte_carlo_design_rejected(self):
        d = dv.bernoulli_design(0.5, n=30)
        with pytest.raises(dv.ValidationError):
            dv.second_order_condition_norm(d, np.zeros((60, 60)))

    def test_budget_enforced(self, complete42, complete42_matrices):
        dmat, _ = complete42_matrices
        with pytest.raises(dv.BudgetExceededError):
            dv.second_order_condition_norm(complete42, dmat.d, entry_budget=10)

    def test_budget_counts_the_support(self):
        # complete [6,6]: kn^4 = 331,776 fits the budget, S (kn)^2 = 924 * 576 does not
        design = dv.complete_design([6, 6])
        dmat, mask = dv.first_order_design_matrix(design)
        bound = dv.neyman_bound(dmat, np.array([-1.0, 1.0]), mask)
        with pytest.raises(dv.BudgetExceededError, match="532224"):
            dv.second_order_condition_norm(design, bound.dtilde, entry_budget=400_000)

    def test_budget_is_checked_before_enumerating(self):
        # complete [10,10]: S (kn)^2 = 184,756 * 1,600 is over the default budget,
        # which is known from the support's size without building its 184,756 rows
        design = dv.complete_design([10, 10])
        with pytest.raises(dv.BudgetExceededError, match="295609600"):
            dv.second_order_condition_norm(design, np.zeros((20, 20)))
        assert design._support is None

    def test_bounded_along_growing_designs(self):
        # the per-n normalized norm grows slower than n (it saturates)
        values = []
        for n in (4, 8, 12):
            design = dv.complete_design([n // 2, n // 2])
            dmat, mask = dv.first_order_design_matrix(design)
            bound = dv.neyman_bound(dmat, np.array([-1.0, 1.0]), mask)
            values.append(dv.second_order_condition_norm(design, bound.dtilde))
        scaled = [v / n for v, n in zip(values, (4, 8, 12))]
        assert scaled[0] >= scaled[1] >= scaled[2]
