import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import designvar as dv
from conftest import DT_AS_PAIRED, DT_INVAR_PAIRED, DT_M_PAIRED
from oracles import block, dense_algorithm_m, neyman_identity_check, random_small_design


def c2():
    return np.array([-1.0, 1.0])


def assert_blockdiag_exact(bound, dmat):
    """Exact entries of blockdiag(d_rr - d_01), and their floats."""
    k, n = dmat.layout.k, dmat.layout.n
    for a in range(k * n):
        for b in range(k * n):
            same_arm = a // n == b // n
            want = dmat.frac[a][b] - dmat.frac[a % n][n + b % n] if same_arm else 0
            assert bound.frac[a][b] == want, (a, b)
            assert bound.dtilde[a, b] == float(want), (a, b)


class TestNeymanBound:
    def test_complete_blocks(self, complete42_matrices):
        dmat, mask = complete42_matrices
        bound = dv.neyman_bound(dmat, c2(), mask)
        assert bound.certified_bounding == "yes"
        assert bound.certified_identified == "yes"
        n = 4
        expected_block = block(dmat, 0, 0) - block(dmat, 0, 1)
        assert_array_equal(bound.dtilde[:n, :n], expected_block)
        assert_array_equal(bound.dtilde[:n, n:], np.zeros((n, n)))
        assert_blockdiag_exact(bound, dmat)

    def test_three_arm_blocks(self):
        dmat, mask = dv.first_order_design_matrix(dv.complete_design([2, 2, 2]))
        bound = dv.neyman_bound(dmat, np.array([-1.0, 0.5, 0.5]), mask)
        assert bound.certified_bounding == "yes"
        assert bound.certified_identified == "yes"
        assert_blockdiag_exact(bound, dmat)

    def test_paired_rejected_with_block_message(self, paired4_matrices):
        dmat, mask = paired4_matrices
        with pytest.raises(dv.NeymanPreconditionError, match="diagonal block"):
            dv.neyman_bound(dmat, c2(), mask)

    def test_bernoulli_gives_inverse_pi(self):
        design = dv.bernoulli_design([[0.3, 0.7], [0.4, 0.6]])
        pi = dv.inclusion_probabilities(design)
        dmat, mask = dv.first_order_design_matrix(design)
        bound = dv.neyman_bound(dmat, c2(), mask)
        assert_allclose(bound.dtilde, np.diag(1.0 / pi.probs), atol=0, rtol=0)

    def test_zero_sum_contrast_required(self, complete42_matrices):
        dmat, mask = complete42_matrices
        with pytest.raises(dv.NeymanPreconditionError, match="sum to zero"):
            dv.neyman_bound(dmat, np.array([1.0, 1.0]), mask)

    def test_zero_contrast_entry_rejected(self):
        design = dv.complete_design([2, 2, 2])
        dmat, mask = dv.first_order_design_matrix(design)
        with pytest.raises(dv.NeymanPreconditionError, match="nonzero"):
            dv.neyman_bound(dmat, np.array([-1.0, 1.0, 0.0]), mask)

    @pytest.mark.parametrize("c", [[np.nan, 1.0], [np.inf, -np.inf]])
    def test_non_finite_contrast_rejected(self, complete42_matrices, c):
        # a NaN sum passed the zero-sum gate, and inf - inf warned on the way
        dmat, mask = complete42_matrices
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dv.NeymanPreconditionError, match="finite"):
                dv.neyman_bound(dmat, np.array(c), mask)

    @pytest.mark.parametrize("nudge", [5e-13, -5e-13])
    def test_float_input_within_tolerance_gives_exact_zeros(self, nudge):
        # d read from a file has no exact values: block (1, 0) may differ from
        # block (0, 1) by rounding, and that residue must not reach dtilde
        dmat, mask = dv.first_order_design_matrix(dv.complete_design([2, 2]))
        exact = dv.neyman_bound(dmat, c2(), mask)
        d = dmat.d.copy()
        d[4:, :4] += nudge
        bound = dv.neyman_bound(dv.DesignMatrix(dmat.layout, d), c2(), mask)
        assert bound.frac is None
        off = np.kron(1 - np.eye(2), np.ones((4, 4))) == 1
        assert np.all(bound.dtilde[off] == 0.0)
        assert not np.any(np.signbit(bound.dtilde[off]))  # no negative zero
        assert bound.dtilde.tobytes() == exact.dtilde.tobytes()
        assert (bound.certified_bounding, bound.certified_identified) == ("yes", "yes")

    def test_float_input_beyond_tolerance_rejected(self):
        dmat, mask = dv.first_order_design_matrix(dv.complete_design([2, 2]))
        d = dmat.d.copy()
        d[4:, :4] += 2e-12
        with pytest.raises(dv.NeymanPreconditionError,
                           match=re.escape("off-diagonal blocks (1,0) and (0,1) differ")):
            dv.neyman_bound(dv.DesignMatrix(dmat.layout, d), c2(), mask)


class TestNeymanIdentity:
    def test_matches_and_nonnegative(self, complete42_matrices):
        dmat, _ = complete42_matrices
        rng = np.random.default_rng(0)
        y = rng.normal(size=8)
        lhs, rhs = neyman_identity_check(dmat, c2(), y)
        assert_allclose(lhs, rhs, atol=1e-9, rtol=0)
        assert rhs >= -1e-10

    def test_zero_treatment_effect(self, complete42_matrices):
        dmat, _ = complete42_matrices
        base = np.random.default_rng(1).normal(size=4)
        y = np.concatenate([base, base])
        lhs, rhs = neyman_identity_check(dmat, c2(), y)
        assert_allclose(lhs, 0.0, atol=1e-12)
        assert_allclose(rhs, 0.0, atol=1e-12)

    def test_three_arms(self):
        design = dv.complete_design([2, 2, 2])
        dmat, _ = dv.first_order_design_matrix(design)
        y = np.random.default_rng(2).normal(size=18)
        lhs, rhs = neyman_identity_check(dmat, np.array([-1.0, 0.5, 0.5]), y)
        assert_allclose(lhs, rhs, atol=1e-9, rtol=0)
        assert rhs >= -1e-10

    def test_off_diagonal_block_is_nsd(self, complete42_matrices):
        dmat, _ = complete42_matrices
        vals = np.linalg.eigvalsh(block(dmat, 0, 1))
        assert vals[-1] <= 1e-10


class TestAronowSamii:
    def test_paired_reference(self, paired4_matrices):
        dmat, mask = paired4_matrices
        bound = dv.aronow_samii_bound(dmat, mask)
        assert_array_equal(bound.dtilde, DT_AS_PAIRED)
        assert bound.certified_bounding == "yes"
        assert bound.certified_identified == "yes"

    def test_gershgorin_row_equality(self, paired4_matrices, complete42_matrices):
        for dmat, mask in (paired4_matrices, complete42_matrices):
            diff = dv.aronow_samii_bound(dmat, mask).dtilde - dmat.d
            off = np.abs(diff - np.diag(np.diag(diff))).sum(axis=1)
            assert_array_equal(np.diag(diff), off)

    def test_all_zero_mask(self, complete42_matrices):
        dmat, _ = complete42_matrices
        empty = dv.ImpossibilityMask(dmat.layout, np.zeros((8, 8)))
        bound = dv.aronow_samii_bound(dmat, empty)
        assert_array_equal(bound.dtilde, dmat.d)


class TestAlgorithmM:
    def test_paired_reference(self, paired4_matrices):
        dmat, mask = paired4_matrices
        bound = dv.algorithm_m_bound(dmat, mask, tol=1e-12)
        assert np.max(np.abs(bound.dtilde - DT_M_PAIRED)) <= 1e-9
        assert bound.certified_bounding == "yes"
        assert bound.certified_identified == "yes"
        assert bound.iterations > 1

    def test_zero_mask_converges_immediately(self, complete42_matrices):
        dmat, _ = complete42_matrices
        empty = dv.ImpossibilityMask(dmat.layout, np.zeros((8, 8)))
        bound = dv.algorithm_m_bound(dmat, empty)
        assert bound.iterations == 1
        assert_array_equal(bound.dtilde, dmat.d)

    def test_complete_converges_and_certifies(self, complete42_matrices):
        dmat, mask = complete42_matrices
        bound = dv.algorithm_m_bound(dmat, mask)
        assert bound.certified_bounding == "yes"
        assert bound.certified_identified == "yes"

    def test_fixed_point_mask_entries_are_one(self, paired4_matrices):
        dmat, mask = paired4_matrices
        bound = dv.algorithm_m_bound(dmat, mask, tol=1e-12)
        t = bound.dtilde - dmat.d
        assert np.all(t[mask.mask == 1.0] == 1.0)
        vals = np.linalg.eigvalsh(t)
        assert vals[0] >= -1e-8 * max(1.0, vals[-1])

    def test_non_convergence_raises(self, paired4_matrices):
        dmat, mask = paired4_matrices
        with pytest.raises(dv.NonConvergenceError) as err:
            dv.algorithm_m_bound(dmat, mask, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.last_min_eig < 0

    def test_start_is_always_the_mask(self, complete42_matrices):
        dmat, mask = complete42_matrices
        with pytest.raises(TypeError, match="init"):
            dv.algorithm_m_bound(dmat, mask, init=np.zeros((8, 8)))
        with pytest.raises(TypeError, match="init"):
            dv.build_bound("algm", dmat, mask, init=np.zeros((8, 8)))


def _custom_spec(seed: int, n: int = 6, points: int = 3) -> dict:
    """A custom design whose support holds each drawn assignment and its mirror."""
    rng = np.random.default_rng(seed)
    support = []
    for arms in rng.integers(0, 2, size=(points, n)).tolist():
        weight = int(rng.integers(1, 9))
        support += [{"arms": arms, "prob": weight},
                    {"arms": [1 - a for a in arms], "prob": weight}]
    total = sum(entry["prob"] for entry in support)
    for entry in support:
        entry["prob"] = f"{entry['prob']}/{total}"
    return {"type": "custom", "k": 2, "n": n, "support": support}


ALGM_PARITY_SPECS = {
    "complete": {"type": "complete", "counts": [3, 4, 2]},
    "paired": {"type": "paired", "k": 2, "pairs": [[0, 5], [1, 3], [2, 4], [6, 7]]},
    "bernoulli": {"type": "bernoulli", "probs": [["1/5", "3/10", "1/2"], ["1/3", "1/3", "1/3"],
                                                 ["1/10", "1/10", "4/5"], ["1/4", "1/2", "1/4"]]},
    "cluster": {"type": "cluster", "k": 2, "clusters": [[0, 3], [1], [2, 4, 5]],
                "cluster_design": {"type": "bernoulli", "p": "2/5"}},
    "custom": _custom_spec(7),
}


def _closure(pattern: np.ndarray) -> np.ndarray:
    """Same-component indicator of a symmetric pattern, by repeated squaring."""
    reach = (pattern | np.eye(len(pattern), dtype=bool)).astype(float)
    while True:
        grown = (reach @ reach) > 0
        if np.array_equal(grown, reach > 0):
            return grown
        reach = grown.astype(float)


class TestAlgorithmMParity:
    """The per-block iteration against a dense one on the whole matrix."""

    def _check(self, dmat, mask):
        bound = dv.algorithm_m_bound(dmat, mask)
        t_dense, steps = dense_algorithm_m(mask.mask)
        t = bound.dtilde - dmat.d
        scale = max(1.0, np.max(np.abs(dmat.d)), np.max(np.abs(t_dense)))
        assert bound.iterations == steps
        assert np.max(np.abs(t - t_dense)) <= 1e-12 * scale
        outside = ~_closure((mask.mask != 0) | (mask.mask.T != 0))
        assert np.all(t[outside] == 0.0)
        assert bound.certified_bounding == "yes"
        assert bound.certified_identified == "yes"
        return bound

    @pytest.mark.parametrize("family", sorted(ALGM_PARITY_SPECS))
    def test_matches_dense_projection(self, family):
        dmat, mask = dv.first_order_design_matrix(dv.build_design(ALGM_PARITY_SPECS[family]))
        bound = self._check(dmat, mask)
        assert bound.iterations > 1

    def test_smaller_blocks_decide_convergence(self):
        # the mask's components: units {0, 1}, one per arm, give 4 indices and
        # units {2, 3, 4}, arm counts [1, 2], give 6; projected alone, the
        # 6-index component converges first, so the smaller one decides when
        # the iteration stops
        spec = {"type": "block", "k": 2, "blocks": [
            {"units": [0, 1], "type": "complete", "counts": [1, 1]},
            {"units": [2, 3, 4], "type": "complete", "counts": [1, 2]}]}
        dmat, mask = dv.first_order_design_matrix(dv.build_design(spec))
        bound = self._check(dmat, mask)
        steps = {len(units): dense_algorithm_m(mask.mask[np.ix_(units, units)])[1]
                 for units in ([0, 1, 5, 6], [2, 3, 4, 7, 8, 9])}
        assert steps[6] < steps[4] == bound.iterations

    def test_paired_decomposes_only_pair_blocks(self, monkeypatch):
        pairs = [[2 * i, 2 * i + 1] for i in range(25)]
        design = dv.build_design({"type": "paired", "k": 2, "pairs": pairs, "mode": "mc"})
        dmat, mask = dv.first_order_design_matrix(design)
        sizes = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        bound = dv.algorithm_m_bound(dmat, mask)
        assert bound.certified_bounding == "yes"
        assert len(sizes) > bound.iterations  # the iterations plus the certification
        assert max(sizes) <= 4


class TestCertify:
    def test_invar_is_certified(self, paired4_matrices):
        dmat, mask = paired4_matrices
        bound = dv.certify(dv.user_bound(DT_INVAR_PAIRED, dmat.layout), dmat, mask)
        assert bound.certified_bounding == "yes"
        assert bound.certified_identified == "yes"

    def test_d_itself_bounds_but_is_not_identified(self, paired4_matrices):
        dmat, mask = paired4_matrices
        bound = dv.certify(dv.user_bound(dmat.d.copy(), dmat.layout), dmat, mask)
        assert bound.certified_bounding == "yes"
        assert bound.certified_identified == "no"

    def test_zero_matrix_identified_but_not_bounding(self, paired4_matrices):
        dmat, mask = paired4_matrices
        bound = dv.certify(dv.user_bound(np.zeros((8, 8)), dmat.layout), dmat, mask)
        assert bound.certified_identified == "yes"
        assert bound.certified_bounding == "no"

    def test_mask_of_another_layout_rejected(self, paired4_matrices):
        dmat, _ = paired4_matrices
        other = dv.ImpossibilityMask(dv.IndexLayout(2, 3), np.zeros((6, 6)))
        bound = dv.user_bound(DT_INVAR_PAIRED, dmat.layout)
        with pytest.raises(dv.LayoutMismatchError, match="different layouts"):
            dv.certify(bound, dmat, other)


@pytest.mark.parametrize("method", ["neyman", "as", "algm"])
@pytest.mark.parametrize("matrices, layout", [
    ("complete42_matrices", (2, 3)),
    ("complete42_matrices", (4, 2)),
    # d's diagonal blocks hold -1: Neyman checks the layout before that precondition
    ("paired4_matrices", (4, 2)),
], ids=["other-size", "same-size", "paired"])
def test_mask_of_another_layout_rejected(request, matrices, method, layout):
    dmat, _ = request.getfixturevalue(matrices)
    k, n = layout
    other = dv.ImpossibilityMask(dv.IndexLayout(k, n), np.zeros((k * n, k * n)))
    with pytest.raises(dv.LayoutMismatchError, match="different layouts"):
        dv.build_bound(method, dmat, other, contrast=c2())


@pytest.mark.parametrize("method", [3, None, ["as"]])
def test_build_bound_rejects_a_non_string_method(complete42_matrices, method):
    dmat, mask = complete42_matrices
    with pytest.raises(dv.ValidationError, match="bound method must be a string"):
        dv.build_bound(method, dmat, mask)


class TestInvariantBounding:
    def test_invar_reference(self, paired4_matrices):
        dmat, _ = paired4_matrices
        assert dv.is_invariant_bounding(DT_INVAR_PAIRED, dmat.layout)

    def test_as_is_not_invariant(self, paired4_matrices):
        dmat, _ = paired4_matrices
        assert not dv.is_invariant_bounding(DT_AS_PAIRED, dmat.layout)

    def test_zero_matrix(self):
        assert dv.is_invariant_bounding(np.zeros((8, 8)), dv.IndexLayout(2, 4))

    def test_tolerance_scales_with_the_block(self, paired4_matrices):
        # 1e-11 is 5e-5 of the raised entry: not invariant at any scale
        dmat, _ = paired4_matrices
        small = 1e-7 * DT_INVAR_PAIRED
        assert dv.is_invariant_bounding(small, dmat.layout)
        small[0, 0] += 1e-11
        assert not dv.is_invariant_bounding(small, dmat.layout)
        large = 1e7 * DT_INVAR_PAIRED
        large[0, 0] *= 1 + 1e-15  # float rounding of a large invariant matrix
        assert dv.is_invariant_bounding(large, dmat.layout)

    def test_infinite_entry_is_not_invariant(self):
        m = np.zeros((4, 4))
        m[0, 1] = np.inf  # its row block's sum and absolute sum are both inf
        assert not dv.is_invariant_bounding(m, dv.IndexLayout(2, 2))

    def test_nan_entry_is_not_invariant(self):
        m = np.zeros((4, 4))
        m[0, 1] = np.nan
        assert not dv.is_invariant_bounding(m, dv.IndexLayout(2, 2))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_certified_bounds_dominate_quadratic_forms(seed):
    rng = np.random.default_rng(seed)
    design = random_small_design(rng)
    dmat, mask = dv.first_order_design_matrix(design)
    bounds = [
        dv.aronow_samii_bound(dmat, mask),
        dv.algorithm_m_bound(dmat, mask),
    ]
    try:
        bounds.append(dv.neyman_bound(dmat, c2() if design.layout.k == 2 else
                                      np.array([-1.0] + [1.0 / (design.layout.k - 1)] * (design.layout.k - 1)), mask))
    except dv.NeymanPreconditionError:
        pass
    for bound in bounds:
        assert bound.certified_bounding == "yes"
        assert bound.certified_identified == "yes"
        for _ in range(5):
            z = rng.normal(size=design.layout.kn)
            lhs = z @ bound.dtilde @ z
            rhs = z @ dmat.d @ z
            assert lhs - rhs >= -1e-8 * float(z @ z)


class TestOneImpossibilitySet:
    """The impossible pairs are read off d once, and every verdict reads them."""

    @pytest.mark.parametrize("spec", [
        {"type": "paired", "k": 2, "pairs": [[0, 1], [2, 3]]},
        {"type": "bernoulli", "n": 3, "probs": ["1/6", "1/3", "1/2"]},
        {"type": "custom", "k": 2, "n": 2,
         "support": [{"arms": [0, 1], "prob": "1/3"}, {"arms": [1, 0], "prob": "2/3"}]},
    ], ids=["paired", "bernoulli", "custom"])
    def test_one_derivation(self, monkeypatch, spec):
        design = dv.build_design(spec)
        joint, calls = design.joint, []
        real = dv.designs.elementwise

        def spy(fn, *operands):
            calls.append(operands)
            return real(fn, *operands)

        monkeypatch.setattr(dv.designs, "elementwise", spy)
        dmat, mask = dv.first_order_design_matrix(design)
        assert mask is dmat.mask
        assert dv.derive_mask(dmat) is dmat.mask
        # p is read once, by the d formula; the mask is read off d's exact values
        assert [len(ops) for ops in calls if any(op is joint for op in ops)] == [3]
        assert [ops for ops in calls if len(ops) == 1] == [(dmat.frac,)]
        assert_array_equal(mask.mask, (dmat.d == -1.0).astype(float))

    def test_a_float_d_reads_its_own_minus_ones(self, paired4_matrices):
        exact, _ = paired4_matrices
        dmat = dv.DesignMatrix(exact.layout, exact.d.copy())
        assert dmat.mask.frac is None
        assert_array_equal(dmat.mask.mask, exact.mask.mask)

    @pytest.mark.parametrize("build", [dv.aronow_samii_bound, dv.algorithm_m_bound])
    def test_an_empty_mask_cannot_certify_an_impossible_pair(self, paired4_matrices, build):
        dmat, _ = paired4_matrices
        empty = dv.ImpossibilityMask(dmat.layout, np.zeros((8, 8)))
        bound = build(dmat, empty)
        assert_array_equal(bound.dtilde, dmat.d)  # the mask still steers construction
        assert bound.certified_bounding == "yes"
        assert bound.certified_identified == "no"
        with pytest.raises(dv.NotIdentifiedBoundError, match="certified non-identified"):
            dv.ipw_bound_matrix(bound, dv.paired_design([(0, 1), (2, 3)]))

    def test_an_empty_mask_cannot_hide_neymans_diagonal_minus_ones(self, paired4_matrices):
        dmat, _ = paired4_matrices
        empty = dv.ImpossibilityMask(dmat.layout, np.zeros((8, 8)))
        with pytest.raises(dv.NeymanPreconditionError, match="diagonal block"):
            dv.neyman_bound(dmat, c2(), empty)

    def test_a_given_mask_adds_pairs_to_the_check(self, paired4_matrices):
        dmat, mask = paired4_matrices
        bound = dv.user_bound(DT_INVAR_PAIRED, dmat.layout)
        assert dv.certify(bound, dmat, mask).certified_identified == "yes"
        extra = mask.mask.copy()
        extra[0, 2] = extra[2, 0] = 1.0  # a possible pair, where the candidate is -1
        more = dv.ImpossibilityMask(dmat.layout, extra)
        assert dv.certify(bound, dmat, more).certified_identified == "no"
        steered = dv.aronow_samii_bound(dmat, more)  # d + mask: 1 at (0, 2), where d is 0
        assert steered.dtilde[0, 2] == 1.0 and steered.certified_identified == "no"

    @staticmethod
    def raised(exact, blocks):
        """A float d of complete [2,2] whose off-diagonal ``blocks`` are
        raised by 5e-13: within the 1e-10 symmetry check, but no longer -1.0."""
        d = exact.d.copy()
        for rows, cols in blocks:
            d[rows, cols] += 5e-13
        return dv.DesignMatrix(exact.layout, d)

    def test_a_float_d_marks_a_pair_minus_one_on_either_side(self, complete42_matrices):
        exact, _ = complete42_matrices
        dmat = self.raised(exact, [(slice(4, 8), slice(0, 4))])
        assert_array_equal(dmat.mask.mask, exact.mask.mask)  # all 8 pairs, not 4
        for build in (dv.aronow_samii_bound, dv.algorithm_m_bound):
            bound = build(dmat)  # dtilde is 5e-13 at the raised pairs
            assert (bound.certified_bounding, bound.certified_identified) == ("yes", "no")
        bound = dv.neyman_bound(dmat, c2())
        assert (bound.certified_bounding, bound.certified_identified) == ("yes", "yes")

    @pytest.mark.parametrize("build", [dv.aronow_samii_bound, dv.algorithm_m_bound])
    def test_a_given_mask_is_checked_where_d_has_lost_its_minus_ones(self, complete42_matrices,
                                                                      build):
        # d's own set is empty, so only the given exact mask sees dtilde's 5e-13
        # at the 8 impossible pairs: certify checks the union of the two, so a
        # malformed d.csv that comes with a correct mask.csv certifies "no"
        exact, mask = complete42_matrices
        dmat = self.raised(exact, [(slice(4, 8), slice(0, 4)), (slice(0, 4), slice(4, 8))])
        assert not dmat.mask.mask.any()
        assert build(dmat, mask).certified_identified == "no"


@pytest.mark.parametrize("call, error, fragment", [
    (lambda d: dv.certify(dv.user_bound(np.zeros((6, 6)), dv.IndexLayout(2, 3)), d),
     dv.LayoutMismatchError, "bound and design matrix use different layouts"),
    (lambda d: dv.build_bound("minimax", d), dv.ValidationError, "unknown bound method 'minimax'"),
], ids=["certify-layout", "build-bound-method"])
def test_rejections(complete42_matrices, call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(complete42_matrices[0])
