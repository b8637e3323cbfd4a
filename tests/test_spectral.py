import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import designvar as dv
from designvar.spectral import connected_components
from conftest import (
    DT_AS_PAIRED,
    DT_INVAR_PAIRED,
    DT_M_PAIRED,
    PAIR_HOMOGENEOUS_PATTERN,
    traced_peak,
)


class TestEigenPsdCheck:
    def test_identity(self):
        report = dv.eigen_psd_check(np.eye(8))
        assert_allclose(report.eigenvalues, np.ones(8))
        assert report.psd

    def test_as_minus_m_spectrum(self):
        report = dv.eigen_psd_check(DT_AS_PAIRED - DT_M_PAIRED)
        assert_allclose(report.eigenvalues, [2, 2, 2, 2, 0, 0, 0, 0], atol=1e-9)
        assert report.psd

    def test_invar_minus_d_spectrum(self, paired4_matrices):
        d, _ = paired4_matrices
        report = dv.eigen_psd_check(DT_INVAR_PAIRED - d.d)
        assert_allclose(report.eigenvalues, [8, 0, 0, 0, 0, 0, 0, 0], atol=1e-9)
        assert report.psd

    def test_asymmetric_rejected(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(dv.ValidationError):
            dv.eigen_psd_check(m)

    @pytest.mark.parametrize("scale, asymmetry, accepted", [
        (1e6, 1e-15, True),  # float noise on large entries
        (1e-6, 1e-5, False),  # a real asymmetry on small entries
    ])
    def test_symmetry_tolerance_scales_with_the_matrix(self, scale, asymmetry, accepted):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6))
        m = scale * (m + m.T)
        m[1, 4] *= 1 + asymmetry
        if accepted:
            assert dv.eigen_psd_check(m).eigenvalues.shape == (6,)
        else:
            with pytest.raises(dv.ValidationError, match="symmetric"):
                dv.eigen_psd_check(m)

    def test_small_spectra_are_judged_on_their_own_scale(self):
        # -5e-9 beside a dominant 1e-6 is far beyond round-off: no floor of 1 hides it
        assert not dv.eigen_psd_check(np.diag([1e-6, -5e-9])).psd
        assert dv.eigen_psd_check(np.diag([1e-6, -5e-11])).psd  # inside the absolute floor

    def test_nonfinite_rejected(self):
        m = np.full((2, 2), np.nan)
        with pytest.raises(dv.ValidationError):
            dv.eigen_psd_check(m)

    def test_empty_matrix_rejected(self):
        with pytest.raises(dv.ValidationError, match="nonempty"):
            dv.eigen_psd_check(np.zeros((0, 0)))


@pytest.mark.parametrize("tol", [1.0, 1e300, np.inf, np.nan, -1e-8])
def test_tol_outside_0_1_rejected_wherever_it_is_read(paired4_matrices, tol):
    # from tol = 1 on the threshold reaches the dominant eigenvalue's magnitude
    dmat, mask = paired4_matrices
    zero = dv.user_bound(np.zeros((8, 8)), dmat.layout)
    reads = [
        lambda: dv.eigen_psd_check(np.eye(8), tol),
        lambda: dv.compare_bounds(DT_AS_PAIRED, DT_M_PAIRED, tol),
        lambda: dv.compare_designs(dmat, dmat, tol),
        lambda: dv.certify(zero, dmat, mask, tol),
        lambda: dv.algorithm_m_bound(dmat, mask, tol=tol, max_iter=50),
    ]
    for read in reads:
        with pytest.raises(dv.ValidationError, match=r"tol must be a finite number in \[0, 1\)"):
            read()
    assert dv.eigen_psd_check(np.eye(8), 0.0).psd and dv.eigen_psd_check(np.eye(8), 0.5).psd


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 64))
def test_eigen_reconstruction_and_orthonormality(seed, size):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(size, size))
    m = (m + m.T) / 2.0
    report = dv.eigen_psd_check(m)
    v, lam = report.eigenvectors, report.eigenvalues
    recon = v @ np.diag(lam) @ v.T
    scale = max(1.0, np.max(np.abs(m)))
    assert np.max(np.abs(m - recon)) <= 1e-8 * scale
    assert np.max(np.abs(v.T @ v - np.eye(size))) <= 1e-8
    assert np.all(np.diff(lam) <= 1e-12)  # descending


def _pattern(n, edges):
    p = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        p[a, b] = p[b, a] = True
    return p


class TestConnectedComponents:
    def test_zero_pattern_is_all_singletons(self):
        groups = connected_components(np.zeros((5, 5), dtype=bool))
        assert len(groups) == 1
        assert_array_equal(groups[0], np.arange(5).reshape(5, 1))

    def test_dense_pattern_is_one_component(self):
        groups = connected_components(np.ones((6, 6), dtype=bool))
        assert len(groups) == 1
        assert_array_equal(groups[0], np.arange(6)[None, :])

    def test_chain_across_label_order(self):
        # the chain 1-3-5-7-6-4-2-0 alternates high and low labels, so one
        # hook-and-jump pass does not settle it; 8 joins it through 0, and
        # 9 and 10 are a separate pair
        chain = [1, 3, 5, 7, 6, 4, 2, 0, 8]
        groups = connected_components(_pattern(11, list(zip(chain, chain[1:])) + [(9, 10)]))
        assert [g.shape for g in groups] == [(1, 2), (1, 9)]
        assert_array_equal(groups[0], [[9, 10]])
        assert_array_equal(groups[1], [np.arange(9)])

    def test_groups_by_size_with_sorted_rows(self):
        edges = [(0, 4), (4, 2), (1, 5), (3, 6)]
        groups = connected_components(_pattern(8, edges))
        assert [g.tolist() for g in groups] == [[[7]], [[1, 5], [3, 6]], [[0, 2, 4]]]


class TestBlockwiseEigen:
    def test_dense_input_matches_eigh_bit_for_bit(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(40, 40))
        m = (m + m.T) / 2.0
        vals, vecs = np.linalg.eigh(m)
        order = np.argsort(vals)[::-1]
        report = dv.eigen_psd_check(m)
        assert np.array_equal(report.eigenvalues, vals[order])
        assert np.array_equal(report.eigenvectors, vecs[:, order])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 40))
    def test_scattered_blocks_decompose_the_matrix(self, seed, size):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(size, size)) * (rng.random((size, size)) < 0.1)
        m = (m + m.T) / 2.0
        report = dv.eigen_psd_check(m)
        v, lam = report.eigenvectors, report.eigenvalues
        scale = max(1.0, np.max(np.abs(m)))
        assert np.max(np.abs(lam - np.linalg.eigvalsh(m)[::-1])) <= 1e-12 * scale
        assert np.max(np.abs(m - (v * lam) @ v.T)) <= 1e-12 * scale
        assert np.max(np.abs(v.T @ v - np.eye(size))) <= 1e-12
        assert np.all(np.diff(lam) <= 0)
        assert (report.min_eig, report.max_eig) == (lam[-1], lam[0])

    def test_pair_blocks_never_decompose_the_whole_matrix(self, monkeypatch):
        dmat, mask = dv.first_order_design_matrix(dv.complete_design([6, 6]))
        diff = dv.aronow_samii_bound(dmat, mask).dtilde - dmat.d
        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a, *args: sizes.append(np.shape(a)) or eigh(a, *args)
        )
        report = dv.eigen_psd_check(diff)
        assert sizes == [(12, 2, 2)]  # one batched call over the units' arm pairs
        assert_allclose(report.eigenvalues, np.linalg.eigvalsh(diff)[::-1], atol=1e-12)

    def test_certify_builds_no_eigenvector_matrix(self):
        # AS on complete [200,200] (kn = 800): 400 pair blocks; certification
        # reads eigenvalues only, so beyond the kn x kn difference and its
        # symmetrized copy only boolean patterns are held (one kn x kn float is 5.1 MB)
        design = dv.complete_design([200, 200])
        dmat, mask = dv.first_order_design_matrix(design)
        bound = dv.aronow_samii_bound(dmat, mask)
        assert traced_peak(dv.certify, bound, dmat, mask) <= 3 * 8 * 800**2


class TestCompareDesigns:
    def test_reference_spectrum(self, complete42_matrices, paired4_matrices):
        d_cr, _ = complete42_matrices
        d_pr, _ = paired4_matrices
        comp = dv.compare_designs(d_cr, d_pr)
        expected = [8.0 / 3.0, 0, 0, 0, 0, 0, -4.0 / 3.0, -4.0 / 3.0]
        assert_allclose(comp.report.eigenvalues, expected, atol=1e-9)
        assert len(comp.extremal) == 3

    def test_self_comparison_is_zero(self, paired4_matrices):
        d, _ = paired4_matrices
        comp = dv.compare_designs(d, d)
        assert_allclose(comp.report.eigenvalues, np.zeros(8), atol=0)
        assert comp.extremal == []

    def test_leading_vector_is_pair_homogeneous(self, complete42_matrices, paired4_matrices):
        d_cr, _ = complete42_matrices
        d_pr, _ = paired4_matrices
        comp = dv.compare_designs(d_cr, d_pr)
        lam, profile = comp.extremal[0]
        assert_allclose(lam, 8.0 / 3.0, atol=1e-9)
        v = profile.ravel()
        # subspace projection distance to the reference pattern, sign-free
        u = PAIR_HOMOGENEOUS_PATTERN
        assert np.linalg.norm(v - u * np.sign(u @ v)) <= 1e-6

    def test_negative_eigenspace_contains_heterogeneous_pair_profiles(
        self, complete42_matrices, paired4_matrices
    ):
        # the repeated negative eigenvalue spans a 2-d subspace; individual
        # eigenvectors are basis-dependent, so compare by projection
        d_cr, _ = complete42_matrices
        d_pr, _ = paired4_matrices
        comp = dv.compare_designs(d_cr, d_pr)
        lam = comp.report.eigenvalues
        cols = [j for j, v in enumerate(lam) if abs(v + 4.0 / 3.0) < 1e-9]
        assert len(cols) == 2
        basis = comp.report.eigenvectors[:, cols]
        proj = basis @ basis.T
        # maximally heterogeneous pairs: one unit up, its partner down
        for profile in (
            np.array([1, -1, 0, 0, -1, 1, 0, 0], dtype=float),
            np.array([0, 0, 1, -1, 0, 0, -1, 1], dtype=float),
        ):
            u = profile / np.linalg.norm(profile)
            assert np.linalg.norm(u - proj @ u) <= 1e-6

    def test_antisymmetry(self, complete42_matrices, paired4_matrices):
        d_cr, _ = complete42_matrices
        d_pr, _ = paired4_matrices
        ab = dv.compare_designs(d_cr, d_pr).report.eigenvalues
        ba = dv.compare_designs(d_pr, d_cr).report.eigenvalues
        assert_allclose(ab, -ba[::-1], atol=1e-8)

    def test_layout_mismatch(self, complete42_matrices):
        d_cr, _ = complete42_matrices
        other = dv.DesignMatrix(dv.IndexLayout(2, 2), np.zeros((4, 4)))
        with pytest.raises(dv.LayoutMismatchError):
            dv.compare_designs(d_cr, other)


class TestCompareBounds:
    def test_m_tighter_than_as(self):
        verdict = dv.compare_bounds(DT_M_PAIRED, DT_AS_PAIRED)
        assert verdict.relation == "a-tighter"

    def test_m_vs_invar_incomparable(self):
        verdict = dv.compare_bounds(DT_M_PAIRED, DT_INVAR_PAIRED)
        assert verdict.relation == "incomparable"
        assert_allclose(
            verdict.evidence.eigenvalues, [4, 0, 0, 0, 0, 0, 0, -4], atol=1e-9
        )

    def test_equal(self):
        verdict = dv.compare_bounds(DT_AS_PAIRED, DT_AS_PAIRED.copy())
        assert verdict.relation == "equal"

    def test_b_tighter_symmetric(self):
        verdict = dv.compare_bounds(DT_AS_PAIRED, DT_M_PAIRED)
        assert verdict.relation == "b-tighter"

    def test_accepts_bound_matrix_objects(self, paired4_matrices):
        d, mask = paired4_matrices
        bm = dv.algorithm_m_bound(d, mask, tol=1e-12)
        bas = dv.aronow_samii_bound(d, mask)
        assert dv.compare_bounds(bm, bas).relation == "a-tighter"

    def test_empty_bounds_rejected(self):
        with pytest.raises(dv.ValidationError, match="nonempty"):
            dv.compare_bounds(np.zeros((0, 0)), np.zeros((0, 0)))
