import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import designvar as dv
from designvar import designs, serialization as ser
from designvar.cli import main
from designvar.designs import _arm_sequences
from conftest import D_COMPLETE, D_PAIRED, SPECS_N30, SUPPORT_SIZES_N30, traced_peak
from oracles import (
    assert_same_exact,
    assignments,
    dense_p,
    empirical_moments,
    enumeration_design_matrix,
    multiset_permutations,
    random_small_design,
    reference_support,
)


class TestBuilders:
    def test_paired_support(self, paired4):
        assert paired4.support_size == 4
        probs = [prob for _, prob in zip(paired4.support.arms, paired4.support.probs)]
        assert all(p == Fraction(1, 4) for p in probs)

    def test_complete_support(self, complete42):
        assert complete42.support_size == 6
        support = complete42.support
        assert all(prob == Fraction(1, 6) for _, prob in zip(support.arms, support.probs))

    @pytest.mark.parametrize("counts", [[1, 1], [2, 2], [3, 1], [0, 3], [2, 0, 2], [2, 1, 3],
                                        [1, 1, 1, 1], [3, 3, 2]])
    def test_arm_sequences_are_the_multiset_permutations_in_order(self, counts):
        arms = _arm_sequences(counts)
        assert arms.dtype == np.dtype(int) and arms.flags.c_contiguous
        assert arms.tolist() == [list(row) for row in multiset_permutations(counts)]

    def test_arm_sequences_fill_one_array(self):
        # complete [8,8]: 12,870 rows of 16 arms; the per-column copies of
        # growing prefixes took over 3 times the result
        arms = _arm_sequences([8, 8])
        assert traced_peak(_arm_sequences, [8, 8]) <= 2 * arms.nbytes

    @pytest.mark.parametrize("arms, cause", [
        ([True, 0], "expected an integer, got True"),
        ([0, 1.5], "expected an integer, got 1.5"),
        ([0, "x"], "expected an integer, got 'x'"),
        ([[0], 1], "expected an integer, got [0]"),
        (3, "expected a list, got int"),
        ("01", "expected a list, got str"),
    ])
    def test_custom_arms_rows_are_rejected_as_before(self, arms, cause):
        spec = {"type": "custom", "k": 2, "n": 2, "support": [{"arms": arms, "prob": 1}]}
        message = f'custom support entry field "arms" is malformed: {arms!r}'
        with pytest.raises(dv.ValidationError, match=f"^{re.escape(message)}$") as raised:
            dv.build_design(spec)
        assert str(raised.value.__cause__) == cause

    def test_custom_arms_rows_are_read_whole(self, monkeypatch):
        calls = []
        monkeypatch.setattr(designs, "spec_int", lambda v: calls.append(v) or int(v))
        points = [{"arms": [i % 2, 1 - i % 2, 1], "prob": "1/4"} for i in range(4)]
        design = dv.build_design({"type": "custom", "k": 2, "n": 3, "support": points})
        assert calls == [2, 3]  # k and n; each row of arms is one check
        assert design.support.arms.tolist() == [p["arms"] for p in points]
        # a row with an integral float takes the entry-by-entry path
        spec = {"type": "custom", "k": 2, "n": 2, "support": [{"arms": [0, 1.0], "prob": 1}]}
        assert dv.build_design(spec).support.arms.tolist() == [[0, 1]]

    def test_bernoulli_over_the_cap_builds_without_a_support(self):
        d = dv.bernoulli_design(0.5, n=30)
        d.support_cap = 2**20
        assert (d.support_size, d.support_cap) == (2**30, 2**20)
        assert d.support is None
        assert dv.inclusion_probabilities(d).frac is not None  # moments stay exact

    def test_bernoulli_support_size_counts_positive_arms(self):
        spec = REFERENCE_SPECS["bernoulli-zero-arm"]
        design = dv.build_design(spec)
        assert design.support_size == len(design.support) == 12
        assert ser.design_summary(design)["support_size"] == 12  # design.json's value
        # the cap is checked against the 12 enumerated points, not k**n = 27
        assert len(dv.build_design({**spec, "support_cap": 20}).support) == 12

    def test_spec_mode_is_ignored(self):
        # no family reads a "mode" field, whatever its value
        for spec in ({"type": "complete", "counts": [2, 2]},
                     {"type": "custom", "k": 2, "n": 1, "support": [{"arms": [0], "prob": 1}]}):
            plain, moded = dv.build_design(spec), dv.build_design({**spec, "mode": "bogus"})
            assert ser.design_summary(moded) == ser.design_summary(plain)
            assert_array_equal(moded.support.arms, plain.support.arms)
            assert_array_equal(moded.p_frac.codes, plain.p_frac.codes)

    @pytest.mark.parametrize(
        "support, error, message",
        [
            ([([0, 1], "1/2"), ([1, 0], "1/3")], dv.ValidationError, "sum to 0.83"),
            ([([0, 1], "3/2"), ([1, 0], "-1/2")], dv.ValidationError, "must be positive"),
            ([([0, 1, 0], "1/2"), ([1, 0, 1], "1/2")], dv.LayoutMismatchError, "arm per unit"),
            ([([0, 1], "1/2"), ([1], "1/2")], dv.LayoutMismatchError, "arm per unit"),
            ([([0, 2], "1/2"), ([1, 0], "1/2")], dv.ValidationError, r"lie in \[0, k\)"),
            ([], dv.ValidationError, "enumerated support"),
            ([([0.5, 1], "1/2"), ([1, 0.9], "1/2")], dv.ValidationError,
             re.escape('"arms" is malformed: [0.5, 1]')),
            ([([True, 0], "1/2"), ([0, 1], "1/2")], dv.ValidationError,
             re.escape('"arms" is malformed: [True, 0]')),
        ],
    )
    def test_custom_support_is_validated(self, support, error, message):
        with pytest.raises(error, match=message):
            dv.custom_design(dv.IndexLayout(2, 2), support)

    def test_custom_unit_marginals_sum_to_one_exactly(self):
        # these sum to 1 + 1/(7*2**80), within the float check's 1e-12 of 1:
        # p is divided by their exact total, so each unit's pi sums to 1
        den = 3 * 2**80
        support = [([0, 0], Fraction(1, den)), ([0, 1], Fraction(5, den)),
                   ([1, 0], Fraction(den - 6, den)), ([1, 1], Fraction(1, 7 * 2**80))]
        design = dv.custom_design(dv.IndexLayout(2, 2), support)
        pi = design.p_frac.diagonal()
        assert [pi[unit] + pi[2 + unit] for unit in range(2)] == [1, 1]

    def test_exact_pi_that_rounds_to_one_is_named(self, tmp_path):
        # the exact pi at flat index 2 lies within 2**-53 of 1, so its float is 1.0
        den = 3 * 2**80
        support = [([0, 0], Fraction(1, den)), ([0, 1], Fraction(5, den)),
                   ([1, 1], Fraction(den - 6, den)), ([1, 0], Fraction(1, 7 * 2**80))]
        design = dv.custom_design(dv.IndexLayout(2, 2), support)
        message = ("non-identified design: inclusion probability at flat index 2 (arm 1, "
                   "unit 0) is 8462480737302404222943219/8462480737302404222943233, "
                   "which rounds to 1.0 in float, outside (0, 1)")
        with pytest.raises(dv.NonIdentifiedDesignError, match=f"^{re.escape(message)}$"):
            dv.inclusion_probabilities(design)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"type": "custom", "k": 2, "n": 2, "support": [
            {"arms": arms, "prob": str(prob)} for arms, prob in support]}))
        assert main(["design", str(spec), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda: dv.complete_design([1.5, 2.9]),
            lambda: dv.complete_design([2, True]),
            lambda: dv.paired_design([[0, 1]], k=2.5),
            lambda: dv.paired_design([[0, 1]], k="two"),
            lambda: dv.bernoulli_design(0.5, n=3.5),
            lambda: dv.bernoulli_design(["1/2", "1/2"], n=2.5),
            lambda: dv.bernoulli_design([["1/2", "1/2"]], k=2.5),
            lambda: dv.block_design([([0, 1.7], dv.complete_design([1, 1]))]),
            lambda: dv.block_design([([False, True], dv.complete_design([1, 1]))]),
            lambda: dv.cluster_design([[False, True], [2]], dv.complete_design([1, 1])),
            lambda: dv.cluster_design([[0, 1.5], [2]], dv.complete_design([1, 1])),
        ],
        ids=["complete-float", "complete-bool", "paired-k", "paired-k-str",
             "bernoulli-n", "bernoulli-row-n", "bernoulli-k", "block-units-float",
             "block-units-bool", "cluster-units-bool", "cluster-units-float"],
    )
    def test_non_integral_sizes_rejected(self, build):
        with pytest.raises(dv.ValidationError, match="expected an integer"):
            build()

    def test_integral_float_sizes_accepted(self):
        assert dv.complete_design([2.0, 1.0]).layout == dv.IndexLayout(2, 3)
        assert dv.paired_design([[0, 1]], k=2.0).layout == dv.IndexLayout(2, 2)
        assert dv.bernoulli_design(0.5, n=3.0).layout == dv.IndexLayout(2, 3)
        assert dv.bernoulli_design([["1/2", "1/2"]], k=2.0).layout == dv.IndexLayout(2, 1)

    def test_complete_counts_disagree_with_n(self):
        with pytest.raises(dv.InfeasibleSpecError):
            dv.build_design({"type": "complete", "counts": [2, 2], "n": 5})

    def test_block_units_must_partition(self):
        sub = dv.complete_design([1, 1])
        with pytest.raises(dv.InfeasibleSpecError):
            dv.block_design([([0, 1], sub), ([1, 2], sub)])

    def test_cluster_covers_units(self):
        level = dv.bernoulli_design(0.5, n=2)
        with pytest.raises(dv.InfeasibleSpecError):
            dv.cluster_design([[0, 1], [3]], level)

    def test_build_design_json_families(self):
        specs = [
            {"type": "bernoulli", "k": 2, "n": 3, "p": 0.5},
            {"type": "complete", "counts": [2, 2]},
            {"type": "paired", "k": 2, "pairs": [[0, 1], [2, 3]]},
            {
                "type": "block",
                "k": 2,
                "blocks": [
                    {"units": [0, 1], "type": "complete", "counts": [1, 1]},
                    {"units": [2, 3], "type": "bernoulli", "p": 0.5},
                ],
            },
            {
                "type": "cluster",
                "k": 2,
                "clusters": [[0, 1], [2], [3, 4]],
                "cluster_design": {"type": "complete", "counts": [1, 2]},
            },
            {
                "type": "custom",
                "k": 2,
                "n": 2,
                "support": [
                    {"arms": [0, 1], "prob": "1/2"},
                    {"arms": [1, 0], "prob": "1/2"},
                ],
            },
        ]
        for spec in specs:
            design = dv.build_design(spec)
            total = sum(float(p) for _, p in zip(design.support.arms, design.support.probs))
            assert abs(total - 1.0) <= 1e-12

    def test_unknown_type(self):
        with pytest.raises(dv.InfeasibleSpecError):
            dv.build_design({"type": "latin-square"})


class TestLazySupport:
    @pytest.fixture()
    def no_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the support was enumerated")

        for name in ("_arm_sequences", "_product_support"):
            monkeypatch.setattr(dv.designs, name, refuse)

    @pytest.mark.parametrize("family", sorted(SPECS_N30))
    def test_nothing_computed_from_p_enumerates(self, family, no_enumeration):
        design = dv.build_design(SPECS_N30[family])
        assert design.support_size == SUPPORT_SIZES_N30[family]
        pi = dv.inclusion_probabilities(design)
        p = dv.joint_probabilities(design)
        dmat, mask = dv.first_order_design_matrix(design)
        bound = dv.aronow_samii_bound(dmat, mask)
        ipw = dv.ipw_bound_matrix(bound, p)
        arms = design.draw(np.random.default_rng(0))
        data = dv.observe(dv.Assignment(design.layout, arms), np.arange(60.0))
        spec = dv.EstimatorSpec("hj", np.array([-1.0, 1.0]))
        value = dv.plugin_bound_estimate(spec, data, pi, ipw, bound_method=bound.method).value
        assert np.isfinite(dv.point_estimate(spec, data, pi)) and np.isfinite(value)

    def test_support_is_enumerated_once_on_first_read(self, monkeypatch):
        calls = []
        enumerate_arms = dv.designs._arm_sequences
        monkeypatch.setattr(dv.designs, "_arm_sequences",
                            lambda counts: calls.append(counts) or enumerate_arms(counts))
        design = dv.cluster_design([[0, 1], [2, 3], [4]], dv.complete_design([1, 2]))
        assert calls == []
        assert design.support is design.support
        assert calls == [[1, 2]] and len(design.support) == 3

    def test_exact_consumers_name_themselves_the_size_and_the_cap(self, no_enumeration):
        design = dv.bernoulli_design(0.5, n=30)
        assert design.support is None
        y, spec = np.zeros(60), dv.EstimatorSpec("ht", np.array([-1.0, 1.0]))
        consumers = {
            "exact scenario": lambda: dv.SimScenario(design, y, spec),
            "taylor_gap": lambda: dv.taylor_gap(spec, design, y),
            "second_order_condition_norm":
                lambda: dv.second_order_condition_norm(design, np.zeros((60, 60))),
            "support_indicators": design.support_indicators,
        }
        for name, consume in consumers.items():
            with pytest.raises(dv.SupportOverflowError) as raised:
                consume()
            assert all(part in str(raised.value) for part in (name, str(2**30), str(10**6)))

    def test_a_sampler_only_part_leaves_no_support(self):
        part = dv.custom_design(dv.IndexLayout(2, 2), sampler=lambda rng: rng.integers(0, 2, 2))
        block = dv.block_design([([0, 1], part), ([2, 3], dv.complete_design([1, 1]))])
        assert block.support_size is None and block.support is None
        with pytest.raises(dv.SupportOverflowError, match="taylor_gap.*cannot be enumerated"):
            dv.taylor_gap(dv.EstimatorSpec("ht", np.array([-1.0, 1.0])), block, np.zeros(8))

    def test_a_composite_cap_bounds_its_parts(self):
        # the pairs' own designs keep the default cap; the product's cap of 4 admits them
        design = dv.paired_design([[0, 1], [2, 3]])
        design.support_cap = 3
        assert design.support is None
        design.support_cap = 4
        assert len(design.support) == 4
        design.support_cap = 3  # an enumerated support still reads as None over the cap
        assert design.support is None

    @pytest.mark.parametrize("builder, args", [
        (dv.bernoulli_design, (0.5, 2, 2)), (dv.complete_design, ([1, 1],)),
        (dv.block_design, ([([0, 1], dv.complete_design([1, 1]))],)),
        (dv.paired_design, ([[0, 1]],)), (dv.custom_design, (dv.IndexLayout(2, 1), [([0], 1)])),
        (dv.build_design, ({"type": "complete", "counts": [1, 1]},)),
    ], ids=["bernoulli", "complete", "block", "paired", "custom", "build_design"])
    def test_builders_take_no_cap(self, builder, args):
        # Design.support_cap, which build_design sets from the spec, is the one setting
        assert builder(*args).support_cap == dv.designs.DEFAULT_SUPPORT_CAP
        with pytest.raises(TypeError):
            builder(*args, support_cap=10)

    def test_a_sub_spec_cap_is_not_read(self):
        part = {"units": [0, 1, 2, 3], "type": "complete", "counts": [1, 3], "support_cap": 1}
        design = dv.build_design({"type": "block", "k": 2, "blocks": [part]})
        assert design.support_cap == dv.designs.DEFAULT_SUPPORT_CAP
        assert len(design.support) == 4
        level = {"type": "complete", "counts": [1, 3], "support_cap": "not read"}
        assert len(dv.build_design({"type": "cluster", "k": 2, "clusters": [[0], [1], [2], [3]],
                                    "cluster_design": level}).support) == 4

    def test_the_top_level_cap_governs_a_cluster(self):
        spec = {"type": "cluster", "k": 2, "clusters": [[0, 1], [2], [3], [4, 5]],
                "cluster_design": {"type": "complete", "counts": [2, 2]}, "support_cap": 5}
        design = dv.build_design(spec)
        assert (design.support_size, design.support_cap, design.support) == (6, 5, None)
        design.support_cap = 6
        assert len(design.support) == 6

    @pytest.mark.parametrize("as_part", [False, True], ids=["top-level", "block-part"])
    def test_a_custom_support_over_the_cap_is_refused_at_build(self, as_part):
        custom = {"type": "custom", "k": 2, "n": 1,
                  "support": [{"arms": [0], "prob": 0.5}, {"arms": [1], "prob": 0.5}]}
        spec = ({"type": "block", "blocks": [{"units": [0], **custom}]} if as_part else custom)
        with pytest.raises(dv.SupportOverflowError,
                           match=r"^custom support has 2 points, above the cap 1$"):
            dv.build_design({**spec, "support_cap": 1})
        assert dv.build_design({**spec, "support_cap": 2}).support_cap == 2

    @pytest.mark.parametrize("cap", [-1, -5])
    def test_a_negative_cap_is_rejected(self, cap):
        with pytest.raises(dv.ValidationError, match=f'"support_cap" must be >= 0, got {cap}'):
            dv.build_design({"type": "complete", "counts": [2, 2], "support_cap": cap})
        assert dv.build_design({"type": "complete", "counts": [2, 2],
                                "support_cap": 0}).support is None


REFERENCE_SPECS = {
    "complete-k2": {"type": "complete", "counts": [3, 2]},
    "complete-k3": {"type": "complete", "counts": [2, 1, 2]},
    "bernoulli-scalar": {"type": "bernoulli", "n": 4, "p": "1/3"},
    "bernoulli-shared-row": {"type": "bernoulli", "n": 3, "probs": ["1/6", "1/3", "1/2"]},
    "bernoulli-zero-arm": {
        "type": "bernoulli",
        "probs": [["1/2", "1/2", "0"], ["1/4", "0", "3/4"], ["1/3", "1/3", "1/3"]],
    },
    "bernoulli-float-rows": {"type": "bernoulli", "probs": [[0.1, 0.9], [0.3, 0.7], [0.25, 0.75]]},
    "paired": {"type": "paired", "k": 2, "pairs": [[0, 3], [4, 1], [2, 5]]},
    "paired-k3": {"type": "paired", "k": 3, "pairs": [[0, 4, 2], [5, 1, 3]]},
    "block-mixed": {
        "type": "block",
        "k": 2,
        "blocks": [
            {"units": [1, 4], "type": "complete", "counts": [1, 1]},
            {"units": [0, 3, 5], "type": "bernoulli",
             "probs": [[0.3, 0.7], ["1/5", "4/5"], [0.5, 0.5]]},
            {"units": [2, 6], "type": "paired", "pairs": [[1, 0]]},
        ],
    },
    "cluster": {
        "type": "cluster",
        "k": 3,
        "clusters": [[0, 4], [2], [1, 3, 5]],
        "cluster_design": {"type": "complete", "counts": [1, 1, 1]},
    },
    "cluster-bernoulli": {
        "type": "cluster",
        "k": 2,
        "clusters": [[3], [0, 2], [1]],
        "cluster_design": {"type": "bernoulli", "p": "2/7"},
    },
    "custom": {
        "type": "custom",
        "k": 3,
        "n": 3,
        "support": [
            {"arms": [2, 0, 1], "prob": "1/7"},
            {"arms": [0, 1, 2], "prob": "1/6"},
            {"arms": [0, 2, 2], "prob": "5/14"},
            {"arms": [1, 1, 0], "prob": "1/3"},
        ],
    },
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SPECS))
def test_support_matches_reference_enumeration(name):
    """Row order and exact probabilities, read as (Assignment, Fraction) pairs."""
    spec = REFERENCE_SPECS[name]
    support = [(tuple(assignment.arms.tolist()), prob)
               for assignment, prob in assignments(dv.build_design(spec))]
    assert support == reference_support(spec)
    assert all(type(prob) is Fraction for _, prob in support)


class TestInclusionProbabilities:
    def test_paired_all_half(self, paired4):
        pi = dv.inclusion_probabilities(paired4)
        assert_array_equal(pi.probs, np.full(8, 0.5))
        assert not pi.estimated

    def test_complete_one_of_four(self):
        d = dv.complete_design([3, 1])
        pi = dv.inclusion_probabilities(d)
        assert_array_equal(pi.probs[:4], np.full(4, 0.75))
        assert_array_equal(pi.probs[4:], np.full(4, 0.25))

    def test_degenerate_design_rejected(self):
        layout = dv.IndexLayout(2, 1)
        d = dv.custom_design(layout, support=[([0], 1.0)])
        with pytest.raises(dv.NonIdentifiedDesignError):
            dv.inclusion_probabilities(d)


class TestClassTables:
    STRUCTURED = {
        "complete": {"type": "complete", "counts": [12, 12, 11]},
        "paired": {"type": "paired", "k": 2, "pairs": [[2 * i, 2 * i + 1] for i in range(25)]},
        "bernoulli": {"type": "bernoulli", "n": 50, "p": "1/3"},
        "cluster": {"type": "cluster", "k": 2, "clusters": [[g, g + 10] for g in range(10)],
                    "cluster_design": {"type": "complete", "counts": [5, 5]}},
        "block": SPECS_N30["block"],
    }

    @pytest.mark.parametrize("family", STRUCTURED)
    def test_structured_families_stay_tables_until_read(self, family):
        design = dv.build_design(self.STRUCTURED[family])
        assert isinstance(design.p_frac, designs.ClassMatrix)
        assert design.p_frac.pattern.size <= 6  # arms, times part types for the block
        p = dv.joint_probabilities(design)
        dmat, mask = dv.first_order_design_matrix(design)
        bound = dv.aronow_samii_bound(dmat, mask)
        ipw = dv.ipw_bound_matrix(bound, p)
        assert all(isinstance(m, designs.ClassMatrix)
                   for m in (p.frac, dmat.frac, mask.frac, bound.frac, ipw.frac))
        assert "codes" not in vars(ipw.frac)  # no dense codes until an entry is read
        assert float(ipw.frac[0, 0]) == ipw.matrix[0, 0]
        assert "codes" in vars(ipw.frac)

    def test_distinct_rows_are_stored_dense(self):
        # a class per row: three tables of (2n)^2 entries would outweigh the matrix
        rows = [[1 - x, x] for x in np.random.default_rng(1).random(20).tolist()]
        design = dv.bernoulli_design(rows)
        assert not isinstance(design.p_frac, designs.ClassMatrix)
        assert_same_exact(design.p_frac, dense_p({"type": "bernoulli", "probs": rows})[1])


class TestJointProbabilities:
    def test_paired_partners_never_share_arms(self, paired4):
        p = dv.joint_probabilities(paired4)
        assert p.p[0, 1] == 0.0  # units 0,1 both in arm 0
        assert p.p[4, 5] == 0.0  # both in arm 1

    def test_bernoulli_independence(self):
        d = dv.bernoulli_design(0.5, n=2)
        p = dv.joint_probabilities(d)
        assert p.p[0, 1] == 0.25  # different units, same arm
        assert p.p[0, 2] == 0.0  # same unit, different arms

    def test_diagonal_equals_pi(self, complete42):
        pi = dv.inclusion_probabilities(complete42)
        p = dv.joint_probabilities(complete42)
        assert_array_equal(np.diag(p.p), pi.probs)


class TestDesignMatrix:
    def test_paired_matches_reference_exactly(self, paired4_matrices):
        dmat, mask = paired4_matrices
        assert_array_equal(dmat.d, D_PAIRED)
        assert_array_equal(mask.mask, (D_PAIRED == -1).astype(float))

    def test_complete_matches_reference_exactly(self, complete42_matrices):
        dmat, _ = complete42_matrices
        assert_array_equal(dmat.d, D_COMPLETE)

    def test_two_point_design(self):
        d = dv.bernoulli_design(0.5, n=1)
        dmat, mask = dv.first_order_design_matrix(d)
        assert_array_equal(dmat.d, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert_array_equal(mask.mask, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_mask_positions_are_exactly_minus_one(self, paired4_matrices):
        dmat, mask = paired4_matrices
        assert np.all(dmat.d[mask.mask == 1.0] == -1.0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 0.5, 2.0, -1.0])
    def test_mask_entries_other_than_0_and_1_rejected(self, entry):
        mask = np.zeros((4, 4))
        mask[0, 1] = mask[1, 0] = entry
        with pytest.raises(dv.ValidationError, match="mask entries must be 0 or 1"):
            dv.ImpossibilityMask(dv.IndexLayout(2, 2), mask)

    def test_mask_keeps_0_and_1(self):
        mask = np.array([[0.0, 1.0], [-0.0, 1.0]])
        kept = dv.ImpossibilityMask(dv.IndexLayout(2, 1), mask).mask
        assert_array_equal(kept, [[0.0, 1.0], [0.0, 1.0]])
        assert not np.signbit(kept[1, 0])

    def test_float_d_must_be_symmetric(self, complete42_matrices):
        # the rule eigen_psd_check applies: 1e-10 of the largest entry magnitude
        dmat, _ = complete42_matrices
        d = dmat.d.copy()
        d[0, 1] += 1.0
        with pytest.raises(dv.ValidationError, match="design matrix is not symmetric"):
            dv.DesignMatrix(dmat.layout, d)
        d[0, 1] = dmat.d[0, 1] + 5e-11 * np.abs(dmat.d).max()
        assert_array_equal(dv.DesignMatrix(dmat.layout, d).d, d)

    @pytest.mark.parametrize("spec, arms, pair", [
        ({"type": "paired", "k": 2, "pairs": [[0, 1], [2, 3]]}, [0, 0, 1, 1], (0, 0, 1, 0)),
        ({"type": "cluster", "k": 2, "clusters": [[0, 1], [2, 3]],
          "cluster_design": {"type": "complete", "counts": [1, 1]}}, [0, 1, 1, 0], (0, 0, 1, 1)),
    ], ids=["paired", "cluster"])
    def test_impossible_assignment_names_a_pair(self, spec, arms, pair):
        design = dv.build_design(spec)
        _, mask = dv.first_order_design_matrix(design)
        pair = "unit {} to arm {} together with unit {} to arm {}".format(*pair)
        with pytest.raises(dv.ValidationError, match=pair):
            mask.check_possible(dv.Assignment(design.layout, np.array(arms)))
        for possible in design.support.arms:
            mask.check_possible(dv.Assignment(design.layout, possible))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_design_matrix_invariants(seed):
    design = random_small_design(np.random.default_rng(seed))
    pi = dv.inclusion_probabilities(design)
    dmat, mask = dv.first_order_design_matrix(design)
    # exact symmetry, entries bounded below by -1
    assert np.max(np.abs(dmat.d - dmat.d.T)) == 0.0
    assert dmat.d.min() >= -1.0
    # diagonal is 1/pi - 1
    assert_allclose(np.diag(dmat.d), 1.0 / pi.probs - 1.0, atol=1e-12, rtol=0)
    # PSD within tolerance (it is a covariance matrix)
    vals = np.linalg.eigvalsh(dmat.d)
    assert vals[0] >= -1e-8 * max(1.0, abs(vals[-1]))
    # masked entries are exactly -1 and correspond to p = 0
    p = dv.joint_probabilities(design)
    assert_array_equal(mask.mask, (p.p == 0.0).astype(float))
    assert np.all(dmat.d[mask.mask == 1.0] == -1.0)
    # per-unit pi sums to one
    sums = pi.probs.reshape(design.layout.k, design.layout.n).sum(axis=0)
    assert_allclose(sums, 1.0, atol=1e-12, rtol=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_design_matrix_matches_enumeration_covariance(seed):
    design = random_small_design(np.random.default_rng(seed))
    dmat, _ = dv.first_order_design_matrix(design)
    assert_allclose(dmat.d, enumeration_design_matrix(design), atol=1e-10, rtol=0)


class TestMonteCarloMoments:
    def test_sampler_only_design_estimates_moments(self):
        layout = dv.IndexLayout(2, 2)

        def sampler(rng):
            return rng.integers(0, 2, size=2)

        d = dv.custom_design(layout, sampler=sampler, mc_replicates=20000, seed=42)
        pi = dv.inclusion_probabilities(d)
        assert pi.estimated
        assert pi.se is not None
        assert_allclose(pi.probs, 0.5, atol=4 * pi.se.max())
        dmat, _ = dv.first_order_design_matrix(d)
        assert dmat.estimated

    def test_seed_required(self):
        layout = dv.IndexLayout(2, 2)
        d = dv.custom_design(layout, sampler=lambda rng: rng.integers(0, 2, size=2))
        with pytest.raises(dv.ValidationError):
            dv.inclusion_probabilities(d)

    @pytest.mark.parametrize("seed, reps", [(-1, 10), (1, 0)])
    def test_estimation_settings_are_validated(self, seed, reps):
        with pytest.raises(dv.ValidationError, match="seed|mc_replicates"):
            dv.custom_design(dv.IndexLayout(2, 2), sampler=lambda rng: rng.integers(0, 2, size=2),
                             seed=seed, mc_replicates=reps)

    def test_moments_deterministic_for_fixed_seed(self):
        layout = dv.IndexLayout(2, 2)

        def sampler(rng):
            return rng.integers(0, 2, size=2)

        d1 = dv.custom_design(layout, sampler=sampler, mc_replicates=500, seed=7)
        d2 = dv.custom_design(layout, sampler=sampler, mc_replicates=500, seed=7)
        assert_array_equal(
            dv.inclusion_probabilities(d1).probs, dv.inclusion_probabilities(d2).probs
        )

    @staticmethod
    def _assert_moments_equal(design, expected):
        pi, p = dv.inclusion_probabilities(design), dv.joint_probabilities(design)
        for got, want in zip((pi.probs, p.p, pi.se, p.se), expected):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [7, 42])
    def test_moments_equal_counted_draws(self, seed):
        layout = dv.IndexLayout(3, 2)

        def sampler(rng):
            return rng.choice(3, size=2, p=[0.2, 0.3, 0.5])

        d = dv.custom_design(layout, sampler=sampler, mc_replicates=500, seed=seed)
        self._assert_moments_equal(d, empirical_moments(sampler, layout, seed, 500))

    def test_composite_moments_through_a_sampler_only_custom_design(self):
        def first(rng):
            return rng.integers(0, 2, size=2)

        def second(rng):
            return rng.permutation([0, 1, 1])

        parts = [([0, 1], dv.custom_design(dv.IndexLayout(2, 2), sampler=first)),
                 ([2, 3, 4], dv.custom_design(dv.IndexLayout(2, 3), sampler=second))]
        block = dv.block_design(parts)
        with pytest.raises(dv.ValidationError, match=r"custom_design\(d.layout, sampler=d.draw"):
            dv.inclusion_probabilities(block)
        wrapped = dv.custom_design(block.layout, sampler=block.draw, mc_replicates=300, seed=5)
        expected = empirical_moments(
            lambda rng: np.concatenate([first(rng), second(rng)]), block.layout, 5, 300
        )
        self._assert_moments_equal(wrapped, expected)

    def test_spec_moment_fields_are_ignored(self):
        spec = {"type": "bernoulli", "n": 4, "p": "1/3", "mode": "mc"}
        plain = dv.build_design(spec)
        carried = dv.build_design({**spec, "seed": 3, "mc_replicates": 10})
        assert (dv.inclusion_probabilities(carried).frac.values
                == dv.inclusion_probabilities(plain).frac.values)
        assert_array_equal(carried.p_frac.codes, plain.p_frac.codes)
        assert_array_equal(carried.draw(np.random.default_rng(1)),
                           plain.draw(np.random.default_rng(1)))


class TestSupportDraws:
    def test_draws_match_the_per_draw_probability_vector(self):
        rng = np.random.default_rng(3)
        n = 6
        codes = rng.choice(2**n, size=40, replace=False)
        weights = rng.integers(1, 1000, size=40)
        support = [([(int(c) >> i) & 1 for i in range(n)], Fraction(int(w), int(weights.sum())))
                   for c, w in zip(codes, weights)]
        design = dv.custom_design(dv.IndexLayout(2, n), support)
        for seed in (0, 1, 7, 2024):
            for rep in range(25):
                probs = np.array([float(p) for p in design.support.probs])
                old = np.random.default_rng((seed, rep)).choice(len(support), p=probs / probs.sum())
                drawn = design.draw(np.random.default_rng((seed, rep)))
                assert_array_equal(drawn, design.support.arms[old])
        drawn[:] = 1 - drawn  # a draw is a copy, not a view of the support
        assert_array_equal(design.draw(np.random.default_rng((2024, 24))), design.support.arms[old])


    def test_a_support_and_a_sampler_together_are_rejected(self):
        # the sampler would draw [0, 0], a point p marks as impossible
        with pytest.raises(dv.InfeasibleSpecError, match="not both"):
            dv.custom_design(dv.IndexLayout(2, 2), [([0, 1], "1/2"), ([1, 0], "1/2")],
                             sampler=lambda rng: np.array([0, 0]))


class _FixedUniform:
    """A generator stub whose ``random(size)`` returns ``size`` copies of u."""

    def __init__(self, u: float):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


# ten arms whose float cumulative sum ends at 0.9999999999999998
_ROW_SUMMING_BELOW_1 = [
    0.047464260442374985, 0.007208575931028201, 0.0029077488149003537, 0.14308069476401247,
    0.16058340248014816, 0.10672696980873944, 0.12834217919518004, 0.09564132279872932,
    0.16450966185825994, 0.14353518390662706,
]


class TestBernoulliSampler:
    def test_u_zero_skips_a_leading_arm_of_probability_zero(self):
        design = dv.bernoulli_design([0, 0.5, 0.5], n=2)
        assert_array_equal(design.draw(_FixedUniform(0.0)), [1, 1])

    def test_u_below_1_draws_the_last_arm_when_the_row_sums_below_1(self):
        assert np.cumsum(_ROW_SUMMING_BELOW_1)[-1] < 1.0
        design = dv.bernoulli_design(_ROW_SUMMING_BELOW_1, n=1)
        assert_array_equal(design.draw(_FixedUniform(1 - 2**-53)), [9])

    def test_u_below_1_draws_the_last_arm_of_positive_probability(self):
        design = dv.bernoulli_design(_ROW_SUMMING_BELOW_1 + [0], n=1)
        assert_array_equal(design.draw(_FixedUniform(1 - 2**-53)), [9])


class TestCompositionAgainstEnumeration:
    def test_block_moments_match_enumerated_product(self):
        b1 = dv.complete_design([1, 1])
        b2 = dv.bernoulli_design([[0.3, 0.7], [0.6, 0.4]])
        block = dv.block_design([([0, 2], b1), ([1, 3], b2)])
        # rebuild as a custom design from the enumerated support
        layout = block.layout
        support = list(zip(block.support.arms, block.support.probs))
        custom = dv.custom_design(layout, support)
        assert_array_equal(
            dv.joint_probabilities(block).p, dv.joint_probabilities(custom).p
        )

    @pytest.mark.parametrize("parts", [
        # 1/4 is a cross-unit joint, not a marginal, of the first part and a
        # marginal of the second
        [([0, 1], {"type": "bernoulli", "n": 2, "p": "1/2"}),
         ([2, 3, 4, 5], {"type": "complete", "counts": [1, 3]})],
        # distinct float rows: a part codebook of 1,891 values, 60 of them marginals
        [(list(range(30)), {"type": "bernoulli", "probs": [
            [1 - x, x] for x in np.random.default_rng(0).random(30).tolist()]}),
         ([30, 31], {"type": "complete", "counts": [1, 1]})],
    ])
    def test_block_codes_match_whole_codebook_marginals(self, parts):
        # codebook order is unspecified: every entry's value and float is
        # compared with the dense construction's over the parts' whole codebooks
        spec = {"type": "block", "blocks": [{"units": units, **sub} for units, sub in parts]}
        block = dv.build_design(spec)
        assert_same_exact(block.p_frac, dense_p(spec)[1])

    def test_cluster_moments_match_enumerated_support(self):
        level = dv.complete_design([1, 1])
        cd = dv.cluster_design([[0, 2], [1, 3]], level)
        custom = dv.custom_design(cd.layout, list(zip(cd.support.arms, cd.support.probs)))
        assert_array_equal(
            dv.joint_probabilities(cd).p, dv.joint_probabilities(custom).p
        )

    def test_assignment_roundtrip(self):
        layout = dv.IndexLayout(3, 2)
        a = dv.Assignment(layout, [2, 0])
        ind = a.indicators()
        back = dv.Assignment.from_indicators(layout, ind)
        assert_array_equal(back.arms, a.arms)


L22 = dv.IndexLayout(2, 2)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: designs.elementwise(lambda a: a * 0.5, designs.ExactMatrix.of([1, 2])),
     TypeError, "exact formulas combine only with integers and bools, not 0.5"),
    (lambda: designs.elementwise(lambda a: a if a else -a, designs.ExactMatrix.of([1, 2])),
     TypeError, "an exact formula must be a branch-free array expression"),
    (lambda: dv.IndexLayout(2, 0), dv.InfeasibleSpecError, "unit count n must be >= 1, got 0"),
    (lambda: L22.check_matrix(np.zeros((3, 3)), "mask"), dv.LayoutMismatchError,
     "mask must have shape (4, 4) for k=2, n=2; got (3, 3)"),
    (lambda: dv.Assignment.from_indicators(L22, [1.0, 0.5, 0.0, 0.5]), dv.ValidationError,
     "indicators must be 0/1"),
    (lambda: dv.Assignment.from_indicators(L22, [1.0, 1.0, 1.0, 0.0]), dv.ValidationError,
     "each unit must be assigned to exactly one arm"),
    (lambda: dv.PiDiagonal(L22, np.array([0.5, 0.5, 0.4, 0.5])), dv.ValidationError,
     "per-unit inclusion probabilities must sum to 1 across arms"),
    (lambda: dv.PiDiagonal(L22, np.array([0.5, np.nan, 0.5, 0.5])), dv.NonIdentifiedDesignError,
     "inclusion probability at flat index 1 (arm 0, unit 1) is nan, outside (0, 1)"),
    (lambda: dv.JointProbMatrix(dv.IndexLayout(2, 1), np.array([[0.5, 0.1], [0.0, 0.5]])),
     dv.ValidationError, "joint probability matrix must be exactly symmetric"),
    (lambda: dv.JointProbMatrix(dv.IndexLayout(2, 1), np.array([[0.5, 1.5], [1.5, 0.5]])),
     dv.ValidationError, "joint probabilities must lie in [0, 1]"),
    (lambda: dv.block_design([([0, 1, 2], dv.complete_design([1, 1]))]), dv.InfeasibleSpecError,
     "block lists 3 units but its design has n=2"),
], ids=["lift-float", "formula-truth-value", "no-units", "matrix-shape", "indicators-0-1",
        "one-arm-per-unit", "pi-unit-sums", "pi-nan", "p-asymmetric", "p-range", "block-unit-count"])
def test_rejections(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
