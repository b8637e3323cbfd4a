"""Exact values of d, the Aronow-Samii bound and the IPW matrix, entry by entry.

The reference values come from oracles.exact_moments, which sums the
support directly, so every exact entry the library reports is checked
for equality (not closeness) and its float for being the rounded value.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import designvar as dv
from designvar import serialization as ser
from oracles import exact_moments, random_small_design


def reference_values(design):
    """d, Aronow-Samii dtilde and dtilde/p (0/0 -> 0) as Fraction matrices."""
    pi, p = exact_moments(design)
    kn = design.layout.kn
    d = [[p[a][b] / (pi[a] * pi[b]) - 1 for b in range(kn)] for a in range(kn)]
    masked = [[int(p[a][b] == 0) for b in range(kn)] for a in range(kn)]
    dt = [
        [d[a][b] + masked[a][b] + (sum(masked[a]) if a == b else 0) for b in range(kn)]
        for a in range(kn)
    ]
    ipw = [
        [dt[a][b] / p[a][b] if p[a][b] != 0 else Fraction(0) for b in range(kn)]
        for a in range(kn)
    ]
    return d, dt, ipw


def assert_exact(design, twin=None):
    """Entries of ``design`` equal the reference computed on ``twin``'s support."""
    d_ref, dt_ref, ipw_ref = reference_values(twin or design)
    dmat, mask = dv.first_order_design_matrix(design)
    bound = dv.aronow_samii_bound(dmat, mask)
    ipw = dv.ipw_bound_matrix(bound, dv.joint_probabilities(design))
    kn = design.layout.kn
    for exact, floats, ref in (
        (dmat.frac, dmat.d, d_ref),
        (bound.frac, bound.dtilde, dt_ref),
        (ipw.frac, ipw.matrix, ipw_ref),
    ):
        assert exact is not None
        for a in range(kn):
            for b in range(kn):
                assert exact[a][b] == ref[a][b], (a, b)
                assert floats[a, b] == float(ref[a][b]), (a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_random_designs_match_exact_oracle(seed):
    design = random_small_design(np.random.default_rng(seed))
    assert_exact(design)


def test_bernoulli_float_rows_carry_an_exact_measure():
    # 0.1 + 0.9 and 0.3 + 0.7 are not exactly 1 in binary
    design = dv.bernoulli_design([[0.1, 0.9], [0.3, 0.7]])
    assert sum(prob for _, prob in zip(design.support.arms, design.support.probs)) == 1
    pi, _ = exact_moments(design)
    assert [design.pi_frac[a] for a in range(design.layout.kn)] == pi
    assert_exact(design)


def test_custom_rational_design_matches_exact_oracle():
    layout = dv.IndexLayout(3, 3)
    support = [
        ([0, 1, 2], "1/6"),
        ([1, 1, 0], "1/3"),
        ([2, 0, 1], "1/7"),
        ([0, 2, 2], "5/14"),
    ]
    assert_exact(dv.custom_design(layout, support))


MC_SPECS = {
    "bernoulli": {"type": "bernoulli", "n": 3, "p": "1/3"},
    "complete": {"type": "complete", "counts": [2, 1, 1]},
    "paired": {"type": "paired", "k": 2, "pairs": [[0, 3], [1, 2]]},
    "block": {
        "type": "block",
        "k": 2,
        "blocks": [
            {"units": [0, 2], "type": "complete", "counts": [1, 1]},
            {"units": [1, 3, 4], "type": "bernoulli", "p": "1/4"},
        ],
    },
    "cluster": {
        "type": "cluster",
        "k": 2,
        "clusters": [[0, 1], [2], [3, 4]],
        "cluster_design": {"type": "complete", "counts": [1, 2]},
    },
}


@pytest.mark.parametrize("family", sorted(MC_SPECS))
def test_mc_builds_match_their_exact_twins(family):
    spec = MC_SPECS[family]
    sampled = dv.build_design({**spec, "mode": "mc", "seed": 0})
    assert sampled.support is None
    assert_exact(sampled, twin=dv.build_design(spec))


def test_float_inputs_follow_the_numpy_expressions(tmp_path):
    """Matrices read from CSV carry no exact values and keep the float formulas."""
    design = dv.complete_design([2, 1, 1])
    dmat, mask = dv.first_order_design_matrix(design)
    p = dv.joint_probabilities(design)
    for name, matrix in (("d", dmat.d), ("mask", mask.mask.astype(int)), ("p", p.p)):
        ser.write_matrix_csv(tmp_path / f"{name}.csv", matrix)
    layout = design.layout
    d = ser.read_matrix_csv(tmp_path / "d.csv")
    m = ser.read_matrix_csv(tmp_path / "mask.csv")
    pp = ser.read_matrix_csv(tmp_path / "p.csv")

    bound = dv.aronow_samii_bound(dv.DesignMatrix(layout, d), dv.ImpossibilityMask(layout, m))
    assert bound.frac is None
    expected_dt = d + m + np.diag(m.sum(axis=1))
    assert bound.dtilde.tobytes() == expected_dt.tobytes()

    ipw = dv.ipw_bound_matrix(bound, dv.JointProbMatrix(layout, pp))
    assert ipw.frac is None
    zero_p = pp == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        expected_ipw = np.where(zero_p, 0.0, expected_dt / np.where(zero_p, 1.0, pp))
    assert ipw.matrix.tobytes() == expected_ipw.tobytes()
