import tracemalloc

import numpy as np
import pytest

import designvar as dv

# Reference matrices for the four-unit, two-arm worked examples
# (pairs {0,1} and {2,3}; arm 0 stacked before arm 1).

D_PAIRED = np.array(
    [
        [1, -1, 0, 0, -1, 1, 0, 0],
        [-1, 1, 0, 0, 1, -1, 0, 0],
        [0, 0, 1, -1, 0, 0, -1, 1],
        [0, 0, -1, 1, 0, 0, 1, -1],
        [-1, 1, 0, 0, 1, -1, 0, 0],
        [1, -1, 0, 0, -1, 1, 0, 0],
        [0, 0, -1, 1, 0, 0, 1, -1],
        [0, 0, 1, -1, 0, 0, -1, 1],
    ],
    dtype=float,
)

_t = 1.0 / 3.0
D_COMPLETE = np.array(
    [
        [1, -_t, -_t, -_t, -1, _t, _t, _t],
        [-_t, 1, -_t, -_t, _t, -1, _t, _t],
        [-_t, -_t, 1, -_t, _t, _t, -1, _t],
        [-_t, -_t, -_t, 1, _t, _t, _t, -1],
        [-1, _t, _t, _t, 1, -_t, -_t, -_t],
        [_t, -1, _t, _t, -_t, 1, -_t, -_t],
        [_t, _t, -1, _t, -_t, -_t, 1, -_t],
        [_t, _t, _t, -1, -_t, -_t, -_t, 1],
    ]
)

DT_AS_PAIRED = np.array(
    [
        [3, 0, 0, 0, 0, 1, 0, 0],
        [0, 3, 0, 0, 1, 0, 0, 0],
        [0, 0, 3, 0, 0, 0, 0, 1],
        [0, 0, 0, 3, 0, 0, 1, 0],
        [0, 1, 0, 0, 3, 0, 0, 0],
        [1, 0, 0, 0, 0, 3, 0, 0],
        [0, 0, 0, 1, 0, 0, 3, 0],
        [0, 0, 1, 0, 0, 0, 0, 3],
    ],
    dtype=float,
)

DT_M_PAIRED = np.array(
    [
        [2, 0, 0, 0, 0, 2, 0, 0],
        [0, 2, 0, 0, 2, 0, 0, 0],
        [0, 0, 2, 0, 0, 0, 0, 2],
        [0, 0, 0, 2, 0, 0, 2, 0],
        [0, 2, 0, 0, 2, 0, 0, 0],
        [2, 0, 0, 0, 0, 2, 0, 0],
        [0, 0, 0, 2, 0, 0, 2, 0],
        [0, 0, 2, 0, 0, 0, 0, 2],
    ],
    dtype=float,
)

DT_INVAR_PAIRED = np.array(
    [
        [2, 0, -1, -1, 0, 2, -1, -1],
        [0, 2, -1, -1, 2, 0, -1, -1],
        [-1, -1, 2, 0, -1, -1, 0, 2],
        [-1, -1, 0, 2, -1, -1, 2, 0],
        [0, 2, -1, -1, 2, 0, -1, -1],
        [2, 0, -1, -1, 0, 2, -1, -1],
        [-1, -1, 0, 2, -1, -1, 2, 0],
        [-1, -1, 2, 0, -1, -1, 0, 2],
    ],
    dtype=float,
)

def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn(*args)`` runs
    (numpy reports its array buffers to it), above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# Within-pair-constant, arm-antisymmetric direction attached to the
# leading eigenvalue of D_COMPLETE - D_PAIRED.
PAIR_HOMOGENEOUS_PATTERN = np.array([-1, -1, 1, 1, 1, 1, -1, -1]) / np.sqrt(8.0)

# Default specs of 30 units, one per composable family.  Their supports hold
# 155,117,520 (complete), 32,768 (paired), 2**30 (bernoulli), 252 (cluster)
# and 210,862,080 (block) points.
SPECS_N30 = {
    "complete": {"type": "complete", "counts": [15, 15]},
    "paired": {"type": "paired", "k": 2, "pairs": [[2 * i, 2 * i + 1] for i in range(15)]},
    "bernoulli": {"type": "bernoulli", "n": 30, "p": "1/3"},
    "cluster": {"type": "cluster", "k": 2,
                "clusters": [[3 * g, 3 * g + 1, 3 * g + 2] for g in range(10)],
                "cluster_design": {"type": "complete", "counts": [5, 5]}},
    "block": {"type": "block", "k": 2,
              "blocks": [{"units": list(range(15)), "type": "complete", "counts": [7, 8]},
                         {"units": list(range(15, 30)), "type": "bernoulli", "p": "1/2"}]},
}
SUPPORT_SIZES_N30 = {"complete": 155117520, "paired": 2**15, "bernoulli": 2**30,
                     "cluster": 252, "block": 210862080}


@pytest.fixture(scope="session")
def paired4():
    return dv.paired_design([(0, 1), (2, 3)])


@pytest.fixture(scope="session")
def complete42():
    return dv.complete_design([2, 2])


@pytest.fixture(scope="session")
def paired4_matrices(paired4):
    return dv.first_order_design_matrix(paired4)


@pytest.fixture(scope="session")
def complete42_matrices(complete42):
    return dv.first_order_design_matrix(complete42)
