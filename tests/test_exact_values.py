"""Exact values of d, the Aronow-Samii bound and the IPW matrix, entry by entry.

The reference values come from oracles.exact_moments, which sums the
support directly, so every exact entry the library reports is checked
for equality (not closeness) and its float for being the rounded value.
The exact kernel, ``elementwise``, is checked against a per-entry
Fraction evaluation of every formula the library passes to it, and on
parts around 2**53, 2**62 and 2**63, where it switches between int64 and
Python ints.
"""

import ast
import functools
import inspect
import math
import operator
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import designvar as dv
from designvar import bound_estimation, bounds, designs, serialization as ser
from designvar.designs import ExactMatrix, elementwise
from oracles import (assert_same_exact, dense_p, exact_moments, grouped_reference,
                     random_small_design)


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
    assert [dv.inclusion_probabilities(design).frac[a] for a in range(design.layout.kn)] == pi
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
    twin = dv.build_design(spec)
    # neither field is read: the support is enumerated on first read, as the twin's
    assert np.array_equal(sampled.support.arms, twin.support.arms)
    assert_exact(sampled, twin=twin)


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


# ---------------------------------------------------------------------------
# the exact kernel against a per-entry Fraction evaluation

FORMULA_MODULES = (designs, bounds, bound_estimation)


def _formula_key(fn):
    """A lambda by where it is written (each call makes a new one), anything else as itself."""
    code = getattr(fn, "__code__", None)
    return fn if code is None else (code.co_filename, code.co_firstlineno)


def _formulas_in_source() -> set:
    """Keys of the first argument of every ``elementwise`` call in the library source."""
    keys = set()
    for module in FORMULA_MODULES:
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "elementwise":
                fn = node.args[0]
                keys.add((module.__file__, fn.lineno) if isinstance(fn, ast.Lambda)
                         else eval(ast.unparse(fn), vars(module)))
    return keys


@functools.lru_cache(maxsize=None)
def _library_formulas() -> dict:
    """Each formula the library passes to ``elementwise``, with its operand count,
    caught while exact designs run through the whole pipeline."""
    seen = {}

    def spy(fn, *operands):
        seen.setdefault(_formula_key(fn), (fn, len(operands)))
        return elementwise(fn, *operands)

    with pytest.MonkeyPatch.context() as patch:
        for module in FORMULA_MODULES:
            patch.setattr(module, "elementwise", spy)
        for design in (dv.complete_design([2, 2]), dv.bernoulli_design("1/3", n=2)):
            dmat, _ = dv.first_order_design_matrix(design)
            p = dv.joint_probabilities(design)
            dv.ipw_bound_matrix(dv.aronow_samii_bound(dmat), p)
            dv.neyman_bound(dmat, np.array([-1.0, 1.0]))
    return seen


def test_every_library_formula_is_caught():
    assert set(_library_formulas()) == _formulas_in_source()


# zero, negatives, and numerators and denominators above 2**63
RATIONALS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2**64 + 1, 3)]),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)


def _operand(data, shape):
    values = data.draw(st.lists(RATIONALS, min_size=1, max_size=4, unique=True))
    codes = data.draw(st.lists(st.integers(0, len(values) - 1),
                               min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return values, np.array(codes).reshape(shape)


def _reference(fn, operands):
    """``elementwise`` written out on Fractions: ``fn`` once per distinct tuple of
    operand codes, in lexicographic order, its distinct results numbered in the
    order they first appear."""
    shape = np.broadcast_shapes(*(codes.shape for _, codes in operands))
    entries = list(zip(*(np.broadcast_to(codes, shape).ravel().tolist() for _, codes in operands)))
    results = {t: Fraction(fn(*(values[c] for (values, _), c in zip(operands, t))))
               for t in sorted(set(entries))}
    book = list(dict.fromkeys(results.values()))
    codes = np.array([book.index(results[t]) for t in entries]).reshape(shape)
    return codes, book, np.array([float(results[t]) for t in entries]).reshape(shape)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_elementwise_matches_per_entry_fractions(data):
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    for fn, arity in _library_formulas().values():
        operands = [_operand(data, data.draw(st.sampled_from([(rows, cols), (rows, 1), (1, cols)])))
                    for _ in range(arity)]
        exact = [ExactMatrix.of([v.numerator for v in values], codes,
                                [v.denominator for v in values]) for values, codes in operands]
        try:
            codes, book, floats = _reference(fn, operands)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                elementwise(fn, *exact)
            continue
        got_floats, got = elementwise(fn, *exact)
        assert np.array_equal(got.codes, codes)
        assert list(zip(got.book.num.tolist(), got.book.den.tolist())) == [
            (v.numerator, v.denominator) for v in book]
        assert list(got.values) == book
        assert got_floats.tobytes() == floats.tobytes()


@pytest.mark.parametrize("table", [True, False], ids=["key-table", "key-sort"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_elementwise_grouping_on_both_sides_of_the_key_space_threshold(table, data):
    """A key space (the product of the operand codebook sizes) no larger than
    the entry count is ranked through a table, a larger one by sorting; both
    give the grouping np.unique gives, and every entry is its Fraction value."""
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    for fn, arity in _library_formulas().values():
        shapes = [data.draw(st.sampled_from([(rows, cols), (rows, 1), (1, cols)]))
                  for _ in range(arity)]
        entries = math.prod(np.broadcast_shapes(*shapes))
        sizes = []  # codebook sizes, unused values included, on the chosen side
        for i in range(arity):
            if table:
                sizes.append(data.draw(st.integers(1, entries // math.prod(sizes))))
            else:
                least = 1 if i < arity - 1 else entries // math.prod(sizes) + 1
                sizes.append(data.draw(st.integers(least, least + 6)))
        assert (math.prod(sizes) <= entries) == table
        operands = []
        for shape, size in zip(shapes, sizes):
            values = data.draw(st.lists(RATIONALS, min_size=size, max_size=size, unique=True))
            codes = data.draw(arrays(np.intp, shape, elements=st.integers(0, size - 1)))
            operands.append(ExactMatrix.of([v.numerator for v in values], codes,
                                           [v.denominator for v in values]))
        try:
            codes, book = grouped_reference(fn, operands)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                designs.elementwise(fn, *operands)
            continue
        floats, got = designs.elementwise(fn, *operands)
        assert np.array_equal(got.codes, codes)
        assert list(zip(got.book.num.tolist(), got.book.den.tolist())) == book
        for a, b in np.ndindex(got.codes.shape):  # a size-1 axis broadcasts
            want = Fraction(fn(*(op[a % op.codes.shape[0], b % op.codes.shape[1]]
                                 for op in operands)))
            assert got[a, b] == want and floats[a, b] == float(want)


def test_the_key_is_renumbered_before_its_radix_overflows(monkeypatch):
    """Four operands of 65,536 distinct values each: three take the key's
    radix to 2**48 and the fourth would take it to 2**64, so the key is
    renumbered densely first.  Every entry is its Python-int value, and
    every float is that value's correctly rounded float, bit for bit."""
    size, rng = 2**16, np.random.default_rng(11)
    values = [3 * np.arange(size) - 40_000, np.arange(size) ** 2 + 1, 7 * np.arange(size),
              np.arange(size)]
    operands = [ExactMatrix.of(v, rng.permutation(size)) for v in values]
    renumbered, unique = [], np.unique

    def spy(keys, **kwargs):
        renumbered.append("return_index" not in kwargs)
        return unique(keys, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    floats, got = elementwise(lambda a, b, c, d: (a * b - c) / (d + 1), *operands)
    assert renumbered == [True, False]  # the renumbering, then the sort of distinct keys
    parts = [op.book.num[op.codes].tolist() for op in operands]
    want = [Fraction(a * b - c, d + 1) for a, b, c, d in zip(*parts)]
    assert list(zip(got.book.num[got.codes].tolist(), got.book.den[got.codes].tolist())) == [
        (w.numerator, w.denominator) for w in want]
    assert floats.tobytes() == np.array([float(w) for w in want]).tobytes()


# ---------------------------------------------------------------------------
# int64 and Python-int parts: a codebook keeps int64 parts below 2**53, and a
# formula runs in int64 while its bit bound is at most 62


def _of_reference(values):
    """``ExactMatrix.of`` written out on Fractions: codes numbered in first-seen
    order, the codebook as Fractions, and each entry's float."""
    book = list(dict.fromkeys(values))
    return [book.index(v) for v in values], book, np.array([float(v) for v in values])


def _assert_of_matches(values, got):
    codes, book, floats = _of_reference(values)
    assert got.codes.tolist() == codes
    assert list(got.values) == book
    assert [got[i] for i in range(len(values))] == values
    assert got.to_float().tobytes() == floats.tobytes()


# parts just below and at 2**53, 2**62 and 2**63; 2**54 + 1 over this denominator
# divides to 1.7534649021191415 in float64 but rounds to ...417
EDGE_RATIONALS = [
    Fraction(2**54 + 1, 10273600850356782), Fraction(2**53 - 1, 3), Fraction(2**53 + 1, 3),
    Fraction(-(2**53 - 1), 2**52 + 1), Fraction(-(2**53 + 1), 2**52 + 1), Fraction(1, 2**53 - 1),
    Fraction(1, 2**53 + 1), Fraction(2**62 - 1, 5), Fraction(2**63 - 1, 2**62 + 1),
    Fraction(-(2**63), 7), Fraction(2**63 + 1, 3), Fraction(2**64 + 1, 3), Fraction(0),
]


def test_codebook_parts_are_int64_exactly_below_2_53():
    exact = ExactMatrix.of([v.numerator for v in EDGE_RATIONALS],
                           den=[v.denominator for v in EDGE_RATIONALS])
    _assert_of_matches(EDGE_RATIONALS, exact)
    assert exact.to_float()[0] == 1.7534649021191417
    for value in EDGE_RATIONALS:
        book = ExactMatrix.of([value.numerator], den=[value.denominator]).book
        assert book.floats.tobytes() == np.array([float(value)]).tobytes(), value
        small = max(abs(value.numerator), value.denominator) < 2**53
        assert book.num.dtype == book.den.dtype == (np.int64 if small else object), value
        assert book.bits == (abs(value.numerator).bit_length(), value.denominator.bit_length())


def test_of_reads_integer_arrays_and_mixed_lists_exactly():
    # numpy reads this list as floats, and an int64 array up to 2**63 - 1 as it is
    values = [Fraction(2**63, 3), Fraction(-1, 2)]
    _assert_of_matches(values, ExactMatrix.of([2**63, -1], den=[3, 2]))
    parts = np.array([2**63 - 1, -(2**63), 6, 9], dtype=np.int64)
    values = [Fraction(int(x), 6) for x in parts]
    _assert_of_matches(values, ExactMatrix.of(parts, den=6))
    # a long int64 array is deduplicated by sorting, in first-seen order
    parts = np.random.default_rng(0).integers(-40, 40, size=600)
    _assert_of_matches([Fraction(int(x), 12) for x in parts], ExactMatrix.of(parts, den=12))


def _edge(*values):
    return ExactMatrix.of([v.numerator for v in values], den=[v.denominator for v in values])


# (formula, left values, right values): each right below 2**62 or 2**63 where the
# bit bound stays at 62 or less (int64), and crossing them where it does not
CROSSINGS = [
    (operator.mul, [Fraction(2**31 - 1)], [Fraction(2**31 - 1), Fraction(-(2**31 - 1))]),
    (operator.mul, [Fraction(3 * 2**30 + 1)], [Fraction(3 * 2**30 + 1), Fraction(-(3 * 2**30 + 3))]),
    (operator.mul, [Fraction(2**27 + 1, 2**20 + 1)], [Fraction(2**27 + 1, 2**20 + 3)]),
    (operator.mul, [Fraction(2**54 + 1, 10273600850356782)], [Fraction(1), Fraction(-1)]),
    (operator.add, [Fraction(2**60 - 1)], [Fraction(2**60 - 3), Fraction(1, 3)]),
    (operator.add, [Fraction(2**62 + 1)], [Fraction(2**62 + 3), Fraction(-(2**62 + 5))]),
    (operator.sub, [Fraction(-(2**62 + 1))], [Fraction(2**62 + 3), Fraction(5, 2**40 + 1)]),
    (operator.add, [Fraction(2**31 - 1, 2**31 - 3)], [Fraction(2**31 - 5, 2**31 - 7)]),
    (operator.truediv, [Fraction(2**31 + 11, 2**31 - 1)], [Fraction(-(2**32 + 1), 2**31 + 1)]),
    (operator.eq, [Fraction(2**62 + 1, 3)], [Fraction(2**62 + 1, 3), Fraction(2**62 + 2, 3)]),
    (operator.ne, [Fraction(3 * 2**30 + 1, 3 * 2**30 - 1)], [Fraction(3 * 2**30 + 1, 3 * 2**30 - 1)]),
    (lambda pab, pa: pab / (pa * pa) - 1, [Fraction(2**21 + 1, 2**21 + 3)],
     [Fraction(2**21 - 1, 2**21 + 5), Fraction(3 * 2**20 + 1, 2**22 + 1)]),
    (lambda t, pab: t / (pab + (pab == 0)), [Fraction(2**40 + 1, 2**21 + 1)],
     [Fraction(0), Fraction(2**21 + 1, 2**40 + 3)]),
    # an integer array holding -2**63, whose negation int64 cannot hold
    (lambda x, y: x - y - np.array(-2**63), [Fraction(1, 3)], [Fraction(2**61), Fraction(-5, 7)]),
]


@pytest.mark.parametrize("fn, left, right", CROSSINGS)
def test_formulas_crossing_2_62_and_2_63(fn, left, right):
    operands = [(left, np.zeros((1, 1), dtype=int)),
                (right, np.arange(len(right)).reshape(1, -1))]
    codes, book, floats = _reference(fn, operands)
    got_floats, got = elementwise(fn, _edge(*left)[None, :1], _edge(*right)[None, :])
    assert np.array_equal(got.codes, codes)
    assert list(got.values) == book
    assert got_floats.tobytes() == floats.tobytes()


@pytest.mark.parametrize("bits, dtype", [(31, np.int64), (32, object)])
def test_a_product_runs_in_int64_while_its_bound_is_at_most_62(bits, dtype):
    x = designs._Rationals(np.array([2**bits - 1]), np.array([1]), (bits, 1))
    product = x * x
    assert product.bits == (2 * bits, 2) and product.num.dtype == dtype
    assert product.num.tolist() == [(2**bits - 1) ** 2]


def test_complete_design_with_one_unit():
    """n = 1 builds (its p formula has no zero divisor); its lone unit is never
    in arm 1, which is reported when its probabilities are asked for."""
    design = dv.complete_design([1, 0])
    assert [[design.p_frac[a, b] for b in range(2)] for a in range(2)] == [[1, 0], [0, 0]]
    message = ("non-identified design: inclusion probability at flat index 0 "
               "(arm 0, unit 0) is 1.0, outside (0, 1)")
    with pytest.raises(dv.NonIdentifiedDesignError, match=f"^{re.escape(message)}$"):
        dv.inclusion_probabilities(design)


def test_scalar_index_makes_one_fraction():
    dmat, _ = dv.first_order_design_matrix(dv.complete_design([2, 3]))
    book = dmat.frac.book
    assert dmat.frac[0, 1] == Fraction(-3, 8)
    assert dmat.frac[0][1] == Fraction(-3, 8)
    assert "fractions" not in vars(book)  # the codebook's Fractions are still unmade
    assert dmat.frac.values[dmat.frac.codes[0, 1]] == Fraction(-3, 8)
    assert "fractions" in vars(book)


def _composition(data, total, parts):
    """``total`` split into ``parts`` positive sizes."""
    cuts = sorted(data.draw(st.lists(st.integers(1, total - 1), min_size=parts - 1,
                                     max_size=parts - 1, unique=True)))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _shuffled_groups(data, sizes):
    units = data.draw(st.permutations(range(sum(sizes))))
    starts = np.cumsum([0] + sizes)
    return [list(units[a:b]) for a, b in zip(starts, starts[1:])]


def _row(data, k):
    if k == 2 and data.draw(st.booleans()):  # a float row keeps its binary value
        x = data.draw(st.floats(0.05, 0.95))
        return [1 - x, x]
    weights = [data.draw(st.integers(1, 5)) for _ in range(k)]
    return [f"{w}/{sum(weights)}" for w in weights]


def _spec(data, k, n, kinds):
    """A design spec of ``k`` arms and ``n`` units, of one of ``kinds``."""
    kinds = [kind for kind in kinds if (kind != "complete" or n >= k)
             and (kind != "paired" or n % k == 0) and (kind not in ("block", "cluster") or n >= 2)]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "complete":
        return {"type": "complete", "counts": _composition(data, n, k)}
    if kind == "paired":
        return {"type": "paired", "k": k, "pairs": _shuffled_groups(data, [k] * (n // k))}
    if kind == "bernoulli":
        form = data.draw(st.sampled_from(["shared", "rows"] + (["scalar"] if k == 2 else [])))
        if form == "scalar":
            return {"type": "bernoulli", "n": n, "p": _row(data, 2)[1]}
        if form == "shared":
            return {"type": "bernoulli", "n": n, "probs": _row(data, k)}
        pool = [_row(data, k) for _ in range(2)]  # repeated rows share their classes
        return {"type": "bernoulli", "probs": [pool[data.draw(st.integers(0, 1))] for _ in range(n)]}
    if kind == "custom":
        # every (arm, unit) is reached by one of the first k points
        points = [[(r + i) % k for i in range(n)] for r in range(k)]
        points += data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
                                     max_size=2))
        weights = [data.draw(st.integers(1, 4)) for _ in points]
        return {"type": "custom", "k": k, "n": n, "support": [
            {"arms": arms, "prob": f"{w}/{sum(weights)}"} for arms, w in zip(points, weights)]}
    if kind == "block":
        sizes = _composition(data, n, data.draw(st.integers(2, min(n, 3))))
        inner = ["complete", "bernoulli", "paired", "custom", "block"]
        return {"type": "block", "k": k, "blocks": [
            {"units": units, **_spec(data, k, len(units), inner[:-1])}
            for units in _shuffled_groups(data, sizes)]}
    m = data.draw(st.integers(1, min(n, 4)))
    return {"type": "cluster", "k": k, "clusters": _shuffled_groups(data, _composition(data, n, m)),
            "cluster_design": _spec(data, k, m, ["complete", "bernoulli", "custom", "paired"])}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_class_tables_match_the_dense_construction(data):
    """pi, p, d, the mask, the Aronow-Samii bound and the IPW matrix of every
    built-in family equal, entry by entry, those computed from the dense p
    the builders used to assemble: equal Fractions and bit-identical floats."""
    k = data.draw(st.integers(2, 3))
    kind = data.draw(st.sampled_from(["complete", "paired", "bernoulli", "block", "cluster"]))
    if kind == "paired":
        n = k * data.draw(st.integers(1, 3))
    else:
        n = data.draw(st.integers({"complete": k, "bernoulli": 1}.get(kind, 2), 7))
    spec = _spec(data, k, n, [kind])
    design = dv.build_design(spec)
    layout, p_ref = dense_p(spec)
    assert design.layout == layout
    classes = isinstance(design.p_frac, designs.ClassMatrix)  # else tables would be larger
    reference = dv.Design(layout, "reference", sampler=design.sampler, p_frac=p_ref)
    assert_same_exact(design.p_frac, p_ref)
    got_pi, want_pi = dv.inclusion_probabilities(design), dv.inclusion_probabilities(reference)
    assert_same_exact(got_pi.frac, want_pi.frac)
    assert got_pi.probs.tobytes() == want_pi.probs.tobytes()
    got_p, want_p = dv.joint_probabilities(design), dv.joint_probabilities(reference)
    assert got_p.p.tobytes() == want_p.p.tobytes()
    (dmat, mask), (want_dmat, want_mask) = (dv.first_order_design_matrix(d)
                                            for d in (design, reference))
    assert isinstance(dmat.frac, designs.ClassMatrix) == classes
    assert_same_exact(dmat.frac, want_dmat.frac)
    assert_same_exact(mask.frac, want_mask.frac)
    assert mask.mask.tobytes() == want_mask.mask.tobytes()
    bound, want_bound = dv.aronow_samii_bound(dmat, mask), dv.aronow_samii_bound(want_dmat, want_mask)
    assert isinstance(bound.frac, designs.ClassMatrix) == classes
    assert_same_exact(bound.frac, want_bound.frac)
    assert (bound.certified_bounding, bound.certified_identified) == (
        want_bound.certified_bounding, want_bound.certified_identified)
    ipw, want_ipw = dv.ipw_bound_matrix(bound, got_p), dv.ipw_bound_matrix(want_bound, want_p)
    assert isinstance(ipw.frac, designs.ClassMatrix) == classes
    assert_same_exact(ipw.frac, want_ipw.frac)
    for got, want in ((dmat.d, want_dmat.d), (bound.dtilde, want_bound.dtilde),
                      (ipw.matrix, want_ipw.matrix)):
        assert got.tobytes() == want.tobytes()
