"""Randomization designs and their first-order dependence structure.

A design is a probability distribution over complete assignment vectors
for n units and k arms.  Everything downstream is indexed arm-major:
arm r and unit i (0-based) live at flat position r*n + i, so stacked
vectors have length kn and joint matrices are kn x kn.

Probabilities for the combinatorial families (bernoulli, complete,
paired, block, cluster, enumerated custom) are kept as exact rationals.
An enumerated support (Support) is an S x n array of arms, one row per
assignment, over a length-S exact matrix of point probabilities.  A
builder only records how to enumerate it: ``Design.support`` builds it
on first read, up to the design's ``support_cap``, the one cap setting:
builders take none, and ``build_design`` sets the spec's.
An exact matrix (ExactMatrix) is an integer code array over a Codebook
of distinct rationals, held as integer numerator/denominator arrays with
their correctly rounded floats; its floats are a view, floats[codes],
and Fractions are made only when entries are indexed.  That is what
makes entries like -1/3 or exact -1 reproducible bit-for-bit.  The parts
are int64 when all are below 2**53 and Python ints in object arrays
otherwise, and a codebook records a bound on their bit lengths; a
formula's operations carry that bound and run in int64 while their
results stay within 62 bits (``_Rationals``).  A codebook is made only
by ``ExactMatrix.of``, which reduces and deduplicates its values; its
order is unspecified, and it may hold values no entry takes.
Formulas over such matrices are written once, as array expressions, and
run once through ``elementwise``: on exact rationals, one entry per
distinct tuple of operand values, or on the floats when an operand has
no exact values.  A formula must therefore be branch-free.

The complete, Bernoulli, paired, block and cluster builders keep p as a
ClassMatrix: a ClassPattern gives each flat index a class, a unit and a
block, and off the diagonal an entry is read from one of three small
tables over class pairs, by whether the two indices share a unit, share
only a block, or lie in different blocks.  ``elementwise`` runs d, the
mask, the Aronow-Samii bound and the IPW matrix on those tables.  Their
floats (the holders' ``p``, ``d``, ``mask``, ``dtilde`` and ``matrix``)
are one gather through the pattern each; dense codes are gathered only
when ``.codes`` or an entry is read, and then kept.  Tables that would
hold more entries than the dense matrix (many distinct Bernoulli rows)
are expanded at build time; custom designs keep a dense p.

A design's one probability state is its joint matrix p_ab = E[R_a R_b],
read through ``Design.joint``; indicators are 0/1, so the inclusion
probabilities pi are p's diagonal.  Only a sampler-only custom design
estimates p, by Monte Carlo at build time
(``custom_design(..., sampler=..., seed=..., mc_replicates=...)``), as
``moments`` = (p, p se); pi and its se are their diagonals.  A block
or cluster design over such a part builds and draws but carries no
moments; estimate them by wrapping its sampler the same way:
``custom_design(d.layout, sampler=d.draw, seed=s, mc_replicates=r)``.

Every design draws through its sampler.  Support points and replicate
draws reach the rest of the package as indicator batches
(``support_indicators``, ``replicate_indicators``).
Every batched loop in the package sizes its batches by one byte budget
per float temporary, ``BATCH_BYTES``, through ``batch_rows``, so its
memory does not grow with the number of draws or support points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    InfeasibleSpecError,
    LayoutMismatchError,
    NonIdentifiedDesignError,
    NumericalError,
    SupportOverflowError,
    ValidationError,
)

DEFAULT_SUPPORT_CAP = 10**6
BATCH_BYTES = 2**18  # bytes per float temporary of every batched loop
# int64 arrays shorter than this are deduplicated and bounded on Python lists,
# longer ones by numpy, whose fixed cost per call a list only beats this short
_SHORT_ARRAY = 64


def batch_rows(width: int) -> int:
    """Rows of ``width`` floats that fit one batch: every batched loop over
    draws, support points or tensor rows takes this many rows at a time."""
    return max(1, BATCH_BYTES // (8 * width))


class Codebook:
    """Distinct exact rationals as reduced integer parts, with their floats.

    Made only by ``ExactMatrix.of``, which reduces and deduplicates them.
    ``num`` and ``den`` (positive) are int64 arrays when every part is below
    2**53: both then convert to float64 exactly, so float64 ``num / den`` is
    correctly rounded.  Otherwise they are object arrays of Python ints,
    whose true division is correctly rounded too.  Either way each float is
    the one ``float(Fraction)`` gives.  ``bits`` bounds the parts' bit
    lengths, (numerator, denominator): |num| < 2**bits[0], den < 2**bits[1].
    ``fractions`` makes the same values as Fractions on first use.
    """

    def __init__(self, num: np.ndarray, den: np.ndarray):
        if num.dtype == object or len(num) < _SHORT_ARRAY:
            nums, dens = num.tolist(), den.tolist()
            top = max(max(nums, default=0), -min(nums, default=0)), max(dens, default=0)
        else:
            top = max(int(num.max()), -int(num.min())), int(den.max())
        self.bits = (top[0].bit_length(), top[1].bit_length())
        dtype = np.int64 if max(self.bits) <= 53 else object
        self.num, self.den = num.astype(dtype, copy=False), den.astype(dtype, copy=False)
        try:
            self.floats = (self.num / self.den).astype(float)
        except OverflowError as exc:  # Python ints past the float range
            raise NumericalError(f"an exact value lies outside the float range ({exc})") from exc

    def __len__(self) -> int:
        return len(self.num)

    @cached_property
    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.num.tolist(), self.den.tolist()))


def _int_parts(x) -> np.ndarray:
    """Integers as an int64 array when all fit in one, else as Python ints in
    an object array (which keeps numpy from reading a list that mixes ints
    in [2**63, 2**64) with negative ones as floats)."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "bi":
        return x.astype(np.int64, copy=False)
    x = np.asarray(x, dtype=object)
    try:
        return x.astype(np.int64)
    except OverflowError:
        return x


def _distinct(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes, num, den): each (num, den) pair's number among the distinct
    pairs, which are numbered, and returned, in the order they first appear.
    Object or short arrays go through a dict, long int64 ones through a sort."""
    if num.dtype == object or len(num) < _SHORT_ARRAY:
        first: dict[tuple[int, int], int] = {}
        codes = [first.setdefault(pair, len(first)) for pair in zip(num.tolist(), den.tolist())]
        book = np.array(list(first), dtype=num.dtype).reshape(-1, 2)
        return np.array(codes, dtype=np.intp), book[:, 0], book[:, 1]
    order = np.lexsort((den, num))  # stable: each run of equal pairs starts at its first
    start = np.ones(len(order), dtype=bool)
    start[1:] = (np.diff(num[order]) != 0) | (np.diff(den[order]) != 0)
    run = np.empty_like(order)
    run[order] = np.cumsum(start) - 1
    firsts = order[start]
    seen = np.argsort(firsts)  # the runs in first-seen order
    rank = np.empty_like(seen)
    rank[seen] = np.arange(len(seen))
    return rank[run], num[firsts[seen]], den[firsts[seen]]


class ExactMatrix:
    """Exact rational array: integer codes into a Codebook of distinct rationals.

    ``m[a][b]`` and ``m[a, b]`` are Fractions, each made from its codebook
    entry's integer parts when asked for; ``values`` is the whole codebook
    as Fractions, made once.  Slices are ExactMatrix views over the same
    codebook, and iterating a matrix yields its rows.  A codebook may hold
    values no entry reaches, and its order is unspecified.
    """

    def __init__(self, codes: np.ndarray, book: Codebook):
        self.codes, self.book = codes, book

    @classmethod
    def of(cls, num, codes=None, den=1) -> "ExactMatrix":
        """Codes into the rationals ``num / den`` (``den`` positive; one value
        per code when ``codes`` is omitted), reduced and deduplicated in int64
        when every part fits in one, else on Python ints: the codebook keeps
        distinct values in first-seen order."""
        num, den = _int_parts(num), _int_parts(den)
        if num.dtype != den.dtype:
            num, den = num.astype(object), den.astype(object)
        g = np.gcd(num, den)  # broadcast: num // g and den // g have the full shape
        remap, num, den = _distinct((num // g).ravel(), (den // g).ravel())
        codes = np.arange(len(remap)) if codes is None else np.asarray(codes, dtype=np.intp)
        return ExactMatrix(remap[codes], Codebook(num, den))

    @property
    def values(self) -> tuple[Fraction, ...]:
        return self.book.fractions

    def to_float(self) -> np.ndarray:
        return self.book.floats[self.codes]

    def diagonal(self) -> "ExactMatrix":
        return ExactMatrix(np.diagonal(self.codes).copy(), self.book)

    def __getitem__(self, index):
        codes = self.codes[index]
        if np.ndim(codes) == 0:
            return Fraction(self.book.num.item(codes), self.book.den.item(codes))
        return ExactMatrix(codes, self.book)

    def __iter__(self):
        return (self[i] for i in range(len(self.codes)))


# the three tables of a ClassMatrix: entry (a, b) off the diagonal reads the
# first when a and b lie in different blocks, the second when they share a
# block but not a unit, the third when they share a unit
ACROSS, BLOCK, UNIT = range(3)


@dataclass(frozen=True, eq=False)
class ClassPattern:
    """Where each entry of a kn x kn ClassMatrix is read from.

    Flat index a has a class ``classes[a]`` (out of ``size``), a unit
    ``units[a]`` and a block ``blocks[a]``; units nest in blocks.  A unit
    here is whatever moves as one: a unit, or the cluster it belongs to.
    The builders pick classes so that an entry depends only on the two
    classes and on whether a and b share a unit or a block, which makes
    p, and every formula over it, a function of those alone off the
    diagonal.
    """

    classes: np.ndarray
    units: np.ndarray
    blocks: np.ndarray
    size: int

    @cached_property
    def index(self) -> np.ndarray:
        """kn x kn positions into the flattened (3, size, size) tables."""
        c = self.size
        index = (self.blocks[:, None] == self.blocks[None, :]).astype(np.intp)
        index += self.units[:, None] == self.units[None, :]
        index *= c * c
        index += (self.classes * c)[:, None]
        index += self.classes[None, :]
        return index


class ClassMatrix(ExactMatrix):
    """A kn x kn ExactMatrix held as a ClassPattern over small code tables.

    ``carrier`` holds the codes of the diagonal, one per flat index, then
    those of the three (size x size) tables ACROSS, BLOCK and UNIT.  Off the
    diagonal, entry (a, b) is the code of its table at (classes[a],
    classes[b]).  ``elementwise`` runs formulas over ClassMatrix operands
    on their carriers.  The dense codes are one gather through the
    pattern, made on first read and kept; ``to_float`` gathers the floats
    without them.
    """

    def __init__(self, pattern: ClassPattern, carrier: np.ndarray, book: Codebook):
        self.pattern, self.carrier, self.book = pattern, carrier, book

    @classmethod
    def joint(cls, pattern: ClassPattern, tables: ExactMatrix) -> "ClassMatrix":
        """A joint matrix from its (3, size, size) tables: its diagonal is each
        class's own unit entry, p_aa = pi_a."""
        diagonal = tables.codes[UNIT, pattern.classes, pattern.classes]
        return cls(pattern, np.concatenate([diagonal, tables.codes.ravel()]), tables.book)

    @property
    def tables(self) -> np.ndarray:
        size = self.pattern.size
        return self.carrier[len(self.pattern.classes):].reshape(3, size, size)

    def _expand(self, values: np.ndarray) -> np.ndarray:
        kn = len(self.pattern.classes)
        dense = values[kn:][self.pattern.index]
        dense.flat[::kn + 1] = values[:kn]
        return dense

    @cached_property
    def codes(self) -> np.ndarray:
        return self._expand(self.carrier)

    def to_float(self) -> np.ndarray:
        return self._expand(self.book.floats[self.carrier])

    def diagonal(self) -> ExactMatrix:
        return ExactMatrix(self.carrier[:len(self.pattern.classes)], self.book)


def _diagonal_matrix(values: np.ndarray, like: ExactMatrix) -> ExactMatrix:
    """The nonnegative integers ``values`` on the diagonal, zero elsewhere, in
    ``like``'s form (a ClassMatrix keeps its tables at zero)."""
    book = ExactMatrix.of(range(int(values.max()) + 1)).book
    if isinstance(like, ClassMatrix):
        zeros = np.zeros(len(like.carrier) - len(values), dtype=np.intp)
        return ClassMatrix(like.pattern, np.concatenate([values.astype(np.intp), zeros]), book)
    return ExactMatrix(np.diag(values.astype(np.intp)), book)


class _Rationals:
    """Exact rational arrays for formulas: numerators and positive
    denominators, reduced only by ``ExactMatrix.of``, with ``bits``, a bound
    on their bit lengths as in ``Codebook.bits``.

    Each operation bounds its result from its operands' bounds: for
    a/b + c/d the numerator takes max(a + d, c + b) + 1 bits and the
    denominator b + d, a product a + c and b + d, a quotient a + d and
    b + c, a comparison's cross products max(a + d, c + b).  When that
    bound is at most 62 bits the operation runs in int64, which cannot
    overflow then; beyond it, it runs on Python ints in object arrays.

    Supports ``+ - * /``, unary ``-`` and ``== !=`` (which give 0/1
    rationals), mixed with integers, bools and integer arrays.  Using one
    as a truth value raises TypeError: formulas must be branch-free.
    """

    __array_ufunc__ = None  # numpy operands defer to the reflected methods here

    def __init__(self, num, den, bits: tuple[int, int]):
        self.num, self.den, self.bits = num, den, bits

    @staticmethod
    def lift(x) -> "_Rationals":
        if isinstance(x, _Rationals):
            return x
        if isinstance(x, (int, np.integer, np.bool_)):
            return _Rationals(int(x), 1, (abs(int(x)).bit_length(), 1))
        if isinstance(x, np.ndarray) and x.dtype.kind in "biu":
            x = _int_parts(x)
            top = max(int(x.max(initial=0)), -int(x.min(initial=0)))
            if top.bit_length() > 62:  # so negating an int64 part cannot wrap
                x = x.astype(object)
            return _Rationals(x, 1, (top.bit_length(), 1))
        raise TypeError(f"exact formulas combine only with integers and bools, not {x!r}")

    def _parts(self, other, bound):
        """(bits, parts): ``bound`` of the two operands' bit bounds, and their
        four parts, as int64 arrays (or Python ints, which then fit in int64)
        when every bound is at most 62 bits, else as object arrays."""
        other = _Rationals.lift(other)
        bits = bound(*self.bits, *other.bits)
        parts = self.num, self.den, other.num, other.den
        if max(bits) > 62:
            return bits, [np.asarray(x, dtype=object) for x in parts]
        return bits, [x.astype(np.int64) if getattr(x, "dtype", None) == object else x
                      for x in parts]

    def __add__(self, other):
        bits, (a, b, c, d) = self._parts(other, lambda a, b, c, d: (max(a + d, c + b) + 1, b + d))
        return _Rationals(a * d + c * b, b * d, bits)

    def __sub__(self, other):
        return self + -_Rationals.lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        bits, (a, b, c, d) = self._parts(other, lambda a, b, c, d: (a + c, b + d))
        return _Rationals(a * c, b * d, bits)

    def __truediv__(self, other):
        bits, (a, b, c, d) = self._parts(other, lambda a, b, c, d: (a + d, b + c))
        if np.any(c == 0):
            raise ZeroDivisionError("exact division by zero")
        sign = np.where(c < 0, -1, 1)
        return _Rationals(a * d * sign, b * c * sign, bits)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return _Rationals(-self.num, self.den, self.bits)

    def __eq__(self, other):
        _, (a, b, c, d) = self._parts(other, lambda a, b, c, d: (a + d, c + b))
        return _Rationals(np.equal(a * d, c * b).astype(np.int64), 1, (1, 1))

    def __ne__(self, other):
        _, (a, b, c, d) = self._parts(other, lambda a, b, c, d: (a + d, c + b))
        return _Rationals(np.not_equal(a * d, c * b).astype(np.int64), 1, (1, 1))

    def __bool__(self):
        raise TypeError("an exact formula must be a branch-free array expression")


def elementwise(fn, *operands) -> tuple[np.ndarray, ExactMatrix | None]:
    """``fn`` applied entrywise to broadcast operands, as (floats, exact values).

    ``fn`` runs once, as an array expression.  When every operand is an
    ExactMatrix it runs on exact rationals, one entry per distinct tuple
    of operand codes, and the result is exact.  Over ClassMatrix operands
    of one pattern it runs on their carriers, so the exact result is a
    ClassMatrix of that pattern, whose floats are one gather and whose
    dense codes are not formed.  The distinct tuples come from a presence
    table when the tuple key space is no larger than the entry count, and
    from a sort otherwise.  When an operand is not exact, ``fn`` runs on
    the float arrays and there are no exact values.  Callers write their
    formula once through it instead of branching on exactness, so a
    formula must be branch-free: ``+ - * /``, unary ``-`` and ``== !=``,
    mixed with integers.  They may still rearrange operand codes
    (``_outer_pair`` sorts the codes of a symmetric pair so it is
    evaluated once).
    """
    if not all(isinstance(op, ExactMatrix) for op in operands):
        floats = [op.to_float() if isinstance(op, ExactMatrix) else op for op in operands]
        return np.asarray(fn(*floats), dtype=float), None
    patterns = {op.pattern if isinstance(op, ClassMatrix) else None for op in operands}
    if len(patterns) == 1 and None not in patterns:
        exact = _exact(fn, [op.carrier for op in operands], [op.book for op in operands])
        exact = ClassMatrix(patterns.pop(), exact.codes, exact.book)
    else:
        exact = _exact(fn, [op.codes for op in operands], [op.book for op in operands])
    return exact.to_float(), exact


def _exact(fn, codes: list[np.ndarray], books: list[Codebook]) -> ExactMatrix:
    """``elementwise``'s exact kernel over broadcast code arrays."""
    shape = np.broadcast_shapes(*(c.shape for c in codes))
    space = math.prod(map(len, books))
    # one integer key per entry, mixed-radix over the operand codebooks
    key, radix = np.zeros(shape, dtype=np.int64), 1
    for c, book in zip(codes, books):
        if radix * len(book) >= 2**62:  # renumber densely before it overflows
            key = np.unique(key, return_inverse=True)[1].reshape(shape)
            radix = int(key.max()) + 1
        key, radix = key * len(book) + c, radix * len(book)
    key = key.ravel()
    # a key space no larger than the entry count was never renumbered: rank its
    # keys through a presence table instead of a sort, and decode them to codes
    if space <= len(key):
        present = np.zeros(space, dtype=bool)
        present[key] = True
        inverse = (np.cumsum(present) - 1)[key]
        rest, picks = np.flatnonzero(present), []
        for book in reversed(books):  # the last operand is the lowest digit
            rest, pick = np.divmod(rest, len(book))
            picks.insert(0, pick)
    else:
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        picks = [np.broadcast_to(c, shape).ravel()[first] for c in codes]
    args = [_Rationals(book.num[pick], book.den[pick], book.bits)
            for book, pick in zip(books, picks)]
    result = _Rationals.lift(fn(*args))
    return ExactMatrix.of(result.num, inverse.reshape(shape), result.den)


@dataclass(frozen=True)
class IndexLayout:
    """Arm-major flat indexing for stacked kn vectors.

    Arm r and unit i (both 0-based) map to flat index r*n + i: the first
    n coordinates belong to arm 0, the next n to arm 1, and so on.
    """

    k: int
    n: int

    def __post_init__(self):
        if self.k < 2:
            raise InfeasibleSpecError(f"arm count k must be >= 2, got {self.k}")
        if self.n < 1:
            raise InfeasibleSpecError(f"unit count n must be >= 1, got {self.n}")

    @property
    def kn(self) -> int:
        return self.k * self.n

    def flat(self, arm: int, unit: int) -> int:
        return arm * self.n + unit

    def check_vector(self, v: np.ndarray, what: str = "vector") -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.kn,):
            raise LayoutMismatchError(
                f"{what} must have shape ({self.kn},) for k={self.k}, n={self.n}; "
                f"got {v.shape}"
            )
        return v

    def check_contrast(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        if c.shape != (self.k,):
            raise LayoutMismatchError(f"contrast must have length k={self.k}; got shape {c.shape}")
        return c

    def check_arms(self, arms: np.ndarray, rows: tuple[int, ...] = ()) -> np.ndarray:
        """Arms of one assignment (length n), or of ``rows`` of them, in [0, k)."""
        arms = np.asarray(arms, dtype=int)
        if arms.shape[:-1] != rows or arms.shape[-1:] != (self.n,):
            raise LayoutMismatchError(
                f"assignment must give one arm per unit, expected length "
                f"{self.n}, got shape {arms.shape[len(rows):]}"
            )
        if arms.min() < 0 or arms.max() >= self.k:
            raise ValidationError("assignment arm indices must lie in [0, k)")
        return arms

    def check_matrix(self, m: np.ndarray, what: str = "matrix") -> np.ndarray:
        m = np.asarray(m, dtype=float)
        if m.shape != (self.kn, self.kn):
            raise LayoutMismatchError(
                f"{what} must have shape ({self.kn}, {self.kn}) for k={self.k}, "
                f"n={self.n}; got {m.shape}"
            )
        return m


def arms_to_indicators(arms: np.ndarray, layout: IndexLayout) -> np.ndarray:
    """0/1 indicators of length kn from an arm-per-unit vector, or an
    S x kn batch of them from an S x n batch of arm vectors."""
    arms = np.asarray(arms, dtype=int)
    onehot = arms[..., None, :] == np.arange(layout.k)[:, None]  # (..., k, n), arm-major
    return onehot.reshape(arms.shape[:-1] + (layout.kn,)).astype(float)


@dataclass(frozen=True, eq=False)
class Assignment:
    """One complete assignment: every unit in exactly one arm."""

    layout: IndexLayout
    arms: np.ndarray  # length n, values in 0..k-1

    def __post_init__(self):
        object.__setattr__(self, "arms", self.layout.check_arms(self.arms))

    @classmethod
    def from_indicators(cls, layout: IndexLayout, indicators: np.ndarray) -> "Assignment":
        ind = layout.check_vector(indicators, "indicator vector")
        if not np.all((ind == 0.0) | (ind == 1.0)):
            raise ValidationError("indicators must be 0/1")
        mat = ind.reshape(layout.k, layout.n)
        if not np.all(mat.sum(axis=0) == 1.0):
            raise ValidationError("each unit must be assigned to exactly one arm")
        return cls(layout, np.argmax(mat, axis=0))

    def indicators(self) -> np.ndarray:
        return arms_to_indicators(self.arms, self.layout)


@dataclass(eq=False)
class PiDiagonal:
    """Per-(arm, unit) inclusion probabilities (diagonal of the pi matrix)."""

    layout: IndexLayout
    probs: np.ndarray
    frac: ExactMatrix | None = None
    estimated: bool = False
    se: np.ndarray | None = None

    def __post_init__(self):
        self.probs = self.layout.check_vector(self.probs, "inclusion probabilities")
        if not np.all((self.probs > 0.0) & (self.probs < 1.0)):  # NaN fails too
            bad = int(np.argmin(np.minimum(self.probs, 1.0 - self.probs)))
            arm, unit = divmod(bad, self.layout.n)
            value = f"{self.probs[bad]}"
            if self.frac is not None and 0 < self.frac[bad] < 1:  # exact, but 0 or 1 in float
                value = f"{self.frac[bad]}, which rounds to {value} in float"
            raise NonIdentifiedDesignError(
                "non-identified design: inclusion probability at flat index "
                f"{bad} (arm {arm}, unit {unit}) is {value}, outside (0, 1)"
            )
        unit_sums = self.probs.reshape(self.layout.k, self.layout.n).sum(axis=0)
        if np.max(np.abs(unit_sums - 1.0)) > 1e-12:
            raise ValidationError(
                "per-unit inclusion probabilities must sum to 1 across arms"
            )


@dataclass(eq=False)
class JointProbMatrix:
    """Joint assignment probabilities: entry (a, b) is E[R_a R_b]."""

    layout: IndexLayout
    p: np.ndarray
    frac: ExactMatrix | None = None
    estimated: bool = False
    se: np.ndarray | None = None

    def __post_init__(self):
        self.p = self.layout.check_matrix(self.p, "joint probability matrix")
        if np.max(np.abs(self.p - self.p.T)) != 0.0:
            raise ValidationError("joint probability matrix must be exactly symmetric")
        if np.any(self.p < 0.0) or np.any(self.p > 1.0):
            raise ValidationError("joint probabilities must lie in [0, 1]")

    @property
    def joint(self) -> ExactMatrix | np.ndarray:
        """p, exact where there are exact values, as ``Design.joint`` reads it."""
        return self.p if self.frac is None else self.frac


def check_symmetric(m: np.ndarray, what: str) -> None:
    """Raise ValidationError unless the square ``m`` is symmetric within
    1e-10 times its largest entry magnitude."""
    gap = np.subtract(m, m.T)
    if np.max(np.abs(gap, out=gap)) > 1e-10 * max(m.max(), -m.min()):
        raise ValidationError(f"{what} is not symmetric within 1e-10 of its largest entry")


@dataclass(eq=False)
class DesignMatrix:
    """First-order design matrix: covariance of the inverse-probability
    weighted assignment indicators, normalized elementwise.  Without exact
    values, ``d`` must be symmetric within 1e-10 of its largest entry.

    ``mask``, derived on first read and kept, is the one impossibility set:
    the pairs where d is -1, those with p_ab = 0.  Exact where d is; float
    impossible entries hold exactly -1.0 (0 / (pi_a pi_b) - 1 is not
    rounded), and a float d also marks a pair too improbable to move -1.0.
    A float d need only be symmetric within 1e-10, so it marks a pair
    where either (a, b) or (b, a) is -1.0, and its set is symmetric.
    """

    layout: IndexLayout
    d: np.ndarray
    frac: ExactMatrix | None = None
    estimated: bool = False

    def __post_init__(self):
        self.d = self.layout.check_matrix(self.d, "design matrix")
        if self.frac is None:  # exact values are symmetric by construction
            check_symmetric(self.d, "design matrix")

    @cached_property
    def mask(self) -> ImpossibilityMask:
        mask, frac = elementwise(lambda d: d == -1, self.frac or self.d)
        if frac is None:  # exact values are symmetric by construction
            mask = np.maximum(mask, mask.T)
        return ImpossibilityMask(self.layout, mask, frac=frac)


@dataclass(eq=False)
class ImpossibilityMask:
    """0/1 matrix marking pairs of assignments with joint probability zero;
    ``frac``, when there is one, holds the same 0/1 values exactly.  d's own
    is ``DesignMatrix.mask``; a given one steers the Aronow-Samii and
    Algorithm M constructions, and ``certify`` checks it on top of d's."""

    layout: IndexLayout
    mask: np.ndarray
    frac: ExactMatrix | None = None

    def __post_init__(self):
        mask = self.layout.check_matrix(self.mask, "mask")
        bad = (mask != 0) & (mask != 1)
        if bad.any():
            raise ValidationError(f"mask entries must be 0 or 1, got {float(mask[bad][0])}")
        self.mask = (mask != 0).astype(float)

    def check_possible(self, assignment: Assignment) -> None:
        """Raise ValidationError, naming one pair of units and their arms,
        when the mask marks two of ``assignment``'s arms as never occurring
        together (R' mask R > 0)."""
        flat = self.layout.flat(assignment.arms, np.arange(self.layout.n))
        pairs = np.argwhere(self.mask[np.ix_(flat, flat)])
        if len(pairs):
            i, j = pairs[0].tolist()
            arms = assignment.arms.tolist()
            raise ValidationError(
                f"the design never assigns unit {i} to arm {arms[i]} together with "
                f"unit {j} to arm {arms[j]}, as the observed assignment does"
            )


@dataclass(frozen=True, eq=False)
class Support:
    """Enumerated support: point s assigns unit i to arm ``arms[s, i]``
    and has exact probability ``probs[s]``."""

    arms: np.ndarray  # S x n, values in 0..k-1
    probs: ExactMatrix  # length S

    def __len__(self) -> int:
        return len(self.arms)

    @cached_property
    def draw_probs(self) -> np.ndarray:
        """Float probabilities normalized for ``rng.choice``, built once."""
        probs = self.probs.to_float()
        return probs / probs.sum()


def _integer_weights(probs: ExactMatrix) -> tuple[np.ndarray, int, int]:
    """Support probabilities as integer weights over their common denominator.

    Returns (weights, denominator, total): ``weights`` holds one Python int
    per codebook entry, 0 for the entries no point reaches, and ``total``
    sums the weights over the points, so the probabilities sum to
    total / denominator.  Runs once per distinct probability.
    """
    counts = np.bincount(probs.codes, minlength=len(probs.book))
    used = counts > 0
    num = np.where(used, probs.book.num, 0).astype(object)
    den = np.where(used, probs.book.den, 1).astype(object)
    denom = math.lcm(*den.tolist())
    weights = num * (denom // den)
    return weights, denom, sum((weights * counts.astype(object)).tolist())


def _checked_support(support: Support, layout: IndexLayout) -> Support:
    """``support`` once its probabilities are positive and sum to 1 and its
    rows give each unit an arm of the layout."""
    arms, probs = support.arms, support.probs
    if not len(arms):
        raise ValidationError("an enumerated support needs at least one point")
    _, denom, total = _integer_weights(probs)  # the exact sum
    if abs(total / denom - 1.0) > 1e-12:
        raise ValidationError(f"support probabilities sum to {total / denom}, not 1")
    if np.any(probs.to_float() <= 0.0):
        raise ValidationError("support probabilities must be positive")
    layout.check_arms(arms, rows=probs.codes.shape)
    return support


@dataclass(eq=False)
class Design:
    """A randomization design.

    ``p_frac`` is the exact joint matrix: class tables (ClassMatrix) for the
    built-in families, dense codes for custom designs.  ``moments`` holds
    the estimated (p, p se) of a sampler-only custom design built with a
    seed, and is None otherwise; ``joint`` reads p from either.  Inclusion
    probabilities are p's diagonal, so nothing computed from p needs the
    support.  Assignments are drawn by ``sampler``.

    ``support`` is enumerated by ``enumerator``, validated and cached on
    first read.  It reads as None, without enumerating, when
    ``support_size`` is None (a part has only a sampler) or above
    ``support_cap``; a consumer that cannot run without it asks through
    ``enumerated``, which raises SupportOverflowError instead.
    """

    layout: IndexLayout
    family: str
    sampler: Callable[[np.random.Generator], np.ndarray]
    p_frac: ExactMatrix | None = None
    support_size: int | None = None
    support_cap: int = DEFAULT_SUPPORT_CAP
    enumerator: Callable[[], Support] | None = field(default=None, repr=False)
    moments: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _support: Support | None = field(default=None, init=False, repr=False)

    def _enumerate(self) -> Support:
        """The support, whatever its size: composites enumerate their parts
        through it, under the composite's own cap."""
        if self._support is None:
            self._support = _checked_support(self.enumerator(), self.layout)
        return self._support

    @property
    def support(self) -> Support | None:
        if self.support_size is None or self.support_size > self.support_cap:
            return None
        return self._enumerate()

    def enumerated(self, consumer: str) -> Support:
        """The support, for ``consumer``, which cannot run without it."""
        support = self.support
        if support is None:
            why = ("it cannot be enumerated: a part has only a sampler"
                   if self.support_size is None else
                   f"its {self.support_size} points exceed the cap {self.support_cap}")
            raise SupportOverflowError(
                f"{consumer} needs the support of the {self.family} design, but {why}"
            )
        return support

    @property
    def joint(self) -> ExactMatrix | np.ndarray:
        """p: ``p_frac`` if exact, else the Monte Carlo estimate in ``moments``."""
        if self.p_frac is not None:
            return self.p_frac
        if self.moments is None:
            raise ValidationError(
                f"{self.family} design has neither exact nor estimated moments; estimate them "
                "with custom_design(d.layout, sampler=d.draw, seed=s, mc_replicates=r)")
        return self.moments[0]

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one assignment (arm-per-unit vector)."""
        return self.sampler(rng)

    def support_indicators(self) -> Iterator[np.ndarray]:
        """The support points' indicators, in support order, as S x kn
        batches of ``batch_rows(kn)`` rows; raises SupportOverflowError at
        the call when there is no support."""
        arms, rows = self.enumerated("support_indicators").arms, batch_rows(self.layout.kn)
        return (arms_to_indicators(arms[start:start + rows], self.layout)
                for start in range(0, len(arms), rows))

    def replicate_indicators(self, seed: int, replicates: int) -> Iterator[np.ndarray]:
        """Seeded replicate draws as indicator batches of ``batch_rows(kn)`` rows.

        Replicate ``rep`` draws from its own child generator
        ``default_rng((seed, rep))``, so any replicate can be reproduced
        on its own.
        """
        if seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {seed}")
        rows = batch_rows(self.layout.kn)
        for start in range(0, replicates, rows):
            reps = range(start, min(start + rows, replicates))
            arms = [self.draw(np.random.default_rng((seed, rep))) for rep in reps]
            yield arms_to_indicators(np.array(arms), self.layout)


# ---------------------------------------------------------------------------
# rational helpers


def _as_fraction(x) -> Fraction:
    """``x`` as an exact rational; a float keeps its exact binary value, and
    a bool is not a number here."""
    if isinstance(x, Fraction):
        return x
    value = x.item() if isinstance(x, np.generic) else x
    try:
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            return Fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError):
        pass
    raise ValidationError(f"cannot interpret {x!r} as a probability")


def _sorted_pair(codes: np.ndarray, book: Codebook) -> tuple[ExactMatrix, ExactMatrix]:
    """``codes[:, None]`` and ``codes[None, :]`` with each pair sorted."""
    a, b = codes[:, None], codes[None, :]
    return ExactMatrix(np.minimum(a, b), book), ExactMatrix(np.maximum(a, b), book)


def _outer_pair(p: ExactMatrix | np.ndarray) -> tuple[ExactMatrix | np.ndarray, ...]:
    """p_aa and p_bb at each entry (a, b) of the joint matrix ``p``, in p's
    form, with each pair's codes sorted, so a formula symmetric in the two
    evaluates entries (a, b) and (b, a) once."""
    if isinstance(p, np.ndarray):  # a Monte Carlo estimate
        return p.diagonal()[:, None], p.diagonal()[None, :]
    if not isinstance(p, ClassMatrix):
        return _sorted_pair(np.diagonal(p.codes), p.book)
    diagonal, shape = p.carrier[:len(p.pattern.classes)], p.tables.shape
    # a class's own unit entry is its pi
    return tuple(
        ClassMatrix(p.pattern, np.concatenate([diagonal, np.broadcast_to(t.codes, shape).ravel()]),
                    p.book)
        for t in _sorted_pair(p.tables[UNIT].diagonal(), p.book)
    )


def _as_classes(p: ExactMatrix, layout: IndexLayout) -> ClassMatrix:
    """``p`` as a ClassMatrix: a dense p takes one class per flat index and a
    single block, so all three of its tables are p itself."""
    if isinstance(p, ClassMatrix):
        return p
    flat = np.arange(layout.kn)
    pattern = ClassPattern(flat, flat % layout.n, np.zeros(layout.kn, dtype=np.intp), layout.kn)
    carrier = np.concatenate([np.diagonal(p.codes), np.tile(p.codes.ravel(), 3)])
    return ClassMatrix(pattern, carrier, p.book)


def _stored(p: ClassMatrix) -> ExactMatrix:
    """``p`` kept as class tables when they hold fewer entries than the dense
    matrix, else expanded once: many classes (distinct Bernoulli rows, a
    large custom part) leave the tables nothing to save."""
    if 3 * p.pattern.size**2 <= len(p.pattern.classes) ** 2:
        return p
    return ExactMatrix(p.codes, p.book)


def _block_p(layout: IndexLayout, unit_sets: list[list[int]], subs: list[Design]) -> ExactMatrix:
    """p of independent parts over disjoint unit sets, as class tables where
    they are the smaller form (``_stored``).

    Each distinct part design is a part type: its classes, and its unit
    and block tables, are its own, and its units and blocks are numbered
    apart in each block it fills.  Indices in different blocks are
    independent, so the across table is the product of the two classes'
    inclusion probabilities, evaluated once per unordered pair.
    """
    types: dict[int, list[int]] = {}  # part design -> the blocks it fills
    for i, sub in enumerate(subs):
        types.setdefault(id(sub), []).append(i)
    classes, units, blocks = (np.empty(layout.kn, dtype=np.intp) for _ in range(3))
    parts, size, unit_base, block_base = [], 0, 0, 0
    for filled in types.values():
        sub = subs[filled[0]]
        part = _as_classes(sub.p_frac, sub.layout)
        pat, local = part.pattern, np.arange(sub.layout.kn)
        members = np.array([unit_sets[i] for i in filled])  # blocks x part units
        flat = (local // sub.layout.n * layout.n) + members[:, local % sub.layout.n]
        copy = np.arange(len(filled))[:, None]
        unit_span, block_span = pat.units.max() + 1, pat.blocks.max() + 1
        classes[flat] = size + pat.classes
        units[flat] = unit_base + copy * unit_span + pat.units
        blocks[flat] = block_base + copy * block_span + pat.blocks
        unit_base += len(filled) * unit_span
        block_base += len(filled) * block_span
        parts.append((size, part))
        size += pat.size
    # one operand book, the parts' values and 1: each table entry is the product
    # of a pair of its codes, the across ones sorted pairs of the classes' pi
    # (a class's own unit entry), the parts' own entries (value, 1)
    offsets = np.cumsum([0] + [len(part.book) for _, part in parts])
    operand = ExactMatrix.of(np.concatenate([part.book.num for _, part in parts] + [[1]]),
                             den=np.concatenate([part.book.den for _, part in parts] + [[1]]))
    code = operand.codes
    pi = np.concatenate([code[off + part.tables[UNIT].diagonal()]
                         for off, (_, part) in zip(offsets, parts)])
    first, second = (np.repeat(pair.codes[None], 3, axis=0)
                     for pair in _sorted_pair(pi, operand.book))
    for off, (start, part) in zip(offsets, parts):
        span = slice(start, start + part.pattern.size)
        first[BLOCK:, span, span] = code[off + part.tables[BLOCK:]]
        second[BLOCK:, span, span] = code[-1]
    _, tables = elementwise(operator.mul, ExactMatrix(first, operand.book),
                            ExactMatrix(second, operand.book))
    return _stored(ClassMatrix.joint(ClassPattern(classes, units, blocks, size), tables))


# ---------------------------------------------------------------------------
# builders


def _product_support(parts: Sequence[tuple[np.ndarray, Support]], n: int) -> Support:
    """Product measure of independent supports over disjoint unit sets.

    ``parts`` are (units, Support) pairs.  Points come in
    ``itertools.product`` order over the parts: the first part varies
    slowest.  Probabilities are multiplied once per distinct pair of
    (partial product, part probability).
    """
    sizes = [len(part) for _, part in parts]
    total = math.prod(sizes)
    arms = np.empty((total, n), dtype=int)
    probs = ExactMatrix.of([1])
    stride = total
    for (units, part), size in zip(parts, sizes):
        stride //= size
        arms[:, units] = part.arms[np.arange(total) // stride % size]
        _, probs = elementwise(operator.mul, probs[:, None], part.probs[None, :])
        probs = ExactMatrix(probs.codes.ravel(), probs.book)
    return Support(arms, probs)


def bernoulli_design(
    probs,
    k: int | None = None,
    n: int | None = None,
) -> Design:
    """Independent per-unit assignment.

    ``probs`` may be a scalar p (two arms, the row (1 - p, p) shared by all
    units), a length-k row shared by all units, or an n x k matrix of
    per-unit arm probabilities.  Rows must sum to 1 within 1e-12.

    This is the block design whose blocks are single units: each unit is
    a one-unit part over its arms of positive probability, so the support
    size is the number of assignments with positive probability.  Only
    the sampler is Bernoulli's own, drawing every unit in one vector step:
    a uniform u picks the arm whose float cumulative-probability interval
    [lo, hi) holds it.  Each unit's sums are scaled so the last is exactly
    1, so an arm of probability zero is never drawn and the last arm of
    positive probability takes the rounding.
    """
    def _is_scalar(x) -> bool:
        return isinstance(x, (int, float, np.integer, np.floating, Fraction, str))

    k, n = (None if v is None else spec_int(v) for v in (k, n))
    if _is_scalar(probs):
        if k not in (None, 2):
            raise InfeasibleSpecError("scalar probability implies k=2")
        if n is None:
            raise InfeasibleSpecError("scalar probability requires explicit n")
        probs = [1 - _as_fraction(probs), probs]
    rows = list(probs)
    if not rows:
        raise InfeasibleSpecError("empty probability spec")
    shared = _is_scalar(rows[0])
    if shared and n is None:
        raise InfeasibleSpecError("shared arm probabilities require explicit n")
    # the distinct rows, and each unit's index into them
    first: dict[tuple, int] = {}
    which = [first.setdefault(tuple(_as_fraction(x) for x in row), len(first))
             for row in ([rows] if shared else rows)]
    if shared:
        which *= n  # empty for a negative n, which IndexLayout refuses
    elif n not in (None, len(which)):
        raise InfeasibleSpecError("probs row count disagrees with n")
    k = len(next(iter(first))) if k is None else k
    if any(len(row) != k for row in first):
        raise InfeasibleSpecError("every probability row must have length k")
    IndexLayout(k, n if shared else len(which))  # refuses k < 2 and n < 1 first
    # float rows need not sum to exactly 1 in binary: normalize each distinct row
    # exactly, once, so the support is a probability measure whose marginals are pi
    parts: dict[tuple, Design] = {}
    part, floats = [], []
    for j, row in enumerate(first):
        total = sum(row)
        if abs(float(total) - 1.0) > 1e-12:
            unit = which.index(j)
            raise InfeasibleSpecError(f"arm probabilities for unit {unit} do not sum to 1")
        if any(float(x) < 0 for x in row):
            raise InfeasibleSpecError("arm probabilities must be nonnegative")
        row = tuple(x / total for x in row)
        if row not in parts:  # rows that normalize alike share one part
            parts[row] = custom_design(IndexLayout(k, 1),
                                       [([r], x) for r, x in enumerate(row) if x > 0])
        part.append(parts[row])
        floats.append([float(x) for x in row])
    design = block_design([([i], part[j]) for i, j in enumerate(which)])

    cum = np.cumsum(np.array(floats)[which], axis=1)
    cum /= cum[:, -1:]

    def sampler(rng: np.random.Generator) -> np.ndarray:
        return (rng.random(len(cum))[:, None] >= cum).sum(axis=1)

    design.family, design.sampler = "bernoulli", sampler
    return design


def _multinomial(counts: Sequence[int]) -> int:
    total = math.factorial(sum(counts))
    for c in counts:
        total //= math.factorial(c)
    return total


def _arm_sequences(counts: Sequence[int]) -> np.ndarray:
    """Every arm-per-unit row with counts[r] units in arm r, in lexicographic order.

    The rows that share a prefix form a run.  A run of L rows whose
    remaining units number m, counts ``left``, puts its next unit in arm r
    in a run of L * left[r] / m rows (a multinomial), arms in order, so each
    column is one ``np.repeat`` over the runs, written into one S x n array.
    """
    n = sum(counts)
    arms = np.empty((_multinomial(counts), n), dtype=int)
    lengths, left = np.array([len(arms)], dtype=np.int64), np.array([counts], dtype=np.int64)
    for unit in range(n):
        split = lengths[:, None] * left // (n - unit)  # rows of each run per next arm
        run, arm = np.nonzero(split)  # runs in order, arms ascending within each
        lengths = split[run, arm]
        arms[:, unit] = np.repeat(arm, lengths)
        left = left[run]
        left[np.arange(len(arm)), arm] -= 1
    return arms


def complete_design(counts: Sequence[int]) -> Design:
    """Completely randomized assignment with fixed arm sizes."""
    counts = [spec_int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise InfeasibleSpecError("arm counts must be nonnegative")
    n = sum(counts)
    k = len(counts)
    layout = IndexLayout(k, n)

    # one block of exchangeable units, one class per arm: a unit is in one arm,
    # with probability n_a / n, and two units in arms a, b with probability
    # n_a (n_b - [same arm]) / (n (n - 1)); n = 1 has no second unit, so its
    # divisor only needs to be nonzero.  The tables run over (kind, arm, arm).
    flat = np.arange(layout.kn)
    pattern = ClassPattern(flat // n, flat % n, np.zeros(layout.kn, dtype=np.intp), k)
    sizes = ExactMatrix.of(counts)
    _, tables = elementwise(
        lambda na, nb, same_unit, same_arm: same_unit * same_arm * na / n
        + (1 - same_unit) * na * (nb - same_arm) / (n * max(n - 1, 1)),
        sizes[:, None], sizes[None, :],
        ExactMatrix.of((0, 1), (np.arange(3) == UNIT)[:, None, None]),
        ExactMatrix.of((0, 1), np.eye(k, dtype=bool)),
    )
    p_frac = ClassMatrix.joint(pattern, tables)

    size = _multinomial(counts)

    def enumerator() -> Support:
        return Support(_arm_sequences(counts),
                       ExactMatrix.of([1], np.zeros(size, dtype=np.intp), size))

    labels = np.repeat(np.arange(k), counts)

    def sampler(rng: np.random.Generator) -> np.ndarray:
        return rng.permutation(labels)

    return Design(
        layout=layout,
        family="complete",
        sampler=sampler,
        p_frac=p_frac,
        support_size=size,
        enumerator=enumerator,
    )


def _covered_units(unit_lists: list[list[int]], message: str) -> int:
    """n, if the unit lists are disjoint and cover 0..n-1; else InfeasibleSpecError."""
    flat = sorted(u for units in unit_lists for u in units)
    if flat != list(range(len(flat))):
        raise InfeasibleSpecError(message)
    return len(flat)


def block_design(blocks: Sequence[tuple[Sequence[int], Design]]) -> Design:
    """Independent sub-designs over disjoint unit sets.

    Marginal and joint probabilities are assembled blockwise (cross-block
    joints are products of marginals), so the product support never needs
    to be enumerated just to obtain pi, p, or the design matrix.  Paired
    and Bernoulli designs are built through it.  The design's own
    ``support_cap`` bounds the product of the blocks' support sizes.
    """
    if not blocks:
        raise InfeasibleSpecError("block design needs at least one block")
    k = blocks[0][1].layout.k
    unit_sets = []
    for units, sub in blocks:
        if sub.layout.k != k:
            raise InfeasibleSpecError("all blocks must share the same arm count")
        units = _ints(units)
        if len(units) != sub.layout.n:
            raise InfeasibleSpecError(
                f"block lists {len(units)} units but its design has n={sub.layout.n}"
            )
        unit_sets.append(units)
    n = _covered_units(unit_sets, "block unit sets must be disjoint and cover units 0..n-1")
    layout = IndexLayout(k, n)

    p_frac = None
    if all(sub.p_frac is not None for _, sub in blocks):
        p_frac = _block_p(layout, unit_sets, [sub for _, sub in blocks])

    sizes = [sub.support_size for _, sub in blocks]
    size = None if None in sizes else math.prod(sizes)

    def enumerator() -> Support:
        return _product_support([(np.array(units), sub._enumerate())
                                 for units, (_, sub) in zip(unit_sets, blocks)], n)

    order = np.array([u for units in unit_sets for u in units])  # the blocks' units end to end

    def sampler(rng: np.random.Generator) -> np.ndarray:
        arms = np.empty(n, dtype=int)
        arms[order] = np.concatenate([sub.draw(rng) for _, sub in blocks])
        return arms

    return Design(
        layout=layout,
        family="block",
        sampler=sampler,
        p_frac=p_frac,
        support_size=size,
        enumerator=enumerator,
    )


def paired_design(pairs: Sequence[Sequence[int]], k: int = 2) -> Design:
    """Matched groups of size k; within each group one unit goes to each arm.

    A block design of one k-unit complete design per group, so its
    ``support_cap`` bounds the whole support of k!**groups points.
    """
    k = spec_int(k)
    for pair in pairs:
        if len(pair) != k:
            raise InfeasibleSpecError(
                f"each matched group must have exactly k={k} units, got {list(pair)}"
            )
    # one complete design shared by every group; its cap is not read, only the product's
    group = complete_design([1] * k)
    design = block_design([(list(pair), group) for pair in pairs])
    design.family = "paired"
    return design


def cluster_design(clusters: Sequence[Sequence[int]], cluster_level: Design) -> Design:
    """All units in a cluster share the arm drawn for the cluster."""
    m = len(clusters)
    if cluster_level.layout.n != m:
        raise InfeasibleSpecError(
            f"cluster-level design has n={cluster_level.layout.n}, expected {m} clusters"
        )
    k = cluster_level.layout.k
    clusters = [_ints(cl) for cl in clusters]
    n = _covered_units(clusters, "clusters must be disjoint and cover units 0..n-1")
    layout = IndexLayout(k, n)
    group = np.empty(n, dtype=int)
    for g, cl in enumerate(clusters):
        group[cl] = g

    p_frac = None
    if cluster_level.p_frac is not None:
        # each (arm, unit) reads the tables at its (arm, cluster) of the cluster
        # level, whose units are the clusters: the tables carry over unchanged
        level = _as_classes(cluster_level.p_frac, cluster_level.layout)
        flat = np.arange(layout.kn)
        to_level = cluster_level.layout.flat(flat // n, group[flat % n])
        pat, kn_level = level.pattern, cluster_level.layout.kn
        pattern = ClassPattern(pat.classes[to_level], pat.units[to_level],
                               pat.blocks[to_level], pat.size)
        carrier = np.concatenate([level.carrier[:kn_level][to_level], level.carrier[kn_level:]])
        p_frac = _stored(ClassMatrix(pattern, carrier, level.book))

    def enumerator() -> Support:
        # take keeps rows C-contiguous (arms[:, group] would not): float sums over
        # indicator batches built from the rows depend on their memory order
        level = cluster_level._enumerate()
        return Support(level.arms.take(group, axis=1), level.probs)

    def sampler(rng: np.random.Generator) -> np.ndarray:
        return cluster_level.draw(rng)[group]

    return Design(
        layout=layout,
        family="cluster",
        sampler=sampler,
        p_frac=p_frac,
        support_size=cluster_level.support_size,
        enumerator=enumerator,
    )


def custom_design(
    layout: IndexLayout,
    support: Sequence[tuple[Sequence[int], object]] | None = None,
    sampler: Callable[[np.random.Generator], np.ndarray] | None = None,
    *,
    mc_replicates: int = 10000,
    seed: int | None = None,
) -> Design:
    """Design given directly by an enumerated support or by a sampler, not both.

    A support gets an exact rational p, pi its diagonal, and a sampler that
    draws one of its points.  A sampler-only design is the one design that
    estimates its moments: with a ``seed`` it counts ``mc_replicates``
    draws from the child generators ``default_rng((seed, rep))`` at build
    time into ``moments`` = (p, p se), and everything derived from them is
    flagged as estimated.  Without a seed it still draws, but asking for
    its pi or p raises ValidationError.  Wrapping a composite's sampler,
    ``custom_design(d.layout, sampler=d.draw, seed=s, mc_replicates=r)``,
    estimates the moments of a block or cluster over sampler-only parts.
    """
    if (support is None) == (sampler is None):
        raise InfeasibleSpecError("custom design needs a support or a sampler, not both")
    if sampler is not None:
        design = Design(layout=layout, family="custom", sampler=sampler)
        if seed is not None:
            design.moments = _empirical_moments(design, seed, mc_replicates)
        return design
    rows = []
    for arms, _ in support:
        try:
            rows.append(_ints(arms))
        except (TypeError, ValidationError) as exc:
            raise ValidationError(
                f'custom support entry field "arms" is malformed: {arms!r}') from exc
    try:
        arms = np.array(rows, dtype=int)
    except ValueError as exc:
        raise LayoutMismatchError(
            f"custom support assignments must each give one integer arm per unit: {exc}"
        ) from exc
    probs = [_as_fraction(prob) for _, prob in support]
    sup = Support(arms, ExactMatrix.of([p.numerator for p in probs],
                                       den=[p.denominator for p in probs]))
    design = Design(layout=layout, family="custom",
                    sampler=lambda rng: sup.arms[rng.choice(len(sup), p=sup.draw_probs)].copy(),
                    support_size=len(sup), enumerator=lambda: sup)
    design._enumerate()  # a given support is checked at build time
    # p sums prob * outer(indicators) over the support: an integer matmul over
    # the common denominator, in int64 while the (positive) weights sum below
    # 2**62, divided by the weights' exact total so each unit's row sums to 1
    weights, _, total = _integer_weights(sup.probs)
    weights = weights.astype(np.int64 if total < 2**62 else object)[sup.probs.codes]
    ind = arms_to_indicators(sup.arms, layout).astype(np.int64)
    counts = (ind.T * weights) @ ind
    uniq, inverse = np.unique(counts, return_inverse=True)
    design.p_frac = ExactMatrix.of(uniq, inverse.reshape(counts.shape), total)
    return design


_REQUIRED = object()


def spec_field(doc, key: str, what: str, default=_REQUIRED, cast=None):
    """Field ``key`` of the JSON object ``doc``, passed through ``cast``.

    A missing (or null) field gives ``default``.  A non-object ``doc``, a
    missing field without a default and a value ``cast`` rejects (with
    TypeError, ValueError or ValidationError) each raise ValidationError
    naming ``what`` and the field; a rejected value's message ends with
    the reason, such as a CSV reader's file and row.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValidationError(f'{what} needs a "{key}" field')
        return default
    if cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f'{what} field "{key}" is malformed: {value!r} ({exc})') from exc


def _listed(value, item=lambda v: v) -> list:
    """A JSON list (or tuple), each entry passed through ``item``."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return [item(v) for v in value]


def spec_int(value) -> int:
    """An integer field or argument: 2 and 2.0 give 2; a bool, a
    non-integral number or a non-number (a numeric string among them)
    raises ValidationError rather than being truncated or parsed."""
    if isinstance(value, (bool, np.bool_, str, bytes)) or (
        isinstance(value, (float, np.floating)) and not float(value).is_integer()
    ):
        raise ValidationError(f"expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"expected an integer, got {value!r}") from exc


def _ints(value) -> list[int]:
    """A list of integers, from a JSON list, a tuple or an array: checked as
    one row when every entry is a plain int, as JSON gives them, and entry
    by entry otherwise."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)) and {int}.issuperset(map(type, value)):
        return list(value)
    return _listed(value, spec_int)


def _rationals(value):
    """A probability, or (nested) lists of them, as Fractions."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_rationals(v) for v in value]
    return _as_fraction(value)


def build_design(spec: dict) -> Design:
    """Build a design from its JSON-shaped description.

    See docs/formats.md for the schema.  The top-level spec's
    "support_cap" is read once and set on the design returned; sub-specs'
    caps are not read.  Fields a family does not read are ignored.
    """
    cap = spec_field(spec, "support_cap", "design spec", DEFAULT_SUPPORT_CAP, spec_int)
    if cap < 0:
        raise ValidationError(f'design spec field "support_cap" must be >= 0, got {cap}')
    design = _built(spec, cap)
    design.support_cap = cap
    return design


def _built(spec: dict, cap: int) -> Design:
    """The design ``spec`` describes; a custom support, whole or a block
    part, of more than ``cap`` points is refused."""
    what = "design spec"
    family = spec_field(spec, "type", what, None)
    inherited = {"k": spec["k"]} if spec.get("k") is not None else {}  # k passes down to sub-specs
    if family == "bernoulli":
        probs = spec_field(spec, "probs" if "probs" in spec else "p", what, cast=_rationals)
        k, n = (spec_field(spec, key, what, None, spec_int) for key in ("k", "n"))
        return bernoulli_design(probs, k=k, n=n)
    if family == "complete":
        d = complete_design(spec_field(spec, "counts", what, cast=_ints))
        if spec_field(spec, "n", what, d.layout.n, spec_int) != d.layout.n:
            raise InfeasibleSpecError(
                f"complete design arm counts sum to {d.layout.n}, not n={spec['n']}"
            )
        return d
    if family == "paired":
        pairs = spec_field(spec, "pairs", what, cast=lambda v: _listed(v, _ints))
        return paired_design(pairs, k=spec_field(spec, "k", what, 2, spec_int))
    if family == "block":
        built = []
        for sub in spec_field(spec, "blocks", what, cast=_listed):
            units = spec_field(sub, "units", 'design spec "blocks" entry', cast=_ints)
            built.append((units, _built({**inherited, "n": len(units), **sub}, cap)))
        return block_design(built)
    if family == "cluster":
        clusters = spec_field(spec, "clusters", what, cast=lambda v: _listed(v, _ints))
        # {**v} raises TypeError unless the cluster-level spec is an object
        sub = spec_field(spec, "cluster_design", what,
                         cast=lambda v: {**inherited, "n": len(clusters), **v})
        return cluster_design(clusters, _built(sub, cap))
    if family == "custom":
        layout = IndexLayout(spec_field(spec, "k", "custom spec", cast=spec_int),
                             spec_field(spec, "n", "custom spec", cast=spec_int))
        parsed = [(spec_field(entry, "arms", "custom support entry"),
                   spec_field(entry, "prob", "custom support entry", cast=_as_fraction))
                  for entry in spec_field(spec, "support", what, cast=_listed)]
        if len(parsed) > cap:
            raise SupportOverflowError(
                f"custom support has {len(parsed)} points, above the cap {cap}")
        return custom_design(layout, parsed)
    raise InfeasibleSpecError(f"unknown design type {family!r}")


# ---------------------------------------------------------------------------
# moments


def _empirical_moments(design: Design, seed: int, reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo (p, p se) from ``reps`` seeded replicate draws."""
    if reps < 1:
        raise ValidationError(f"mc_replicates must be >= 1, got {reps}")
    kn = design.layout.kn
    p_sum = np.zeros((kn, kn))
    for mat in design.replicate_indicators(seed, reps):
        p_sum += mat.T @ mat
    p_hat = p_sum / reps
    return p_hat, np.sqrt(np.clip(p_hat * (1 - p_hat), 0, None) / reps)


def inclusion_probabilities(design: Design) -> PiDiagonal:
    """Marginal assignment probabilities, p's diagonal: exact where p is."""
    joint = design.joint
    if design.p_frac is None:  # a Monte Carlo estimate, with its se
        return PiDiagonal(design.layout, np.diagonal(joint).copy(), estimated=True,
                          se=np.diagonal(design.moments[1]).copy())
    frac = joint.diagonal()
    return PiDiagonal(design.layout, frac.to_float(), frac=frac)


def joint_probabilities(design: Design) -> JointProbMatrix:
    """Joint assignment probabilities, exact where the family allows."""
    joint = design.joint
    if design.p_frac is None:  # a Monte Carlo estimate, with its se
        return JointProbMatrix(design.layout, joint, estimated=True, se=design.moments[1])
    return JointProbMatrix(design.layout, joint.to_float(), frac=joint)


def first_order_design_matrix(design: Design) -> tuple[DesignMatrix, ImpossibilityMask]:
    """Normalized covariance matrix of the weighted assignment indicators,
    with its impossibility mask.

    Entry (a, b) is p_ab / (pi_a pi_b) - 1, exact where p is, and over p's
    class tables where p has them.  Impossible joint assignments (p_ab = 0)
    carry exactly -1, and the mask returned is ``dmat.mask``, read off d.
    """
    pi = inclusion_probabilities(design)  # raises if non-identified
    joint = design.joint
    d, d_frac = elementwise(lambda pab, pa, pb: pab / (pa * pb) - 1, joint, *_outer_pair(joint))
    dmat = DesignMatrix(design.layout, d, frac=d_frac, estimated=pi.estimated)
    return dmat, dmat.mask
