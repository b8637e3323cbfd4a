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
on first read, up to the design's ``support_cap``.
An exact matrix (ExactMatrix) is an integer code array over a Codebook
of distinct rationals, held as integer numerator/denominator arrays with
their correctly rounded floats; its floats are a view, floats[codes],
and Fractions are made only when entries are indexed.  That is what
makes entries like -1/3 or exact -1 reproducible bit-for-bit.  Formulas
over such matrices are written once, as array expressions, and run once
through ``elementwise``: on exact rationals, one entry per distinct
tuple of operand values, or on the floats when an operand has no exact
values.  A formula must therefore be branch-free.

A design's one probability state is its joint matrix p_ab = E[R_a R_b];
indicators are 0/1, so the inclusion probabilities pi are p's diagonal.
Only a sampler-only custom design estimates p, by Monte Carlo at build
time (``custom_design(..., sampler=..., seed=..., mc_replicates=...)``),
as ``moments`` = (p, p se); pi and its se are their diagonals.  A block
or cluster design over such a part builds and draws but carries no
moments; estimate them by wrapping its sampler the same way:
``custom_design(d.layout, sampler=d.draw, seed=s, mc_replicates=r)``.

Support points and replicate draws reach the rest of the package as
indicator batches (``support_indicators``, ``replicate_indicators``).
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
    SupportOverflowError,
    ValidationError,
)

DEFAULT_SUPPORT_CAP = 10**6
BATCH_BYTES = 2**18  # bytes per float temporary of every batched loop


def batch_rows(width: int) -> int:
    """Rows of ``width`` floats that fit one batch: every batched loop over
    draws, support points or tensor rows takes this many rows at a time."""
    return max(1, BATCH_BYTES // (8 * width))


class Codebook:
    """Distinct exact rationals as reduced integer parts, with their floats.

    ``num`` and ``den`` are object arrays of Python ints, ``den`` positive,
    and ``floats`` holds ``num / den``: integer true division is correctly
    rounded, so each float is the one ``float(Fraction)`` gives.
    ``fractions`` makes the same values as Fractions on first use.
    """

    def __init__(self, num: np.ndarray, den: np.ndarray):
        self.num, self.den = num, den
        self.floats = (num / den).astype(float)

    def __len__(self) -> int:
        return len(self.num)

    @cached_property
    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.num.tolist(), self.den.tolist()))


@dataclass(frozen=True, eq=False)
class ExactMatrix:
    """Exact rational array: integer codes into a Codebook of distinct rationals.

    ``m[a][b]`` and ``m[a, b]`` are Fractions, each made from its codebook
    entry's integer parts when asked for; ``values`` is the whole codebook
    as Fractions, made once.  Slices are ExactMatrix views over the same
    codebook, and iterating a matrix yields its rows.
    """

    codes: np.ndarray
    book: Codebook

    @classmethod
    def of(cls, num, codes=None, den=1) -> "ExactMatrix":
        """Codes into the rationals ``num / den`` (``den`` positive; one value
        per code when ``codes`` is omitted), reduced and deduplicated: the
        codebook keeps distinct values in first-seen order."""
        num, den = np.asarray(num, dtype=object), np.asarray(den, dtype=object)
        g = np.gcd(num, den)  # broadcast: num // g and den // g have the full shape
        first: dict[tuple[int, int], int] = {}
        pairs = zip((num // g).ravel().tolist(), (den // g).ravel().tolist())
        remap = np.array([first.setdefault(pair, len(first)) for pair in pairs], dtype=np.intp)
        codes = np.arange(len(remap)) if codes is None else np.asarray(codes, dtype=np.intp)
        return cls(remap[codes], Codebook(*np.array(list(first), dtype=object).reshape(-1, 2).T))

    @property
    def values(self) -> tuple[Fraction, ...]:
        return self.book.fractions

    def to_float(self) -> np.ndarray:
        return self.book.floats[self.codes]

    def __getitem__(self, index):
        codes = self.codes[index]
        if np.ndim(codes) == 0:
            return Fraction(self.book.num[codes], self.book.den[codes])
        return ExactMatrix(codes, self.book)

    def __iter__(self):
        return (self[i] for i in range(len(self.codes)))


class _Rationals:
    """Exact rational arrays for formulas: Python-int numerators and positive
    denominators in object arrays, reduced only by ``ExactMatrix.of``.

    Supports ``+ - * /``, unary ``-``, ``abs`` and ``== !=`` (which give 0/1
    rationals), mixed with integers, bools and integer arrays.  Using one
    as a truth value raises TypeError: formulas must be branch-free.
    """

    __array_ufunc__ = None  # numpy operands defer to the reflected methods here

    def __init__(self, num, den):
        self.num, self.den = np.asarray(num, dtype=object), np.asarray(den, dtype=object)

    @staticmethod
    def lift(x) -> "_Rationals":
        if isinstance(x, _Rationals):
            return x
        if isinstance(x, (int, np.integer, np.bool_)):
            return _Rationals(int(x), 1)
        if isinstance(x, np.ndarray) and x.dtype.kind in "biu":
            return _Rationals(x.astype(object), 1)
        raise TypeError(f"exact formulas combine only with integers and bools, not {x!r}")

    def _pair(self, other):
        other = _Rationals.lift(other)
        return self.num, self.den, other.num, other.den

    def __add__(self, other):
        a, b, c, d = self._pair(other)
        return _Rationals(a * d + c * b, b * d)

    def __sub__(self, other):
        a, b, c, d = self._pair(other)
        return _Rationals(a * d - c * b, b * d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b, c, d = self._pair(other)
        return _Rationals(a * c, b * d)

    def __truediv__(self, other):
        a, b, c, d = self._pair(other)
        if np.any(c == 0):
            raise ZeroDivisionError("exact division by zero")
        sign = np.where(c < 0, -1, 1).astype(object)
        return _Rationals(a * d * sign, b * c * sign)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return _Rationals(-self.num, self.den)

    def __abs__(self):
        return _Rationals(abs(self.num), self.den)

    def __eq__(self, other):
        a, b, c, d = self._pair(other)
        return _Rationals(a * d == c * b, 1)

    def __ne__(self, other):
        a, b, c, d = self._pair(other)
        return _Rationals(a * d != c * b, 1)

    def __bool__(self):
        raise TypeError("an exact formula must be a branch-free array expression")


def elementwise(fn, *operands) -> tuple[np.ndarray, ExactMatrix | None]:
    """``fn`` applied entrywise to broadcast operands, as (floats, exact values).

    ``fn`` runs once, as an array expression.  When every operand is an
    ExactMatrix it runs on exact rationals, one entry per distinct tuple
    of operand codes, and the result is exact, its codebook in the order
    of those tuples.  The distinct tuples, in ascending order, come from a
    presence table when the tuple key space is no larger than the entry
    count, and from a sort otherwise.  When an operand is not exact, ``fn``
    runs on the float arrays and there are no exact values.  Callers
    write their formula once through it instead of branching on
    exactness, so a formula must be branch-free: ``+ - * /``, ``abs`` and
    comparisons, mixed with integers.  They may still rearrange operand
    codes (``_outer_pair`` sorts the codes of a symmetric pair so it is
    evaluated once).
    """
    if not all(isinstance(op, ExactMatrix) for op in operands):
        floats = [op.to_float() if isinstance(op, ExactMatrix) else op for op in operands]
        return np.asarray(fn(*floats), dtype=float), None
    shape = np.broadcast_shapes(*(op.codes.shape for op in operands))
    space = math.prod(len(op.book) for op in operands)
    # one integer key per entry, mixed-radix over the operand codebooks
    key, radix = np.zeros(shape, dtype=np.int64), 1
    for op in operands:
        if radix * len(op.book) >= 2**62:  # renumber densely before it overflows
            key = np.unique(key, return_inverse=True)[1].reshape(shape)
            radix = int(key.max()) + 1
        key, radix = key * len(op.book) + op.codes, radix * len(op.book)
    key = key.ravel()
    # a key space no larger than the entry count was never renumbered: rank its
    # keys through a presence table instead of a sort, and decode them to codes
    if space <= len(key):
        present = np.zeros(space, dtype=bool)
        present[key] = True
        inverse = (np.cumsum(present) - 1)[key]
        rest, picks = np.flatnonzero(present), []
        for op in reversed(operands):  # the last operand is the lowest digit
            rest, pick = np.divmod(rest, len(op.book))
            picks.insert(0, pick)
    else:
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        picks = [np.broadcast_to(op.codes, shape).ravel()[first] for op in operands]
    args = [_Rationals(op.book.num[pick], op.book.den[pick]) for op, pick in zip(operands, picks)]
    result = _Rationals.lift(fn(*args))
    exact = ExactMatrix.of(result.num, inverse.reshape(shape), result.den)
    return exact.to_float(), exact


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
        if np.any(self.probs <= 0.0) or np.any(self.probs >= 1.0):
            bad = int(np.argmin(np.minimum(self.probs, 1.0 - self.probs)))
            arm, unit = divmod(bad, self.layout.n)
            raise NonIdentifiedDesignError(
                "non-identified design: inclusion probability at flat index "
                f"{bad} (arm {arm}, unit {unit}) "
                f"is {self.probs[bad]}, outside (0, 1)"
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


@dataclass(eq=False)
class DesignMatrix:
    """First-order design matrix: covariance of the inverse-probability
    weighted assignment indicators, normalized elementwise."""

    layout: IndexLayout
    d: np.ndarray
    frac: ExactMatrix | None = None
    estimated: bool = False

    def __post_init__(self):
        self.d = self.layout.check_matrix(self.d, "design matrix")


@dataclass(eq=False)
class ImpossibilityMask:
    """0/1 matrix marking pairs of assignments with joint probability zero."""

    layout: IndexLayout
    mask: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask)
        if self.mask.shape != (self.layout.kn, self.layout.kn):
            raise LayoutMismatchError("mask shape does not match layout")
        self.mask = (self.mask != 0).astype(float)


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


def _checked_support(support: Support, layout: IndexLayout) -> Support:
    """``support`` once its probabilities are positive and sum to 1 and its
    rows give each unit an arm of the layout."""
    arms, probs = support.arms, support.probs
    if not len(arms):
        raise ValidationError("an enumerated support needs at least one point")
    # exact sum and sign, once per distinct probability
    counts = np.bincount(probs.codes, minlength=len(probs.book))
    used = counts > 0
    num, den = probs.book.num[used], probs.book.den[used]
    common = math.lcm(*den.tolist())
    total = sum((num * (common // den) * counts[used].astype(object)).tolist()) / common
    if abs(total - 1.0) > 1e-12:
        raise ValidationError(f"support probabilities sum to {total}, not 1")
    if np.any(probs.book.floats[used] <= 0.0):
        raise ValidationError("support probabilities must be positive")
    layout.check_arms(arms, rows=probs.codes.shape)
    return support


@dataclass(eq=False)
class Design:
    """A randomization design.

    ``p_frac`` is the exact joint matrix; ``moments`` holds the estimated
    (p, p se) of a sampler-only custom design built with a seed, and is
    None otherwise.  Inclusion probabilities are p's diagonal, so nothing
    computed from p needs the support.  Assignments are drawn from
    ``sampler`` when there is one.

    ``support`` is enumerated by ``enumerator``, validated and cached on
    first read.  It reads as None, without enumerating, when
    ``support_size`` is None (a part has only a sampler) or above
    ``support_cap``; a consumer that cannot run without it asks through
    ``enumerated``, which raises SupportOverflowError instead.
    """

    layout: IndexLayout
    family: str
    sampler: Callable[[np.random.Generator], np.ndarray] | None = None
    p_frac: ExactMatrix | None = None
    support_size: int | None = None
    support_cap: int = DEFAULT_SUPPORT_CAP
    enumerator: Callable[[], Support] | None = field(default=None, repr=False)
    moments: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _support: Support | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.sampler is None and self.enumerator is None:
            raise ValidationError("a design needs a sampler or an enumerable support")

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

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one assignment (arm-per-unit vector)."""
        if self.sampler is not None:
            return self.sampler(rng)
        support = self.support
        return support.arms[rng.choice(len(support), p=support.draw_probs)].copy()

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
    """``x`` as an exact rational; a float keeps its exact binary value."""
    if isinstance(x, Fraction):
        return x
    value = x.item() if isinstance(x, np.generic) else x
    try:
        if isinstance(value, (str, int, float)):
            return Fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError):
        pass
    raise ValidationError(f"cannot interpret {x!r} as a probability")


def _pair_indicators(layout: IndexLayout) -> tuple[ExactMatrix, ExactMatrix]:
    """0/1 matrices marking flat index pairs (a, b) in the same unit / arm."""
    flat = np.arange(layout.kn)
    unit, arm = flat % layout.n, flat // layout.n
    return (
        ExactMatrix.of((0, 1), unit[:, None] == unit[None, :]),
        ExactMatrix.of((0, 1), arm[:, None] == arm[None, :]),
    )


def _embed(codes: np.ndarray, pieces, books=(), *, reached_only: bool = False) -> ExactMatrix:
    """``codes`` over the concatenated ``books``, with each (index, ExactMatrix)
    piece written in.

    With ``reached_only`` the codebook is first cut to the entries whose
    float equals that of an entry some code reaches, in codebook order.
    Every occurrence of a reached value survives the cut, so the reached
    values keep the order the whole codebooks give them, and the entries
    of a large codebook that no code reaches are never deduplicated.
    """
    books = list(books)
    offset = sum(map(len, books))
    for index, piece in pieces:
        codes[index] = piece.codes + offset
        books.append(piece.book)
        offset += len(piece.book)
    num, den = (np.concatenate([getattr(b, part) for b in books]) for part in ("num", "den"))
    if reached_only:
        floats = np.concatenate([b.floats for b in books])
        reached = np.sort(floats[codes])
        keep = reached[np.searchsorted(reached, floats).clip(max=len(reached) - 1)] == floats
        codes, num, den = (np.cumsum(keep) - 1)[codes], num[keep], den[keep]
    return ExactMatrix.of(num, codes, den)


def _outer_pair(v: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """``v[:, None]`` and ``v[None, :]`` with each pair's codes sorted, so a
    formula symmetric in the two evaluates entries (a, b) and (b, a) once."""
    a, b = v.codes[:, None], v.codes[None, :]
    return ExactMatrix(np.minimum(a, b), v.book), ExactMatrix(np.maximum(a, b), v.book)


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
    *,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> Design:
    """Independent per-unit assignment.

    ``probs`` may be a scalar (two arms, probability of arm 1), a length-k
    vector shared by all units, or an n x k matrix of per-unit arm
    probabilities.  Rows must sum to 1.

    This is the block design whose blocks are single units: each unit is
    a one-unit part over its arms of positive probability, so the support
    size is the number of assignments with positive probability.  Only
    the sampler is Bernoulli's own, drawing every unit in one vector step.
    """
    def _is_scalar(x) -> bool:
        return isinstance(x, (int, float, np.integer, np.floating, Fraction, str))

    k, n = (None if v is None else spec_int(v) for v in (k, n))
    if _is_scalar(probs):
        if k not in (None, 2):
            raise InfeasibleSpecError("scalar probability implies k=2")
        if n is None:
            raise InfeasibleSpecError("scalar probability requires explicit n")
        p1 = _as_fraction(probs)
        table = [(1 - p1, p1)] * n
        k = 2
    else:
        arr = list(probs)
        if not arr:
            raise InfeasibleSpecError("empty probability spec")
        if _is_scalar(arr[0]):
            # one length-k row shared across all units
            if n is None:
                raise InfeasibleSpecError("shared arm probabilities require explicit n")
            table = [tuple(_as_fraction(x) for x in arr)] * n
        else:
            table = [tuple(_as_fraction(x) for x in row) for row in arr]
            if n is not None and len(table) != n:
                raise InfeasibleSpecError("probs row count disagrees with n")
            n = len(table)
        k = len(table[0]) if k is None else k
        if any(len(row) != k for row in table):
            raise InfeasibleSpecError("every probability row must have length k")
    layout = IndexLayout(k, n)
    # float rows need not sum to exactly 1 in binary: normalize each distinct
    # row exactly, once, so the support is a probability measure whose marginals are pi
    normalized = {}
    for i, row in enumerate(table):
        if row not in normalized:
            total = sum(row)
            if abs(float(total) - 1.0) > 1e-12:
                raise InfeasibleSpecError(f"arm probabilities for unit {i} do not sum to 1")
            if any(float(x) < 0 for x in row):
                raise InfeasibleSpecError("arm probabilities must be nonnegative")
            normalized[row] = tuple(x / total for x in row)
    table = [normalized[row] for row in table]

    # one one-unit part per distinct row, over its arms of positive probability
    parts = {}
    for row in table:
        if row not in parts:
            arms = [r for r in range(k) if row[r] > 0]
            parts[row] = custom_design(IndexLayout(k, 1), [([r], row[r]) for r in arms])
    design = block_design([([i], parts[row]) for i, row in enumerate(table)],
                          support_cap=support_cap)

    probs_float = np.array([[float(x) for x in row] for row in table])

    def sampler(rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        cum = np.cumsum(probs_float, axis=1)
        return (u[:, None] > cum).sum(axis=1)

    design.family, design.sampler = "bernoulli", sampler
    return design


def _multinomial(counts: Sequence[int]) -> int:
    total = math.factorial(sum(counts))
    for c in counts:
        total //= math.factorial(c)
    return total


def _arm_sequences(counts: Sequence[int]) -> np.ndarray:
    """Every arm-per-unit row with counts[r] units in arm r, in lexicographic order."""
    arms = np.empty((1, 0), dtype=int)
    left = np.array([counts])  # units still to place in each arm, per prefix
    for _ in range(sum(counts)):
        prefix, arm = np.nonzero(left)  # prefixes in order, arms ascending within each
        arms = np.column_stack([arms[prefix], arm])
        left = left[prefix]
        left[np.arange(len(arm)), arm] -= 1
    return arms


def complete_design(
    counts: Sequence[int],
    *,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> Design:
    """Completely randomized assignment with fixed arm sizes."""
    counts = [spec_int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise InfeasibleSpecError("arm counts must be nonnegative")
    n = sum(counts)
    k = len(counts)
    layout = IndexLayout(k, n)

    # arm size of each flat index; a unit is in one arm, with probability n_a / n,
    # and two units in arms a, b with probability n_a (n_b - [same arm]) / (n (n - 1));
    # n = 1 has no second unit, so its divisor only needs to be nonzero
    sizes = ExactMatrix.of(counts, np.repeat(np.arange(k), n))
    _, p_frac = elementwise(
        lambda na, nb, same_unit, same_arm: same_unit * same_arm * na / n
        + (1 - same_unit) * na * (nb - same_arm) / (n * max(n - 1, 1)),
        sizes[:, None], sizes[None, :], *_pair_indicators(layout),
    )

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
        support_cap=support_cap,
        enumerator=enumerator,
    )


def block_design(
    blocks: Sequence[tuple[Sequence[int], Design]],
    *,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> Design:
    """Independent sub-designs over disjoint unit sets.

    Marginal and joint probabilities are assembled blockwise (cross-block
    joints are products of marginals), so the product support never needs
    to be enumerated just to obtain pi, p, or the design matrix.  Paired
    and Bernoulli designs are built through it; ``support_cap`` bounds the
    product of the blocks' support sizes.
    """
    if not blocks:
        raise InfeasibleSpecError("block design needs at least one block")
    k = blocks[0][1].layout.k
    unit_sets = []
    for units, sub in blocks:
        if sub.layout.k != k:
            raise InfeasibleSpecError("all blocks must share the same arm count")
        units = [int(u) for u in units]
        if len(units) != sub.layout.n:
            raise InfeasibleSpecError(
                f"block lists {len(units)} units but its design has n={sub.layout.n}"
            )
        unit_sets.append(units)
    flat_units = sorted(u for us in unit_sets for u in us)
    n = len(flat_units)
    if flat_units != list(range(n)):
        raise InfeasibleSpecError(
            "block unit sets must be disjoint and cover units 0..n-1"
        )
    layout = IndexLayout(k, n)

    p_frac = None
    if all(sub.p_frac is not None for _, sub in blocks):
        # flat indices of each block, in its sub-design's own arm-major order
        flats = [np.array([layout.flat(r, u) for r in range(k) for u in us]) for us in unit_sets]
        subs = [sub for _, sub in blocks]
        # independent across blocks: joints are products of the marginals, which
        # are the parts' p diagonals (read directly: a part may have pi = 0)
        marginals = (s.p_frac[np.diag_indices(s.layout.kn)] for s in subs)
        pi = _embed(np.empty(layout.kn, dtype=np.intp), zip(flats, marginals), reached_only=True)
        _, across = elementwise(operator.mul, *_outer_pair(pi))
        within = [(np.ix_(idx, idx), sub.p_frac) for idx, sub in zip(flats, subs)]
        p_frac = _embed(across.codes.copy(), within, [across.book])

    sizes = [sub.support_size for _, sub in blocks]
    size = None if None in sizes else math.prod(sizes)

    def enumerator() -> Support:
        return _product_support([(np.array(units), sub._enumerate())
                                 for units, (_, sub) in zip(unit_sets, blocks)], n)

    def sampler(rng: np.random.Generator) -> np.ndarray:
        arms = np.empty(n, dtype=int)
        for units, sub in blocks:
            arms[np.asarray(units, dtype=int)] = sub.draw(rng)
        return arms

    return Design(
        layout=layout,
        family="block",
        sampler=sampler,
        p_frac=p_frac,
        support_size=size,
        support_cap=support_cap,
        enumerator=enumerator,
    )


def paired_design(
    pairs: Sequence[Sequence[int]],
    k: int = 2,
    *,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> Design:
    """Matched groups of size k; within each group one unit goes to each arm.

    A block design of one k-unit complete design per group, so
    ``support_cap`` bounds the whole support of k!**groups points.
    """
    k = spec_int(k)
    for pair in pairs:
        if len(pair) != k:
            raise InfeasibleSpecError(
                f"each matched group must have exactly k={k} units, got {list(pair)}"
            )
    # one complete design shared by every group; the caller's cap applies to the product
    group = complete_design([1] * k)
    design = block_design([(list(pair), group) for pair in pairs], support_cap=support_cap)
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
    flat_units = sorted(u for cl in clusters for u in cl)
    n = len(flat_units)
    if flat_units != list(range(n)):
        raise InfeasibleSpecError("clusters must be disjoint and cover units 0..n-1")
    layout = IndexLayout(k, n)
    group = np.empty(n, dtype=int)
    for g, cl in enumerate(clusters):
        group[np.asarray(cl, dtype=int)] = g

    p_frac = None
    if cluster_level.p_frac is not None:
        # flat index of each (arm, unit) in the cluster-level design
        flat = np.arange(layout.kn)
        to_cluster = cluster_level.layout.flat(flat // n, group[flat % n])
        p_frac = cluster_level.p_frac[np.ix_(to_cluster, to_cluster)]

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
        support_cap=cluster_level.support_cap,
        enumerator=enumerator,
    )


def custom_design(
    layout: IndexLayout,
    support: Sequence[tuple[Sequence[int], object]] | None = None,
    sampler: Callable[[np.random.Generator], np.ndarray] | None = None,
    *,
    support_cap: int = DEFAULT_SUPPORT_CAP,
    mc_replicates: int = 10000,
    seed: int | None = None,
) -> Design:
    """Design given directly by an enumerated support or by a sampler.

    Enumerated supports get an exact rational p; pi is its diagonal.  A
    sampler-only design is the one design that estimates its moments: with
    a ``seed`` it counts ``mc_replicates`` draws from the child generators
    ``default_rng((seed, rep))`` at build time into ``moments`` = (p, p se),
    and everything derived from them is flagged as estimated.  Without a
    seed it still draws, but asking for its pi or p raises ValidationError.
    Wrapping a composite's sampler,
    ``custom_design(d.layout, sampler=d.draw, seed=s, mc_replicates=r)``,
    estimates the moments of a block or cluster over sampler-only parts.
    """
    if support is None and sampler is None:
        raise InfeasibleSpecError("custom design needs a support or a sampler")
    sup = None
    if support is not None:
        if len(support) > support_cap:
            raise SupportOverflowError(
                f"custom support has {len(support)} points, above the cap {support_cap}"
            )
        try:
            arms = np.array([arms for arms, _ in support], dtype=int)
        except ValueError as exc:
            raise LayoutMismatchError(
                f"custom support assignments must each give one integer arm per unit: {exc}"
            ) from exc
        probs = [_as_fraction(prob) for _, prob in support]
        sup = Support(arms, ExactMatrix.of([p.numerator for p in probs],
                                           den=[p.denominator for p in probs]))
    if sup is None:
        design = Design(layout=layout, family="custom", sampler=sampler)
        if seed is not None:
            design.moments = _empirical_moments(design, seed, mc_replicates)
        return design
    design = Design(layout=layout, family="custom", sampler=sampler, support_size=len(sup),
                    support_cap=support_cap, enumerator=lambda: sup)
    design._enumerate()  # a given support is checked at build time
    # p sums prob * outer(indicators) over the support: an integer matmul over
    # the common denominator, in int64 while the (positive) weights sum below 2**62
    book = sup.probs.book
    denom = math.lcm(*book.den.tolist())
    weights = (book.num * (denom // book.den)).tolist()
    total = sum(w * int(c) for w, c in zip(weights, np.bincount(sup.probs.codes)))
    weights = np.array(weights, dtype=np.int64 if total < 2**62 else object)[sup.probs.codes]
    ind = arms_to_indicators(sup.arms, layout).astype(np.int64)
    counts = (ind.T * weights) @ ind
    uniq, inverse = np.unique(counts, return_inverse=True)
    design.p_frac = ExactMatrix.of(uniq.astype(object), inverse.reshape(counts.shape), denom)
    return design


_REQUIRED = object()


def spec_field(doc, key: str, what: str, default=_REQUIRED, cast=None):
    """Field ``key`` of the JSON object ``doc``, passed through ``cast``.

    A missing (or null) field gives ``default``.  A non-object ``doc``, a
    missing field without a default and a value ``cast`` rejects (with
    TypeError, ValueError or ValidationError) each raise ValidationError
    naming ``what`` and the field.
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
        raise ValidationError(f'{what} field "{key}" is malformed: {value!r}') from exc


def _listed(value, item=lambda v: v) -> list:
    """A JSON list (or tuple), each entry passed through ``item``."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return [item(v) for v in value]


def spec_int(value) -> int:
    """An integer field or argument: 2 and 2.0 give 2; a bool, a
    non-integral number or a non-number raises ValidationError rather than
    being truncated."""
    if isinstance(value, (bool, np.bool_)) or (
        isinstance(value, (float, np.floating)) and not float(value).is_integer()
    ):
        raise ValidationError(f"expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"expected an integer, got {value!r}") from exc


def _ints(value) -> list[int]:
    return _listed(value, spec_int)


def _rationals(value):
    """A probability, or (nested) lists of them, as Fractions."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_rationals(v) for v in value]
    return _as_fraction(value)


def build_design(spec: dict, *, support_cap: int | None = None) -> Design:
    """Build a design from its JSON-shaped description.

    See docs/formats.md for the schema.  ``support_cap`` overrides the
    spec's own "support_cap" field when given.  Fields a family does not
    read are ignored.
    """
    what = "design spec"
    if not isinstance(spec, dict):
        raise ValidationError(f"{what} must be a JSON object")
    family = spec.get("type")
    if support_cap is None:
        support_cap = spec_field(spec, "support_cap", what, DEFAULT_SUPPORT_CAP, spec_int)
    inherited = {"k": spec["k"]} if spec.get("k") is not None else {}  # k passes down to sub-specs
    if family == "bernoulli":
        probs = spec_field(spec, "probs" if "probs" in spec else "p", what, cast=_rationals)
        k, n = (spec_field(spec, key, what, None, spec_int) for key in ("k", "n"))
        return bernoulli_design(probs, k=k, n=n, support_cap=support_cap)
    if family == "complete":
        d = complete_design(spec_field(spec, "counts", what, cast=_ints), support_cap=support_cap)
        if spec_field(spec, "n", what, d.layout.n, spec_int) != d.layout.n:
            raise InfeasibleSpecError(
                f"complete design arm counts sum to {d.layout.n}, not n={spec['n']}"
            )
        return d
    if family == "paired":
        pairs = spec_field(spec, "pairs", what, cast=lambda v: _listed(v, _ints))
        k = spec_field(spec, "k", what, 2, spec_int)
        return paired_design(pairs, k=k, support_cap=support_cap)
    if family == "block":
        built = []
        for sub in spec_field(spec, "blocks", what, cast=_listed):
            units = spec_field(sub, "units", 'design spec "blocks" entry', cast=_ints)
            sub = {**inherited, "n": len(units), **sub}
            built.append((units, build_design(sub, support_cap=support_cap)))
        return block_design(built, support_cap=support_cap)
    if family == "cluster":
        clusters = spec_field(spec, "clusters", what, cast=lambda v: _listed(v, _ints))
        # {**v} raises TypeError unless the cluster-level spec is an object
        sub = spec_field(spec, "cluster_design", what,
                         cast=lambda v: {**inherited, "n": len(clusters), **v})
        return cluster_design(clusters, build_design(sub, support_cap=support_cap))
    if family == "custom":
        layout = IndexLayout(spec_field(spec, "k", "custom spec", cast=spec_int),
                             spec_field(spec, "n", "custom spec", cast=spec_int))
        parsed = [(spec_field(entry, "arms", "custom support entry", cast=_ints),
                   spec_field(entry, "prob", "custom support entry", cast=_as_fraction))
                  for entry in spec_field(spec, "support", what, cast=_listed)]
        return custom_design(layout, parsed, support_cap=support_cap)
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


def _moments(design: Design, index) -> tuple[np.ndarray, ExactMatrix | None, np.ndarray | None]:
    """p at ``index`` as (floats, exact values, se): exact when the design
    has an exact p (se None), else its Monte Carlo estimate (frac None)."""
    if design.p_frac is not None:
        frac = design.p_frac[index]
        return frac.to_float(), frac, None
    if design.moments is None:
        raise ValidationError(
            f"{design.family} design has neither exact nor estimated moments; estimate them "
            "with custom_design(d.layout, sampler=d.draw, seed=s, mc_replicates=r)"
        )
    p_hat, p_se = design.moments
    return p_hat[index], None, p_se[index]


def inclusion_probabilities(design: Design) -> PiDiagonal:
    """Marginal assignment probabilities, p's diagonal: exact where p is."""
    probs, frac, se = _moments(design, np.diag_indices(design.layout.kn))
    return PiDiagonal(design.layout, probs, frac=frac, estimated=se is not None, se=se)


def joint_probabilities(design: Design) -> JointProbMatrix:
    """Joint assignment probabilities, exact where the family allows."""
    p, frac, se = _moments(design, ...)
    return JointProbMatrix(design.layout, p, frac=frac, estimated=se is not None, se=se)


def first_order_design_matrix(design: Design) -> tuple[DesignMatrix, ImpossibilityMask]:
    """Normalized covariance matrix of the weighted assignment indicators.

    Entry (a, b) is p_ab / (pi_a pi_b) - 1.  Impossible joint assignments
    (p_ab = 0, detected exactly, never by float comparison) carry exactly
    -1 and are reported in the companion mask.
    """
    pi = inclusion_probabilities(design)  # raises if non-identified
    p = joint_probabilities(design)
    pis, joint = pi.frac or pi.probs, p.frac or p.p
    pa, pb = _outer_pair(pis) if isinstance(pis, ExactMatrix) else (pis[:, None], pis[None, :])
    d, d_frac = elementwise(lambda pab, pa, pb: pab / (pa * pb) - 1, joint, pa, pb)
    mask, _ = elementwise(lambda pab: pab == 0, joint)
    return (
        DesignMatrix(design.layout, d, frac=d_frac, estimated=p.estimated),
        ImpossibilityMask(design.layout, mask),
    )
