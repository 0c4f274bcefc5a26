"""Shared domain types: norms, sample sets, and 0/1 condition functions.

Everything in this module is immutable after construction and safe to share
across threads. A SampleSet keeps read-only statistics, not the rows it reads.
"""

from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np


class InputError(ValueError):
    """Malformed or out-of-range input (bad values, unparsable files)."""


class DimensionMismatchError(ValueError):
    """Inputs that must agree on dimension or norm choice do not, or data
    that must be the rows a model was fitted on has other statistics."""


class DegenerateDomainError(ValueError):
    """Every sample sits at the origin, so radius ratios are undefined."""


class MetricUndefinedError(ValueError):
    """A ranking metric was requested on a single-class score set."""


@contextlib.contextmanager
def _naming(path):
    """Errors raised inside are about the file at ``path``: an InputError or
    DimensionMismatchError gets the prefix ``<path>: `` unless it has ``<path>:``."""
    try:
        yield
    except (InputError, DimensionMismatchError) as exc:
        if str(exc).startswith(f"{path}:"):
            raise
        raise type(exc)(f"{path}: {exc}") from None


class NormKind(enum.Enum):
    """Vector norm choice carried explicitly by every sample set."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @classmethod
    def from_string(cls, text: str) -> "NormKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise InputError(f"unknown norm {text!r}; expected l1, l2, or linf") from None


def _not_a_norm(norm) -> InputError:
    return InputError(f"norm must be a NormKind, got {norm!r}; convert a name with NormKind.from_string")


def norms(points: np.ndarray, kind: NormKind) -> np.ndarray:
    """Per-row norms of a (n, d) array. ``kind`` must be a NormKind, not a name.

    Each row's norm has the same bits whatever the array's layout, wherever
    the row starts and whichever rows come with it.
    """
    a = np.asarray(points, dtype=np.float64)
    if a.ndim != 2:
        raise InputError(f"expected a 2-D array of row vectors, got shape {a.shape}")
    # The l1 and linf temporaries are in C order, so numpy sums every row in
    # one order whatever the layout of the array it came from.
    if kind is NormKind.L1:
        return np.abs(a, order="C").sum(axis=1)
    if kind is NormKind.L2:
        # One dot product per row, with no n x d temporary. Its summation
        # order is fixed only for contiguous rows: a strided last axis is
        # copied to C order first.
        if a.strides[1] != a.itemsize:
            a = np.ascontiguousarray(a)
        return np.sqrt(np.vecdot(a, a))
    if kind is NormKind.LINF:
        return np.abs(a, order="C").max(axis=1)
    raise _not_a_norm(kind)


def _vector_norm(v: np.ndarray, kind: NormKind) -> float:
    """The norm of one 1-D float64 vector as a float, bitwise
    ``norms(v[None], kind)[0]``; an l2 norm builds no 2-D array."""
    if kind is not NormKind.L2:
        return float(norms(v[None], kind)[0])
    # v.dot(v) of a contiguous vector runs the dot loop that np.vecdot runs
    # per row; a strided vector is copied first, as in ``norms``.
    if v.strides[0] != v.itemsize:
        v = np.ascontiguousarray(v)
    return math.sqrt(v.dot(v))


def freeze(obj, **fields) -> None:
    """Set fields on a frozen dataclass, making each ndarray among them read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


# Values per block of rows: each block temporary is about 512 KB, small enough
# to stay in cache, and scratch memory does not grow with n.
_BLOCK_ELEMENTS = 1 << 16
# Parts summed in int64 buckets between folds into Python ints. A part adds at
# most one level of at most 2**53 units to a bucket (see ``_unit``), so 1023
# parts sum to less than 2**63 units, which int64 holds exactly.
_FOLD_PARTS = 1023
# Level units are powers of two from 2**-1074, the smallest subnormal, so every
# exact total is an integer in units of 2**-_UNIT_BITS.
_UNIT_BITS = 1074
# The largest level unit whose level sums, up to 2**53 units, fit in float64.
_TOP_UNIT = 1023 - 53


def _block_rows(d: int) -> int:
    """Rows of width d per block of about ``_BLOCK_ELEMENTS`` values; at least one."""
    return max(1, _BLOCK_ELEMENTS // max(1, d))


def _top(x: np.ndarray) -> float:
    """The largest |x| of a nonempty array from one min and one max; NaN
    propagates through both, so a non-finite entry makes it non-finite."""
    return max(-float(x.min()), float(x.max()))


def _unit(top: float, m: int) -> int:
    """The exponent of the unit of an extraction level of m rows whose
    largest |x| is at most ``top``: with top < 2**e, the unit is
    2**(e - bits), so that m multiples of it of at most 2**e sum to at most
    2**53 units, or 2**-_UNIT_BITS if that is larger; ``top`` is finite."""
    bits = 53 - max(2, (m - 1).bit_length())  # 2**(53 - bits) >= m rows
    return max(math.frexp(top)[1] - bits, -_UNIT_BITS)


def _units(x: float) -> int:
    """A finite float as an integer in units of 2**-_UNIT_BITS, exactly."""
    p, q = x.as_integer_ratio()  # q is a power of two of at most 2**_UNIT_BITS
    return p << (_UNIT_BITS + 1 - q.bit_length())


def _rounded(total: int, j: int) -> float:
    """Column j's exact total in units of 2**-_UNIT_BITS, correctly rounded."""
    try:
        return total / (1 << _UNIT_BITS)
    except OverflowError:
        raise InputError(f"the sum of column {j} overflows float64") from None


def _rounded_if_certain(total: int, rest: float, width: int) -> float | None:
    """The float that every point within ``width`` of total + rest rounds to,
    with total and width in units of 2**-_UNIT_BITS, or None if there is
    none: the two ends round apart, ``rest`` is not finite, or an end is
    beyond float64."""
    try:
        centre = total + _units(rest)
        low, high = (centre - width) / (1 << _UNIT_BITS), (centre + width) / (1 << _UNIT_BITS)
    except (OverflowError, ValueError):
        return None
    return low if low == high else None


def _split(x: np.ndarray, unit: int, out: np.ndarray, ones: np.ndarray | None = None):
    """Round x to multiples of u = 2**``unit``, a unit from ``_unit``; write
    the remainder, at most u/2, to ``out`` and return it, with the column
    sums of the rounded entries in units of u when ``ones`` is given.

    (x + S) - S with S = 1.5 * 2**52 * u rounds x to a multiple of u, and x
    minus that is exact too. The unit makes every partial sum of a rounded
    column exact, in any order, so one BLAS product with a ones vector sums
    them.
    """
    # Near float64's maximum, round x * 2**-scale. Scaling rounds only
    # entries that round to 0 there; they pass on unscaled.
    scale, y = max(0, unit - _TOP_UNIT), x
    if scale:
        with np.errstate(under="ignore"):
            y = x * 2.0**-scale
    split = 1.5 * 2.0**(52 + unit - scale)
    np.add(y, split, out=out)
    out -= split
    sums = None if ones is None else np.ldexp(ones @ out, scale - unit)
    if scale:
        out[...] = np.where(out == 0.0, x, (y - out) * 2.0**scale)
    else:
        np.subtract(x, out, out=out)
    return out, sums


class _ColumnSums:
    """Exact column sums of a finite (n, d) array fed in blocks of rows, by
    extraction level after level until no remainder is left: ``add`` each
    block, in any order and of any size, then read ``result``. It needs each
    row only once, so a file read in blocks is summed with it.

    Each level unit's column sums go into an int64 bucket, folded into d
    Python ints every ``_FOLD_PARTS`` parts, so its memory does not grow with n.
    """

    def __init__(self, d: int) -> None:
        self.d = d
        self.totals = [0] * d  # exact column sums in units of 2**-_UNIT_BITS
        self.acc = {}  # level unit exponent -> int64 column sums in that unit
        self.pending = 0  # parts added since the last fold
        # Block scratch, reused so that each block allocates nothing of its
        # size: two buffers that take turns holding the remainder, and the
        # ones vector that sums their columns.
        self.scratch = ()

    def add(self, block: np.ndarray, top: float | None = None) -> None:
        """Add a block's rows; ``top``, when given, is at least its largest |x|.
        Without it, non-finite entries are an InputError."""
        rows = _block_rows(self.d)
        for start in range(0, block.shape[0], rows):
            if self.pending >= _FOLD_PARTS:
                self._fold()
            part = block[start:start + rows]
            self._add(part, _require_finite(part) if top is None else top)
            self.pending += 1

    def _buffers(self, m: int):
        if not self.scratch or self.scratch[0].shape[0] < m:
            self.scratch = (np.empty((m, self.d)), np.empty((m, self.d)), np.ones(m))
        return (buf[:m] for buf in self.scratch)

    def _add(self, part: np.ndarray, top: float) -> None:
        """Split the block into levels of exact column sums, highest first,
        until the remainder is all zero."""
        hi, spare, ones = self._buffers(part.shape[0])
        x = part
        while top != 0.0:
            x = self._extract(x, _unit(top, x.shape[0]), hi, ones)
            hi, spare = spare, hi
            top = _top(x)

    def _extract(self, x: np.ndarray, unit: int, out: np.ndarray, ones: np.ndarray) -> np.ndarray:
        """Add the level of the column sums of x in units of 2**``unit``, from
        ``_unit``, to its int64 bucket, and return the remainder, written to
        ``out``. The level's sums are integers of at most 2**53 in that unit."""
        rest, sums = _split(x, unit, out, ones)
        if (acc := self.acc.get(unit)) is None:
            acc = self.acc[unit] = np.zeros(self.d, dtype=np.int64)
        acc += sums.astype(np.int64)
        return rest

    def _fold(self) -> None:
        """Add each bucket's sums, integers in units of 2**unit, to the int totals."""
        for unit, acc in self.acc.items():
            shift = unit + _UNIT_BITS
            self.totals = [total + (s << shift) for total, s in zip(self.totals, acc.tolist())]
        self.acc, self.pending = {}, 0

    def result(self) -> np.ndarray:
        """The correctly rounded column sums of every row added so far."""
        self._fold()
        return np.array([_rounded(total, j) for j, total in enumerate(self.totals)], dtype=np.float64)


class _CertifiedSums(_ColumnSums):
    """``exact_column_sums`` of the array ``a``. ``add`` must be fed its rows
    in order, each once, in blocks of any size, before ``result`` is read:
    the columns that fall back are summed again from ``a`` part by part.

    A part gives one level of exact sums, as in ``_ColumnSums``. Its
    remainder is not extracted further: only its float column sums are
    kept. A part of m rows with unit u has remainders of at most u/2, so
    m·u/2 bounds the sum of their absolute values in every column, which
    bounds the error of the float sums without a pass over them. ``result``
    rounds both ends of the interval that holds the exact sum; where they
    round to one float, that float is the correctly rounded sum. The other
    columns (a tie within the bound, a sum that cancels, or one small next
    to its remainders, as in centred data) fall back: they keep their first
    level's exact sums, and their remainders are taken again and summed
    exactly by ``_ColumnSums``.
    """

    def __init__(self, a: np.ndarray) -> None:
        super().__init__(a.shape[1])
        self.a = a
        self.rest = np.zeros(self.d)  # float sums of the remainders
        self.size = 0  # sum of m·u over the parts, in units of 2**-_UNIT_BITS
        self.parts = []  # each part's rows and first-level unit, None if all 0

    def _add(self, part: np.ndarray, top: float) -> None:
        m = part.shape[0]
        unit = None if top == 0.0 else _unit(top, m)
        self.parts.append((m, unit))
        if unit is not None:
            hi, _, ones = self._buffers(m)
            self.rest += ones @ self._extract(part, unit, hi, ones)
            self.size += m << (unit + _UNIT_BITS)

    def result(self) -> np.ndarray:
        self._fold()
        # The error bound, with eps = 2**-53 and g(n) = n·eps / (1 - n·eps).
        # Float sums have no underflow error, and in any order they are off
        # by at most g(n - 1) times the sum of the n terms' sizes. A part of
        # at most m rows with unit u has remainders r of at most u/2, so its
        # float column sums are within g(m - 1)·T of their exact value and at
        # most (1 + g(m - 1))·T in size, with T = m·u/2 >= Σ|r|. Summing B
        # parts' values adds g(B - 1) of their sizes. In all, the float sum
        # of the remainders is within (g(m - 1) + g(B - 1)·(1 + g(m - 1)))
        # times S = Σ T = ``size``/2 of their exact sum, which is below
        # 1.01·(m + B)·eps·S while (m + B)·eps <= 2**-10. S is exact, and
        # the width used, (m + B)·2**-51·S rounded up to a unit of
        # 2**-_UNIT_BITS, is four times that.
        n = max((m for m, _ in self.parts), default=0) + len(self.parts)
        width = -(-n * self.size >> 52)
        out, fallen = np.empty(self.d), []
        for j, (total, rest) in enumerate(zip(self.totals, self.rest.tolist())):
            value = _rounded_if_certain(total, rest, width) if n <= 2**43 else None
            if value is None:
                fallen.append(j)
            else:
                out[j] = value
        if fallen:
            for j, total in zip(fallen, self._exact_totals(fallen)):
                out[j] = _rounded(total, j)
        return out

    def _exact_totals(self, cols: list[int]) -> list[int]:
        """The exact totals of columns ``cols``: their first level's sums,
        plus the exact sums of their remainders, split off again part by
        part with the first walk's units."""
        width, tallest = len(cols), max(m for m, _ in self.parts)
        rest = _ColumnSums(width)
        gathered, spare = np.empty((tallest, width)), np.empty((tallest, width))
        lo = 0
        for m, unit in self.parts:
            if unit is not None:
                x = self.a[lo:lo + m]
                if width < self.d:
                    x = np.take(x, cols, axis=1, out=gathered[:m], mode="clip")
                # the remainders are at most 2**(unit - 1), which tops the next level
                rest.add(_split(x, unit, spare[:m])[0], math.ldexp(1.0, unit - 1))
            lo += m
        rest._fold()
        return [self.totals[j] + total for j, total in zip(cols, rest.totals)]


def exact_column_sums(points: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each column of a finite (n, d) array.

    Bitwise equal to ``math.fsum`` per column, except that a column whose
    partial sums overflow but whose exact sum fits returns that sum.

    Rows are taken in blocks of about ``_BLOCK_ELEMENTS`` = 2**16 values, so
    scratch memory does not grow with n. Error-free extraction (Rump, Ogita
    and Oishi, "Accurate floating-point summation", 2008) rounds a block's
    entries to multiples of a power of two, its unit, chosen from the
    block's largest |x| so that the column sums of the rounded entries are
    exact; they are added as integers. The exact remainders are only summed
    in float64, with a certified bound on the error of that sum, and a
    column is done where both ends of the interval round to one float. The
    others (a tie within the bound, or a sum that is small next to the
    remainders, as in a centred or cancelling column) fall back: a second
    walk splits their remainders off again with the same units and sums
    them by extraction level after level until none is left. That walk
    makes such columns slower than the rest. The sums are exact, so neither
    the blocks nor the summation order change them.

    Raises InputError when a column's correctly rounded sum overflows.
    """
    a = np.asarray(points, dtype=np.float64)
    sums = _CertifiedSums(a)
    if a.size:
        sums.add(a)
    return sums.result()


def exact_mean(points: np.ndarray) -> np.ndarray:
    """Column means: correctly rounded column sums divided by n.

    The sums are bitwise equal to ``math.fsum`` (see ``exact_column_sums``),
    so the mean is deterministic and independent of summation order, which
    keeps the 1e-12 equality contracts between code paths honest.
    """
    a = np.asarray(points, dtype=np.float64)
    return exact_column_sums(a) / a.shape[0]


def _sample_rows(samples) -> np.ndarray:
    """Array-like data as a nonempty (n, d) float64 array with 1-D data as one
    column. A float64 array is used in place; a SampleSet, which keeps no
    rows, is an InputError."""
    if isinstance(samples, SampleSet):
        raise InputError("a sample set keeps only its statistics, not its rows; "
                         "pass the rows to use a condition or norm that needs them")
    a = np.asarray(samples, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise InputError(f"expected a nonempty (n, d) sample array, got shape {a.shape}")
    return a


def _require_finite(a: np.ndarray) -> float:
    # the one finite check of sample values, and _top(a): NaN passes min and max, so no n×d temporary
    if not math.isfinite(top := _top(a)):
        raise InputError("non-finite sample values")
    return top


class _RowStatistics(NamedTuple):
    """All that a SampleSet keeps of its rows: what the bound, the scorer and
    the shift ceilings read."""

    sorted_norms: np.ndarray
    max_norm: float
    mean: np.ndarray


def _walk_statistics(blocks, n: int | None, kind: NormKind, sums=None):
    """The ``_RowStatistics`` of the n rows (None: as many as come) fed in
    ``blocks``. A block's one min and one max serve as the finiteness check
    and as the top of its first extraction level; its column sums go to
    ``sums`` (None: exact ``_ColumnSums``) and its norms into one n-vector,
    joined from the blocks' parts once if n is None, and sorted in place.
    Raises InputError for non-finite entries, then for a norm that
    overflows float64, then for a column sum that does."""
    sorted_norms, parts, lo = None if n is None else np.empty(n), [], 0
    for block in blocks:
        top = _require_finite(block)
        sums = sums or _ColumnSums(block.shape[1])
        sums.add(block, top)
        with np.errstate(over="ignore"):  # an overflowing norm is inf, refused below
            if sorted_norms is None:
                parts.append(norms(block, kind))
            else:
                sorted_norms[lo:lo + len(block)] = norms(block, kind)
        lo += len(block)
    if sorted_norms is None:
        sorted_norms = np.concatenate(parts)
    sorted_norms.sort()
    max_norm = float(sorted_norms[-1])
    if not math.isfinite(max_norm):
        raise InputError(f"sample {kind.value} norms overflow float64")
    return _RowStatistics(sorted_norms, max_norm, sums.result() / lo)


def ball_stats(sorted_norms: np.ndarray, radii) -> tuple[np.ndarray, np.ndarray]:
    """Per closed ball of radius r: how many norms are <= r, and the largest
    of them (0 when there are none).

    ``sorted_norms`` must be ascending. Both results are exact: a count is a
    ``searchsorted`` position and a region radius is one of the norms.
    """
    counts = np.searchsorted(sorted_norms, radii, side="right")
    region = np.where(counts > 0, sorted_norms[np.maximum(counts - 1, 0)], 0.0)
    return counts, region


@dataclass(frozen=True, eq=False)
class SampleSet:
    """The statistics of a nonempty batch of same-dimension vectors in the
    norm that scores them: the norms in ascending order (for ``ball_stats``),
    the max norm and the mean. ``samples``, rows or the private
    ``_RowStatistics`` of a file read in ``norm``, is read once, in place,
    in blocks of about ``_BLOCK_ELEMENTS`` values (see ``_walk_statistics``),
    and not kept; what needs rows takes rows. ``norm`` must be a NormKind.
    """

    samples: InitVar[np.ndarray | _RowStatistics]
    norm: NormKind = NormKind.L2
    sorted_norms: np.ndarray = field(init=False, repr=False, compare=False)
    max_norm: float = field(init=False, compare=False)
    mean: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, samples) -> None:
        if not isinstance(samples, _RowStatistics):  # else taken in this set's norm
            a = _sample_rows(samples)
            if not isinstance(self.norm, NormKind):  # non-finite entries are reported first
                _require_finite(a)
                raise _not_a_norm(self.norm)
            rows = _block_rows(a.shape[1])
            samples = _walk_statistics((a[lo:lo + rows] for lo in range(0, len(a), rows)), len(a),
                                       self.norm, _CertifiedSums(a))
        freeze(self, **samples._asdict())

    def __len__(self) -> int:
        return self.sorted_norms.shape[0]

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]


class ConditionFunction:
    """A binary predicate over vectors, evaluating to exactly 0 or 1."""

    label: str

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation: bool array over the rows of ``points``."""
        raise NotImplementedError


@dataclass(frozen=True)
class RadiusIndicator(ConditionFunction):
    """Closed-ball membership: 1 iff the chosen norm of x is <= radius."""

    radius: float
    norm: NormKind = NormKind.L2

    def __post_init__(self) -> None:
        if not isinstance(self.norm, NormKind):
            raise _not_a_norm(self.norm)
        if not math.isfinite(self.radius) or self.radius < 0:
            raise InputError(f"radius must be finite and >= 0, got {self.radius}")

    @property
    def label(self) -> str:
        return f"{self.norm.value}-ball<={self.radius!r}"

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # an overflowing norm is inf: outside the ball
            return norms(points, self.norm) <= self.radius


@dataclass(frozen=True)
class RadiusFamily:
    """Evenly spaced closed-ball indicators r_j = (j/k) * top, j = 1..k.

    j starts at 1 because a zero radius is a degenerate predicate. When
    ``top`` is 0 the family collapses to k copies of the zero ball, which is
    tolerated so that scorers fitted on all-origin data still work. Where
    ``top * j`` overflows, the radius is ``top * (j / k)``, which is <= top.
    """

    k: int
    top: float
    norm: NormKind = NormKind.L2
    radii: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if not isinstance(self.norm, NormKind):
            raise _not_a_norm(self.norm)
        top = float(self.top)  # a numpy scalar would warn where top * j overflows
        if not math.isfinite(top) or top < 0:
            raise InputError(f"top radius must be finite and >= 0, got {top}")
        radii = tuple(r if math.isfinite(r := top * j / self.k) else top * (j / self.k)
                      for j in range(1, self.k + 1))
        freeze(self, top=top, radii=radii)

    def indicators(self) -> tuple[RadiusIndicator, ...]:
        return tuple(RadiusIndicator(r, self.norm) for r in self.radii)


def make_sample_set(samples, norm: NormKind | str | None = None) -> SampleSet:
    """Convenience constructor accepting raw arrays, lists of rows, or 1-D data.

    ``norm=None`` keeps an existing SampleSet's norm and defaults raw data to
    L2. A SampleSet keeps no rows, so asking it for another norm is an InputError.
    """
    if norm is None:
        norm = samples.norm if isinstance(samples, SampleSet) else NormKind.L2
    kind = norm if isinstance(norm, NormKind) else NormKind.from_string(str(norm))
    if isinstance(samples, SampleSet) and samples.norm is kind:
        return samples
    return SampleSet(samples, kind)


def clamp_unit(x: float) -> float:
    """Clamp to [0, 1]."""
    return min(1.0, max(0.0, x))


def _compatible_sets(a, b) -> tuple[SampleSet, SampleSet]:
    """The two inputs of one computation as SampleSets that agree on d and
    norm, as ``make_sample_set`` builds them: a SampleSet as it is, rows in
    l2. Sets that disagree are a DimensionMismatchError."""
    a, b = map(make_sample_set, (a, b))
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"sample sets have different dimensions: {a.dimension} vs {b.dimension}"
        )
    if a.norm is not b.norm:
        raise DimensionMismatchError(
            f"sample sets carry different norms: {a.norm.value} vs {b.norm.value}"
        )
    return a, b


Conditions = Sequence[ConditionFunction]
