"""Shared domain types: norms, sample sets, and 0/1 condition functions.

Everything in this module is immutable after construction and safe to share
across threads. Arrays handed in are copied and marked read-only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np


class InputError(ValueError):
    """Malformed or out-of-range input (bad values, unparsable files)."""


class DimensionMismatchError(ValueError):
    """Inputs that must agree on dimension or norm choice do not."""


class DegenerateDomainError(ValueError):
    """Every sample sits at the origin, so radius ratios are undefined."""


class MetricUndefinedError(ValueError):
    """A ranking metric was requested on a single-class score set."""


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
    """Per-row norms of a (n, d) array. ``kind`` must be a NormKind, not a name."""
    a = np.asarray(points, dtype=np.float64)
    if a.ndim != 2:
        raise InputError(f"expected a 2-D array of row vectors, got shape {a.shape}")
    # The temporaries are in C order, so numpy sums every row in one order
    # whatever the layout of the array it came from.
    if kind is NormKind.L1:
        return np.abs(a, order="C").sum(axis=1)
    if kind is NormKind.L2:
        return np.sqrt(np.multiply(a, a, order="C").sum(axis=1))
    if kind is NormKind.LINF:
        return np.abs(a, order="C").max(axis=1)
    raise _not_a_norm(kind)


def freeze(obj, **fields) -> None:
    """Set fields on a frozen dataclass, making each ndarray among them read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


# Values per block of rows: each block temporary is about 512 KB, small enough
# to stay in cache, and scratch memory does not grow with n.
_BLOCK_ELEMENTS = 1 << 16
# Rows summed in float64 buckets between folds into Python ints. A limb is at
# most 2**27 in its unit, so a bucket sum over up to 2**26 rows is an integer
# of at most 2**53 units, which float64 holds exactly; 2**25 leaves a factor 2.
_FOLD_ROWS = 1 << 25
# (m + _SPLIT) - _SPLIT rounds a mantissa m in (-1, 1) to a multiple of 2**-27.
_SPLIT = 3.0 * 2.0**24
# frexp exponents are >= -1073, so every bucket is an integer times 2**-1126.
_UNIT_BITS = 1126


def _block_rows(d: int) -> int:
    """Rows of width d per block of about ``_BLOCK_ELEMENTS`` values; at least one."""
    return max(1, _BLOCK_ELEMENTS // max(1, d))


class _ColumnSums:
    """``exact_column_sums`` of a finite (n, d) array fed in blocks of rows:
    ``add`` each block, in any order and of any size, then read ``result``.

    Between blocks it keeps only d Python ints and the limb buckets of the
    exponents seen since the last fold, so its memory does not grow with n.
    """

    def __init__(self, d: int) -> None:
        self.d = d
        self.totals = [0] * d  # exact column sums in units of 2**-_UNIT_BITS
        self.acc = None  # (2, exponents, d) limb sums; row i holds exponent base + i
        self.base = self.pending = 0
        # Block scratch, reused so that each block allocates nothing of its size:
        # mantissas, exponents, bucket keys and high limbs.
        self.scratch = ()

    def add(self, block: np.ndarray) -> None:
        rows = min(_FOLD_ROWS, _block_rows(self.d))
        for start in range(0, block.shape[0], rows):
            part = block[start:start + rows]
            if self.pending + part.shape[0] > _FOLD_ROWS:
                self._fold()
            self._add(part)
            self.pending += part.shape[0]

    def _add(self, part: np.ndarray) -> None:
        d, m = self.d, part.shape[0]
        if not self.scratch or self.scratch[0].shape[0] < m:
            self.scratch = tuple(np.empty((m, d), dtype=t)
                                 for t in (np.float64, np.intc, np.intp, np.float64))
        mant, exps, keys, high = (buf[:m] for buf in self.scratch)
        np.frexp(part, out=(mant, exps))
        lo, hi = int(exps.min()), int(exps.max())
        span = hi - lo + 1
        np.subtract(exps, lo, out=keys)
        keys *= d
        keys += np.arange(d)
        np.add(mant, _SPLIT, out=high)
        high -= _SPLIT
        mant -= high
        keys, high, mant = keys.ravel(), high.ravel(), mant.ravel()
        sums = np.stack([
            np.bincount(keys, high, span * d),
            np.bincount(keys, mant, span * d),
        ]).reshape(2, span, d)
        if self.acc is None:
            self.acc, self.base = sums, lo
            return
        acc, base = self.acc, self.base
        first, end = min(base, lo), max(base + acc.shape[1], hi + 1)
        if end - first > acc.shape[1]:
            grown = np.zeros((2, end - first, d))
            grown[:, base - first:base - first + acc.shape[1]] = acc
            self.acc, self.base = acc, base = grown, first
        acc[:, lo - base:hi + 1 - base] += sums

    def _fold(self) -> None:
        """Add limb sums at exponent e, (high + low) * 2**e, to the int totals."""
        if self.acc is not None:
            idx, col = np.nonzero(self.acc.any(axis=0))
            high = (self.acc[0, idx, col] * 2.0**27).tolist()
            low = (self.acc[1, idx, col] * 2.0**53).tolist()
            for i, j, h, l in zip(idx.tolist(), col.tolist(), high, low):
                self.totals[j] += ((int(h) << 26) + int(l)) << (self.base + i - 53 + _UNIT_BITS)
        self.acc, self.pending = None, 0

    def result(self) -> np.ndarray:
        """The correctly rounded column sums of every row added so far."""
        self._fold()
        unit = 1 << _UNIT_BITS
        out = np.empty(self.d, dtype=np.float64)
        for j, total in enumerate(self.totals):
            try:
                out[j] = total / unit
            except OverflowError:
                raise InputError(f"the sum of column {j} overflows float64") from None
        return out


def exact_column_sums(points: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each column of a finite (n, d) array.

    Bitwise equal to ``math.fsum`` per column, except that a column whose
    partial sums overflow but whose exact sum fits returns that sum.

    Each value x = m * 2**e (``np.frexp``) is split exactly into a high limb,
    m rounded to a multiple of 2**-27, and a low limb, the rest: a multiple
    of 2**-53 no larger than 2**-28. Two ``np.bincount`` calls, keyed by
    column and exponent, add up each limb. Both limbs are integers of at
    most 2**27 in their unit (2**-27 and 2**-53), so every partial bucket sum
    over at most 2**26 rows is an integer of at most 2**53 units and thus
    exact in float64. The buckets are folded into Python ints every
    ``_FOLD_ROWS`` = 2**25 rows and at the end, and one correctly rounded int
    division per column gives the result. Rows are taken in blocks of about
    ``_BLOCK_ELEMENTS`` = 2**16 values, so scratch memory does not grow with n;
    the sums are exact, so the blocks do not change them.

    Raises InputError when a column's correctly rounded sum overflows.
    """
    a = np.asarray(points, dtype=np.float64)
    sums = _ColumnSums(a.shape[1])
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
    """A SampleSet's samples, or array-like data as a nonempty (n, d) float64
    array with 1-D data as one column. A float64 array is used in place."""
    if isinstance(samples, SampleSet):
        if samples.samples is None:
            raise InputError("this sample set keeps only its statistics, not its rows; "
                             "build it from the rows to use a condition or norm that needs them")
        return samples.samples
    a = np.asarray(samples, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise InputError(f"expected a nonempty (n, d) sample array, got shape {a.shape}")
    return a


def _require_finite(a: np.ndarray, message: str = "sample array has non-finite entries") -> None:
    # NaN propagates through min and max, so a nonempty array needs no n×d temporary
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise InputError(message)


class _RowStatistics(NamedTuple):
    """All that a SampleSet keeps of its rows: what the bound, the scorer and
    the shift ceilings read."""

    norm: NormKind
    norms: np.ndarray  # per row, in row order
    sorted_norms: np.ndarray
    max_norm: float
    mean: np.ndarray


def _finite_norms(block: np.ndarray, kind: NormKind,
                  message: str = "sample array has non-finite entries") -> np.ndarray:
    """Per-row norms of a block that must be finite; an overflowing norm is inf."""
    _require_finite(block, message)
    with np.errstate(over="ignore"):
        return norms(block, kind)


def _row_statistics(per_row: np.ndarray, kind: NormKind, mean) -> _RowStatistics:
    """Sort the per-row norms and refuse an overflowing one, then call ``mean``,
    so that a norm overflow is reported before a column sum overflow."""
    ordered = np.sort(per_row)
    max_norm = float(ordered[-1])
    if not math.isfinite(max_norm):
        raise InputError(f"sample {kind.value} norms overflow float64")
    return _RowStatistics(kind, per_row, ordered, max_norm, mean())


def _sample_statistics(a: np.ndarray, kind: NormKind) -> _RowStatistics:
    """The statistics of a ``_sample_rows`` array.

    One pass over blocks of about ``_BLOCK_ELEMENTS`` values checks that the
    entries are finite and fills the norms, and ``exact_mean`` walks the rows
    in blocks too, so no temporary grows with the array: the extra memory is
    two n-vectors plus fixed block scratch. Raises InputError for non-finite
    entries, then for a norm that overflows float64.
    """
    if not isinstance(kind, NormKind):  # non-finite entries are reported first
        _require_finite(a)
        raise _not_a_norm(kind)
    n, d = a.shape
    rows = _block_rows(d)
    per_row = np.empty(n)
    for lo in range(0, n, rows):
        per_row[lo:lo + rows] = _finite_norms(a[lo:lo + rows], kind)
    return _row_statistics(per_row, kind, lambda: exact_mean(a))


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
    """A nonempty batch of same-dimension vectors plus the norm that scores them.

    Holds one copy of the samples. Per-sample norms (also kept sorted, for
    ``ball_stats``), the pooled max norm, and the empirical mean are computed
    once at construction. ``norm`` must be a NormKind (``norms`` rejects
    anything else).

    A set built from the private ``_RowStatistics`` of a block-wise file read
    keeps no rows: ``samples`` is None, and only radius indicators in its own
    norm can be evaluated on it.
    """

    samples: np.ndarray | None
    norm: NormKind = NormKind.L2
    norms: np.ndarray = field(init=False, repr=False, compare=False)
    sorted_norms: np.ndarray = field(init=False, repr=False, compare=False)
    max_norm: float = field(init=False, compare=False)
    mean: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.samples, _RowStatistics):
            rows, stats = None, self.samples
            if stats.norm is not self.norm:
                raise InputError(f"statistics in the {stats.norm.value} norm cannot serve "
                                 f"a sample set in norm {self.norm!r}")
        else:
            rows = _sample_rows(np.array(self.samples, dtype=np.float64, copy=True))
            stats = _sample_statistics(rows, self.norm)
        freeze(self, samples=rows, **stats._asdict())

    def __len__(self) -> int:
        return self.norms.shape[0]

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


def _requested_norm(samples, norm: NormKind | str | None) -> NormKind:
    """``norm`` as a NormKind; None means a SampleSet's own norm, else L2."""
    if norm is None:
        return samples.norm if isinstance(samples, SampleSet) else NormKind.L2
    return norm if isinstance(norm, NormKind) else NormKind.from_string(str(norm))


def make_sample_set(samples, norm: NormKind | str | None = None) -> SampleSet:
    """Convenience constructor accepting raw arrays, lists of rows, or 1-D data.

    ``norm=None`` keeps an existing SampleSet's norm and defaults raw data to
    L2; passing a norm rebuilds a mismatched SampleSet under that norm.
    """
    kind = _requested_norm(samples, norm)
    if isinstance(samples, SampleSet):
        return samples if samples.norm is kind else SampleSet(_sample_rows(samples), kind)
    return SampleSet(samples, kind)


def clamp_unit(x: float) -> float:
    """Clamp to [0, 1]."""
    return min(1.0, max(0.0, x))


def require_compatible(a: SampleSet, b: SampleSet) -> None:
    """Two sample sets that feed one computation must agree on d and norm."""
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"sample sets have different dimensions: {a.dimension} vs {b.dimension}"
        )
    if a.norm is not b.norm:
        raise DimensionMismatchError(
            f"sample sets carry different norms: {a.norm.value} vs {b.norm.value}"
        )


Conditions = Sequence[ConditionFunction]
