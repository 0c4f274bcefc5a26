"""Shared domain types: norms, sample sets, and 0/1 condition functions.

Everything in this module is immutable after construction and safe to share
across threads. Arrays handed in are copied and marked read-only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

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


def norms(points: np.ndarray, kind: NormKind) -> np.ndarray:
    """Per-row norms of a (n, d) array."""
    a = np.asarray(points, dtype=np.float64)
    if a.ndim != 2:
        raise InputError(f"expected a 2-D array of row vectors, got shape {a.shape}")
    if kind is NormKind.L1:
        return np.abs(a).sum(axis=1)
    if kind is NormKind.L2:
        return np.sqrt((a * a).sum(axis=1))
    return np.abs(a).max(axis=1)


# Values per block of rows: caps scratch memory at a few MB whatever n is.
_BLOCK_ELEMENTS = 1 << 19
# Rows summed in float64 buckets between folds into Python ints. A limb is at
# most 2**27 in its unit, so a bucket sum over up to 2**26 rows is an integer
# of at most 2**53 units, which float64 holds exactly; 2**25 leaves a factor 2.
_FOLD_ROWS = 1 << 25
# (m + _SPLIT) - _SPLIT rounds a mantissa m in (-1, 1) to a multiple of 2**-27.
_SPLIT = 3.0 * 2.0**24
# frexp exponents are >= -1073, so every bucket is an integer times 2**-1126.
_UNIT_BITS = 1126


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
    ``_BLOCK_ELEMENTS`` = 2**19 values, so scratch memory does not grow with n.

    Raises InputError when a column's correctly rounded sum overflows.
    """
    a = np.asarray(points, dtype=np.float64)
    n, d = a.shape
    if a.size == 0:
        return np.zeros(d)
    if n == 1:  # one term is its own sum; + 0.0 turns -0.0 into 0.0 as fsum does
        return a[0] + 0.0
    rows = min(_FOLD_ROWS, max(1, _BLOCK_ELEMENTS // d))
    cols = np.arange(d)
    totals = [0] * d  # exact column sums in units of 2**-_UNIT_BITS
    acc = None  # (2, exponents, d) limb sums; row i holds exponent base + i
    base = pending = 0
    for start in range(0, n, rows):
        mant, exps = np.frexp(a[start:start + rows])
        lo, hi = int(exps.min()), int(exps.max())
        # frexp gives zeros exponent 0; keep them from widening the span
        if (lo == 0 or hi == 0) and not mant.all():
            nonzero = mant != 0
            if not nonzero.any():
                continue
            lo, hi = int(exps[nonzero].min()), int(exps[nonzero].max())
            exps[~nonzero] = lo
        span = hi - lo + 1
        keys = exps.astype(np.intp)
        keys -= lo
        keys *= d
        keys += cols
        keys = keys.ravel()
        high = mant + _SPLIT
        high -= _SPLIT
        mant -= high
        sums = np.stack([
            np.bincount(keys, high.ravel(), span * d),
            np.bincount(keys, mant.ravel(), span * d),
        ]).reshape(2, span, d)
        if acc is None:
            acc, base = sums, lo
        else:
            first, end = min(base, lo), max(base + acc.shape[1], hi + 1)
            if end - first > acc.shape[1]:
                grown = np.zeros((2, end - first, d))
                grown[:, base - first:base - first + acc.shape[1]] = acc
                acc, base = grown, first
            acc[:, lo - base:hi + 1 - base] += sums
        pending += rows
        if pending + rows > _FOLD_ROWS:
            _fold_buckets(acc, base, totals)
            acc, pending = None, 0
    if acc is not None:
        _fold_buckets(acc, base, totals)
    unit = 1 << _UNIT_BITS
    out = np.empty(d, dtype=np.float64)
    for j, total in enumerate(totals):
        try:
            out[j] = total / unit
        except OverflowError:
            raise InputError(f"the sum of column {j} overflows float64") from None
    return out


def _fold_buckets(acc: np.ndarray, base: int, totals: list[int]) -> None:
    """Add limb sums at exponent e, (high + low) * 2**e, to the int totals."""
    idx, col = np.nonzero(acc.any(axis=0))
    high = (acc[0, idx, col] * 2.0**27).tolist()
    low = (acc[1, idx, col] * 2.0**53).tolist()
    for i, j, h, l in zip(idx.tolist(), col.tolist(), high, low):
        totals[j] += ((int(h) << 26) + int(l)) << (base + i - 53 + _UNIT_BITS)


def exact_mean(points: np.ndarray) -> np.ndarray:
    """Column means: correctly rounded column sums divided by n.

    The sums are bitwise equal to ``math.fsum`` (see ``exact_column_sums``),
    so the mean is deterministic and independent of summation order, which
    keeps the 1e-12 equality contracts between code paths honest.
    """
    a = np.asarray(points, dtype=np.float64)
    return exact_column_sums(a) / a.shape[0]


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

    Per-sample norms (also kept sorted, for ``ball_stats``), the pooled max
    norm, and the empirical mean are computed once at construction.
    """

    samples: np.ndarray
    norm: NormKind = NormKind.L2
    norms: np.ndarray = field(init=False, repr=False, compare=False)
    sorted_norms: np.ndarray = field(init=False, repr=False, compare=False)
    max_norm: float = field(init=False, compare=False)
    mean: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.array(self.samples, dtype=np.float64, copy=True)
        if a.ndim == 1:
            a = a.reshape(-1, 1)
        if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
            raise InputError(f"expected a nonempty (n, d) sample array, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise InputError("sample array has non-finite entries")
        a.flags.writeable = False
        with np.errstate(over="ignore"):
            per_sample = norms(a, self.norm)
        ordered = np.sort(per_sample)
        max_norm = float(ordered[-1])
        if not math.isfinite(max_norm):
            raise InputError(f"sample {self.norm.value} norms overflow float64")
        per_sample.flags.writeable = False
        ordered.flags.writeable = False
        mean = exact_mean(a)
        mean.flags.writeable = False
        object.__setattr__(self, "samples", a)
        object.__setattr__(self, "norms", per_sample)
        object.__setattr__(self, "sorted_norms", ordered)
        object.__setattr__(self, "max_norm", max_norm)
        object.__setattr__(self, "mean", mean)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def dimension(self) -> int:
        return self.samples.shape[1]


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
        top = float(self.top)  # a numpy scalar would warn where top * j overflows
        if not math.isfinite(top) or top < 0:
            raise InputError(f"top radius must be finite and >= 0, got {top}")
        radii = tuple(r if math.isfinite(r := top * j / self.k) else top * (j / self.k)
                      for j in range(1, self.k + 1))
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "radii", radii)

    def indicators(self) -> tuple[RadiusIndicator, ...]:
        return tuple(RadiusIndicator(r, self.norm) for r in self.radii)


def make_sample_set(samples, norm: NormKind | str | None = None) -> SampleSet:
    """Convenience constructor accepting raw arrays, lists of rows, or 1-D data.

    ``norm=None`` keeps an existing SampleSet's norm and defaults raw data to
    L2; passing a norm rebuilds a mismatched SampleSet under that norm.
    """
    if norm is None:
        if isinstance(samples, SampleSet):
            return samples
        kind = NormKind.L2
    else:
        kind = norm if isinstance(norm, NormKind) else NormKind.from_string(str(norm))
    if isinstance(samples, SampleSet):
        return samples if samples.norm is kind else SampleSet(samples.samples, kind)
    return SampleSet(np.asarray(samples, dtype=np.float64), kind)


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
