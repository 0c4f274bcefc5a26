"""Finite-sample upper bound on the overlap of two sample-generating distributions.

Given two sample sets and a family of 0/1 condition functions, the bound pools
both sets, measures the gap between the empirical means, and for each condition
weighs the acceptance-rate gap by how far the accepted region sits inside the
pooled ball. High values mean the two sets are hard to tell apart.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    Conditions,
    InputError,
    RadiusFamily,
    RadiusIndicator,
    SampleSet,
    _compatible_sets,
    _sample_rows,
    ball_stats,
    clamp_unit,
    norms,
)


@dataclass(frozen=True)
class ConditionStat:
    """Per-condition breakdown of the bound computation."""

    label: str
    parameter: float  # the radius of a radius indicator, else NaN
    region_radius: float  # max norm over accepted pooled samples (0 if none)
    pos_rate: float
    neg_rate: float
    separation: float  # (1 - region_radius/pool_radius) * |pos_rate - neg_rate|


@dataclass(frozen=True)
class BoundReport:
    """Full term-by-term result of one bound evaluation.

    ``raw_bound`` may be negative; it stays a valid monotone dissimilarity
    score, so it is preserved and ``clamped_bound`` is offered for reporting
    (the overlap itself always lies in [0, 1]).
    """

    raw_bound: float
    clamped_bound: float
    mean_gap: float
    pool_radius: float
    best_index: int  # declared before conditions: the JSON key order follows the fields
    conditions: tuple[ConditionStat, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def _closed_form(mean_gap, pool_radius, best_separation, sigma=0.0):
    """1 - (1-sigma)/2 * mean_gap/pool - (1-sigma)/2 * best separation, for
    scalars or arrays and a nonzero pool radius; sigma = 0 is the plain bound.

    ``0.5 * (gap / pool)`` cannot overflow where ``gap / (2 * pool)`` would,
    and equals it bitwise otherwise.
    """
    half = 0.5 * (1.0 - sigma)
    return 1.0 - half * (mean_gap / pool_radius) - half * best_separation


def _separation(region_radius, rate_gap, pool_radius):
    """Per condition: (1 - region_radius/pool_radius) * |rate gap|, for
    scalars or arrays; a float stays a float."""
    return (1.0 - region_radius / pool_radius) * abs(rate_gap)


def _acceptance(side, stats: SampleSet, conditions: Conditions) -> tuple[np.ndarray, np.ndarray]:
    """Per condition: how many samples of ``side`` it accepts, and the largest
    accepted norm (0 if none); ``stats`` is side's SampleSet. The radius
    indicators in its norm are read off the sorted norms in one
    ``ball_stats`` call; any other condition is evaluated on side's rows and
    their norms, taken once, which a SampleSet refuses with an InputError."""
    counts, region = np.empty(len(conditions)), np.empty(len(conditions))
    balls = np.array([isinstance(g, RadiusIndicator) and g.norm is stats.norm for g in conditions])
    radii = [g.radius for g, ball in zip(conditions, balls) if ball]
    counts[balls], region[balls] = ball_stats(stats.sorted_norms, radii)
    if not balls.all():
        rows = _sample_rows(side)
        row_norms = norms(rows, stats.norm)  # finite: the set refused overflowing norms
    for i in np.flatnonzero(~balls):
        accepted = np.asarray(conditions[i].evaluate_many(rows), dtype=bool)
        counts[i], region[i] = np.count_nonzero(accepted), row_norms[accepted].max(initial=0.0)
    return counts, region


def compute_bound(pos: SampleSet, neg: SampleSet, conditions: Conditions) -> BoundReport:
    """Upper-bound the overlap between the distributions behind two sample sets.

    Pools both sets to fix the reference ball, then combines the empirical
    mean gap with the best separation achieved by any condition function.
    Ties in the best separation go to the smallest index so reports are
    deterministic across platforms and parallel schedules. Raises InputError
    when the norm of the gap between the two means overflows float64. Either
    side may be rows, read in l2 as ``SampleSet(rows)`` reads them; a
    condition other than a ball in the sets' own norm needs rows.
    """
    sides = [s if isinstance(s, SampleSet) else _sample_rows(s) for s in (pos, neg)]
    pos, neg = _compatible_sets(*sides)
    if len(conditions) == 0:
        raise InputError("need at least one condition function")

    pool_radius = max(pos.max_norm, neg.max_norm)
    with np.errstate(over="ignore"):
        mean_gap = float(norms((pos.mean - neg.mean).reshape(1, -1), pos.norm)[0])
    if not math.isfinite(mean_gap):
        raise InputError(f"the {pos.norm.value} gap between the sample means overflows float64")

    pos_count, pos_region = _acceptance(sides[0], pos, conditions)
    neg_count, neg_region = _acceptance(sides[1], neg, conditions)
    # the largest accepted pooled norm; an empty region has both rates 0
    region = np.maximum(pos_region, neg_region)
    pos_rate, neg_rate = pos_count / len(pos), neg_count / len(neg)
    if pool_radius == 0.0:
        # Every sample sits at the origin: both sets are the same point mass.
        separation, raw = np.zeros(len(conditions)), 1.0
    else:
        separation = _separation(region, pos_rate - neg_rate, pool_radius)
        raw = float(_closed_form(mean_gap, pool_radius, separation.max()))
    params = [g.radius if isinstance(g, RadiusIndicator) else math.nan for g in conditions]
    columns = zip(params, region.tolist(), pos_rate.tolist(), neg_rate.tolist(), separation.tolist())
    return BoundReport(
        raw_bound=raw,
        clamped_bound=clamp_unit(raw),
        mean_gap=mean_gap,
        pool_radius=pool_radius,
        conditions=tuple(ConditionStat(g.label, *c) for g, c in zip(conditions, columns)),
        best_index=int(np.argmax(separation)),  # the first of tied maxima
    )


def pooled_radius_family(pos: SampleSet, neg: SampleSet, k: int) -> RadiusFamily:
    """The default condition family: k closed balls scaled to the pooled max
    norm. Either side may be rows, read as ``compute_bound`` reads them."""
    pos, neg = _compatible_sets(pos, neg)
    top = max(pos.max_norm, neg.max_norm)
    return RadiusFamily(k=k, top=top, norm=pos.norm)
