"""Finite-sample upper bound on the overlap of two sample-generating distributions.

Given two sample sets and a family of 0/1 condition functions, the bound pools
both sets, measures the gap between the empirical means, and for each condition
weighs the acceptance-rate gap by how far the accepted region sits inside the
pooled ball. High values mean the two sets are hard to tell apart.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    ConditionFunction,
    Conditions,
    InputError,
    RadiusFamily,
    RadiusIndicator,
    SampleSet,
    ball_stats,
    clamp_unit,
    condition_parameter,
    norms,
    require_compatible,
)


@dataclass(frozen=True)
class ConditionStat:
    """Per-condition breakdown of the bound computation."""

    label: str
    parameter: float
    region_radius: float  # max norm over accepted pooled samples (0 if none)
    pos_rate: float
    neg_rate: float
    separation: float  # (1 - region_radius/pool_radius) * |pos_rate - neg_rate|

    def to_dict(self) -> dict:
        return asdict(self)


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
    conditions: tuple[ConditionStat, ...]
    best_index: int

    def to_dict(self) -> dict:
        return {
            "raw_bound": self.raw_bound,
            "clamped_bound": self.clamped_bound,
            "mean_gap": self.mean_gap,
            "pool_radius": self.pool_radius,
            "best_index": self.best_index,
            "conditions": [c.to_dict() for c in self.conditions],
        }


def _acceptance(side: SampleSet, g: ConditionFunction) -> tuple[int, float]:
    """How many samples of ``side`` a condition accepts, and the largest accepted
    norm (0 if none). A radius indicator in the side's own norm reads both off
    the sorted norms; any other condition is evaluated on the samples."""
    if isinstance(g, RadiusIndicator) and g.norm is side.norm:
        count, region = ball_stats(side.sorted_norms, g.radius)
        return int(count), float(region)
    accepted = np.asarray(g.evaluate_many(side.samples), dtype=bool)
    return int(np.count_nonzero(accepted)), float(side.norms[accepted].max(initial=0.0))


def compute_bound(pos: SampleSet, neg: SampleSet, conditions: Conditions) -> BoundReport:
    """Upper-bound the overlap between the distributions behind two sample sets.

    Pools both sets to fix the reference ball, then combines the empirical
    mean gap with the best separation achieved by any condition function.
    Ties in the best separation go to the smallest index so reports are
    deterministic across platforms and parallel schedules.
    """
    require_compatible(pos, neg)
    if len(conditions) == 0:
        raise InputError("need at least one condition function")

    pool_radius = max(pos.max_norm, neg.max_norm)
    n_pos, n_neg = len(pos), len(neg)

    gap_vec = pos.mean - neg.mean
    mean_gap = float(norms(gap_vec.reshape(1, -1), pos.norm)[0])

    stats: list[ConditionStat] = []
    best_index = 0
    best_sep = -1.0
    for g in conditions:
        pos_count, pos_region = _acceptance(pos, g)
        neg_count, neg_region = _acceptance(neg, g)
        # the largest accepted pooled norm; an empty region has both rates 0,
        # so its separation is 0
        region_radius = max(pos_region, neg_region)
        pos_rate = pos_count / n_pos
        neg_rate = neg_count / n_neg
        if pool_radius > 0.0:
            separation = (1.0 - region_radius / pool_radius) * abs(pos_rate - neg_rate)
        else:
            separation = 0.0
        stats.append(
            ConditionStat(
                label=g.label,
                parameter=condition_parameter(g),
                region_radius=region_radius,
                pos_rate=pos_rate,
                neg_rate=neg_rate,
                separation=separation,
            )
        )
        if separation > best_sep:
            best_sep = separation
            best_index = len(stats) - 1

    if pool_radius == 0.0:
        # Every sample sits at the origin: both sets are the same point mass.
        raw = 1.0
    else:
        raw = 1.0 - mean_gap / (2.0 * pool_radius) - 0.5 * best_sep
    return BoundReport(
        raw_bound=raw,
        clamped_bound=clamp_unit(raw),
        mean_gap=mean_gap,
        pool_radius=pool_radius,
        conditions=tuple(stats),
        best_index=best_index,
    )


def rate_gap_lower_bound(pos: SampleSet, neg: SampleSet, g: ConditionFunction) -> float:
    """Lower bound on the variation mass of the region a condition accepts.

    Half the absolute gap between the two empirical acceptance rates. Cheap,
    needs only finite samples, and never exceeds the exact restricted
    variation distance.
    """
    require_compatible(pos, neg)
    pos_rate = _acceptance(pos, g)[0] / len(pos)
    neg_rate = _acceptance(neg, g)[0] / len(neg)
    return 0.5 * abs(pos_rate - neg_rate)


def pooled_radius_family(pos: SampleSet, neg: SampleSet, k: int) -> RadiusFamily:
    """The default condition family: k closed balls scaled to the pooled max norm."""
    require_compatible(pos, neg)
    top = max(pos.max_norm, neg.max_norm)
    return RadiusFamily(k=k, top=top, norm=pos.norm)
