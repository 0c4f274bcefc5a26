"""Threshold-free ranking metrics for scored in-class/out-class data.

Conventions, since they differ across libraries: ranking ties count one half
in AUROC; the precision-recall area uses a step-wise (right-continuous)
sweep over distinct thresholds, never linear interpolation; the fixed
in-class-rate metric picks the largest threshold that still retains the
requested fraction of positives, with ties at the threshold counting as in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputError, MetricUndefinedError


@dataclass(frozen=True)
class LabeledScores:
    """Parallel score and label arrays; True labels mark in-class samples."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.scores, dtype=np.float64)
        y = np.asarray(self.labels, dtype=bool)
        if s.ndim != 1 or y.ndim != 1 or s.shape != y.shape or s.size == 0:
            raise InputError(
                f"scores and labels must be nonempty 1-D arrays of equal length, "
                f"got {s.shape} and {y.shape}"
            )
        if not np.isfinite(s).all():
            raise InputError("scores must be finite")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "labels", y)

    @property
    def n_pos(self) -> int:
        return int(np.count_nonzero(self.labels))

    @property
    def n_neg(self) -> int:
        return self.labels.size - self.n_pos


def _require_both_classes(ls: LabeledScores) -> None:
    if ls.n_pos == 0 or ls.n_neg == 0:
        raise MetricUndefinedError(
            f"metric needs both classes, got {ls.n_pos} positives and {ls.n_neg} negatives"
        )


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the mean of their rank block."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return (starts + (counts + 1) / 2.0)[inverse]


def auroc(ls: LabeledScores) -> float:
    """Probability that a random positive outscores a random negative.

    Rank-sum formulation; exact, ties counted one half.
    """
    _require_both_classes(ls)
    ranks = _midranks(ls.scores)
    pos_rank_sum = math.fsum(ranks[ls.labels].tolist())
    n_pos, n_neg = ls.n_pos, ls.n_neg
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _descending_sweep(ls: LabeledScores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thresholds, tps, predicted) at each distinct score, descending: the
    positives and all samples scoring >= each threshold, as floats."""
    order = np.argsort(-ls.scores, kind="mergesort")
    sorted_scores = ls.scores[order]
    boundary = np.r_[np.nonzero(np.diff(sorted_scores))[0], sorted_scores.size - 1]
    tps = np.cumsum(ls.labels[order])[boundary].astype(np.float64)
    return sorted_scores[boundary], tps, (boundary + 1).astype(np.float64)


def roc_curve(ls: LabeledScores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fpr, tpr, thresholds) swept over distinct scores, descending.

    A sample is predicted in-class when its score >= the threshold; tie
    groups produce a single curve point. The curve starts at (0, 0).
    """
    _require_both_classes(ls)
    thresholds, tps, predicted = _descending_sweep(ls)
    fpr = np.concatenate([[0.0], (predicted - tps) / ls.n_neg])
    tpr = np.concatenate([[0.0], tps / ls.n_pos])
    return fpr, tpr, np.concatenate([[np.inf], thresholds])


def aupr(ls: LabeledScores) -> float:
    """Area under precision-recall via a step-wise descending sweep."""
    if np.count_nonzero(ls.labels) == 0:
        raise MetricUndefinedError("precision-recall area needs at least one positive")
    _, tps, predicted = _descending_sweep(ls)
    recall = tps / np.count_nonzero(ls.labels)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    terms = (recall - prev_recall) * (tps / predicted)
    return math.fsum(terms.tolist())


def tpr_at_in_rate(ls: LabeledScores, in_rate: float = 0.95) -> float:
    """Fraction of negatives rejected at the loosest threshold that still
    keeps at least ``in_rate`` of the positives.

    The threshold is the smallest retained positive score; score >= threshold
    means in, so ties at the threshold stay in. Returns the fraction of
    negatives strictly below it.
    """
    _require_both_classes(ls)
    if not 0.0 < in_rate < 1.0:
        raise InputError(f"in_rate must lie strictly between 0 and 1, got {in_rate}")
    pos_scores = np.sort(ls.scores[ls.labels])[::-1]
    # Smallest retained count whose fraction reaches in_rate; the epsilon
    # guards against 0.9 * 10 rounding up to 9.000000000000002.
    keep = max(1, math.ceil(in_rate * pos_scores.size - 1e-9))
    threshold = pos_scores[keep - 1]
    neg_scores = ls.scores[~ls.labels]
    return int(np.count_nonzero(neg_scores < threshold)) / neg_scores.size
