"""Threshold-free ranking metrics for scored in-class/out-class data.

Conventions, since they differ across libraries: ranking ties count one half
in AUROC; the precision-recall area uses a step-wise (right-continuous)
sweep over distinct thresholds, never linear interpolation; the fixed
in-class-rate metric picks the largest threshold that still retains the
requested fraction of positives, with ties at the threshold counting as in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import InputError, MetricUndefinedError, freeze


@dataclass(frozen=True)
class LabeledScores:
    """Parallel score and label arrays; True (or 1) labels mark in-class
    samples, and any label other than a boolean, 0 or 1 is an InputError.

    The descending sweep that every metric reads is built once, at
    construction: per distinct score, highest first, the threshold, the
    positives (``tps``) and all samples (``predicted``) scoring >= it.
    """

    scores: np.ndarray
    labels: np.ndarray
    thresholds: np.ndarray = field(init=False, repr=False, compare=False)
    tps: np.ndarray = field(init=False, repr=False, compare=False)
    predicted: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s = np.array(self.scores, dtype=np.float64, copy=True)
        y = np.array(self.labels, copy=True)
        if s.ndim != 1 or y.ndim != 1 or s.shape != y.shape or s.size == 0:
            raise InputError(
                f"scores and labels must be nonempty 1-D arrays of equal length, "
                f"got {s.shape} and {y.shape}"
            )
        if y.dtype != bool:  # a -1, 0.5 or NaN label would count as in-class
            bad = y[(y != 0) & (y != 1)]
            if bad.size:
                raise InputError(f"labels must be booleans or 0/1, got {bad[0].item()!r}")
            y = y == 1
        if not np.isfinite(s).all():
            raise InputError("scores must be finite")
        # The sort need not be stable: a tie group's counts at its last row
        # do not depend on the order within it, and its members share their
        # bits, except that 0.0 and -0.0 tie. The zero threshold takes the
        # sign of the last zero in input order, as a stable sort gives it.
        order = np.argsort(-s)
        sorted_scores = s[order]
        boundary = np.r_[np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]), s.size - 1]
        thresholds = sorted_scores[boundary]
        if (zeros := np.flatnonzero(s == 0.0)).size:
            thresholds[thresholds == 0.0] = s[zeros[-1]]
        freeze(self, scores=s, labels=y, thresholds=thresholds,
               tps=np.cumsum(y[order])[boundary], predicted=boundary + 1)

    @property
    def n_pos(self) -> int:
        return int(self.tps[-1])

    @property
    def n_neg(self) -> int:
        return self.labels.size - self.n_pos


def _require_both_classes(ls: LabeledScores) -> None:
    if ls.n_pos == 0 or ls.n_neg == 0:
        raise MetricUndefinedError(
            f"metric needs both classes, got {ls.n_pos} positives and {ls.n_neg} negatives"
        )


def auroc(ls: LabeledScores) -> float:
    """Probability that a random positive outscores a random negative.

    The exact Mann-Whitney count over the sweep's tie groups, in integers:
    each positive beats the negatives below its group and ties its own
    group's negatives for one half.
    """
    _require_both_classes(ls)
    n_pos, n_neg = ls.n_pos, ls.n_neg
    fps = ls.predicted - ls.tps
    pos_g = np.diff(ls.tps, prepend=0)
    neg_g = np.diff(fps, prepend=0)
    twice_u = int(np.dot(pos_g, 2 * (n_neg - fps) + neg_g))
    return twice_u / (2 * n_pos * n_neg)


def roc_curve(ls: LabeledScores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fpr, tpr, thresholds) swept over distinct scores, descending.

    A sample is predicted in-class when its score >= the threshold; tie
    groups produce a single curve point. The curve starts at (0, 0).
    """
    _require_both_classes(ls)
    fpr = np.concatenate([[0.0], (ls.predicted - ls.tps) / ls.n_neg])
    tpr = np.concatenate([[0.0], ls.tps / ls.n_pos])
    return fpr, tpr, np.concatenate([[np.inf], ls.thresholds])


def aupr(ls: LabeledScores) -> float:
    """Area under precision-recall via a step-wise descending sweep."""
    if ls.n_pos == 0:
        raise MetricUndefinedError("precision-recall area needs at least one positive")
    recall = ls.tps / ls.n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    terms = (recall - prev_recall) * (ls.tps / ls.predicted)
    # a group without positives adds an exact 0, so only the steps are summed
    return math.fsum(terms[terms != 0.0].tolist())


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
    # Smallest retained count whose fraction reaches in_rate; the epsilon
    # guards against 0.9 * 10 rounding up to 9.000000000000002.
    keep = max(1, math.ceil(in_rate * ls.n_pos - 1e-9))
    group = int(np.searchsorted(ls.tps, keep))  # the tie group of the keep-th positive
    return (ls.n_neg - int(ls.predicted[group] - ls.tps[group])) / ls.n_neg
