"""Numpy references the benchmark checks every operation against.

Each function transcribes a formula from PAPER.md directly and imports
nothing from ``overlapbound``, so a defect in the package cannot hide in
its own reference. Ball statistics come from sorted norms and
``searchsorted`` instead of the package's per-condition masks, and AUROC
comes from Mann-Whitney counts instead of midranks.
"""

from __future__ import annotations

import math

import numpy as np


def l2_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def uniform_radii(top: float, k: int) -> np.ndarray:
    """r_j = j/k * top for j = 1..k, multiplied before dividing."""
    return top * np.arange(1, k + 1, dtype=np.float64) / k


def _ball_stats(sorted_norms: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Accepted count and largest accepted norm (0 if none) per closed ball."""
    counts = np.searchsorted(sorted_norms, radii, side="right")
    region = np.where(counts > 0, sorted_norms[np.maximum(counts - 1, 0)], 0.0)
    return counts, region


def pooled_bound(a: np.ndarray, b: np.ndarray, radii: np.ndarray) -> float:
    """Raw pooled overlap bound between two (n, d) samples under L2 balls.

    1 - |mean_a - mean_b| / (2R) - max_j (1 - R_j/R) |rate_a,j - rate_b,j| / 2,
    where R is the pooled max norm and R_j the largest pooled norm in ball j.
    """
    na, nb = l2_norms(a), l2_norms(b)
    pool = np.sort(np.concatenate([na, nb]))
    r_pool = float(pool[-1])
    if r_pool == 0.0:
        return 1.0
    gap = float(np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)))
    _, region = _ball_stats(pool, radii)
    count_a, _ = _ball_stats(np.sort(na), radii)
    count_b, _ = _ball_stats(np.sort(nb), radii)
    sep = (1.0 - region / r_pool) * np.abs(count_a / a.shape[0] - count_b / b.shape[0])
    return 1.0 - gap / (2.0 * r_pool) - 0.5 * float(sep.max())


def sweep_closed_form(raw: float, sigmas, p: float, q: float) -> list[float]:
    """Ceiling of the sigma-mixture: (p - q)(1 - (1 - sigma)(1 - raw)) + q."""
    return [(p - q) * (1.0 - (1.0 - s) * (1.0 - raw)) + q for s in sigmas]


def simulated_accuracy_window(
    n_clean_rows: int, n_pois_rows: int, sigma: float, p: float, q: float, draws: int
) -> tuple[float, float]:
    """Six-standard-deviation window for the simulator's measured accuracy.

    The rule is right on round(p * rows) clean rows and round(q * rows)
    poisoned rows; floor(sigma * draws) clean and the rest poisoned rows are
    drawn with replacement, so each part's correct count is binomial.
    """
    pc = round(p * n_clean_rows) / n_clean_rows
    pp = round(q * n_pois_rows) / n_pois_rows
    dc = math.floor(sigma * draws)
    dp = draws - dc
    mean = (dc * pc + dp * pp) / draws
    sd = math.sqrt(dc * pc * (1 - pc) + dp * pp * (1 - pp)) / draws
    half = 6.0 * sd + 1.0 / draws
    return mean - half, mean + half


class SingletonScorer:
    """Pooled bound between a query singleton and a fixed in-class sample.

    The in-class side's norms, mean and max norm are computed once, so
    scoring many queries costs O(k) each.
    """

    def __init__(self, fit: np.ndarray, k: int):
        norms = np.sort(l2_norms(fit))
        self.n = fit.shape[0]
        self.mean = fit.mean(axis=0)
        self.fit_radius = float(norms[-1])
        self.radii = uniform_radii(self.fit_radius, k)
        counts, self.region = _ball_stats(norms, self.radii)
        self.rates = counts / self.n

    def raw(self, queries: np.ndarray) -> np.ndarray:
        qn = l2_norms(queries)
        gap = l2_norms(queries - self.mean)
        pool = np.maximum(self.fit_radius, qn)[:, None]
        inside = qn[:, None] <= self.radii[None, :]
        region = np.where(inside, np.maximum(self.region[None, :], qn[:, None]), self.region[None, :])
        sep = (1.0 - region / pool) * np.abs(inside - self.rates[None, :])
        return 1.0 - gap / (2.0 * pool[:, 0]) - 0.5 * sep.max(axis=1)


def iterative_scores(fit: np.ndarray, queries: np.ndarray, k: int, k2: int) -> np.ndarray:
    """Second pass: the singleton bound rerun on clamped first-pass scores,
    with balls of radius j/k2 in score space."""
    first = SingletonScorer(fit, k)
    class_first = np.clip(first.raw(fit), 0.0, 1.0).reshape(-1, 1)
    query_first = np.clip(first.raw(queries), 0.0, 1.0)
    radii = np.arange(1, k2 + 1, dtype=np.float64) / k2
    return np.array([pooled_bound(np.array([[s]]), class_first, radii) for s in query_first])


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney: share of (positive, negative) pairs ranked right, ties 1/2."""
    neg = np.sort(scores[~labels])
    pos = scores[labels]
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    wins = int(below.sum()) + 0.5 * int(ties.sum())
    return wins / (pos.size * neg.size)


def rejected_at_in_rate(scores: np.ndarray, labels: np.ndarray, in_rate: float) -> float:
    """Share of negatives strictly below the score that keeps in_rate of positives."""
    pos = np.sort(scores[labels])[::-1]
    keep = max(1, math.ceil(in_rate * pos.size - 1e-9))
    neg = scores[~labels]
    return int(np.count_nonzero(neg < pos[keep - 1])) / neg.size


def discrete_overlap(p_points, p_mass, q_points, q_mass) -> tuple[float, float]:
    """(overlap, total variation) of two finite distributions on exact points."""
    p = dict(zip(map(tuple, p_points), p_mass))
    q = dict(zip(map(tuple, q_points), q_mass))
    keys = set(p) | set(q)
    ov = math.fsum(min(p.get(x, 0.0), q.get(x, 0.0)) for x in keys)
    tv = 0.5 * math.fsum(abs(p.get(x, 0.0) - q.get(x, 0.0)) for x in keys)
    return ov, tv
