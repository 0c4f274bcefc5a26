"""Accuracy ceilings under distribution shift and clean/poisoned test mixtures.

A model trained on one distribution cannot beat, on a shifted test
distribution, an affine function of the overlap between the two. That
ceiling is affine in the clean fraction sigma of a test set that mixes
clean data with a disjoint contaminated component, and ``sweep_sigma``
evaluates it for any list of sigmas from one finite-sample bound.
``fixed_accuracy_rule`` builds a classifier stand-in of known accuracy, and
``simulate_accuracy`` measures it on a sigma-mixture, to check measured
accuracy against the ceiling.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .bound import _closed_form, compute_bound
from .core import Conditions, InputError, SampleSet, require_compatible


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise InputError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def sweep_sigma(
    clean: SampleSet,
    poisoned: SampleSet,
    p: float,
    sigmas: Sequence[float],
    conditions: Conditions,
    q: float = 0.0,
) -> list[tuple[float, float]]:
    """Ceiling per mixture fraction, ordered as given; plot-ready.

    A model with accuracy p on the clean distribution and q off it scores
    at most (p - q) * bound + q on the sigma-mixture, where bound is the
    overlap bound between the clean distribution and the mixture: the
    pooled clean-vs-poisoned bound with its mean-gap and separation terms
    scaled by (1 - sigma). It is used unclamped, so the ceiling matches the
    closed form exactly, and it is affine in sigma, so one clean-vs-poisoned
    bound serves every sigma; an all-origin pool makes it 1. So
    ``sweep_sigma(train, test, p, [0.0], g, q=q)`` is the ceiling between
    two sample sets, ``sweep_sigma(clean, poisoned, 1.0, [sigma], g)`` the
    mixture's overlap bound, and ``sweep_sigma(clean, poisoned, p, [sigma],
    g)`` the ceiling of a model that scores zero on the poisoned component:
    p at sigma = 1, p times the raw bound at sigma = 0.
    """
    _check_unit("p", p)
    _check_unit("q", q)
    sigmas = [_check_unit("sigma", sigma) for sigma in sigmas]
    report = compute_bound(clean, poisoned, conditions)
    gap, pool = report.mean_gap, report.pool_radius
    best = report.conditions[report.best_index].separation
    return [(sigma, (p - q) * (_closed_form(gap, pool, best, sigma) if pool else 1.0) + q)
            for sigma in sigmas]


def fixed_accuracy_rule(
    clean: SampleSet,
    poisoned: SampleSet,
    p: float,
    q: float,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic classifier stand-in: read-only boolean masks of the clean
    rows and of the poisoned rows it gets right, an exact p and q fraction of
    each, picked by index from a seeded permutation (so repeated rows are fine)."""
    _check_unit("p", p)
    _check_unit("q", q)
    rng = _rng(seed)
    masks = []
    for n, frac in ((len(clean), p), (len(poisoned), q)):
        right = np.zeros(n, dtype=bool)
        right[rng.permutation(n)[: round(frac * n)]] = True
        right.flags.writeable = False
        masks.append(right)
    return tuple(masks)


def simulate_accuracy(
    clean: SampleSet,
    poisoned: SampleSet,
    sigma: float,
    rule: tuple[np.ndarray, np.ndarray],
    n_samples: int,
    seed: int = 0,
) -> float:
    """Measured accuracy of a ``fixed_accuracy_rule`` on the sigma-mixture:
    the fraction of drawn rows that the rule marks as right.

    The composition is deterministic (floor(sigma*n) clean + remainder
    poisoned); the draws within each component are seeded resampling.
    """
    clean_right, poisoned_right = rule
    if len(clean_right) != len(clean) or len(poisoned_right) != len(poisoned):
        raise InputError("the rule's masks do not match the sizes of the sample sets")
    require_compatible(clean, poisoned)
    _check_unit("sigma", sigma)
    # numpy refuses a larger array of int64 row indices with a ValueError
    if not 1 <= n_samples <= np.iinfo(np.intp).max // 8:
        raise InputError(f"n_samples must be >= 1 and fit an array size, got {n_samples}")
    n_clean = math.floor(sigma * n_samples)
    rng = _rng(seed)
    clean_rows = rng.integers(0, len(clean), size=n_clean)
    poisoned_rows = rng.integers(0, len(poisoned), size=n_samples - n_clean)
    correct = int(clean_right[clean_rows].sum()) + int(poisoned_right[poisoned_rows].sum())
    return correct / n_samples
