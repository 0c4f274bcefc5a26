"""Accuracy ceilings under distribution shift and clean/poisoned test mixtures.

A model trained on one distribution cannot beat, on a shifted test
distribution, an affine function of the overlap between the two. These
helpers turn the finite-sample overlap bound into that ceiling, specialize
it to test sets mixing clean data with a disjoint contaminated component,
and provide a simulator to check measured accuracy against the ceiling.
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


def accuracy_ceiling(
    train: SampleSet,
    test: SampleSet,
    p: float,
    q: float,
    conditions: Conditions,
) -> float:
    """Ceiling on test accuracy for a model with accuracy p on the training
    distribution and q off it.

    (p - q) times the raw overlap bound between the two sample sets, plus q.
    The bound is used unclamped so the ceiling matches the closed form
    exactly.
    """
    return sweep_sigma(train, test, p, [0.0], conditions, q=q)[0][1]


def mixture_overlap_bound(
    clean: SampleSet,
    poisoned: SampleSet,
    sigma: float,
    conditions: Conditions,
) -> float:
    """Overlap bound between the clean distribution and a sigma-mixture of it.

    The test distribution blends a sigma fraction of clean data with a
    (1 - sigma) fraction of the poisoned component, which scales both the
    mean-gap and separation terms of the pooled bound by (1 - sigma). The
    pooled ball and per-condition region radii come from clean and poisoned
    samples pooled exactly as in the plain bound.
    """
    return sweep_sigma(clean, poisoned, 1.0, [sigma], conditions)[0][1]


def backdoor_ceiling(
    clean: SampleSet,
    poisoned: SampleSet,
    sigma: float,
    p: float,
    conditions: Conditions,
) -> float:
    """Accuracy ceiling when the model scores zero on the poisoned component.

    At sigma = 1 the ceiling is p; at sigma = 0 it collapses to p times the
    raw clean-vs-poisoned bound. Affine in sigma in between.
    """
    return sweep_sigma(clean, poisoned, p, [sigma], conditions)[0][1]


def sweep_sigma(
    clean: SampleSet,
    poisoned: SampleSet,
    p: float,
    sigmas: Sequence[float],
    conditions: Conditions,
    q: float = 0.0,
) -> list[tuple[float, float]]:
    """Ceiling per mixture fraction, ordered as given; plot-ready.

    With q = 0 each entry is the zero-accuracy-off-distribution ceiling;
    a nonzero q adds the off-distribution floor: (p - q) * bound + q. The
    mixture bound is affine in sigma, so one clean-vs-poisoned bound serves
    every sigma; an all-origin pool makes it 1.
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
