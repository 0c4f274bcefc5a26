"""Accuracy ceilings under distribution shift and clean/poisoned test mixtures.

A model trained on one distribution cannot beat, on a shifted test
distribution, an affine function of the overlap between the two. These
helpers turn the finite-sample overlap bound into that ceiling, specialize
it to test sets mixing clean data with a disjoint contaminated component,
and provide a simulator to check measured accuracy against the ceiling.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .bound import BoundReport, compute_bound
from .core import Conditions, InputError, SampleSet, require_compatible


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise InputError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


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
    _check_unit("p", p)
    _check_unit("q", q)
    return (p - q) * compute_bound(train, test, conditions).raw_bound + q


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
    require_compatible(clean, poisoned)
    _check_unit("sigma", sigma)
    return _mixture_bound(compute_bound(clean, poisoned, conditions), sigma)


def _mixture_bound(report: BoundReport, sigma: float) -> float:
    """The mixture bound from one clean-vs-poisoned report: affine in sigma."""
    if report.pool_radius == 0.0:
        return 1.0
    mean_term = report.mean_gap / (2.0 * report.pool_radius)
    best_term = 0.5 * report.conditions[report.best_index].separation
    return 1.0 - (1.0 - sigma) * mean_term - (1.0 - sigma) * best_term


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
    _check_unit("p", p)
    return p * mixture_overlap_bound(clean, poisoned, sigma, conditions)


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
    a nonzero q adds the off-distribution floor: (p - q) * bound + q.
    """
    _check_unit("p", p)
    _check_unit("q", q)
    for sigma in sigmas:
        _check_unit("sigma", sigma)
    report = compute_bound(clean, poisoned, conditions)
    return [(float(sigma), (p - q) * _mixture_bound(report, sigma) + q) for sigma in sigmas]


def compose_mixture(
    clean: SampleSet,
    poisoned: SampleSet,
    sigma: float,
    n_total: int,
    seed: int = 0,
) -> SampleSet:
    """Deterministic proportional test mixture: floor(sigma*n) clean rows plus
    the remainder poisoned, each drawn with replacement from its component."""
    require_compatible(clean, poisoned)
    _check_unit("sigma", sigma)
    if n_total < 1:
        raise InputError(f"n_total must be >= 1, got {n_total}")
    n_clean = math.floor(sigma * n_total)
    n_pois = n_total - n_clean
    rng = np.random.default_rng(seed)
    parts = []
    if n_clean:
        parts.append(clean.samples[rng.integers(0, len(clean), size=n_clean)])
    if n_pois:
        parts.append(poisoned.samples[rng.integers(0, len(poisoned), size=n_pois)])
    return SampleSet(np.vstack(parts), clean.norm)


def fixed_accuracy_rule(
    clean: SampleSet,
    poisoned: SampleSet,
    p: float,
    q: float,
    seed: int = 0,
) -> Callable[[np.ndarray], bool]:
    """Deterministic classifier stand-in: correct on an exact p fraction of
    the clean rows and an exact q fraction of the poisoned rows.

    Rows are identified by value, so the two sets should not share samples.
    """
    _check_unit("p", p)
    _check_unit("q", q)
    rng = np.random.default_rng(seed)
    tagged: set[bytes] = set()
    for samples, frac in ((clean.samples, p), (poisoned.samples, q)):
        n = samples.shape[0]
        picked = rng.permutation(n)[: round(frac * n)]
        for i in picked:
            tagged.add(samples[i].tobytes())

    def rule(x: np.ndarray) -> bool:
        return np.ascontiguousarray(x, dtype=np.float64).tobytes() in tagged

    return rule


def simulate_accuracy(
    clean: SampleSet,
    poisoned: SampleSet,
    sigma: float,
    rule: Callable[[np.ndarray], bool],
    n_samples: int,
    seed: int = 0,
) -> float:
    """Measured accuracy of a per-sample correctness rule on the sigma-mixture.

    The composition is deterministic (floor(sigma*n) clean + remainder
    poisoned); the draws within each component are seeded resampling.
    """
    mixture = compose_mixture(clean, poisoned, sigma, n_samples, seed=seed)
    correct = sum(1 for row in mixture.samples if rule(row))
    return correct / n_samples
