"""Exact overlap and variation distances on finite discrete distributions.

On finite support the defining integrals reduce to sums, so every quantity
here is computed exactly (with correctly rounded accumulation). This module
is the ground truth the estimators are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    ConditionFunction,
    DegenerateDomainError,
    DimensionMismatchError,
    InputError,
    NormKind,
    RadiusIndicator,
    exact_column_sums,
    freeze,
    norms,
)
from .dataio import read_json

MASS_TOLERANCE = 1e-12

# A subset of the joint support: a condition function or a boolean mask.
SubsetSpec = ConditionFunction | np.ndarray


def _weighted_mean(points: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Exact mass-weighted column sums, so zero-mass rows leave them bitwise unchanged."""
    with np.errstate(over="ignore"):  # a mass may exceed 1 by MASS_TOLERANCE
        weighted = points * masses[:, None]
    if not np.isfinite(weighted).all():
        raise InputError("mass-weighted support points overflow float64")
    return exact_column_sums(weighted)


def _check_support(points: np.ndarray, **masses: np.ndarray) -> None:
    """InputError unless ``points`` is a nonempty (m, d) array and each mass
    vector is 1-D of length m."""
    if points.ndim != 2 or points.shape[0] == 0:
        raise InputError(f"expected a nonempty (m, d) support array, got shape {points.shape}")
    for name, mass in masses.items():
        if mass.shape != points.shape[:1]:
            raise InputError(f"{name} must be 1-D with one entry per support point "
                             f"({points.shape[0]}), got shape {mass.shape}")


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finite support points with probability masses summing to one."""

    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        mass = np.array(self.masses, dtype=np.float64, copy=True)
        _check_support(pts, masses=mass)
        if not np.isfinite(pts).all():
            raise InputError("support points have non-finite coordinates")
        if not np.isfinite(mass).all() or (mass < 0).any():
            raise InputError("masses must be finite and nonnegative")
        try:
            total = math.fsum(mass.tolist())
        except OverflowError:  # finite masses whose sum overflows are far from 1
            total = math.inf
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise InputError(f"masses must sum to 1 within {MASS_TOLERANCE}, got {total!r}")
        keys = {tuple(row) for row in pts.tolist()}
        if len(keys) != pts.shape[0]:
            raise InputError("support points must be pairwise distinct")
        freeze(self, points=pts, masses=mass)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        """Mass-weighted mean, accumulated exactly per coordinate."""
        return _weighted_mean(self.points, self.masses)

    @classmethod
    def from_json_dict(cls, doc: dict, source: str = "<memory>") -> "DiscreteDistribution":
        try:
            dim = doc["dimension"]
            points = np.asarray(doc["points"], dtype=np.float64)
            masses = np.asarray(doc["masses"], dtype=np.float64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{source}: expected keys dimension/points/masses: {exc}") from exc
        if type(dim) is not int or dim < 1:
            raise InputError(f"{source}: 'dimension' must be an integer >= 1, got {dim!r}")
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        if points.shape[1:] != (dim,):
            raise InputError(f"{source}: points have shape {points.shape}, dimension says {dim}")
        return cls(points, masses)

    @classmethod
    def from_json_file(cls, path) -> "DiscreteDistribution":
        return cls.from_json_dict(read_json(path, "distribution"), source=str(path))


@dataclass(frozen=True, eq=False)
class JointSupport:
    """Union of two supports with aligned mass vectors (0 where absent), plus
    the two distributions' exact means, derived from the masses.

    Points are matched by exact coordinate identity; nearby-but-unequal points
    stay distinct so the oracle never does fuzzy merging. Boolean subset
    masks are expressed over ``points``.
    """

    points: np.ndarray
    p_masses: np.ndarray
    q_masses: np.ndarray
    p_mean: np.ndarray = field(init=False)
    q_mean: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        points, p_masses, q_masses = (np.array(v, dtype=np.float64)
                                      for v in (self.points, self.p_masses, self.q_masses))
        _check_support(points, p_masses=p_masses, q_masses=q_masses)
        freeze(self, points=points, p_masses=p_masses, q_masses=q_masses,
               p_mean=_weighted_mean(points, p_masses), q_mean=_weighted_mean(points, q_masses))

    @classmethod
    def of(cls, p: DiscreteDistribution, q: DiscreteDistribution) -> "JointSupport":
        if p.dimension != q.dimension:
            raise DimensionMismatchError(
                f"distributions have different dimensions: {p.dimension} vs {q.dimension}"
            )
        index: dict[tuple, int] = {}
        rows: list[list[float]] = []
        for row in p.points.tolist():
            index[tuple(row)] = len(rows)
            rows.append(row)
        for row in q.points.tolist():
            key = tuple(row)
            if key not in index:
                index[key] = len(rows)
                rows.append(row)
        m = len(rows)
        p_mass = np.zeros(m)
        q_mass = np.zeros(m)
        p_mass[: p.points.shape[0]] = p.masses
        for row, w in zip(q.points.tolist(), q.masses.tolist()):
            q_mass[index[tuple(row)]] = w
        return cls(np.asarray(rows, dtype=np.float64), p_mass, q_mass)

    def support_norms(self, kind: NormKind) -> np.ndarray:
        """Norms of the joint support points; InputError if one overflows float64."""
        with np.errstate(over="ignore"):
            out = norms(self.points, kind)
        if not np.isfinite(out).all():
            raise InputError(f"support {kind.value} norms overflow float64")
        return out

    def mean_gap(self, kind: NormKind) -> float:
        """Norm of the gap between the two means; InputError if it overflows float64."""
        with np.errstate(over="ignore"):
            gap = float(norms((self.p_mean - self.q_mean).reshape(1, -1), kind)[0])
        if not math.isfinite(gap):
            raise InputError(f"the {kind.value} gap between the distribution means overflows float64")
        return gap

    def membership(self, subset: SubsetSpec) -> np.ndarray:
        """Boolean mask over the joint points: a condition function's
        acceptances, or a boolean mask with one entry per joint point."""
        if isinstance(subset, ConditionFunction):
            return np.asarray(subset.evaluate_many(self.points), dtype=bool)
        if not (isinstance(subset, np.ndarray) and subset.dtype == bool):
            raise InputError(
                f"a subset must be a condition function or a boolean mask, got {type(subset).__name__}"
            )
        if subset.shape != (self.points.shape[0],):
            raise InputError(
                f"boolean subset mask has shape {subset.shape}, expected ({self.points.shape[0]},)"
            )
        return subset


def _overlap(joint: JointSupport) -> float:
    return math.fsum(np.minimum(joint.p_masses, joint.q_masses).tolist())


def _total_variation(joint: JointSupport) -> float:
    return 0.5 * math.fsum(np.abs(joint.p_masses - joint.q_masses).tolist())


def overlap(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Exact overlap index: sum of pointwise minimum masses. 1 iff identical."""
    return _overlap(JointSupport.of(p, q))


def total_variation(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Exact total variation distance: half the L1 gap between mass vectors."""
    return _total_variation(JointSupport.of(p, q))


def subset_variation(joint: JointSupport, subset: SubsetSpec) -> float:
    """Total-variation mass restricted to a subset of the joint support."""
    mask = joint.membership(subset)
    gaps = np.abs(joint.p_masses - joint.q_masses)[mask]
    return 0.5 * math.fsum(gaps.tolist())


def subset_bound(
    joint: JointSupport,
    subset: SubsetSpec,
    norm: NormKind = NormKind.L2,
    use_domain_radius: bool = True,
) -> float:
    """Exact upper bound on the overlap built from one subset.

    The bound combines the gap between the two means with the variation mass
    on the subset, each scaled by max-norm radii taken exactly over the joint
    support. ``use_domain_radius`` selects the denominator: the max norm over
    the whole support (True) or over the subset's complement (False).
    """
    return _subset_bound(joint, joint.membership(subset), joint.support_norms(norm), norm, use_domain_radius)


def _subset_bound(joint: JointSupport, mask: np.ndarray, support_norms: np.ndarray,
                  norm: NormKind, use_domain_radius: bool) -> float:
    """``subset_bound`` from a mask over the joint and its ``support_norms(norm)``."""
    r_region = float(support_norms[mask].max(initial=0.0))
    denom_norms = support_norms if use_domain_radius else support_norms[~mask]
    r_denom = float(denom_norms.max(initial=0.0))
    if r_denom == 0.0:
        what = "joint support" if use_domain_radius else "subset complement"
        raise DegenerateDomainError(
            f"max norm over the {what} is 0; the bound is undefined (overlap is 1 "
            "whenever both distributions are the same point mass at the origin)"
        )
    mean_gap = joint.mean_gap(norm)
    dv = subset_variation(joint, mask)
    return 1.0 - 0.5 * (mean_gap / r_denom) - ((r_denom - r_region) / r_denom) * dv


def indicator_bound(
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    conditions: Sequence[ConditionFunction],
    norm: NormKind = NormKind.L2,
) -> float:
    """Exact upper bound on the overlap over a family of condition functions.

    Uses exact acceptance probabilities instead of the per-subset variation
    mass, taking the best (largest) separation term across the family.
    A ball in ``norm`` is read off the support's norms.
    """
    if len(conditions) == 0:
        raise InputError("need at least one condition function")
    joint = JointSupport.of(p, q)
    return _indicator_bound(joint, joint.support_norms(norm), conditions, norm)


def _indicator_bound(joint: JointSupport, support_norms: np.ndarray,
                     conditions: Sequence[ConditionFunction], norm: NormKind) -> float:
    """``indicator_bound`` from ``JointSupport.of(p, q)`` and its ``support_norms(norm)``."""
    r_domain = float(support_norms.max())
    if r_domain == 0.0:
        raise DegenerateDomainError(
            "max norm over the joint support is 0; both distributions are a "
            "point mass at the origin and the overlap is exactly 1"
        )
    mean_gap = joint.mean_gap(norm)
    best = 0.0
    for g in conditions:
        if isinstance(g, RadiusIndicator) and g.norm is norm:
            mask = support_norms <= g.radius  # the norms g.evaluate_many would take
        else:
            mask = joint.membership(g)
        r_region = float(support_norms[mask].max(initial=0.0))
        rates = [math.fsum(masses[mask].tolist()) for masses in (joint.p_masses, joint.q_masses)]
        best = max(best, 0.5 * ((r_domain - r_region) / r_domain) * abs(rates[0] - rates[1]))
    return 1.0 - 0.5 * (mean_gap / r_domain) - best
