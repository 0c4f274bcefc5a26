import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from overlapbound import DiscreteDistribution, NormKind, SampleSet

ALL_NORMS = (NormKind.L1, NormKind.L2, NormKind.LINF)

# `pytest --hypothesis-profile=ci`: more examples where a test sets no count
# of its own, no deadline on shared runners, and a reproduction blob printed
# with every failure.
settings.register_profile("ci", max_examples=300, deadline=None, print_blob=True)


def random_support(rng: np.random.Generator, n_points: int, dim: int) -> np.ndarray:
    """Distinct support points in [-2, 2]^dim."""
    while True:
        pts = rng.uniform(-2.0, 2.0, size=(n_points, dim))
        if len({tuple(r) for r in pts.tolist()}) == n_points:
            return pts


def random_masses(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly positive masses summing to 1 to within float addition error."""
    w = rng.uniform(0.05, 1.0, size=n)
    m = w / math.fsum(w.tolist())
    m[-1] = 1.0 - math.fsum(m[:-1].tolist())
    return m


def random_pair(
    rng: np.random.Generator, max_points: int = 16, max_dim: int = 3
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Two distributions over subsets of one point pool, so supports overlap."""
    dim = int(rng.integers(1, max_dim + 1))
    pool_size = int(rng.integers(2, max_points + 1))
    pool = random_support(rng, pool_size, dim)
    n_p = int(rng.integers(1, pool_size + 1))
    n_q = int(rng.integers(1, pool_size + 1))
    idx_p = rng.permutation(pool_size)[:n_p]
    idx_q = rng.permutation(pool_size)[:n_q]
    p = DiscreteDistribution(pool[idx_p], random_masses(rng, n_p))
    q = DiscreteDistribution(pool[idx_q], random_masses(rng, n_q))
    return p, q


def integer_count_pair(
    rng: np.random.Generator, max_points: int = 8, max_dim: int = 3, max_count: int = 6
) -> tuple[DiscreteDistribution, DiscreteDistribution, np.ndarray, np.ndarray]:
    """A pair whose masses are exact replication counts over a shared pool.

    Returns (p, q, replicated_p, replicated_q) where the replicated arrays
    contain each support point repeated by its count, so empirical rates and
    means reproduce the exact ones to float-addition accuracy.
    """
    dim = int(rng.integers(1, max_dim + 1))
    pool_size = int(rng.integers(2, max_points + 1))
    pool = random_support(rng, pool_size, dim)

    def one_side():
        n = int(rng.integers(1, pool_size + 1))
        idx = rng.permutation(pool_size)[:n]
        counts = rng.integers(1, max_count + 1, size=n)
        total = int(counts.sum())
        masses = counts / total
        masses[-1] = 1.0 - math.fsum(masses[:-1].tolist())
        dist = DiscreteDistribution(pool[idx], masses)
        replicated = np.repeat(pool[idx], counts, axis=0)
        return dist, replicated

    p, rep_p = one_side()
    q, rep_q = one_side()
    return p, q, rep_p, rep_q


def as_mass_dict(dist: DiscreteDistribution) -> dict:
    return {tuple(pt): m for pt, m in zip(dist.points.tolist(), dist.masses.tolist())}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def gaussian_cloud(
    rng: np.random.Generator, n: int, dim: int, center=0.0, norm: NormKind = NormKind.L2
) -> SampleSet:
    return SampleSet(rng.normal(size=(n, dim)) + np.asarray(center), norm)


@st.composite
def repeated_rows(draw, d: int | None = None) -> np.ndarray:
    """Up to 25 rows of dimension d (1 to 3 when not given) picked with
    repeats from a few distinct ones, so norms repeat; often one of the
    distinct rows is the origin."""
    if d is None:
        d = draw(st.integers(1, 3))
    coord = st.sampled_from([0.0, 0.5, -0.5, 1.0, -2.0, 3.25]) | st.floats(-4.0, 4.0)
    distinct = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=5))
    if draw(st.booleans()):
        distinct.append([0.0] * d)
    return np.array(draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=25)))


def radii_on_norms(data, *sample_sets) -> list[float]:
    """Strictly increasing radii, drawn mostly from the sets' exact norms."""
    exact = sorted({v for ss in sample_sets for v in ss.sorted_norms.tolist()})
    values = data.draw(st.lists(st.sampled_from(exact) | st.floats(0.0, 8.0), min_size=1, max_size=8))
    return sorted(set(values))


# The same values laid out as numpy lays out real inputs; "broadcast" repeats row 0.
_LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "row-strided": lambda a: np.repeat(a, 2, axis=0)[::2],
    "column-strided": lambda a: np.repeat(a, 3, axis=1)[:, ::3],
    "reversed-F": lambda a: np.asfortranarray(a[::-1, ::-1])[::-1, ::-1],
    "broadcast": lambda a: np.broadcast_to(a[0], a.shape),
}


@st.composite
def laid_out_samples(draw):
    """Up to 40 x 16 arrays in one of ``_LAYOUTS``, entries from 1e-100 to
    1e100 in size, with zero rows, repeated rows, or all rows at the origin."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.integers(0, 100))  # small spreads make summation order show
    a = rng.choice([-1.0, 1.0], size=(n, d)) * 10.0 ** rng.uniform(-spread, spread, size=(n, d))
    a[rng.random(n) < draw(st.floats(0, 1))] = 0.0
    if draw(st.booleans()):
        a = a[rng.integers(0, n, size=n)]
    return _LAYOUTS[draw(st.sampled_from(sorted(_LAYOUTS)))](a)


@st.composite
def full_range_arrays(draw):
    """Arrays up to 400 x 5 whose entries run from 5e-324 to the largest
    float64 in size, mixed within one block, often with a column's second
    half negating its first, so that its partial sums overflow while its
    exact sum fits."""
    n, d = draw(st.integers(1, 400)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-1074, 1023))
    high = draw(st.integers(low, 1023))
    exponents = rng.integers(low, high + 1, size=(n, d))
    a = np.ldexp(rng.choice([-1.0, 1.0], size=(n, d)) * rng.uniform(1.0, 2.0, size=(n, d)), exponents)
    a[rng.random((n, d)) < draw(st.floats(0, 0.5))] = 0.0
    extremes = st.sampled_from([5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                                2.0**1023, 2.0**1015, -(2.0**1014) * 1.5, 2.2250738585072014e-308])
    for value in draw(st.lists(extremes, max_size=12)):
        a[rng.integers(n), rng.integers(d)] = value
    if draw(st.booleans()):
        half = n // 2
        a[n - half:] = -a[:half][::-1]
    return a
