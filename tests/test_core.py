import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapbound import core
from overlapbound import (
    InputError,
    NormKind,
    RadiusFamily,
    RadiusIndicator,
    SampleSet,
    make_sample_set,
    norms,
)
from conftest import ALL_NORMS

# coordinate magnitudes stay above the range where squaring underflows to 0
finite_coord = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-120, max_value=1e6),
    st.floats(min_value=-1e6, max_value=-1e-120),
)
vectors = st.lists(finite_coord, min_size=1, max_size=8)


@pytest.mark.parametrize(
    "kind,expected",
    [(NormKind.L2, 5.0), (NormKind.L1, 7.0), (NormKind.LINF, 4.0)],
)
def test_norm_on_3_4(kind, expected):
    assert norms(np.array([[3.0, 4.0]]), kind)[0] == expected


@given(vectors, st.sampled_from(ALL_NORMS))
def test_norm_nonnegative_and_zero_iff_zero(coords, kind):
    value = norms(np.array([coords]), kind)[0]
    assert value >= 0.0
    assert (value == 0.0) == all(c == 0.0 for c in coords)


@given(st.data(), st.sampled_from(ALL_NORMS))
@settings(max_examples=200)
def test_norm_triangle_inequality(data, kind):
    size = data.draw(st.integers(1, 8))
    u = data.draw(st.lists(finite_coord, min_size=size, max_size=size))
    v = data.draw(st.lists(finite_coord, min_size=size, max_size=size))
    lhs = norms(np.array([[a + b for a, b in zip(u, v)]]), kind)[0]
    rhs = norms(np.array([u]), kind)[0] + norms(np.array([v]), kind)[0]
    assert lhs <= rhs + 1e-12 * max(1.0, rhs)


# scale magnitudes stay clear of the subnormal regime, where squaring underflows
scales = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e3),
    st.floats(min_value=-1e3, max_value=-1e-6),
)


@given(vectors, scales, st.sampled_from(ALL_NORMS))
@settings(max_examples=200)
def test_norm_absolute_homogeneity(coords, c, kind):
    scaled = norms(np.array([[c * v for v in coords]]), kind)[0]
    direct = abs(c) * norms(np.array([coords]), kind)[0]
    assert scaled == pytest.approx(direct, rel=1e-12, abs=1e-300)


def test_radius_indicator_boundary_is_closed():
    ball = RadiusIndicator(1.0, NormKind.L2)
    assert ball.evaluate_many(np.array([[0.6, 0.8]]))[0]  # norm exactly 1
    assert not RadiusIndicator(0.5, NormKind.L2).evaluate_many(np.array([[0.6, 0.8]]))[0]


@given(vectors, st.floats(min_value=0, max_value=10), st.sampled_from(ALL_NORMS))
def test_indicator_always_zero_or_one(coords, radius, kind):
    verdicts = RadiusIndicator(radius, kind).evaluate_many(np.array([coords]))
    assert verdicts.dtype == bool and verdicts.shape == (1,)


@given(
    vectors,
    st.floats(min_value=0, max_value=5),
    st.floats(min_value=0, max_value=5),
    st.sampled_from(ALL_NORMS),
)
def test_indicator_monotone_in_radius(coords, r1, r2, kind):
    small, big = sorted([r1, r2])
    point = np.array([coords])
    assert RadiusIndicator(small, kind).evaluate_many(point) <= RadiusIndicator(big, kind).evaluate_many(point)


def test_radius_family_spacing_and_top():
    fam = RadiusFamily(k=4, top=2.0)
    assert fam.radii == (0.5, 1.0, 1.5, 2.0)
    assert all(b > a for a, b in zip(fam.radii, fam.radii[1:]))
    assert fam.radii[-1] == fam.top


def test_radius_family_degenerate_top_zero():
    fam = RadiusFamily(k=3, top=0.0)
    assert fam.radii == (0.0, 0.0, 0.0)


def test_radius_family_rejects_bad_k():
    with pytest.raises(InputError):
        RadiusFamily(k=0, top=1.0)


def test_radius_family_finite_near_float64_max():
    # top * j overflows for j >= 2, but every radius top * j / k fits
    top = 1.7e308
    assert RadiusFamily(k=4, top=top).radii == (top / 4, top * 0.5, top * 0.75, top)
    radii = RadiusFamily(k=50, top=np.finfo(np.float64).max).radii
    assert all(math.isfinite(r) for r in radii) and radii[-1] == np.finfo(np.float64).max
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_radius_family_numpy_top_is_a_float():
    family = RadiusFamily(k=4, top=np.float64(1.7e308))  # top * j would warn as a numpy scalar
    assert type(family.top) is float
    assert family.radii == RadiusFamily(k=4, top=1.7e308).radii


@given(st.floats(0.0, 1.7976931348623157e308), st.integers(1, 64))
def test_radius_family_keeps_top_times_j_over_k_where_it_is_finite(top, k):
    radii = RadiusFamily(k=k, top=top).radii
    for j, r in enumerate(radii, start=1):
        if math.isfinite(top * j):
            assert r == top * j / k
        else:
            assert r == top * (j / k) and r <= top


def test_sample_set_caches_and_validates():
    ss = SampleSet(np.array([[0.2], [1.0]]))
    assert ss.max_norm == 1.0
    assert ss.mean[0] == pytest.approx(0.6)
    assert len(ss) == 2 and ss.dimension == 1
    assert not ss.samples.flags.writeable
    with pytest.raises(InputError):
        SampleSet(np.empty((0, 2)))
    with pytest.raises(InputError):
        SampleSet(np.array([[np.nan]]))


def test_sample_set_1d_input_is_column():
    ss = make_sample_set([0.2, 1.0])
    assert ss.samples.shape == (2, 1)


def test_indicator_vectorized_matches_scalar(rng):
    X = rng.normal(size=(50, 3))
    for kind in ALL_NORMS:
        g = RadiusIndicator(1.2, kind)
        batch = g.evaluate_many(X)
        assert batch.dtype == bool
        assert batch.tolist() == [g.evaluate_many(row[None])[0] for row in X]
        assert batch.tolist() == [norms(row[None], kind)[0] <= 1.2 for row in X]


def fsum_columns(a):
    return np.array([math.fsum(col) for col in np.asarray(a).T.tolist()])


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


# any finite float up to 1e300 in size, subnormals and both zeros included
wide_float = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


@st.composite
def column_arrays(draw):
    """Arrays up to 5000 x 8 whose columns never overflow when summed."""
    n = draw(st.integers(1, 5000))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # 10**-330 underflows to 0 and 10**-320 is subnormal
    low = draw(st.integers(-330, 300))
    high = draw(st.integers(low, 300))
    a = rng.choice([-1.0, 1.0], size=(n, d)) * 10.0 ** rng.uniform(low, high, size=(n, d))
    zeros = rng.random((n, d)) < draw(st.floats(0, 1))
    a[zeros] = np.copysign(0.0, a[zeros])
    if draw(st.booleans()):  # exact cancellation: the second half negates the first
        half = n // 2
        a[n - half:] = -a[:half][::-1]
    for value in draw(st.lists(wide_float, max_size=20)):
        a[rng.integers(n), rng.integers(d)] = value
    return a


@given(column_arrays())
@example(np.array([[-0.0]]))
@example(np.array([[5e-324]]))
@example(np.array([[-0.0], [-0.0]]))
@example(np.array([[1e300, 0.0], [5e-324, -0.0], [-1e300, 1.0]]))
@settings(max_examples=150, deadline=None)
def test_exact_column_sums_equal_fsum_bitwise(a):
    assert_same_bits(core.exact_column_sums(a), fsum_columns(a))


def test_exact_column_sums_million_rows():
    rng = np.random.default_rng(20221216)
    a = rng.normal(size=(1_000_000, 1)) * 10.0 ** rng.integers(-20, 20, size=(1_000_000, 1))
    assert_same_bits(core.exact_column_sums(a), fsum_columns(a))


@pytest.mark.parametrize("block_elements,fold_rows", [(8, 1 << 25), (1 << 19, 3), (7, 5)])
def test_exact_column_sums_across_blocks_and_folds(monkeypatch, rng, block_elements, fold_rows):
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", block_elements)
    monkeypatch.setattr(core, "_FOLD_ROWS", fold_rows)
    # magnitudes drift between rows, so the bucket range grows both ways
    a = rng.normal(size=(300, 3)) * 10.0 ** rng.integers(-40, 40, size=(300, 1))
    a[100:120] = 0.0  # whole blocks of zeros
    a[::7, 1] = -0.0
    assert_same_bits(core.exact_column_sums(a), fsum_columns(a))


def test_exact_column_sums_overflow():
    with pytest.raises(InputError, match="column 1 overflows"):
        core.exact_column_sums(np.array([[1.0, 1e308], [2.0, 1e308]]))
    # the partial sums overflow, but the exact sum fits
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, -1e308])
    assert core.exact_column_sums(np.array([[1e308], [1e308], [-1e308]]))[0] == 1e308


def test_sample_set_rejects_overflowing_norms():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="norms overflow float64"):
            SampleSet(np.array([[1e200, 1.0], [1e200, 2.0]]))
        with pytest.raises(InputError, match="column 0 overflows"):
            SampleSet(np.array([[1e308, 1.0], [1e308, 2.0]]), NormKind.L1)
