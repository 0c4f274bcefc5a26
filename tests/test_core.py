import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapbound import core
from overlapbound import (
    DiscreteDistribution,
    InputError,
    JointSupport,
    LabeledScores,
    NormKind,
    RadiusFamily,
    RadiusIndicator,
    SampleSet,
    fit,
    indicator_bound,
    make_sample_set,
    norms,
    subset_bound,
)
from conftest import ALL_NORMS, _LAYOUTS, full_range_arrays, laid_out_samples
from oracles import exact_square_sum, exact_sum, norm_of

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


@pytest.mark.parametrize("make, message", [
    (lambda: norms(np.ones(3), NormKind.L2), r"expected a 2-D array of row vectors, got shape \(3,\)"),
    (lambda: RadiusIndicator(-1.0), "radius must be finite and >= 0, got -1.0"),
    (lambda: RadiusIndicator(math.nan, NormKind.LINF), "radius must be finite and >= 0, got nan"),
])
def test_norms_of_a_vector_and_a_radius_below_zero_or_nan_are_refused(make, message):
    with pytest.raises(InputError, match=message):
        make()


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
    assert not hasattr(ss, "samples")  # a set keeps its statistics, not its rows
    assert not ss.sorted_norms.flags.writeable and not ss.mean.flags.writeable
    with pytest.raises(InputError):
        SampleSet(np.empty((0, 2)))
    with pytest.raises(InputError):
        SampleSet(np.array([[np.nan]]))


def test_sample_set_1d_input_is_column():
    ss = make_sample_set([0.2, 1.0])
    assert (len(ss), ss.dimension) == (2, 1)
    assert ss.sorted_norms.tolist() == [0.2, 1.0]


def test_make_sample_set_returns_a_set_in_its_own_norm_itself():
    ss = SampleSet([[1.0, 2.0], [0.5, 0.0]], NormKind.L1)
    assert make_sample_set(ss) is ss
    assert make_sample_set(ss, "l1") is ss


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


@pytest.mark.parametrize("block_elements,fold_parts", [(8, 1 << 25), (1 << 19, 3), (7, 5)])
def test_exact_column_sums_across_blocks_and_folds(monkeypatch, rng, block_elements, fold_parts):
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", block_elements)
    monkeypatch.setattr(core, "_FOLD_PARTS", fold_parts)
    # magnitudes drift between rows, so the bucket range grows both ways
    a = rng.normal(size=(300, 3)) * 10.0 ** rng.integers(-40, 40, size=(300, 1))
    a[100:120] = 0.0  # whole blocks of zeros
    a[::7, 1] = -0.0
    assert_same_bits(core.exact_column_sums(a), fsum_columns(a))


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 9))
@settings(max_examples=100, deadline=None)
def test_column_sums_resume_over_blocks_of_any_size(seed, fold_parts, block_elements):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(60, 3)) * 10.0 ** rng.integers(-40, 40, size=(60, 1))
    cuts = np.sort(rng.integers(0, 61, size=int(rng.integers(0, 8))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_FOLD_PARTS", fold_parts)
        mp.setattr(core, "_BLOCK_ELEMENTS", block_elements)
        sums = core._ColumnSums(3)
        for lo, hi in zip([0, *cuts], [*cuts, 60]):
            sums.add(a[lo:hi])
            assert sums.pending <= fold_parts  # bucket sums stay exact in int64
            assert_same_bits(sums.result(), fsum_columns(a[:hi]))  # and adding goes on


@pytest.mark.parametrize("e", [-1000, -30, 0, 52, 1000])
def test_an_int64_bucket_holds_fold_parts_of_the_largest_level(monkeypatch, e):
    # A part of 4 rows has level unit 2**(e - 51), and 4 rows just below 2**e
    # each round up to 2**51 units, so every part's first level sums to
    # 2**53 units, the most a level holds: 1024 such parts overflow int64.
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 4)
    a = np.full((4 * 1024, 1), np.nextafter(2.0**e, 0.0))
    sums = core._ColumnSums(1)
    sums.add(a)
    assert_same_bits(sums.result(), fsum_columns(a))


def test_exact_column_sums_overflow():
    with pytest.raises(InputError, match="column 1 overflows"):
        core.exact_column_sums(np.array([[1.0, 1e308], [2.0, 1e308]]))
    # the partial sums overflow, but the exact sum fits
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, -1e308])
    assert core.exact_column_sums(np.array([[1e308], [1e308], [-1e308]]))[0] == 1e308


@given(full_range_arrays(), st.lists(st.integers(0, 400), max_size=6))
@example(np.array([[1.7976931348623157e308], [1.7976931348623157e308], [-1.7976931348623157e308]]), [])
@example(np.array([[1.7976931348623157e308, 5e-324], [-5e-324, 2.0**1023]]), [1])
@settings(max_examples=150, deadline=None)
def test_exact_column_sums_over_the_full_float64_range(a, cuts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = []
        for column in a.T.tolist():
            try:
                want.append(math.fsum(column))
            except OverflowError:  # the partial sums overflow
                want.append(exact_sum(column))
        overflows = [j for j, value in enumerate(want) if value is None]
        if overflows:
            with pytest.raises(InputError, match=f"column {overflows[0]} overflows"):
                core.exact_column_sums(a)
            return
        want = np.array(want)
        assert_same_bits(core.exact_column_sums(a), want)
        # the same rows in blocks cut anywhere
        n = a.shape[0]
        sums = core._ColumnSums(a.shape[1])
        bounds = sorted(min(c, n) for c in cuts)
        for lo, hi in zip([0, *bounds], [*bounds, n]):
            sums.add(a[lo:hi])
        assert_same_bits(sums.result(), want)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_exact_column_sums_refuse_non_finite_entries(bad):
    with pytest.raises(InputError, match="finite"):
        core.exact_column_sums(np.array([[1.0, 2.0], [bad, 0.5]]))


@pytest.fixture
def fallen(monkeypatch):
    """The columns that the certified sums hand to the exact fallback, in order."""
    cols = []
    real = core._CertifiedSums._exact_totals
    monkeypatch.setattr(core._CertifiedSums, "_exact_totals",
                        lambda self, wanted: cols.extend(wanted) or real(self, wanted))
    return cols


def test_certified_sums_of_gaussian_data_never_fall_back(fallen):
    a = np.random.default_rng(17).standard_normal((20000, 64))
    assert_same_bits(core.exact_column_sums(a), fsum_columns(a))
    assert_same_bits(fit(a, k=50).mean, fsum_columns(a) / len(a))
    assert fallen == []


def _huge_with_a_remainder():
    """A huge float whose lowest bit is set, so it leaves a remainder at any unit above its ulp."""
    return math.ldexp(1.0 + 2.0**-52, 996)


@pytest.mark.parametrize(
    "a, cols",
    [
        # exactly cancelling columns: the certified interval holds 0 and its neighbours
        (np.concatenate([(c := np.random.default_rng(3).normal(size=(150, 3))), -c[::-1]]), [0, 1, 2]),
        # centred columns: each sum is far below the bound set by the remainders
        ((c := np.random.default_rng(4).normal(size=(300, 3))) - c.mean(axis=0), [0, 1, 2]),
        # column 1's exact sum 1 + 2**-53 is a tie between 1 and its successor;
        # its entries below the level's unit (2**-50 here) are nonzero remainders
        (np.array([[0.5, 1.0], [0.25, 2.0**-54], [0.125, 2.0**-54]]), [1]),
        # tiny entries beside huge ones that cancel: the bound is set by the huge remainders
        (np.array([[_huge_with_a_remainder()], [1e-300], [-_huge_with_a_remainder()], [3e-300]]), [0]),
        # the same near float64's maximum, where the level rounds scaled entries
        (np.array([[1.7e308], [1e-300], [-1.7e308], [3e-300]]), [0]),
    ],
    ids=["cancelling", "centred", "tie", "tiny-beside-huge", "tiny-beside-the-largest"],
)
def test_certified_sums_fall_back_where_the_interval_rounds_two_ways(fallen, a, cols):
    assert_same_bits(core.exact_column_sums(a), fsum_columns(a))
    assert fallen == cols
    fallen.clear()
    assert_same_bits(SampleSet(a, NormKind.LINF).mean, fsum_columns(a) / len(a))
    assert fallen == cols


def test_sample_set_rejects_overflowing_norms():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="norms overflow float64"):
            SampleSet(np.array([[1e200, 1.0], [1e200, 2.0]]))
        with pytest.raises(InputError, match="column 0 overflows"):
            SampleSet(np.array([[1e308, 1.0], [1e308, 2.0]]), NormKind.L1)


def _value_types():
    """One instance of each frozen value type, built through its public constructor."""
    p = DiscreteDistribution([[0.0, 1.0], [2.0, 0.5]], [0.25, 0.75])
    q = DiscreteDistribution([[2.0, 0.5], [1.0, 1.0]], [0.5, 0.5])
    return [
        SampleSet([[0.2, 1.0], [1.0, -3.0]]),
        RadiusFamily(k=3, top=2.0),
        LabeledScores(np.array([0.3, 0.1, 0.3]), np.array([True, False, False])),
        fit([[0.2, 1.0], [1.0, -3.0]], k=3),
        p,
        JointSupport.of(p, q),
    ]


@pytest.mark.parametrize("value", _value_types(), ids=lambda v: type(v).__name__)
def test_every_array_of_a_value_type_is_read_only(value):
    arrays = {name: v for name, v in vars(value).items() if isinstance(v, np.ndarray)}
    assert arrays or isinstance(value, RadiusFamily)  # a family holds tuples only
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def test_joint_support_copies_what_it_is_given():
    arrays = [np.array([[1.0]]), np.array([1.0]), np.array([0.0])]
    joint = JointSupport(*arrays)
    assert all(a.flags.writeable for a in arrays)
    arrays[1][0] = 0.0
    assert joint.p_masses[0] == 1.0


_NORM_ROWS = st.lists(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2), min_size=1, max_size=6)


@given(_NORM_ROWS, st.sampled_from(["l1", "l2", "linf"]))
@example([[3.0, 4.0], [1.0, 1.0]], "l1")
@settings(max_examples=60, deadline=None)
def test_a_norm_name_is_converted_or_refused_never_read_as_linf(rows, name):
    kind = NormKind.from_string(name)
    a = np.array(rows)
    want = [norm_of(row, name) for row in rows]
    assert norms(a, kind).tolist() == pytest.approx(want, rel=1e-12, abs=0.0)
    assert SampleSet(a, kind).max_norm == pytest.approx(max(want), rel=1e-12, abs=0.0)
    # entry points documented to take names convert them
    assert make_sample_set(a, name).norm is kind
    assert make_sample_set(a, name).max_norm == SampleSet(a, kind).max_norm
    named, typed = fit(a, k=3, norm=name), fit(a, k=3, norm=kind)
    assert named.norm is kind and named.fit_radius == typed.fit_radius
    assert named.raw_scores(a).tolist() == typed.raw_scores(a).tolist()
    # every other entry point refuses a name instead of computing linf norms
    dist = DiscreteDistribution([[3.0, 4.0], [1.0, 1.0]], [0.5, 0.5])
    joint = JointSupport.of(dist, DiscreteDistribution([[1.0, 1.0]], [1.0]))
    for call in (
        lambda: norms(a, name),
        lambda: SampleSet(a, name),
        lambda: RadiusIndicator(1.0, name),
        lambda: RadiusFamily(k=2, top=1.0, norm=name),
        lambda: joint.support_norms(name),
        lambda: joint.mean_gap(name),
        lambda: subset_bound(joint, np.array([True, False]), name),
        lambda: indicator_bound(dist, dist, [RadiusIndicator(1.0, kind)], name),
    ):
        with pytest.raises(InputError, match="NormKind.from_string"):
            call()


@given(laid_out_samples(), st.sampled_from(ALL_NORMS), st.integers(1, 64))
@example(np.broadcast_to(np.arange(1.0, 10.0) / 7.0, (5, 9)), NormKind.L2, 64)
@settings(max_examples=300, deadline=None)
def test_blockwise_statistics_equal_one_shot_bitwise(a, kind, block_elements):
    # blocks of a few rows, so rows cross block boundaries; the one-shot
    # expressions run on a copy, as a SampleSet holds one
    copy = np.array(a)
    want_sorted = np.sort(norms(copy, kind))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ELEMENTS", block_elements)
        ss = SampleSet(a, kind)
        fitted = fit(a, k=5, norm=kind)
    assert_same_bits(ss.sorted_norms, want_sorted)
    assert ss.max_norm == float(want_sorted[-1]) == fitted.fit_radius
    assert_same_bits(ss.mean, fsum_columns(copy) / len(copy))
    assert_same_bits(fitted.mean, ss.mean)
    assert fitted.to_json_text() == fit(ss, k=5).to_json_text()


@pytest.mark.parametrize("kind", ALL_NORMS)
def test_non_finite_and_overflow_are_told_apart(kind):
    inf_row = np.array([[np.inf, 1.0]])
    for build in (lambda a: SampleSet(a, kind), lambda a: fit(a, norm=kind)):
        with pytest.raises(InputError, match="non-finite sample values"):
            build(inf_row)
    huge_row = np.array([[1e200, 1.0]])
    for build in (lambda a: SampleSet(a, NormKind.L2), lambda a: fit(a, norm="l2")):
        with pytest.raises(InputError, match="sample l2 norms overflow float64"):
            build(huge_row)


def test_non_finite_entries_are_reported_before_a_bad_norm(monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 4)
    a = np.ones((10, 2))
    a[-1, 0] = np.nan  # in the last block
    with pytest.raises(InputError, match="non-finite sample values"):
        SampleSet(a, "l2")
    with pytest.raises(InputError, match="NormKind.from_string"):
        SampleSet(np.ones((10, 2)), "l2")


def test_fit_and_a_sample_set_copy_nothing(monkeypatch, fallen):
    import tracemalloc

    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 1 << 12)
    a = np.random.default_rng(5).standard_normal((20000, 64))
    # every column of this one is centred, so each falls back to exact sums of
    # its remainders, split off again one block-sized slice at a time
    centred = a - a.mean(axis=0)
    peaks = {}
    for name, build in (("fit", lambda: fit(a, k=50)), ("fit falling back", lambda: fit(centred, k=50)),
                        ("make_sample_set", lambda: make_sample_set(a))):
        tracemalloc.start()
        try:
            built = build()
            peaks[name] = tracemalloc.get_traced_memory()[1] / a.nbytes
        finally:
            tracemalloc.stop()
        del built
    assert fallen == list(range(64))
    # each keeps one n-vector of sorted norms and block scratch, not the rows
    assert peaks["fit"] <= 0.1, peaks
    assert peaks["fit falling back"] <= 0.1, peaks
    assert peaks["make_sample_set"] <= 0.1, peaks


def test_a_sample_set_peaks_at_its_norms_plus_block_scratch():
    import tracemalloc

    block = 8 * core._BLOCK_ELEMENTS  # bytes of one block of rows
    extra = {}
    for n in (20_000, 100_000):
        a = np.random.default_rng(n).standard_normal((n, 32))
        # centred columns fall back to a second walk, with its own block scratch
        for name, rows in (("gaussian", a), ("centred", a - a.mean(axis=0))):
            tracemalloc.start()
            try:
                ss = SampleSet(rows)
                extra[name, n] = tracemalloc.get_traced_memory()[1] - ss.sorted_norms.nbytes
            finally:
                tracemalloc.stop()
            del ss
    # beyond the n-vector of norms, a few blocks of scratch whatever n is
    for name, bound in (("gaussian", 3 * block), ("centred", 7 * block)):
        assert extra[name, 20_000] <= bound and extra[name, 100_000] <= bound, extra
        assert abs(extra[name, 100_000] - extra[name, 20_000]) <= 64 * 1024, extra


def assert_norms_of_rows_ignore_layout_start_and_company(c, kind):
    """The norms of a C-order (n, d) array are bitwise those of every layout
    of its values, of a copy that starts one element into a larger buffer,
    of each row alone and in a two-row array, and of each row as a 1-D
    vector through ``_vector_norm``, the scalar ``score``'s helper."""
    want = norms(c, kind)
    for name, lay_out in _LAYOUTS.items():
        # "broadcast" repeats row 0
        expected = np.repeat(want[:1], len(c)) if name == "broadcast" else want
        assert_same_bits(norms(lay_out(c), kind), expected)
    shifted = np.empty(c.size + 1)[1:].reshape(c.shape)
    shifted[...] = c
    assert_same_bits(norms(shifted, kind), want)
    for i in range(len(c)):
        assert_same_bits(norms(c[i : i + 1], kind), want[i : i + 1])
        assert_same_bits(norms(np.array((c[i], c[i - 1])), kind), want[[i, i - 1]])
    # rows of every layout (contiguous, strided, reversed or broadcast) and of
    # the shifted copy, as 1-D vectors
    laid_out = {name: lay_out(c) for name, lay_out in _LAYOUTS.items()}
    for name, a in [*laid_out.items(), ("shifted", shifted)]:
        for i, row in enumerate(a):
            got = core._vector_norm(row, kind)
            assert type(got) is float
            assert_same_bits(np.float64(got), want[0 if name == "broadcast" else i])


def assert_l2_within_exact(row, value):
    """An l2 norm lies within (d + 2) * 2**-53 relative error of the exact
    root of the exact sum of squares, checked in fractions by squaring."""
    exact = exact_square_sum(row)
    tol = Fraction(len(row) + 2, 2**53)
    assert (1 - tol) ** 2 * exact <= Fraction(value) ** 2 <= (1 + tol) ** 2 * exact, (row, value)


@given(laid_out_samples(), st.sampled_from(ALL_NORMS))
@settings(max_examples=300, deadline=None)
def test_a_rows_norm_does_not_depend_on_layout_start_or_other_rows(a, kind):
    assert_norms_of_rows_ignore_layout_start_and_company(np.array(a), kind)


@pytest.mark.parametrize("d", [10_001, 16_387])
@pytest.mark.parametrize("kind", ALL_NORMS)
def test_long_rows_keep_their_norms_in_any_company(d, kind):
    # rows longer than 10,000 entries, where a BLAS dot product may be threaded
    rng = np.random.default_rng(d)
    c = rng.normal(size=(3, d)) * 10.0 ** rng.uniform(-3, 3, size=(3, 1))
    assert_norms_of_rows_ignore_layout_start_and_company(c, kind)
    if kind is NormKind.L2:
        for row, value in zip(c.tolist(), norms(c, kind).tolist()):
            assert_l2_within_exact(row, value)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 64), st.integers(0, 140))
@settings(max_examples=300, deadline=None)
def test_l2_norms_are_within_d_plus_2_ulps_of_exact(seed, n, d, spread):
    # entry magnitudes from 1e-140 to 1e140: no square leaves the normal range
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], size=(n, d)) * 10.0 ** rng.uniform(-spread, spread, size=(n, d))
    a[rng.random((n, d)) < 0.2] = 0.0
    for row, value in zip(a.tolist(), norms(a, NormKind.L2).tolist()):
        assert_l2_within_exact(row, value)
