import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapbound import (
    ConditionFunction,
    DimensionMismatchError,
    InputError,
    NormKind,
    RadiusIndicator,
    SampleSet,
    compute_bound,
    fit,
    indicator_bound,
    make_sample_set,
    norms,
    overlap,
    pooled_radius_family,
)
from conftest import ALL_NORMS, integer_count_pair, radii_on_norms, random_pair, repeated_rows
from oracles import brute_bound, draw_points, mask_ball_stats, norm_of, rate_gap_lower_bound


@pytest.fixture
def worked_sets():
    return make_sample_set([[0.2], [1.0]]), make_sample_set([[1.0]])


def test_identical_singletons_bound_one():
    ss = make_sample_set([[1.0, 0.0]])
    report = compute_bound(ss, ss, [RadiusIndicator(0.3), RadiusIndicator(2.0)])
    assert report.raw_bound == 1.0
    assert report.mean_gap == 0.0
    assert all(c.separation == 0.0 for c in report.conditions)


def test_worked_pair_is_06(worked_sets):
    pos, neg = worked_sets
    report = compute_bound(pos, neg, [RadiusIndicator(0.5)])
    assert report.raw_bound == pytest.approx(0.6, abs=1e-12)
    assert report.mean_gap == pytest.approx(0.4, abs=1e-15)
    assert report.pool_radius == 1.0
    entry = report.conditions[0]
    assert entry.region_radius == pytest.approx(0.2)
    assert entry.separation == pytest.approx(0.4, abs=1e-15)
    # the estimate stays above the exact overlap of the matching distributions
    assert report.raw_bound >= 0.5 - 1e-12


def test_opposite_points_saturate_mean_term():
    pos = make_sample_set([[1.0, 0.0]])
    neg = make_sample_set([[-1.0, 0.0]])
    report = compute_bound(pos, neg, [RadiusIndicator(0.0)])
    assert report.raw_bound == pytest.approx(0.0, abs=1e-15)
    assert report.conditions[0].region_radius == 0.0  # empty region


def test_all_origin_pool_returns_one():
    pos = make_sample_set([[0.0, 0.0], [0.0, 0.0]])
    neg = make_sample_set([[0.0, 0.0]])
    assert compute_bound(pos, neg, [RadiusIndicator(1.0)]).raw_bound == 1.0


def test_matches_brute_force(rng):
    for trial in range(120):
        kind = ALL_NORMS[trial % 3]
        d = int(rng.integers(1, 4))
        pos_rows = rng.normal(size=(int(rng.integers(1, 12)), d))
        neg_rows = rng.normal(size=(int(rng.integers(1, 12)), d))
        pos, neg = SampleSet(pos_rows, kind), SampleSet(neg_rows, kind)
        radii = [float(r) for r in rng.uniform(0, 2.5, size=int(rng.integers(1, 5)))]
        report = compute_bound(pos, neg, [RadiusIndicator(r, kind) for r in radii])
        conditions = [
            (lambda x, r=r, k=kind.value: 1 if norm_of(x, k) <= r else 0) for r in radii
        ]
        want = brute_bound(
            [tuple(x) for x in pos_rows], [tuple(x) for x in neg_rows], conditions, kind.value
        )
        assert report.raw_bound == pytest.approx(want, abs=1e-12)


def test_mixed_norm_conditions_match_brute_force(rng):
    # conditions whose ball norm differs from the pool norm take the generic
    # evaluation path on rows, which compute_bound reads in l2; region radii
    # stay measured in l2. Sets keep no rows, so they refuse such conditions.
    for trial in range(60):
        ball_kind = (NormKind.L1, NormKind.LINF)[trial % 2]
        d = int(rng.integers(1, 4))
        pos = rng.normal(size=(int(rng.integers(1, 10)), d))
        neg = rng.normal(size=(int(rng.integers(1, 10)), d))
        radii = [float(r) for r in rng.uniform(0, 2.5, size=3)]
        balls = [RadiusIndicator(r, ball_kind) for r in radii]
        report = compute_bound(pos, neg, balls)
        conditions = [
            (lambda x, r=r, k=ball_kind.value: 1 if norm_of(x, k) <= r else 0) for r in radii
        ]
        want = brute_bound([tuple(x) for x in pos], [tuple(x) for x in neg], conditions, "l2")
        assert report.raw_bound == pytest.approx(want, abs=1e-12)
        with pytest.raises(InputError, match="keeps only its statistics"):
            compute_bound(SampleSet(pos), neg, balls)


def test_score_threshold_condition_in_bound(rng):
    # a condition defined outside the package takes compute_bound's general path
    reference = fit(rng.normal(size=(30, 2)), k=5)

    class ScoreAtMostHalf(ConditionFunction):
        label = "score<=0.5"

        def evaluate_many(self, points):
            return reference.clamped_scores(points) <= 0.5

    pos = rng.normal(size=(12, 2))
    neg = rng.normal(size=(10, 2)) + 2.0
    g = ScoreAtMostHalf()
    report = compute_bound(pos, neg, [g])
    accepted = g.evaluate_many(np.vstack([pos, neg]))
    pooled_norms = norms(np.vstack([pos, neg]), NormKind.L2)
    want_region = float(pooled_norms[accepted].max()) if accepted.any() else 0.0
    stat = report.conditions[0]
    assert stat.region_radius == want_region
    assert (stat.pos_rate, stat.neg_rate) == (accepted[:12].mean(), accepted[12:].mean())
    assert stat.label == "score<=0.5" and np.isnan(stat.parameter)
    assert -1.0 <= report.raw_bound <= 1.0


def test_monotone_in_condition_family(rng):
    for _ in range(40):
        d = int(rng.integers(1, 4))
        pos = SampleSet(rng.normal(size=(8, d)))
        neg = SampleSet(rng.normal(size=(6, d)))
        radii = sorted(float(r) for r in rng.uniform(0, 2.5, size=6))
        subset = [RadiusIndicator(r) for r in radii[:3]]
        superset = subset + [RadiusIndicator(r) for r in radii[3:]]
        assert (
            compute_bound(pos, neg, superset).raw_bound
            <= compute_bound(pos, neg, subset).raw_bound
        )


def test_swap_symmetry(rng):
    for _ in range(40):
        d = int(rng.integers(1, 4))
        pos = SampleSet(rng.normal(size=(7, d)))
        neg = SampleSet(rng.normal(size=(9, d)))
        gs = [RadiusIndicator(float(r)) for r in rng.uniform(0, 2, size=4)]
        assert compute_bound(pos, neg, gs).raw_bound == pytest.approx(
            compute_bound(neg, pos, gs).raw_bound, abs=1e-15
        )


def test_exact_replication_equals_exact_indicator_bound(rng):
    # Sample sets replicating each support point by its mass reproduce the
    # exact bound to float-addition accuracy, hence dominate the overlap.
    for trial in range(60):
        p, q, rep_p, rep_q = integer_count_pair(rng)
        kind = ALL_NORMS[trial % 3]
        pos, neg = SampleSet(rep_p, kind), SampleSet(rep_q, kind)
        top = max(pos.max_norm, neg.max_norm)
        gs = [RadiusIndicator(top * j / 5, kind) for j in range(1, 6)]
        estimated = compute_bound(pos, neg, gs).raw_bound
        exact = indicator_bound(p, q, gs, kind)
        assert estimated == pytest.approx(exact, abs=1e-12)
        assert estimated >= overlap(p, q) - 1e-12


def test_sampling_consistency_single_trial():
    rng = np.random.default_rng(101)
    p, q = random_pair(rng)
    pos = SampleSet(draw_points(p, 50_000, rng))
    neg = SampleSet(draw_points(q, 50_000, rng))
    top = max(pos.max_norm, neg.max_norm)
    gs = [RadiusIndicator(top * j / 8) for j in range(1, 9)]
    estimated = compute_bound(pos, neg, gs).raw_bound
    exact = indicator_bound(p, q, gs)
    assert estimated == pytest.approx(exact, abs=0.02)


def test_raw_bound_range(rng):
    # the estimate equals the exact bound of the two empirical distributions,
    # which dominates their overlap, so the raw value never drops below zero
    # beyond float rounding (it is still reported unclamped)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        pos = SampleSet(rng.normal(size=(int(rng.integers(1, 10)), d)))
        neg = SampleSet(rng.normal(size=(int(rng.integers(1, 10)), d)))
        gs = [RadiusIndicator(float(rng.uniform(0, 3)))]
        report = compute_bound(pos, neg, gs)
        assert -1e-12 <= report.raw_bound <= 1.0
        assert 0.0 <= report.clamped_bound <= 1.0


def test_identical_multisets_bound_one(rng):
    X = rng.normal(size=(12, 3))
    ss = SampleSet(X)
    gs = [RadiusIndicator(float(r)) for r in rng.uniform(0, 3, size=5)]
    assert compute_bound(ss, ss, gs).raw_bound == 1.0


def test_report_internal_consistency(rng):
    for _ in range(30):
        pos = SampleSet(rng.normal(size=(10, 2)))
        neg = SampleSet(rng.normal(size=(8, 2)))
        gs = [RadiusIndicator(float(r)) for r in rng.uniform(0, 3, size=5)]
        rep = compute_bound(pos, neg, gs)
        best = max(c.separation for c in rep.conditions)
        assert rep.raw_bound == pytest.approx(
            1.0 - rep.mean_gap / (2 * rep.pool_radius) - 0.5 * best, abs=1e-15
        )
        assert rep.clamped_bound == min(1.0, max(0.0, rep.raw_bound))
        for c in rep.conditions:
            assert 0.0 <= c.separation <= 1.0
            assert c.region_radius <= rep.pool_radius
        assert rep.conditions[rep.best_index].separation == best


def test_best_index_tie_breaks_low():
    pos = make_sample_set([[1.0]])
    neg = make_sample_set([[1.0]])
    # identical sets: every separation is 0, so the first index must win
    rep = compute_bound(pos, neg, [RadiusIndicator(0.5), RadiusIndicator(1.0)])
    assert rep.best_index == 0


def test_rows_and_their_sets_give_equal_reports(rng):
    # arrays of rows are read in l2 as SampleSet(rows) reads them
    for _ in range(20):
        d = int(rng.integers(1, 4))
        pos, neg = rng.normal(size=(int(rng.integers(1, 12)), d)), rng.normal(size=(9, d)) + 0.5
        gs = [RadiusIndicator(float(r)) for r in rng.uniform(0, 3, size=4)]
        want = compute_bound(SampleSet(pos), SampleSet(neg), gs)
        assert compute_bound(pos, neg, gs) == want
        assert compute_bound(pos.tolist(), SampleSet(neg), gs) == want


def test_rate_gap_lower_bound_values(worked_sets):
    pos, neg = worked_sets
    assert rate_gap_lower_bound(pos, pos, RadiusIndicator(0.5)) == 0.0
    assert rate_gap_lower_bound(pos, neg, RadiusIndicator(0.5)) == pytest.approx(0.25)
    inside = make_sample_set([[0.1], [0.2]])
    outside = make_sample_set([[2.0], [3.0]])
    assert rate_gap_lower_bound(inside, outside, RadiusIndicator(0.5)) == 0.5


def test_input_errors():
    a = make_sample_set([[1.0]])
    b = make_sample_set([[1.0, 0.0]])
    with pytest.raises(DimensionMismatchError):
        compute_bound(a, b, [RadiusIndicator(1.0)])
    c = SampleSet(np.array([[1.0]]), NormKind.L1)
    with pytest.raises(DimensionMismatchError):
        compute_bound(a, c, [RadiusIndicator(1.0)])
    with pytest.raises(InputError):
        compute_bound(a, a, [])


def test_pool_near_float64_max_keeps_the_mean_term():
    # 2 * pool overflows here; the bound must not lose its mean term
    ball = [RadiusIndicator(1.5e308, NormKind.LINF)]
    pos, neg = SampleSet([[1.7e308]], NormKind.LINF), SampleSet([[1e308]], NormKind.LINF)
    assert compute_bound(pos, neg, ball).raw_bound == 0.5882352941176472


@pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
def test_mean_gap_overflow_is_input_error(kind):
    pos, neg = SampleSet([[1.7e308]], kind), SampleSet([[-1.7e308]], kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"the {kind.value} gap between the sample means overflows"):
            compute_bound(pos, neg, [RadiusIndicator(1.0, kind)])


def test_pooled_radius_family(worked_sets):
    pos, neg = worked_sets
    fam = pooled_radius_family(pos, neg, 4)
    assert fam.radii == (0.25, 0.5, 0.75, 1.0)


@given(st.data(), repeated_rows(), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_pooled_radius_family_reads_rows_as_compute_bound_does(data, pos, k):
    neg = data.draw(repeated_rows(pos.shape[1]))
    want = pooled_radius_family(SampleSet(pos), SampleSet(neg), k)
    assert pooled_radius_family(pos, neg, k) == want
    assert pooled_radius_family(pos, SampleSet(neg), k) == want
    assert pooled_radius_family(pos.tolist(), neg, k) == want


def test_pooled_radius_family_refuses_rows_that_do_not_pair():
    rows = np.ones((3, 2))
    with pytest.raises(DimensionMismatchError, match="different dimensions: 2 vs 3"):
        pooled_radius_family(rows, np.ones((3, 3)), 4)
    with pytest.raises(DimensionMismatchError, match="different norms: l2 vs l1"):
        pooled_radius_family(rows, SampleSet(rows, NormKind.L1), 4)
    with pytest.raises(InputError, match="nonempty"):
        pooled_radius_family(rows, np.ones((0, 2)), 4)


@given(st.data(), repeated_rows(), st.sampled_from(ALL_NORMS))
@settings(max_examples=150, deadline=None)
def test_ball_statistics_equal_mask_loop(data, rows, kind):
    # counts and region radii come from sorted norms; they must equal a
    # per-radius mask over the pooled norms exactly, ties and zeros included
    pos = SampleSet(rows, kind)
    neg = SampleSet(data.draw(repeated_rows(rows.shape[1])), kind)
    radii = radii_on_norms(data, pos, neg)
    report = compute_bound(pos, neg, [RadiusIndicator(r, kind) for r in radii])
    pos_counts, _ = mask_ball_stats(pos.sorted_norms, radii)
    neg_counts, _ = mask_ball_stats(neg.sorted_norms, radii)
    _, region = mask_ball_stats(np.concatenate([pos.sorted_norms, neg.sorted_norms]), radii)
    for i, c in enumerate(report.conditions):
        assert c.pos_rate == pos_counts[i] / len(pos)
        assert c.neg_rate == neg_counts[i] / len(neg)
        assert c.region_radius == region[i]
        gap = rate_gap_lower_bound(pos, neg, RadiusIndicator(radii[i], kind))
        assert gap == 0.5 * abs(pos_counts[i] / len(pos) - neg_counts[i] / len(neg))


@given(st.data(), repeated_rows())
@settings(max_examples=100, deadline=None)
def test_interleaved_conditions_equal_one_at_a_time(data, pos):
    # on rows, read in l2, the l2 balls share one ball_stats call and the
    # others are evaluated on the rows; each report row must be that
    # condition alone
    neg = data.draw(repeated_rows(pos.shape[1]))
    balls = [RadiusIndicator(r, data.draw(st.sampled_from(ALL_NORMS)))
             for r in radii_on_norms(data, SampleSet(pos), SampleSet(neg))]
    report = compute_bound(pos, neg, balls)
    for stat, g in zip(report.conditions, balls):
        assert stat == compute_bound(pos, neg, [g]).conditions[0]
