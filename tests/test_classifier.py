import copy
import json
import math
import pickle
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from overlapbound import (
    DimensionMismatchError,
    FittedScorer,
    InputError,
    NormKind,
    RadiusFamily,
    SampleSet,
    compute_bound,
    fit,
    iterative_scores_batch,
    make_sample_set,
    norms,
    score,
)
from conftest import ALL_NORMS, laid_out_samples, radii_on_norms, repeated_rows
from oracles import (
    ball_conditions,
    brute_bound,
    brute_scorer_score,
    iterative_scores_loop,
    mask_ball_stats,
    sweep_raw_scores,
)


def test_fit_single_point():
    s = fit([[1.0, 0.0]], k=2)
    assert s.fit_radius == 1.0
    assert s.radii == (0.5, 1.0)
    assert s.accept_rates == (0.0, 1.0)
    assert s.region_radii == (0.0, 1.0)
    assert not s.degenerate


def test_fit_two_point_line():
    s = fit([[0.2], [1.0]], k=2)
    assert s.radii == (0.5, 1.0)
    assert s.accept_rates == (0.5, 1.0)
    assert s.region_radii == (0.2, 1.0)


def test_fit_statistics_ignore_duplication():
    base = fit([[0.7, 0.1]], k=3)
    for n in (2, 10, 57):
        dup = fit([[0.7, 0.1]] * n, k=3)
        assert dup.to_json_dict() == base.to_json_dict()


def test_fit_monotone_cached_statistics(rng):
    for _ in range(20):
        s = fit(rng.normal(size=(30, 3)), k=8)
        assert all(b >= a for a, b in zip(s.accept_rates, s.accept_rates[1:]))
        assert all(b >= a for a, b in zip(s.region_radii, s.region_radii[1:]))
        assert all(r <= rad for r, rad in zip(s.region_radii, s.radii))


def test_score_self_is_one():
    s = fit([[0.3, 0.4]], k=5)
    assert score(s, [0.3, 0.4]).score == 1.0


def test_score_restricted_family_worked_example():
    s = fit([[0.2], [1.0]], radii=[0.5])
    assert score(s, [1.0]).score == pytest.approx(0.6, abs=1e-12)


def test_score_equals_direct_bound(rng):
    # the cached-statistics path is a refactoring of the pooled bound, not
    # an approximation
    for trial in range(400):
        kind = ALL_NORMS[trial % 3]
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(int(rng.integers(1, 30)), d)) * rng.uniform(0.2, 2)
        ss = SampleSet(X, kind)
        s = fit(ss, k=int(rng.integers(1, 9)))
        x = rng.normal(size=d) * rng.uniform(0, 3)
        direct = compute_bound(SampleSet(x.reshape(1, -1), kind), ss, ball_conditions(s)).raw_bound
        assert abs(score(s, x).score - direct) <= 1e-12
        assert abs(float(s.raw_scores(x.reshape(1, -1))[0]) - direct) <= 1e-12


def test_score_matches_brute_force(rng):
    for _ in range(25):
        X = rng.normal(size=(8, 2))
        s = fit(X, k=4)
        x = rng.normal(size=2)
        want = brute_scorer_score(X.tolist(), x.tolist(), s.radii, "l2")
        assert score(s, x).score == pytest.approx(want, abs=1e-12)


def test_batch_matches_scalar(rng):
    X = rng.normal(size=(40, 4))
    s = fit(X, k=6)
    queries = rng.normal(size=(25, 4))
    batch = s.raw_scores(queries)
    for i, row in enumerate(queries):
        assert batch[i] == score(s, row).score


def test_classify_boundary_is_in():
    s = fit([[0.2], [1.0]], radii=[0.5])
    value = score(s, [1.0]).score
    assert score(s, [1.0], threshold=value).verdict == "in"  # boundary counts as in
    assert score(s, [1.0], threshold=value + 1e-9).verdict == "out"


def test_threshold_monotonicity(rng):
    s = fit(rng.normal(size=(20, 3)), k=5)
    queries = rng.normal(size=(30, 3)) * 2
    thresholds = sorted(rng.uniform(-0.5, 1.1, size=6))
    for x in queries:
        verdicts = [score(s, x, t).verdict == "in" for t in thresholds]
        # once out, stays out as the threshold rises
        assert all(a or not b for a, b in zip(verdicts, verdicts[1:]))


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_threshold_is_input_error(threshold):
    with pytest.raises(InputError, match="threshold must be finite"):
        score(fit([[0.2], [1.0]], k=2), [0.5], threshold)


def test_degenerate_fit_all_origin():
    s = fit([[0.0, 0.0], [0.0, 0.0]], k=3)
    assert s.degenerate
    assert score(s, [0.0, 0.0]).score == 1.0
    # away from the origin the score still equals the direct pooled bound
    direct = compute_bound(
        make_sample_set([[1.0, 0.0]]),
        make_sample_set([[0.0, 0.0], [0.0, 0.0]]),
        ball_conditions(s),
    ).raw_bound
    assert score(s, [1.0, 0.0]).score == pytest.approx(direct, abs=1e-15)
    assert direct == pytest.approx(0.0, abs=1e-15)  # 0.5 mean term + all-in predicate


def test_iterative_score_identical_sample():
    s = fit([[1.0, 0.0]], k=3)
    assert iterative_scores_batch(s, [[1.0, 0.0]], [[1.0, 0.0]])[0] == 1.0


def test_iterative_score_k2_one_keeps_only_mean_term():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 2))
    s = fit(X, k=5)
    x = np.array([3.0, 3.0])
    got = iterative_scores_batch(s, X, x[None], k2=1)[0]
    # the single predicate accepts every clamped score, so separation is zero
    first_q = min(1.0, max(0.0, score(s, x).score))
    firsts = s.clamped_scores(X)
    pool = max(first_q, float(firsts.max()))
    gap = abs(first_q - float(np.mean(firsts)))
    assert got == pytest.approx(1.0 - gap / (2 * pool), abs=1e-12)


def test_iterative_far_query_brute_forced():
    # both passes cross-checked against the loop oracle on a 10-point set
    rng = np.random.default_rng(9)
    X = rng.normal(size=(10, 2))
    s = fit(X, k=5)
    x = np.array([8.0, -7.0])
    k2 = 20
    got = iterative_scores_batch(s, X, x[None], k2=k2)[0]

    first_q = min(1.0, max(0.0, brute_scorer_score(X.tolist(), x.tolist(), s.radii, "l2")))
    firsts = [
        min(1.0, max(0.0, brute_scorer_score(X.tolist(), row, s.radii, "l2")))
        for row in X.tolist()
    ]
    conditions = [(lambda y, t=j / k2: 1 if abs(y[0]) <= t else 0) for j in range(1, k2 + 1)]
    want = brute_bound([(first_q,)], [(v,) for v in firsts], conditions, "l2")
    assert got == pytest.approx(want, abs=1e-12)
    # a far query's second pass lands strictly below every self-score
    assert got < min(firsts)
    assert first_q < min(firsts)


def test_iterative_batch_matches_scalar(rng):
    X = rng.normal(size=(12, 3))
    s = fit(X, k=4)
    queries = rng.normal(size=(6, 3)) * 2
    batch = iterative_scores_batch(s, X, queries, k2=7)
    for i, row in enumerate(queries):
        assert batch[i] == iterative_scores_batch(s, X, row[None], k2=7)[0]


@pytest.mark.parametrize(
    "fit_data, error, message",
    [
        ([1.0, 2.0, 3.0], DimensionMismatchError, "fit set has dimension 1, scorer expects 3"),
        (np.ones((4, 2)), DimensionMismatchError, "fit set has dimension 2, scorer expects 3"),
        (np.empty((0, 3)), InputError, r"nonempty \(n, d\) sample array, got shape \(0, 3\)"),
        ([], InputError, r"nonempty \(n, d\) sample array, got shape \(0, 1\)"),
        ([[1.0, np.nan, 2.0], [1.0, 1.0, 1.0]], InputError, "non-finite sample values"),
        ([[1.0, 2.0], [np.inf, 1.0]], InputError, "non-finite sample values"),
        # the walk that takes the mean is the finite check: before the width
        ([[1e200, 1.0], [1.0, 2.0]], InputError, "sample l2 norms overflow float64"),
    ],
)
def test_iterative_fit_data_errors(fit_data, error, message):
    s = fit([[1.0, 2.0, 3.0], [0.5, 0.0, 1.0]], k=3)
    with pytest.raises(error, match=message):
        iterative_scores_batch(s, fit_data, [[1.0, 1.0, 1.0]])


_GAPS_OVERFLOW = [[1.7e308, 0.0], [-1.7e308, 0.0], [-1.7e308, 0.0]]


@pytest.mark.parametrize("kind, fitted, rows, message", [
    (NormKind.L2, [[1.0, 0.0]], [[1e200, 1.0], [1.0, 2.0]], "sample l2 norms overflow float64"),
    (NormKind.L1, [[1.0, 0.0]], [[1e308, 1e308]], "sample l1 norms overflow float64"),
    # the fitted rows: the norms fit and a gap to the mean does not, and the
    # first pass names the query
    (NormKind.LINF, _GAPS_OVERFLOW, _GAPS_OVERFLOW, "query linf norms overflow float64"),
    # the means are compared before any row is scored: a gap that would
    # overflow does not hide rows that are not the fitted ones
    (NormKind.LINF, [[-1.5e308, 0.0]], [[1.5e308, 0.0]], "not the data the model was fitted on"),
])
def test_iterative_fit_rows_that_overflow(kind, fitted, rows, message):
    s = fit(fitted, k=3, norm=kind)
    error = DimensionMismatchError if "fitted on" in message else InputError
    with pytest.raises(error, match=message):
        iterative_scores_batch(s, rows, [[1.0, 1.0]])


@pytest.mark.parametrize("kind", ALL_NORMS)
def test_iterative_refuses_rows_the_model_was_not_fitted_on(kind):
    X = np.random.default_rng(25).normal(size=(40, 3))
    s = fit(X, k=6, norm=kind)
    queries = np.array([[0.1, 0.2, -0.3], [3.0, -2.0, 1.0]])
    assert np.isfinite(iterative_scores_batch(s, X, queries)).all()
    for other in (-X, X[:-1], X + 1):
        with pytest.raises(DimensionMismatchError, match="not the data the model was fitted on"):
            iterative_scores_batch(s, other, queries)


@pytest.mark.parametrize("kind", ALL_NORMS)
def test_iterative_takes_its_fit_rows_whatever_the_last_bits_of_the_models_norms(kind):
    # a model fitted under another BLAS may hold other last bits of its l2
    # norms; only the mean, the same bits everywhere, decides the refusal
    X = np.random.default_rng(26).normal(size=(40, 3))
    s = fit(X, k=6, norm=kind)
    up = FittedScorer(norm=kind, mean=s.mean, fit_radius=np.nextafter(s.fit_radius, np.inf),
                      radii=s.radii, accept_rates=s.accept_rates,
                      region_radii=np.nextafter(s.region_radii, 0.0))
    queries = np.array([[0.1, 0.2, -0.3], [3.0, -2.0, 1.0]])
    np.testing.assert_allclose(iterative_scores_batch(up, X, queries),
                               iterative_scores_batch(s, X, queries), rtol=0, atol=1e-12)


@given(st.data(), st.sampled_from(ALL_NORMS), st.integers(1, 8), st.integers(1, 20))
@settings(max_examples=100, deadline=None)
def test_iterative_scores_of_permuted_fit_rows_are_bitwise_equal(data, kind, k, k2):
    # a permutation keeps every statistic the model holds, so it is scored,
    # and its first-pass scores are the same ones in another order
    seeded = st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).normal(size=(30, 4)) * 1e3)
    rows = data.draw(repeated_rows() | seeded)
    order = data.draw(st.permutations(range(len(rows))))
    s = fit(rows, k=k, norm=kind)
    queries = np.vstack([rows[::-1] * 1.5, np.zeros((1, rows.shape[1]))])
    want = iterative_scores_batch(s, rows, queries, k2=k2)
    assert iterative_scores_batch(s, rows[order], queries, k2=k2).tobytes() == want.tobytes()


def test_iterative_1d_fit_data_is_a_column():
    s = fit([[0.2], [1.0], [0.7]], k=3)
    queries = [[0.5], [2.0]]
    assert np.array_equal(iterative_scores_batch(s, [0.2, 1.0, 0.7], queries),
                          iterative_scores_batch(s, [[0.2], [1.0], [0.7]], queries))


@given(laid_out_samples(), st.sampled_from(ALL_NORMS), st.integers(1, 8), st.integers(1, 20))
@settings(max_examples=100, deadline=None)
def test_iterative_scores_equal_for_every_layout_and_a_sample_set(rows, kind, k, k2):
    # the fit data is read in place; the result is that of a copy, and a
    # SampleSet, which keeps no rows, is refused
    s = fit(rows, k=k, norm=kind)
    queries = np.array(rows)[::-1] * 1.5
    want = iterative_scores_batch(s, np.array(rows), queries, k2=k2)
    assert want.tobytes() == iterative_scores_batch(s, rows, queries, k2=k2).tobytes()
    with pytest.raises(InputError, match="keeps only its statistics"):
        iterative_scores_batch(s, SampleSet(rows, kind), queries, k2=k2)


def test_model_json_round_trip(tmp_path, rng):
    X = rng.normal(size=(50, 4))
    s = fit(X, k=10)
    path = tmp_path / "model.json"
    s.save(path)
    loaded = FittedScorer.load(path)
    queries = rng.normal(size=(20, 4))
    assert np.array_equal(loaded.raw_scores(queries), s.raw_scores(queries))
    doc = json.loads(path.read_text())
    for key in ("norm", "k", "dimension", "mean", "rFit", "gMeans", "gMaxNorms", "degenerate"):
        assert key in doc


def test_model_json_missing_field_and_bad_version(tmp_path, rng):
    s = fit(rng.normal(size=(5, 2)), k=3)
    doc = s.to_json_dict()
    del doc["gMeans"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="missing field"):
        FittedScorer.load(bad)
    doc = s.to_json_dict()
    doc["format_version"] = 99
    bad.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="format_version"):
        FittedScorer.load(bad)


def test_model_size_constant_in_n(tmp_path, rng):
    sizes = {}
    for n in (10, 1_000, 100_000):
        s = fit(rng.normal(size=(n, 8)), k=10)
        path = tmp_path / f"model_{n}.json"
        s.save(path)
        sizes[n] = path.stat().st_size
    # fixed-width floats: only sign characters of the mean coordinates vary
    assert max(sizes.values()) - min(sizes.values()) <= 8 + 16, sizes


def test_per_query_work_independent_of_fit_size(rng, monkeypatch):
    # every norm computation in the scoring path runs over query rows only:
    # l query norms plus l mean-gap rows per batch, whatever n was at fit time
    import overlapbound.classifier as mod

    queries = rng.normal(size=(37, 6))
    rows_seen = []
    real_norms, real_vector_norm = mod.norms, mod._vector_norm

    def counting_norms(points, kind):
        rows_seen.append(np.asarray(points).shape[0])
        return real_norms(points, kind)

    counts = {}
    for n in (20, 20_000):
        scorer = fit(rng.normal(size=(n, 6)), k=12)
        rows_seen.clear()
        monkeypatch.setattr(mod, "norms", counting_norms)
        try:
            scorer.raw_scores(queries)
        finally:
            monkeypatch.setattr(mod, "norms", real_norms)
        counts[n] = (len(rows_seen), sum(rows_seen))
        # one scalar call inside the fit ball: no norms call, and one 1-D norm
        # each of the query and of its gap to the mean
        rows_seen.clear()
        vectors_seen = []

        def counting_vector_norm(v, kind):
            vectors_seen.append(np.shape(v))
            return real_vector_norm(v, kind)

        monkeypatch.setattr(mod, "norms", counting_norms)
        monkeypatch.setattr(mod, "_vector_norm", counting_vector_norm)
        try:
            score(scorer, 0.01 * queries[0])
        finally:
            monkeypatch.setattr(mod, "norms", real_norms)
            monkeypatch.setattr(mod, "_vector_norm", real_vector_norm)
        assert rows_seen == [] and vectors_seen == [(6,), (6,)], n
        # beyond the fit ball, with a non-finite entry, or against an
        # all-origin fit: one 1-D norm of the query, then the one-row batch
        events = []
        real_raw_scores = FittedScorer.raw_scores
        monkeypatch.setattr(mod, "_vector_norm",
                            lambda v, kind: events.append("norm") or real_vector_norm(v, kind))
        monkeypatch.setattr(FittedScorer, "raw_scores",
                            lambda self, points: events.append("batch") or real_raw_scores(self, points))
        try:
            origin = fit(np.zeros((n, 6)), k=12)
            for s, x in ((scorer, 100.0 * queries[0]), (scorer, np.full(6, np.nan)),
                         (origin, queries[0])):
                events.clear()
                with pytest.raises(InputError) if np.isnan(x).any() else nullcontext():
                    score(s, x)
                assert events == ["norm", "batch"], (n, x)
        finally:
            monkeypatch.setattr(mod, "_vector_norm", real_vector_norm)
            monkeypatch.setattr(FittedScorer, "raw_scores", real_raw_scores)
    assert counts[20] == counts[20_000]
    assert counts[20][1] == 2 * len(queries)  # query norms + mean-gap rows


def test_score_inside_the_fit_ball_skips_raw_scores(monkeypatch):
    scorer = fit([[1.0, 2.0], [3.0, 1.0], [0.5, 0.5]], k=3)
    calls = []
    real_raw_scores = FittedScorer.raw_scores

    def counting_raw_scores(self, points):
        calls.append(np.asarray(points).shape)
        return real_raw_scores(self, points)

    monkeypatch.setattr(FittedScorer, "raw_scores", counting_raw_scores)
    for inside in ([0.0, 0.0], [1.0, 2.0], [3.0, 1.0], [-1.5, 0.5]):
        score(scorer, inside)
    assert calls == []
    score(scorer, [4.0, 4.0])  # beyond the fit ball: the O(k) batch path
    assert calls == [(1, 2)]


@pytest.mark.parametrize("radii", [None, "uneven"])
def test_shared_scorer_scores_bitwise_from_several_threads(rng, radii):
    # rows inside the fit ball, rows scaled by 1e-200 whose squares underflow,
    # and rows beyond the fit ball, each scored alone and as a batch of one,
    # with threads switched as often as the interpreter allows; the default
    # family finds balls in O(1), uneven radii by binary search
    data = rng.normal(size=(200, 16))
    if radii == "uneven":
        top = float(norms(data, NormKind.L2).max())
        radii = [top * 2.0**-j for j in range(19, -1, -1)]
    scorer = fit(data, k=20, radii=radii)
    assert (scorer._scale is None) == (radii is not None)
    rows = rng.normal(size=(300, 16))
    rows[100:200] *= 1e-200
    rows[200:] *= 10.0
    assert (norms(rows[200:], NormKind.L2) > scorer.fit_radius).all()

    def both(row):
        return score(scorer, row).score, scorer.raw_scores(row[None])[0]

    serial = [both(row) for row in rows]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(both, rows, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert np.array(threaded).tobytes() == np.array(serial).tobytes()
    assert scorer.raw_scores(rows).tobytes() == np.array(serial)[:, 1].tobytes()


@pytest.mark.parametrize("kind", ALL_NORMS)
def test_scoring_raises_no_floating_point_error_and_keeps_the_callers_error_state(kind):
    # in-ball rows, rows scaled by 1e-200 (their squares underflow), far rows,
    # then a row with a NaN, which is an InputError and not a FloatingPointError
    rng = np.random.default_rng(5)
    scorer = fit(rng.normal(size=(50, 8)), k=10, norm=kind)
    rows = rng.normal(size=(4, 8)) * np.array([[0.1], [1e-200], [100.0], [1.0]])
    rows[3, 2] = np.nan
    assert norms(rows[2:3], kind)[0] > scorer.fit_radius
    outside = np.geterr()
    with np.errstate(all="raise"):
        inside = np.geterr()
        scalar = [score(scorer, row).score for row in rows[:3]]
        assert scorer.raw_scores(rows[:3]).tobytes() == np.array(scalar).tobytes()
        for call in (lambda: score(scorer, rows[3]), lambda: scorer.raw_scores(rows)):
            with pytest.raises(InputError, match="non-finite"):
                call()
        assert np.geterr() == inside
    assert np.geterr() == outside


def _one_dimensional_scorer(radii, top):
    """A hand-built scorer of dimension 1 over ``radii`` with fit radius ``top``."""
    return FittedScorer(NormKind.L2, [0.0], top, radii, [1.0] * len(radii), [0.0] * len(radii))


def _assert_ball_index_is_searchsorted(scorer):
    # each radius, the floats on either side of it, 0, inf and NaN (a norm is
    # never negative), and points in between
    radii = np.array(scorer.radii)
    queries = np.concatenate([radii, np.nextafter(radii, np.inf), np.nextafter(radii, -np.inf),
                              [0.0, np.inf, np.nan], np.linspace(0.0, 1.5 * radii[-1], 101)])
    queries = queries[~(queries < 0.0)]
    assert scorer._ball_index(queries).tolist() == np.searchsorted(radii, queries).tolist()


@given(st.integers(1, 5000), st.one_of(st.just(0.0), st.just(1.0), st.floats(5e-324, 2.3e-308),
                                       st.floats(1e-300, 1e300)))
@settings(max_examples=300, deadline=None)
def test_default_families_find_their_balls_in_constant_time_wherever_k_over_rfit_is_finite(k, top):
    # top 1.0 is the iterative pass's j/k2 family; subnormal tops tie radii
    radii = RadiusFamily(k, top).radii
    scorer = _one_dimensional_scorer(radii, top)
    with np.errstate(divide="ignore", over="ignore"):
        finite = bool(np.isfinite(k / np.float64(radii[-1])))
    assert (scorer._scale is not None) == finite
    _assert_ball_index_is_searchsorted(scorer)


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40), st.floats(1e-300, 1e300))
@settings(max_examples=200, deadline=None)
def test_uneven_radii_fall_back_to_searchsorted(fractions, top):
    # every radius but r_k lies below r_k / (2k): the float just above r_k-1
    # is first held by ball k - 1 >= 2 (from 0) but would be guessed 0
    radii = sorted({f * top / (2 * (len(fractions) + 1)) for f in fractions})
    assume(len(radii) >= 2)
    scorer = _one_dimensional_scorer(radii + [top], top)
    assert scorer._scale is None
    _assert_ball_index_is_searchsorted(scorer)


def test_custom_radii_survive_round_trip(tmp_path):
    s = fit([[0.2], [1.0]], radii=[0.3, 0.9])
    path = tmp_path / "custom.json"
    s.save(path)
    assert FittedScorer.load(path).radii == (0.3, 0.9)


@pytest.mark.parametrize("radii", [None, [0.1, 0.2, 5.0]])
def test_pickled_and_copied_scorers_score_bitwise_and_stay_read_only(rng, radii):
    # a scorer pickles as its fields and is rebuilt, so every array of a copy
    # is checked and frozen again
    s = fit(rng.normal(size=(40, 3)), k=4, radii=radii)
    rows = rng.normal(size=(30, 3)) * 2.0
    for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
        assert copied.to_json_text() == s.to_json_text()
        assert copied.raw_scores(rows).tobytes() == s.raw_scores(rows).tobytes()
        assert [score(copied, r) for r in rows] == [score(s, r) for r in rows]
        assert (copied._scale is None) == (radii is not None)
        arrays = {name: v for name, v in vars(copied).items() if isinstance(v, np.ndarray)}
        assert {"mean", "_radii_inf", "_rates", "_outside_best", "_first_region",
                "_first_gap"} <= arrays.keys()
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name


def test_fit_and_score_validation(rng):
    with pytest.raises(InputError):
        fit(rng.normal(size=(5, 2)), k=0)
    with pytest.raises(InputError):
        fit(rng.normal(size=(5, 2)), radii=[0.5, 0.5])
    s = fit(rng.normal(size=(5, 2)), k=3)
    with pytest.raises(DimensionMismatchError):
        score(s, [1.0, 2.0, 3.0])
    for not_a_vector in ([[1.0, 2.0]], [], 1.0):
        with pytest.raises(InputError, match="nonempty 1-D vector"):
            score(s, not_a_vector)
    for non_finite in ([1.0, float("nan")], [float("inf"), 0.0]):
        with pytest.raises(InputError, match="non-finite"):
            score(s, non_finite)
    with pytest.raises(DimensionMismatchError):
        s.raw_scores(rng.normal(size=(4, 3)))


def test_custom_radii_follow_the_scorers_rule():
    with pytest.raises(InputError, match="'radii' must be nondecreasing, and strictly increasing"):
        fit([[0.2], [1.0]], radii=[2.0, 1.0])
    # the default family of an all-origin fit is k zero radii
    origin = np.zeros((3, 2))
    assert fit(origin, radii=[0.0, 0.0]).to_json_text() == fit(origin, k=2).to_json_text()


def test_iterative_k2_below_one_is_refused():
    s = fit([[1.0, 2.0], [0.5, 0.0]], k=3)
    with pytest.raises(InputError, match="k2 must be >= 1, got 0"):
        iterative_scores_batch(s, [[1.0, 2.0]], [[1.0, 1.0]], k2=0)


@pytest.mark.parametrize("text", ["[]", "null", "1", '"model"'])
def test_model_json_that_is_not_an_object_is_refused(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(InputError, match=f"^{path}: model JSON must be an object$"):
        FittedScorer.load(path)


def test_fit_norm_override():
    s = fit([[1.0, -1.0]], k=2, norm="l1")
    assert s.norm is NormKind.L1
    assert s.fit_radius == 2.0
    # a set keeps no rows, so it fits only in its own norm
    ss = SampleSet(np.array([[1.0, -1.0]]), NormKind.L2)
    assert fit(ss, k=2).fit_radius == math.sqrt(2.0)
    with pytest.raises(InputError, match="keeps only its statistics"):
        fit(ss, k=2, norm=NormKind.L1)


@given(st.data(), repeated_rows(), st.sampled_from(ALL_NORMS))
@settings(max_examples=150, deadline=None)
def test_fit_ball_statistics_equal_mask_loop(data, rows, kind):
    ss = SampleSet(rows, kind)
    radii = radii_on_norms(data, ss)
    counts, region = mask_ball_stats(ss.sorted_norms, radii)
    s = fit(ss, radii=radii)
    assert s.accept_rates == tuple(c / len(ss) for c in counts)
    assert s.region_radii == tuple(region)
    k = data.draw(st.integers(1, 12))
    counts, region = mask_ball_stats(ss.sorted_norms, RadiusFamily(k, ss.max_norm).radii)
    s = fit(ss, k=k)
    assert s.accept_rates == tuple(c / len(ss) for c in counts)
    assert s.region_radii == tuple(region)


@given(st.data(), repeated_rows(), st.sampled_from(ALL_NORMS), st.integers(1, 12))
@settings(deadline=None)
def test_scalar_score_is_one_row_batch(data, rows, kind, k):
    # default or custom radii, all-origin fits (k zero radii), and queries
    # scaled, on a radius, on rFit or beyond it
    if data.draw(st.booleans()):
        rows = np.zeros_like(rows)
    ss = SampleSet(rows, kind)
    s = fit(ss, k=k, radii=radii_on_norms(data, ss) if data.draw(st.booleans()) else None)
    x = np.array(data.draw(repeated_rows(rows.shape[1]))[0])
    if data.draw(st.booleans()):
        x *= data.draw(st.floats(0.0, 3.0))
    else:  # r times a signed unit vector has norm exactly r in every norm
        x = np.zeros_like(x)
        x[data.draw(st.integers(0, len(x) - 1))] = data.draw(
            st.sampled_from(s.radii + (s.fit_radius,))) * data.draw(st.sampled_from([1.0, -1.0]))
    # the query as it comes, as a row of a Fortran-order array, or as a strided slice
    layout = data.draw(st.sampled_from(["C", "F row", "strided"]))
    if layout == "F row":
        x = np.asfortranarray(np.stack([x, -x]))[0]
    elif layout == "strided":
        x = np.repeat(x, 2)[::2]
    # a caller's error state does not reach either path
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got, want = score(s, x).score, s.raw_scores(x[None])[0]
    assert np.float64(got).tobytes() == want.tobytes()


def test_score_reports_the_errors_of_raw_scores():
    l2 = fit([[1.0, 2.0], [3.0, 1.0]], k=3)
    # the query's norm fits in the fit ball, but its gap to the mean overflows
    far = fit([[-1e154, 0.0], [-1e154, 1.0]], k=2)
    cases = ((l2, [np.nan, 1.0]), (l2, [np.inf, 1.0]), (l2, [1e200, 1.0]), (far, [1e154, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scorer, row in cases:
            with pytest.raises(InputError) as batch:
                scorer.raw_scores([row])
            with pytest.raises(InputError) as one:
                score(scorer, row)
            assert str(one.value) == str(batch.value), row


@given(st.data(), repeated_rows(), st.sampled_from(ALL_NORMS), st.integers(1, 12), st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_iterative_batch_equals_per_query_bound_loop(data, rows, kind, k, k2):
    # the second fitted scorer must reproduce one pooled bound per query bitwise
    s = fit(SampleSet(rows, kind), k=k)
    queries = data.draw(repeated_rows(rows.shape[1])) * data.draw(st.floats(0.0, 3.0))
    got = iterative_scores_batch(s, rows, queries, k2=k2)
    assert np.array_equal(got, iterative_scores_loop(s, rows, queries, k2))


def _corruptions(doc: dict) -> list[tuple[str | None, object]]:
    k, d, top = doc["k"], doc["dimension"], doc["rFit"]
    return [
        ("k", "abc"), ("k", 0), ("k", -3), ("k", 2.5), ("k", True), ("k", k + 1),
        ("dimension", "3"), ("dimension", 0), ("dimension", d + 1), ("dimension", None),
        ("mean", doc["mean"][:-1]), ("mean", doc["mean"] + [0.0]), ("mean", [float("nan")] * d),
        ("mean", ["1"] * d), ("mean", [10**400] * d), ("mean", 1.0),
        ("rFit", float("nan")), ("rFit", float("inf")), ("rFit", -1.0), ("rFit", "1"),
        ("gMeans", doc["gMeans"][:-1]), ("gMeans", doc["gMeans"] + [1.0]),
        ("gMeans", [1.5] * k), ("gMeans", [-0.25] * k), ("gMeans", [float("nan")] * k),
        ("gMaxNorms", doc["gMaxNorms"][:-1]), ("gMaxNorms", [-1.0] * k),
        ("gMaxNorms", [float("inf")] * k),
        ("radii", list(range(k, 0, -1))), ("radii", [1.0] * k), ("radii", list(range(k + 1))),
        ("radii", [float("nan")] * k), ("radii", [-1.0 + j for j in range(k)]),
        ("norm", "l3"), ("norm", 2), ("degenerate", "no"), ("degenerate", 0),
        # each field well formed, the model inconsistent
        ("gMaxNorms", [2.0 * top] * k), ("gMaxNorms", [top] * k),
        ("gMaxNorms", [top / k] + [0.0] * (k - 1)), ("gMeans", [1.0] + [0.0] * (k - 1)),
        ("radii", [0.5 * top * j / k for j in range(1, k + 1)]),
        ("degenerate", True), ("rFit", 0.0),
        # a degenerate model whose mean is off the origin
        (None, {"rFit": 0.0, "gMaxNorms": [0.0] * k, "degenerate": True}),
    ]


@given(st.data(), st.integers(1, 6), st.integers(2, 4))
@settings(max_examples=200, deadline=None)
def test_corrupted_model_field_fails_to_load(tmp_path_factory, data, d, k):
    rows = np.random.default_rng(d * 10 + k).normal(size=(9, d))
    doc = fit(rows, k=k).to_json_dict()
    key, bad = data.draw(st.sampled_from(_corruptions(doc)))
    doc.update(bad if key is None else {key: bad})
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError) as caught:
        FittedScorer.load(path)
    assert str(caught.value).startswith(f"{path}: ")
    if key == "norm":  # an unknown name too is the field's message
        assert str(caught.value) == f"{path}: model field 'norm' must be a norm name"


def test_query_norm_overflow_is_input_error():
    s = fit([[1.0, 2.0], [3.0, 1.0], [0.5, 0.5]], k=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm_kind, row in (("l2", [1e200, 1.0]), ("l1", [1.7e308, 1.7e308])):
            scorer = fit([[1.0, 2.0], [3.0, 1.0]], k=3, norm=norm_kind)
            with pytest.raises(InputError, match="norms overflow"):
                scorer.raw_scores([row])
            with pytest.raises(InputError, match="norms overflow"):
                score(scorer, row)
        with pytest.raises(InputError, match="non-finite"):
            s.raw_scores([[np.inf, 1.0]])
        # the norm of the gap to the mean can overflow on its own
        far = fit([[-1e154, 0.0], [-1e154, 1.0]], k=2)
        with pytest.raises(InputError, match="norms overflow"):
            far.raw_scores([[1e154, 0.0]])


@given(laid_out_samples(), st.sampled_from(ALL_NORMS))
@settings(max_examples=300, deadline=None)
def test_statistics_models_and_scores_depend_only_on_values(a, kind):
    # every result for a layout is bitwise that of the C-order copy, with the
    # layout applied to the fit rows and to the queries alike
    queries = a[::-1]
    c, c_queries = np.ascontiguousarray(a), np.ascontiguousarray(queries)
    assert SampleSet(a, kind).sorted_norms.tobytes() == SampleSet(c, kind).sorted_norms.tobytes()
    s = fit(c, k=5, norm=kind)
    assert fit(a, k=5, norm=kind).to_json_text() == s.to_json_text()
    want = s.raw_scores(c_queries)
    assert s.raw_scores(queries).tobytes() == want.tobytes()
    assert np.array([score(s, row).score for row in queries]).tobytes() == want.tobytes()
    assert (iterative_scores_batch(s, a, queries, k2=7).tobytes()
            == iterative_scores_batch(s, c, c_queries, k2=7).tobytes())


@st.composite
def scorers_and_queries(draw):
    """A fitted scorer and queries against it: ties, zero rows, all-origin
    fits, custom radii beyond rFit, queries beyond the fit ball, one-row
    batches, and batches that span several scoring blocks (wide rows)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 3, 8, 3000, 40000]))  # 21 and 1 rows per block when wide
    n = draw(st.integers(1, 30 if d < 3000 else 6))
    rows = rng.normal(size=(n, d))
    if draw(st.booleans()):
        rows = np.round(2.0 * rows) / 2.0  # repeated norms and coordinates
    rows *= 10.0 ** rng.uniform(-3, 3)
    rows[rng.random(n) < draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))] = 0.0
    kind = draw(st.sampled_from(ALL_NORMS))
    k = draw(st.integers(1, 40))
    radii = None
    top = float(norms(rows, kind).max())
    # a batch mostly beyond the fit ball: each query scaled by 10 to 1e3
    far = (top + 1.0) * 10.0 ** rng.uniform(1, 3, size=(1000, 1)) if draw(st.booleans()) else None
    if draw(st.booleans()):
        exact = norms(rows, kind).tolist()
        beyond = (rng.uniform(1.0, 3.0, size=3) * (top + 1.0)).tolist()
        if far is not None:  # balls that hold some far queries
            beyond += far[:3, 0].tolist()
        radii = sorted(set(draw(st.lists(st.sampled_from(exact + beyond), min_size=1, max_size=k))))
    scorer = fit(rows, k=k, norm=kind, radii=radii)
    l = draw(st.sampled_from([1, 2, 17, 200] if d < 3000 else [1, 2, 30, 60]))
    queries = rng.normal(size=(l, d)) * 10.0 ** rng.uniform(-3, 3)
    picked = rng.random(l) < 0.5  # fit rows, stretched or shrunk at times
    queries[picked] = rows[rng.integers(0, n, size=l)[picked]] * draw(st.sampled_from([1.0, 0.5, 2.0]))
    if far is not None:
        queries = rng.normal(size=(l, d)) * far[-l:]
    queries[rng.random(l) < 0.2] = 0.0
    bad = draw(st.sampled_from([None] * 6 + [np.nan, np.inf, 1e200, 1.7e308]))
    if bad is not None:
        queries[rng.integers(0, l), rng.integers(0, d, size=2)] = bad
    return scorer, queries


def _outcome(scores, queries):
    try:
        return scores(queries).tobytes()
    except InputError as exc:
        return str(exc)


@given(scorers_and_queries())
@settings(max_examples=300, deadline=None)
def test_raw_scores_equal_the_k_wide_sweep_bitwise(case):
    scorer, queries = case
    want = _outcome(lambda q: sweep_raw_scores(scorer, q), queries)
    assert _outcome(scorer.raw_scores, queries) == want
    if isinstance(want, bytes):
        one = [score(scorer, row).score for row in queries[:3]]
        assert np.array(one).tobytes() == want[: 8 * len(one)]


@pytest.mark.parametrize("kind", ALL_NORMS)
@pytest.mark.parametrize("radii, below", [
    # balls above rFit = 2: the query of norm 10 is beyond the fit ball and
    # inside the last ball only, or inside every ball
    ((1.0, 2.0, 5.0, 50.0), 3),
    ((20.0, 30.0), 0),
])
def test_a_far_query_that_balls_hold_scores_as_the_k_wide_sweep(kind, radii, below):
    scorer = fit([[2.0, 0.0], [0.0, 1.0], [0.5, 0.5]], norm=kind, radii=radii)
    query = np.array([[-10.0, 0.0]])
    want = sweep_raw_scores(scorer, query)
    assert scorer.raw_scores(query).tobytes() == want.tobytes()
    assert np.searchsorted(radii, 10.0) == below
    if below == 0:  # every ball holds it and separates nothing: the mean term alone
        gap = norms(query - scorer.mean, kind)
        assert want.tobytes() == (1.0 - 0.5 * (gap / 10.0)).tobytes()


def test_raw_scores_memory_does_not_grow_with_k():
    # 2000 queries inside the fit ball at k=5000: a (rows, k) float64
    # temporary alone would take 80 MB
    rows = np.random.default_rng(3).normal(size=(3000, 32))
    scorer = fit(rows, k=5000)
    queries = 0.5 * rows[:2000]
    tracemalloc.start()
    try:
        got = scorer.raw_scores(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
    assert got[:50].tobytes() == sweep_raw_scores(scorer, queries[:50]).tobytes()


@pytest.mark.parametrize("rows", [[[1.0, 2.0], [3.0, 1.0]], [[0.0, 0.0]]])
@pytest.mark.parametrize("kind", ALL_NORMS)
def test_raw_scores_of_an_empty_batch_are_empty(rows, kind):
    scorer = fit(rows, k=3, norm=kind)
    for got in (scorer.raw_scores(np.empty((0, 2))), scorer.clamped_scores(np.empty((0, 2)))):
        assert got.dtype == np.float64 and got.shape == (0,)


def test_raw_scores_of_a_large_batch_make_no_query_sized_temporary():
    # 8192 x 128 queries at k = 50, inside the fit ball and beyond it: one
    # (l, d) float64 temporary alone would take 8.4 MB
    rng = np.random.default_rng(11)
    scorer = fit(rng.normal(size=(2000, 128)), k=50)
    queries = rng.normal(size=(8192, 128))
    for scale, far in ((0.5, False), (10.0, True)):
        scaled = scale * queries
        assert ((norms(scaled, NormKind.L2) > scorer.fit_radius) == far).all()
        tracemalloc.start()
        try:
            got = scorer.raw_scores(scaled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, (scale, peak)
        assert got[:64].tobytes() == sweep_raw_scores(scorer, scaled[:64]).tobytes()


@pytest.mark.parametrize("changes, rule", [
    ({"accept_rates": (0.75, 0.5, 1.0)}, "'gMeans' and 'gMaxNorms' must be nondecreasing"),
    ({"region_radii": (1.0, 0.5, 3.0)}, "'gMeans' and 'gMaxNorms' must be nondecreasing"),
    ({"region_radii": (1.5, 2.0, 3.0)}, "each 'gMaxNorms' entry must be <= its radius"),
    ({"radii": (2.0, 1.0, 3.0)}, "'radii' must be nondecreasing"),
    ({"radii": (1.0, 2.0)}, "'radii', 'gMeans' and 'gMaxNorms' must have k >= 1 entries each"),
    ({"radii": (), "accept_rates": (), "region_radii": ()},
     "'radii', 'gMeans' and 'gMaxNorms' must have k >= 1 entries each"),
    ({"accept_rates": (0.5, 0.75, 1.25)}, "'gMeans' must lie in [0, 1]"),
    ({"radii": (1.0, 2.0, np.inf)}, "'radii' and 'gMaxNorms' entries must be finite numbers >= 0"),
    ({"region_radii": (-1.0, 2.0, 3.0)},
     "'radii' and 'gMaxNorms' entries must be finite numbers >= 0"),
    ({"fit_radius": np.inf}, "'rFit' must be a finite number >= 0"),
    ({"fit_radius": np.nan}, "'rFit' must be a finite number >= 0"),
    ({"mean": [np.nan]}, "'mean' must be a nonempty 1-D vector of finite numbers"),
    ({"mean": [[0.5]]}, "'mean' must be a nonempty 1-D vector of finite numbers"),
    ({"norm": "l2"}, "'norm' must be a NormKind, got str"),
    ({"radii": (1.0, 1.0, 3.0)}, "'radii' must be nondecreasing, and strictly increasing unless"),
    ({"fit_radius": 0.0, "radii": (0.0, 0.0), "accept_rates": (1.0, 1.0),
      "region_radii": (0.0, 0.0)}, "'mean' must have norm 0 when 'rFit' is 0"),
])
def test_hand_built_scorer_is_checked(changes, rule):
    fields = dict(norm=NormKind.L2, mean=[0.5], fit_radius=3.0, radii=(1.0, 2.0, 3.0),
                  accept_rates=(0.25, 0.5, 1.0), region_radii=(1.0, 2.0, 3.0))
    FittedScorer(**fields)
    with pytest.raises(InputError) as err:
        FittedScorer(**(fields | changes))
    assert str(err.value).startswith(f"model fields are inconsistent: {rule}")


def test_hand_built_mean_beyond_the_fit_radius_is_refused():
    with pytest.raises(InputError, match="'mean' must have a norm <= 'rFit', up to rounding"):
        FittedScorer(NormKind.L2, [3.0, 4.0], 1.0, (0.5, 1.0), (0.5, 1.0), (0.5, 1.0))
    for kind in ALL_NORMS:  # one ulp beyond the fit radius is rounding
        FittedScorer(kind, [np.nextafter(1.0, 2.0)], 1.0, (1.0,), (1.0,), (1.0,))
        with pytest.raises(InputError, match="'mean' must have a norm <= 'rFit'"):
            FittedScorer(kind, [1.0 + 1e-9], 1.0, (1.0,), (1.0,), (1.0,))


@st.composite
def wide_fit_rows(draw):
    """Up to 60 x 8 rows with entries from about 1e-330 to 1e140 in size, so
    that l2 squares may underflow but never overflow; often every row is one
    vector, or one row dominates, so the mean's norm nears the max norm."""
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-330, 140))
    high = draw(st.integers(low, 140))
    a = rng.choice([-1.0, 1.0], size=(n, d)) * 10.0 ** rng.uniform(low, high, size=(n, d))
    shape = draw(st.sampled_from(["random", "one vector", "one row dominates"]))
    if shape == "one vector":
        a[:] = a[0]
    elif shape == "one row dominates":
        a[1:] = a[0] * rng.uniform(0.999, 1.0, size=(n - 1, 1))
    return a


@given(wide_fit_rows(), st.sampled_from(ALL_NORMS), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_no_fit_breaks_the_mean_norm_rule(rows, kind, k):
    fitted = fit(rows, k=k, norm=kind)  # the constructor refuses a broken rule
    FittedScorer(**{name: getattr(fitted, name) for name in _SCORER_FIELDS})


def test_degenerate_scorer_mean_may_be_negative_zero():
    s = FittedScorer(NormKind.L2, [-0.0, 0.0], 0.0, (0.0, 0.0), (1.0, 1.0), (0.0, 0.0))
    assert s.degenerate and score(s, [0.0, -0.0]).score == 1.0


_SCORER_FIELDS = ("norm", "mean", "fit_radius", "radii", "accept_rates", "region_radii")


@st.composite
def hand_built_fields(draw):
    """Keyword arguments of ``FittedScorer``: those of a fit on generated data
    (every norm, ties, all-origin rows, custom radii), then zero to three edits
    of the kind a caller building a scorer by hand might make."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(draw(st.integers(1, 12)), draw(st.integers(1, 4))))
    if draw(st.booleans()):
        rows = np.round(rows)  # repeated norms and zero rows
    rows *= draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
    kind = draw(st.sampled_from(ALL_NORMS))
    radii = None
    if draw(st.booleans()):
        radii = sorted(set(draw(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=8))))
    fitted = fit(rows, k=draw(st.integers(1, 8)), norm=kind, radii=radii)
    fields = {name: getattr(fitted, name) for name in _SCORER_FIELDS}
    k = len(fields["radii"])
    special = st.sampled_from([0.0, -0.0, -1.0, 1.5, np.nan, np.inf, 1e300])
    edits = {
        "norm": st.sampled_from(ALL_NORMS),
        "mean": st.lists(st.floats(-1e6, 1e6) | special, min_size=1, max_size=4),
        "fit_radius": st.floats(0.0, 1e5) | special,
        "radii": st.sampled_from(["scale", "default", "repeat", "list"]),
        "accept_rates": st.lists(st.floats(0.0, 1.0) | special, min_size=k, max_size=k).map(sorted),
        "region_radii": st.sampled_from(["zeros", "array"]),
    }
    for name in draw(st.lists(st.sampled_from(_SCORER_FIELDS), max_size=3)):
        value = draw(edits[name])
        if name == "radii":
            r, top = np.array(fields["radii"]), fields["fit_radius"]
            value = {"scale": r * draw(st.floats(1.0, 4.0)), "list": r.tolist(),
                     "default": RadiusFamily(k=k, top=top).radii if np.isfinite(top) and top >= 0
                     else r, "repeat": np.append(r[:1], r[:-1])}[value]
        elif name == "region_radii":
            value = np.zeros(k) if value == "zeros" else np.array(fields["region_radii"])
        fields[name] = value
    return fields


@given(hand_built_fields())
@settings(max_examples=300, deadline=None)
def test_every_scorer_the_constructor_accepts_saves_a_model_that_loads(tmp_path_factory, fields):
    try:
        scorer = FittedScorer(**fields)
    except InputError as exc:
        assert str(exc).startswith("model fields are inconsistent: ")
        return
    path = tmp_path_factory.mktemp("model") / "model.json"
    scorer.save(path)
    loaded = FittedScorer.load(path)
    assert loaded.to_json_text() == scorer.to_json_text()
    assert (loaded.k, loaded.dimension, loaded.degenerate) == (scorer.k, scorer.dimension,
                                                              scorer.degenerate)


def test_inconsistent_model_file_names_the_file(tmp_path):
    doc = fit([[0.2], [1.0], [0.6]], k=3).to_json_dict()
    doc["gMeans"] = doc["gMeans"][::-1]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError) as err:
        FittedScorer.load(path)
    assert str(err.value) == (f"{path}: model fields are inconsistent: "
                              "'gMeans' and 'gMaxNorms' must be nondecreasing")
