import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
    score,
)
from conftest import ALL_NORMS, radii_on_norms, repeated_rows
from oracles import (
    ball_conditions,
    brute_bound,
    brute_scorer_score,
    iterative_scores_loop,
    mask_ball_stats,
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
    real_norms = mod.norms

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
    assert counts[20] == counts[20_000]
    assert counts[20][1] == 2 * len(queries)  # query norms + mean-gap rows


def test_custom_radii_survive_round_trip(tmp_path):
    s = fit([[0.2], [1.0]], radii=[0.3, 0.9])
    path = tmp_path / "custom.json"
    s.save(path)
    assert FittedScorer.load(path).radii == (0.3, 0.9)


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


def test_fit_norm_override():
    s = fit([[1.0, -1.0]], k=2, norm="l1")
    assert s.norm is NormKind.L1
    assert s.fit_radius == 2.0
    ss = SampleSet(np.array([[1.0, -1.0]]), NormKind.L2)
    s2 = fit(ss, k=2, norm=NormKind.L1)
    assert s2.fit_radius == 2.0


@given(st.data(), repeated_rows(), st.sampled_from(ALL_NORMS))
@settings(max_examples=150, deadline=None)
def test_fit_ball_statistics_equal_mask_loop(data, rows, kind):
    ss = SampleSet(rows, kind)
    radii = radii_on_norms(data, ss)
    counts, region = mask_ball_stats(ss.norms, radii)
    s = fit(ss, radii=radii)
    assert s.accept_rates == tuple(c / len(ss) for c in counts)
    assert s.region_radii == tuple(region)
    k = data.draw(st.integers(1, 12))
    counts, region = mask_ball_stats(ss.norms, RadiusFamily(k, ss.max_norm).radii)
    s = fit(ss, k=k)
    assert s.accept_rates == tuple(c / len(ss) for c in counts)
    assert s.region_radii == tuple(region)


@given(st.data(), repeated_rows(), st.sampled_from(ALL_NORMS), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_scalar_score_is_one_row_batch(data, rows, kind, k):
    s = fit(SampleSet(rows, kind), k=k)
    x = np.array(data.draw(repeated_rows(rows.shape[1]))[0]) * data.draw(st.floats(0.0, 3.0))
    assert score(s, x).score == s.raw_scores(x[None])[0]


@given(st.data(), repeated_rows(), st.sampled_from(ALL_NORMS), st.integers(1, 12), st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_iterative_batch_equals_per_query_bound_loop(data, rows, kind, k, k2):
    # the second fitted scorer must reproduce one pooled bound per query bitwise
    s = fit(SampleSet(rows, kind), k=k)
    queries = data.draw(repeated_rows(rows.shape[1])) * data.draw(st.floats(0.0, 3.0))
    got = iterative_scores_batch(s, rows, queries, k2=k2)
    assert np.array_equal(got, iterative_scores_loop(s, rows, queries, k2))


def _corruptions(doc: dict) -> list[tuple[str, object]]:
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
    ]


@given(st.data(), st.integers(1, 6), st.integers(2, 4))
@settings(max_examples=200, deadline=None)
def test_corrupted_model_field_fails_to_load(tmp_path_factory, data, d, k):
    rows = np.random.default_rng(d * 10 + k).normal(size=(9, d))
    doc = fit(rows, k=k).to_json_dict()
    key, bad = data.draw(st.sampled_from(_corruptions(doc)))
    doc[key] = bad
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        FittedScorer.load(path)


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
