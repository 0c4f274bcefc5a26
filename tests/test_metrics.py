import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapbound import (
    InputError,
    LabeledScores,
    MetricUndefinedError,
    aupr,
    auroc,
    roc_curve,
    tpr_at_in_rate,
)
from oracles import (
    auroc_trapezoid,
    brute_aupr,
    brute_auroc,
    brute_tpr_at,
    float_sweep,
    midrank_auroc,
    sorted_tpr_at_in_rate,
    sweep_aupr,
    sweep_roc_curve,
)


def labeled(scores, labels):
    return LabeledScores(np.asarray(scores, dtype=float), np.asarray(labels, dtype=bool))


def random_labeled(rng, with_ties=True, n_min=4, n_max=60):
    while True:
        n = int(rng.integers(n_min, n_max))
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if labels.any() and not labels.all():
            break
    if with_ties:
        scores = np.round(rng.uniform(0, 1, size=n), 1)  # coarse grid forces ties
    else:
        scores = rng.uniform(0, 1, size=n)
    return labeled(scores, labels)


def test_auroc_perfect_separation():
    assert auroc(labeled([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])) == 1.0


def test_auroc_interleaved_quarter():
    # pair enumeration: only (0.8 > 0.2) among the four positive/negative pairs
    assert auroc(labeled([0.9, 0.2, 0.8, 0.1], [0, 0, 1, 1])) == 0.25


def test_auroc_all_ties_is_half():
    assert auroc(labeled([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1])) == 0.5


def test_auroc_matches_brute_force(rng):
    for i in range(100):
        ls = random_labeled(rng, with_ties=(i % 2 == 0))
        assert auroc(ls) == pytest.approx(brute_auroc(ls.scores, ls.labels), abs=1e-12)


def test_rank_and_trapezoid_agree(rng):
    for i in range(100):
        ls = random_labeled(rng, with_ties=(i % 2 == 0))
        fpr, tpr, _ = roc_curve(ls)
        assert abs(auroc(ls) - auroc_trapezoid(fpr.tolist(), tpr.tolist())) <= 1e-12


def test_auroc_invariant_under_monotone_transform(rng):
    for _ in range(25):
        ls = random_labeled(rng)
        transformed = labeled(np.exp(3.0 * ls.scores) + 7.0, ls.labels)
        assert auroc(transformed) == pytest.approx(auroc(ls), abs=1e-12)


def test_auroc_label_flip_without_ties(rng):
    for _ in range(25):
        ls = random_labeled(rng, with_ties=False)
        flipped = labeled(ls.scores, ~ls.labels)
        assert auroc(flipped) == pytest.approx(1.0 - auroc(ls), abs=1e-12)


def test_aupr_perfect_separation_any_balance(rng):
    for n_pos, n_neg in [(1, 9), (5, 5), (8, 2)]:
        scores = np.concatenate([np.linspace(0.6, 0.9, n_pos), np.linspace(0.1, 0.4, n_neg)])
        labels = [1] * n_pos + [0] * n_neg
        assert aupr(labeled(scores, labels)) == 1.0


def test_aupr_random_scores_near_prevalence(rng):
    n = 20_000
    labels = rng.random(n) < 0.3
    scores = rng.uniform(0, 1, size=n)
    assert aupr(labeled(scores, labels)) == pytest.approx(0.3, abs=0.02)


def test_aupr_matches_brute_force(rng):
    for i in range(100):
        ls = random_labeled(rng, with_ties=(i % 2 == 0))
        assert aupr(ls) == pytest.approx(brute_aupr(ls.scores.tolist(), ls.labels.tolist()), abs=1e-12)


def test_aupr_four_point_case():
    ls = labeled([0.9, 0.2, 0.8, 0.1], [0, 0, 1, 1])
    assert aupr(ls) == pytest.approx(brute_aupr(ls.scores.tolist(), ls.labels.tolist()), abs=1e-15)


def test_tpr_trivial_orderings():
    assert tpr_at_in_rate(labeled([0.8, 0.9, 0.1, 0.2], [1, 1, 0, 0])) == 1.0
    assert tpr_at_in_rate(labeled([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])) == 0.0


def test_tpr_matches_brute_force(rng):
    for i in range(100):
        ls = random_labeled(rng, with_ties=(i % 2 == 0), n_min=10, n_max=120)
        rate = float(rng.choice([0.5, 0.8, 0.9, 0.95]))
        got = tpr_at_in_rate(ls, rate)
        want = brute_tpr_at(ls.scores.tolist(), ls.labels.tolist(), rate)
        assert got == pytest.approx(want, abs=1e-12)


def test_tpr_nonincreasing_in_rate(rng):
    for _ in range(25):
        ls = random_labeled(rng, n_min=20, n_max=100)
        values = [tpr_at_in_rate(ls, r) for r in (0.5, 0.7, 0.9, 0.95, 0.99)]
        assert all(b <= a for a, b in zip(values, values[1:]))


def test_tpr_interleaved_against_exhaustive(rng):
    scores = np.concatenate([rng.normal(1.0, 1.0, 100), rng.normal(0.0, 1.0, 100)])
    labels = np.array([True] * 100 + [False] * 100)
    ls = labeled(scores, labels)
    assert tpr_at_in_rate(ls, 0.95) == pytest.approx(
        brute_tpr_at(scores.tolist(), labels.tolist(), 0.95), abs=1e-15
    )


def test_roc_curve_shape():
    fpr, tpr, thr = roc_curve(labeled([0.9, 0.2, 0.8, 0.1], [0, 0, 1, 1]))
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0
    assert np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)
    assert thr[0] == np.inf


def test_single_class_raises():
    with pytest.raises(MetricUndefinedError):
        auroc(labeled([0.1, 0.2], [1, 1]))
    with pytest.raises(MetricUndefinedError):
        tpr_at_in_rate(labeled([0.1, 0.2], [0, 0]))
    with pytest.raises(MetricUndefinedError):
        aupr(labeled([0.1, 0.2], [0, 0]))


def test_labeled_scores_validation():
    with pytest.raises(InputError):
        LabeledScores(np.array([1.0, 2.0]), np.array([True]))
    with pytest.raises(InputError):
        LabeledScores(np.array([np.nan]), np.array([True]))
    with pytest.raises(InputError):
        tpr_at_in_rate(labeled([0.5, 0.6], [1, 0]), in_rate=1.0)


# Scores from a small grid (with both signed zeros) force ties; some come
# from a continuous range so tie groups of size one mix in.
_TIED_SCORE = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1e300, -1e300])


@st.composite
def tied_scores(draw):
    n = draw(st.integers(1, 40))
    scores = draw(st.lists(st.one_of(_TIED_SCORE, st.floats(-1e3, 1e3)), min_size=n, max_size=n))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(scores, dtype=np.float64), np.array(labels, dtype=bool)


@given(tied_scores(), st.sampled_from([0.01, 0.5, 0.8, 0.9, 0.95, 0.99]))
@settings(max_examples=300, deadline=None)
def test_one_sweep_equals_retired_per_call_forms(data, in_rate):
    scores, labels = data
    ls = LabeledScores(scores, labels)
    assert (ls.n_pos, ls.n_neg) == (int(labels.sum()), int((~labels).sum()))
    if labels.any():
        assert aupr(ls) == sweep_aupr(scores, labels)
    else:
        with pytest.raises(MetricUndefinedError):
            aupr(ls)
    if not (labels.any() and not labels.all()):
        for metric in (auroc, roc_curve, tpr_at_in_rate):
            with pytest.raises(MetricUndefinedError):
                metric(ls)
        return
    assert auroc(ls) == midrank_auroc(scores, labels)
    assert tpr_at_in_rate(ls, in_rate) == sorted_tpr_at_in_rate(scores, labels, in_rate)
    for got, want in zip(roc_curve(ls), sweep_roc_curve(scores, labels)):
        assert got.tobytes() == want.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(1000, 5000),
       st.lists(_TIED_SCORE, min_size=1, max_size=6), st.floats(0.1, 0.9))
@settings(max_examples=100, deadline=None)
def test_sweep_of_thousands_of_tied_scores_equals_the_stable_sort(seed, n, grid, pos_rate):
    # numpy sorts a large array with another algorithm than a tiny one, so
    # the sweep is also checked on thousands of scores from a small tie grid
    # that holds both signed zeros, with labels mixed in every tie group and
    # a few scores left untied
    rng = np.random.default_rng(seed)
    grid = np.array(grid + [-0.0, 0.0])
    scores = grid[rng.integers(0, grid.size, size=n)]
    untied = rng.random(n) < 0.05
    scores[untied] = rng.uniform(-2.0, 2.0, size=int(untied.sum()))
    labels = rng.random(n) < pos_rate
    ls = LabeledScores(scores, labels)
    thresholds, tps, predicted = float_sweep(scores, labels)
    assert ls.thresholds.tobytes() == thresholds.tobytes()
    assert ls.tps.astype(np.float64).tobytes() == tps.tobytes()
    assert ls.predicted.astype(np.float64).tobytes() == predicted.tobytes()
    assert aupr(ls) == sweep_aupr(scores, labels)
    for got, want in zip(roc_curve(ls), sweep_roc_curve(scores, labels)):
        assert got.tobytes() == want.tobytes()


def test_labeled_scores_sorts_once(monkeypatch):
    ls_args = (np.array([0.3, 0.1, 0.3, 0.9, 0.1]), np.array([1, 0, 0, 1, 1], dtype=bool))
    calls = []
    real_argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        calls.append(args)
        return real_argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    ls = LabeledScores(*ls_args)
    auroc(ls), aupr(ls), tpr_at_in_rate(ls, 0.5), roc_curve(ls)
    assert len(calls) == 1
    assert ls.thresholds.tolist() == [0.9, 0.3, 0.1]
    assert ls.tps.tolist() == [1, 2, 3] and ls.predicted.tolist() == [1, 3, 5]


def test_labeled_scores_copies_its_inputs():
    scores, labels = np.array([0.2, 0.8]), np.array([False, True])
    ls = LabeledScores(scores, labels)
    scores[0], labels[0] = 0.9, True
    assert auroc(ls) == 1.0 and ls.n_pos == 1
    with pytest.raises(ValueError):
        ls.scores[0] = 0.0


def test_extreme_scores_rank_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ls = labeled([1.7e308, -1.7e308, 0.0], [1, 0, 0])
        assert (auroc(ls), aupr(ls), tpr_at_in_rate(ls, 0.5)) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("labels, shown", [
    ([1, 1, -1, -1], "-1"), ([1.0, 0.5, 0.0, 1.0], "0.5"), ([0, 2, 1, 0], "2"),
    ([1.0, float("nan"), 0.0, 0.0], "nan"),
])
def test_labels_other_than_booleans_or_0_1_are_refused(labels, shown):
    # numpy casts any nonzero label, NaN included, to True: a ±1-labelled set
    # would have no negatives and an AUPR of 1.0
    with pytest.raises(InputError, match=rf"^labels must be booleans or 0/1, got {shown}$"):
        LabeledScores([0.9, 0.8, 0.2, 0.1], labels)


@given(tied_scores())
@settings(max_examples=100, deadline=None)
def test_bool_and_0_1_labels_give_the_same_sweep(data):
    scores, labels = data
    thresholds, tps, predicted = float_sweep(scores, labels)
    for given_labels in (labels, labels.tolist(), labels.astype(np.int64), labels.astype(np.float64)):
        ls = LabeledScores(scores, given_labels)
        assert ls.labels.dtype == bool and ls.labels.tobytes() == labels.tobytes()
        assert ls.thresholds.tobytes() == thresholds.tobytes()
        assert ls.tps.astype(np.float64).tobytes() == tps.tobytes()
        assert ls.predicted.astype(np.float64).tobytes() == predicted.tobytes()
