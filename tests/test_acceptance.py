"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every expected value is either derived by an independent
brute-force oracle or checked against the exact discrete-distribution
engine; nothing is tuned to the implementation under test.
"""

import math
import time

import numpy as np
import pytest

from overlapbound import (
    JointSupport,
    LabeledScores,
    NormKind,
    RadiusIndicator,
    SampleSet,
    aupr,
    auroc,
    compute_bound,
    fit,
    fixed_accuracy_rule,
    indicator_bound,
    overlap,
    score,
    simulate_accuracy,
    subset_bound,
    subset_variation,
    sweep_sigma,
    tpr_at_in_rate,
)
from conftest import ALL_NORMS, random_pair
from oracles import ball_conditions, brute_aupr, brute_auroc, brute_tpr_at, draw_points, mixture_samples

TOL_EXACT = 1e-12


def report(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {message}")


def random_subset_mask(rng, joint: JointSupport) -> np.ndarray:
    """A subset whose complement is nonempty and not all at the origin."""
    m = joint.points.shape[0]
    while True:
        mask = rng.random(m) < rng.uniform(0.2, 0.8)
        comp = joint.points[~mask]
        if comp.shape[0] and np.abs(comp).max() > 0:
            return mask


def test_criterion_1_and_2_bound_validity_and_partition_identity():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    n_pairs = 210
    checked = 0
    for trial in range(n_pairs):
        p, q = random_pair(rng, max_points=16, max_dim=3)
        kind = ALL_NORMS[trial % 3]
        eta = overlap(p, q)
        joint = JointSupport.of(p, q)

        mask = random_subset_mask(rng, joint)
        # complement-radius form with a random subset
        assert subset_bound(joint, mask, kind, use_domain_radius=False) >= eta - TOL_EXACT
        # domain-radius form
        assert subset_bound(joint, mask, kind, use_domain_radius=True) >= eta - TOL_EXACT
        # indicator-family form with exact acceptance probabilities
        radii = sorted(float(r) for r in rng.uniform(0.0, 3.0, size=int(rng.integers(1, 7))))
        conditions = [RadiusIndicator(r, kind) for r in radii]
        assert indicator_bound(p, q, conditions, kind) >= eta - TOL_EXACT

        # criterion 2: overlap == 1 - variation(A) - variation(complement)
        identity_gap = abs(eta - (1.0 - subset_variation(joint, mask) - subset_variation(joint, ~mask)))
        assert identity_gap <= TOL_EXACT
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"validity sweep took {elapsed:.2f}s (budget 5s)"
    report(1, f"bound validity on {checked} random pairs, all norms, {elapsed:.2f}s")
    report(2, f"partition identity within {TOL_EXACT} on the same sweep")


def test_criterion_3_estimator_consistency():
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    n_trials, n_samples = 100, 50_000
    within = 0
    worst = 0.0
    for trial in range(n_trials):
        p, q = random_pair(rng, max_points=16, max_dim=3)
        joint = JointSupport.of(p, q)
        kind = NormKind.L2
        top = float(np.sqrt((joint.points ** 2).sum(axis=1)).max())
        conditions = [RadiusIndicator(top * j / 8, kind) for j in range(1, 9)]
        exact = indicator_bound(p, q, conditions, kind)
        pos = SampleSet(draw_points(p, n_samples, rng), kind)
        neg = SampleSet(draw_points(q, n_samples, rng), kind)
        estimated = compute_bound(pos, neg, conditions).raw_bound
        gap = abs(estimated - exact)
        worst = max(worst, gap)
        if gap <= 0.02:
            within += 1
    elapsed = time.perf_counter() - start
    assert within >= 95, f"only {within}/100 trials within 0.02 (worst gap {worst:.4f})"
    assert elapsed < 30.0, f"consistency sweep took {elapsed:.2f}s (budget 30s)"
    report(3, f"{within}/100 trials within 0.02 of the exact bound, {elapsed:.1f}s")


def test_criterion_4_monotonicity():
    rng = np.random.default_rng(31)
    # growing the condition family never increases the bound
    for _ in range(50):
        d = int(rng.integers(1, 4))
        pos = SampleSet(rng.normal(size=(int(rng.integers(2, 15)), d)))
        neg = SampleSet(rng.normal(size=(int(rng.integers(2, 15)), d)))
        radii = sorted(float(r) for r in rng.uniform(0, 3, size=8))
        base = [RadiusIndicator(r) for r in radii[:4]]
        grown = base + [RadiusIndicator(r) for r in radii[4:]]
        assert compute_bound(pos, neg, grown).raw_bound <= compute_bound(pos, neg, base).raw_bound

    # nested balls accept nested sample sets
    for _ in range(50):
        kind = ALL_NORMS[int(rng.integers(0, 3))]
        x = rng.normal(size=(1, int(rng.integers(1, 5))))
        r_small, r_big = sorted(rng.uniform(0, 3, size=2))
        assert (
            RadiusIndicator(float(r_small), kind).evaluate_many(x)[0]
            <= RadiusIndicator(float(r_big), kind).evaluate_many(x)[0]
        )

    # raising the verdict threshold never flips out to in
    scorer = fit(rng.normal(size=(25, 3)), k=6)
    for _ in range(50):
        x = rng.normal(size=3) * rng.uniform(0, 3)
        t_low, t_high = sorted(rng.uniform(-0.5, 1.1, size=2))
        verdicts = [score(scorer, x, float(t)).verdict == "in" for t in (t_high, t_low)]
        assert verdicts[0] <= verdicts[1]
    report(4, "family, radius, and threshold monotonicity over randomized suites")


def test_criterion_5_score_path_equivalence():
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(1000):
        kind = ALL_NORMS[trial % 3]
        d = int(rng.integers(1, 7))
        samples = SampleSet(rng.normal(size=(int(rng.integers(1, 25)), d)) * rng.uniform(0.2, 2), kind)
        scorer = fit(samples, k=int(rng.integers(1, 9)))
        x = rng.normal(size=d) * rng.uniform(0, 3)
        cached = score(scorer, x).score
        direct = compute_bound(
            SampleSet(x.reshape(1, -1), kind), samples, ball_conditions(scorer)
        ).raw_bound
        worst = max(worst, abs(cached - direct))
        assert abs(cached - direct) <= TOL_EXACT
    report(5, f"cached scoring equals the direct bound on 1000 pairs (worst gap {worst:.2e})")


def test_criterion_6_complexity_contract(tmp_path):
    rng = np.random.default_rng(66)
    d, k = 128, 50
    sizes = {}
    for n in (10, 100_000):
        scorer = fit(rng.normal(size=(n, d)), k=k)
        path = tmp_path / f"model_{n}.json"
        scorer.save(path)
        sizes[n] = path.stat().st_size
    # fixed-width floats: only sign characters of the mean may differ
    assert abs(sizes[10] - sizes[100_000]) <= d + 16, sizes

    scorer = fit(rng.normal(size=(1000, d)), k=k)
    queries = rng.normal(size=(200_000, d))
    scorer.raw_scores(queries[:1000])  # warm up
    start = time.perf_counter()
    scores = scorer.raw_scores(queries)
    elapsed = time.perf_counter() - start
    throughput = queries.shape[0] / elapsed
    assert scores.shape == (200_000,)
    assert throughput >= 1e5, f"throughput {throughput:.0f} queries/s (need 1e5)"
    report(
        6,
        f"model bytes {sizes[10]} vs {sizes[100_000]} for n=10 vs n=1e5; "
        f"{throughput:,.0f} queries/s at d=128, k=50",
    )


def test_criterion_7_shift_ceiling_and_affinity():
    rng = np.random.default_rng(7)
    clean_rows, poisoned_rows = rng.normal(size=(400, 3)), rng.normal(size=(400, 3)) + 3.0
    clean, poisoned = SampleSet(clean_rows), SampleSet(poisoned_rows)
    conditions = [RadiusIndicator(float(r)) for r in np.linspace(0.5, 7.0, 10)]
    p, n_sim = 0.9, 20_000
    rule = fixed_accuracy_rule(clean, poisoned, p=p, q=0.0, seed=1)
    tol = 3.0 * math.sqrt(p * (1 - p) / n_sim)
    sigmas = [round(0.1 * i, 1) for i in range(11)]
    for sigma, ceiling in sweep_sigma(clean, poisoned, p, sigmas, conditions):
        measured = simulate_accuracy(clean, poisoned, sigma, rule, n_sim, seed=2)
        assert measured <= ceiling + tol, (sigma, measured, ceiling)
        # the general ceiling evaluated on a realized mixture also dominates
        mixture = mixture_samples(clean_rows, poisoned_rows, sigma, 10_000, seed=3)
        assert measured <= sweep_sigma(clean, mixture, p, [0.0], conditions, q=0.0)[0][1] + tol

    f = lambda s: sweep_sigma(clean, poisoned, p, [s], conditions)[0][1]
    a, b, c = f(0.0), f(0.5), f(1.0)
    assert abs((a + c) / 2.0 - b) <= TOL_EXACT
    assert c == pytest.approx(p, abs=1e-15)
    report(7, f"measured accuracy under every ceiling (tol {tol:.3f}); ceiling affine in sigma")


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(88)
    for trial in range(100):
        n = int(rng.integers(6, 80))
        while True:
            labels = rng.random(n) < rng.uniform(0.2, 0.8)
            if labels.any() and not labels.all():
                break
        if trial % 2 == 0:
            scores = np.round(rng.uniform(0, 1, size=n), 1)  # heavy ties
        else:
            scores = rng.normal(size=n)
        ls = LabeledScores(scores, labels)
        assert abs(auroc(ls) - brute_auroc(scores.tolist(), labels.tolist())) <= TOL_EXACT
        assert abs(aupr(ls) - brute_aupr(scores.tolist(), labels.tolist())) <= TOL_EXACT
        rate = float(rng.choice([0.5, 0.8, 0.9, 0.95]))
        assert (
            abs(tpr_at_in_rate(ls, rate) - brute_tpr_at(scores.tolist(), labels.tolist(), rate))
            <= TOL_EXACT
        )
    report(8, "auroc/aupr/tpr match brute-force enumeration on 100 sets with ties")


def test_criterion_9_two_gaussian_separation():
    rng = np.random.default_rng(99)
    scorer = fit(rng.normal(size=(100, 5)), k=50)
    test_in = rng.normal(size=(1000, 5))
    test_out = rng.normal(size=(1000, 5)) + np.array([4.0, 0.0, 0.0, 0.0, 0.0])
    scores = np.concatenate([scorer.raw_scores(test_in), scorer.raw_scores(test_out)])
    labels = np.array([True] * 1000 + [False] * 1000)
    value = auroc(LabeledScores(scores, labels))
    assert value >= 0.90, f"AUROC {value:.3f}"
    report(9, f"two-Gaussian AUROC {value:.3f} >= 0.90 from 100 in-class samples")
