import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapbound import (
    DimensionMismatchError,
    InputError,
    RadiusIndicator,
    SampleSet,
    compute_bound,
    fixed_accuracy_rule,
    make_sample_set,
    simulate_accuracy,
    sweep_sigma,
)

from conftest import ALL_NORMS, radii_on_norms, repeated_rows
from oracles import (
    mixture_row_indices,
    mixture_samples,
    retired_bound_terms,
    retired_mixture_bound,
    simulate_by_value,
    value_rule,
)


@pytest.fixture
def worked_mix():
    clean = make_sample_set([[0.2], [1.0]])
    poisoned = make_sample_set([[1.0]])
    return clean, poisoned, [RadiusIndicator(0.5)]


def test_accuracy_ceiling_equal_p_q(worked_mix):
    clean, poisoned, gs = worked_mix
    assert sweep_sigma(clean, poisoned, 0.7, [0.0], gs, q=0.7)[0][1] == pytest.approx(0.7, abs=1e-15)


def test_accuracy_ceiling_identical_sets(worked_mix):
    clean, _, gs = worked_mix
    assert sweep_sigma(clean, clean, 0.98, [0.0], gs, q=0.0)[0][1] == pytest.approx(0.98, abs=1e-15)


def test_accuracy_ceiling_worked_example(worked_mix):
    clean, poisoned, gs = worked_mix
    assert sweep_sigma(clean, poisoned, 0.9, [0.0], gs, q=0.0)[0][1] == pytest.approx(0.54, abs=1e-12)


def test_backdoor_ceiling_endpoints(worked_mix):
    clean, poisoned, gs = worked_mix
    assert sweep_sigma(clean, poisoned, 0.9, [1.0], gs)[0][1] == pytest.approx(0.9, abs=1e-15)
    raw = compute_bound(clean, poisoned, gs).raw_bound
    assert sweep_sigma(clean, poisoned, 0.9, [0.0], gs)[0][1] == pytest.approx(0.9 * raw, abs=1e-15)


def test_backdoor_ceiling_worked_midpoint(worked_mix):
    clean, poisoned, gs = worked_mix
    # halving the contaminated fraction halves both shift terms
    assert sweep_sigma(clean, poisoned, 0.9, [0.5], gs)[0][1] == pytest.approx(0.72, abs=1e-12)


def test_sweep_endpoints_and_order(worked_mix):
    clean, poisoned, gs = worked_mix
    sigmas = [round(0.1 * i, 1) for i in range(11)]
    table = sweep_sigma(clean, poisoned, 0.9, sigmas, gs)
    assert [s for s, _ in table] == sigmas
    assert table[0][1] == pytest.approx(0.54, abs=1e-12)
    assert table[-1][1] == pytest.approx(0.9, abs=1e-15)
    ceilings = [c for _, c in table]
    assert all(b >= a for a, b in zip(ceilings, ceilings[1:]))  # rises with purity


def test_sweep_single_sigma(worked_mix):
    clean, poisoned, gs = worked_mix
    assert sweep_sigma(clean, poisoned, 0.8, [1.0], gs) == [(1.0, pytest.approx(0.8))]


def test_sweep_evaluates_bound_once(rng, monkeypatch):
    # one bound serves every sigma; each ceiling equals the per-sigma closed form bitwise
    import overlapbound.shift as mod

    clean = SampleSet(rng.normal(size=(40, 3)))
    poisoned = SampleSet(rng.normal(size=(30, 3)) + 0.7)
    gs = [RadiusIndicator(float(r)) for r in np.linspace(0.3, 4.0, 9)]
    sigmas = np.linspace(0, 1, 11)
    want = [(float(s), (0.9 - 0.1) * sweep_sigma(clean, poisoned, 1.0, [s], gs)[0][1] + 0.1) for s in sigmas]
    calls = []
    monkeypatch.setattr(mod, "compute_bound", lambda *a: calls.append(a) or compute_bound(*a))
    assert sweep_sigma(clean, poisoned, 0.9, sigmas, gs, q=0.1) == want
    assert len(calls) == 1


def test_ceiling_affine_in_sigma(rng):
    for _ in range(20):
        clean = SampleSet(rng.normal(size=(15, 2)))
        poisoned = SampleSet(rng.normal(size=(12, 2)) + 2.5)
        gs = [RadiusIndicator(float(r)) for r in rng.uniform(0.2, 4, size=5)]
        p = float(rng.uniform(0.5, 1.0))
        f = lambda s: sweep_sigma(clean, poisoned, p, [s], gs)[0][1]
        a, b, c = f(0.0), f(0.5), f(1.0)
        assert abs((a + c) / 2 - b) <= 1e-12


def test_simulate_pure_clean_and_pure_poisoned():
    clean = make_sample_set([[0.2], [1.0]])
    poisoned = make_sample_set([[2.0], [3.0]])
    rule = fixed_accuracy_rule(clean, poisoned, p=1.0, q=0.0)
    assert simulate_accuracy(clean, poisoned, 1.0, rule, 5000, seed=1) == 1.0
    assert simulate_accuracy(clean, poisoned, 0.0, rule, 5000, seed=1) == 0.0


def test_simulate_half_mixture_matches_expectation():
    rng = np.random.default_rng(5)
    clean = SampleSet(rng.normal(size=(200, 2)))
    poisoned = SampleSet(rng.normal(size=(200, 2)) + 4.0)
    rule = fixed_accuracy_rule(clean, poisoned, p=0.9, q=0.0, seed=2)
    measured = simulate_accuracy(clean, poisoned, 0.5, rule, 40_000, seed=3)
    assert measured == pytest.approx(0.45, abs=0.02)
    gs = [RadiusIndicator(float(r)) for r in np.linspace(0.5, 6, 8)]
    assert measured <= sweep_sigma(clean, poisoned, 0.9, [0.5], gs)[0][1] + 1e-12


def test_measured_below_ceiling_across_sweep():
    rng = np.random.default_rng(6)
    clean = SampleSet(rng.normal(size=(300, 3)))
    poisoned = SampleSet(rng.normal(size=(300, 3)) + 3.0)
    gs = [RadiusIndicator(float(r)) for r in np.linspace(0.5, 7, 10)]
    p, n = 0.85, 20_000
    rule = fixed_accuracy_rule(clean, poisoned, p=p, q=0.0, seed=7)
    tol = 3.0 * np.sqrt(p * (1 - p) / n)
    for sigma, ceiling in sweep_sigma(clean, poisoned, p, np.linspace(0, 1, 11), gs):
        measured = simulate_accuracy(clean, poisoned, sigma, rule, n, seed=8)
        assert measured <= ceiling + tol


def test_component_vs_mixture_statistics_agree():
    # estimating from the composed mixture instead of the raw components
    # moves the ceiling by at most sampling noise
    rng = np.random.default_rng(9)
    clean_rows, poisoned_rows = rng.normal(size=(400, 2)), rng.normal(size=(400, 2)) + 3.0
    clean, poisoned = SampleSet(clean_rows), SampleSet(poisoned_rows)
    gs = [RadiusIndicator(float(r)) for r in np.linspace(0.5, 6, 8)]
    p = 0.9
    for sigma in (0.0, 0.3, 0.7, 1.0):
        mixture = mixture_samples(clean_rows, poisoned_rows, sigma, 50_000, seed=10)
        via_mixture = sweep_sigma(clean, mixture, p, [0.0], gs, q=0.0)[0][1]
        via_components = sweep_sigma(clean, poisoned, p, [sigma], gs)[0][1]
        assert via_mixture == pytest.approx(via_components, abs=0.02)


def test_mixture_counts(worked_mix):
    # floor(0.61 * 100) = 61 clean draws, all right; 39 poisoned draws, all wrong
    clean, poisoned, _ = worked_mix
    rule = fixed_accuracy_rule(clean, poisoned, 1.0, 0.0)
    assert simulate_accuracy(clean, poisoned, 0.61, rule, 100, seed=0) == 0.61
    assert sweep_sigma(clean, poisoned, 1.0, [1.0], [RadiusIndicator(0.5)])[0][1] == 1.0


def test_fixed_accuracy_rule_exact_fractions(rng):
    clean = SampleSet(rng.normal(size=(40, 2)))
    poisoned = SampleSet(rng.normal(size=(60, 2)) + 5.0)
    clean_right, poisoned_right = fixed_accuracy_rule(clean, poisoned, p=0.75, q=0.25, seed=4)
    assert np.count_nonzero(clean_right) == 30
    assert np.count_nonzero(poisoned_right) == 15


def test_validation(worked_mix):
    clean, poisoned, gs = worked_mix
    with pytest.raises(InputError):
        sweep_sigma(clean, poisoned, 1.2, [0.0], gs, q=0.0)
    with pytest.raises(InputError):
        sweep_sigma(clean, poisoned, 0.9, [-0.1], gs)
    with pytest.raises(InputError):
        simulate_accuracy(clean, poisoned, 0.5, fixed_accuracy_rule(clean, poisoned, 0.9, 0.1), 0)


def test_negative_seed_is_input_error(worked_mix):
    clean, poisoned, _ = worked_mix
    rule = fixed_accuracy_rule(clean, poisoned, 0.9, 0.1)
    for call in (lambda: fixed_accuracy_rule(clean, poisoned, 0.9, 0.1, seed=-1),
                 lambda: simulate_accuracy(clean, poisoned, 0.5, rule, 10, seed=-1)):
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            call()


@given(st.data(), st.integers(1, 3), st.sampled_from(ALL_NORMS))
@settings(max_examples=150, deadline=None)
def test_ceilings_and_raw_bound_equal_retired_forms(data, d, kind):
    clean = SampleSet(data.draw(repeated_rows(d)), kind)
    poisoned = SampleSet(data.draw(repeated_rows(d)), kind)
    gs = [RadiusIndicator(r, kind) for r in radii_on_norms(data, clean, poisoned)]
    sigmas = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)) + [0.0, 1.0]
    p, q = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0))
    report = compute_bound(clean, poisoned, gs)
    separations, best_index, raw = retired_bound_terms(report)
    assert [c.separation for c in report.conditions] == separations
    assert (report.best_index, report.raw_bound) == (best_index, raw)
    assert sweep_sigma(clean, poisoned, p, [0.0], gs, q=q)[0][1] == (p - q) * raw + q
    for sigma in sigmas:
        want = retired_mixture_bound(report, sigma)
        assert sweep_sigma(clean, poisoned, 1.0, [sigma], gs)[0][1] == want
        assert sweep_sigma(clean, poisoned, p, [sigma], gs)[0][1] == p * want
    assert sweep_sigma(clean, poisoned, p, sigmas, gs, q=q) == [
        (s, (p - q) * retired_mixture_bound(report, s) + q) for s in sigmas
    ]


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40), st.integers(1, 3),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_simulator_equals_by_value_simulator_on_distinct_rows(seed, n_clean, n_pois, d, p, q,
                                                              sigma, n_samples):
    rng = np.random.default_rng(seed)
    clean_rows, poisoned_rows = rng.normal(size=(n_clean, d)), rng.normal(size=(n_pois, d)) + 3.0
    clean, poisoned = SampleSet(clean_rows), SampleSet(poisoned_rows)
    assert len({r.tobytes() for r in np.vstack([clean_rows, poisoned_rows])}) == n_clean + n_pois
    rule = fixed_accuracy_rule(clean, poisoned, p, q, seed=seed)
    by_value = value_rule(clean_rows, poisoned_rows, p, q, seed=seed)
    assert rule[0].tolist() == [by_value(x) for x in clean_rows]
    assert rule[1].tolist() == [by_value(x) for x in poisoned_rows]
    measured = simulate_accuracy(clean, poisoned, sigma, rule, n_samples, seed=seed + 1)
    assert measured == simulate_by_value(clean_rows, poisoned_rows, sigma, by_value, n_samples,
                                         seed=seed + 1)


@given(st.data(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.integers(1, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_rule_marks_row_indices_on_repeated_rows(data, p, q, sigma, n_samples, seed):
    d = data.draw(st.integers(1, 3))
    clean = SampleSet(data.draw(repeated_rows(d)))
    poisoned = SampleSet(data.draw(repeated_rows(d)))
    clean_right, poisoned_right = fixed_accuracy_rule(clean, poisoned, p, q, seed=seed)
    assert np.count_nonzero(clean_right) == round(p * len(clean))
    assert np.count_nonzero(poisoned_right) == round(q * len(poisoned))
    assert not clean_right.flags.writeable and not poisoned_right.flags.writeable
    clean_rows, poisoned_rows = mixture_row_indices(len(clean), len(poisoned), sigma, n_samples, seed)
    marked = np.count_nonzero(clean_right[clean_rows]) + np.count_nonzero(poisoned_right[poisoned_rows])
    rule = (clean_right, poisoned_right)
    assert simulate_accuracy(clean, poisoned, sigma, rule, n_samples, seed=seed) == marked / n_samples


def test_repeated_rows_measure_the_marked_fraction():
    # ten distinct rows, each repeated ten times: half the row indices are right
    rows = np.repeat(np.arange(10.0).reshape(-1, 1), 10, axis=0)
    clean, poisoned = SampleSet(rows), SampleSet(rows + 100.0)
    rule = fixed_accuracy_rule(clean, poisoned, p=0.5, q=0.0, seed=0)
    assert simulate_accuracy(clean, poisoned, 1.0, rule, 20_000, seed=1) == pytest.approx(0.5, abs=0.02)


def test_simulator_rejects_masks_of_other_sets(worked_mix):
    clean, poisoned, _ = worked_mix
    rule = fixed_accuracy_rule(poisoned, clean, p=1.0, q=0.0)
    with pytest.raises(InputError, match="masks"):
        simulate_accuracy(clean, poisoned, 0.5, rule, 10)


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40), st.integers(1, 3),
       st.floats(0.0, 1.0), st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_the_simulator_reads_rows_as_compute_bound_does(seed, n_clean, n_pois, d, sigma, n_samples):
    rng = np.random.default_rng(seed)
    clean, poisoned = rng.normal(size=(n_clean, d)), rng.normal(size=(n_pois, d)) + 3.0
    rule = fixed_accuracy_rule(clean, poisoned, 0.8, 0.3, seed=seed)
    want = simulate_accuracy(SampleSet(clean), SampleSet(poisoned), sigma, rule, n_samples, seed=seed)
    assert simulate_accuracy(clean, poisoned, sigma, rule, n_samples, seed=seed) == want
    assert simulate_accuracy(clean.tolist(), SampleSet(poisoned), sigma, rule, n_samples,
                             seed=seed) == want


def test_the_simulator_refuses_rows_that_do_not_pair(rng):
    clean = rng.normal(size=(10, 2))
    rule = fixed_accuracy_rule(clean, clean, 0.5, 0.5)
    with pytest.raises(DimensionMismatchError, match="different dimensions: 2 vs 3"):
        simulate_accuracy(clean, rng.normal(size=(10, 3)), 0.5, rule, 10)
    with pytest.raises(InputError, match="masks"):
        simulate_accuracy(clean, clean[:4], 0.5, rule, 10)


@pytest.mark.parametrize("clean,poisoned,error,match", [
    (np.empty((0, 2)), np.ones((3, 5)), InputError, "nonempty"),
    (np.ones((3, 5)), np.ones((4, 2)), DimensionMismatchError, "different dimensions: 5 vs 2"),
    (np.ones(3), 2.0, InputError, "nonempty"),
], ids=["empty-side", "other-dimensions", "scalar-side"])
def test_the_rule_reads_rows_as_compute_bound_does(clean, poisoned, error, match):
    with pytest.raises(error, match=match):
        fixed_accuracy_rule(clean, poisoned, 0.5, 0.5)
