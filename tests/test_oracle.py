import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapbound import (
    ConditionFunction,
    DegenerateDomainError,
    DimensionMismatchError,
    DiscreteDistribution,
    InputError,
    JointSupport,
    NormKind,
    RadiusIndicator,
    indicator_bound,
    overlap,
    subset_bound,
    subset_variation,
    total_variation,
)
from conftest import ALL_NORMS, as_mass_dict, integer_count_pair, random_pair
from oracles import (
    brute_bound,
    brute_overlap,
    brute_subset_variation,
    brute_total_variation,
    expectation,
    indexed_joint_support,
    norm_of,
    per_call_subset_bound,
)


@pytest.fixture
def worked_pair():
    p = DiscreteDistribution([[0.2], [1.0]], [0.5, 0.5])
    q = DiscreteDistribution([[1.0]], [1.0])
    return p, q


def test_mean_is_fsum_of_weighted_points(rng):
    for _ in range(50):
        p, _ = random_pair(rng, max_points=64, max_dim=4)
        weighted = (p.points * p.masses[:, None]).T.tolist()
        want = np.array([math.fsum(col) for col in weighted])
        assert p.mean().tobytes() == want.tobytes()


def test_overlap_identical_and_disjoint():
    p = DiscreteDistribution([[0.0], [1.0]], [0.3, 0.7])
    assert overlap(p, p) == 1.0
    q = DiscreteDistribution([[2.0], [3.0]], [0.4, 0.6])
    assert overlap(p, q) == 0.0
    assert total_variation(p, p) == 0.0
    assert total_variation(p, q) == 1.0


def test_worked_pair_values(worked_pair):
    p, q = worked_pair
    assert overlap(p, q) == 0.5
    assert total_variation(p, q) == 0.5
    joint = JointSupport.of(p, q)
    assert subset_variation(joint, RadiusIndicator(0.5)) == 0.25
    # empty and full subsets
    assert subset_variation(joint, np.zeros(2, dtype=bool)) == 0.0
    assert subset_variation(joint, np.ones(2, dtype=bool)) == total_variation(p, q)


def test_worked_pair_bounds(worked_pair):
    p, q = worked_pair
    ball = RadiusIndicator(0.5)
    assert subset_bound(JointSupport.of(p, q), ball, use_domain_radius=True) == pytest.approx(0.6, abs=1e-12)
    assert indicator_bound(p, q, [ball]) == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda p, q: indicator_bound(p, q, [RadiusIndicator(0.5)], joint=JointSupport.of(q, q)),
    lambda p, q: indicator_bound(p, q, [RadiusIndicator(0.5)], support_norms=np.ones(2)),
    lambda p, q: subset_bound(JointSupport.of(p, q), RadiusIndicator(0.5), support_norms=np.ones(2)),
])
def test_the_bounds_build_their_own_joint_and_support_norms(worked_pair, call):
    # a joint or norms built elsewhere may belong to other distributions, and
    # would give a silently wrong bound
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call(*worked_pair)


def test_bounds_are_one_for_identical():
    p = DiscreteDistribution([[0.5, 0.5], [1.0, 0.0]], [0.25, 0.75])
    assert subset_bound(JointSupport.of(p, p), RadiusIndicator(0.7)) == pytest.approx(1.0, abs=1e-15)
    assert indicator_bound(p, p, [RadiusIndicator(0.7)]) == pytest.approx(1.0, abs=1e-15)


def test_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p, q = random_pair(rng)
        dp, dq = as_mass_dict(p), as_mass_dict(q)
        assert overlap(p, q) == pytest.approx(brute_overlap(dp, dq), abs=1e-12)
        assert total_variation(p, q) == pytest.approx(brute_total_variation(dp, dq), abs=1e-12)
        r = float(rng.uniform(0, 2.5))
        got = subset_variation(JointSupport.of(p, q), RadiusIndicator(r))
        want = brute_subset_variation(dp, dq, lambda k: math.sqrt(sum(v * v for v in k)) <= r)
        assert got == pytest.approx(want, abs=1e-12)


def test_symmetry_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p, q = random_pair(rng)
        assert overlap(p, q) == pytest.approx(overlap(q, p), abs=1e-15)
        assert total_variation(p, q) == pytest.approx(total_variation(q, p), abs=1e-15)


def test_partition_identity_on_random_pairs():
    # overlap == 1 - variation(A) - variation(complement) for any partition
    rng = np.random.default_rng(13)
    for _ in range(100):
        p, q = random_pair(rng)
        joint = JointSupport.of(p, q)
        m = joint.points.shape[0]
        mask = rng.random(m) < 0.5
        lhs = overlap(p, q)
        rhs = 1.0 - subset_variation(joint, mask) - subset_variation(joint, ~mask)
        assert abs(lhs - rhs) <= 1e-12


def test_subset_bound_dominates_overlap_everywhere():
    rng = np.random.default_rng(17)
    for trial in range(150):
        p, q = random_pair(rng)
        kind = ALL_NORMS[trial % 3]
        eta = overlap(p, q)
        joint = JointSupport.of(p, q)
        m = joint.points.shape[0]
        mask = rng.random(m) < rng.uniform(0.2, 0.8)
        assert subset_bound(joint, mask, kind, use_domain_radius=True) >= eta - 1e-12
        # the complement-radius form needs a nonempty complement off the origin
        comp = joint.points[~mask]
        if comp.shape[0] and np.abs(comp).max() > 0:
            assert subset_bound(joint, mask, kind, use_domain_radius=False) >= eta - 1e-12


def test_indicator_bound_dominates_overlap_everywhere():
    rng = np.random.default_rng(19)
    for trial in range(150):
        p, q = random_pair(rng)
        kind = ALL_NORMS[trial % 3]
        radii = sorted(rng.uniform(0, 3, size=int(rng.integers(1, 6))))
        conditions = [RadiusIndicator(float(r), kind) for r in radii]
        assert indicator_bound(p, q, conditions, kind) >= overlap(p, q) - 1e-12


class _FirstCoordinateAtMost(ConditionFunction):
    def __init__(self, t: float):
        self.t, self.label = t, f"x0<={t!r}"

    def evaluate_many(self, points):
        return np.asarray(points)[:, 0] <= self.t


def test_indicator_bound_on_conditions_that_are_not_balls_in_its_norm_equals_brute_force(rng):
    # a ball in another norm and a half-space are evaluated on the support
    # points; replicating each point by its count gives the brute-force samples
    for trial in range(60):
        p, q, rep_p, rep_q = integer_count_pair(rng)
        kind, other = ALL_NORMS[trial % 3], ALL_NORMS[(trial + 1) % 3]
        r, t = float(rng.uniform(0.0, 3.0)), float(rng.uniform(-2.0, 2.0))
        conditions = [RadiusIndicator(r, other), _FirstCoordinateAtMost(t)]
        brute = [lambda x: norm_of(x, other.value) <= r, lambda x: x[0] <= t]
        want = brute_bound([tuple(x) for x in rep_p.tolist()], [tuple(x) for x in rep_q.tolist()],
                           brute, kind.value)
        assert indicator_bound(p, q, conditions, kind) == pytest.approx(want, abs=1e-12)


def test_rate_gap_never_exceeds_subset_variation():
    # |E_p[g] - E_q[g]| / 2 is a valid lower bound for the restricted variation
    rng = np.random.default_rng(23)
    for trial in range(100):
        p, q = random_pair(rng)
        kind = ALL_NORMS[trial % 3]
        g = RadiusIndicator(float(rng.uniform(0, 2.5)), kind)
        rate_gap = abs(expectation(p, g) - expectation(q, g))
        assert subset_variation(JointSupport.of(p, q), g) >= 0.5 * rate_gap - 1e-12


def test_degenerate_origin_point_mass():
    p = DiscreteDistribution([[0.0, 0.0]], [1.0])
    with pytest.raises(DegenerateDomainError):
        subset_bound(JointSupport.of(p, p), RadiusIndicator(1.0))
    with pytest.raises(DegenerateDomainError):
        indicator_bound(p, p, [RadiusIndicator(1.0)])


def test_bounds_near_float64_max_equal_the_scaled_ones():
    # 2 * r overflows here; the bounds must equal those of the data * 1e-308
    p = DiscreteDistribution([[1.7e308], [0.0]], [0.5, 0.5])
    q = DiscreteDistribution([[1e308], [0.0]], [0.5, 0.5])
    ball = [RadiusIndicator(1.5e308, NormKind.LINF)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        joint = JointSupport.of(p, q)
        got = (indicator_bound(p, q, ball, NormKind.LINF),
               subset_bound(joint, ball[0], NormKind.LINF, use_domain_radius=True),
               subset_bound(joint, ball[0], NormKind.LINF, use_domain_radius=False))
    assert got == (0.7941176470588236,) * 3
    p = DiscreteDistribution([[1.7], [0.0]], [0.5, 0.5])
    q = DiscreteDistribution([[1.0], [0.0]], [0.5, 0.5])
    assert indicator_bound(p, q, [RadiusIndicator(1.5, NormKind.LINF)], NormKind.LINF) == got[0]


@pytest.mark.parametrize("p_points, p_mass, q_points, kind, message", [
    ([[1.7e308]], 1.0, [[-1.7e308]], NormKind.LINF, "gap between the distribution means overflows"),
    ([[1e200, 1e200]], 1.0, [[0.0, 0.0]], NormKind.L2, "support l2 norms overflow"),
    ([[1.7e308, 1.7e308]], 1.0, [[0.0, 0.0]], NormKind.L1, "support l1 norms overflow"),
    # a mass within MASS_TOLERANCE above 1 times the largest float64
    ([[1.7976931348623157e308]], 1.0000000000000002, [[0.0]], NormKind.LINF,
     "mass-weighted support points overflow"),
])
def test_oracle_overflow_is_input_error(p_points, p_mass, q_points, kind, message):
    p = DiscreteDistribution(p_points, [p_mass])
    q = DiscreteDistribution(q_points, [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: indicator_bound(p, q, [RadiusIndicator(1.0, kind)], kind),
                     lambda: subset_bound(JointSupport.of(p, q), RadiusIndicator(1.0, kind), kind)):
            with pytest.raises(InputError, match=message):
                call()


@pytest.mark.parametrize("dimension", [float("inf"), 2.5, 1.0, True, 0, -1, "1", None])
def test_distribution_dimension_must_be_a_positive_int(dimension):
    doc = {"dimension": dimension, "points": [[1.0]], "masses": [1.0]}
    with pytest.raises(InputError, match="'dimension' must be an integer >= 1"):
        DiscreteDistribution.from_json_dict(doc)


def test_validation_errors():
    with pytest.raises(InputError):
        DiscreteDistribution([[0.0], [1.0]], [0.5, 0.6])  # masses sum to 1.1
    with pytest.raises(InputError, match="masses must sum to 1 within 1e-12, got inf"):
        DiscreteDistribution([[0.0], [1.0]], [1e308, 1e308])  # the sum overflows float64
    with pytest.raises(InputError):
        DiscreteDistribution([[0.0], [0.0]], [0.5, 0.5])  # duplicate support
    with pytest.raises(InputError):
        DiscreteDistribution([[0.0]], [-1.0])
    p = DiscreteDistribution([[0.0]], [1.0])
    q = DiscreteDistribution([[0.0, 0.0]], [1.0])
    with pytest.raises(DimensionMismatchError):
        overlap(p, q)
    with pytest.raises(InputError):
        indicator_bound(p, p, [])


def test_membership_takes_a_condition_or_a_boolean_mask(worked_pair):
    p, q = worked_pair
    joint = JointSupport.of(p, q)
    # joint support order: p's points first
    assert joint.membership(RadiusIndicator(0.5)).tolist() == [True, False]
    assert subset_variation(joint, np.array([True, False])) == 0.25
    for other in ([0], (0,), lambda pt: abs(pt[0]) <= 0.5, np.array([1, 0]), "0"):
        with pytest.raises(InputError, match="condition function or a boolean mask"):
            joint.membership(other)
    with pytest.raises(InputError, match="mask has shape"):
        joint.membership(np.ones(3, dtype=bool))


# hypothesis strategies: small distributions over a shared coordinate grid so
# supports can overlap; the last mass absorbs the rounding residue so the
# mass-sum invariant holds to float addition error


@st.composite
def distribution_pairs(draw):
    dim = draw(st.integers(1, 2))
    grid = [-1.5, -0.5, 0.0, 0.75, 1.25, 2.0]
    pool = draw(
        st.lists(
            st.tuples(*[st.sampled_from(grid) for _ in range(dim)]),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )

    def one_side():
        size = draw(st.integers(1, len(pool)))
        points = pool[:size]
        weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
        total = sum(weights)
        masses = [w / total for w in weights]
        masses[-1] = 1.0 - math.fsum(masses[:-1])
        return DiscreteDistribution(np.array(points, dtype=float), masses)

    return one_side(), one_side()


def _signed_zero(dist: DiscreteDistribution) -> DiscreteDistribution:
    """``dist`` with every zero coordinate made -0.0."""
    return DiscreteDistribution(np.where(dist.points == 0.0, -0.0, dist.points), dist.masses)


@given(distribution_pairs(), st.sampled_from(["none", "p", "q"]), st.randoms())
@example((DiscreteDistribution([[0.0, 1.0], [2.0, 0.0]], [0.5, 0.5]),
          DiscreteDistribution([[3.0, 0.0], [0.0, 1.0]], [0.25, 0.75])), "p", None)
@settings(max_examples=200, deadline=None)
def test_joint_support_of_equals_the_hand_indexed_form(pair, signed, random):
    """Bitwise: p's points first, then q's others; a point on both sides keeps
    p's coordinates, so p's -0.0 wins over q's 0.0 and p's 0.0 over q's -0.0."""
    p, q = pair
    if random is not None:  # q's points in any order, so those p lacks fall among the others
        order = list(range(len(q.masses)))
        random.shuffle(order)
        q = DiscreteDistribution(q.points[order], q.masses[order])
    if signed == "p":
        p = _signed_zero(p)
    elif signed == "q":
        q = _signed_zero(q)
    got, want = JointSupport.of(p, q), indexed_joint_support(p, q)
    for name in ("points", "p_masses", "q_masses", "p_mean", "q_mean"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name


@given(st.data(), st.integers(1, 8), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_a_joint_built_from_three_arrays_derives_the_exact_means(data, m, d):
    coords = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-300, -1e300])
    points = np.array(data.draw(st.lists(st.tuples(*[coords] * d), min_size=m, max_size=m,
                                         unique=True)))
    weights = st.lists(st.integers(0, 9), min_size=m, max_size=m).filter(any)
    p_mass, q_mass = (np.array(data.draw(weights), dtype=float) for _ in range(2))
    p_mass, q_mass = p_mass / p_mass.sum(), q_mass / q_mass.sum()
    joint = JointSupport(points, p_mass, q_mass)
    assert joint.p_mean.tobytes() == DiscreteDistribution(points, p_mass).mean().tobytes()
    assert joint.q_mean.tobytes() == DiscreteDistribution(points, q_mass).mean().tobytes()


@pytest.mark.parametrize("points, p_masses, q_masses, message", [
    ([1.0, 2.0], [0.5, 0.5], [1.0, 0.0], "expected a nonempty (m, d) support array, got shape (2,)"),
    (np.zeros((0, 2)), [], [], "expected a nonempty (m, d) support array, got shape (0, 2)"),
    ([[[1.0]]], [1.0], [1.0], "expected a nonempty (m, d) support array, got shape (1, 1, 1)"),
    ([[1.0], [2.0]], [0.5, 0.5], [1.0],
     "q_masses must be 1-D with one entry per support point (2), got shape (1,)"),
    ([[1.0], [2.0]], [[0.5, 0.5]], [1.0, 0.0],
     "p_masses must be 1-D with one entry per support point (2), got shape (1, 2)"),
    ([[1.0], [2.0]], 1.0, [1.0, 0.0],
     "p_masses must be 1-D with one entry per support point (2), got shape ()"),
])
def test_joint_support_shapes_are_checked(points, p_masses, q_masses, message):
    with pytest.raises(InputError) as err:
        JointSupport(points, p_masses, q_masses)
    assert str(err.value) == message


@given(distribution_pairs(), st.data())
@settings(max_examples=150, deadline=None)
def test_partition_identity_property(pair, data):
    p, q = pair
    joint = JointSupport.of(p, q)
    m = joint.points.shape[0]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    lhs = overlap(p, q)
    rhs = 1.0 - subset_variation(joint, mask) - subset_variation(joint, ~mask)
    assert abs(lhs - rhs) <= 1e-12


@given(distribution_pairs(), st.floats(0.0, 3.0), st.sampled_from(ALL_NORMS))
@settings(max_examples=150, deadline=None)
def test_indicator_bound_dominates_property(pair, radius, kind):
    p, q = pair
    try:
        bound = indicator_bound(p, q, [RadiusIndicator(radius, kind)], kind)
    except DegenerateDomainError:
        # whole support at the origin: both sides are the same point mass
        assert overlap(p, q) == 1.0
        return
    assert bound >= overlap(p, q) - 1e-12


@given(distribution_pairs(), st.data(), st.sampled_from(ALL_NORMS), st.booleans())
@settings(max_examples=200, deadline=None)
def test_subset_bound_on_a_shared_joint_equals_the_per_call_form(pair, data, kind, use_domain):
    p, q = pair
    joint = JointSupport.of(p, q)
    assert joint.p_mean.tobytes() == p.mean().tobytes()
    assert joint.q_mean.tobytes() == q.mean().tobytes()
    m = joint.points.shape[0]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    for subset in (mask, RadiusIndicator(data.draw(st.floats(0.0, 3.0)), kind)):
        try:
            want = per_call_subset_bound(p, q, subset, kind, use_domain)
        except DegenerateDomainError:
            with pytest.raises(DegenerateDomainError):
                subset_bound(joint, subset, kind, use_domain)
            continue
        assert subset_bound(joint, subset, kind, use_domain) == want


def test_one_dimensional_points_are_a_column():
    column = DiscreteDistribution([[0.0], [2.0], [-1.0]], [0.5, 0.25, 0.25])
    for d in (DiscreteDistribution([0.0, 2.0, -1.0], [0.5, 0.25, 0.25]),
              DiscreteDistribution.from_json_dict(
                  {"dimension": 1, "points": [0.0, 2.0, -1.0], "masses": [0.5, 0.25, 0.25]})):
        assert d.dimension == 1
        assert d.points.tobytes() == column.points.tobytes()
        assert d.mean().tobytes() == column.mean().tobytes()


def test_json_round_trip(tmp_path):
    doc = {"dimension": 2, "points": [[0.0, 1.0], [1.0, 0.0]], "masses": [0.25, 0.75]}
    path = tmp_path / "dist.json"
    import json

    path.write_text(json.dumps(doc))
    d = DiscreteDistribution.from_json_file(path)
    assert d.dimension == 2
    assert d.masses.tolist() == [0.25, 0.75]
    with pytest.raises(InputError):
        DiscreteDistribution.from_json_dict({"points": [[0.0]]})
