import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from oracles import exhaustive_bottleneck, exhaustive_wasserstein
from ripsph.core import PersistenceDiagram, PersistencePair
from ripsph.distances import _covers, bottleneck_distance, wasserstein_distance
from ripsph.metrics import pairwise_distances
from ripsph.persistence import persistence_diagram
from ripsph.rips import RipsParams, build_rips


def diagram(points, dim=1, essentials=()):
    pairs = [PersistencePair(dim, b, d) for b, d in points]
    pairs += [PersistencePair(dim, b) for b in essentials]
    return PersistenceDiagram(pairs)


def random_diagram(rng, max_points=5, dim=1, allow_essential=True):
    points = []
    for _ in range(rng.randint(0, max_points)):
        b = rng.uniform(0, 2)
        points.append((b, b + rng.uniform(0, 2)))
    essentials = []
    if allow_essential and rng.random() < 0.3:
        essentials = [rng.uniform(0, 2) for _ in range(rng.randint(1, 2))]
    return diagram(points, dim=dim, essentials=essentials)


class TestBottleneck:
    def test_identity(self):
        d = diagram([(0.0, 4.0), (1.0, 2.0)], essentials=[0.5])
        assert bottleneck_distance(d, d, 1) == 0.0

    def test_single_point_vs_empty(self):
        assert bottleneck_distance(diagram([(1.0, 3.0)]), diagram([]), 1) == 1.0

    def test_direct_match_beats_diagonal(self):
        a = diagram([(0.0, 4.0)])
        b = diagram([(0.0, 5.0)])
        assert bottleneck_distance(a, b, 1) == 1.0

    def test_mismatched_essentials_give_inf(self):
        a = diagram([], essentials=[0.0])
        b = diagram([])
        assert math.isinf(bottleneck_distance(a, b, 1))

    @pytest.mark.parametrize("dist", [bottleneck_distance, wasserstein_distance],
                             ids=["bottleneck", "wasserstein"])
    def test_essential_births_compared(self, dist):
        a = diagram([], essentials=[0.0])
        b = diagram([], essentials=[0.75])
        assert dist(a, b, 1) == 0.75

    @pytest.mark.parametrize("dist", [bottleneck_distance, wasserstein_distance],
                             ids=["bottleneck", "wasserstein"])
    def test_other_dimension_ignored(self, dist):
        a = diagram([(0.0, 4.0)], dim=0)
        b = diagram([], dim=0)
        assert dist(a, b, 1) == 0.0

    def test_thousand_points_exact(self):
        # every point moves its death by 0.25, far below any diagonal cost
        a = diagram([(10.0 * i, 10.0 * i + 5) for i in range(1000)])
        b = diagram([(10.0 * i, 10.0 * i + 5 + 0.25) for i in range(1000)])
        assert bottleneck_distance(a, b, 1) == 0.25


class TestWasserstein:
    def test_identity(self):
        d = diagram([(0.0, 4.0), (1.0, 2.0)])
        assert wasserstein_distance(d, d, 1) == 0.0

    def test_single_point_vs_empty(self):
        assert wasserstein_distance(diagram([(1.0, 3.0)]), diagram([]), 1) == 1.0

    def test_one_match_one_diagonal(self):
        a = diagram([(0.0, 2.0), (0.0, 4.0)])
        b = diagram([(0.0, 2.0)])
        assert wasserstein_distance(a, b, 1) == pytest.approx(2.0, abs=1e-12)

    def test_mismatched_essentials_give_inf(self):
        a = diagram([], essentials=[0.0, 1.0])
        b = diagram([], essentials=[0.0])
        assert math.isinf(wasserstein_distance(a, b, 1))

    def test_thousand_points_exact(self):
        # every point moves its death by 0.25, far below any diagonal cost
        a = diagram([(10.0 * i, 10.0 * i + 5) for i in range(1000)])
        b = diagram([(10.0 * i, 10.0 * i + 5 + 0.25) for i in range(1000)])
        assert wasserstein_distance(a, b, 1) == 250.0


class TestFloatRange:
    """Diagrams at the top of the float range: a difference overflows though
    its half fits, a saving overflows, and a sum passes the range. Each
    distance is its exact value, rounded, with no warning."""

    C = [(-1e308, 1e308)]
    D = [(1e308, 1e308)]

    @pytest.mark.parametrize("a, b, dist, expected", [
        ([(0.0, 1.6e308)] * 3, [], wasserstein_distance, math.inf),
        ([(0.0, 1.6e308)] * 3, [], bottleneck_distance, 8e307),
        (C, C, wasserstein_distance, 0.0),
        (C, C, bottleneck_distance, 0.0),
        (C, D, bottleneck_distance, 1e308),
        (C, D, wasserstein_distance, 1e308),
    ], ids=["sum past the range", "largest half", "saving overflows",
            "difference overflows", "half fits", "linf overflows"])
    def test_exact_value(self, a, b, dist, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dist(diagram(a), diagram(b), 1) == expected
            assert dist(diagram(b), diagram(a), 1) == expected


def assert_matches_oracle(a, b, dim=1):
    fa = [(p.birth, p.death) for p in a.in_dimension(dim) if not p.is_essential]
    fb = [(p.birth, p.death) for p in b.in_dimension(dim) if not p.is_essential]
    ea = [p.birth for p in a.in_dimension(dim) if p.is_essential]
    eb = [p.birth for p in b.in_dimension(dim) if p.is_essential]
    expected_b = exhaustive_bottleneck(fa, fb, ea, eb)
    expected_w = exhaustive_wasserstein(fa, fb, ea, eb)
    got_b = bottleneck_distance(a, b, dim)
    got_w = wasserstein_distance(a, b, dim)
    if math.isinf(expected_b):
        assert math.isinf(got_b) and math.isinf(got_w)
    else:
        assert got_b == expected_b  # candidate-set search is exact
        assert got_w == pytest.approx(expected_w, abs=1e-9)


def integer_diagram(rng, max_points=5, span=4):
    points = []
    for _ in range(rng.randint(0, max_points)):
        b = rng.randint(0, span)
        points.append((float(b), float(b + rng.randint(0, span))))
    return diagram(points)


class TestOracleEquivalence:
    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(61)
        for _ in range(100):
            assert_matches_oracle(random_diagram(rng), random_diagram(rng))

    def test_integer_costs_tie_the_diagonal(self):
        """Half-persistences and L-infinity distances share values, so a
        point's diagonal cost is often exactly the radius being tested."""
        rng = random.Random(73)
        for _ in range(150):
            assert_matches_oracle(integer_diagram(rng), integer_diagram(rng))
        # far means strictly beyond the radius: (0, 2) may take the
        # diagonal at radius 1, while (5, 9) at distance 7 cannot be used
        assert bottleneck_distance(diagram([(0.0, 2.0)]),
                                   diagram([(5.0, 9.0)]), 1) == 2.0

    def test_duplicated_points(self):
        rng = random.Random(79)
        for _ in range(60):
            base = integer_diagram(rng, max_points=3)
            points = [(p.birth, p.death) for p in base.pairs]
            a = diagram(points + points[:rng.randint(0, len(points))])
            b = integer_diagram(rng, max_points=4)
            assert_matches_oracle(a, b)
        assert_matches_oracle(diagram([(0.0, 4.0)] * 3),
                              diagram([(1.0, 4.0)] * 2 + [(0.0, 3.0)]))

    def test_zero_persistence_points(self):
        rng = random.Random(83)
        for _ in range(60):
            a = random_diagram(rng, max_points=3, allow_essential=False)
            b = random_diagram(rng, max_points=3, allow_essential=False)
            flat = [(x, x) for x in (rng.uniform(0, 2), 1.0, 1.0)]
            assert_matches_oracle(
                diagram([(p.birth, p.death) for p in a.pairs] + flat[:2]),
                diagram([(p.birth, p.death) for p in b.pairs] + flat[1:]))
        assert bottleneck_distance(diagram([(1.0, 1.0)] * 3), diagram([]), 1) == 0.0

    def test_one_side_empty(self):
        rng = random.Random(89)
        for _ in range(40):
            a = random_diagram(rng, max_points=6)
            empty = diagram([], essentials=[p.birth for p in a.pairs
                                            if p.is_essential])
            assert_matches_oracle(a, empty)
            assert_matches_oracle(empty, a)

    def test_far_points_outnumber_other_side(self):
        """Four long-lived points against one or two: at every radius below
        their half-persistences (at least 1.5) all four are far, more rows
        than the other side has columns."""
        rng = random.Random(97)
        for _ in range(40):
            long_lived = [(b, b + rng.uniform(3, 5))
                          for b in (rng.uniform(0, 1) for _ in range(4))]
            few = [(b, b + rng.uniform(3, 5))
                   for b in (rng.uniform(0, 1) for _ in range(rng.randint(1, 2)))]
            assert_matches_oracle(diagram(long_lived), diagram(few))
            assert_matches_oracle(diagram(few), diagram(long_lived))


def augmented_cost(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Square (n+m) x (m+n) diagonal-augmented cost matrix: rows are the
    points of a then m diagonal slots, columns the points of b then n
    diagonal slots; a diagonal slot meets a diagonal slot at cost 0."""
    n, m = len(fa), len(fb)
    cost = np.zeros((n + m, m + n), dtype=np.float64)
    cost[:n, :m] = np.abs(fa[:, None, :] - fb[None, :, :]).max(axis=2)
    cost[:n, m:] = ((fa[:, 1] - fa[:, 0]) / 2.0)[:, None]
    cost[n:, :m] = (fb[:, 1] - fb[:, 0]) / 2.0
    return cost


def augmented_bottleneck(fa: np.ndarray, fb: np.ndarray) -> float:
    """The bisection over the full diagonal-augmented cost matrix: radius c
    is feasible iff the assignment on `cost > c` costs 0."""
    cost = augmented_cost(fa, fb)
    candidates = np.unique(cost)
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        over = cost > candidates[mid]
        rows, cols = linear_sum_assignment(over)
        if over[rows, cols].any():
            lo = mid + 1
        else:
            hi = mid
    return float(candidates[lo])


def augmented_wasserstein(fa: np.ndarray, fb: np.ndarray) -> float:
    """One assignment over the full diagonal-augmented cost matrix."""
    cost = augmented_cost(fa, fb)
    rows, cols = linear_sum_assignment(cost)
    return math.fsum(cost[rows, cols])


def jittered_pair(rng, n, integer=False):
    """Diagram a of n points and b, a jittered copy of a with a tenth of its
    points replaced by short-lived ones, so the optimal matching mixes
    point-to-point and point-to-diagonal moves. Integer pairs tie many
    costs."""
    if integer:
        birth = rng.integers(0, 12, n).astype(np.float64)
        death = birth + rng.integers(0, 8, n)
        b_birth = birth + rng.integers(-1, 2, n)
        b_death = np.maximum(death + rng.integers(-1, 2, n), b_birth)
    else:
        birth = rng.uniform(0.0, 1.0, n)
        death = birth + rng.uniform(0.05, 0.6, n)
        b_birth = birth + rng.normal(0.0, 0.02, n)
        b_death = np.maximum(death + rng.normal(0.0, 0.02, n), b_birth)
    swap = rng.choice(n, size=n // 10, replace=False)
    b_birth[swap] = birth[rng.permutation(swap)]
    b_death[swap] = b_birth[swap] + (rng.integers(0, 2, swap.size) if integer
                                     else rng.uniform(0.0, 0.1, swap.size))
    return np.column_stack([birth, death]), np.column_stack([b_birth, b_death])


class TestAugmentedDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_augmented_bisection(self, seed):
        rng = np.random.default_rng([seed, 10])
        fa, fb = jittered_pair(rng, int(rng.integers(50, 301)))
        a, b = diagram(fa.tolist()), diagram(fb.tolist())
        assert bottleneck_distance(a, b, 1) == augmented_bottleneck(fa, fb)
        assert wasserstein_distance(a, b, 1) == pytest.approx(
            augmented_wasserstein(fa, fb), abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_augmented_bisection_on_integer_ties(self, seed):
        rng = np.random.default_rng([seed, 11])
        fa, fb = jittered_pair(rng, int(rng.integers(50, 301)), integer=True)
        a, b = diagram(fa.tolist()), diagram(fb.tolist())
        assert bottleneck_distance(a, b, 1) == augmented_bottleneck(fa, fb)
        assert bottleneck_distance(b, a, 1) == augmented_bottleneck(fb, fa)
        assert wasserstein_distance(a, b, 1) == pytest.approx(
            augmented_wasserstein(fa, fb), abs=1e-9)


@st.composite
def integer_sides(draw):
    """Two diagrams' finite points (0 to 12 each, small integer births and
    persistences, so an L-infinity cost often equals the larger diagonal
    cost of its pair exactly, the edge of the bottleneck's pruning; some
    points repeated, some of zero persistence) and their essential births,
    the counts sometimes unequal."""
    point = st.tuples(st.integers(0, 6), st.integers(0, 4)).map(
        lambda t: (float(t[0]), float(t[0] + t[1])))
    sides = []
    for _ in range(2):
        points = draw(st.lists(point, max_size=12))
        if points:
            points += draw(st.lists(st.sampled_from(points), max_size=12 - len(points)))
        sides.append(np.array(points, np.float64).reshape(-1, 2))
    count = draw(st.integers(0, 2))
    essentials = [draw(st.lists(st.integers(0, 6).map(float), min_size=k, max_size=k))
                  for k in (count, count + draw(st.sampled_from([0, 0, 0, 1])))]
    return sides, essentials


class TestPrunedDifferential:
    @settings(max_examples=200, deadline=None)
    @given(integer_sides())
    def test_equals_augmented_bisection(self, drawn):
        """The bottleneck over the pairs that can matter equals the bisection
        over the whole diagonal-augmented matrix, in both orders."""
        (fa, fb), (ea, eb) = drawn
        a, b = diagram(fa.tolist(), essentials=ea), diagram(fb.tolist(), essentials=eb)
        if len(ea) != len(eb):
            expected = math.inf
        else:
            gaps = [abs(x - y) for x, y in zip(sorted(ea), sorted(eb))]
            expected = max(gaps + [augmented_bottleneck(fa, fb) if len(fa) + len(fb) else 0.0])
        assert bottleneck_distance(a, b, 1) == expected
        assert bottleneck_distance(b, a, 1) == expected


def narrow_h0_pair(rng, n):
    """Two H0-shaped diagrams of n points (birth 0, deaths drawn apart in
    [1, 1.2]): every pair costs less than both diagonal moves, so every
    pair can matter and the radii near the answer are dense."""
    return [np.column_stack((np.zeros(n), 1.0 + rng.uniform(0.0, 0.2, n)))
            for _ in range(2)]


@pytest.mark.parametrize("pair, bound", [(jittered_pair, 2.25), (narrow_h0_pair, 3.5)],
                         ids=["jittered", "narrow H0"])
def test_bottleneck_peak_memory(pair, bound):
    """On a 2,000-point pair the traced peak stays below a few n x m
    float64 blocks: the L-infinity block is built in place, and a radius
    adds at most its 0/1 matrix and either a sparse flow network or a dense
    assignment to it and the candidates. Measured: 2.01 and 3.25 blocks (a
    dense assignment at every radius over all the realised costs peaked at
    4.13 on both)."""
    fa, fb = pair(np.random.default_rng([0, 12]), 2000)
    a, b = diagram(fa.tolist()), diagram(fb.tolist())
    tracemalloc.start()
    try:
        bottleneck_distance(a, b, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 8 * len(fa) * len(fb)


def max_matching(ok: np.ndarray) -> int:
    """Size of a maximum matching within the 0/1 matrix ok, by one
    augmenting path per row."""
    owner = [-1] * ok.shape[1]

    def augment(r, seen):
        for c in np.flatnonzero(ok[r]):
            if c not in seen:
                seen.add(c)
                if owner[c] < 0 or augment(owner[c], seen):
                    owner[c] = r
                    return True
        return False

    return sum(augment(r, set()) for r in range(ok.shape[0]))


class TestCovers:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 16), st.integers(0, 16), st.sampled_from([0.05, 0.1, 0.2, 0.5, 0.9]),
           st.integers(0, 2**32 - 1))
    def test_equals_matching_size(self, n, m, density, seed):
        """Both ways of deciding a cover, the max flow on sparse matrices
        and the assignment on dense ones, agree with a maximum matching."""
        ok = np.random.default_rng(seed).random((n, m)) < density
        size = max_matching(ok)
        assert _covers(ok, 0) == (size == n)
        assert _covers(ok, 1) == (size == m)


class TestMetricAxioms:
    def test_symmetry_triangle_and_identity(self):
        rng = random.Random(67)
        diagrams = [random_diagram(rng, max_points=4, allow_essential=False)
                    for _ in range(12)]
        for dist in (bottleneck_distance, wasserstein_distance):
            for a in diagrams:
                assert dist(a, a, 1) == 0.0
            for a in diagrams:
                for b in diagrams:
                    assert dist(a, b, 1) == dist(b, a, 1)
            for a in diagrams[:6]:
                for b in diagrams[:6]:
                    for c in diagrams[:6]:
                        assert dist(a, c, 1) <= dist(a, b, 1) + dist(b, c, 1) + 1e-9

    def test_zero_iff_equal_multisets(self):
        a = diagram([(0.0, 1.0)])
        b = diagram([(0.0, 1.000001)])
        assert bottleneck_distance(a, b, 1) > 0.0
        assert wasserstein_distance(a, b, 1) > 0.0

    def test_bottleneck_below_wasserstein(self):
        rng = random.Random(71)
        for _ in range(50):
            a = random_diagram(rng)
            b = random_diagram(rng)
            w = wasserstein_distance(a, b, 1)
            bd = bottleneck_distance(a, b, 1)
            if math.isinf(w):
                assert math.isinf(bd)
            else:
                assert bd <= w + 1e-12


class TestStability:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 9),
           delta=st.floats(0.0, 0.3))
    def test_bottleneck_bounded_by_twice_displacement(self, seed, n, delta):
        """Moving each point by at most delta moves every pairwise distance,
        hence every diameter-convention scale, by at most 2 * delta."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        step = rng.normal(size=(n, 2))
        step *= delta * rng.uniform(0.0, 1.0, size=(n, 1)) / np.maximum(
            np.linalg.norm(step, axis=1, keepdims=True), 1e-12)
        params = RipsParams(1, math.inf)  # same complex on both sides
        da, db = (persistence_diagram(build_rips(pairwise_distances(p), params),
                                      max_dim=1) for p in (pts, pts + step))
        for dim in (0, 1):
            assert bottleneck_distance(da, db, dim) <= 2 * delta + 1e-9
