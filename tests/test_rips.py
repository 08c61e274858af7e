import math
import random

import numpy as np
import pytest

from oracles import brute_force_rips
from ripsph.core import validate_complex
from ripsph.errors import DimensionTooLarge, NotSquare
from ripsph.metrics import pairwise_distances
from ripsph.rips import RipsParams, build_rips, complex_at_scale

SQRT2 = math.sqrt(2.0)


def unit_square_matrix():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return pairwise_distances(pts)


def equilateral_matrix():
    m = np.ones((3, 3)) - np.eye(3)
    return m


class TestBuildRips:
    def test_no_edges_below_threshold(self):
        f = build_rips(equilateral_matrix(), RipsParams(1, 0.5))
        assert len(f) == 3
        assert all(s.dimension == 0 for s, _ in f)

    def test_equilateral_at_threshold_one(self):
        f = build_rips(equilateral_matrix(), RipsParams(1, 1.0))
        assert len(f) == 7  # 3 vertices, 3 edges, 1 triangle
        by_dim = {}
        for s, scale in f:
            by_dim.setdefault(s.dimension, []).append(scale)
        assert by_dim[0] == [0.0] * 3
        assert by_dim[1] == [1.0] * 3
        assert by_dim[2] == [1.0]

    def test_unit_square_full_skeleton(self):
        f = build_rips(unit_square_matrix(), RipsParams(2, 2.0))
        scales = {}
        for s, scale in f:
            scales.setdefault(s.dimension, []).append(scale)
        assert scales[0] == [0.0] * 4
        assert sorted(scales[1]) == [1.0] * 4 + [SQRT2] * 2
        assert scales[2] == [SQRT2] * 4
        assert scales[3] == [SQRT2]

    def test_threshold_is_inclusive(self):
        f = build_rips(equilateral_matrix(), RipsParams(1, 1.0))
        assert any(s.dimension == 1 for s, _ in f)

    def test_dimension_too_large(self):
        with pytest.raises(DimensionTooLarge):
            build_rips(equilateral_matrix(), RipsParams(2, 1.0))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RipsParams(-1, 1.0)
        with pytest.raises(ValueError):
            RipsParams(1, -0.5)
        with pytest.raises(ValueError):
            RipsParams(1, math.nan)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(NotSquare):
            build_rips(np.zeros(shape), RipsParams(0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_rejects_bad_entry(self, bad):
        m = equilateral_matrix()
        m[0, 2] = m[2, 0] = bad
        with pytest.raises(ValueError, match=r"\(0,2\)"):
            build_rips(m, RipsParams(1, 2.0))

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 8)
            pts = np.array([[rng.uniform(0, 1) for _ in range(2)]
                            for _ in range(n)])
            m = pairwise_distances(pts)
            threshold = rng.uniform(0.1, 1.5)
            max_dim = rng.randint(0, n - 2)
            f = build_rips(m, RipsParams(max_dim, threshold))
            expected = brute_force_rips(m, threshold, max_dim + 2)
            got = sorted((s.vertices, scale) for s, scale in f)
            assert got == sorted(expected)

    def test_filtration_is_monotone(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(size=(9, 3))
        f = build_rips(pairwise_distances(pts), RipsParams(2, 1.0))
        assert f.validate() == []


class TestComplexAtScale:
    def test_scale_zero_is_vertex_set(self):
        f = build_rips(unit_square_matrix(), RipsParams(2, 2.0))
        c = complex_at_scale(f, 0.0)
        assert c.counts() == [4]

    def test_square_at_scale_one_is_loop(self):
        f = build_rips(unit_square_matrix(), RipsParams(2, 2.0))
        c = complex_at_scale(f, 1.0)
        assert c.counts() == [4, 4]
        assert validate_complex(c) == []

    def test_square_at_sqrt2_is_full_skeleton(self):
        f = build_rips(unit_square_matrix(), RipsParams(2, 2.0))
        c = complex_at_scale(f, SQRT2)
        assert c.counts() == [4, 6, 4, 1]

    def test_nesting(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(size=(8, 2))
        f = build_rips(pairwise_distances(pts), RipsParams(1, 2.0))
        scales = f.scales()
        for lo, hi in zip(scales, scales[1:]):
            small = complex_at_scale(f, lo).simplices
            large = complex_at_scale(f, hi).simplices
            assert small <= large

    def test_every_prefix_is_valid(self):
        rng = np.random.default_rng(29)
        pts = rng.uniform(size=(7, 2))
        f = build_rips(pairwise_distances(pts), RipsParams(2, 1.5))
        for s in f.scales():
            assert validate_complex(complex_at_scale(f, s)) == []

    def test_clique_consistency(self):
        # a simplex is present iff all of its edges are present
        rng = np.random.default_rng(31)
        pts = rng.uniform(size=(7, 2))
        m = pairwise_distances(pts)
        f = build_rips(m, RipsParams(2, 1.0))
        for s in f.scales():
            c = complex_at_scale(f, s)
            present = {x.vertices for x in c.simplices}
            import itertools
            for simplex in c.simplices:
                for u, v in itertools.combinations(simplex.vertices, 2):
                    assert (u, v) in present
