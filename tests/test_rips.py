import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_cloud
from oracles import brute_force_rips, naive_reduction_diagram, union_find_h0
from ripsph.core import (Filtration, PersistenceDiagram, PersistencePair,
                         Simplex, validate_complex)
from ripsph.errors import DimensionTooLarge, NotSquare
from ripsph.metrics import pairwise_distances
from ripsph.homology import betti_numbers
from ripsph.persistence import betti_at_scale, persistence_diagram
from ripsph import rips
from ripsph.rips import (RipsParams, _counts_and_betti, _Graph, build_rips,
                         cloud_persistence, complex_at_scale, enclosing_radius,
                         rips_persistence)

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
        # tied grids, a duplicated point, thresholds around the enclosing
        # radius and dimensions up to 3, since build_rips and
        # rips_persistence share one clique enumeration
        for seed in range(24):
            pts = seeded_cloud(seed, 4 + seed % 5, grid=seed % 2 == 1)
            if seed % 3 == 0:
                pts = np.vstack((pts, pts[-1:]))
            m = pairwise_distances(pts)
            max_dim = min(seed % 4, len(m) - 2)
            radius = enclosing_radius(m)
            for threshold in (0.5 * radius, radius, 1.5 * radius):
                f = build_rips(m, RipsParams(max_dim, threshold))
                expected = brute_force_rips(m, threshold, max_dim + 2)
                got = sorted((s.vertices, scale) for s, scale in f)
                assert got == sorted(expected), (seed, threshold)

    def test_reads_only_upper_triangle(self):
        for seed in range(12):
            m = pairwise_distances(seeded_cloud(seed, 8, grid=seed % 2 == 1))
            junk = np.array(m)
            lower = np.tril_indices(len(m), -1)
            junk[lower] = np.random.default_rng(seed).uniform(
                0.0, 2.0 * m.max(), len(lower[0]))
            params = RipsParams(2, enclosing_radius(m))
            assert build_rips(junk, params).entries == build_rips(m, params).entries

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


class TestCliqueCounts:
    """_counts_and_betti against the listed filtration, the static
    homology of its complex and the Betti numbers of the diagram it stands
    in for in ripsph validate, and the closure that lets validate print 0."""

    @staticmethod
    def cloud(kind):
        if kind == "duplicates":
            pts = seeded_cloud(43, 6)
            return np.concatenate([pts, pts[:3]])
        return seeded_cloud(43, 9, grid=kind == "grid")

    @pytest.mark.parametrize("kind", ["uniform", "grid", "duplicates"])
    @pytest.mark.parametrize("where", ["zero", "below", "at", "above", "inf"])
    def test_counts_match_listed_filtration(self, kind, where):
        m = pairwise_distances(self.cloud(kind))
        r = enclosing_radius(m)
        t = {"zero": 0.0, "below": float(np.nextafter(r, 0.0)), "at": r,
             "above": 1.5 * r, "inf": math.inf}[where]
        for k in range(4):
            f = build_rips(m, RipsParams(k, t))
            c = complex_at_scale(f, t)
            counts = c.counts() + [0] * (k + 2 - len(c.counts()))
            got, betti = _counts_and_betti(m, k, t)
            assert got == counts
            assert sum(counts) == len(f)
            assert validate_complex(c) == []
            assert betti == betti_numbers(c, k) == betti_at_scale(
                reference_diagram(m, k, t), t, max_dim=k)
            if where in ("at", "above", "inf"):  # a cone
                assert betti == (1,) + (0,) * k
            if where == "inf":  # every subset of at most k + 2 points
                n = len(m)
                assert got == [math.comb(n, j) for j in range(1, k + 3)]

    def test_batches_change_no_count(self, monkeypatch):
        # one first vertex per batch, a few, or all of them: the counts of
        # the listed filtration, up to five vertices
        cases = []
        for seed in range(3):
            m = pairwise_distances(seeded_cloud(seed, 16, grid=seed == 1))
            for t in (0.5 * enclosing_radius(m), math.inf):
                f = build_rips(m, RipsParams(3, t))
                counts = np.bincount([len(s) - 1 for s, _ in f], minlength=5)
                cases.append((m, t, counts.tolist()))
        for cells in (1, 40, 1 << 18):
            monkeypatch.setattr(rips, "_CELLS", cells)
            for m, t, counts in cases:
                assert _counts_and_betti(m, 3, t)[0] == counts

    def test_checks_its_input_first(self):
        with pytest.raises(DimensionTooLarge):
            _counts_and_betti(unit_square_matrix(), 3, 2.0)
        m = unit_square_matrix().copy()
        m[0, 1] = m[1, 0] = math.inf
        with pytest.raises(ValueError, match="finite"):
            _counts_and_betti(m, 0, 2.0)


class TestLevels:
    """build_rips and the diagram engine grow each level from the edges up
    once below their top and never the top: a level grown twice would
    change no output, only the time. No vertex row is grown, as the edges
    are read from the graph, and the counts of _counts_and_betti grow no
    row at all. The rows passed to _Graph.grow are counted by their width,
    the level's dimension + 1."""

    @pytest.fixture
    def grown(self, monkeypatch):
        rows = {}
        grow = _Graph.grow

        def counted(g, s, diam):
            rows[s.shape[1]] = rows.get(s.shape[1], 0) + len(s)
            return grow(g, s, diam)
        monkeypatch.setattr(_Graph, "grow", counted)
        return rows

    @staticmethod
    def assert_grown_once(rows, counts):
        """Width w grown by counts[w - 1] rows for w = 2..len(counts), and
        no vertex row (width 1) nor wider level grown."""
        assert set(rows) <= set(range(2, len(counts) + 1))
        assert [rows.get(w, 0) for w in range(2, len(counts) + 1)] == counts[1:]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("where", ["half", "at", "inf"])
    def test_build_rips_and_clique_counts(self, grown, monkeypatch, seed,
                                          where):
        # the counts read the first graph and grow nothing; below R only,
        # the diagram grows that graph if no vertex is dominated, else its
        # core, each level once: at or above R the graph is a cone, neither
        # collapsed nor reduced
        m = pairwise_distances(seeded_cloud(seed, 9, grid=seed % 2 == 1))
        r = enclosing_radius(m)
        t = {"half": 0.5 * r, "at": r, "inf": math.inf}[where]
        built, counted, calls = [], [], []
        init, diagram, clique_counts = (_Graph.__init__, rips._diagram,
                                        rips._clique_counts)
        monkeypatch.setattr(_Graph, "__init__",
                            lambda g, *args: built.append(g) or init(g, *args))
        monkeypatch.setattr(rips, "_clique_counts", lambda g, top:
                            counted.append(g) or clique_counts(g, top))

        def traced(g, k):
            calls.append((g, dict(grown)))  # the rows the counts grew
            grown.clear()
            return diagram(g, k)
        monkeypatch.setattr(rips, "_diagram", traced)
        for k in range(3):
            built.clear()
            counted.clear()
            calls.clear()
            grown.clear()
            counts = _counts_and_betti(m, k, t)[0]
            assert counted == built[:1]
            if where == "half":
                [(g, rows)] = calls
                live = rips._core(built[0])
                assert len(built) == 1 + (not live.all())
                assert g is built[-1]
                assert len(g.ptr) - 1 == live.sum()
                assert rows == {}
                self.assert_grown_once(grown, clique_counts(g, k + 1)[:-2])
            else:
                assert len(built) == 1
                assert calls == []
                assert grown == {}
            grown.clear()
            assert len(build_rips(m, RipsParams(k, t))) == sum(counts)
            self.assert_grown_once(grown, counts[:-1])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_dim", [0, 1, 2, 3])
    def test_diagram_never_grows_its_top(self, grown, seed, max_dim):
        # below the top level, each level from the edges up grows once, in
        # the graph stopped at R
        pts = seeded_cloud(seed, 10, grid=seed % 2 == 1)
        m = pairwise_distances(pts)
        r = enclosing_radius(m)
        for t in (0.5 * r, math.inf):
            counts = _counts_and_betti(m, max_dim, min(t, r))[0][:max_dim]
            for entry, data in ((rips_persistence, m), (cloud_persistence, pts)):
                grown.clear()
                entry(data, max_dim, t)
                self.assert_grown_once(grown, counts)


class TestCore:
    """_counts_and_betti reduces only the strong collapse of its graph: the
    Betti row of the core's diagram is the static homology of the whole
    clique complex, and _core removes one of two vertices with equal
    closed neighbourhoods, never both."""

    @staticmethod
    def cloud(kind):
        if kind == "clusters":  # two unit squares 100 apart
            pts = np.random.default_rng(44).uniform(0.0, 1.0, (14, 2))
            pts[7:] += 100.0
            return pts
        if kind == "duplicates":
            pts = seeded_cloud(45, 8)
            return np.concatenate([pts, pts[:4]])
        return seeded_cloud(46, 12, grid=kind == "grid")

    @pytest.mark.parametrize("kind", ["clusters", "duplicates", "grid", "uniform"])
    def test_betti_match_whole_complex(self, kind):
        m = pairwise_distances(self.cloud(kind))
        d = m[np.triu_indices(len(m), 1)]
        r = enclosing_radius(m)
        for t in [0.0, *np.quantile(d, [0.2, 0.4, 0.6]).tolist(),
                  float(np.nextafter(r, 0.0))]:
            for k in range(4):
                c = complex_at_scale(build_rips(m, RipsParams(k, t)), t)
                assert _counts_and_betti(m, k, t)[1] == betti_numbers(c, k)

    def test_far_clusters_keep_one_vertex_each(self):
        # fewer than k + 2 vertices kept, yet two components
        m = pairwise_distances(self.cloud("clusters"))
        assert rips._core(_Graph(*rips._matrix_pairs(m, 2.0), len(m))).sum() == 2
        for k in range(4):
            assert _counts_and_betti(m, k, 2.0)[1] == (2,) + (0,) * k

    def test_four_cycle_keeps_every_vertex(self, monkeypatch):
        # no vertex is dominated: the counted graph itself is reduced
        m = unit_square_matrix()
        built, reduced = [], []
        init, diagram = _Graph.__init__, rips._diagram
        monkeypatch.setattr(_Graph, "__init__",
                            lambda g, *args: built.append(g) or init(g, *args))
        monkeypatch.setattr(rips, "_diagram",
                            lambda g, k: reduced.append(g) or diagram(g, k))
        for k in range(3):
            built.clear()
            reduced.clear()
            assert _counts_and_betti(m, k, 1.0)[1] == (1, 1, 0)[:k + 1]
            assert rips._core(built[0]).all()
            assert reduced == built

    def test_equal_neighbourhoods_lose_one_vertex(self):
        # vertex 4 doubles vertex 0 of the 4-cycle 0-1-2-3, N[0] = N[4]:
        # one of the two goes and the cycle stays
        i, j = np.array([[0, 1], [1, 2], [2, 3], [0, 3], [0, 4], [1, 4], [3, 4]]).T
        g = _Graph(i, j, np.ones(len(i)), 5)
        kept = set(g.names[rips._core(g)].tolist())
        assert {1, 2, 3} < kept and len(kept & {0, 4}) == 1
        # the ends of one edge
        assert rips._core(_Graph(np.array([0]), np.array([1]), np.ones(1), 2)).sum() == 1

    def test_path_collapses_round_by_round(self):
        # each round removes the two ends, dominated by their neighbours,
        # and the next round reads the neighbourhoods without them
        g = _Graph(np.arange(9), np.arange(1, 10), np.ones(9), 10)
        assert rips._core(g).sum() == 1

    def test_core_of_a_cone_is_its_apex(self):
        # apex 0 over the 5-cycle 1-2-3-4-5
        pairs = [(0, v) for v in range(1, 6)] + [(v, v + 1) for v in range(1, 5)]
        i, j = np.array(pairs + [(1, 5)]).T
        g = _Graph(i, j, np.ones(len(i)), 6)
        assert g.names[rips._core(g)].tolist() == [0]


class TestFreeInvariants:
    """What every diagram of n distinct points shows: H0 holds n points,
    finite and essential together, and once the filtration stops at the
    enclosing radius R exactly one class is essential, in H0."""

    @pytest.mark.parametrize("seed", range(6))
    def test_h0_size_and_one_essential_class_from_r(self, seed):
        pts = np.unique(seeded_cloud(seed, 12, grid=seed % 2 == 1), axis=0)
        m = pairwise_distances(pts)
        r = enclosing_radius(m)
        for t in (0.0, 0.5 * r, r, 2.0 * r, math.inf):
            for k in range(3):
                for d in (rips_persistence(m, k, t), cloud_persistence(pts, k, t)):
                    assert (d.dims == 0).sum() == len(pts)
                    essential = d.dims[np.isinf(d.deaths)]
                    assert (essential == 0).any()
                    if t >= r:
                        assert essential.tolist() == [0]


def weighted_edges(g):
    """The edges of g's CSR lists as (u, v, weight), u < v."""
    v = np.repeat(np.arange(len(g.ptr) - 1), np.diff(g.ptr))
    return set(zip(np.minimum(v, g.nbr).tolist(), np.maximum(v, g.nbr).tolist(),
                   g.wt.tolist()))


def within(m, eps):
    """The pairs u < v of m within eps as (u, v, m[u, v])."""
    u, v = np.nonzero(np.triu(m <= eps, 1))
    return set(zip(u.tolist(), v.tolist(), m[u, v].tolist()))


def reference_diagram(m, max_dim, threshold):
    return persistence_diagram(build_rips(m, RipsParams(max_dim, threshold)),
                               max_dim=max_dim)


class TestEnclosingRadius:
    def test_unit_square(self):
        assert enclosing_radius(unit_square_matrix()) == SQRT2

    def test_middle_of_a_line(self):
        m = pairwise_distances(np.array([[0.0], [1.0], [2.0], [3.5]]))
        assert enclosing_radius(m) == 2.0

    def test_single_point(self):
        assert enclosing_radius(np.zeros((1, 1))) == 0.0


class TestRipsPersistence:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 9),
           grid=st.booleans(), duplicate=st.booleans(),
           max_dim=st.integers(0, 3),
           scale=st.sampled_from(["below", "at", "above", "inf"]))
    def test_matches_boundary_reduction_and_oracle(self, seed, n, grid,
                                                   duplicate, max_dim, scale):
        pts = seeded_cloud(seed, n, grid)
        if duplicate:
            pts = np.concatenate([pts, pts[-1:]])
        m = pairwise_distances(pts)
        max_dim = min(max_dim, len(pts) - 2)
        r = enclosing_radius(m)
        threshold = {"below": 0.7 * r, "at": r, "above": float(m.max()) + 1.0,
                     "inf": math.inf}[scale]
        d = rips_persistence(m, max_dim, threshold)
        f = build_rips(m, RipsParams(max_dim, threshold))
        assert d == persistence_diagram(f, max_dim=max_dim)
        # ripsph run's entry: the sweep's pairs instead of the matrix
        assert cloud_persistence(pts, max_dim, threshold) == d
        assert (sorted((p.dimension, p.birth, p.death) for p in d)
                == naive_reduction_diagram(f, max_dim=max_dim))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8),
           grid=st.booleans())
    def test_enclosing_radius_keeps_the_diagram(self, seed, n, grid):
        # referee path only: the clamp itself, not the engine, is on trial
        m = pairwise_distances(seeded_cloud(seed, n, grid))
        max_dim = min(2, n - 2)
        assert (reference_diagram(m, max_dim, enclosing_radius(m))
                == reference_diagram(m, max_dim, float(m.max())))

    @pytest.mark.parametrize("seed", range(6))
    def test_reads_only_upper_triangle(self, seed):
        # as build_rips does: the enclosing radius too comes from the
        # pairs i < j, not from the rows of m
        m = pairwise_distances(seeded_cloud(seed, 12, grid=seed % 2 == 1))
        for t in (0.3, enclosing_radius(m), math.inf):
            assert rips_persistence(np.triu(m), 1, t) == rips_persistence(m, 1, t), t

    def test_all_points_equal(self):
        m = np.zeros((5, 5))
        expected = PersistenceDiagram([PersistencePair(0, 0.0)])
        assert rips_persistence(m, 2, 1.0) == expected
        assert reference_diagram(m, 2, 1.0) == expected

    def test_threshold_zero(self):
        m = unit_square_matrix()
        expected = PersistenceDiagram([PersistencePair(0, 0.0)] * 4)
        assert rips_persistence(m, 2, 0.0) == expected
        assert reference_diagram(m, 2, 0.0) == expected

    @pytest.mark.parametrize("max_dim", [0, 1, 2])
    def test_fewest_points_for_the_dimension(self, max_dim):
        pts = np.random.default_rng(max_dim).uniform(size=(max_dim + 2, 3))
        m = pairwise_distances(pts)
        assert (rips_persistence(m, max_dim, float(m.max()))
                == reference_diagram(m, max_dim, float(m.max())))

    def test_unit_square(self):
        d = rips_persistence(unit_square_matrix(), 1, 2.0)
        assert d == PersistenceDiagram(
            [PersistencePair(0, 0.0, 1.0)] * 3 + [PersistencePair(0, 0.0),
                                                  PersistencePair(1, 1.0, SQRT2)])

    @pytest.mark.parametrize("cloud, rows", [
        ("grid 4x4", 41), ("grid 3x3x2", 32), ("uniform 30", 63),
        ("circle 40", 486)])
    def test_coboundaries_built(self, monkeypatch, cloud, rows):
        # only the columns a reduction reads build a coboundary, each row
        # counted per build: every non-apparent column with a coface and the
        # apparent owners of their first pivots in the batch, and an apparent
        # owner met further down a reduction alone; a broken apparent-pair
        # test changes no diagram but changes this count
        t = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
        pts = {"grid 4x4": np.argwhere(np.ones((4, 4))),
               "grid 3x3x2": np.argwhere(np.ones((3, 3, 2))),
               "uniform 30": np.random.default_rng(0).uniform(size=(30, 3)),
               "circle 40": np.column_stack((np.cos(t), np.sin(t)))}[cloud]
        m = pairwise_distances(pts.astype(float))
        built = []
        coboundaries = _Graph.coboundaries
        monkeypatch.setattr(_Graph, "coboundaries", lambda g, s, *a:
                            built.append(len(s)) or coboundaries(g, s, *a))
        rips_persistence(m, 2, m.max())
        assert sum(built) == rows

    @pytest.mark.parametrize("seed, n", [(5, 100), (1, 200)])
    def test_no_reduced_column_built_alone(self, monkeypatch, seed, n):
        # every column the loop reduces reads its coboundary from the batch:
        # a one-row build is only ever an apparent owner met further down a
        # reduction, never a row that the first-pivot pass found
        # non-apparent
        m = pairwise_distances(np.random.default_rng(seed).uniform(size=(n, 3)))
        t = float(np.sort(m[np.triu_indices(n, 1)])[4 * n])
        reduced, alone = set(), []
        first_pivots, coboundaries = _Graph.first_pivots, _Graph.coboundaries

        def record(g, s, diam):
            out = first_pivots(g, s, diam)
            reduced.update(map(tuple, s[~out[2]].tolist()))
            return out

        def build(g, s, diam):
            if len(s) == 1:
                alone.append(tuple(s[0].tolist()))
            return coboundaries(g, s, diam)

        monkeypatch.setattr(_Graph, "first_pivots", record)
        monkeypatch.setattr(_Graph, "coboundaries", build)
        d = rips_persistence(m, 1, t)
        assert reduced
        assert not reduced.intersection(alone)
        assert d == reference_diagram(m, 1, t)

    def test_dimension_too_large(self):
        with pytest.raises(DimensionTooLarge):
            rips_persistence(equilateral_matrix(), 2, 1.0)
        with pytest.raises(DimensionTooLarge):
            cloud_persistence(np.eye(3), 2, 1.0)

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (0, 0)])
    def test_rejects_non_square_or_empty(self, shape):
        error = DimensionTooLarge if shape == (0, 0) else NotSquare
        with pytest.raises(error):
            rips_persistence(np.zeros(shape), 0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_rejects_bad_entry(self, bad):
        m = equilateral_matrix()
        m[0, 2] = m[2, 0] = bad
        with pytest.raises(ValueError, match=r"\(0,2\)"):
            rips_persistence(m, 1, 2.0)

    @pytest.mark.parametrize("max_dim, threshold",
                             [(-1, 1.0), (1, -0.5), (1, math.nan)])
    def test_rejects_bad_parameters(self, max_dim, threshold):
        with pytest.raises(ValueError):
            rips_persistence(unit_square_matrix(), max_dim, threshold)
        with pytest.raises(ValueError):
            cloud_persistence(np.eye(4), max_dim, threshold)


class TestCloudPersistence:
    """The points entry stops where the matrix entry does: the enclosing
    radius comes from the kept pairs, not from a matrix."""

    @pytest.mark.parametrize("seed", range(12))
    def test_thresholds_around_the_enclosing_radius(self, seed):
        pts = seeded_cloud(seed, 5 + seed % 6, grid=seed % 2 == 1)
        if seed % 3 == 0:
            pts = np.concatenate([pts, pts[:2]])
        m = pairwise_distances(pts)
        r = enclosing_radius(m)
        max_dim = min(2, len(pts) - 2)
        for t in (0.0, float(np.nextafter(r, 0.0)), r,
                  float(np.nextafter(r, math.inf)), float(m.max()), math.inf):
            assert (cloud_persistence(pts, max_dim, t)
                    == rips_persistence(m, max_dim, t)), (seed, t)

    @pytest.mark.parametrize("seed", range(6))
    def test_graph_stops_where_the_matrix_entry_does(self, monkeypatch, seed):
        # a later stop changes no diagram, only the work: look at each
        # graph in its own labels
        pts = seeded_cloud(seed, 9, grid=seed % 2 == 1)
        m = pairwise_distances(pts)
        r = enclosing_radius(m)
        graphs = []
        diagram = rips._diagram
        monkeypatch.setattr(rips, "_diagram",
                            lambda g, k: graphs.append(g) or diagram(g, k))
        for t in (0.5 * r, r, float(m.max()), math.inf):
            rips_persistence(m, 1, t)
            cloud_persistence(pts, 1, t)
            for g in graphs[-2:]:
                assert weighted_edges(g) == within(m[np.ix_(g.names, g.names)],
                                                   min(t, r))

    @pytest.mark.parametrize("source", ["pairs_within", "_matrix_pairs"])
    def test_cut_pairs_freed_before_the_graph(self, monkeypatch, source):
        """Stopped at the enclosing radius, the pairs within the threshold
        are gone when _Graph is built: only the kept copies reach it."""
        pts = np.random.default_rng(0).random((300, 3))
        made, alive = [], []
        produce, init = getattr(rips, source), _Graph.__init__

        def pairs(*args):
            out = produce(*args)
            made.extend(weakref.ref(x) for x in out)
            return out

        def build(g, *args):
            alive.extend(r() is not None for r in made)
            init(g, *args)

        monkeypatch.setattr(rips, source, pairs)
        monkeypatch.setattr(_Graph, "__init__", build)
        if source == "pairs_within":
            cloud_persistence(pts, 0, math.inf)
        else:
            rips_persistence(pairwise_distances(pts), 0, math.inf)
        assert len(made) == 3 and alive == [False] * 3

    def test_unit_square(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert (cloud_persistence(pts, 1, math.inf)
                == rips_persistence(unit_square_matrix(), 1, 2.0))

    def test_all_points_equal(self):
        expected = PersistenceDiagram([PersistencePair(0, 0.0)])
        assert cloud_persistence(np.ones((5, 3)), 2, 0.0) == expected


def noisy_curve(seed, n):
    """n points in shuffled order along three turns of a helix ten units
    long in x, with Gaussian noise: in x order, each point's near
    neighbours are a few labels away."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, n)
    pts = np.column_stack((10.0 * t, np.cos(6.0 * math.pi * t),
                           np.sin(6.0 * math.pi * t)))
    return pts + rng.normal(0.0, 0.05, pts.shape)


def with_duplicates(pts):
    return np.concatenate([pts, pts[::9]])


class TestBandTable:
    """Both diagram entries on clouds long along one axis, in x or not,
    where in the graph's own labels the largest label span b of a pair is
    small against n and the graph's table is a band of 4b + 3 columns per
    vertex. Near the enclosing radius R the band cannot be taken: the
    vertex that reaches all others spans at least (n - 1) / 2 labels, so
    there the same builder makes the dense table."""

    CLOUDS = {
        "curve 60": lambda: noisy_curve(0, 60),
        "curve 150": lambda: noisy_curve(1, 150),
        "curve 300": lambda: noisy_curve(2, 300),
        "curve 100 with duplicates": lambda: with_duplicates(noisy_curve(3, 100)),
        # ties in x and among the distances
        "grid 40x3": lambda: np.argwhere(np.ones((40, 3))).astype(float),
        "grid 20x2x2 with duplicates":
            lambda: with_duplicates(np.argwhere(np.ones((20, 2, 2))).astype(float)),
        # long in y or z, or flat in x: the band runs along another axis
        "curve 150 long in y": lambda: noisy_curve(4, 150)[:, [1, 0, 2]],
        "curve 150 long in z": lambda: noisy_curve(5, 150)[:, [1, 2, 0]],
        "curve 120 at x = 0":
            lambda: np.column_stack((np.zeros(120), noisy_curve(6, 120)[:, [0, 2]])),
        "grid 3x2x40": lambda: np.argwhere(np.ones((3, 2, 40))).astype(float),
    }

    @staticmethod
    def check_band(g, m, eps):
        """Every cell cofaces can read, table[off[v] + l] for two neighbours
        v and l of one vertex, is in row v and holds the weight of (v, l),
        inf off the graph of the pairs of m within eps; m is in g's
        labels."""
        n = len(g.ptr) - 1
        width = g.table.size // n
        assert g.ptr.dtype == g.nbr.dtype == np.intp
        owner = np.repeat(np.arange(n), np.diff(g.ptr))
        assert np.array_equal(g.wt, m[owner, g.nbr])
        # each list strictly ascending, and each pair once from either end
        assert (np.diff(g.nbr)[np.diff(owner) == 0] > 0).all()
        edges = within(m, eps)
        assert weighted_edges(g) == edges and len(g.nbr) == 2 * len(edges)
        # the edge level: each pair once, as a row u < l, in row order
        s, diam = g.edges
        assert set(zip(*s.T.tolist(), diam.tolist())) == edges and len(s) == len(edges)
        assert (s[:, 0] < s[:, 1]).all()
        assert np.array_equal(np.lexsort(s.T[::-1]), np.arange(len(s)))
        for u in range(n):
            nb = g.nbr[g.ptr[u]:g.ptr[u + 1]]
            v, l = np.repeat(nb, len(nb)), np.tile(nb, len(nb))
            cell = g.off[v] + l
            assert ((v * width <= cell) & (cell < (v + 1) * width)).all()
            weight = np.where((m[v, l] <= eps) & (v != l), m[v, l], np.inf)
            assert np.array_equal(g.table[cell], weight)

    @pytest.mark.parametrize("cloud", CLOUDS)
    def test_band_layout_matches_the_matrix_entry(self, monkeypatch, cloud):
        pts = self.CLOUDS[cloud]()
        n = len(pts)
        m = pairwise_distances(pts)
        graphs = []
        diagram = rips._diagram
        monkeypatch.setattr(rips, "_diagram",
                            lambda g, k: graphs.append(g) or diagram(g, k))
        # a distance of the cloud with about eight neighbours per point
        s = float(np.sort(m[np.triu_indices(n, 1)])[4 * n])
        r = enclosing_radius(m)
        for t in (np.nextafter(s, 0.0), s, np.nextafter(s, math.inf),
                  np.nextafter(r, 0.0), r, np.nextafter(r, math.inf)):
            t = float(t)
            # up to H2 on the band; one dimension less near R and one less
            # at 300 points, where the complexes grow large
            max_dim = int(n <= 150) + int(t < r / 2)
            d = cloud_persistence(pts, max_dim, t)
            assert d == rips_persistence(m, max_dim, t), t
            for g in graphs[-2:]:  # the points entry's, then the matrix's
                self.check_band(g, m[np.ix_(g.names, g.names)], min(t, r))
                b = int(np.abs(g.nbr - np.repeat(np.arange(n), np.diff(g.ptr))).max())
                if t < r / 2:
                    # the band layout was taken
                    assert 4 * b + 3 < n
                    assert g.table.size == n * (4 * b + 3)
                else:
                    assert g.table.size == n * n
            if t < r / 2:
                assert d == reference_diagram(m, max_dim, t), t


class TestKeys:
    """rips._keys names a row of ascending vertices by one int64 that sorts
    like the row, exactly up to its bound n (b + 1)^(m - 1) < 2^63."""

    @staticmethod
    def rows(n, b, m):
        """The rows of m ascending vertices below n spanning at most b with
        the smallest and the largest key, then 400 random ones."""
        rng = np.random.default_rng(m)
        out = [list(range(m)), list(range(n - m, n))]
        for v0 in rng.integers(0, n - m, 400).tolist():
            up = rng.choice(min(b, n - 1 - v0), m - 1, replace=False)
            out.append([v0, *sorted((v0 + 1 + up).tolist())])
        return np.array(out, dtype=np.int64)

    @pytest.mark.parametrize("m, b", [(2, 2**31 - 1), (3, 2**20 - 1), (4, 1000),
                                      (5, 110), (5, 6000)])
    def test_exact_and_ordered_at_the_bound(self, m, b):
        n = ((1 << 63) - 1) // (b + 1) ** (m - 1)
        assert n * (b + 1) ** (m - 1) < 2**63 <= (n + 1) * (b + 1) ** (m - 1)
        s = self.rows(n, b, m)
        keys = rips._keys(s.T, n, b)
        exact = [sum((v - r[0] if i else v) * (b + 1) ** (m - 1 - i)
                     for i, v in enumerate(r)) for r in s.tolist()]
        assert keys.tolist() == exact
        assert [rips._keys(r, n, b) for r in s.tolist()] == exact  # one row
        assert max(exact) == exact[1] >= 2**63 - (m + 1) * (b + 1) ** (m - 1)
        assert np.array_equal(np.argsort(keys, kind="stable"),
                              np.lexsort(s.T[::-1]))
        assert [rips._vertices(k, m, b) for k in exact] == s.tolist()
        with pytest.raises(DimensionTooLarge):
            rips._keys(s.T, n + 1, b)


def grid(*shape):
    return np.argwhere(np.ones(shape)).astype(float)


class TestApparentPairs:
    """The engine decides in numpy which columns are apparent pairs,
    exactly those that are their first pivot's latest facet, and adds no
    pair for them."""

    SHAPES = {
        "uniform": lambda seed, n: seeded_cloud(seed, n),
        "integer grid": lambda seed, n: seeded_cloud(seed, n, grid=True),
        "half duplicated": lambda seed, n: np.concatenate(
            [seeded_cloud(seed, n), seeded_cloud(seed, n)[:n // 2]]),
        "curve": lambda seed, n: noisy_curve(seed, n),
        "curve long in y": lambda seed, n: noisy_curve(seed, n)[:, [1, 0, 2]],
        "curve long in z": lambda seed, n: noisy_curve(seed, n)[:, [1, 2, 0]],
        "curve at x = 0": lambda seed, n: np.column_stack(
            (np.zeros(n), noisy_curve(seed, n)[:, [0, 2]])),
        "grid kx3": lambda seed, n: grid(n // 3 + 2, 3),
        "grid 3x2xk": lambda seed, n: grid(3, 2, n // 6 + 2),
    }

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 12),
           shape=st.sampled_from(sorted(SHAPES)), max_dim=st.integers(1, 3),
           scale=st.sampled_from(["near", "below R", "at R", "above R", "inf"]))
    def test_zero_persistence_and_equal_diagrams(self, seed, n, shape, max_dim,
                                                 scale):
        pts = self.SHAPES[shape](seed, n)
        m = pairwise_distances(pts)
        max_dim = min(max_dim, len(pts) - 2)
        r = enclosing_radius(m)
        # near: about two neighbours per point
        t = {"near": float(np.sort(m[np.triu_indices(len(pts), 1)])[len(pts)]),
             "below R": float(np.nextafter(r, 0.0)), "at R": r,
             "above R": float(np.nextafter(r, math.inf)), "inf": math.inf}[scale]
        seen = []
        first_pivots = _Graph.first_pivots

        def record(g, s, diam):
            out = first_pivots(g, s, diam)
            seen.append((g, s, diam, *out))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Graph, "first_pivots", record)
            d = rips_persistence(m, max_dim, t)
        for g, s, diam, tops, pd, apparent in seen:
            assert np.array_equal(diam[apparent], pd[apparent])
            finite = pd < np.inf
            assert not apparent[~finite].any()
            mg = m[np.ix_(g.names, g.names)]
            for row, top, ap in zip(s[finite].tolist(), tops[finite].tolist(),
                                    apparent[finite].tolist()):
                # apparent exactly when row is the latest facet of its first
                # pivot by (diameter, vertex tuple), read from m in the
                # graph's labels
                facets = [top[:p] + top[p + 1:] for p in range(len(top))]
                assert ap == (row == max(facets, key=lambda f: (
                    max(mg[u, v] for u in f for v in f), f)))
        assert d == reference_diagram(m, max_dim, t)
        assert cloud_persistence(pts, max_dim, t) == d


class TestCoboundaries:
    """_Graph.coboundaries against the matrix: the cofaces of a row s are
    the vertices l within eps of every vertex of s, each as the largest
    distance among s + l and the _keys of s + l sorted, in sorted order."""

    CLOUDS = {
        "integer grid 5x4": lambda: grid(5, 4),
        "integer grid 4x3x3": lambda: grid(4, 3, 3),
        "tied grid cloud": lambda: seeded_cloud(1, 40, grid=True),
        "duplicated points": lambda: with_duplicates(seeded_cloud(2, 40)),
        **TestBandTable.CLOUDS,
    }

    @staticmethod
    def brute_force(g, m, s, eps):
        """Row s's cofaces in g, the graph of the pairs of m within eps,
        from m in g's labels."""
        n = len(m)
        out = []
        for l in np.flatnonzero((m[s] <= eps).all(axis=0)).tolist():
            if l not in s:
                c = sorted((*s, l))
                out.append((float(m[np.ix_(c, c)].max()),
                            rips._keys(c, n, g.span)))
        return sorted(out)

    @staticmethod
    def lists(d, key, ptr):
        return [list(zip(d[a:b].tolist(), key[a:b].tolist()))
                for a, b in zip(ptr[:-1].tolist(), ptr[1:].tolist())]

    @pytest.mark.parametrize("cloud", CLOUDS)
    def test_matches_the_matrix(self, cloud):
        pts = self.CLOUDS[cloud]()
        n = len(pts)
        m = pairwise_distances(pts)
        # about eight neighbours per point, and all pairs (an n x n table)
        # on the smallest clouds
        scales = [float(np.sort(m[np.triu_indices(n, 1)])[4 * n])]
        if n <= 20:
            scales.append(float(m.max()))
        for t in scales:
            g = _Graph(*rips._matrix_pairs(m, t), n)
            mg = m[np.ix_(g.names, g.names)]
            for level in rips._levels(g, 1):
                s, diam = map(np.concatenate, zip(*level))
                expected = [self.brute_force(g, mg, row, t) for row in s.tolist()]
                assert self.lists(*g.coboundaries(s, diam)) == expected
                g.step = 7  # many rows over several passes
                assert self.lists(*g.coboundaries(s, diam)) == expected
                for i in range(len(s)):
                    assert self.lists(*g.coboundaries(s[i:i + 1], diam[i:i + 1])
                                      ) == expected[i:i + 1]


class TestSpanningTreeH0:
    """_h0 takes scipy's minimum spanning tree of the edge ranks for the
    forest that Kruskal's union-find picks over (diameter, key) order."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           shape=st.sampled_from(["integer grid", "half duplicated", "uniform"]),
           scale=st.sampled_from(["zero", "few edges", "near", "inf"]))
    def test_kruskal_forest_and_deaths(self, seed, n, shape, scale):
        pts = {"integer grid": seeded_cloud(seed, n, grid=True),
               "half duplicated": np.concatenate(
                   [seeded_cloud(seed, n), seeded_cloud(seed, n)[:n // 2]]),
               "uniform": seeded_cloud(seed, n)}[shape]
        m = pairwise_distances(pts)
        dists = np.sort(m[np.triu_indices(len(m), 1)])
        # zero and few edges leave several components
        t = {"zero": 0.0, "inf": math.inf,
             "few edges": float(dists[len(dists) // 4]) if len(dists) else 0.0,
             "near": float(dists[len(m) - 1]) if len(dists) >= len(m) else 0.0}[scale]
        g = _Graph(*rips._matrix_pairs(m, t), len(m))
        s, diam = g.edges
        deaths, keys = rips._h0(g, s, diam)

        parent = list(range(len(m)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        merging = []
        for _, (i, j) in sorted(zip(diam.tolist(), map(tuple, s.tolist()))):
            if find(i) != find(j):
                parent[find(j)] = find(i)
                merging.append((i, j))
        assert keys.tolist() == sorted(g.keys(np.array(merging).reshape(-1, 2)).tolist())
        f = Filtration([(Simplex((v,)), 0.0) for v in range(len(m))]
                       + [(Simplex(e), d) for e, d in zip(map(tuple, s.tolist()),
                                                          diam.tolist())])
        assert sorted((0.0, d) for d in deaths.tolist() if d) == union_find_h0(f)


class TestLabelInvariance:
    """The graph labels its own vertices, by reverse Cuthill-McKee unless
    some vertex reaches all others, so no entry depends on the caller's
    order of the points."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 12),
           shape=st.sampled_from(sorted(TestApparentPairs.SHAPES)),
           max_dim=st.integers(1, 3),
           scale=st.sampled_from(["near", "below R", "at R", "above R", "inf"]))
    def test_permuted_points(self, seed, n, shape, max_dim, scale):
        pts = TestApparentPairs.SHAPES[shape](seed, n)
        n = len(pts)
        m = pairwise_distances(pts)
        max_dim = min(max_dim, n - 2)
        r = enclosing_radius(m)
        t = {"near": float(np.sort(m[np.triu_indices(n, 1)])[n]),
             "below R": float(np.nextafter(r, 0.0)), "at R": r,
             "above R": float(np.nextafter(r, math.inf)), "inf": math.inf}[scale]
        p = np.random.default_rng(seed).permutation(n)
        mp = m[p][:, p]
        graphs = []
        init = _Graph.__init__

        def record(g, *args):
            init(g, *args)
            graphs.append(g)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Graph, "__init__", record)
            assert cloud_persistence(pts[p], max_dim, t) == cloud_persistence(
                pts, max_dim, t)
            assert rips_persistence(mp, max_dim, t) == rips_persistence(
                m, max_dim, t)
            permuted = build_rips(mp, RipsParams(max_dim, t))
            f = build_rips(m, RipsParams(max_dim, t))
        # vertex v of mp is vertex p[v] of m
        assert (sorted((tuple(sorted(p[list(s)].tolist())), x) for s, x in permuted)
                == sorted((s.vertices, x) for s, x in f))
        for g in graphs:
            assert np.array_equal(np.sort(g.names), np.arange(n))
            full = (np.diff(g.ptr) == n - 1).any()
            assert np.array_equal(g.names, np.arange(n)) == full
