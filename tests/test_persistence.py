import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_cloud
from oracles import naive_reduction_diagram, union_find_h0
from ripsph.core import (Filtration, PersistenceDiagram, PersistencePair,
                         Simplex)
from ripsph.errors import InvalidFiltration, RipsphError
from ripsph.homology import betti_numbers
from ripsph.metrics import pairwise_distances
from ripsph.persistence import (betti_at_scale, persistence_diagram,
                                read_diagram_csv, reduce_filtration,
                                significant_features, write_diagram_csv)
from ripsph.rips import RipsParams, build_rips, complex_at_scale

SQRT2 = math.sqrt(2.0)


def unit_square_filtration():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return build_rips(pairwise_distances(pts), RipsParams(1, 2.0))


def as_multiset(diagram):
    return sorted((p.dimension, p.birth, p.death) for p in diagram)


def random_cloud_filtration(rng, n_max=10, max_dim=2):
    n = rng.randint(max_dim + 2, n_max)
    d = rng.choice([2, 3])
    pts = np.array([[rng.uniform(0, 1) for _ in range(d)] for _ in range(n)])
    m = pairwise_distances(pts)
    return build_rips(m, RipsParams(max_dim, float(m.max())))


class TestReduce:
    def test_two_vertices_one_edge(self):
        f = Filtration([(Simplex((0,)), 0.0), (Simplex((1,)), 0.0),
                        (Simplex((0, 1)), 0.7)])
        d = persistence_diagram(f)
        assert as_multiset(d) == [(0, 0.0, 0.7), (0, 0.0, math.inf)]

    def test_unit_square(self):
        d = persistence_diagram(unit_square_filtration(), max_dim=1)
        assert as_multiset(d) == [
            (0, 0.0, 1.0), (0, 0.0, 1.0), (0, 0.0, 1.0), (0, 0.0, math.inf),
            (1, 1.0, SQRT2)]

    def test_max_dim_drops_finite_pairs_above_it(self):
        # the square's loop [1, sqrt 2) is a finite H1 pair, cut at max_dim 0
        d = persistence_diagram(unit_square_filtration(), max_dim=0)
        assert as_multiset(d) == [(0, 0.0, 1.0)] * 3 + [(0, 0.0, math.inf)]

    def test_hexagon_on_circle(self):
        angles = np.linspace(0, 2 * np.pi, 6, endpoint=False)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        m = pairwise_distances(pts)
        f = build_rips(m, RipsParams(1, float(m.max())))
        d = persistence_diagram(f, max_dim=1)
        h0 = d.in_dimension(0)
        h1 = d.in_dimension(1)
        assert sum(p.is_essential for p in h0) == 1
        assert len(h1) == 1 and not h1[0].is_essential

    def test_invalid_filtration_rejected(self):
        f = Filtration([(Simplex((0,)), 0.0), (Simplex((0, 1)), 0.5)])
        with pytest.raises(InvalidFiltration):
            reduce_filtration(f)
        # the face (1,) exists but enters after its edge
        f = Filtration([(Simplex((0,)), 0.0), (Simplex((1,)), 1.0),
                        (Simplex((0, 1)), 0.5)])
        with pytest.raises(InvalidFiltration, match=r"face \(1,\) of \(0, 1\)"):
            reduce_filtration(f)

    @pytest.mark.parametrize("entries, repeated", [
        # reduced unchecked, a repeated edge gives a phantom H1 class [2, inf)
        ([((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0), ((0, 1), 2.0)], "(0, 1)"),
        # and a repeated vertex two essential H0 classes
        ([((0,), 0.0), ((0,), 1.0)], "(0,)"),
    ])
    @pytest.mark.parametrize("reduce", [reduce_filtration, persistence_diagram])
    def test_duplicate_entry_rejected(self, entries, repeated, reduce):
        f = Filtration((Simplex(v), scale) for v, scale in entries)
        with pytest.raises(InvalidFiltration,
                           match=re.escape(f"duplicate entry {repeated}")):
            reduce(f)

    def test_clearing_matches_plain_reduction(self):
        # the oracle reduces without clearing; the H0-H2 clouds are compared
        # uncut, tetrahedra included
        rng = random.Random(41)
        for _ in range(25):
            f = random_cloud_filtration(rng)
            with_clearing = persistence_diagram(f, max_dim=None)
            without = naive_reduction_diagram(f, max_dim=None)
            assert as_multiset(with_clearing) == without

    def test_matches_naive_oracle(self):
        rng = random.Random(43)
        for _ in range(25):
            f = random_cloud_filtration(rng, n_max=8, max_dim=1)
            d = persistence_diagram(f, max_dim=1)
            oracle = naive_reduction_diagram(f, max_dim=1)
            assert as_multiset(d) == oracle

    def test_h0_matches_union_find(self):
        rng = random.Random(47)
        for _ in range(25):
            f = random_cloud_filtration(rng, n_max=9, max_dim=1)
            d = persistence_diagram(f)
            h0 = sorted((p.birth, p.death) for p in d.in_dimension(0))
            assert h0 == union_find_h0(f)

    def test_tie_break_invariance(self):
        # permuting equal-scale blocks must not change the diagram multiset
        base = [(Simplex((i,)), 0.0) for i in range(4)]
        edges = [(Simplex((0, 1)), 1.0), (Simplex((1, 2)), 1.0),
                 (Simplex((2, 3)), 1.0), (Simplex((0, 3)), 1.0),
                 (Simplex((0, 2)), 1.0), (Simplex((1, 3)), 1.0)]
        triangles = [(Simplex(t), 2.0) for t in
                     itertools.combinations(range(4), 3)]
        reference = None
        rng = random.Random(53)
        for _ in range(10):
            shuffled = base[:] + edges[:] + triangles[:]
            rng.shuffle(shuffled)
            d = persistence_diagram(Filtration(shuffled), max_dim=1)
            if reference is None:
                reference = as_multiset(d)
            assert as_multiset(d) == reference


class TestBettiAtScale:
    def test_unit_square_mid_scale(self):
        d = persistence_diagram(unit_square_filtration(), max_dim=1)
        assert betti_at_scale(d, 1.2) == (1, 1)

    def test_unit_square_after_fill(self):
        d = persistence_diagram(unit_square_filtration(), max_dim=1)
        assert betti_at_scale(d, 1.5) == (1, 0)

    def test_beyond_all_deaths(self):
        d = persistence_diagram(unit_square_filtration(), max_dim=1)
        for scale in (100.0, math.inf):  # an essential class lives on at inf
            assert betti_at_scale(d, scale) == (1, 0)

    def test_nan_scale_rejected(self):
        d = persistence_diagram(unit_square_filtration(), max_dim=1)
        with pytest.raises(ValueError):
            betti_at_scale(d, math.nan)

    def test_agrees_with_static_homology(self):
        rng = random.Random(59)
        for _ in range(10):
            f = random_cloud_filtration(rng, n_max=8, max_dim=1)
            d = persistence_diagram(f, max_dim=1)
            for s in f.scales():
                static = betti_numbers(complex_at_scale(f, s), 1)
                assert betti_at_scale(d, s, max_dim=1) == static


class TestSignificantFeatures:
    def test_threshold_filters_short_pairs(self):
        d = persistence_diagram(unit_square_filtration(), max_dim=1)
        filtered = significant_features(d, 1.0)
        # H0 deaths at 1.0 pass (persistence exactly 1.0); H1 bar 0.414 dropped
        assert len(filtered.in_dimension(1)) == 0
        assert len(filtered.in_dimension(0)) == 4

    @pytest.mark.parametrize("threshold", [-1.0, math.nan])
    def test_negative_or_nan_threshold_rejected(self, threshold):
        d = persistence_diagram(unit_square_filtration(), max_dim=1)
        with pytest.raises(ValueError):
            significant_features(d, threshold)

    def test_threshold_zero_is_identity(self):
        d = persistence_diagram(unit_square_filtration())
        assert as_multiset(significant_features(d, 0.0)) == as_multiset(d)

    def test_essential_always_kept(self):
        from ripsph.core import PersistenceDiagram
        d = PersistenceDiagram([PersistencePair(0, 0.0, 0.1),
                                PersistencePair(1, 0.0, 5.0),
                                PersistencePair(0, 0.0, math.inf)])
        kept = significant_features(d, 1.0)
        assert as_multiset(kept) == [(0, 0.0, math.inf), (1, 0.0, 5.0)]


class TestDiagramCsv:
    def test_header_and_inf(self):
        d = persistence_diagram(unit_square_filtration(), max_dim=1)
        text = write_diagram_csv(d)
        lines = text.splitlines()
        assert lines[0] == "dim,birth,death"
        assert any(line.endswith(",inf") for line in lines[1:])

    def test_roundtrip(self):
        d = persistence_diagram(unit_square_filtration(), max_dim=1)
        again = read_diagram_csv(write_diagram_csv(d))
        assert as_multiset(again) == as_multiset(d)

    def test_sorted_by_dim_birth_death(self):
        d = persistence_diagram(unit_square_filtration(), max_dim=1)
        rows = write_diagram_csv(d).splitlines()[1:]
        parsed = [(int(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
        assert parsed == sorted(parsed)

    def test_malformed_header_rejected(self):
        with pytest.raises(RipsphError):
            read_diagram_csv("birth,death\n0,1")

    def test_malformed_row_rejected(self):
        with pytest.raises(RipsphError):
            read_diagram_csv("dim,birth,death\n0,zero,1")

    @pytest.mark.parametrize("text, message", [
        ("dim,birth,death\n\n1,0,x\n", "line 3: unparseable pair"),
        ("\ndim,birth,death\n \n\n1,0\n", "line 5: expected 3 fields"),
        ("dim,birth,death\n1,0,1\n\n1,2.0,1.0\n", "line 4: death 1.0 before birth 2.0"),
        ("", "diagram CSV must start with header 'dim,birth,death'"),
        ("dim,birth\n0,1\n", "diagram CSV must start with header 'dim,birth,death'"),
        ("dim,birth,death\n0,0,1,2\n", "line 2: expected 3 fields"),
        ("dim,birth,death\n1.0,0,1\n", "line 2: unparseable pair"),
        ("dim,birth,death\n99999999999999999999,0,1\n", "line 2: unparseable pair"),
        ("dim,birth,death\n0,0,1\n-1,0,1\n", "line 3: negative dimension -1"),
        ("dim,birth,death\n0,inf,inf\n", "line 2: birth must be finite, got inf"),
        ("dim,birth,death\n0,nan,1\n", "line 2: birth must be finite, got nan"),
        ("dim,birth,death\n0,0,nan\n", "line 2: death must not be NaN"),
        # the first bad line wins, whatever is wrong further down
        ("dim,birth,death\n0,0,1\n0,2,1\n0,x,1\n1,2\n",
         "line 3: death 1.0 before birth 2.0"),
        ("dim,birth,death\n-2,0,1\n0,0\n", "line 2: negative dimension -2"),
        ("dim,birth,death\n0,0,nan\n0,y,1\n", "line 2: death must not be NaN"),
    ], ids=["unparseable", "field count", "pair", "empty", "header",
            "four fields", "float dim", "dim overflow", "negative dim",
            "infinite birth", "NaN birth", "NaN death", "first of three",
            "before field count", "before unparseable"])
    def test_error_names_the_physical_line(self, text, message):
        # blank lines count, as in load_csv
        with pytest.raises(RipsphError, match=f"^{re.escape(message)}$"):
            read_diagram_csv(text)

    @pytest.mark.parametrize("bom", ["\ufeff", b"\xef\xbb\xbf"])
    def test_byte_order_mark_ignored(self, bom):
        text = "dim,birth,death\n1,0.0,1.0\n0,0.5,inf\n"
        source = bom + (text.encode() if isinstance(bom, bytes) else text)
        assert read_diagram_csv(source) == read_diagram_csv(text)


def full_rips(pts, max_dim=2):
    m = pairwise_distances(pts)
    return build_rips(m, RipsParams(max_dim, float(m.max())))


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8),
           grid=st.booleans())
    def test_invariant_under_point_permutation(self, seed, n, grid):
        pts = seeded_cloud(seed, n, grid)
        order = np.random.default_rng(seed + 1).permutation(n)
        d = persistence_diagram(full_rips(pts), max_dim=2)
        permuted = full_rips(pts[order])
        assert persistence_diagram(permuted, max_dim=2) == d
        assert naive_reduction_diagram(permuted, max_dim=2) == as_multiset(d)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 7),
           grid=st.booleans())
    def test_duplicated_point_leaves_diagram_unchanged(self, seed, n, grid):
        # the copy is dominated by its twin at every scale; its own H0 class
        # is born and killed at 0 and dropped as a zero-length pair
        pts = seeded_cloud(seed, n, grid)
        twin = int(np.random.default_rng(seed + 1).integers(n))
        doubled = full_rips(np.concatenate([pts, pts[twin:twin + 1]]))
        d = persistence_diagram(full_rips(pts), max_dim=2)
        assert persistence_diagram(doubled, max_dim=2) == d
        assert naive_reduction_diagram(doubled, max_dim=2) == as_multiset(d)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 9))
    def test_tied_integer_grid_matches_oracle(self, seed, n):
        f = full_rips(seeded_cloud(seed, n, grid=True))
        assert (as_multiset(persistence_diagram(f, max_dim=2))
                == naive_reduction_diagram(f, max_dim=2))

    @given(st.lists(st.tuples(
        st.integers(0, 3),
        st.floats(-1e6, 1e6),
        st.one_of(st.just(math.inf), st.floats(0.0, 1e6))), max_size=20))
    def test_diagram_csv_roundtrip(self, rows):
        d = PersistenceDiagram(PersistencePair(dim, birth, birth + length)
                               for dim, birth, length in rows)
        assert read_diagram_csv(write_diagram_csv(d)) == d
