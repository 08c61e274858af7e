import random
import time

import pytest

from conftest import (hexagon_complex, octahedron_boundary, torus_7,
                      two_hexagons)
from oracles import naive_gf2_rank
from ripsph.core import Chain, Simplex, SimplicialComplex
from ripsph.errors import NotACycle, RipsphError
from ripsph.homology import (BoundaryMatrixZ2, are_homologous, betti_numbers,
                             boundary_of_chain, boundary_of_simplex,
                             build_boundary_matrix, is_cycle, rank_z2)


def hexagon_cycle() -> Chain:
    return Chain(1, [Simplex((i, (i + 1) % 6)) for i in range(6)])


def raw_matrix(columns: list[int]) -> BoundaryMatrixZ2:
    """Bitset columns with no simplices attached; rank_z2 reads only these."""
    return BoundaryMatrixZ2((), (), tuple(columns))


class TestBoundaryOfSimplex:
    def test_edge(self):
        assert boundary_of_simplex(Simplex((0, 1))).simplices == frozenset(
            {Simplex((0,)), Simplex((1,))})

    def test_triangle(self):
        b = boundary_of_simplex(Simplex((0, 1, 2)))
        assert b.simplices == frozenset(
            {Simplex((1, 2)), Simplex((0, 2)), Simplex((0, 1))})

    def test_tetrahedron_has_four_triangles(self):
        b = boundary_of_simplex(Simplex((0, 1, 2, 3)))
        assert len(b) == 4
        assert all(s.dimension == 2 for s in b)

    def test_vertex_boundary_is_empty(self):
        assert boundary_of_simplex(Simplex((7,))).is_zero


class TestBoundaryOfChain:
    def test_hexagon_cycle_boundary_is_zero(self):
        assert boundary_of_chain(hexagon_cycle()).is_zero

    def test_single_edge(self):
        b = boundary_of_chain(Chain(1, [Simplex((0, 1))]))
        assert b.simplices == frozenset({Simplex((0,)), Simplex((1,))})

    def test_shared_edge_cancels(self):
        two = Chain(2, [Simplex((0, 1, 2)), Simplex((1, 2, 3))])
        b = boundary_of_chain(two)
        # boundary of the union: the 4-cycle, shared edge (1,2) cancelled
        assert b.simplices == frozenset({Simplex((0, 1)), Simplex((0, 2)),
                                         Simplex((1, 3)), Simplex((2, 3))})

    def test_double_boundary_property(self):
        rng = random.Random(7)
        for _ in range(200):
            dim = rng.randint(2, 5)
            verts = rng.sample(range(40), dim + 1)
            s = Simplex(verts)
            assert boundary_of_chain(boundary_of_simplex(s)).is_zero

    def test_long_cycle_is_linear(self):
        n = 16_000
        cycle = Chain(1, [Simplex((i, (i + 1) % n)) for i in range(n)])
        start = time.perf_counter()
        assert boundary_of_chain(cycle).is_zero
        assert time.perf_counter() - start < 1.0


class TestBoundaryMatrix:
    def test_hexagon_delta1_shape(self):
        m = build_boundary_matrix(hexagon_complex(), 1)
        assert m.shape == (6, 6)
        assert all(bin(c).count("1") == 2 for c in m.columns)

    def test_filled_triangle_delta2(self):
        c = SimplicialComplex.from_maximal([Simplex((0, 1, 2))])
        m = build_boundary_matrix(c, 2)
        assert m.shape == (3, 1)
        assert m.columns[0] == 0b111

    def test_paper_style_complex_delta2(self):
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4),
                 (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)]
        simplices = [Simplex((i,)) for i in range(6)]
        simplices += [Simplex(e) for e in edges]
        simplices += [Simplex((0, 1, 2)), Simplex((2, 4, 5))]
        m = build_boundary_matrix(SimplicialComplex(simplices), 2)
        assert m.shape == (11, 2)

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="start at k = 1"):
            build_boundary_matrix(hexagon_complex(), 0)

    def test_absent_dimension_gives_empty_matrix(self):
        c = hexagon_complex()
        m = build_boundary_matrix(c, 2)
        assert m.shape == (6, 0)
        assert rank_z2(m) == 0


def dense_boundary(c: SimplicialComplex, k: int):
    """delta_k as a 0/1 row list over sorted simplices, from faces() alone."""
    rows = sorted(s for s in c.simplices if s.dimension == k - 1)
    cols = sorted(s for s in c.simplices if s.dimension == k)
    return rows, cols, [[int(r in s.faces()) for s in cols] for r in rows]


def random_closed_complex(rng: random.Random) -> SimplicialComplex:
    maximal = [Simplex(rng.sample(range(9), rng.randint(1, 5)))
               for _ in range(rng.randint(1, 8))]
    return SimplicialComplex.from_maximal(maximal)


class TestAgainstDenseOracle:
    def test_boundary_matrix_columns(self):
        rng = random.Random(17)
        for _ in range(40):
            c = random_closed_complex(rng)
            for k in range(1, c.dimension + 2):
                rows, cols, dense = dense_boundary(c, k)
                m = build_boundary_matrix(c, k)
                assert (list(m.rows), list(m.cols)) == (rows, cols)
                assert list(m.columns) == [
                    sum(dense[i][j] << i for i in range(len(rows)))
                    for j in range(len(cols))]

    def test_betti_numbers(self):
        rng = random.Random(19)
        for _ in range(40):
            c = random_closed_complex(rng)
            top = c.dimension
            ranks = [0] + [naive_gf2_rank(dense_boundary(c, k)[2])
                           for k in range(1, top + 2)] + [0]
            counts = c.counts()
            expected = tuple(counts[k] - ranks[k] - ranks[k + 1]
                             for k in range(top + 1))
            assert betti_numbers(c, top) == expected


class TestMissingFace:
    # the edge (0, 1) is present but its vertex (1,) is not
    broken = SimplicialComplex([Simplex((0,)), Simplex((0, 1))])

    @pytest.mark.parametrize("call", [
        lambda c: betti_numbers(c, 1),
        lambda c: build_boundary_matrix(c, 1),
        lambda c: are_homologous(Chain(0, [Simplex((0,))]), Chain(0), c),
    ], ids=["betti_numbers", "build_boundary_matrix", "are_homologous"])
    def test_names_simplex_and_face(self, call):
        with pytest.raises(RipsphError, match=r"face \(1,\) of \(0, 1\)"):
            call(self.broken)


class TestRankZ2:
    def test_zero_matrix(self):
        assert rank_z2(raw_matrix([0, 0, 0])) == 0

    def test_identity(self):
        assert rank_z2(raw_matrix([1, 2, 4])) == 3

    def test_hexagon_delta1_rank(self):
        assert rank_z2(build_boundary_matrix(hexagon_complex(), 1)) == 5

    def test_matches_naive_oracle_on_random_matrices(self):
        rng = random.Random(11)
        for _ in range(50):
            n_rows = rng.randint(1, 64)
            n_cols = rng.randint(1, 64)
            rows = [[rng.randint(0, 1) for _ in range(n_cols)]
                    for _ in range(n_rows)]
            cols = []
            for j in range(n_cols):
                bits = 0
                for i in range(n_rows):
                    bits |= rows[i][j] << i
                cols.append(bits)
            assert rank_z2(raw_matrix(cols)) == naive_gf2_rank(rows)


class TestBettiNumbers:
    def test_circle(self):
        assert betti_numbers(hexagon_complex(), 2) == (1, 1, 0)

    def test_sphere(self):
        assert betti_numbers(octahedron_boundary(), 2) == (1, 0, 1)

    def test_torus(self):
        c = torus_7()
        assert c.counts() == [7, 21, 14]
        assert betti_numbers(c, 2) == (1, 2, 1)

    def test_two_disjoint_circles(self):
        assert betti_numbers(two_hexagons(), 2) == (2, 2, 0)

    def test_euler_poincare_on_random_complexes(self):
        rng = random.Random(3)
        for _ in range(30):
            maximal = [Simplex(rng.sample(range(8), rng.randint(1, 4)))
                       for _ in range(rng.randint(1, 6))]
            c = SimplicialComplex.from_maximal(maximal)
            counts = c.counts()
            betti = betti_numbers(c, c.dimension)
            euler_counts = sum((-1) ** k * n for k, n in enumerate(counts))
            euler_betti = sum((-1) ** k * b for k, b in enumerate(betti))
            assert euler_counts == euler_betti

    def test_beta0_matches_union_find_components(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 10)
            edges = {tuple(sorted(rng.sample(range(n), 2)))
                     for _ in range(rng.randint(0, 12))}
            simplices = [Simplex((i,)) for i in range(n)]
            simplices += [Simplex(e) for e in edges]
            c = SimplicialComplex(simplices)
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in edges:
                parent[find(u)] = find(v)
            components = len({find(i) for i in range(n)})
            assert betti_numbers(c, 0)[0] == components


class TestCyclesAndHomology:
    def test_hexagon_is_cycle(self):
        assert is_cycle(hexagon_cycle())

    def test_single_edge_is_not(self):
        assert not is_cycle(Chain(1, [Simplex((0, 1))]))

    def test_empty_chain_is_cycle(self):
        assert is_cycle(Chain(1))

    def test_homologous_to_self(self):
        c = hexagon_complex()
        assert are_homologous(hexagon_cycle(), hexagon_cycle(), c)

    def test_filled_triangle_boundary_is_null_homologous(self):
        c = SimplicialComplex.from_maximal([Simplex((0, 1, 2))])
        boundary = boundary_of_simplex(Simplex((0, 1, 2)))
        assert are_homologous(boundary, Chain(1), c)

    def test_hexagon_loop_is_not_null_homologous(self):
        assert not are_homologous(hexagon_cycle(), Chain(1), hexagon_complex())

    def test_annulus_boundary_circles_are_homologous(self):
        # triangulated prism ring: outer triangle 0,1,2 and inner 3,4,5
        triangles = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5),
                     (0, 2, 5), (0, 3, 5)]
        annulus = SimplicialComplex.from_maximal(
            [Simplex(t) for t in triangles])
        outer = Chain(1, [Simplex((0, 1)), Simplex((1, 2)), Simplex((0, 2))])
        inner = Chain(1, [Simplex((3, 4)), Simplex((4, 5)), Simplex((3, 5))])
        assert are_homologous(outer, inner, annulus)
        assert not are_homologous(outer, Chain(1), annulus)

    def test_rejects_non_cycle(self):
        with pytest.raises(NotACycle):
            are_homologous(Chain(1, [Simplex((0, 1))]), Chain(1),
                           hexagon_complex())

    def test_rejects_non_cycle_second_chain(self):
        with pytest.raises(NotACycle, match="second chain"):
            are_homologous(Chain(1), Chain(1, [Simplex((0, 1))]),
                           hexagon_complex())

    def test_rejects_chains_of_different_dimensions(self):
        with pytest.raises(ValueError, match="share a dimension"):
            are_homologous(hexagon_cycle(), Chain(0, [Simplex((0,))]),
                           hexagon_complex())

    def test_rejects_simplex_outside_the_complex(self):
        triangle = SimplicialComplex.from_maximal([Simplex((0, 1, 2))])
        with pytest.raises(ValueError, match="is not a simplex of the complex"):
            are_homologous(hexagon_cycle(), Chain(1), triangle)
