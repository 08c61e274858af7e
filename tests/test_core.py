import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ripsph.core import (Chain, Filtration, PersistenceDiagram,
                         PersistencePair, Simplex, SimplicialComplex, filtration_sort_key,
                         simplex_sort_key, validate_complex)

vertex_sets = st.sets(st.integers(min_value=0, max_value=30), min_size=1,
                      max_size=6)


class TestSimplex:
    def test_canonical_form(self):
        assert Simplex((2, 0, 1)).vertices == (0, 1, 2)

    @given(vertex_sets, st.randoms())
    def test_canonicalization_idempotent(self, verts, rnd):
        ordered = list(verts)
        rnd.shuffle(ordered)
        assert Simplex(ordered) == Simplex(sorted(verts))

    def test_dimension(self):
        assert Simplex((5,)).dimension == 0
        assert Simplex((0, 1, 2, 3)).dimension == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Simplex(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Simplex((1, 1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Simplex((-1, 0))

    def test_faces(self):
        assert set(Simplex((0, 1, 2)).faces()) == {
            Simplex((1, 2)), Simplex((0, 2)), Simplex((0, 1))}

    @given(vertex_sets)
    def test_faces_match_public_constructor(self, verts):
        s = Simplex(verts)
        expected = [Simplex(verts - {v}) for v in s.vertices] if len(verts) > 1 else []
        faces = s.faces()
        assert faces == expected
        assert [hash(f) for f in faces] == [hash(f) for f in expected]
        assert all(type(f.vertices) is tuple for f in faces)

    def test_subfaces_of_triangle(self):
        assert len(list(Simplex((0, 1, 2)).subfaces())) == 6


class TestSimplexIsItsVertexTuple:
    def test_equals_and_hashes_like_sorted_tuple(self):
        s = Simplex((2, 0, 1))
        assert s == (0, 1, 2)
        assert hash(s) == hash((0, 1, 2))
        assert s != (2, 0, 1)

    def test_found_by_plain_tuple_key(self):
        rows = {(0, 1): 7, (2,): 3}
        assert rows[Simplex((1, 0))] == 7
        assert Simplex((2,)) in rows
        assert (0, 1) in {Simplex((0, 1))}

    @given(st.lists(st.tuples(vertex_sets, st.sampled_from([0.0, 0.5, 1.0])),
                    max_size=12))
    def test_orders_as_dimension_vertices_keys(self, entries):
        # the keys before Simplex became a tuple: (dimension, vertex tuple)
        simplices = [Simplex(v) for v, _ in entries]
        assert sorted(simplices) == sorted(simplices, key=lambda s: s.vertices)
        assert (sorted(simplices, key=simplex_sort_key)
                == sorted(simplices, key=lambda s: (s.dimension, s.vertices)))
        pairs = [(s, scale) for s, (_, scale) in zip(simplices, entries)]
        assert (sorted(pairs, key=filtration_sort_key)
                == sorted(pairs, key=lambda e: (e[1], e[0].dimension, e[0].vertices)))

    def test_immutable(self):
        s = Simplex((0, 1))
        with pytest.raises(AttributeError):
            s.extra = 1
        with pytest.raises(AttributeError):
            s.vertices = (2, 3)

    def test_vertices_is_plain_tuple(self):
        v = Simplex((1, 0)).vertices
        assert type(v) is tuple
        assert v == (0, 1)

    def test_pickle_round_trip(self):
        s = Simplex((3, 1, 2))
        back = pickle.loads(pickle.dumps(s))
        assert type(back) is Simplex
        assert back == s
        assert repr(back) == "Simplex(1, 2, 3)"


class TestValidateComplex:
    def test_smallest_closed_edge(self):
        c = SimplicialComplex([Simplex((0,)), Simplex((1,)), Simplex((0, 1))])
        assert validate_complex(c) == []

    def test_lone_triangle_names_missing_faces(self):
        c = SimplicialComplex([Simplex((0, 1, 2))])
        violations = validate_complex(c)
        for face in ["(0, 1)", "(0, 2)", "(1, 2)", "(0,)", "(1,)", "(2,)"]:
            assert any(face in v for v in violations)

    def test_paper_style_six_vertex_complex(self):
        # 6 vertices A..F -> 0..5, 11 edges, 2 triangles
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4),
                 (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)]
        simplices = [Simplex((i,)) for i in range(6)]
        simplices += [Simplex(e) for e in edges]
        simplices += [Simplex((0, 1, 2)), Simplex((2, 4, 5))]
        c = SimplicialComplex(simplices)
        assert validate_complex(c) == []
        assert c.counts() == [6, 11, 2]

    def test_from_maximal_closes(self):
        c = SimplicialComplex.from_maximal([Simplex((0, 1, 2, 3))])
        assert validate_complex(c) == []
        assert c.counts() == [4, 6, 4, 1]

    def test_violators_in_several_dimensions_in_order(self):
        c = SimplicialComplex(Simplex(v) for v in [
            (0, 1, 2, 3), (0, 1, 2), (0, 1), (1,), (2, 3), (4,), (4, 5),
            (5, 6, 7)])
        assert validate_complex(c) == [
            "simplex (0, 1) missing face (0,)",
            "simplex (0, 1) missing vertex (0,)",
            "simplex (2, 3) missing face (3,)",
            "simplex (2, 3) missing face (2,)",
            "simplex (2, 3) missing vertex (2,)",
            "simplex (2, 3) missing vertex (3,)",
            "simplex (4, 5) missing face (5,)",
            "simplex (4, 5) missing vertex (5,)",
            "simplex (0, 1, 2) missing face (1, 2)",
            "simplex (0, 1, 2) missing face (0, 2)",
            "simplex (0, 1, 2) missing vertex (0,)",
            "simplex (0, 1, 2) missing vertex (2,)",
            "simplex (5, 6, 7) missing face (6, 7)",
            "simplex (5, 6, 7) missing face (5, 7)",
            "simplex (5, 6, 7) missing face (5, 6)",
            "simplex (5, 6, 7) missing vertex (5,)",
            "simplex (5, 6, 7) missing vertex (6,)",
            "simplex (5, 6, 7) missing vertex (7,)",
            "simplex (0, 1, 2, 3) missing face (1, 2, 3)",
            "simplex (0, 1, 2, 3) missing face (0, 2, 3)",
            "simplex (0, 1, 2, 3) missing face (0, 1, 3)",
            "simplex (0, 1, 2, 3) missing vertex (0,)",
            "simplex (0, 1, 2, 3) missing vertex (2,)",
            "simplex (0, 1, 2, 3) missing vertex (3,)",
        ]

    @given(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4),
                    max_size=12))
    def test_matches_walk_over_sorted_complex(self, vertex_sets):
        # every simplex in canonical order, faces then vertices
        c = SimplicialComplex(Simplex(v) for v in vertex_sets)
        expected = []
        for s in sorted(c.simplices, key=simplex_sort_key):
            if s.dimension == 0:
                continue
            expected += [f"simplex {s.vertices} missing face {f.vertices}"
                         for f in s.faces() if f not in c]
            expected += [f"simplex {s.vertices} missing vertex ({v},)"
                         for v in s if Simplex((v,)) not in c]
        assert validate_complex(c) == expected


class TestChain:
    def test_requires_uniform_dimension(self):
        with pytest.raises(ValueError):
            Chain(1, [Simplex((0, 1)), Simplex((2,))])

    @given(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)).map(
        lambda t: tuple(sorted(set(t)))).filter(lambda t: len(t) == 2),
        max_size=5))
    def test_addition_involution(self, edge_tuples):
        chain = Chain(1, [Simplex(e) for e in edge_tuples])
        extra = Simplex((20, 21))
        assert chain.add_simplex(extra).add_simplex(extra) == chain

    def test_shared_simplices_cancel(self):
        a = Chain(1, [Simplex((0, 1)), Simplex((1, 2))])
        b = Chain(1, [Simplex((1, 2)), Simplex((2, 3))])
        assert (a + b).simplices == frozenset({Simplex((0, 1)), Simplex((2, 3))})

    def test_addition_across_dimensions_rejected(self):
        with pytest.raises(ValueError, match="different dimensions"):
            Chain(1, [Simplex((0, 1))]) + Chain(0, [Simplex((0,))])


class TestFiltration:
    def test_sorted_by_scale_then_dim_then_lex(self):
        f = Filtration([
            (Simplex((0, 1)), 1.0),
            (Simplex((1,)), 0.0),
            (Simplex((0,)), 0.0),
            (Simplex((0, 2)), 1.0),
            (Simplex((2,)), 0.0),
        ])
        assert [s.vertices for s, _ in f] == [(0,), (1,), (2,), (0, 1), (0, 2)]

    def test_prefix_is_valid_complex(self):
        entries = [(Simplex((i,)), 0.0) for i in range(3)]
        entries += [(Simplex((0, 1)), 1.0), (Simplex((0, 2)), 2.0),
                    (Simplex((1, 2)), 2.0), (Simplex((0, 1, 2)), 2.0)]
        f = Filtration(entries)
        assert f.validate() == []
        for k in range(1, len(f) + 1):
            prefix = SimplicialComplex(s for s, _ in f.entries[:k])
            assert validate_complex(prefix) == []

    def test_nan_scale_rejected(self):
        # unrejected, NaN would leave the entries unsorted by scale
        with pytest.raises(ValueError, match="NaN"):
            Filtration([(Simplex((0,)), 2.0), (Simplex((1,)), math.nan),
                        (Simplex((2,)), 0.0)])

    def test_validate_flags_duplicate_entry(self):
        f = Filtration([(Simplex((0,)), 0.0), (Simplex((0,)), 1.0)])
        assert f.validate() == ["duplicate entry (0,)"]

    def test_validate_flags_late_face(self):
        f = Filtration([(Simplex((0,)), 0.0), (Simplex((1,)), 0.0),
                        (Simplex((0, 1)), 0.5)])
        assert f.validate() == []
        bad = Filtration([(Simplex((0,)), 0.0), (Simplex((0, 1)), 0.5)])
        assert bad.validate() == ["face (1,) of (0, 1) is missing or comes later"]


class TestPersistencePair:
    def test_death_before_birth_rejected(self):
        with pytest.raises(ValueError):
            PersistencePair(0, 2.0, 1.0)

    @pytest.mark.parametrize("dim,birth,death", [
        (-1, 0.0, 1.0), (0, math.nan, 1.0), (0, 0.0, math.nan),
        (0, math.inf, math.inf), (0, -math.inf, 1.0)])
    def test_rejects_invalid_values(self, dim, birth, death):
        with pytest.raises(ValueError):
            PersistencePair(dim, birth, death)

    def test_essential(self):
        p = PersistencePair(0, 0.0)
        assert p.is_essential and math.isinf(p.persistence)


class TestPersistenceDiagram:
    def test_sorted_read_only_columns(self):
        d = PersistenceDiagram([PersistencePair(1, 0.5, 2.0), PersistencePair(0, 0.0),
                                PersistencePair(0, 0.0, 1.0)])
        assert d.dims.tolist() == [0, 0, 1]
        assert d.births.tolist() == [0.0, 0.0, 0.5]
        assert d.deaths.tolist() == [1.0, math.inf, 2.0]
        assert d.dims.dtype == np.intp and d.births.dtype == d.deaths.dtype == np.float64
        for col in (d.dims, d.births, d.deaths):
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 7
        with pytest.raises(AttributeError):
            d.births = np.zeros(3)

    def test_unchecked_constructor_copies_its_columns(self):
        k, b = np.array([1, 0]), np.array([0.0, 0.5])
        d = PersistenceDiagram._columns(k, b, b + 1.0)
        k[0] = b[0] = 9
        assert d == PersistenceDiagram([PersistencePair(0, 0.5, 1.5),
                                        PersistencePair(1, 0.0, 1.0)])
        assert d.dims.flags.writeable is False

    def test_pairs_equality_hash_and_pickle(self):
        pairs = [PersistencePair(0, -0.0, 1.0), PersistencePair(1, 0.0)]
        a = PersistenceDiagram(pairs)
        b = PersistenceDiagram([PersistencePair(1, 0.0), PersistencePair(0, 0.0, 1.0)])
        assert a.pairs == tuple(sorted(pairs)) == tuple(a)
        assert a.in_dimension(1) == [PersistencePair(1, 0.0)]
        assert a == b and hash(a) == hash(b)
        assert a != PersistenceDiagram(pairs[:1]) and a != pairs
        back = pickle.loads(pickle.dumps(a))
        assert back == a and not back.births.flags.writeable
        assert len(PersistenceDiagram([])) == 0
        assert PersistenceDiagram([]).max_dimension == -1 and a.max_dimension == 1
