import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from ripsph.core import Simplex, SimplicialComplex


def hexagon_complex() -> SimplicialComplex:
    """Six-edge cycle: a triangulated circle."""
    edges = [Simplex((i, (i + 1) % 6)) for i in range(6)]
    return SimplicialComplex.from_maximal(edges)


def octahedron_boundary() -> SimplicialComplex:
    """Hollow octahedron: opposite vertex pairs (0,5), (1,4), (2,3)."""
    triangles = [Simplex((a, b, c)) for a in (0, 5) for b in (1, 4)
                 for c in (2, 3)]
    return SimplicialComplex.from_maximal(triangles)


def torus_7() -> SimplicialComplex:
    """Minimal 7-vertex torus triangulation: 21 edges, 14 triangles."""
    triangles = []
    for i in range(7):
        triangles.append(Simplex(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7)))))
        triangles.append(Simplex(tuple(sorted(((i + 1) % 7, (i + 3) % 7, (i + 4) % 7)))))
    return SimplicialComplex.from_maximal(triangles)


def two_hexagons() -> SimplicialComplex:
    """Two disjoint six-edge cycles on vertices 0-5 and 6-11."""
    edges = [Simplex((i, (i + 1) % 6)) for i in range(6)]
    edges += [Simplex((6 + i, 6 + (i + 1) % 6)) for i in range(6)]
    return SimplicialComplex.from_maximal(edges)


def seeded_cloud(seed, n, grid=False):
    """n seeded points in 2-D or 3-D; on an integer grid, many distances tie."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    if grid:
        return rng.integers(0, 3, size=(n, dim)).astype(float)
    return rng.uniform(0.0, 1.0, size=(n, dim))


@pytest.fixture
def hexagon():
    return hexagon_complex()
