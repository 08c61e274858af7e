"""Boundary maps, GF(2) rank, and Betti numbers of a fixed complex.

Matrix columns are Python ints used as bitsets (bit i = row i), so column
addition is one XOR regardless of width.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import Chain, Simplex, SimplicialComplex, simplex_sort_key
from .errors import InvalidFiltration, NotACycle


def boundary_of_simplex(s: Simplex) -> Chain:
    """Sum of the codimension-1 faces; vertices map to the empty chain."""
    if s.dimension == 0:
        return Chain(-1)
    return Chain(s.dimension - 1, s.faces())


def boundary_of_chain(c: Chain) -> Chain:
    """GF(2) sum of member boundaries; shared faces cancel in pairs."""
    faces: set[Simplex] = set()
    for s in c:
        faces.symmetric_difference_update(s.faces())
    return Chain(c.dimension - 1, faces)


def is_cycle(c: Chain) -> bool:
    return boundary_of_chain(c).is_zero


@dataclass(frozen=True)
class BoundaryMatrixZ2:
    """delta_k as bit-packed columns over canonical simplex orderings."""

    rows: tuple[Simplex, ...]       # (k-1)-simplices
    cols: tuple[Simplex, ...]       # k-simplices
    columns: tuple[int, ...]        # columns[j] bitset of face row indices

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))


def _boundary_columns(simplices: Iterable[Simplex]) -> tuple[list, dict, dict]:
    """The one place where faces become boundary rows. Walks simplices given
    faces first and returns each one's boundary column, the walk positions of
    each dimension, and each simplex's row (its position within its dimension)
    keyed by the simplex, which its plain vertex tuple also finds. Raises
    InvalidFiltration when a simplex repeats or one of its faces is missing or
    comes later."""
    columns: list[int] = []
    by_dim: dict[int, list[int]] = {}
    row_of: dict[Simplex, int] = {}
    for i, s in enumerate(simplices):
        if s in row_of:
            raise InvalidFiltration(f"duplicate entry {s.vertices}")
        bits = 0
        if len(s) > 1:  # a vertex has no faces
            for k in range(len(s)):
                face = s[:k] + s[k + 1:]  # a plain tuple, found as the Simplex
                row = row_of.get(face)
                if row is None:
                    raise InvalidFiltration(
                        f"face {face} of {s.vertices} is missing or comes later")
                bits |= 1 << row
        columns.append(bits)
        same_dim = by_dim.setdefault(len(s) - 1, [])
        row_of[s] = len(same_dim)
        same_dim.append(i)
    return columns, by_dim, row_of


def _complex_columns(c: SimplicialComplex, top: int) -> tuple:
    """The simplices of dimension <= top in canonical order, followed by
    what _boundary_columns returns for them."""
    cells = sorted((s for s in c.simplices if s.dimension <= top), key=simplex_sort_key)
    return (cells, *_boundary_columns(cells))


def build_boundary_matrix(c: SimplicialComplex, k: int) -> BoundaryMatrixZ2:
    """Matrix of delta_k; empty (0-column) matrix if no k-simplices exist."""
    if k < 1:
        raise ValueError("boundary matrices start at k = 1")
    cells, columns, by_dim, _ = _complex_columns(c, k)
    cols = by_dim.get(k, [])
    return BoundaryMatrixZ2(tuple(cells[i] for i in by_dim.get(k - 1, [])),
                            tuple(cells[j] for j in cols),
                            tuple(columns[j] for j in cols))


def _reduce(columns: list[int], order: Iterable[int],
            owner: dict[int, int]) -> None:
    """The GF(2) column reduction shared by every elimination in the package.

    Reduces columns[j] in place for each j in order: while its lowest one is
    owned by an earlier column, add that column. A column left nonzero takes
    ownership of its lowest one, recorded in owner (row -> column index).
    """
    for j in order:
        c = columns[j]
        while c:
            low = c.bit_length() - 1
            other = owner.get(low)
            if other is None:
                owner[low] = j
                break
            c ^= columns[other]
        columns[j] = c


def rank_z2(m: BoundaryMatrixZ2) -> int:
    """Rank over GF(2) by left-to-right elimination; input unmodified."""
    owner: dict[int, int] = {}
    _reduce(list(m.columns), range(len(m.columns)), owner)
    return len(owner)


def betti_numbers(c: SimplicialComplex, max_k: int) -> tuple[int, ...]:
    """beta_k = (n_k - rank delta_k) - rank delta_{k+1}, with rank delta_0 = 0.

    Ordinary (non-reduced) homology: beta_0 counts connected components.
    """
    columns, by_dim = _complex_columns(c, max_k + 1)[1:3]
    ranks = [0] * (max_k + 2)
    for k in range(1, max_k + 2):
        owner: dict[int, int] = {}
        _reduce(columns, by_dim.get(k, []), owner)
        ranks[k] = len(owner)
    return tuple(len(by_dim.get(k, [])) - ranks[k] - ranks[k + 1]
                 for k in range(max_k + 1))


def are_homologous(c1: Chain, c2: Chain, complex_: SimplicialComplex) -> bool:
    """Whether c1 + c2 bounds, i.e. lies in the column space of delta_{k+1}."""
    if not is_cycle(c1):
        raise NotACycle("first chain has nonzero boundary")
    if not is_cycle(c2):
        raise NotACycle("second chain has nonzero boundary")
    if c1.dimension != c2.dimension:
        raise ValueError("chains must share a dimension")
    diff = c1 + c2
    if diff.is_zero:
        return True
    k = c1.dimension
    _, columns, by_dim, row_of = _complex_columns(complex_, k + 1)
    target = 0
    for s in diff:
        row = row_of.get(s)
        if row is None:
            raise ValueError(f"{s!r} is not a simplex of the complex")
        target |= 1 << row
    columns.append(target)
    # the target reduces to zero iff it is a sum of the boundary columns
    _reduce(columns, by_dim.get(k + 1, []) + [len(columns) - 1], {})
    return columns[-1] == 0
