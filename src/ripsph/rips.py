"""Vietoris-Rips filtration construction from a distance matrix.

Scale values use the edge-length (diameter) convention: a simplex enters
at the largest pairwise distance among its vertices. Callers working in
the radius convention double their threshold before calling in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Filtration, Simplex, SimplicialComplex
from .errors import DimensionTooLarge, NotSquare


@dataclass(frozen=True)
class RipsParams:
    """max_dimension is the top homology dimension wanted; simplices one
    dimension higher are generated so that boundaries exist for it."""

    max_dimension: int
    threshold: float

    def __post_init__(self):
        if self.max_dimension < 0:
            raise ValueError("max_dimension must be >= 0")
        if not self.threshold >= 0:  # also rejects NaN
            raise ValueError("threshold must be >= 0")


def build_rips(m: np.ndarray, params: RipsParams) -> Filtration:
    """Clique (flag) filtration: every subset whose pairwise distances are
    all <= threshold enters at its largest pairwise distance.

    Cliques are enumerated by incremental expansion over vertex-id-ordered
    neighbor lists, so each clique is produced exactly once.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square distance matrix, got shape {m.shape}")
    # min is NaN if any entry is; symmetry is left to validate_metric, since
    # only the upper triangle is read
    if m.size and not (m.min() >= 0.0 and m.max() < np.inf):
        i, j = np.argwhere(~(m >= 0.0) | np.isinf(m))[0]
        raise ValueError(f"distance ({i},{j}) is {float(m[i, j])!r}; "
                         "distances must be finite and non-negative")
    n = m.shape[0]
    if params.max_dimension + 1 >= n:
        raise DimensionTooLarge(
            f"homology dimension {params.max_dimension} needs more than "
            f"{n} points")
    eps = params.threshold
    max_size = params.max_dimension + 2
    neighbors = [(np.flatnonzero(m[i, i + 1:] <= eps) + i + 1).tolist()
                 for i in range(n)]
    entries: list[tuple[Simplex, float]] = [
        (Simplex._canonical((i,)), 0.0) for i in range(n)]

    def expand(clique: tuple[int, ...], cands: list[int], diam: float) -> None:
        for idx, j in enumerate(cands):
            d = max(diam, max(float(m[v, j]) for v in clique))
            grown = clique + (j,)
            entries.append((Simplex._canonical(grown), d))
            if len(grown) < max_size:
                tail = [u for u in cands[idx + 1:] if m[j, u] <= eps]
                expand(grown, tail, d)

    if max_size >= 2:
        for i in range(n):
            expand((i,), neighbors[i], 0.0)
    return Filtration(entries)


def complex_at_scale(f: Filtration, s: float) -> SimplicialComplex:
    """The complex formed by all filtration entries with scale <= s."""
    return SimplicialComplex(simplex for simplex, scale in f if scale <= s)
