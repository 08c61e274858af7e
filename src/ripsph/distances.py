"""Bottleneck and 1-Wasserstein distances between persistence diagrams.

Ground metric is L-infinity on the (birth, death) plane; a point may match
its orthogonal diagonal projection at cost (death - birth) / 2. Essential
(infinite-death) points must match each other; mismatched counts make the
distance infinite.

Bottleneck bisects over the realised costs. A radius c is feasible iff
some perfect matching uses only edges of cost <= c, that is iff the
cheapest assignment on the 0/1 matrix `cost > c` costs 0; scipy's
`linear_sum_assignment` decides that exactly, so the answer is one of the
realised costs. (scipy's Hopcroft-Karp, `maximum_bipartite_matching`, was
up to 250 times slower on an infeasible radius near the answer for
800-point diagrams.) Wasserstein solves the assignment problem on the cost
matrix itself.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import PersistenceDiagram


def _split(d: PersistenceDiagram, dim: int) -> tuple[np.ndarray, list[float]]:
    pairs = d.in_dimension(dim)
    finite = np.array([(p.birth, p.death) for p in pairs if not p.is_essential],
                      dtype=np.float64).reshape(-1, 2)
    essential = sorted(p.birth for p in pairs if p.is_essential)
    return finite, essential


def _cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Square (n+m) x (m+n) matrix: rows = a-points then m diagonal slots,
    columns = b-points then n diagonal slots; diagonal-diagonal costs 0."""
    n, m = len(a), len(b)
    cost = np.zeros((n + m, m + n), dtype=np.float64)
    cost[:n, :m] = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]),
                              np.abs(a[:, None, 1] - b[None, :, 1]))
    cost[:n, m:] = ((a[:, 1] - a[:, 0]) / 2.0)[:, None]
    cost[n:, :m] = (b[:, 1] - b[:, 0]) / 2.0
    return cost


def bottleneck_distance(a: PersistenceDiagram, b: PersistenceDiagram,
                        dim: int) -> float:
    """Exact bottleneck distance for one homology dimension.

    Binary search over the realized cost values only, each step checked by
    a perfect-matching feasibility test, so no floating thresholds enter
    the answer.
    """
    fa, ea = _split(a, dim)
    fb, eb = _split(b, dim)
    if len(ea) != len(eb):
        return math.inf
    essential_cost = max((abs(x - y) for x, y in zip(ea, eb)), default=0.0)
    if fa.size + fb.size == 0:
        return essential_cost
    cost = _cost_matrix(fa, fb)
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
    return max(essential_cost, float(candidates[lo]))


def wasserstein_distance(a: PersistenceDiagram, b: PersistenceDiagram,
                         dim: int) -> float:
    """1-Wasserstein distance: minimum total L-infinity cost over perfect
    matchings with diagonal augmentation, via exact assignment."""
    fa, ea = _split(a, dim)
    fb, eb = _split(b, dim)
    if len(ea) != len(eb):
        return math.inf
    essential_costs = [abs(x - y) for x, y in zip(ea, eb)]
    if fa.size + fb.size == 0:
        return math.fsum(essential_costs)
    cost = _cost_matrix(fa, fb)
    rows, cols = linear_sum_assignment(cost)
    # fsum: exactly rounded, so the total does not depend on argument order
    return math.fsum(essential_costs + list(cost[rows, cols]))
