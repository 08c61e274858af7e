"""Bottleneck and 1-Wasserstein distances between persistence diagrams.

Ground metric is L-infinity on the (birth, death) plane; a point may match
its orthogonal diagonal projection at cost (death - birth) / 2. Essential
(infinite-death) points must match each other; mismatched counts make the
distance infinite.

Bottleneck bisects over the realised costs: the L-infinity distances
between points of the two diagrams, their half-persistences and 0. At a
radius c a point is far when its diagonal cost exceeds c; every other
point may go to the diagonal. So c is feasible iff some matching of
point pairs within c covers every far point of both diagrams, and by the
Mendelsohn-Dulmage theorem such a matching exists iff each side's far
points can be covered on their own. Each step therefore runs two
one-sided assignments (far points of one side against all points of the
other) with scipy's `linear_sum_assignment` on a 0/1 matrix, never one
over the (n+m) x (m+n) diagonal-augmented graph, and the answer is one of
the realised costs. (scipy's Hopcroft-Karp, `maximum_bipartite_matching`,
was up to 250 times slower on an infeasible radius near the answer for
800-point diagrams.) Wasserstein solves the assignment problem on the
augmented cost matrix itself.
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


def _linf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """n x m L-infinity distances between the points of a and of b."""
    return np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]),
                      np.abs(a[:, None, 1] - b[None, :, 1]))


def _half(p: np.ndarray) -> np.ndarray:
    """Diagonal cost of each point: half its persistence."""
    return (p[:, 1] - p[:, 0]) / 2.0


def _cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Square (n+m) x (m+n) matrix: rows = a-points then m diagonal slots,
    columns = b-points then n diagonal slots; diagonal-diagonal costs 0."""
    n, m = len(a), len(b)
    cost = np.zeros((n + m, m + n), dtype=np.float64)
    cost[:n, :m] = _linf(a, b)
    cost[:n, m:] = _half(a)[:, None]
    cost[n:, :m] = _half(b)
    return cost


def _covers(ok: np.ndarray) -> bool:
    """Whether some matching within the 0/1 matrix ok covers every row
    (trivially so when there are none)."""
    if ok.shape[0] > ok.shape[1]:
        return False
    rows, cols = linear_sum_assignment(~ok)
    return bool(ok[rows, cols].all())


def bottleneck_distance(a: PersistenceDiagram, b: PersistenceDiagram,
                        dim: int) -> float:
    """Exact bottleneck distance for one homology dimension.

    Binary search over the realised cost values only. Radius c is feasible
    iff the far points of a (half-persistence above c) can all be matched
    to points of b within L-infinity distance c, and the far points of b
    to points of a; by Mendelsohn-Dulmage these two one-sided matchings
    combine into one perfect matching of the diagonal-augmented diagrams
    within c. No floating thresholds enter the answer.
    """
    fa, ea = _split(a, dim)
    fb, eb = _split(b, dim)
    if len(ea) != len(eb):
        return math.inf
    essential_cost = max((abs(x - y) for x, y in zip(ea, eb)), default=0.0)
    if fa.size + fb.size == 0:
        return essential_cost
    linf, ha, hb = _linf(fa, fb), _half(fa), _half(fb)
    candidates = np.unique(np.concatenate([linf.ravel(), ha, hb, [0.0]]))
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        c = candidates[mid]
        close = linf <= c
        if _covers(close[ha > c]) and _covers(close[:, hb > c].T):
            hi = mid
        else:
            lo = mid + 1
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
