"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive and shares no code path with the
implementations under test.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from ripsph.core import Filtration
from ripsph.metrics import TRIANGLE_TOL


def brute_force_rips(m, threshold: float, max_size: int) -> list[tuple[tuple[int, ...], float]]:
    """All subsets up to max_size whose pairwise distances fit the threshold."""
    n = len(m)
    out = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(n), size):
            dists = [m[i][j] for i, j in itertools.combinations(combo, 2)]
            if all(d <= threshold for d in dists):
                out.append((combo, max(dists, default=0.0)))
    return out


def naive_reduction_diagram(f: Filtration, drop_zero: bool = True,
                            max_dim: int | None = None) -> list[tuple[int, float, float]]:
    """Set-based left-to-right column reduction, no clearing, no bitsets."""
    index_of = {s: i for i, (s, _) in enumerate(f.entries)}
    columns: list[set[int]] = []
    for s, _ in f.entries:
        columns.append({index_of[face] for face in s.faces()})
    lowest_owner: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            owner = lowest_owner.get(low)
            if owner is None:
                lowest_owner[low] = j
                pairs.append((low, j))
                break
            col ^= columns[owner]
    paired_births = {i for i, _ in pairs}
    paired_deaths = {j for _, j in pairs}
    out = []
    for i, j in pairs:
        dim = f.entries[i][0].dimension
        birth, death = f.entries[i][1], f.entries[j][1]
        if drop_zero and birth == death:
            continue
        if max_dim is not None and dim > max_dim:
            continue
        out.append((dim, birth, death))
    for i, (s, scale) in enumerate(f.entries):
        if i not in paired_births and i not in paired_deaths and not columns[i]:
            if max_dim is None or s.dimension <= max_dim:
                out.append((s.dimension, scale, math.inf))
    return sorted(out)


def naive_validate_metric(m) -> list[str]:
    """Metric-axiom messages from per-pair loops, one numpy call per pair."""
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    violations = []
    for i in range(n):
        if m[i, i] != 0.0:
            violations.append(f"Identity violation at ({i},{i}): {m[i, i]!r}")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i, j] != m[j, i]:
                violations.append(f"Symmetry violation at ({i},{j})")
            if m[i, j] <= 0.0:
                violations.append(f"Positivity violation at ({i},{j}): {m[i, j]!r}")
    for i in range(n):
        for k in range(i + 1, n):
            # min over intermediate j of d(i,j)+d(j,k), vectorized
            if n and np.min(m[i] + m[:, k]) < m[i, k] - TRIANGLE_TOL:
                j = int(np.argmin(m[i] + m[:, k]))
                violations.append(
                    f"Triangle violation ({i},{k}): {m[i, k]!r} > "
                    f"{m[i, j]!r} + {m[j, k]!r}")
    return violations


def union_find_h0(f: Filtration) -> list[tuple[float, float]]:
    """Elder-rule sweep over edges: merge events kill the later-born side."""
    birth_index = {}  # vertex id -> filtration index (birth order)
    birth_scale = {}
    for i, (s, scale) in enumerate(f.entries):
        if s.dimension == 0:
            birth_index[s.vertices[0]] = i
            birth_scale[s.vertices[0]] = scale
    parent = {v: v for v in birth_index}
    oldest = {v: v for v in birth_index}  # root -> oldest member

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    out = []
    for s, scale in f.entries:
        if s.dimension != 1:
            continue
        u, v = s.vertices
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        older_u, older_v = oldest[ru], oldest[rv]
        if birth_index[older_u] > birth_index[older_v]:
            older_u, older_v = older_v, older_u
        dying = older_v  # the later-born component dies
        if birth_scale[dying] != scale:
            out.append((birth_scale[dying], scale))
        parent[rv] = ru
        oldest[ru] = older_u
    roots = {find(v) for v in birth_index}
    for r in roots:
        out.append((birth_scale[oldest[r]], math.inf))
    return sorted(out)


def naive_gf2_rank(rows: list[list[int]]) -> int:
    """Full dense Gaussian elimination over GF(2) on a list-of-lists matrix."""
    if not rows or not rows[0]:
        return 0
    mat = [row[:] for row in rows]
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, n_rows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        for r in range(n_rows):
            if r != pivot_row and mat[r][col]:
                mat[r] = [a ^ b for a, b in zip(mat[r], mat[pivot_row])]
        rank += 1
        pivot_row += 1
        if pivot_row == n_rows:
            break
    return rank


def _linf(p, q):
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def _diag(p):
    return (p[1] - p[0]) / 2.0


def exhaustive_matching_costs(a: list[tuple[float, float]],
                              b: list[tuple[float, float]]):
    """Yield (max_cost, sum_cost) of every matching with diagonal augmentation."""

    def recurse(i, used, matched_costs):
        if i == len(a):
            costs = matched_costs + [_diag(b[j]) for j in range(len(b))
                                     if j not in used]
            yield (max(costs, default=0.0), sum(costs))
            return
        yield from recurse(i + 1, used, matched_costs + [_diag(a[i])])
        for j in range(len(b)):
            if j not in used:
                yield from recurse(i + 1, used | {j},
                                   matched_costs + [_linf(a[i], b[j])])

    yield from recurse(0, frozenset(), [])


def exhaustive_bottleneck(a, b, ea=(), eb=()):
    if len(ea) != len(eb):
        return math.inf
    ess = max((abs(x - y) for x, y in zip(sorted(ea), sorted(eb))), default=0.0)
    best = min((mx for mx, _ in exhaustive_matching_costs(a, b)), default=0.0)
    return max(ess, best)


def exhaustive_wasserstein(a, b, ea=(), eb=()):
    if len(ea) != len(eb):
        return math.inf
    ess = sum(abs(x - y) for x, y in zip(sorted(ea), sorted(eb)))
    best = min((s for _, s in exhaustive_matching_costs(a, b)), default=0.0)
    return ess + best
