"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive and shares no code path with the
implementations under test.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from ripsph.core import Filtration
from ripsph.errors import EmptyDiagram
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
            violations.append(f"Identity violation at ({i},{i}): {float(m[i, i])!r}")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i, j] != m[j, i]:
                violations.append(f"Symmetry violation at ({i},{j})")
            if m[i, j] <= 0.0:
                violations.append(
                    f"Positivity violation at ({i},{j}): {float(m[i, j])!r}")
    for i in range(n):
        for k in range(i + 1, n):
            # min over intermediate j of d(i,j)+d(j,k), vectorized
            if n and np.min(m[i] + m[:, k]) < m[i, k] - TRIANGLE_TOL:
                j = int(np.argmin(m[i] + m[:, k]))
                violations.append(
                    f"Triangle violation ({i},{k}): {float(m[i, k])!r} > "
                    f"{float(m[i, j])!r} + {float(m[j, k])!r}")
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


def per_pair_diagram_csv(d) -> str:
    """write_diagram_csv one PersistencePair at a time."""
    lines = ["dim,birth,death"]
    for p in d:
        death = "inf" if p.is_essential else repr(p.death)
        lines.append(f"{p.dimension},{p.birth!r},{death}")
    return "\n".join(lines) + "\n"


def per_pair_betti_at_scale(d, s: float, max_dim: int | None = None) -> tuple[int, ...]:
    """betti_at_scale one PersistencePair at a time."""
    if math.isnan(s):
        raise ValueError("scale must not be NaN")
    if max_dim is None:
        max_dim = max((p.dimension for p in d), default=0)
    betti = [0] * (max_dim + 1)
    for p in d:
        if p.dimension <= max_dim and p.birth <= s and (s < p.death or p.is_essential):
            betti[p.dimension] += 1
    return tuple(betti)


def per_pair_significant_features(d, min_persistence: float) -> list:
    """The PersistencePairs that significant_features keeps, in order."""
    if not min_persistence >= 0:
        raise ValueError("min_persistence must be >= 0")
    return [p for p in d if p.is_essential or p.persistence >= min_persistence]


def _per_pair_frame(d, o):
    """The set-up of both per-pair renderers: cap, x map, inner height and
    opening elements."""
    if len(d) == 0:
        raise EmptyDiagram("cannot render an empty diagram")
    top = max(p.birth if p.is_essential else p.death for p in d)
    cap = o.cap if o.cap is not None else (1.05 * top if top > 0 else 1.0)
    if not max(top, 0.0) < cap < math.inf:
        raise ValueError("cap must be finite, positive and exceed every finite "
                         "birth and death")
    inner_w = o.width - 2 * o.margin

    def x_of(v):
        return o.margin + inner_w * v / cap

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{o.width}" height="{o.height}" '
             f'viewBox="0 0 {o.width} {o.height}">',
             f'<rect x="0" y="0" width="{o.width}" height="{o.height}" fill="white"/>',
             f'<line x1="{o.margin}" y1="{o.height - o.margin}" '
             f'x2="{o.width - o.margin}" y2="{o.height - o.margin}" stroke="black"/>']
    return cap, x_of, o.height - 2 * o.margin, parts


def _fmt6(x) -> str:
    return format(float(x), ".6g")


def per_pair_barcode_svg(d, o) -> str:
    """render_barcode_svg one PersistencePair at a time."""
    cap, x_of, inner_h, parts = _per_pair_frame(d, o)
    parts.insert(1, '<defs><marker id="arrow" markerWidth="8" markerHeight="8" '
                    'refX="6" refY="3" orient="auto">'
                    '<path d="M0,0 L6,3 L0,6 z"/></marker></defs>')
    step = inner_h / len(d)
    for i, p in enumerate(d):
        y = o.margin + step * (i + 0.5)
        x1 = x_of(p.birth)
        x2 = x_of(cap if p.is_essential else p.death)
        marker = ' marker-end="url(#arrow)"' if p.is_essential else ""
        parts.append(
            f'<line class="bar dim{p.dimension}" x1="{_fmt6(x1)}" y1="{_fmt6(y)}" '
            f'x2="{_fmt6(x2)}" y2="{_fmt6(y)}" '
            f'stroke="{o.colors[p.dimension % len(o.colors)]}" '
            f'stroke-width="3"{marker}/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def per_pair_diagram_svg(d, o) -> str:
    """render_diagram_svg one PersistencePair at a time."""
    cap, x_of, inner_h, parts = _per_pair_frame(d, o)

    def y_of(v):
        return o.height - o.margin - inner_h * v / cap

    parts.append(f'<line x1="{o.margin}" y1="{o.height - o.margin}" '
                 f'x2="{o.margin}" y2="{o.margin}" stroke="black"/>')
    if o.draw_diagonal:
        parts.append(
            f'<line class="diagonal" x1="{_fmt6(x_of(0.0))}" y1="{_fmt6(y_of(0.0))}" '
            f'x2="{_fmt6(x_of(cap))}" y2="{_fmt6(y_of(cap))}" '
            f'stroke="gray" stroke-dasharray="4 3"/>')
    parts.append(
        f'<line class="cap" x1="{_fmt6(x_of(0.0))}" y1="{_fmt6(y_of(cap))}" '
        f'x2="{_fmt6(x_of(cap))}" y2="{_fmt6(y_of(cap))}" '
        f'stroke="lightgray" stroke-dasharray="2 2"/>')
    for p in d:
        color = o.colors[p.dimension % len(o.colors)]
        if p.is_essential:
            x, y = x_of(p.birth), y_of(cap)
            parts.append(
                f'<rect class="point dim{p.dimension} essential" '
                f'x="{_fmt6(x - 4)}" y="{_fmt6(y - 4)}" width="8" height="8" '
                f'fill="{color}"/>')
        else:
            parts.append(
                f'<circle class="point dim{p.dimension}" cx="{_fmt6(x_of(p.birth))}" '
                f'cy="{_fmt6(y_of(p.death))}" r="4" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
